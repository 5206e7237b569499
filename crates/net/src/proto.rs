//! The pangead request/response protocol, stated once.
//!
//! Messages cover the core node operations the cluster layer needs from a
//! remote peer: set creation, sequential append, page enumeration and
//! fetch (the recovery read path), full scans, the raw transport delivery
//! used by `TcpTransport`'s `transfer`, repair and map-shuffle sessions,
//! the `pangea-mgr` control plane, and observability pulls.
//!
//! Each message is one row of a `messages!` table: doc comment, name,
//! typed fields, opcode. The table generates the enum, its [`Wire`]
//! codec (an opcode record, then every field in row order, each through
//! its type's one [`Wire`] encoding) and [`Request::name`] — the layout
//! is never written a second time. Opcodes are stable over the
//! protocol's life; add, never renumber.
//!
//! One encoded message travels inside one [`crate::frame`] frame. A
//! request payload opens with a fixed trace field — two bare `u64`s,
//! `(job, span)`, all-zero when untraced — followed by the message;
//! a response payload is the message alone. Decoding is strict: an
//! unknown opcode, a truncated field, or trailing bytes after the last
//! field are all [`PangeaError::Corruption`].

use crate::wire::{
    decode_rest, wire_codec, ReduceSpec, RepairFilter, SchemeSpec, TaskSpec, Wire,
    WireCatalogEntry, WireMetric, WireSpan, WireWorker,
};
use pangea_common::{ByteReader, ByteWriter, PangeaError, Result};
use pangea_obs::TraceCtx;

/// Declares a message enum from its table. Each row is
/// `Variant { field: Type, .. } = opcode` (or `Variant = opcode`) with
/// its doc comments; the macro emits the enum, its [`Wire`] codec and a
/// `name()` returning the variant's name.
macro_rules! messages {
    (
        $(#[$meta:meta])*
        pub enum $Enum:ident {
            $(
                $(#[$vmeta:meta])*
                $V:ident $({ $( $(#[$fmeta:meta])* $f:ident : $t:ty ),* $(,)? })? = $op:literal,
            )*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub enum $Enum {
            $( $(#[$vmeta])* $V $({ $( $(#[$fmeta])* $f: $t ),* })?, )*
        }

        wire_codec!(enum $Enum { $( $op => $V $({ $($f),* })? ),* });

        impl $Enum {
            /// This message's opcode name — the per-opcode label the
            /// metrics registry and span records key on
            /// (`rpc.count.TaskRun`, ...).
            pub fn name(&self) -> &'static str {
                match self {
                    $( Self::$V { .. } => stringify!($V), )*
                }
            }
        }
    };
}

messages! {
    /// A client/cluster → pangead message.
    pub enum Request {
        /// Liveness probe.
        Ping = 1,
        /// Shared-secret handshake. On daemons configured with a secret this
        /// must be the first message of every connection; other requests are
        /// answered with [`Response::Denied`] until it succeeds.
        Hello {
            /// The deployment's shared secret.
            secret: String,
        } = 12,
        /// `createSet(name, durability)` with an optional page-size override
        /// (`None` uses the serving node's default).
        CreateSet {
            /// Locality-set name, unique per node.
            name: String,
            /// `"write-through"` or `"write-back"` (the paper's string form).
            durability: String,
            /// Page size override in bytes.
            page_size: Option<u64>,
        } = 2,
        /// Appends records through the sequential write service.
        Append {
            /// Target locality set.
            set: String,
            /// Record payloads, written in order.
            records: Vec<Vec<u8>>,
        } = 3,
        /// Enumerates a set's page ordinals (dense).
        PageNumbers {
            /// Target locality set.
            set: String,
        } = 4,
        /// Fetches one page's raw bytes — the recovery read path.
        FetchPage {
            /// Target locality set.
            set: String,
            /// Page ordinal.
            num: u64,
        } = 5,
        /// Reads every record of a set through the sequential read service.
        Scan {
            /// Target locality set.
            set: String,
        } = 6,
        /// Raw transport delivery: the byte-move primitive behind
        /// `Transport::transfer`. The receiver acknowledges with the payload.
        Deliver {
            /// Sending node (`u32::MAX` = external client).
            from: u32,
            /// Opaque payload.
            payload: Vec<u8>,
        } = 10,
        /// Reads the serving node's I/O counters.
        Stats = 11,
        /// Drops a locality set (used by distributed-set teardown).
        DropSet {
            /// Target locality set.
            set: String,
        } = 13,
        /// Counts a set's records server-side (no payload crosses the wire
        /// — diagnostics like `total_records` stay O(1) in wire bytes).
        Count {
            /// Target locality set.
            set: String,
        } = 27,

        // ---- Worker→worker recovery (peer repair) -----------------------
        /// Record hashes (`fx_hash64`) of a local set, in storage order —
        /// the peer pull a replacement uses to learn the surviving share of
        /// a round-robin recovery target without moving any payload.
        /// Paginated by a `(page, record)` cursor so a huge set can never
        /// overflow one reply frame and each chunk costs only its own scan:
        /// the server returns at most [`HASH_CHUNK`] hashes from the cursor
        /// on, with [`Response::Hashes::next`] carrying the resume point.
        HashList {
            /// Target locality set.
            set: String,
            /// Page ordinal to start at (0 for the first chunk).
            start_page: u64,
            /// Records to skip within the starting page.
            start_record: u64,
        } = 28,
        /// Opens a repair session for `set` on the replacement node: the
        /// session's dedup ledger is seeded with the record hashes of every
        /// peer in `present_from` (pulled worker→worker via [`Request::HashList`]),
        /// so subsequent [`Request::RecoverAppend`]s restore each lost
        /// record exactly once. Replaces any existing session for the set.
        RecoverBegin {
            /// The recovery target set.
            set: String,
            /// Peer `pangead` addresses holding the surviving share.
            present_from: Vec<String>,
        } = 29,
        /// Survivor→replacement delivery of candidate records: the session
        /// appends only records its ledger has not seen, making concurrent
        /// pushes from several survivors (and retries) idempotent.
        RecoverAppend {
            /// The recovery target set (must have an open session).
            set: String,
            /// Candidate record payloads.
            records: Vec<Vec<u8>>,
        } = 30,
        /// Seals the repair session and returns its append totals.
        RecoverEnd {
            /// The recovery target set.
            set: String,
        } = 31,
        /// Record hashes already *present* in an open repair session's
        /// dedup ledger (seeded at [`Request::RecoverBegin`] from the
        /// target's own records plus its peers' surviving shares) —
        /// paginated by an index cursor like [`Request::HashList`], at most
        /// [`HASH_CHUNK`] hashes per reply. A survivor running an
        /// [`crate::wire::RepairFilter::Absent`] push pulls this from the
        /// replacement and filters at the source, so the surviving share's
        /// payload never crosses the wire.
        RepairLedger {
            /// The recovery target set (must have an open session).
            set: String,
            /// Index of the first ledger hash to return (0 for the first
            /// chunk).
            start: u64,
        } = 37,
        /// Driver→survivor orchestration: scan the local share of
        /// `source_set`, keep records matching `filter`, and stream them in
        /// batches straight to `target_set` on the `pangead` at
        /// `target_addr` — the driver never touches the payload.
        RecoverPush {
            /// The survivor-local source set to scan.
            source_set: String,
            /// The recovery target set on the replacement.
            target_set: String,
            /// The replacement `pangead`'s address.
            target_addr: String,
            /// Which scanned records to ship.
            filter: RepairFilter,
        } = 32,

        // ---- Distributed map-shuffle (task shipping + push shuffle) -----
        /// Driver→worker: run one shipped map task — scan the local share of
        /// the task's input, apply its declarative map, and stream routed
        /// batches straight to each destination worker's ingest session.
        /// The driver never touches the record payload.
        TaskRun {
            /// The task, wire form.
            spec: TaskSpec,
        } = 33,
        /// Opens a shuffle-ingest session for `set` on a destination worker.
        /// The local `set` share is truncated first — a begin is the
        /// idempotent open of a *fresh* attempt, so partial output from a
        /// failed prior attempt never leaks into the retry. Mirrors
        /// [`Request::RecoverBegin`]'s session pattern, but the dedup ledger
        /// tracks provenance tags ([`crate::wire::ingest_tag`]) instead of
        /// record content: shuffle output may contain honest duplicates.
        IngestBegin {
            /// The ingest target set (must already exist on the node).
            set: String,
            /// When present, the session runs in *reducing* mode: incoming
            /// records are `key|value` partials folded into a keyed
            /// accumulator and materialized at [`Request::IngestEnd`],
            /// instead of being appended record-for-record.
            reduce: Option<ReduceSpec>,
        } = 34,
        /// Mapper→destination delivery of routed records, each carrying its
        /// provenance tag: the session appends only tags its ledger has not
        /// seen, making within-attempt RPC retries (lost acks) idempotent.
        IngestAppend {
            /// The ingest target set (must have an open session).
            set: String,
            /// `(tag, record)` pairs.
            entries: Vec<(u64, Vec<u8>)>,
        } = 35,
        /// Seals the ingest session and returns its append totals.
        /// Idempotent via a sealed-totals tombstone, like
        /// [`Request::RecoverEnd`].
        IngestEnd {
            /// The ingest target set.
            set: String,
        } = 36,

        // ---- Manager (pangea-mgr) requests: membership ------------------
        /// Registers a worker with the manager. `slot` pins a node id — a
        /// replacement worker re-registers its predecessor's slot; `None`
        /// takes the next free slot.
        MgrRegisterWorker {
            /// The address the worker's `pangead` serves on.
            addr: String,
            /// Explicit node slot (raw `NodeId`), or `None` for the next one.
            slot: Option<u64>,
        } = 14,
        /// Worker liveness heartbeat.
        MgrHeartbeat {
            /// The sender's node slot.
            node: u32,
            /// The sender's registration epoch.
            epoch: u64,
        } = 15,
        /// Clean worker shutdown: deregisters the slot.
        MgrDeregisterWorker {
            /// The sender's node slot.
            node: u32,
            /// The sender's registration epoch.
            epoch: u64,
        } = 16,
        /// Membership snapshot (sweeps liveness first).
        MgrListWorkers = 17,

        // ---- Manager requests: catalog + statistics DB ------------------
        /// Registers a distributed set in the wire-served catalog.
        MgrRegisterSet {
            /// Cluster-wide set name.
            name: String,
            /// Its partitioning scheme (declarative form).
            scheme: SchemeSpec,
        } = 18,
        /// Removes a set from the catalog (and its replica group).
        MgrDeregisterSet {
            /// Cluster-wide set name.
            name: String,
        } = 19,
        /// Looks up one catalog entry.
        MgrEntry {
            /// Cluster-wide set name.
            name: String,
        } = 20,
        /// All registered set names, sorted.
        MgrSetNames = 21,
        /// Adds dispatch counts to a set's statistics.
        MgrAddStats {
            /// Cluster-wide set name.
            name: String,
            /// Objects dispatched.
            objects: u64,
            /// Payload bytes dispatched.
            bytes: u64,
        } = 22,
        /// Puts two sets in the same replica group (`registerReplica`).
        MgrLinkReplicas {
            /// First set.
            a: String,
            /// Second set.
            b: String,
        } = 23,
        /// Members of a replica group.
        MgrGroupMembers {
            /// Raw `ReplicaGroupId`.
            group: u64,
        } = 24,
        /// All replica groups, ascending.
        MgrGroups = 25,
        /// The statistics service: the group member organized by `key`.
        MgrBestReplica {
            /// The set whose group is consulted.
            set: String,
            /// The desired partitioning key.
            key: String,
        } = 26,
        /// Pulls the serving process's observability state: every
        /// registered metric plus the retained span ring, paginated by a
        /// pair of cursors (metric index, span sequence number) like
        /// [`Request::HashList`]/[`Request::RepairLedger`]. A superset of
        /// the fixed-shape [`Request::Stats`] counter snapshot.
        MetricsDump {
            /// Index of the first metric to return (0 for the first chunk).
            metrics_start: u64,
            /// Ring sequence number of the first span to return (0 for the
            /// first chunk; evicted spans are silently skipped).
            spans_start: u64,
        } = 38,
        /// Manager-served: pulls one job's fleet-wide spans from the
        /// scrape-loop's retained store, paginated by a plain index into
        /// the job's span list (0 for the first chunk).
        TraceQuery {
            /// The job whose stitched trace is wanted.
            job: u64,
            /// Index of the first span to return.
            start: u64,
        } = 39,
        /// Client → manager: contributes locally recorded spans to the
        /// fleet span store under a display name. Drivers use this to hand
        /// over their `DriverRpc` root spans — they are transient clients
        /// the scrape loop can never reach, yet every cross-node trace is
        /// rooted in one of their rings.
        TracePush {
            /// Display name the spans are attributed to (e.g. `driver`).
            node: String,
            /// `(ring seq, span)` records, oldest first.
            spans: Vec<WireSpan>,
        } = 40,
    }
}

messages! {
    /// A pangead → client message.
    pub enum Response {
        /// Success without payload.
        Ok = 1,
        /// Set created; carries the node-local set id.
        Created {
            /// Raw `SetId` on the serving node.
            set: u64,
        } = 2,
        /// Records appended.
        Appended {
            /// Number of records written.
            records: u64,
        } = 3,
        /// Page enumeration.
        Pages {
            /// Dense page ordinals.
            nums: Vec<u64>,
        } = 4,
        /// One page's raw bytes.
        Page {
            /// The page image.
            bytes: Vec<u8>,
        } = 5,
        /// Scanned records, in storage order.
        Records {
            /// Record payloads.
            records: Vec<Vec<u8>>,
        } = 6,
        /// Acknowledged raw delivery. Carries a digest rather than echoing
        /// the payload, so an ack costs a few bytes instead of doubling the
        /// wire traffic of every transfer.
        Delivered {
            /// Bytes received.
            len: u64,
            /// `fx_hash64` of the received payload (integrity check).
            checksum: u64,
        } = 7,
        /// Counter snapshot of the serving node.
        Stats {
            /// Payload bytes received over the wire by this server.
            net_bytes: u64,
            /// Wire messages handled.
            net_messages: u64,
            /// Bytes read from the node's disks.
            disk_read_bytes: u64,
            /// Bytes written to the node's disks.
            disk_write_bytes: u64,
            /// Peer-repair payload bytes this node moved (pushed to a peer
            /// or appended from one) during worker→worker recovery.
            repair_bytes: u64,
            /// Map-shuffle payload bytes this node moved (shipped to a peer
            /// or appended from one) during a distributed map-shuffle.
            shuffle_bytes: u64,
            /// Buffer-pool page pins satisfied from resident frames.
            paging_hits: u64,
            /// Buffer-pool page pins that had to read from disk.
            paging_misses: u64,
            /// Pages evicted from the pool to make room.
            paging_evictions: u64,
            /// Bytes written to disk by spills and dirty evictions.
            paging_spill_bytes: u64,
            /// Bytes currently resident in the buffer pool.
            pool_used_bytes: u64,
            /// Total buffer-pool capacity in bytes.
            pool_capacity_bytes: u64,
        } = 8,
        /// The operation failed on the serving node.
        Err {
            /// Display form of the remote error.
            message: String,
        } = 9,
        /// The connection failed the shared-secret handshake; decodes to
        /// [`PangeaError::Unauthenticated`] on the client.
        Denied {
            /// Why the peer was rejected.
            message: String,
        } = 10,
        /// The server is at its connection cap and refused this connection
        /// before serving anything; decodes to [`PangeaError::Busy`] on the
        /// client so callers can back off and redial without parsing prose.
        /// Handled structurally by the error conversions in this file (it
        /// never reaches a dispatch arm), which the opcode rule excludes to
        /// stay non-vacuous. // lint:allow(opcode-coverage)
        Busy {
            /// Why the connection was refused.
            message: String,
        } = 28,
        /// Worker registered (or re-registered) with the manager.
        WorkerRegistered {
            /// The assigned node slot.
            node: u32,
            /// The slot's fresh registration epoch.
            epoch: u64,
        } = 11,
        /// Membership snapshot.
        Workers {
            /// One record per known slot, ascending by node.
            workers: Vec<WireWorker>,
        } = 12,
        /// One catalog entry (or `None` when the set is unknown).
        CatalogEntry {
            /// The entry, if registered.
            entry: Option<WireCatalogEntry>,
        } = 13,
        /// A list of names (set names, group members, …), sorted by the
        /// serving operation's contract.
        Names {
            /// The names.
            names: Vec<String>,
        } = 14,
        /// A replica group id.
        Group {
            /// Raw `ReplicaGroupId`.
            group: u64,
        } = 15,
        /// All replica groups.
        Groups {
            /// Raw `ReplicaGroupId`s, ascending.
            groups: Vec<u64>,
        } = 16,
        /// An optional name (the statistics service's best-replica answer).
        MaybeName {
            /// The name, if any member matched.
            name: Option<String>,
        } = 17,
        /// A membership operation carried an out-of-date epoch; decodes to
        /// [`PangeaError::StaleEpoch`] on the client (zombie incarnations
        /// must be able to tell "replaced" from other failures).
        Stale {
            /// The node slot addressed.
            node: u32,
            /// The epoch the sender held.
            held: u64,
            /// The slot's current epoch at the manager.
            current: u64,
        } = 18,
        /// A one-shot scan reply would exceed the frame budget; decodes to
        /// [`PangeaError::ScanTooLarge`] so readers can fall back to the
        /// page-by-page `FetchPage` path without parsing error prose.
        ScanTooLarge {
            /// The set whose scan was refused.
            set: String,
            /// The per-reply byte budget.
            budget: u64,
        } = 19,
        /// A server-side record count.
        Count {
            /// Records in the set.
            records: u64,
        } = 20,
        /// Record hashes of a set (the [`Request::HashList`] reply).
        Hashes {
            /// `fx_hash64` of each record in this chunk, in storage order.
            hashes: Vec<u64>,
            /// When more records follow, the `(page, record)` cursor to
            /// resume the next chunk at.
            next: Option<(u64, u64)>,
        } = 21,
        /// Repair-session acknowledgement: what one [`Request::RecoverAppend`]
        /// batch (or, for [`Request::RecoverEnd`], the whole session)
        /// actually appended after dedup.
        RepairAck {
            /// Records appended.
            appended: u64,
            /// Payload bytes appended.
            bytes: u64,
            /// Credit grant: how many more in-flight batches the receiver's
            /// pool residency can absorb right now. `0` means "no
            /// information" (session-sealing acks carry it) — senders treat
            /// it as unconstrained; any other value caps the sender's
            /// pipeline window until the next ack revises it.
            credit: u64,
        } = 22,
        /// Outcome of one [`Request::TaskRun`] (a worker's full
        /// scan-map-route-stream pass over its local input share).
        TaskDone {
            /// Records scanned in the local input share.
            scanned: u64,
            /// Records that survived the map and were shipped.
            emitted: u64,
            /// Payload bytes shipped worker→worker.
            emitted_bytes: u64,
            /// Records the destinations appended after dedup.
            appended: u64,
            /// Payload bytes the destinations appended.
            appended_bytes: u64,
        } = 24,
        /// Ingest-session acknowledgement: what one [`Request::IngestAppend`]
        /// batch (or, for [`Request::IngestEnd`], the whole session)
        /// actually appended after tag dedup.
        IngestAck {
            /// Records appended.
            appended: u64,
            /// Payload bytes appended.
            bytes: u64,
            /// Credit grant, as in [`Response::RepairAck::credit`]: `0` is
            /// "no information", anything else caps the sender's window.
            credit: u64,
        } = 25,
        /// Outcome of one [`Request::RecoverPush`] (a survivor's full
        /// scan-filter-stream pass against the replacement).
        Pushed {
            /// Records scanned in the local source share.
            scanned: u64,
            /// Records that matched the filter and were shipped.
            pushed: u64,
            /// Payload bytes shipped worker→worker.
            pushed_bytes: u64,
            /// Records the replacement appended after dedup.
            appended: u64,
            /// Payload bytes the replacement appended.
            appended_bytes: u64,
        } = 23,
        /// One [`Request::MetricsDump`] chunk: metrics (sorted by name) and
        /// retained spans, with a resume cursor when either list has more.
        Metrics {
            /// Metric snapshots in this chunk.
            metrics: Vec<WireMetric>,
            /// `(ring seq, span)` records in this chunk, oldest first.
            spans: Vec<WireSpan>,
            /// When more remains, the `(metrics_start, spans_start)` cursor
            /// pair to resume the next chunk at.
            next: Option<(u64, u64)>,
        } = 26,
        /// One [`Request::TraceQuery`] chunk: the job's retained spans,
        /// each tagged with the node it was scraped from.
        Trace {
            /// `(node, span)` pairs in this chunk, store order.
            spans: Vec<(String, WireSpan)>,
            /// Fleet-wide spans known lost at query time (a worker ring
            /// wrapped past the scraper's cursor, or the store's own
            /// bounds) — nonzero means the tree may be incomplete.
            dropped: u64,
            /// When more remains, the start index to resume at.
            next: Option<u64>,
        } = 27,
    }
}

/// Maximum hashes in one [`Response::Hashes`] chunk: 1 Mi hashes encode
/// to 12 MiB, comfortably inside [`crate::frame::MAX_FRAME`], so a hash
/// pull over a set of any size pages (by `(page, record)` cursor)
/// instead of overflowing a frame.
pub const HASH_CHUNK: usize = 1 << 20;

impl Request {
    /// Encodes one request frame payload: the trace field (`ctx`, or
    /// zeros when untraced), then the message.
    pub fn encode(&self, ctx: Option<TraceCtx>) -> Vec<u8> {
        let ctx = ctx.unwrap_or(TraceCtx { job: 0, span: 0 });
        let mut w = ByteWriter::new();
        w.write_u64_le(ctx.job);
        w.write_u64_le(ctx.span);
        self.put(&mut w);
        w.into_bytes()
    }

    /// Decodes one request frame payload into the message and its trace
    /// context (`None` when the field is all-zero).
    pub fn decode(bytes: &[u8]) -> Result<(Self, Option<TraceCtx>)> {
        let mut r = ByteReader::new(bytes);
        let ctx = TraceCtx {
            job: r.read_u64_le()?,
            span: r.read_u64_le()?,
        };
        let req = decode_rest(&mut r)?;
        Ok((req, (ctx.job != 0 || ctx.span != 0).then_some(ctx)))
    }
}

impl Response {
    /// Encodes one response frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        self.put(&mut w);
        w.into_bytes()
    }

    /// Decodes one response frame payload.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        decode_rest(&mut ByteReader::new(bytes))
    }

    /// Converts an error response into `Err`, passing others through.
    /// Errors with a wire opcode of their own come back as their typed
    /// [`PangeaError`] variant; everything else collapses to `Remote`.
    pub fn into_result(self) -> Result<Response> {
        match self {
            Self::Err { message } => Err(PangeaError::Remote(message)),
            Self::Denied { message } => Err(PangeaError::Unauthenticated(message)),
            Self::Busy { message } => Err(PangeaError::Busy(message)),
            Self::Stale {
                node,
                held,
                current,
            } => Err(PangeaError::StaleEpoch {
                node: pangea_common::NodeId(node),
                held: pangea_common::Epoch(held),
                current: pangea_common::Epoch(current),
            }),
            Self::ScanTooLarge { set, budget } => Err(PangeaError::ScanTooLarge { set, budget }),
            other => Ok(other),
        }
    }
}

/// Encodes a [`PangeaError`] as the wire error response. Kinds clients
/// dispatch on (authentication, epoch staleness, scan overflow) keep
/// their own opcodes so the client-side error stays typed.
pub fn error_response(e: &PangeaError) -> Response {
    match e {
        PangeaError::Unauthenticated(m) => Response::Denied { message: m.clone() },
        PangeaError::Busy(m) => Response::Busy { message: m.clone() },
        PangeaError::StaleEpoch {
            node,
            held,
            current,
        } => Response::Stale {
            node: node.raw(),
            held: held.raw(),
            current: current.raw(),
        },
        PangeaError::ScanTooLarge { set, budget } => Response::ScanTooLarge {
            set: set.clone(),
            budget: *budget,
        },
        other => Response::Err {
            message: other.to_string(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(r: Request) {
        assert_eq!(Request::decode(&r.encode(None)).unwrap(), (r, None));
    }

    fn roundtrip_resp(r: Response) {
        assert_eq!(Response::decode(&r.encode()).unwrap(), r);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_req(Request::Ping);
        roundtrip_req(Request::CreateSet {
            name: "events".into(),
            durability: "write-back".into(),
            page_size: Some(4096),
        });
        roundtrip_req(Request::CreateSet {
            name: "u".into(),
            durability: "write-through".into(),
            page_size: None,
        });
        roundtrip_req(Request::Append {
            set: "events".into(),
            records: vec![b"a".to_vec(), vec![], b"ccc".to_vec()],
        });
        roundtrip_req(Request::PageNumbers { set: "s".into() });
        roundtrip_req(Request::FetchPage {
            set: "s".into(),
            num: 17,
        });
        roundtrip_req(Request::Scan { set: "s".into() });
        roundtrip_req(Request::Deliver {
            from: u32::MAX,
            payload: vec![0, 1, 2, 255],
        });
        roundtrip_req(Request::Stats);
        roundtrip_req(Request::Hello {
            secret: "deployment-secret".into(),
        });
        roundtrip_req(Request::DropSet { set: "gone".into() });
        roundtrip_req(Request::Count { set: "s".into() });
        roundtrip_resp(Response::Count { records: 12345 });
    }

    #[test]
    fn recovery_messages_roundtrip() {
        roundtrip_req(Request::HashList {
            set: "users".into(),
            start_page: 0,
            start_record: 0,
        });
        roundtrip_req(Request::HashList {
            set: "users".into(),
            start_page: 17,
            start_record: 1 << 20,
        });
        roundtrip_req(Request::RecoverBegin {
            set: "users".into(),
            present_from: vec![],
        });
        roundtrip_req(Request::RecoverBegin {
            set: "users".into(),
            present_from: vec!["127.0.0.1:7781".into(), "127.0.0.1:7782".into()],
        });
        roundtrip_req(Request::RecoverAppend {
            set: "users".into(),
            records: vec![b"a|1".to_vec(), vec![], b"b|2".to_vec()],
        });
        roundtrip_req(Request::RecoverEnd {
            set: "users".into(),
        });
        roundtrip_req(Request::RecoverPush {
            source_set: "users_f1".into(),
            target_set: "users".into(),
            target_addr: "127.0.0.1:7783".into(),
            filter: crate::wire::RepairFilter::All,
        });
        roundtrip_req(Request::RecoverPush {
            source_set: "users_f1".into(),
            target_set: "users".into(),
            target_addr: "127.0.0.1:7783".into(),
            filter: crate::wire::RepairFilter::Lost {
                scheme: crate::wire::SchemeSpec::Hash {
                    key_name: "uid".into(),
                    partitions: 6,
                    key: crate::wire::KeySpec::WholeRecord,
                },
                failed: 2,
                nodes: 4,
            },
        });
        roundtrip_resp(Response::Hashes {
            hashes: vec![],
            next: None,
        });
        roundtrip_resp(Response::Hashes {
            hashes: vec![1, u64::MAX, 42],
            next: Some((9, 123)),
        });
        roundtrip_resp(Response::RepairAck {
            appended: 10,
            bytes: 1000,
            credit: 0,
        });
        roundtrip_resp(Response::RepairAck {
            appended: 10,
            bytes: 1000,
            credit: 8,
        });
        roundtrip_resp(Response::Pushed {
            scanned: 100,
            pushed: 40,
            pushed_bytes: 4000,
            appended: 38,
            appended_bytes: 3800,
        });
    }

    #[test]
    fn map_shuffle_messages_roundtrip() {
        use crate::wire::{EmitSpec, FilterSpec, KeySpec, MapSpec, SchemeSpec};
        let spec = crate::wire::TaskSpec {
            input: "lines".into(),
            output: "words".into(),
            map: MapSpec {
                filter: Some(FilterSpec::KeyEquals {
                    key: KeySpec::Field {
                        delim: b'|',
                        index: 0,
                    },
                    value: b"7".to_vec(),
                }),
                emit: EmitSpec::Fields {
                    delim: b'|',
                    indices: vec![1, 2],
                },
            },
            reduce: Some(crate::wire::ReduceSpec::sum(KeySpec::WholeRecord, b'|', 1)),
            scheme: SchemeSpec::Hash {
                key_name: "word".into(),
                partitions: 8,
                key: KeySpec::WholeRecord,
            },
            nodes: 4,
            source: 1,
            dests: vec![(0, "127.0.0.1:7781".into()), (2, "127.0.0.1:7783".into())],
            window: 8,
        };
        roundtrip_req(Request::TaskRun { spec });
        roundtrip_req(Request::IngestBegin {
            set: "words".into(),
            reduce: None,
        });
        roundtrip_req(Request::IngestBegin {
            set: "counts".into(),
            reduce: Some(crate::wire::ReduceSpec::count(KeySpec::WholeRecord, b'|')),
        });
        roundtrip_req(Request::RepairLedger {
            set: "users".into(),
            start: 1 << 20,
        });
        roundtrip_req(Request::IngestAppend {
            set: "words".into(),
            entries: vec![(7, b"the".to_vec()), (9, vec![]), (7, b"the".to_vec())],
        });
        roundtrip_req(Request::IngestEnd {
            set: "words".into(),
        });
        roundtrip_resp(Response::TaskDone {
            scanned: 100,
            emitted: 60,
            emitted_bytes: 600,
            appended: 60,
            appended_bytes: 600,
        });
        roundtrip_resp(Response::IngestAck {
            appended: 12,
            bytes: 340,
            credit: 0,
        });
        roundtrip_resp(Response::IngestAck {
            appended: 12,
            bytes: 340,
            credit: 3,
        });
    }

    #[test]
    fn busy_roundtrips_and_is_typed() {
        roundtrip_resp(Response::Busy {
            message: "at connection cap".into(),
        });
        let err = Response::Busy {
            message: "at connection cap".into(),
        }
        .into_result()
        .unwrap_err();
        assert!(matches!(err, PangeaError::Busy(_)));
        assert!(matches!(
            error_response(&PangeaError::Busy("full".into())),
            Response::Busy { .. }
        ));
    }

    #[test]
    fn truncated_task_run_is_an_error() {
        use crate::wire::{KeySpec, MapSpec, SchemeSpec};
        let enc = Request::TaskRun {
            spec: crate::wire::TaskSpec {
                input: "in".into(),
                output: "out".into(),
                map: MapSpec::extract(KeySpec::Field {
                    delim: b'|',
                    index: 1,
                }),
                reduce: None,
                scheme: SchemeSpec::RoundRobin { partitions: 3 },
                nodes: 3,
                source: 0,
                dests: vec![(0, "127.0.0.1:1".into()), (1, "127.0.0.1:2".into())],
                window: 0,
            },
        }
        .encode(None);
        for cut in 1..enc.len() {
            assert!(
                Request::decode(&enc[..cut]).is_err(),
                "truncation at {cut} must not decode"
            );
        }
    }

    #[test]
    fn truncated_recovery_messages_are_errors() {
        let enc = Request::RecoverPush {
            source_set: "src".into(),
            target_set: "tgt".into(),
            target_addr: "127.0.0.1:7783".into(),
            filter: crate::wire::RepairFilter::Lost {
                scheme: crate::wire::SchemeSpec::Hash {
                    key_name: "k".into(),
                    partitions: 3,
                    key: crate::wire::KeySpec::Field {
                        delim: b'|',
                        index: 1,
                    },
                },
                failed: 1,
                nodes: 3,
            },
        }
        .encode(None);
        for cut in 1..enc.len() {
            assert!(
                Request::decode(&enc[..cut]).is_err(),
                "truncation at {cut} must not decode"
            );
        }
    }

    #[test]
    fn manager_requests_roundtrip() {
        roundtrip_req(Request::MgrRegisterWorker {
            addr: "127.0.0.1:7781".into(),
            slot: None,
        });
        roundtrip_req(Request::MgrRegisterWorker {
            addr: "127.0.0.1:7782".into(),
            slot: Some(2),
        });
        roundtrip_req(Request::MgrHeartbeat { node: 1, epoch: 4 });
        roundtrip_req(Request::MgrDeregisterWorker { node: 1, epoch: 4 });
        roundtrip_req(Request::MgrListWorkers);
        roundtrip_req(Request::MgrRegisterSet {
            name: "lineitem".into(),
            scheme: crate::wire::SchemeSpec::Hash {
                key_name: "l_orderkey".into(),
                partitions: 8,
                key: crate::wire::KeySpec::Field {
                    delim: b'|',
                    index: 0,
                },
            },
        });
        roundtrip_req(Request::MgrDeregisterSet {
            name: "lineitem".into(),
        });
        roundtrip_req(Request::MgrEntry {
            name: "lineitem".into(),
        });
        roundtrip_req(Request::MgrSetNames);
        roundtrip_req(Request::MgrAddStats {
            name: "lineitem".into(),
            objects: 10,
            bytes: 1000,
        });
        roundtrip_req(Request::MgrLinkReplicas {
            a: "x".into(),
            b: "y".into(),
        });
        roundtrip_req(Request::MgrGroupMembers { group: 3 });
        roundtrip_req(Request::MgrGroups);
        roundtrip_req(Request::MgrBestReplica {
            set: "lineitem".into(),
            key: "l_partkey".into(),
        });
    }

    #[test]
    fn manager_responses_roundtrip() {
        roundtrip_resp(Response::Denied {
            message: "bad secret".into(),
        });
        roundtrip_resp(Response::WorkerRegistered { node: 2, epoch: 5 });
        roundtrip_resp(Response::Workers {
            workers: vec![crate::wire::WireWorker {
                node: 0,
                addr: "127.0.0.1:9000".into(),
                epoch: 1,
                state: crate::wire::WorkerState::Alive,
            }],
        });
        roundtrip_resp(Response::CatalogEntry { entry: None });
        roundtrip_resp(Response::CatalogEntry {
            entry: Some(crate::wire::WireCatalogEntry {
                name: "s".into(),
                scheme: crate::wire::SchemeSpec::RoundRobin { partitions: 3 },
                group: Some(1),
                objects: 7,
                bytes: 70,
            }),
        });
        roundtrip_resp(Response::Names {
            names: vec!["a".into(), "b".into()],
        });
        roundtrip_resp(Response::Group { group: 9 });
        roundtrip_resp(Response::Groups { groups: vec![1, 2] });
        roundtrip_resp(Response::MaybeName { name: None });
        roundtrip_resp(Response::MaybeName {
            name: Some("replica".into()),
        });
        roundtrip_resp(Response::Stale {
            node: 1,
            held: 3,
            current: 7,
        });
        roundtrip_resp(Response::ScanTooLarge {
            set: "big".into(),
            budget: 1 << 25,
        });
    }

    #[test]
    fn typed_errors_survive_the_wire() {
        use pangea_common::{Epoch, NodeId};
        let stale = PangeaError::StaleEpoch {
            node: NodeId(2),
            held: Epoch(4),
            current: Epoch(9),
        };
        match error_response(&stale).into_result() {
            Err(PangeaError::StaleEpoch {
                node,
                held,
                current,
            }) => assert_eq!((node, held, current), (NodeId(2), Epoch(4), Epoch(9))),
            other => panic!("{other:?}"),
        }
        let too_large = PangeaError::ScanTooLarge {
            set: "events".into(),
            budget: 42,
        };
        match error_response(&too_large).into_result() {
            Err(PangeaError::ScanTooLarge { set, budget }) => {
                assert_eq!((set.as_str(), budget), ("events", 42));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn denied_converts_to_unauthenticated() {
        let resp = error_response(&PangeaError::Unauthenticated("no hello".into()));
        match resp.into_result() {
            Err(PangeaError::Unauthenticated(m)) => assert!(m.contains("no hello")),
            other => panic!("expected Unauthenticated, got {other:?}"),
        }
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_resp(Response::Ok);
        roundtrip_resp(Response::Created { set: 9 });
        roundtrip_resp(Response::Appended { records: 1000 });
        roundtrip_resp(Response::Pages {
            nums: vec![0, 1, 2, 9],
        });
        roundtrip_resp(Response::Page {
            bytes: vec![7; 4096],
        });
        roundtrip_resp(Response::Records {
            records: vec![b"x".to_vec(), b"yy".to_vec()],
        });
        roundtrip_resp(Response::Delivered {
            len: 3,
            checksum: 0x1234_5678_9abc_def0,
        });
        roundtrip_resp(Response::Stats {
            net_bytes: 1,
            net_messages: 2,
            disk_read_bytes: 3,
            disk_write_bytes: 4,
            repair_bytes: 5,
            shuffle_bytes: 6,
            paging_hits: 7,
            paging_misses: 8,
            paging_evictions: 9,
            paging_spill_bytes: 10,
            pool_used_bytes: 11,
            pool_capacity_bytes: 12,
        });
        roundtrip_resp(Response::Err {
            message: "set 'x' missing".into(),
        });
    }

    #[test]
    fn unknown_opcodes_are_corruption() {
        let mut w = ByteWriter::new();
        w.write_record(&999u64);
        assert!(matches!(
            Response::decode(w.as_bytes()),
            Err(PangeaError::Corruption(m)) if m.contains("999")
        ));
        let mut traced = vec![0u8; 16];
        traced.extend_from_slice(w.as_bytes());
        assert!(matches!(
            Request::decode(&traced),
            Err(PangeaError::Corruption(m)) if m.contains("999")
        ));
    }

    #[test]
    fn truncated_message_is_an_error() {
        let enc = Request::Append {
            set: "s".into(),
            records: vec![b"abc".to_vec()],
        }
        .encode(None);
        for cut in 1..enc.len() {
            assert!(
                Request::decode(&enc[..cut]).is_err(),
                "truncation at {cut} must not decode"
            );
        }
    }

    #[test]
    fn metrics_dump_and_metrics_roundtrip() {
        roundtrip_req(Request::MetricsDump {
            metrics_start: 0,
            spans_start: 0,
        });
        roundtrip_req(Request::MetricsDump {
            metrics_start: 512,
            spans_start: u64::MAX,
        });
        roundtrip_resp(Response::Metrics {
            metrics: vec![],
            spans: vec![],
            next: None,
        });
        roundtrip_resp(Response::Metrics {
            metrics: vec![
                WireMetric::Counter {
                    name: "rpc.count.Ping".into(),
                    value: 42,
                },
                WireMetric::Gauge {
                    name: "sessions.ingest.live".into(),
                    value: 0,
                },
                WireMetric::Histogram {
                    name: "rpc.latency_ns.Ping".into(),
                    count: 3,
                    sum: 999,
                    buckets: vec![0, 1, 2, 0],
                },
            ],
            spans: vec![WireSpan {
                seq: 9,
                job: (7 << 32) | 1,
                span: 11,
                parent: 10,
                op: "TaskRun".into(),
                peer: "127.0.0.1:7781".into(),
                start_ns: 100,
                end_ns: 250,
                bytes: 64,
                outcome: "ok".into(),
            }],
            next: Some((512, 10)),
        });
    }

    #[test]
    fn trace_query_push_and_trace_roundtrip() {
        let sample = WireSpan {
            seq: 3,
            job: (7 << 32) | 2,
            span: (7 << 32) | 8,
            parent: 0,
            op: "DriverRpc".into(),
            peer: "mgr:127.0.0.1:7700".into(),
            start_ns: 10,
            end_ns: 9_000,
            bytes: 128,
            outcome: "ok".into(),
        };
        roundtrip_req(Request::TraceQuery { job: 0, start: 0 });
        roundtrip_req(Request::TraceQuery {
            job: u64::MAX,
            start: 4096,
        });
        roundtrip_req(Request::TracePush {
            node: "driver".into(),
            spans: vec![],
        });
        roundtrip_req(Request::TracePush {
            node: "driver".into(),
            spans: vec![sample.clone(), sample.clone()],
        });
        roundtrip_resp(Response::Trace {
            spans: vec![],
            dropped: 0,
            next: None,
        });
        roundtrip_resp(Response::Trace {
            spans: vec![("w0".into(), sample.clone()), ("driver".into(), sample)],
            dropped: 4097,
            next: Some(2048),
        });
    }

    #[test]
    fn trace_ctx_rides_the_fixed_trace_field() {
        let req = Request::Scan { set: "s".into() };
        let ctx = TraceCtx { job: 7, span: 3 };
        let traced = req.encode(Some(ctx));
        assert_eq!(Request::decode(&traced).unwrap(), (req.clone(), Some(ctx)));
        // Untraced requests carry the same field, zeroed: same size,
        // decoding with no context.
        let plain = req.encode(None);
        assert_eq!(plain.len(), traced.len());
        assert_eq!(&plain[..16], &[0u8; 16]);
        assert_eq!(Request::decode(&plain).unwrap(), (req, None));
    }

    #[test]
    fn trailing_bytes_are_corruption() {
        let mut req = Request::Ping.encode(None);
        req.extend_from_slice(&[0xde, 0xad]);
        assert!(matches!(
            Request::decode(&req),
            Err(PangeaError::Corruption(m)) if m.contains("trailing")
        ));
        let mut resp = Response::Ok.encode();
        resp.push(0);
        assert!(matches!(
            Response::decode(&resp),
            Err(PangeaError::Corruption(_))
        ));
    }

    #[test]
    fn out_of_range_narrow_fields_are_corruption() {
        // A heartbeat whose u32 `node` field carries 2^32 + 1: the value
        // must be refused, not narrowed to node 1.
        let mut w = ByteWriter::new();
        w.write_u64_le(0);
        w.write_u64_le(0);
        w.write_record(&15u64);
        w.write_record(&((1u64 << 32) + 1));
        w.write_record(&4u64);
        assert!(matches!(
            Request::decode(w.as_bytes()),
            Err(PangeaError::Corruption(m)) if m.contains("u32")
        ));
    }

    #[test]
    fn err_response_converts_to_remote_error() {
        let r = error_response(&PangeaError::usage("nope"));
        match r.into_result() {
            Err(PangeaError::Remote(m)) => assert!(m.contains("nope")),
            other => panic!("expected Remote error, got {other:?}"),
        }
    }
}
