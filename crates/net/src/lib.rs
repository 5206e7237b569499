//! # pangea-net
//!
//! The wire layer of the Pangea reproduction: everything between the
//! distributed logic in `pangea-cluster` and actual bytes on a socket.
//!
//! The original repository substituted the paper's cluster interconnect
//! with an in-process simulation (`SimNetwork`; DESIGN.md §2). This crate
//! turns that substitution into a *seam*:
//!
//! * [`Transport`] — the trait capturing what the simulation provided: a
//!   synchronous, `NodeId`-addressed, byte-counted, optionally throttled
//!   transfer. `SimNetwork` is one implementation; [`TcpTransport`] is
//!   the real one. Cluster dispatch, replication, and recovery are
//!   generic over it.
//! * [`frame`] — the one frame layout, `[len u32][corr u64][payload]`,
//!   used in both directions, with oversized-frame rejection on both
//!   sides.
//! * [`proto`] — the request/response protocol, one `messages!` table
//!   row per message (opcode, name, typed fields): core node operations
//!   (create set, append, page enumeration/fetch, scan, raw delivery,
//!   stats), repair and map-shuffle sessions, the manager's control
//!   plane, and observability pulls. Every request carries a fixed
//!   `(job, span)` trace field.
//! * [`wire`] — the [`wire::Wire`] codec every field encodes through,
//!   and wire forms of control-plane state: declarative key specs,
//!   partitioning schemes, map specs and task specs (the distributed
//!   map-shuffle ships these *to* the data), catalog entries, and
//!   membership records served by the `pangea-coord` manager daemon.
//! * [`FramedServer`] — a reusable accept loop (handshake enforcement,
//!   graceful drain) shared by `pangead` and `pangea-mgr`.
//! * [`Pangead`] / [`PangeadServer`] — the node daemon: a [`StorageNode`]
//!   served behind the protocol (the `pangead` binary lives in
//!   `pangea-coord`, next to `pangea-mgr`).
//! * [`PangeaClient`] — a thin typed client over one connection, with
//!   one request path: submit, then await the correlated response.
//!
//! Byte accounting is designed for comparability: every transport counts
//! *payload* bytes in `IoStats::record_net` (framing and protocol headers
//! are charged as serialization), so a workload measured over TCP
//! reports the same net-byte volume as the same workload on the
//! simulation.
//!
//! [`StorageNode`]: pangea_core::StorageNode

pub mod client;
pub mod frame;
pub mod proto;
pub mod server;
pub mod tcp;
pub mod transport;
pub mod wire;

pub use client::{PangeaClient, RemoteStats};
pub use frame::{FRAME_OVERHEAD, MAX_FRAME};
pub use pangea_obs::TraceCtx;
pub use proto::{error_response, Request, Response};
pub use server::{
    metrics_dump_response, FramedServer, FramedService, Pangead, PangeadServer, ServerConfig,
    DEFAULT_DRAIN, DEFAULT_IO_THREADS, DEFAULT_MAX_CONNS, DEFAULT_PIPELINE_WINDOW,
    MAX_PIPELINE_WINDOW, METRICS_CHUNK, SPANS_CHUNK,
};
pub use tcp::TcpTransport;
pub use transport::Transport;
pub use wire::{
    ingest_tag, CmpOp, EmitSpec, FilterSpec, KeySpec, MapSpec, ReduceOp, ReduceSpec, RepairFilter,
    RepairPushReport, SchemeSpec, TaskReport, TaskSpec, WireCatalogEntry, WireMetric, WireSpan,
    WireWorker, WorkerState,
};
