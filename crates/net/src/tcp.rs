//! The TCP implementation of [`Transport`].
//!
//! Each peer is a `pangead` server (or anything speaking the
//! [`crate::proto`] protocol). Connections are pooled per peer: a
//! request checks a connection out, performs one framed round trip, and
//! checks it back in; a stale pooled connection (peer restarted, socket
//! torn down) is dropped and the request retried once on a fresh
//! connection. Byte accounting matches [`SimNetwork`]'s exactly — payload
//! bytes into `record_net`/`record_copy`, paced by the same token-bucket
//! [`Throttle`] — while wire framing and protocol headers are charged to
//! `record_serialization`, so figures comparing the two backends line up
//! (DESIGN.md §2a).
//!
//! Each request is one correlated round trip (correlation id 1, one
//! request in flight per connection): `transfer` is a single
//! idempotency-guarded exchange, so multiplexing buys it nothing.
//! Pipelined exchanges (windowed ingest/repair pushes with credit-based
//! backpressure) live in [`crate::client::PangeaClient`] instead
//! (DESIGN.md §2i).
//!
//! [`SimNetwork`]: https://docs.rs/pangea-cluster
//! [`Throttle`]: pangea_common::Throttle

use crate::frame::{read_frame, write_frame, FRAME_OVERHEAD};
use crate::proto::{Request, Response};
use crate::transport::Transport;
use pangea_common::{FxHashMap, IoStats, NodeId, PangeaError, Result, Throttle};
use parking_lot::Mutex;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

/// Pooled idle connections kept per peer.
const MAX_POOLED_PER_PEER: usize = 4;

/// The correlation id of every request: one is in flight per connection.
const CORR: u64 = 1;

/// A real TCP cluster interconnect with per-peer connection pooling.
#[derive(Debug)]
pub struct TcpTransport {
    peers: FxHashMap<NodeId, SocketAddr>,
    pool: Mutex<FxHashMap<NodeId, Vec<TcpStream>>>,
    throttle: Arc<Throttle>,
    stats: Arc<IoStats>,
    /// Shared handshake secret sent as a `Hello` on every fresh
    /// connection (pooled connections are already authenticated).
    secret: Option<String>,
}

impl TcpTransport {
    /// A transport reaching `peers`, unthrottled.
    pub fn new(peers: impl IntoIterator<Item = (NodeId, SocketAddr)>) -> Self {
        Self::build(peers, Throttle::unlimited())
    }

    /// A transport paced at `bytes_per_sec` aggregate payload bandwidth,
    /// mirroring `SimNetwork::with_bandwidth`.
    pub fn with_bandwidth(
        peers: impl IntoIterator<Item = (NodeId, SocketAddr)>,
        bytes_per_sec: u64,
    ) -> Self {
        Self::build(peers, Throttle::bytes_per_sec(bytes_per_sec))
    }

    fn build(peers: impl IntoIterator<Item = (NodeId, SocketAddr)>, throttle: Throttle) -> Self {
        Self {
            peers: peers.into_iter().collect(),
            pool: Mutex::new(FxHashMap::default()),
            throttle: Arc::new(throttle),
            stats: Arc::new(IoStats::new()),
            secret: None,
        }
    }

    /// Sends `secret` in a [`Request::Hello`] handshake on every fresh
    /// connection, for fleets of `pangead`s bound with a shared secret.
    pub fn with_secret(mut self, secret: &str) -> Self {
        self.secret = Some(secret.to_string());
        self
    }

    /// The peers this transport can reach.
    pub fn peer_addrs(&self) -> &FxHashMap<NodeId, SocketAddr> {
        &self.peers
    }

    fn addr_of(&self, to: NodeId) -> Result<SocketAddr> {
        self.peers
            .get(&to)
            .copied()
            .ok_or(PangeaError::NodeUnavailable(to))
    }

    /// Idle pooled connection for `to`, if any.
    fn checkout(&self, to: NodeId) -> Option<TcpStream> {
        self.pool.lock().get_mut(&to).and_then(Vec::pop)
    }

    /// Returns a healthy connection to the pool (bounded per peer).
    fn checkin(&self, to: NodeId, stream: TcpStream) {
        let mut pool = self.pool.lock();
        let slot = pool.entry(to).or_default();
        if slot.len() < MAX_POOLED_PER_PEER {
            slot.push(stream);
        }
    }

    /// Number of idle pooled connections for `to` (diagnostics).
    pub fn pooled_connections(&self, to: NodeId) -> usize {
        self.pool.lock().get(&to).map_or(0, Vec::len)
    }

    /// Performs one framed request/response round trip with `to`.
    ///
    /// Protocol bytes (frames + headers) are charged as serialization;
    /// the caller is responsible for `record_net` payload accounting
    /// (done by [`Transport::transfer`] so raw deliveries and higher RPCs
    /// count the same way the simulation does).
    pub fn request(&self, to: NodeId, req: &Request) -> Result<Response> {
        let addr = self.addr_of(to)?;
        let encoded = req.encode(None);
        self.stats
            .record_serialization(encoded.len() + FRAME_OVERHEAD);
        // A pooled connection may have been closed by the peer while it
        // sat idle. Retrying is only safe when the peer provably never
        // processed the request: a failed frame write, or a clean EOF
        // before any response byte (pangead always writes a response
        // before closing, so zero response bytes means zero processing).
        // Any later failure could duplicate a non-idempotent operation,
        // so it propagates instead of retrying.
        if let Some(stream) = self.checkout(to) {
            match self.round_trip(stream, &encoded) {
                Ok((resp, stream)) => {
                    self.checkin(to, stream);
                    return resp.into_result();
                }
                Err(RoundTripError::NotProcessed) => {}
                Err(RoundTripError::Fatal(e)) => return Err(e),
            }
        }
        let stream = TcpStream::connect(addr).map_err(|e| self.connect_error(to, addr, e))?;
        stream.set_nodelay(true).ok();
        let stream = self.handshake(stream)?;
        let (resp, stream) = self.round_trip(stream, &encoded).map_err(|e| match e {
            RoundTripError::NotProcessed => PangeaError::Io(Arc::new(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "peer closed a fresh connection before responding",
            ))),
            RoundTripError::Fatal(e) => e,
        })?;
        self.checkin(to, stream);
        resp.into_result()
    }

    fn connect_error(&self, to: NodeId, addr: SocketAddr, e: std::io::Error) -> PangeaError {
        PangeaError::Remote(format!("connecting {to} at {addr}: {e}"))
    }

    /// Authenticates a fresh connection when a secret is configured.
    fn handshake(&self, stream: TcpStream) -> Result<TcpStream> {
        let Some(secret) = &self.secret else {
            return Ok(stream);
        };
        let hello = Request::Hello {
            secret: secret.clone(),
        }
        .encode(None);
        self.stats
            .record_serialization(hello.len() + FRAME_OVERHEAD);
        let (resp, stream) = self.round_trip(stream, &hello).map_err(|e| match e {
            RoundTripError::NotProcessed => PangeaError::Io(Arc::new(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "peer closed the connection during the handshake",
            ))),
            RoundTripError::Fatal(e) => e,
        })?;
        resp.into_result()?;
        Ok(stream)
    }

    fn round_trip(
        &self,
        mut stream: TcpStream,
        encoded: &[u8],
    ) -> std::result::Result<(Response, TcpStream), RoundTripError> {
        if let Err(e) = write_frame(&mut stream, CORR, encoded) {
            // The request never fully left this side.
            return Err(match e {
                PangeaError::Io(_) => RoundTripError::NotProcessed,
                other => RoundTripError::Fatal(other),
            });
        }
        let payload = match read_frame(&mut stream) {
            // Clean EOF with zero response bytes: the peer closed the
            // idle connection without seeing the request.
            Ok(None) => return Err(RoundTripError::NotProcessed),
            // One request in flight: the frame answers it, or is a
            // connection-level refusal whose typed error surfaces when
            // the caller converts the response.
            Ok(Some((_, p))) => p,
            // Mid-response failure: the peer may have executed the
            // request; never silently retry.
            Err(e) => return Err(RoundTripError::Fatal(e)),
        };
        self.stats
            .record_serialization(payload.len() + FRAME_OVERHEAD);
        match Response::decode(&payload) {
            Ok(resp) => Ok((resp, stream)),
            Err(e) => Err(RoundTripError::Fatal(e)),
        }
    }
}

/// Why one request/response exchange failed, split by whether the peer
/// could have processed the request (governs retry safety).
enum RoundTripError {
    /// The request provably never reached the peer's handler.
    NotProcessed,
    /// The peer may have processed the request; the error must surface.
    Fatal(PangeaError),
}

impl Transport for TcpTransport {
    /// Moves `payload` to `to` over TCP via the peer's `Deliver` endpoint.
    ///
    /// Accounting mirrors the simulation: local deliveries are free;
    /// remote deliveries pay the throttle and count `payload.len()` net
    /// bytes plus one copy (the receive-side buffer).
    fn transfer(&self, from: NodeId, to: NodeId, payload: &[u8]) -> Result<Vec<u8>> {
        if from == to {
            return Ok(payload.to_vec());
        }
        self.throttle.consume(payload.len());
        self.stats.record_net(payload.len());
        self.stats.record_copy(payload.len());
        let resp = self.request(
            to,
            &Request::Deliver {
                from: from.raw(),
                payload: payload.to_vec(),
            },
        )?;
        match resp {
            Response::Delivered { len, checksum } => {
                if len != payload.len() as u64 || checksum != pangea_common::fx_hash64(payload) {
                    return Err(PangeaError::Corruption(format!(
                        "delivery ack digest mismatch for a {} B payload",
                        payload.len()
                    )));
                }
                Ok(payload.to_vec())
            }
            other => Err(PangeaError::Remote(format!(
                "unexpected delivery response: {other:?}"
            ))),
        }
    }

    fn stats(&self) -> &Arc<IoStats> {
        &self.stats
    }

    fn kind(&self) -> &'static str {
        "tcp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_peer_is_unavailable() {
        let t = TcpTransport::new([]);
        assert!(matches!(
            t.transfer(NodeId(0), NodeId(1), b"x"),
            Err(PangeaError::NodeUnavailable(NodeId(1)))
        ));
    }

    #[test]
    fn local_delivery_needs_no_peer() {
        let t = TcpTransport::new([]);
        assert_eq!(t.transfer(NodeId(3), NodeId(3), b"loc").unwrap(), b"loc");
        assert_eq!(t.bytes_moved(), 0);
    }

    #[test]
    fn unreachable_peer_reports_remote_error() {
        // Port 9 on localhost: nothing listens there in the test env.
        let addr: SocketAddr = "127.0.0.1:9".parse().unwrap();
        let t = TcpTransport::new([(NodeId(1), addr)]);
        match t.transfer(NodeId(0), NodeId(1), b"x") {
            Err(PangeaError::Remote(m)) => assert!(m.contains("node#1")),
            other => panic!("expected Remote error, got {other:?}"),
        }
    }
}
