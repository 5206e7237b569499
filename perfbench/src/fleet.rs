//! An in-process loopback deployment: one `MgrServer` and three
//! `PangeadServer`s, each with a heartbeating `WorkerAgent`, driven
//! through one `RemoteCluster`. Also the fleet-wide `MetricsDump`
//! snapshots the traced run diffs around every operation.

use pangea_common::{NodeId, PangeaError, Result};
use pangea_coord::{
    MgrServer, RemoteCluster, WorkerAgent, DEFAULT_HEARTBEAT, DEFAULT_LIVENESS_TIMEOUT,
};
use pangea_core::{NodeConfig, StorageNode};
use pangea_net::{PangeaClient, PangeadServer, WireMetric};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub const WORKERS: u32 = 3;
const SECRET: &str = "perfbench-deployment-secret";

/// How fast the manager declares a silent worker dead: the control-plane
/// defaults, or a 300 ms window (30 ms heartbeats) for fleets whose
/// workers are crashed on purpose, so each kill → Dead wait stays short.
#[derive(Clone, Copy)]
pub enum Detect {
    Default,
    Fast,
}

impl Detect {
    fn liveness(self) -> Duration {
        match self {
            Detect::Default => DEFAULT_LIVENESS_TIMEOUT,
            Detect::Fast => Duration::from_millis(300),
        }
    }

    fn heartbeat(self) -> Duration {
        match self {
            Detect::Default => DEFAULT_HEARTBEAT,
            Detect::Fast => Duration::from_millis(30),
        }
    }
}

/// How often the traced run's manager scrapes the workers.
const SCRAPE_INTERVAL: Duration = Duration::from_millis(25);

/// Pool geometry of every worker in a fleet; everything else is the
/// daemon default (io threads, connection cap, pipeline window 8).
#[derive(Clone, Copy)]
pub struct Pools {
    pub capacity: usize,
    pub page: usize,
}

/// A worker's server, shared with the fleet's watchdog.
type Server = Arc<Mutex<PangeadServer>>;

struct Worker {
    server: Server,
    agent: WorkerAgent,
}

/// How long one operation may run before the watchdog declares it hung.
pub const OP_TIMEOUT: Duration = Duration::from_secs(2);

/// Breaks hung operations. A request that never gets an answer (a
/// worker thread that panicked mid-request, say) blocks the caller for
/// good; past its deadline the watchdog shuts every worker down, which
/// fails the blocked call, and the fleet is marked broken.
struct Watchdog {
    armed: Mutex<Option<(Instant, Vec<Server>)>>,
    tripped: AtomicBool,
    stop: AtomicBool,
}

impl Watchdog {
    fn spawn() -> Result<(Arc<Watchdog>, JoinHandle<()>)> {
        let dog = Arc::new(Watchdog {
            armed: Mutex::new(None),
            tripped: AtomicBool::new(false),
            stop: AtomicBool::new(false),
        });
        let d = Arc::clone(&dog);
        let handle = std::thread::Builder::new()
            .name("perfbench-watchdog".into())
            .spawn(move || {
                while !d.stop.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(20));
                    let due = {
                        let mut armed = d.armed.lock().expect("watchdog lock");
                        match &*armed {
                            Some((deadline, _)) if Instant::now() > *deadline => {
                                // Under the lock: a `disarm` that finds
                                // nothing armed also sees the trip.
                                d.tripped.store(true, Ordering::SeqCst);
                                armed.take()
                            }
                            _ => None,
                        }
                    };
                    if let Some((_, servers)) = due {
                        // Concurrently: a server's shutdown joins threads
                        // that may be waiting on another server.
                        std::thread::scope(|s| {
                            for server in &servers {
                                s.spawn(|| {
                                    if let Ok(mut srv) = server.lock() {
                                        srv.shutdown_with_drain(Duration::ZERO);
                                    }
                                });
                            }
                        });
                    }
                }
            })?;
        Ok((dog, handle))
    }
}

pub struct Fleet {
    mgr: MgrServer,
    pub mgr_addr: String,
    pub cluster: RemoteCluster,
    workers: Vec<Option<Worker>>,
    /// Per-slot span cursor for [`Fleet::dump`], so a dump never
    /// re-ships spans.
    cursors: Vec<u64>,
    root: PathBuf,
    pools: Pools,
    detect: Detect,
    incarnations: u32,
    watchdog: Arc<Watchdog>,
    watchdog_thread: Option<JoinHandle<()>>,
}

impl Fleet {
    /// Binds the manager (with the scrape loop when `traced`) and three
    /// workers in ascending slot order, then connects a `RemoteCluster`. Each
    /// fleet keeps its data in a directory of its own under `root`.
    pub fn up(root: &Path, pools: Pools, traced: bool, detect: Detect) -> Result<Fleet> {
        static FLEETS: AtomicU32 = AtomicU32::new(0);
        let root = &root.join(format!("fleet{}", FLEETS.fetch_add(1, Ordering::Relaxed)));
        let scrape = traced.then_some(SCRAPE_INTERVAL);
        let mgr = MgrServer::bind_full(
            "127.0.0.1:0",
            detect.liveness(),
            Some(SECRET.into()),
            scrape,
        )?;
        let mgr_addr = mgr.local_addr().to_string();
        let mut fleet_workers = Vec::new();
        for slot in 0..WORKERS {
            fleet_workers.push(Some(start_worker(
                root, &mgr_addr, slot, slot, pools, detect,
            )?));
        }
        let cluster = RemoteCluster::connect(&mgr_addr, Some(SECRET))?;
        let (watchdog, handle) = Watchdog::spawn()?;
        Ok(Fleet {
            mgr,
            mgr_addr,
            cluster,
            workers: fleet_workers,
            cursors: vec![0; WORKERS as usize],
            root: root.to_path_buf(),
            pools,
            detect,
            incarnations: WORKERS,
            watchdog,
            watchdog_thread: Some(handle),
        })
    }

    fn stop_watchdog(&mut self) {
        self.watchdog.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.watchdog_thread.take() {
            let _ = h.join();
        }
    }

    /// Starts the clock on one operation (see [`OP_TIMEOUT`]).
    pub fn arm(&self) {
        let servers = self
            .workers
            .iter()
            .flatten()
            .map(|w| Arc::clone(&w.server))
            .collect();
        *self.watchdog.armed.lock().expect("watchdog lock") =
            Some((Instant::now() + OP_TIMEOUT, servers));
    }

    /// Stops the clock; `true` when the operation hung and the watchdog
    /// broke it — the fleet's workers are gone and it must be replaced.
    pub fn disarm(&self) -> bool {
        let mut armed = self.watchdog.armed.lock().expect("watchdog lock");
        armed.take();
        self.watchdog.tripped.load(Ordering::SeqCst)
    }

    /// Crashes a worker: heartbeats stop without deregistering and the
    /// server closes every connection.
    pub fn kill(&mut self, slot: u32) {
        if let Some(mut w) = self.workers[slot as usize].take() {
            w.agent.abandon();
            shut(&w.server);
        }
    }

    /// Waits until the manager's liveness sweep declares `slot` dead.
    pub fn wait_dead(&self, slot: u32) -> Result<()> {
        let deadline = Instant::now() + self.detect.liveness() * 20;
        while Instant::now() < deadline {
            if self.cluster.dead_workers()?.contains(&NodeId(slot)) {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        Err(PangeaError::Remote(format!(
            "slot {slot} was never declared dead"
        )))
    }

    /// Starts an empty replacement `pangead` in `slot` (fresh data
    /// directory, fresh epoch).
    pub fn replace(&mut self, slot: u32) -> Result<()> {
        let w = start_worker(
            &self.root,
            &self.mgr_addr,
            slot,
            self.incarnations,
            self.pools,
            self.detect,
        )?;
        self.incarnations += 1;
        self.workers[slot as usize] = Some(w);
        self.cursors[slot as usize] = 0;
        Ok(())
    }

    /// Clean shutdown of every worker and the manager, then the data.
    pub fn shutdown(mut self) {
        self.stop_watchdog();
        for w in self.workers.iter_mut().flatten() {
            let _ = w.agent.shutdown();
            shut(&w.server);
        }
        self.mgr.shutdown();
        let _ = std::fs::remove_dir_all(&self.root);
    }

    /// One fleet-wide `MetricsDump`: counters and gauges summed over the
    /// alive workers, latency histograms merged bucket-wise.
    pub fn dump(&mut self) -> Result<Dump> {
        let mut out = Dump::default();
        for (slot, w) in self.workers.iter().enumerate() {
            let Some(w) = w else { continue };
            let (addr, disk) = {
                let srv = w.server.lock().expect("server lock");
                (
                    srv.local_addr(),
                    srv.daemon().node().disk_stats().snapshot(),
                )
            };
            let mut c = PangeaClient::connect_with_secret(addr, Some(SECRET))?;
            let (metrics, _, cursor) = c.metrics_dump_since(self.cursors[slot])?;
            self.cursors[slot] = cursor;
            out.add(metrics);
            // The node's disk ledger (what `Stats` serves) is not in the
            // dump; read it through the daemon handle.
            for (name, v) in [
                (DISK_READ_BYTES, disk.disk_read_bytes),
                (DISK_WRITE_BYTES, disk.disk_write_bytes),
                (PAGES_FLUSHED, disk.pages_flushed),
            ] {
                *out.counters.entry(name.to_string()).or_default() += v;
            }
        }
        Ok(out)
    }

    /// Completed scrape passes of the traced manager.
    fn scrape_ticks(&self) -> u64 {
        self.mgr
            .daemon()
            .obs()
            .registry()
            .counter(pangea_obs::names::MGR_SCRAPE_TICKS)
            .get()
    }

    /// Blocks until two scrape passes began after this call, so every
    /// span recorded before it has reached the manager's store.
    pub fn await_scrape(&self) {
        let start = self.scrape_ticks();
        let deadline = Instant::now() + SCRAPE_INTERVAL * 40;
        while self.scrape_ticks() < start + 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    pub fn secret(&self) -> &'static str {
        SECRET
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.stop_watchdog();
    }
}

fn start_worker(
    root: &Path,
    mgr: &str,
    slot: u32,
    incarnation: u32,
    pools: Pools,
    detect: Detect,
) -> Result<Worker> {
    let node = StorageNode::new(
        NodeConfig::new(root.join(format!("node{incarnation}")))
            .with_pool_capacity(pools.capacity)
            .with_page_size(pools.page),
    )?;
    let server = PangeadServer::bind_with_secret(node, "127.0.0.1:0", Some(SECRET.into()))?;
    let agent = WorkerAgent::register(
        mgr,
        Some(SECRET),
        &server.local_addr().to_string(),
        Some(NodeId(slot)),
        detect.heartbeat(),
    )?;
    Ok(Worker {
        server: Arc::new(Mutex::new(server)),
        agent,
    })
}

fn shut(server: &Server) {
    if let Ok(mut srv) = server.lock() {
        srv.shutdown_with_drain(Duration::ZERO);
    }
}

/// Keys [`Fleet::dump`] files the nodes' disk counters under.
pub const DISK_READ_BYTES: &str = "node.disk_read_bytes";
pub const DISK_WRITE_BYTES: &str = "node.disk_write_bytes";
pub const PAGES_FLUSHED: &str = "node.pages_flushed";

/// A fleet-wide metrics snapshot.
#[derive(Default, Clone)]
pub struct Dump {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    hists: BTreeMap<String, Vec<u64>>,
}

impl Dump {
    fn add(&mut self, metrics: Vec<WireMetric>) {
        for m in metrics {
            match m {
                WireMetric::Counter { name, value } => {
                    *self.counters.entry(name).or_default() += value
                }
                WireMetric::Gauge { name, value } => *self.gauges.entry(name).or_default() += value,
                WireMetric::Histogram { name, buckets, .. } => {
                    let agg = self.hists.entry(name).or_default();
                    agg.resize(agg.len().max(buckets.len()), 0);
                    for (slot, b) in agg.iter_mut().zip(&buckets) {
                        *slot += b;
                    }
                }
            }
        }
    }

    /// Counter `name` (0 when no worker touched it).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Counters and histograms as the change since `before`; gauges keep
    /// their current value. A worker replaced in between restarts its
    /// counters, so differences saturate at zero.
    pub fn since(&self, before: &Dump) -> Dump {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), v.saturating_sub(before.counter(k))))
            .collect();
        let hists = self
            .hists
            .iter()
            .map(|(k, v)| {
                let b = before.hists.get(k);
                let d = v
                    .iter()
                    .enumerate()
                    .map(|(i, x)| x.saturating_sub(b.and_then(|b| b.get(i)).copied().unwrap_or(0)))
                    .collect();
                (k.clone(), d)
            })
            .collect();
        Dump {
            counters,
            gauges: self.gauges.clone(),
            hists,
        }
    }

    /// Accumulates another delta into this one.
    pub fn merge(&mut self, delta: &Dump) {
        for (k, v) in &delta.counters {
            *self.counters.entry(k.clone()).or_default() += v;
        }
        for (k, v) in &delta.hists {
            let agg = self.hists.entry(k.clone()).or_default();
            agg.resize(agg.len().max(v.len()), 0);
            for (slot, b) in agg.iter_mut().zip(v) {
                *slot += b;
            }
        }
        self.gauges = delta.gauges.clone();
    }

    pub fn histogram(&self, name: &str) -> Vec<u64> {
        self.hists
            .get(name)
            .cloned()
            .unwrap_or_else(|| vec![0; pangea_obs::HISTOGRAM_BUCKETS])
    }
}
