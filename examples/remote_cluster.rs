//! Remote cluster quickstart: a full Pangea deployment on loopback —
//! one `pangea-mgr` manager plus three `pangead` workers — driven
//! entirely through [`RemoteCluster`] over real TCP, with no shared
//! memory between the driver and any worker.
//!
//! The standalone equivalent:
//!
//! ```text
//! pangea-mgr --listen 127.0.0.1:7780 --secret demo
//! pangead --listen 127.0.0.1:7781 --data /tmp/pangea/n0 --secret demo \
//!         --manager 127.0.0.1:7780
//! pangead --listen 127.0.0.1:7782 --data /tmp/pangea/n1 --secret demo \
//!         --manager 127.0.0.1:7780
//! pangead --listen 127.0.0.1:7783 --data /tmp/pangea/n2 --secret demo \
//!         --manager 127.0.0.1:7780
//! ```
//!
//! Run with: `cargo run --example remote_cluster`

use pangea::common::{NodeId, KB, MB};
use pangea::coord::{MgrServer, RemoteCluster, WorkerAgent};
use pangea::core::{NodeConfig, StorageNode};
use pangea::net::{MapSpec, PangeadServer};
use pangea::prelude::{PartitionScheme, Result};
use std::time::{Duration, Instant};

const SECRET: &str = "demo-secret";

fn main() -> Result<()> {
    let root = std::env::temp_dir().join(format!("pangea-remote-cluster-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    // -- Control plane: the manager daemon. ----------------------------
    let mgr = MgrServer::bind_with(
        "127.0.0.1:0",
        Duration::from_millis(500),
        Some(SECRET.into()),
    )?;
    let mgr_addr = mgr.local_addr().to_string();
    println!("pangea-mgr listening on {mgr_addr}");

    // -- Three workers: pangead + registration/heartbeat agent. --------
    let mut fleet = Vec::new();
    for i in 0..3u32 {
        let node = StorageNode::new(
            NodeConfig::new(root.join(format!("node{i}")))
                .with_pool_capacity(4 * MB)
                .with_page_size(64 * KB),
        )?;
        let server = PangeadServer::bind_with_secret(node, "127.0.0.1:0", Some(SECRET.into()))?;
        let agent = WorkerAgent::register(
            &mgr_addr,
            Some(SECRET),
            &server.local_addr().to_string(),
            Some(NodeId(i)),
            Duration::from_millis(100),
        )?;
        println!(
            "worker {} serving on {} ({})",
            agent.node(),
            server.local_addr(),
            agent.epoch()
        );
        fleet.push((server, agent));
    }

    // -- The driver: catalog, dispatch, shuffle — all over the wire. ---
    let cluster = RemoteCluster::connect(&mgr_addr, Some(SECRET))?;
    println!("connected; alive workers: {:?}", cluster.alive_nodes());

    let set =
        cluster.create_dist_set("events", PartitionScheme::hash_field("user_id", 6, b'|', 0))?;
    let mut d = set.loader()?;
    for i in 0..10_000u32 {
        d.dispatch(format!("{}|event-{i:05}", i % 257).as_bytes())?;
    }
    d.finish()?;
    println!(
        "dispatched 10000 records ({} payload B over TCP, {} RPC batches)",
        cluster.workers().stats().snapshot().net_bytes,
        cluster.workers().stats().snapshot().net_messages,
    );
    println!("placement: {:?}", set.records_per_node()?);

    // A replica organized by a different key, for recovery + queries.
    let report = cluster.register_replica(
        "events",
        "events_by_type",
        PartitionScheme::hash_field("event_type", 6, b'|', 1),
    )?;
    println!(
        "replica registered: {} objects, {:.1}% colliding",
        report.objects,
        report.colliding_ratio() * 100.0
    );
    println!(
        "best replica for key 'event_type': {:?}",
        cluster.best_replica("events", "event_type")?
    );

    // A distributed word-count shuffle: each worker maps its local share
    // and streams the routed output straight to its peers.
    let words = cluster.create_dist_set("words", PartitionScheme::round_robin(3))?;
    let mut d = words.loader()?;
    for i in 0..2_000u32 {
        d.dispatch(format!("word-{:02}", i % 40).as_bytes())?;
    }
    d.finish()?;
    let shuffled = cluster.map_shuffle(
        "words",
        "wordcount",
        &MapSpec::identity(),
        PartitionScheme::hash_whole("word", 6),
    )?;
    println!(
        "map-shuffle 'wordcount': {} records routed across {} workers",
        shuffled.records_out,
        shuffled.tasks.len()
    );

    // -- Kill a worker; the manager notices; recovery restores it. -----
    let (mut dead_server, mut dead_agent) = fleet.remove(1);
    dead_agent.abandon(); // crash: heartbeats stop without deregistering
    dead_server.shutdown();
    print!("killed worker node#1; waiting for the liveness sweep… ");
    let t0 = Instant::now();
    while !cluster.dead_workers()?.contains(&NodeId(1)) {
        std::thread::sleep(Duration::from_millis(50));
    }
    println!("declared dead after {:?}", t0.elapsed());

    // A replacement pangead takes over the slot, then recovery runs.
    let replacement = StorageNode::new(
        NodeConfig::new(root.join("node1-replacement"))
            .with_pool_capacity(4 * MB)
            .with_page_size(64 * KB),
    )?;
    let new_server =
        PangeadServer::bind_with_secret(replacement, "127.0.0.1:0", Some(SECRET.into()))?;
    let new_agent = WorkerAgent::register(
        &mgr_addr,
        Some(SECRET),
        &new_server.local_addr().to_string(),
        Some(NodeId(1)),
        Duration::from_millis(100),
    )?;
    fleet.push((new_server, new_agent));
    let recovery = cluster.recover_worker(NodeId(1))?;
    println!(
        "recovered node#1: {} objects restored ({} colliding) in {:?}, {} B over TCP",
        recovery.objects_restored,
        recovery.colliding_restored,
        recovery.duration,
        recovery.bytes_moved
    );
    println!("total records after recovery: {}", set.total_records()?);

    // Clean exits deregister with the manager.
    for (_, agent) in fleet.iter_mut() {
        agent.shutdown()?;
    }
    let _ = std::fs::remove_dir_all(&root);
    Ok(())
}
