//! Loopback TCP integration tests: the same distributed workloads run
//! over the in-process `SimNetwork` and over a real `TcpTransport`
//! against `pangead` servers, and the I/O accounting lines up.

use pangea::cluster::{ClusterConfig, PartitionScheme, SimCluster};
use pangea::common::{NodeId, KB};
use pangea::core::{NodeConfig, StorageNode};
use pangea::net::{PangeaClient, PangeadServer, TcpTransport, Transport};
use std::path::PathBuf;
use std::sync::Arc;

fn dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "pangea-remote-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn small_node(tag: &str) -> StorageNode {
    StorageNode::new(
        NodeConfig::new(dir(tag))
            .with_pool_capacity(256 * KB)
            .with_page_size(4 * KB),
    )
    .unwrap()
}

/// Boots `n` pangead servers on loopback, each wrapping its own node.
fn pangead_fleet(tag: &str, n: u32) -> Vec<PangeadServer> {
    (0..n)
        .map(|i| PangeadServer::bind(small_node(&format!("{tag}-peer{i}")), "127.0.0.1:0").unwrap())
        .collect()
}

fn fleet_transport(fleet: &[PangeadServer]) -> TcpTransport {
    TcpTransport::new(
        fleet
            .iter()
            .enumerate()
            .map(|(i, s)| (NodeId(i as u32), s.local_addr())),
    )
}

/// Runs the Fig.-style shuffle workload (hash-partitioned dispatch of
/// `records` key|value rows) on a cluster over `transport`, returning
/// payload net bytes the transport counted.
fn run_shuffle_workload(cluster_tag: &str, transport: Arc<dyn Transport>, records: u32) -> u64 {
    let config = ClusterConfig::new(dir(cluster_tag), 3)
        .with_pool_capacity(256 * KB)
        .with_page_size(4 * KB);
    let cluster = SimCluster::bootstrap_with_transport(
        config,
        "pangea-default-keypair",
        Arc::clone(&transport),
    )
    .unwrap();
    let set = cluster
        .create_dist_set(
            "shuffled",
            PartitionScheme::hash("key", 6, |r: &[u8]| {
                r.split(|&b| b == b'|').next().unwrap_or(r).to_vec()
            }),
        )
        .unwrap();
    let mut dispatcher = set.loader().unwrap();
    for i in 0..records {
        dispatcher
            .dispatch(format!("{}|row-{i:06}", i % 40).as_bytes())
            .unwrap();
    }
    dispatcher.finish().unwrap();
    assert_eq!(set.total_records().unwrap(), records as u64);
    transport.bytes_moved()
}

/// The acceptance demo: one distributed shuffle measured on both
/// backends. Payload accounting is identical by design, so the byte
/// counts must agree well within the ±1 page the criterion allows.
#[test]
fn tcp_shuffle_matches_sim_network_byte_counts() {
    const RECORDS: u32 = 600;
    let sim: Arc<dyn Transport> = Arc::new(pangea::cluster::SimNetwork::unlimited());
    let sim_bytes = run_shuffle_workload("sim-cluster", sim, RECORDS);

    let fleet = pangead_fleet("tcpfleet", 3);
    let tcp = Arc::new(fleet_transport(&fleet));
    let tcp_bytes = run_shuffle_workload(
        "tcp-cluster",
        Arc::clone(&tcp) as Arc<dyn Transport>,
        RECORDS,
    );

    assert!(sim_bytes > 0);
    let page = 4 * KB as u64;
    assert!(
        tcp_bytes.abs_diff(sim_bytes) <= page,
        "tcp counted {tcp_bytes} B, sim counted {sim_bytes} B (> 1 page apart)"
    );
    // In fact the payload accounting is identical, not merely close.
    assert_eq!(tcp_bytes, sim_bytes);

    // Every remote payload byte the transport counted was observed by
    // some pangead on the other end of a real socket.
    let received: u64 = fleet
        .iter()
        .map(|s| s.daemon().stats().snapshot().net_bytes)
        .sum();
    assert_eq!(received, tcp_bytes);
    // Framing/protocol overhead exists, but is charged as serialization,
    // never as net bytes.
    assert!(tcp.stats().snapshot().serialized_bytes > tcp_bytes);
}

/// Replication + recovery over the TCP transport: kill a node, restore
/// its share from surviving replicas, with every recovery byte moving
/// through real sockets.
#[test]
fn recovery_runs_over_tcp_transport() {
    let fleet = pangead_fleet("recfleet", 3);
    let tcp: Arc<dyn Transport> = Arc::new(fleet_transport(&fleet));
    let config = ClusterConfig::new(dir("rec-cluster"), 3)
        .with_pool_capacity(256 * KB)
        .with_page_size(4 * KB);
    let cluster =
        SimCluster::bootstrap_with_transport(config, "pangea-default-keypair", tcp).unwrap();
    let set = cluster
        .create_dist_set("users", PartitionScheme::round_robin(3))
        .unwrap();
    let mut d = set.loader().unwrap();
    for i in 0..120u32 {
        d.dispatch(format!("{i}|user").as_bytes()).unwrap();
    }
    d.finish().unwrap();
    cluster
        .register_replica(
            "users",
            "users.by-key",
            PartitionScheme::hash("k", 6, |r: &[u8]| {
                r.split(|&b| b == b'|').next().unwrap_or(r).to_vec()
            }),
        )
        .unwrap();
    let before = cluster.network().bytes_moved();
    cluster.kill_node(NodeId(1)).unwrap();
    let report = cluster.recover_node(NodeId(1)).unwrap();
    assert_eq!(report.failed, NodeId(1));
    assert!(report.objects_restored > 0);
    assert!(
        cluster.network().bytes_moved() > before,
        "recovery must move bytes over the TCP wire"
    );
    assert_eq!(set.total_records().unwrap(), 120);
}

#[test]
fn fetch_page_supports_remote_recovery_reads() {
    let server = PangeadServer::bind(small_node("cli-fetch"), "127.0.0.1:0").unwrap();
    let mut client = PangeaClient::connect(server.local_addr()).unwrap();
    client.create_set("events", "write-back", None).unwrap();
    let rows: Vec<String> = (0..300).map(|i| format!("event-{i:05}")).collect();
    assert_eq!(client.append("events", &rows).unwrap(), 300);

    let mut restored = Vec::new();
    for num in client.page_numbers("events").unwrap() {
        let bytes = client.fetch_page("events", num).unwrap();
        for rec in pangea::core::page::RecordSlices::new(&bytes) {
            restored.push(String::from_utf8(rec.to_vec()).unwrap());
        }
    }
    assert_eq!(
        restored, rows,
        "page-level fetch restores every record in order"
    );
}

/// Remote errors carry their message across the wire instead of killing
/// the connection.
#[test]
fn remote_errors_round_trip_cleanly() {
    let server = PangeadServer::bind(small_node("cli-err"), "127.0.0.1:0").unwrap();
    let mut client = PangeaClient::connect(server.local_addr()).unwrap();
    match client.scan("missing-set") {
        Err(pangea::common::PangeaError::Remote(m)) => {
            assert!(m.contains("missing-set"), "{m}");
        }
        other => panic!("expected Remote error, got {other:?}"),
    }
    // The connection survives the error.
    client.ping().unwrap();
    client.create_set("ok", "write-through", None).unwrap();
    assert_eq!(client.append("ok", &["x"]).unwrap(), 1);
}
