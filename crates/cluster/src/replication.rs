//! Heterogeneous replication and failure recovery (paper §7).
//!
//! In Pangea a replica is not a byte copy: every member of a replication
//! group holds the *same objects* under a *different physical
//! organization* (partitioning scheme). The replicas do double duty —
//! queries pick the best-organized member through the statistics
//! database, and recovery re-derives a lost node's share of one member
//! by running its partitioner over a surviving member.
//!
//! The corner case is "colliding" objects: objects whose copy in *every*
//! member happens to land on the same node. Losing that node loses every
//! copy, so colliding objects are detected at partitioning time, stored
//! in a separate locality set, and replicated HDFS-style to other nodes.

use crate::cluster::SimCluster;
use crate::partition::PartitionScheme;
use pangea_common::{NodeId, PangeaError, ReplicaGroupId, Result};
use std::time::Instant;

pub use crate::engine::{RecoveryReport, ReplicaReport};

/// The conventional name of a group's colliding-object set.
pub fn colliding_set_name(group: ReplicaGroupId) -> String {
    format!("grp{}.colliding", group.raw())
}

/// Expected fraction of colliding objects under random partitioning on a
/// `k`-node cluster when tolerating `r` concurrent failures (paper §7:
/// `1 − k·(k−1)·…·(k−r) / k^{r+1}`).
pub fn expected_colliding_ratio(k: u32, r: u32) -> f64 {
    if k == 0 {
        return 1.0;
    }
    let mut numerator = 1.0f64;
    for i in 0..=r {
        numerator *= (k as f64 - i as f64).max(0.0);
    }
    1.0 - numerator / (k as f64).powi(r as i32 + 1)
}

impl SimCluster {
    /// The paper's `partitionSet` + `registerReplica` pair with the
    /// default single-failure tolerance (`r = 1`).
    pub fn register_replica(
        &self,
        source: &str,
        target: &str,
        scheme: PartitionScheme,
    ) -> Result<ReplicaReport> {
        self.register_replica_with_r(source, target, scheme, 1)
    }

    /// Registers `target` as a replica of `source` under `scheme`,
    /// tolerating `r` concurrent node failures (§7). Delegates to the
    /// generic engine ([`crate::engine::ClusterCore`]), which is shared
    /// with `pangea-coord`'s `RemoteCluster`.
    pub fn register_replica_with_r(
        &self,
        source: &str,
        target: &str,
        scheme: PartitionScheme,
        r: u32,
    ) -> Result<ReplicaReport> {
        self.core()
            .register_replica_with_r(source, target, scheme, r)
    }

    /// Count of colliding objects currently stored for `group`.
    pub fn colliding_objects(&self, group: ReplicaGroupId) -> Result<u64> {
        self.core().colliding_objects(group)
    }

    /// Recovers a failed node (paper §7): re-provisions the slot, then
    /// for every member of every replication group restores the objects
    /// that lived on the failed node by running the member's partitioner
    /// over a surviving sibling replica, plus the colliding set for
    /// objects that had no surviving copy.
    pub fn recover_node(&self, failed: NodeId) -> Result<RecoveryReport> {
        let start = Instant::now();
        let net_before = self.network().bytes_moved();
        if self.worker(failed).is_ok() {
            return Err(PangeaError::usage(format!("{failed} has not failed")));
        }
        self.restart_node(failed)?;
        let mut report = self.core().recover_sets(failed)?;
        report.bytes_moved = self.network().bytes_moved() - net_before;
        report.duration = start.elapsed();
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ClusterConfig, DistSet};
    use pangea_common::KB;
    use std::collections::BTreeMap;
    use std::path::PathBuf;

    fn test_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "pangea-repl-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn cluster(tag: &str, nodes: u32) -> SimCluster {
        let cfg = ClusterConfig::new(test_root(tag), nodes)
            .with_pool_capacity(512 * KB)
            .with_page_size(4 * KB);
        SimCluster::bootstrap(cfg, "pangea-default-keypair").unwrap()
    }

    fn field(idx: usize) -> impl Fn(&[u8]) -> Vec<u8> + Send + Sync + 'static {
        move |rec: &[u8]| {
            rec.split(|&b| b == b'|')
                .nth(idx)
                .unwrap_or_default()
                .to_vec()
        }
    }

    /// Loads `n` two-field records `"<a>|<b>|row<i>"` round-robin.
    fn load(c: &SimCluster, name: &str, n: u32) -> DistSet {
        let s = c
            .create_dist_set(name, PartitionScheme::round_robin(c.num_nodes()))
            .unwrap();
        let mut d = s.loader().unwrap();
        for i in 0..n {
            d.dispatch(format!("{}|{}|row{}", i, i % 97, i).as_bytes())
                .unwrap();
        }
        d.finish().unwrap();
        s
    }

    fn snapshot(s: &DistSet) -> BTreeMap<Vec<u8>, u32> {
        let mut m = BTreeMap::new();
        s.for_each_record(|_, rec| {
            *m.entry(rec.to_vec()).or_insert(0) += 1;
        })
        .unwrap();
        m
    }

    #[test]
    fn replica_holds_same_objects_differently_organized() {
        let c = cluster("basic", 4);
        let src = load(&c, "lineitem", 400);
        let report = c
            .register_replica(
                "lineitem",
                "lineitem_pt",
                PartitionScheme::hash("f0", 8, field(0)),
            )
            .unwrap();
        assert_eq!(report.objects, 400);
        let tgt = c.get_dist_set("lineitem_pt").unwrap();
        assert_eq!(snapshot(&src), snapshot(&tgt), "same objects");
        // And organized by key: every key on one node.
        let scheme = tgt.scheme().unwrap();
        tgt.for_each_record(|node, rec| {
            assert_eq!(scheme.node_of(rec, 0, 4), node);
        })
        .unwrap();
        // The statistics service knows the replica.
        assert_eq!(
            c.manager().best_replica("lineitem", "f0").as_deref(),
            Some("lineitem_pt")
        );
    }

    #[test]
    fn recovery_restores_all_replicas_after_single_failure() {
        let c = cluster("recover", 4);
        let src = load(&c, "lineitem", 600);
        c.register_replica(
            "lineitem",
            "lineitem_ok",
            PartitionScheme::hash("f0", 8, field(0)),
        )
        .unwrap();
        c.register_replica(
            "lineitem",
            "lineitem_pk",
            PartitionScheme::hash("f1", 8, field(1)),
        )
        .unwrap();
        let before_src = snapshot(&src);
        let before_ok = snapshot(&c.get_dist_set("lineitem_ok").unwrap());
        let before_pk = snapshot(&c.get_dist_set("lineitem_pk").unwrap());
        assert_eq!(before_src.len(), 600);

        c.kill_node(NodeId(2)).unwrap();
        let report = c.recover_node(NodeId(2)).unwrap();
        assert!(report.objects_restored > 0);
        assert!(report.bytes_moved > 0);
        assert_eq!(report.replicas_recovered.len(), 3);

        assert_eq!(snapshot(&src), before_src, "random replica restored");
        assert_eq!(
            snapshot(&c.get_dist_set("lineitem_ok").unwrap()),
            before_ok,
            "f0 replica restored"
        );
        assert_eq!(
            snapshot(&c.get_dist_set("lineitem_pk").unwrap()),
            before_pk,
            "f1 replica restored"
        );
        // Hash replicas are restored *in place*: keys still map home.
        let ok = c.get_dist_set("lineitem_ok").unwrap();
        let scheme = ok.scheme().unwrap();
        ok.for_each_record(|node, rec| {
            assert_eq!(scheme.node_of(rec, 0, 4), node);
        })
        .unwrap();
    }

    #[test]
    fn colliding_ratio_declines_with_cluster_size() {
        // The paper observes 9% → 3% → 0% going from 10 to 30 nodes.
        let mut ratios = Vec::new();
        for (tag, nodes) in [("c2", 2u32), ("c4", 4), ("c8", 8)] {
            let c = cluster(tag, nodes);
            load(&c, "t", 500);
            let report = c
                .register_replica("t", "t_a", PartitionScheme::hash("f0", nodes * 2, field(0)))
                .unwrap();
            ratios.push(report.colliding_ratio());
        }
        assert!(
            ratios[0] > ratios[1] && ratios[1] > ratios[2],
            "ratios must decline: {ratios:?}"
        );
        // And roughly track the expected 1/k for r = 1.
        assert!((ratios[0] - expected_colliding_ratio(2, 1)).abs() < 0.15);
    }

    #[test]
    fn expected_ratio_formula_matches_paper_special_cases() {
        // r = 1: 1 − k(k−1)/k² = 1/k.
        for k in [2u32, 5, 10, 30] {
            assert!((expected_colliding_ratio(k, 1) - 1.0 / k as f64).abs() < 1e-12);
        }
        // Declines in k, grows in r.
        assert!(expected_colliding_ratio(10, 1) < expected_colliding_ratio(5, 1));
        assert!(expected_colliding_ratio(10, 2) > expected_colliding_ratio(10, 1));
    }

    #[test]
    fn unreplicated_groups_are_unrecoverable() {
        let c = cluster("unrec", 3);
        load(&c, "solo", 50);
        // Manually create a single-member group.
        c.create_dist_set("other", PartitionScheme::round_robin(3))
            .unwrap();
        c.manager().link_replicas("solo", "other").unwrap();
        c.manager().deregister_set("other");
        c.kill_node(NodeId(0)).unwrap();
        assert!(matches!(
            c.recover_node(NodeId(0)),
            Err(PangeaError::UnrecoverableFailure(_))
        ));
    }

    #[test]
    fn dropping_a_whole_group_leaves_other_groups_recoverable() {
        let c = cluster("dropgroup", 3);
        load(&c, "gone", 60);
        let gone = c
            .register_replica("gone", "gone_f0", PartitionScheme::hash("f0", 6, field(0)))
            .unwrap()
            .group;
        let kept_src = load(&c, "kept", 90);
        let kept = c
            .register_replica("kept", "kept_f1", PartitionScheme::hash("f1", 6, field(1)))
            .unwrap()
            .group;
        c.drop_dist_set("gone").unwrap();
        c.drop_dist_set("gone_f0").unwrap();
        assert_eq!(c.manager().groups(), vec![kept], "the emptied group goes");
        assert!(c.manager().group_members(gone).is_empty());

        let before_src = snapshot(&kept_src);
        let before_f1 = snapshot(&c.get_dist_set("kept_f1").unwrap());
        c.kill_node(NodeId(1)).unwrap();
        let report = c.recover_node(NodeId(1)).unwrap();
        assert_eq!(report.replicas_recovered.len(), 2);
        assert_eq!(snapshot(&kept_src), before_src);
        assert_eq!(snapshot(&c.get_dist_set("kept_f1").unwrap()), before_f1);
        assert_eq!(c.manager().group_members(kept), vec!["kept", "kept_f1"]);
    }

    #[test]
    fn replica_requires_keyed_scheme() {
        let c = cluster("keyed", 2);
        load(&c, "s", 10);
        assert!(c
            .register_replica("s", "s2", PartitionScheme::round_robin(2))
            .is_err());
    }

    #[test]
    fn recovering_a_live_node_is_rejected() {
        let c = cluster("live", 2);
        load(&c, "s", 10);
        assert!(c.recover_node(NodeId(0)).is_err());
    }
}
