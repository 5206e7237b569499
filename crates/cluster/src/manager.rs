//! The Pangea manager node (paper §3.3): accepts applications, keeps the
//! locality-set catalog (database/set names, page size, attributes,
//! partition scheme, replica group), and serves the **statistics
//! database** that query schedulers consult to pick the best replica for
//! a computation (§7, §9.1.2).

use crate::partition::PartitionScheme;
use pangea_common::{FxHashMap, PangeaError, ReplicaGroupId, Result};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-set statistics maintained by the manager.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SetStats {
    /// Objects dispatched into the set.
    pub objects: u64,
    /// Payload bytes dispatched into the set.
    pub bytes: u64,
}

/// One catalog entry: a distributed set's metadata.
#[derive(Debug, Clone)]
pub struct CatalogEntry {
    /// The set's cluster-wide name.
    pub name: String,
    /// Its partitioning scheme (physical organization).
    pub scheme: PartitionScheme,
    /// The replica group it belongs to, once registered.
    pub group: Option<ReplicaGroupId>,
    /// Dispatch statistics.
    pub stats: SetStats,
}

/// The manager's catalog + statistics database. The paper stresses the
/// manager is light-weight: it stores per-*set* metadata, not per-page
/// locations (those live in each worker's meta files, §4).
#[derive(Debug, Default)]
pub struct Manager {
    catalog: Mutex<FxHashMap<String, CatalogEntry>>,
    groups: Mutex<FxHashMap<ReplicaGroupId, Vec<String>>>,
    next_group: AtomicU64,
}

impl Manager {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new distributed set.
    pub fn register_set(&self, name: &str, scheme: PartitionScheme) -> Result<()> {
        let mut catalog = self.catalog.lock();
        if catalog.contains_key(name) {
            return Err(PangeaError::usage(format!(
                "distributed set '{name}' already exists"
            )));
        }
        catalog.insert(
            name.to_string(),
            CatalogEntry {
                name: name.to_string(),
                scheme,
                group: None,
                stats: SetStats::default(),
            },
        );
        Ok(())
    }

    /// Removes a set from the catalog and its group. A group whose last
    /// member goes is removed with it: an empty group has nothing to
    /// recover, and recovery walks every listed group.
    pub fn deregister_set(&self, name: &str) {
        let removed = self.catalog.lock().remove(name);
        if let Some(g) = removed.and_then(|entry| entry.group) {
            let mut groups = self.groups.lock();
            if let Some(members) = groups.get_mut(&g) {
                members.retain(|m| m != name);
                if members.is_empty() {
                    groups.remove(&g);
                }
            }
        }
    }

    /// A copy of one catalog entry.
    pub fn entry(&self, name: &str) -> Option<CatalogEntry> {
        self.catalog.lock().get(name).cloned()
    }

    /// True when the set is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.catalog.lock().contains_key(name)
    }

    /// All registered set names, sorted.
    pub fn set_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.catalog.lock().keys().cloned().collect();
        v.sort();
        v
    }

    /// Adds dispatch counts to a set's statistics.
    pub fn add_stats(&self, name: &str, objects: u64, bytes: u64) -> Result<()> {
        let mut catalog = self.catalog.lock();
        let entry = catalog
            .get_mut(name)
            .ok_or_else(|| PangeaError::usage(format!("unknown set '{name}'")))?;
        entry.stats.objects += objects;
        entry.stats.bytes += bytes;
        Ok(())
    }

    /// Puts `a` and `b` in the same replica group (creating one when
    /// neither has a group yet) — the paper's `registerReplica` bookkeeping.
    /// By definition every member then holds the same objects under a
    /// different physical organization (§7).
    pub fn link_replicas(&self, a: &str, b: &str) -> Result<ReplicaGroupId> {
        let mut catalog = self.catalog.lock();
        if !catalog.contains_key(a) {
            return Err(PangeaError::usage(format!("unknown set '{a}'")));
        }
        if !catalog.contains_key(b) {
            return Err(PangeaError::usage(format!("unknown set '{b}'")));
        }
        let ga = catalog[a].group;
        let gb = catalog[b].group;
        let group = match (ga, gb) {
            (Some(g), None) | (None, Some(g)) => g,
            (None, None) => ReplicaGroupId(self.next_group.fetch_add(1, Ordering::Relaxed) + 1),
            (Some(g1), Some(g2)) if g1 == g2 => g1,
            (Some(g1), Some(g2)) => {
                return Err(PangeaError::usage(format!(
                    "sets '{a}' ({g1}) and '{b}' ({g2}) are in different groups"
                )))
            }
        };
        let mut groups = self.groups.lock();
        let members = groups.entry(group).or_default();
        for name in [a, b] {
            if catalog[name].group.is_none() {
                catalog.get_mut(name).expect("checked").group = Some(group);
                members.push(name.to_string());
            }
        }
        Ok(group)
    }

    /// Members of a replica group.
    pub fn group_members(&self, group: ReplicaGroupId) -> Vec<String> {
        self.groups.lock().get(&group).cloned().unwrap_or_default()
    }

    /// All replica groups, ascending.
    pub fn groups(&self) -> Vec<ReplicaGroupId> {
        let mut v: Vec<ReplicaGroupId> = self.groups.lock().keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// The statistics service (§7, §9.1.2): among the replicas of
    /// `set`'s group (including `set` itself), returns the one whose
    /// partition scheme is keyed by `desired_key`, if any. The query
    /// scheduler uses this to pick a co-partitioned replica and pipeline
    /// joins without repartitioning.
    pub fn best_replica(&self, set: &str, desired_key: &str) -> Option<String> {
        let catalog = self.catalog.lock();
        let entry = catalog.get(set)?;
        if entry.scheme.key_name == desired_key {
            return Some(set.to_string());
        }
        let group = entry.group?;
        let groups = self.groups.lock();
        for member in groups.get(&group)? {
            if let Some(e) = catalog.get(member) {
                if e.scheme.key_name == desired_key {
                    return Some(member.clone());
                }
            }
        }
        None
    }
}

/// The in-process implementation of the engine's catalog seam; the
/// wire-served implementation lives in `pangea-coord`.
impl crate::engine::Catalog for Manager {
    fn register_set(&self, name: &str, scheme: PartitionScheme) -> Result<()> {
        Manager::register_set(self, name, scheme)
    }

    fn deregister_set(&self, name: &str) -> Result<()> {
        Manager::deregister_set(self, name);
        Ok(())
    }

    fn entry(&self, name: &str) -> Result<Option<CatalogEntry>> {
        Ok(Manager::entry(self, name))
    }

    fn contains(&self, name: &str) -> Result<bool> {
        Ok(Manager::contains(self, name))
    }

    fn set_names(&self) -> Result<Vec<String>> {
        Ok(Manager::set_names(self))
    }

    fn add_stats(&self, name: &str, objects: u64, bytes: u64) -> Result<()> {
        Manager::add_stats(self, name, objects, bytes)
    }

    fn link_replicas(&self, a: &str, b: &str) -> Result<ReplicaGroupId> {
        Manager::link_replicas(self, a, b)
    }

    fn group_members(&self, group: ReplicaGroupId) -> Result<Vec<String>> {
        Ok(Manager::group_members(self, group))
    }

    fn groups(&self) -> Result<Vec<ReplicaGroupId>> {
        Ok(Manager::groups(self))
    }

    fn best_replica(&self, set: &str, key: &str) -> Result<Option<String>> {
        Ok(Manager::best_replica(self, set, key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scheme(key: &str) -> PartitionScheme {
        PartitionScheme::hash(key, 4, |r| r.to_vec())
    }

    #[test]
    fn register_and_lookup() {
        let m = Manager::new();
        m.register_set("lineitem", PartitionScheme::round_robin(4))
            .unwrap();
        assert!(m.contains("lineitem"));
        assert!(m.register_set("lineitem", scheme("x")).is_err());
        let e = m.entry("lineitem").unwrap();
        assert_eq!(e.scheme.key_name, "random");
        assert!(e.group.is_none());
    }

    #[test]
    fn stats_accumulate() {
        let m = Manager::new();
        m.register_set("s", scheme("k")).unwrap();
        m.add_stats("s", 10, 1000).unwrap();
        m.add_stats("s", 5, 500).unwrap();
        let e = m.entry("s").unwrap();
        assert_eq!(
            e.stats,
            SetStats {
                objects: 15,
                bytes: 1500
            }
        );
        assert!(m.add_stats("missing", 1, 1).is_err());
    }

    #[test]
    fn replica_groups_link_transitively() {
        let m = Manager::new();
        m.register_set("a", PartitionScheme::round_robin(4))
            .unwrap();
        m.register_set("b", scheme("l_orderkey")).unwrap();
        m.register_set("c", scheme("l_partkey")).unwrap();
        let g1 = m.link_replicas("a", "b").unwrap();
        let g2 = m.link_replicas("a", "c").unwrap();
        assert_eq!(g1, g2);
        let mut members = m.group_members(g1);
        members.sort();
        assert_eq!(members, vec!["a", "b", "c"]);
    }

    #[test]
    fn best_replica_matches_desired_key() {
        let m = Manager::new();
        m.register_set("lineitem", PartitionScheme::round_robin(4))
            .unwrap();
        m.register_set("lineitem_ok", scheme("l_orderkey")).unwrap();
        m.register_set("lineitem_pk", scheme("l_partkey")).unwrap();
        m.link_replicas("lineitem", "lineitem_ok").unwrap();
        m.link_replicas("lineitem", "lineitem_pk").unwrap();
        assert_eq!(
            m.best_replica("lineitem", "l_partkey").as_deref(),
            Some("lineitem_pk")
        );
        assert_eq!(
            m.best_replica("lineitem_ok", "l_orderkey").as_deref(),
            Some("lineitem_ok"),
            "a set already organized by the key is its own best replica"
        );
        assert_eq!(m.best_replica("lineitem", "l_suppkey"), None);
        assert_eq!(m.best_replica("missing", "x"), None);
    }

    #[test]
    fn linking_distinct_groups_is_an_error() {
        let m = Manager::new();
        for n in ["a", "b", "c", "d"] {
            m.register_set(n, scheme("k")).unwrap();
        }
        m.link_replicas("a", "b").unwrap();
        m.link_replicas("c", "d").unwrap();
        assert!(m.link_replicas("a", "c").is_err());
    }

    #[test]
    fn deregister_removes_from_group() {
        let m = Manager::new();
        m.register_set("a", scheme("k")).unwrap();
        m.register_set("b", scheme("j")).unwrap();
        let g = m.link_replicas("a", "b").unwrap();
        m.deregister_set("b");
        assert_eq!(m.group_members(g), vec!["a"]);
        assert!(!m.contains("b"));
    }

    #[test]
    fn deregistering_the_last_member_removes_the_group() {
        let m = Manager::new();
        m.register_set("a", scheme("k")).unwrap();
        m.register_set("b", scheme("j")).unwrap();
        let g = m.link_replicas("a", "b").unwrap();
        m.deregister_set("a");
        m.deregister_set("b");
        assert!(m.groups().is_empty());
        assert!(m.group_members(g).is_empty());
    }
}
