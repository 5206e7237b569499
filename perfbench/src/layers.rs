//! Per-layer metrics of the traced run, measured from outside: fleet
//! `MetricsDump` deltas around each operation, `Stats` and
//! `RecoveryReport`s, and each job's stitched span tree fetched from the
//! manager (`pangea_coord::trace::fetch`). Every metric sits under the
//! module that owns the code it describes.

use crate::fleet::{Dump, DISK_READ_BYTES, DISK_WRITE_BYTES, PAGES_FLUSHED};
use crate::stats::{median, quantile, ratio};
use pangea_cluster::engine::RecoveryReport;
use pangea_obs::{names, quantile_from_buckets, SpanTree};

/// Raw sums the per-layer metrics are computed from.
#[derive(Default)]
pub struct Layers {
    /// Operations attempted in the traced phase, and their fleet deltas.
    pub ops: u64,
    pub delta: Dump,
    /// Input bytes those operations consumed (corpus or loaded rows).
    pub input_bytes: u64,
    /// Worker→worker payload of successful jobs (`emitted_bytes`), the
    /// `IngestAppend` request bytes that carried it, the records their
    /// mappers emitted, and the tokens they mapped.
    pub payload_bytes: u64,
    pub wire_bytes: u64,
    pub emitted: u64,
    pub mapped: u64,
    /// Successful job wall time minus its longest `TaskRun`, seconds.
    pub job_overhead_s: Vec<f64>,
    pub task_run_ns: Vec<f64>,
    pub task_self_ns: Vec<f64>,
    pub ingest_append_ns: Vec<f64>,
    /// Fleet `sessions.*.live` after each attempt.
    pub sessions_live: Vec<f64>,
    /// Fleet `paging.pinned_pages` after each failed attempt.
    pub pinned_at_failure: Vec<f64>,
    /// `rpc.latency_ns.Append` histogram delta over the loads.
    pub append_hist: Vec<u64>,
    pub load_input_bytes: u64,
    pub load_disk_write_bytes: u64,
    pub load_disk_read_bytes: u64,
    pub replicate_s: Vec<f64>,
    pub recoveries: Vec<RecoveryReport>,
    /// Max ÷ mean of records per node of the loaded set.
    pub placement_skew: Vec<f64>,
    pub dropped_spans: u64,
    /// Median of the workload's headline duration, untraced and traced.
    pub untraced_p50: f64,
    pub traced_p50: f64,
}

impl Layers {
    /// Folds in one operation's fleet delta and its after-snapshot.
    pub fn op(&mut self, delta: &Dump, after: &Dump, failed: bool) {
        self.ops += 1;
        self.delta.merge(delta);
        let live =
            after.gauge(names::SESSIONS_INGEST_LIVE) + after.gauge(names::SESSIONS_REPAIR_LIVE);
        self.sessions_live.push(live as f64);
        if failed {
            self.pinned_at_failure
                .push(after.gauge(names::PAGING_PINNED_PAGES) as f64);
        }
    }

    /// Folds in a load's fleet delta.
    pub fn load(&mut self, delta: &Dump, input_bytes: u64) {
        let h = delta.histogram(&names::rpc_latency_ns("Append"));
        self.append_hist
            .resize(self.append_hist.len().max(h.len()), 0);
        for (slot, b) in self.append_hist.iter_mut().zip(&h) {
            *slot += b;
        }
        self.load_input_bytes += input_bytes;
        self.load_disk_write_bytes += delta.counter(DISK_WRITE_BYTES);
        self.load_disk_read_bytes += delta.counter(DISK_READ_BYTES);
    }

    /// Folds in one job's span tree; `wall_s` is the client-side wall
    /// time of that job.
    pub fn job_tree(&mut self, tree: &SpanTree, wall_s: f64, dropped: u64) {
        self.dropped_spans = self.dropped_spans.max(dropped);
        let mut longest = 0u64;
        for s in &tree.spans {
            match s.record.op.as_str() {
                "TaskRun" => {
                    let d = s.duration_ns();
                    longest = longest.max(d);
                    self.task_run_ns.push(d as f64);
                    let covered =
                        covered_ns(tree, s.aligned_start_ns, s.aligned_end_ns, &s.children);
                    self.task_self_ns.push(d.saturating_sub(covered) as f64);
                }
                "IngestAppend" => self.ingest_append_ns.push(s.duration_ns() as f64),
                _ => {}
            }
        }
        if longest > 0 {
            self.job_overhead_s
                .push((wall_s - longest as f64 / 1e9).max(0.0));
        }
    }

    /// The per-layer metrics, in `BENCHMARK.json` order, with units.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let d = &self.delta;
        let ops = self.ops.max(1) as f64;
        let per_op = |name: &str| d.counter(name) as f64 / ops;
        let per_input = |name: &str| ratio(d.counter(name) as f64, self.input_bytes as f64);
        let per_recovery = |field: fn(&RecoveryReport) -> u64| {
            ratio(
                self.recoveries.iter().map(|r| field(r) as f64).sum(),
                self.recoveries.len() as f64,
            )
        };
        let hits = d.counter(names::PAGING_HITS) as f64;
        let misses = d.counter(names::PAGING_MISSES) as f64;
        let append_p50 = if self.append_hist.iter().sum::<u64>() > 0 {
            quantile_from_buckets(&self.append_hist, 0.5) as f64
        } else {
            0.0
        };
        let mean = |v: &[f64]| ratio(v.iter().sum(), v.len() as f64);
        vec![
            ("coord.job_overhead_s", median(&self.job_overhead_s), "s"),
            (
                "net.wire_bytes_per_payload_byte",
                ratio(self.wire_bytes as f64, self.payload_bytes as f64),
                "ratio",
            ),
            (
                "net.ingest_appends_per_job",
                per_op(&names::rpc_count("IngestAppend")),
                "1/job",
            ),
            (
                "net.ingest_append_ns.p50",
                median(&self.ingest_append_ns),
                "ns",
            ),
            (
                "net.ingest_append_ns.p99",
                quantile(&self.ingest_append_ns, 0.99),
                "ns",
            ),
            ("net.task_run_ns.p50", median(&self.task_run_ns), "ns"),
            (
                "net.task_run_ns.p99",
                quantile(&self.task_run_ns, 0.99),
                "ns",
            ),
            (
                "net.credit_stalls",
                per_op(names::NET_CREDIT_STALLS),
                "1/job",
            ),
            (
                "net.credit_stall_ms",
                per_op(names::NET_CREDIT_STALLS_MS),
                "ms/job",
            ),
            ("net.busy_rejects", per_op(names::NET_BUSY_REJECTS), "1/job"),
            (
                "net.peer_pool_hit_ratio",
                ratio(
                    d.counter(names::POOL_HITS) as f64,
                    d.counter(names::POOL_CHECKOUTS) as f64,
                ),
                "ratio",
            ),
            ("core.task_self_ns.p50", median(&self.task_self_ns), "ns"),
            (
                "core.combine_out_per_in",
                ratio(self.emitted as f64, self.mapped as f64),
                "ratio",
            ),
            (
                "core.sessions_live_after_job",
                mean(&self.sessions_live),
                "count",
            ),
            (
                "core.dedup_hits",
                (d.counter(names::INGEST_DEDUP_HITS) + d.counter(names::REPAIR_DEDUP_HITS)) as f64
                    / ops,
                "1/job",
            ),
            ("paging.hit_ratio", ratio(hits, hits + misses), "ratio"),
            (
                "paging.evictions_per_job",
                per_op(names::PAGING_EVICTIONS),
                "1/job",
            ),
            (
                "paging.spill_bytes_per_input_byte",
                per_input(names::PAGING_SPILL_BYTES),
                "ratio",
            ),
            (
                "paging.pinned_pages_at_failure",
                mean(&self.pinned_at_failure),
                "pages",
            ),
            (
                "storage.disk_write_bytes_per_input_byte",
                ratio(
                    (d.counter(DISK_WRITE_BYTES) + self.load_disk_write_bytes) as f64,
                    (self.input_bytes + self.load_input_bytes) as f64,
                ),
                "ratio",
            ),
            (
                "storage.disk_read_bytes_per_input_byte",
                ratio(
                    (d.counter(DISK_READ_BYTES) + self.load_disk_read_bytes) as f64,
                    (self.input_bytes + self.load_input_bytes) as f64,
                ),
                "ratio",
            ),
            (
                "storage.pages_flushed_per_job",
                per_op(PAGES_FLUSHED),
                "1/job",
            ),
            ("cluster.append_ns.p50", append_p50, "ns"),
            ("cluster.replicate_s", median(&self.replicate_s), "s"),
            (
                "cluster.objects_restored_per_recovery",
                per_recovery(|r| r.objects_restored),
                "count",
            ),
            (
                "cluster.bytes_moved_per_recovery",
                per_recovery(|r| r.bytes_moved),
                "B",
            ),
            (
                "cluster.colliding_restored",
                per_recovery(|r| r.colliding_restored),
                "count",
            ),
            (
                "cluster.placement_skew",
                median(&self.placement_skew),
                "ratio",
            ),
            ("obs.dropped_spans", self.dropped_spans as f64, "count"),
            (
                "obs.tracing_overhead",
                ratio(self.traced_p50, self.untraced_p50),
                "ratio",
            ),
        ]
    }
}

/// Nanoseconds of `[start, end)` covered by the union of the children's
/// aligned intervals.
fn covered_ns(tree: &SpanTree, start: u64, end: u64, children: &[usize]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|&c| {
            let s = &tree.spans[c];
            (s.aligned_start_ns.max(start), s.aligned_end_ns.min(end))
        })
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let (mut covered, mut cur) = (0u64, None::<(u64, u64)>);
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    covered + cur.map(|(a, b)| b - a).unwrap_or(0)
}

/// Max ÷ mean of per-node record counts (1.0 is perfectly even).
pub fn skew(per_node: &[(pangea_common::NodeId, u64)]) -> f64 {
    let max = per_node.iter().map(|(_, n)| *n).max().unwrap_or(0) as f64;
    let mean = ratio(
        per_node.iter().map(|(_, n)| *n as f64).sum(),
        per_node.len() as f64,
    );
    ratio(max, mean)
}
