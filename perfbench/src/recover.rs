//! The `recover` workload: the write and replication path the job
//! workloads skip (`cluster` plus the `Recover*` opcodes in `net`).
//! Each cycle runs on a fresh fleet, one operator call at a time:
//!
//! 1. load hash-keyed user rows (varied-length ids) through the loader;
//! 2. `register_replica` keyed on a second field (r = 1);
//! 3. kill, replace and `recover_worker` slots 0 and 1 in turn,
//!    checking after every recovery that both sets hold exactly what
//!    they held before that kill, and at cycle end that no row is
//!    missing.
//!
//! Every operation of these cycles succeeds at the seed state. The
//! sequence stops at two recoveries because the third sequential
//! single-slot recovery silently loses records, and a recovery after
//! `drop_dist_set` fails (README, defects 3 and 4). `recover-full`, a
//! workload outside `BENCHMARK.json`, runs the whole sequence that shows
//! both: each slot twice, then drop both sets and recover once more.
//!
//! Every load, replicate and recovery is one operation. An error, a hang
//! or a check that does not hold counts it as failed; the cycle ends
//! when the next step cannot run, and the workload goes on with the next
//! cycle.

use crate::fleet::{Detect, Dump, Fleet, Pools, WORKERS};
use crate::gen::Digest;
use crate::jobs::{load, missing, placement_skew, set_digest};
use crate::layers::Layers;
use crate::spans::Spans;
use crate::stats::{median, quantile, tail_q};
use crate::{Outcome, Run};
use pangea_cluster::engine::RecoveryReport;
use pangea_cluster::PartitionScheme;
use pangea_common::{NodeId, Result, KB, MB};
use std::path::Path;
use std::time::Instant;

const USERS: &str = "users";
const BY_HANDLE: &str = "users_by_handle";
/// A chosen value, not one taken from a deployment: a power of two, so
/// that at the seed state the exactly-8-byte ids hash by their first
/// byte alone and pile onto one node (`cluster.placement_skew`).
const PARTITIONS: u32 = 8;
/// Slots a timed cycle kills and recovers, in this order.
const SLOTS: [u32; 2] = [0, 1];
/// Rounds over every slot in a `recover-full` cycle.
const FULL_ROUNDS: u32 = 2;
const POOLS: Pools = Pools {
    capacity: 8 * MB,
    page: 64 * KB,
};

/// Samples of the cycles run so far.
#[derive(Default)]
struct Samples {
    cycles: u32,
    setup_s: Vec<f64>,
    load_rps: Vec<f64>,
    /// `recover_worker` seconds of the recoveries that verified, split
    /// by whether the fleet was traced, and what they restored.
    /// Recoveries are this workload's jobs: each runs as one traced job
    /// in `RemoteCluster`.
    recover_s: Vec<f64>,
    recover_traced_s: Vec<f64>,
    /// Mean `recover_worker` seconds of each cycle whose recoveries all
    /// verified. Slots hold different shares of the rows, so single
    /// recoveries fall into groups by slot; a cycle's mean does not.
    cycle_s: Vec<f64>,
    restored: u64,
    /// `recover_worker` seconds of every recovery attempt.
    attempt_s: Vec<f64>,
    /// Rows missing at cycle end, over the rows of the cycles that got
    /// there.
    lost: u64,
    loaded: u64,
    drop_errors: u64,
}

impl Samples {
    /// Median over the cycles whose recoveries all verified of their
    /// mean recovery; over every attempt when no cycle did (the run
    /// notes say which).
    fn recover_p50(&self, out: &mut Outcome) -> f64 {
        if self.cycle_s.is_empty() {
            out.note(
                "job_s.p50_basis",
                "\"all recoveries (no cycle verified)\"".into(),
            );
            median(&self.attempt_s)
        } else {
            median(&self.cycle_s)
        }
    }

    fn lost_share(&self) -> f64 {
        self.lost as f64 / self.loaded.max(1) as f64
    }
}

struct Cycle<'a> {
    fleet: Fleet,
    spans: &'a mut Spans,
    out: &'a mut Outcome,
    s: &'a mut Samples,
    layers: Option<&'a mut Layers>,
    /// Both sets' digests as last checked, so a recovery's pre-kill
    /// state need not be read back again; `None` once a step left them
    /// unknown.
    known: Option<(Digest, Digest)>,
}

impl Cycle<'_> {
    /// A fleet-wide dump when traced, `None` otherwise.
    fn dump(&mut self) -> Result<Option<Dump>> {
        match self.layers {
            Some(_) => Ok(Some(self.fleet.dump()?)),
            None => Ok(None),
        }
    }

    /// The change since `before` and the current dump (traced only).
    fn delta(&mut self, before: Result<Option<Dump>>) -> Result<Option<(Dump, Dump)>> {
        match before? {
            Some(before) => {
                let after = self.fleet.dump()?;
                Ok(Some((after.since(&before), after)))
            }
            None => Ok(None),
        }
    }

    fn digests(&self) -> Result<(Digest, Digest)> {
        Ok((
            set_digest(&self.fleet, USERS)?,
            set_digest(&self.fleet, BY_HANDLE)?,
        ))
    }

    /// Step 1: the load's seconds, `None` when the cycle cannot go on.
    fn load(&mut self, rows: &[Vec<u8>], want: Digest) -> Option<f64> {
        let bytes: u64 = rows.iter().map(|r| r.len() as u64).sum();
        self.out.attempted += 1;
        self.fleet.arm();
        let before = self.dump();
        let loaded = load(
            &self.fleet,
            self.spans,
            USERS,
            PartitionScheme::hash_field("id", PARTITIONS, b'|', 0),
            rows,
        );
        let delta = self.delta(before);
        let check = loaded.is_ok().then(|| set_digest(&self.fleet, USERS));
        let skew = match (&loaded, &delta) {
            (Ok(_), Ok(Some(_))) => Some(placement_skew(&self.fleet, USERS)),
            _ => None,
        };
        if self.fleet.disarm() {
            self.out.hung();
            return None;
        }
        let secs = match loaded {
            Ok(secs) => secs,
            Err(e) => {
                self.out.error(&e);
                return None;
            }
        };
        match check {
            Some(Ok(d)) if d == want => {}
            Some(Ok(_)) => {
                self.out
                    .fail("load finished but the set differs from the rows".into());
                return None;
            }
            Some(Err(e)) => {
                self.out.unreadable(&e);
                return None;
            }
            None => unreachable!("a finished load is always checked"),
        }
        if let Some(layers) = self.layers.as_deref_mut() {
            let observed = delta.and_then(|d| {
                let (delta, _) = d.expect("traced");
                layers.load(&delta, bytes);
                layers.placement_skew.push(skew.expect("traced")?);
                Ok(())
            });
            if let Err(e) = observed {
                self.out.unreadable(&e);
                return None;
            }
        }
        self.s.load_rps.push(rows.len() as f64 / secs);
        Some(secs)
    }

    /// Step 2: the replicate's seconds, `None` when the cycle cannot go
    /// on.
    fn replicate(&mut self, want: Digest) -> Option<f64> {
        self.out.attempted += 1;
        self.fleet.arm();
        let t = Instant::now();
        let rep = self.spans.scope("register_replica", || {
            self.fleet.cluster.register_replica(
                USERS,
                BY_HANDLE,
                PartitionScheme::hash_field("handle", PARTITIONS, b'|', 1),
            )
        });
        let wall = t.elapsed().as_secs_f64();
        let check = rep.is_ok().then(|| set_digest(&self.fleet, BY_HANDLE));
        if self.fleet.disarm() {
            self.out.hung();
            return None;
        }
        if let Err(e) = rep {
            self.out.error(&e);
            return None;
        }
        match check.expect("an Ok replicate is always checked") {
            Ok(d) if d == want => {
                if let Some(layers) = self.layers.as_deref_mut() {
                    layers.replicate_s.push(wall);
                }
                Some(wall)
            }
            Ok(_) => {
                self.out.fail("replica differs from its source".into());
                None
            }
            Err(e) => {
                self.out.unreadable(&e);
                None
            }
        }
    }

    /// Kills, replaces and recovers `slot`: one operation. With `check`,
    /// the recovery verifies when both sets are back to what they held
    /// before the kill. `false` when the cycle cannot go on.
    fn recover(&mut self, slot: u32, check: bool) -> bool {
        self.out.attempted += 1;
        let known = self.known.take();
        let pre = match check
            .then(|| known.map_or_else(|| self.digests(), Ok))
            .transpose()
        {
            Ok(pre) => pre,
            Err(e) => {
                self.out.unreadable(&e);
                return false;
            }
        };
        self.fleet.kill(slot);
        if let Err(e) = self
            .fleet
            .wait_dead(slot)
            .and_then(|()| self.fleet.replace(slot))
        {
            self.out.error(&e);
            return false;
        }
        self.fleet.arm();
        let before = self.dump();
        let t = Instant::now();
        let r = self.spans.scope("recover_worker", || {
            self.fleet.cluster.recover_worker(NodeId(slot))
        });
        let wall = t.elapsed().as_secs_f64();
        let delta = self.delta(before);
        let intact = match (&r, pre) {
            (Ok(_), Some(pre)) => Some(self.digests().map(|now| now == pre)),
            _ => None,
        };
        let hung = self.fleet.disarm();
        self.s.attempt_s.push(wall);
        if hung {
            self.out.hung();
            return false;
        }
        let verified = r.is_ok() && matches!(intact, None | Some(Ok(true)));
        let observed = self.observe(delta, r.as_ref().ok(), !verified, wall);
        let report = match r {
            Ok(report) => report,
            Err(e) => {
                self.out.error(&e);
                return true;
            }
        };
        match intact {
            Some(Err(e)) => {
                self.out.unreadable(&e);
                return false;
            }
            Some(Ok(false)) => {
                self.out
                    .fail("recovery returned Ok but records are missing".into());
                return true;
            }
            Some(Ok(true)) | None => {}
        }
        if let Err(e) = observed {
            self.out.unreadable(&e);
            return false;
        }
        self.known = pre;
        self.s.restored += report.objects_restored;
        if self.layers.is_some() {
            self.s.recover_traced_s.push(wall);
        } else {
            self.s.recover_s.push(wall);
        }
        true
    }

    /// Folds one traced recovery into the layer sums and fetches its span
    /// tree; nothing when untraced.
    fn observe(
        &mut self,
        delta: Result<Option<(Dump, Dump)>>,
        report: Option<&RecoveryReport>,
        failed: bool,
        wall: f64,
    ) -> Result<()> {
        let (Some(layers), Some((delta, after))) = (self.layers.as_deref_mut(), delta?) else {
            return Ok(());
        };
        if let Some(report) = report {
            layers.input_bytes += report.bytes_moved;
            layers.recoveries.push(report.clone());
        }
        layers.op(&delta, &after, failed);
        if let Some(job) = self.fleet.cluster.workers().last_job() {
            self.fleet.await_scrape();
            let (tree, dropped) =
                pangea_coord::trace::fetch(&self.fleet.mgr_addr, Some(self.fleet.secret()), job)?;
            layers.job_tree(&tree, wall, dropped);
        }
        Ok(())
    }

    /// Runs the cycle on a fleet that took `bind_s` to bring up. Its
    /// set-up sample is the bind, the load and the replicate: the
    /// program's calls before the first recovery, without the checks.
    fn run(&mut self, rows: &[Vec<u8>], full: bool, bind_s: f64) {
        let want = Digest::of(rows.iter().map(Vec::as_slice));
        let Some(load_s) = self.load(rows, want) else {
            return;
        };
        let Some(replicate_s) = self.replicate(want) else {
            return;
        };
        self.s.setup_s.push(bind_s + load_s + replicate_s);
        self.known = Some((want, want));
        let slots: Vec<u32> = if full {
            (0..FULL_ROUNDS).flat_map(|_| 0..WORKERS).collect()
        } else {
            SLOTS.to_vec()
        };
        let verified = self.s.recover_s.len();
        for slot in slots {
            if !self.recover(slot, true) {
                return;
            }
        }
        let lost = match missing(&self.fleet, USERS, rows) {
            Ok(lost) => lost,
            // The loss count is a read-back, not an operation of its own.
            Err(_) => {
                self.out.unverified += 1;
                return;
            }
        };
        self.s.lost += lost;
        self.s.loaded += rows.len() as u64;
        if !full {
            let mine = &self.s.recover_s[verified..];
            if mine.len() == SLOTS.len() {
                self.s
                    .cycle_s
                    .push(mine.iter().sum::<f64>() / mine.len() as f64);
            }
            return;
        }
        for set in [USERS, BY_HANDLE] {
            if self.fleet.cluster.drop_dist_set(set).is_err() {
                self.s.drop_errors += 1;
            }
        }
        self.recover(0, false);
    }
}

/// Runs one cycle on a fresh fleet, the `recover-full` sequence when
/// `full`. Its bind is timed from `t0`; `layers` makes it a traced
/// cycle.
#[allow(clippy::too_many_arguments)]
fn cycle(
    root: &Path,
    rows: &[Vec<u8>],
    full: bool,
    t0: Instant,
    spans: &mut Spans,
    out: &mut Outcome,
    s: &mut Samples,
    layers: Option<&mut Layers>,
) -> Result<()> {
    let traced = layers.is_some();
    let fleet = spans.scope("fleet_bind", || {
        Fleet::up(root, POOLS, traced, Detect::Fast)
    })?;
    let bind_s = t0.elapsed().as_secs_f64();
    let mut cycle = Cycle {
        fleet,
        spans: &mut *spans,
        out,
        s: &mut *s,
        layers,
        known: None,
    };
    cycle.run(rows, full, bind_s);
    let fleet = cycle.fleet;
    spans.scope("fleet_shutdown", || fleet.shutdown());
    s.cycles += 1;
    Ok(())
}

pub fn run(run: &Run, full: bool, spans: &mut Spans, out: &mut Outcome) -> Result<()> {
    // Generated once: only the first set-up sample, timed from process
    // start, includes it.
    let rows = crate::gen::user_rows(run.seed);
    let mut s = Samples::default();
    let mut layers = Layers::default();
    // The traced run alternates untraced and traced cycles, so both sides
    // of `obs.tracing_overhead` see the same mix.
    let trace = run.trace;
    while s.cycles == 0 || (trace && s.cycles < 2) || run.t_start.elapsed() < run.budget {
        let traced = trace && s.cycles % 2 == 1;
        let t0 = if s.cycles == 0 {
            run.t_start
        } else {
            Instant::now()
        };
        let layers = traced.then_some(&mut layers);
        cycle(&run.root, &rows, full, t0, spans, out, &mut s, layers)?;
    }
    out.note("cycles", s.cycles.to_string());
    out.note("records_lost_share", format!("{}", s.lost_share()));
    if full {
        out.note("drop_errors", s.drop_errors.to_string());
    }
    if trace {
        layers.untraced_p50 = median(&s.recover_s);
        layers.traced_p50 = median(&s.recover_traced_s);
        out.metrics = layers.metrics();
        return Ok(());
    }
    // Recoveries are this workload's jobs, summarized per cycle.
    let q = tail_q(s.cycle_s.len());
    out.note("job_s.p90_quantile", format!("{q}"));
    out.note("recoveries_verified", s.recover_s.len().to_string());
    out.note("samples.setup_s", crate::json_list(&s.setup_s));
    out.note("samples.load_records_per_s", crate::json_list(&s.load_rps));
    out.note("samples.recover_s", crate::json_list(&s.recover_s));
    out.note("samples.cycle_recover_s", crate::json_list(&s.cycle_s));
    let p50 = s.recover_p50(out);
    out.metrics = vec![
        ("setup_s", median(&s.setup_s), "s"),
        ("job_s.p50", p50, "s"),
        ("job_s.p90", quantile(&s.cycle_s, q), "s"),
        (
            "records_per_s",
            s.restored as f64 / s.attempt_s.iter().sum::<f64>().max(1e-9),
            "rec/s",
        ),
        ("peak_rss_mb", crate::peak_rss_mb(), "MB"),
        ("load_records_per_s", median(&s.load_rps), "rec/s"),
    ];
    Ok(())
}
