//! The three job workloads. One client thread runs one job at a time
//! (closed loop, a single analyst) against a corpus loaded once per
//! fleet, and checks every job's output against a reference computed
//! from the corpus.
//!
//! * `shuffle` — map-only `MapSpec::tokenize` over the zipf corpus,
//!   hashed to 6 partitions, 8 MB / 64 KB-page pools. It exists for the
//!   `net` layer: every token crosses the wire (160K records as ~420
//!   `IngestAppend`s per job) while the pools stay roomy.
//! * `combine` — a per-token count (`map_reduce`) over the same corpus
//!   and pools. It exists for the `core` fold: 160K tokens combine into
//!   ~1K keys per mapper before shipping, so it is also the bypass case
//!   for any `net` change.
//! * `reduce-paged` — the same count over the unique-heavy corpus (80K
//!   distinct tokens) on 64 KB / 4 KB-page pools, the accumulators many
//!   times the pool. It exists for `storage`/`paging`; at the seed state
//!   most attempts fail with pool pin exhaustion, and the failure share
//!   is the baseline.
//!
//! The timed run goes in rounds. Each brings up and loads a fresh
//! fleet (`setup_s`, `load_records_per_s`), then runs jobs on it for a
//! fixed slice. `job_s.p90` is the median over the slices of each
//! slice's tail.

use crate::fleet::{Detect, Dump, Fleet, Pools};
use crate::gen::{self, Digest};
use crate::layers::{skew, Layers};
use crate::spans::Spans;
use crate::stats::{median, quantile};
use crate::{Outcome, Run};
use pangea_cluster::engine::MapShuffleReport;
use pangea_cluster::PartitionScheme;
use pangea_common::{PangeaError, Result, KB, MB};
use pangea_net::{KeySpec, MapSpec, ReduceSpec};
use pangea_obs::names;
use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

const OUTPUT: &str = "out";
const PARTITIONS: u32 = 6;
/// Independent corpora per run, loaded side by side and used by turns.
/// How a corpus's head words hash onto nodes moves a job's time, so one
/// run averages over several draws instead of betting on one.
const CORPORA: u64 = 4;
/// Fresh fleets a set-up may try before the run gives up: a load that
/// fails or hangs is counted and the set-up starts over.
const SETUP_TRIES: u32 = 3;
/// How long each round of the timed run runs jobs on its fleet.
const JOB_SLICE: Duration = Duration::from_millis(3000);

#[derive(Clone, Copy)]
pub enum Job {
    Shuffle,
    Combine,
    ReducePaged,
}

impl Job {
    fn pools(self) -> Pools {
        match self {
            Job::Shuffle | Job::Combine => Pools {
                capacity: 8 * MB,
                page: 64 * KB,
            },
            Job::ReducePaged => Pools {
                capacity: 64 * KB,
                page: 4 * KB,
            },
        }
    }

    fn corpus(self, seed: u64, variant: u64) -> Vec<Vec<u8>> {
        match self {
            Job::Shuffle | Job::Combine => gen::zipf_corpus(seed, variant),
            Job::ReducePaged => gen::unique_heavy_corpus(seed, variant),
        }
    }

    fn api(self) -> &'static str {
        match self {
            Job::Shuffle => "map_shuffle",
            Job::Combine | Job::ReducePaged => "map_reduce",
        }
    }

    /// The output the job must materialize, as a multiset digest.
    fn expected(self, corpus: &[Vec<u8>]) -> Digest {
        match self {
            Job::Shuffle => Digest::of(gen::tokens(corpus)),
            Job::Combine | Job::ReducePaged => {
                let counts = gen::word_count_records(corpus);
                Digest::of(counts.iter().map(Vec::as_slice))
            }
        }
    }

    fn run(self, fleet: &Fleet, input: &str) -> Result<MapShuffleReport> {
        let map = MapSpec::tokenize(b' ');
        match self {
            Job::Shuffle => fleet.cluster.map_shuffle(
                input,
                OUTPUT,
                &map,
                PartitionScheme::hash_whole("word", PARTITIONS),
            ),
            Job::Combine | Job::ReducePaged => fleet.cluster.map_reduce(
                input,
                OUTPUT,
                &map,
                &ReduceSpec::count(KeySpec::WholeRecord, b'|'),
                PartitionScheme::hash_field("word", PARTITIONS, b'|', 0),
            ),
        }
    }
}

/// One loaded input and its reference.
struct Corpus {
    set: String,
    lines: Vec<Vec<u8>>,
    bytes: u64,
    tokens: u64,
    expected: Digest,
}

/// Digest of a cataloged set's records, read back through `RemoteCluster`.
pub fn set_digest(fleet: &Fleet, name: &str) -> Result<Digest> {
    let set = fleet
        .cluster
        .get_dist_set(name)?
        .ok_or_else(|| pangea_common::PangeaError::usage(format!("set '{name}' is missing")))?;
    let mut d = Digest::default();
    set.for_each_record(|_, rec| d.add(rec))?;
    Ok(d)
}

/// Records of `expected` missing from set `name` (multiset difference).
pub fn missing(fleet: &Fleet, name: &str, expected: &[Vec<u8>]) -> Result<u64> {
    let mut want: HashMap<&[u8], i64> = HashMap::new();
    for r in expected {
        *want.entry(r.as_slice()).or_insert(0) += 1;
    }
    if let Some(set) = fleet.cluster.get_dist_set(name)? {
        set.for_each_record(|_, rec| {
            if let Some(n) = want.get_mut(rec) {
                *n -= 1;
            }
        })?;
    }
    Ok(want.values().map(|&n| n.max(0) as u64).sum())
}

/// Loads `rows` into a new set through the batched loader, one span per
/// `dispatch` and one around `finish`. Returns the load's wall seconds.
pub fn load(
    fleet: &Fleet,
    spans: &mut Spans,
    name: &str,
    scheme: PartitionScheme,
    rows: &[Vec<u8>],
) -> Result<f64> {
    let t = Instant::now();
    spans.begin("load");
    let result = (|| {
        let set = fleet.cluster.create_dist_set(name, scheme)?;
        let mut d = set.loader()?;
        for row in rows {
            spans.begin("dispatch");
            let r = d.dispatch(row);
            spans.end();
            r?;
        }
        spans.scope("finish", || d.finish())
    })();
    spans.end();
    result.map(|()| t.elapsed().as_secs_f64())
}

/// Max ÷ mean of the records per node of set `name`.
pub fn placement_skew(fleet: &Fleet, name: &str) -> Result<f64> {
    let set = fleet
        .cluster
        .get_dist_set(name)?
        .ok_or_else(|| PangeaError::usage(format!("set '{name}' is missing")))?;
    Ok(skew(&set.records_per_node()?))
}

/// Per-run state shared by the timed and traced phases.
struct Bench<'a> {
    job: Job,
    root: &'a Path,
    spans: &'a mut Spans,
    out: &'a mut Outcome,
    corpora: Vec<Corpus>,
}

/// One phase's job samples.
#[derive(Default)]
struct Phase {
    ok_wall_s: Vec<f64>,
    /// The same samples split by corpus.
    by_corpus: Vec<Vec<f64>>,
    all_wall_s: f64,
    ok_records: u64,
    attempts: u64,
    failed: u64,
}

impl<'a> Bench<'a> {
    /// Generates the corpora; the program receives only their lines.
    fn new(job: Job, run: &'a Run, spans: &'a mut Spans, out: &'a mut Outcome) -> Self {
        let corpora = (0..CORPORA)
            .map(|v| {
                let lines = job.corpus(run.seed, v);
                Corpus {
                    set: format!("docs{v}"),
                    bytes: lines.iter().map(|l| l.len() as u64).sum(),
                    lines,
                    tokens: 0,
                    expected: Digest::default(),
                }
            })
            .collect();
        Bench {
            job,
            root: &run.root,
            spans,
            out,
            corpora,
        }
    }

    /// Fills in each corpus's reference output (benchmark work, kept out
    /// of the set-up time).
    fn references(&mut self) {
        for c in &mut self.corpora {
            c.expected = self.job.expected(&c.lines);
            c.tokens = gen::tokens(&c.lines).count() as u64;
        }
    }

    /// Brings up a fleet and loads every corpus into it, each load one
    /// operation under the watchdog. A load that fails or hangs is
    /// counted and the set-up starts over on a fresh fleet. Returns the
    /// fleet and each load's records per second.
    fn setup(
        &mut self,
        traced: bool,
        mut layers: Option<&mut Layers>,
    ) -> Result<(Fleet, Vec<f64>)> {
        for _ in 0..SETUP_TRIES {
            let mut fleet = self.spans.scope("fleet_bind", || {
                Fleet::up(self.root, self.job.pools(), traced, Detect::Default)
            })?;
            match self.load_all(&mut fleet, layers.as_deref_mut()) {
                Some(rates) => return Ok((fleet, rates)),
                None => self.shutdown(fleet),
            }
        }
        Err(PangeaError::Remote(format!(
            "no fleet loaded the corpora in {SETUP_TRIES} tries"
        )))
    }

    /// Loads each corpus; `None` after the first load that failed or hung.
    fn load_all(&mut self, fleet: &mut Fleet, mut layers: Option<&mut Layers>) -> Option<Vec<f64>> {
        let mut rates = Vec::new();
        for c in &self.corpora {
            self.out.attempted += 1;
            fleet.arm();
            let before = layers.is_some().then(|| fleet.dump());
            let loaded = load(
                fleet,
                self.spans,
                &c.set,
                PartitionScheme::round_robin(PARTITIONS),
                &c.lines,
            );
            let observed = match (layers.as_deref_mut(), before) {
                (Some(layers), Some(before)) if loaded.is_ok() => (|| -> Result<()> {
                    layers.load(&fleet.dump()?.since(&before?), c.bytes);
                    layers.placement_skew.push(placement_skew(fleet, &c.set)?);
                    Ok(())
                })(),
                _ => Ok(()),
            };
            if fleet.disarm() {
                self.out.hung();
                return None;
            }
            match (loaded, observed) {
                (Err(e), _) => {
                    self.out.error(&e);
                    return None;
                }
                (Ok(_), Err(e)) => {
                    self.out.unreadable(&e);
                    return None;
                }
                (Ok(secs), Ok(())) => rates.push(c.lines.len() as f64 / secs),
            }
        }
        Some(rates)
    }

    fn shutdown(&mut self, fleet: Fleet) {
        self.spans.scope("fleet_shutdown", || fleet.shutdown());
    }

    /// Replaces a fleet the watchdog broke with a freshly loaded one.
    fn rebuild(&mut self, fleet: &mut Fleet, traced: bool) -> Result<()> {
        let (fresh, _) = self.setup(traced, None)?;
        let broken = std::mem::replace(fleet, fresh);
        self.shutdown(broken);
        Ok(())
    }

    /// Runs jobs, cycling through the corpora, until `until`.
    /// With `layers`, every attempt is bracketed by fleet dumps and its
    /// span tree is fetched.
    fn jobs(
        &mut self,
        fleet: &mut Fleet,
        until: Instant,
        mut layers: Option<&mut Layers>,
        phase: &mut Phase,
    ) -> Result<()> {
        while Instant::now() < until {
            let turn = phase.attempts as usize % self.corpora.len();
            let c = &self.corpora[turn];
            let ledger = fleet.cluster.workers().stats().snapshot();
            fleet.arm();
            let before = layers.is_some().then(|| fleet.dump());
            self.spans.begin(self.job.api());
            let t = Instant::now();
            let result = self.job.run(fleet, &c.set);
            let wall = t.elapsed().as_secs_f64();
            self.spans.end();
            let client_payload = fleet
                .cluster
                .workers()
                .stats()
                .snapshot()
                .delta_since(&ledger)
                .net_bytes;
            // The after-dump precedes the output check, whose reads are
            // the benchmark's own work.
            let delta = before.map(|before| -> Result<(Dump, Dump)> {
                let after = fleet.dump()?;
                Ok((after.since(&before?), after))
            });
            let checked = match &result {
                Ok(_) if client_payload == 0 => Some(set_digest(fleet, OUTPUT)),
                _ => None,
            };
            let hung = fleet.disarm();
            phase.attempts += 1;
            phase.all_wall_s += wall;
            self.out.attempted += 1;
            if hung {
                phase.failed += 1;
                self.out.hung();
                self.rebuild(fleet, layers.is_some())?;
                continue;
            }
            let mut ok = match (&result, checked) {
                (Err(e), _) => {
                    self.out.error(e);
                    false
                }
                (Ok(_), None) => {
                    self.out
                        .fail(format!("the client moved {client_payload} payload bytes"));
                    false
                }
                (Ok(_), Some(Ok(d))) if d == c.expected => true,
                (Ok(_), Some(Ok(d))) => {
                    self.out.fail(format!(
                        "wrong output: {} records, expected {}",
                        d.count, c.expected.count
                    ));
                    false
                }
                (Ok(_), Some(Err(e))) => {
                    self.out.unreadable(&e);
                    false
                }
            };
            if let (Some(layers), Some(delta)) = (layers.as_deref_mut(), delta) {
                let report = result.as_ref().ok().filter(|_| ok);
                if let Err(e) = observe(layers, fleet, delta, report, c, wall) {
                    if ok {
                        self.out.unreadable(&e);
                        ok = false;
                    }
                }
            }
            if !ok {
                phase.failed += 1;
                continue;
            }
            phase.ok_wall_s.push(wall);
            phase.by_corpus.resize(self.corpora.len(), Vec::new());
            phase.by_corpus[turn].push(wall);
            phase.ok_records += result.as_ref().map_or(0, |r| r.scanned);
        }
        Ok(())
    }

    /// One untimed job per corpus, so lazy set-up is done before timing.
    /// A hung warm-up job gets a fresh fleet, like a hung timed one.
    fn warm_up(&mut self, fleet: &mut Fleet, traced: bool) -> Result<()> {
        for turn in 0..self.corpora.len() {
            fleet.arm();
            let _ = self.job.run(fleet, &self.corpora[turn].set);
            if fleet.disarm() {
                self.rebuild(fleet, traced)?;
            }
        }
        Ok(())
    }
}

/// Folds one traced job into the layer sums and fetches its span tree;
/// `report` is set when the job succeeded.
fn observe(
    layers: &mut Layers,
    fleet: &Fleet,
    delta: Result<(Dump, Dump)>,
    report: Option<&MapShuffleReport>,
    c: &Corpus,
    wall: f64,
) -> Result<()> {
    let (delta, after) = delta?;
    if let Some(report) = report {
        layers.wire_bytes += delta.counter(&names::rpc_bytes("IngestAppend"));
        layers.payload_bytes += report
            .tasks
            .iter()
            .map(|(_, t)| t.emitted_bytes)
            .sum::<u64>();
        layers.emitted += report.tasks.iter().map(|(_, t)| t.emitted).sum::<u64>();
        layers.mapped += c.tokens;
    }
    layers.input_bytes += c.bytes;
    layers.op(&delta, &after, report.is_none());
    if let Some(job) = fleet.cluster.workers().last_job() {
        fleet.await_scrape();
        let (tree, dropped) =
            pangea_coord::trace::fetch(&fleet.mgr_addr, Some(fleet.secret()), job)?;
        if report.is_some() {
            layers.job_tree(&tree, wall, dropped);
        }
    }
    Ok(())
}

pub fn run(job: Job, run: &Run, spans: &mut Spans, out: &mut Outcome) -> Result<()> {
    let mut b = Bench::new(job, run, spans, out);
    if run.trace {
        return run_traced(&mut b, run.budget);
    }
    let mut setup_s = Vec::new();
    let mut load_rps = Vec::new();
    let mut phase = Phase::default();
    let mut slice_p90 = Vec::new();
    // Rounds until the budget is spent: a fresh fleet (its set-up timed,
    // the first from process start), then a job slice on it. Set-ups and
    // jobs are spread over the whole run, so a slow spell of the host
    // moves a few samples of each rather than all samples of one.
    while setup_s.is_empty() || run.t_start.elapsed() < run.budget {
        let t0 = if setup_s.is_empty() {
            run.t_start
        } else {
            Instant::now()
        };
        let (mut fleet, rates) = b.setup(false, None)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        load_rps.extend(rates);
        if setup_s.len() == 1 {
            b.references();
        }
        b.warm_up(&mut fleet, false)?;
        let first = phase.ok_wall_s.len();
        b.jobs(&mut fleet, Instant::now() + JOB_SLICE, None, &mut phase)?;
        let slice = &phase.ok_wall_s[first..];
        if !slice.is_empty() {
            slice_p90.push(quantile(slice, 0.9));
        }
        b.shutdown(fleet);
    }

    let out = &mut *b.out;
    out.note("jobs_ok", phase.ok_wall_s.len().to_string());
    out.note("jobs_attempted", phase.attempts.to_string());
    out.note("jobs_failed", phase.failed.to_string());
    out.note("rounds", setup_s.len().to_string());
    let by_corpus: Vec<f64> = phase.by_corpus.iter().map(|v| median(v)).collect();
    out.note("job_s.p50_by_corpus", crate::json_list(&by_corpus));
    out.note("samples.setup_s", crate::json_list(&setup_s));
    out.note("samples.job_s.p90_by_slice", crate::json_list(&slice_p90));
    out.note("samples.load_records_per_s", crate::json_list(&load_rps));
    out.metrics = vec![
        ("setup_s", median(&setup_s), "s"),
        ("job_s.p50", median(&phase.ok_wall_s), "s"),
        ("job_s.p90", median(&slice_p90), "s"),
        (
            "records_per_s",
            phase.ok_records as f64 / phase.all_wall_s.max(1e-9),
            "rec/s",
        ),
        ("peak_rss_mb", crate::peak_rss_mb(), "MB"),
        ("load_records_per_s", median(&load_rps), "rec/s"),
    ];
    Ok(())
}

/// The traced run: an untraced phase for the overhead baseline, then a
/// traced fleet (manager scrape loop on, dumps around every job, span
/// trees fetched) that yields the per-layer metrics.
fn run_traced(b: &mut Bench, budget: Duration) -> Result<()> {
    let mut layers = Layers::default();
    let (mut fleet, _) = b.setup(false, None)?;
    b.references();
    b.warm_up(&mut fleet, false)?;
    let mut untraced = Phase::default();
    b.jobs(
        &mut fleet,
        Instant::now() + budget * 2 / 5,
        None,
        &mut untraced,
    )?;
    b.shutdown(fleet);

    let (mut fleet, _) = b.setup(true, Some(&mut layers))?;
    b.warm_up(&mut fleet, true)?;
    let mut traced = Phase::default();
    let until = Instant::now() + budget * 3 / 5;
    b.jobs(&mut fleet, until, Some(&mut layers), &mut traced)?;
    b.shutdown(fleet);

    layers.untraced_p50 = median(&untraced.ok_wall_s);
    layers.traced_p50 = median(&traced.ok_wall_s);
    b.out.metrics = layers.metrics();
    Ok(())
}
