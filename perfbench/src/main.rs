//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <shuffle|combine|reduce-paged|recover|recover-full> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Each run brings up an in-process loopback fleet (one manager, three
//! workers), drives it through the public `coord`/`net` API from one
//! thread, checks every operation's output, and prints one JSON object
//! as the last line of standard output: `correct`, `attempted`,
//! `failed`, and the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). The line before it carries the run metadata.
//! A fuller result, and with `--trace 1` the benchmark-side spans, are
//! written under `.perfbench_out/` in the working directory; fleet data
//! lives under `.perfbench_data/` and is removed at exit.

mod fleet;
mod gen;
mod jobs;
mod layers;
mod recover;
mod spans;
mod stats;

use pangea_common::PangeaError;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// What one run was asked to do.
pub struct Run {
    pub seed: u64,
    pub budget: Duration,
    pub trace: bool,
    /// Process start: the first set-up is timed from here.
    pub t_start: Instant,
    /// Where this run's fleets keep their data.
    pub root: PathBuf,
}

/// One run's accounting and results.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Operations whose output could not be read back for checking.
    pub unverified: u64,
    failures: BTreeMap<String, u64>,
    notes: Vec<(String, String)>,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// Counts one failed operation under a failure class.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        *self.failures.entry(why).or_insert(0) += 1;
    }

    /// Counts one failed operation under the class of its error.
    pub fn error(&mut self, e: &PangeaError) {
        self.fail(failure_class(&e.to_string()));
    }

    /// Counts one failed operation whose output could not be read back
    /// to be checked; the run's `correct` turns false.
    pub fn unreadable(&mut self, e: &PangeaError) {
        self.unverified += 1;
        self.fail(format!("verify: {}", failure_class(&e.to_string())));
    }

    /// Counts one operation the watchdog broke.
    pub fn hung(&mut self) {
        self.fail(format!(
            "hung past {}s; fleet rebuilt",
            fleet::OP_TIMEOUT.as_secs()
        ));
    }

    /// Adds a metadata entry; `json` is already a JSON value.
    pub fn note(&mut self, key: &str, json: String) {
        self.notes.push((key.to_string(), json));
    }

    fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(*v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.unverified == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A short, digit-free failure class for the run notes.
fn failure_class(msg: &str) -> String {
    msg.chars()
        .map(|c| if c.is_ascii_digit() { '#' } else { c })
        .take(120)
        .collect()
}

/// A JSON number with all its digits (non-finite values become 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// A JSON array of numbers.
pub fn json_list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| num(*v)).collect();
    format!("[{}]", items.join(", "))
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", pangea_obs::json_escape(s))
}

/// The machine's CPU time so far, from the first line of `/proc/stat`:
/// (stolen by the hypervisor, total), in clock ticks.
fn cpu_ticks() -> (u64, u64) {
    let fields: Vec<u64> = std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next().map(str::to_string))
        .map(|l| {
            l.split_whitespace()
                .skip(1)
                .filter_map(|v| v.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// The process's user and system CPU seconds so far, fleet included
/// (clock ticks of `USER_HZ`, which is 100 on Linux).
fn process_cpu_s() -> f64 {
    let ticks: u64 = std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            let after = s.rsplit_once(')')?.1.to_string();
            let f: Vec<&str> = after.split_whitespace().collect();
            Some(f.get(11)?.parse::<u64>().ok()? + f.get(12)?.parse::<u64>().ok()?)
        })
        .unwrap_or(0);
    ticks as f64 / 100.0
}

/// The process's peak resident set (`VmHWM`), fleet included, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .cloned()
            .ok_or_else(|| format!("missing {flag}"))
    };
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?
            .parse()
            .map_err(|_| format!("{flag} takes a whole number"))
    };
    let trace = match get("--trace").unwrap_or_else(|_| "0".into()).as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    Ok(Args {
        workload: get("--workload")?,
        seed: num("--seed")?,
        seconds: num("--seconds")?,
        trace,
    })
}

fn main() -> ExitCode {
    let t_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <shuffle|combine|reduce-paged|recover|recover-full> \
                 --seed <n> --seconds <s> [--trace <0|1>]"
            );
            return ExitCode::from(2);
        }
    };
    let ticks_at_start = cpu_ticks();
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let run = Run {
        seed: args.seed,
        budget: Duration::from_secs(args.seconds),
        trace: args.trace,
        t_start,
        root: cwd
            .join(".perfbench_data")
            .join(format!("{}-{}", args.workload, std::process::id())),
    };
    let out_dir = cwd.join(".perfbench_out");
    let mut spans = spans::Spans::new(args.trace, t_start);
    let mut out = Outcome::default();
    let ran = match args.workload.as_str() {
        "shuffle" => jobs::run(jobs::Job::Shuffle, &run, &mut spans, &mut out),
        "combine" => jobs::run(jobs::Job::Combine, &run, &mut spans, &mut out),
        "reduce-paged" => jobs::run(jobs::Job::ReducePaged, &run, &mut spans, &mut out),
        "recover" => recover::run(&run, false, &mut spans, &mut out),
        "recover-full" => recover::run(&run, true, &mut spans, &mut out),
        other => {
            eprintln!("perfbench: unknown workload '{other}'");
            return ExitCode::from(2);
        }
    };
    let _ = std::fs::remove_dir_all(&run.root);
    let _ = std::fs::remove_dir(cwd.join(".perfbench_data"));
    if let Err(e) = ran {
        eprintln!("perfbench: {} run aborted: {e}", args.workload);
        return ExitCode::FAILURE;
    }

    let failures: Vec<String> = out
        .failures
        .iter()
        .map(|(why, n)| format!("{}: {n}", json_str(why)))
        .collect();
    let mut meta = vec![
        ("workload".to_string(), json_str(&args.workload)),
        ("seed".into(), args.seed.to_string()),
        ("seconds".into(), args.seconds.to_string()),
        ("trace".into(), (args.trace as u8).to_string()),
        (
            "nproc".into(),
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("cpu_model".into(), json_str(&cpu_model())),
        (
            "rustc".into(),
            json_str(&command_line("rustc", &["--version"])),
        ),
        (
            "git_commit".into(),
            json_str(&command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("ops_attempted".into(), out.attempted.to_string()),
        ("ops_failed".into(), out.failed.to_string()),
        ("ops_unverified".into(), out.unverified.to_string()),
        ("failures".into(), format!("{{{}}}", failures.join(", "))),
        ("spans_recorded".into(), spans.len().to_string()),
    ];
    // How busy the run kept the process, and how much of the machine's
    // CPU time the hypervisor took meanwhile: runs made while the host
    // is contended read slow on every metric at once.
    let ticks_at_end = cpu_ticks();
    let wall = t_start.elapsed().as_secs_f64();
    meta.push(("process_cpu_per_wall_s".into(), num(process_cpu_s() / wall)));
    meta.push((
        "host_steal_share".into(),
        num(stats::ratio(
            ticks_at_end.0.saturating_sub(ticks_at_start.0) as f64,
            ticks_at_end.1.saturating_sub(ticks_at_start.1) as f64,
        )),
    ));
    meta.extend(out.notes.iter().cloned());
    let meta = format!(
        "{{{}}}",
        meta.iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let line = out.result_line();
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload, args.seed, args.trace as u8
    );
    if std::fs::create_dir_all(&out_dir).is_ok() {
        let _ = std::fs::write(
            out_dir.join(format!("{stem}.json")),
            format!("{{\"meta\": {meta}, \"result\": {line}}}\n"),
        );
        if args.trace {
            let _ = spans.write(&out_dir.join(format!("{stem}-spans.jsonl")));
        }
    }
    println!("{{\"meta\": {meta}}}");
    println!("{line}");
    ExitCode::SUCCESS
}
