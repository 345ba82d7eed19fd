//! End-to-end and per-layer benchmark of the CREATE reproduction.
//!
//! ```text
//! create-repo-bench --workload <serve_golden|sweep_undervolt|train_agents>
//!                   --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the workload for `--seconds`, checks its outputs and
//! prints the end-to-end metrics; `--trace 1` runs the traced per-layer
//! breakdown instead. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. See README.md.

mod harness;
mod serve_golden;
mod stats;
mod sweep_undervolt;
mod trace;
mod train_agents;

use create_agents::AgentSystem;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, SystemTime};

/// Threads of each kind (client, worker, shard, trainer) a workload
/// starts: fixed here, never read from the host, so runs on different
/// machines do the same work.
pub const THREADS: usize = 2;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// One reported metric.
#[derive(Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run hands back: operation accounting, the verdict of its
/// output checks, and its metrics.
#[derive(Debug)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeGolden,
    SweepUndervolt,
    TrainAgents,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "serve_golden" => Some(Self::ServeGolden),
            "sweep_undervolt" => Some(Self::SweepUndervolt),
            "train_agents" => Some(Self::TrainAgents),
            _ => None,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

/// The argument of the child process that fills the model cache.
const FILL_CACHE: &str = "--fill-cache";

const USAGE: &str =
    "usage: create-repo-bench --workload <serve_golden|sweep_undervolt|train_agents> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => match value.parse() {
                Ok(s) if s > 0 => seconds = Some(s),
                _ => {
                    return Err(format!(
                        "--seconds must be a positive integer, got {value:?}"
                    ))
                }
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
            },
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The benchmark's own model cache, filled once by the first run.
fn cache_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/cache"))
}

/// Scratch space for sweep journals; emptied when a run ends.
pub fn work_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/work")).join(std::process::id().to_string())
}

/// Pins the program's environment knobs: every `CREATE_*` variable is
/// cleared so the host cannot change the work, then the cache and the
/// thread count are set.
fn pin_environment() {
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("CREATE_") {
            std::env::remove_var(key);
        }
    }
    std::env::set_var("CREATE_CACHE_DIR", cache_dir());
    std::env::set_var("CREATE_THREADS", THREADS.to_string());
}

/// The trained JARVIS bundle files `AgentSystem::jarvis` reads.
fn cache_files() -> Vec<PathBuf> {
    ["planner", "controller", "predictor"]
        .iter()
        .map(|kind| cache_dir().join(format!("{kind}_jarvis1_v4.bin")))
        .collect()
}

fn cache_state() -> Vec<Option<(u64, SystemTime)>> {
    cache_files()
        .iter()
        .map(|p| {
            let meta = std::fs::metadata(p).ok()?;
            Some((meta.len(), meta.modified().ok()?))
        })
        .collect()
}

/// Trains and caches the JARVIS agents unless the cache already holds
/// them (about 90 s on two cores, once per checkout). Training runs in a
/// child process (`--fill-cache`) so its memory stays out of this
/// process's `peak_rss_mb`.
fn fill_cache() -> Result<(), String> {
    if cache_state().iter().all(Option::is_some) {
        return Ok(());
    }
    eprintln!(
        "[bench] training the JARVIS agents into {}",
        cache_dir().display()
    );
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this program: {e}"))?;
    let status = std::process::Command::new(exe)
        .arg(FILL_CACHE)
        .status()
        .map_err(|e| format!("cannot start the training process: {e}"))?;
    if !status.success() || cache_state().iter().any(Option::is_none) {
        return Err(format!("training the model cache failed ({status})"));
    }
    Ok(())
}

/// Loads the JARVIS agents and fails unless they came from the cache:
/// a miss would retrain and put ~90 s of training into `setup_s`.
pub fn load_system() -> Result<AgentSystem, String> {
    let before = cache_state();
    let system = AgentSystem::jarvis();
    let after = cache_state();
    if before.iter().any(Option::is_none) || before != after {
        return Err(format!(
            "model cache miss in {}: the agents were retrained during a timed run",
            cache_dir().display()
        ));
    }
    Ok(system)
}

/// Runs `setup` [`SETUP_REPS`] times, keeping the last result; returns it
/// with the median set-up time in seconds.
pub fn timed_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut secs = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t = std::time::Instant::now();
        last = Some(setup()?);
        secs.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("SETUP_REPS > 0"), stats::median(&secs)))
}

/// Prints one named value as every metric line is printed.
pub fn print_value(name: &str, value: f64, unit: &str) {
    println!("{name:<34} {value:>14.4} {unit}");
}

fn json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn run(args: &Args) -> Result<Report, String> {
    pin_environment();
    fill_cache()?;
    let window = Duration::from_secs(args.seconds);
    let report = if args.trace {
        trace::run(args.workload, args.seed)?
    } else {
        match args.workload {
            Workload::ServeGolden => serve_golden::run(args.seed, window)?,
            Workload::SweepUndervolt => sweep_undervolt::run(args.seed, window)?,
            Workload::TrainAgents => train_agents::run(args.seed, window)?,
        }
    };
    if let Some(m) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not finite ({})", m.name, m.value));
    }
    Ok(report)
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some(FILL_CACHE) {
        pin_environment();
        let _ = AgentSystem::jarvis();
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = run(&args);
    let _ = std::fs::remove_dir_all(work_dir());
    if let Some(parent) = work_dir().parent() {
        let _ = std::fs::remove_dir(parent);
    }
    match result {
        Ok(report) => {
            for m in &report.metrics {
                print_value(m.name, m.value, m.unit);
            }
            println!(
                "operations: {} attempted, {} failed; outputs {}",
                report.attempted,
                report.failed,
                if report.correct {
                    "correct"
                } else {
                    "INCORRECT"
                }
            );
            println!("{}", json(&report));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("[bench] error: {e}");
            ExitCode::FAILURE
        }
    }
}
