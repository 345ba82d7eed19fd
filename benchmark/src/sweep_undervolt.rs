//! `sweep_undervolt`: the paper's characterization sweep through the
//! crash-resumable fabric — [`SHARDS`] `run_shard` threads journaling into
//! a scratch directory, then `merge_summaries` — in whole rounds until the
//! window closes.
//!
//! The grid is [`TASKS`] × [`configs`] × [`TRIALS`] trials in chunks of
//! [`CHUNK`] trial. With one-trial chunks dealt round-robin, each shard
//! gets exactly one trial of every point, so the shards are balanced by
//! construction and the round time follows the work, not the deal.

use crate::harness::parallel_map;
use crate::stats::{median, mix, ns, peak_rss_mb};
use crate::{load_system, print_value, timed_setup, work_dir, Report};
use create_core::engine::derive_seed;
use create_core::engine::ExperimentPoint;
use create_core::prelude::*;
use create_core::stats::SweepAccumulator;
use create_env::TaskId;
use create_sweep::{merge_summaries, run_shard, ChaosMode, Fingerprint, SweepConfig};
use create_tensor::Precision;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Tasks of the grid: their plain-undervolted trials cost about the
/// same per step, and at 0.86 V about half of them still succeed.
const TASKS: [TaskId; 3] = [TaskId::Charcoal, TaskId::Chicken, TaskId::Coal];
/// Trials per grid point and round.
const TRIALS: u32 = 2;
/// Trials per journal chunk.
const CHUNK: u32 = 1;
/// Shard threads.
const SHARDS: u32 = crate::THREADS as u32;
/// Grid points whose merged aggregates are re-tallied from direct
/// `run_trial` calls, per round.
const TALLIED_POINTS: usize = 2;

/// The configurations of the grid: plain undervolting at 0.86 V and
/// 0.84 V, and the full CREATE stack (AD + WR + adaptive VS, policy C) at
/// 0.82 V.
pub fn configs() -> [(&'static str, CreateConfig); 3] {
    [
        ("plain@0.86V", CreateConfig::undervolted(0.86)),
        ("plain@0.84V", CreateConfig::undervolted(0.84)),
        (
            "create@0.82V",
            CreateConfig::undervolted(0.82).with_full_create(EntropyPolicy::preset_c()),
        ),
    ]
}

/// The engine base seed of round `round` of a run.
pub fn round_seed(seed: u64, round: u64) -> u64 {
    mix(seed, 100 + round)
}

/// One grid point as the fabric runs it: a [`GridCell`] whose trials also
/// feed the benchmark's step and per-trial time counters. Trials run
/// exactly as `GridCell::run_batch` runs them, through one
/// `MissionSession` per chunk.
struct CountedCell<'a> {
    cell: GridCell<'a>,
    steps: &'a AtomicU64,
    trial_ns: &'a Mutex<Vec<f64>>,
}

impl ExperimentPoint for CountedCell<'_> {
    type Outcome = MissionOutcome;
    type Acc = SweepAccumulator;

    fn trials(&self) -> u32 {
        self.cell.trials
    }

    fn accumulator(&self) -> SweepAccumulator {
        SweepAccumulator::default()
    }

    fn run_trial(&self, trial: u32, seed: u64) -> MissionOutcome {
        let mut out = Vec::with_capacity(1);
        self.run_batch(trial, &[seed], &mut out);
        out.pop().expect("one outcome per seed")
    }

    fn run_batch(&self, _first_trial: u32, seeds: &[u64], out: &mut Vec<MissionOutcome>) {
        let mut session = MissionSession::new(self.cell.dep);
        for &seed in seeds {
            let t = Instant::now();
            let outcome = session.run(self.cell.task, &self.cell.config, seed);
            let elapsed = ns(t.elapsed());
            self.steps.fetch_add(outcome.steps, Ordering::Relaxed);
            self.trial_ns.lock().expect("trial times").push(elapsed);
            out.push(outcome);
        }
    }
}

/// `(task, config label, config)` of every grid point, in point order.
pub fn grid() -> Vec<(TaskId, &'static str, CreateConfig)> {
    TASKS
        .iter()
        .flat_map(|&task| configs().map(|(label, config)| (task, label, config)))
        .collect()
}

fn fingerprint() -> u64 {
    grid()
        .iter()
        .fold(
            Fingerprint::new()
                .push_u64(u64::from(TRIALS))
                .push_u64(u64::from(CHUNK)),
            |fp, (task, label, _)| fp.push_bytes(format!("{task:?}/{label}").as_bytes()),
        )
        .finish()
}

/// What one round did.
pub struct Round {
    pub base_seed: u64,
    /// Merged per-point summaries, or why the merge failed.
    pub merged: Result<Vec<SweepPoint>, String>,
    pub steps: u64,
    pub trial_ns: Vec<f64>,
    pub shard_ns: Vec<f64>,
    pub merge_ns: f64,
    pub journal_bytes: u64,
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Runs one round of the sweep: every shard on its own thread, journals
/// under a fresh directory, then the merge. The directory is removed
/// afterwards.
pub fn run_round(dep: &Deployment, base_seed: u64, dir: PathBuf) -> Result<Round, String> {
    let steps = AtomicU64::new(0);
    let trial_ns = Mutex::new(Vec::new());
    let points: Vec<CountedCell<'_>> = grid()
        .into_iter()
        .map(|(task, _, config)| CountedCell {
            cell: GridCell {
                dep,
                task,
                config,
                trials: TRIALS,
            },
            steps: &steps,
            trial_ns: &trial_ns,
        })
        .collect();
    let fingerprint = fingerprint();
    let shard_config = |shard: u32| SweepConfig {
        shard_count: SHARDS,
        shard_index: shard,
        chunk_trials: CHUNK,
        base_seed,
        dir: dir.clone(),
        chaos: ChaosMode::Off,
    };
    let shard_ns = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SHARDS)
            .map(|shard| {
                let (points, config) = (&points, shard_config(shard));
                scope.spawn(move || {
                    let t = Instant::now();
                    run_shard(points, &config, fingerprint).map(|_| ns(t.elapsed()))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard thread panicked"))
            .collect::<Result<Vec<f64>, _>>()
    })
    .map_err(|e| format!("shard failed: {e}"))?;

    let trials: Vec<u32> = points.iter().map(ExperimentPoint::trials).collect();
    let t = Instant::now();
    let merged =
        merge_summaries::<MissionOutcome, SweepAccumulator>(&trials, &shard_config(0), fingerprint)
            .map_err(|e| e.to_string());
    let merge_ns = ns(t.elapsed());
    let journal_bytes = dir_bytes(&dir);
    std::fs::remove_dir_all(&dir).map_err(|e| format!("cannot remove {}: {e}", dir.display()))?;
    Ok(Round {
        base_seed,
        merged,
        steps: steps.into_inner(),
        trial_ns: trial_ns.into_inner().expect("trial times"),
        shard_ns,
        merge_ns,
        journal_bytes,
    })
}

/// `(trials, successes, steps of the successful trials)` of a set of
/// outcomes, counted directly.
fn tally(outcomes: &[MissionOutcome]) -> (u32, u32, u64) {
    let successes: Vec<&MissionOutcome> = outcomes.iter().filter(|o| o.success).collect();
    (
        outcomes.len() as u32,
        successes.len() as u32,
        successes.iter().map(|o| o.steps).sum(),
    )
}

/// Checks a merged point against the tally of its trials run directly.
fn check_point(merged: &SweepPoint, tally: (u32, u32, u64)) -> Result<(), String> {
    let (n, successes, steps) = tally;
    let merged_steps = (merged.avg_steps * f64::from(merged.successes)).round() as u64;
    if (merged.n, merged.successes, merged_steps) != (n, successes, steps) {
        return Err(format!(
            "merged (n, successes, steps) = ({}, {}, {merged_steps}) but the direct tally is \
             ({n}, {successes}, {steps})",
            merged.n, merged.successes
        ));
    }
    Ok(())
}

/// Failed trials of a round: all of them when the merge failed, the
/// trials a point lacks or counts twice, and every trial of a re-tallied
/// point that does not match its tally.
fn failed_trials(dep: &Deployment, round: &Round, tallied: &[usize]) -> u64 {
    let points = match &round.merged {
        Ok(points) => points,
        Err(e) => {
            eprintln!("[sweep_undervolt] merge failed: {e}");
            return grid().len() as u64 * u64::from(TRIALS);
        }
    };
    let mut failed: u64 = points
        .iter()
        .map(|p| u64::from(p.n.abs_diff(TRIALS).min(TRIALS)))
        .sum();
    let grid = grid();
    let tallies = parallel_map(tallied, |&point| {
        let (task, _, config) = &grid[point];
        let outcomes: Vec<MissionOutcome> = (0..TRIALS)
            .map(|trial| {
                run_trial(
                    dep,
                    *task,
                    config,
                    derive_seed(round.base_seed, point, trial),
                )
            })
            .collect();
        tally(&outcomes)
    });
    for (&point, t) in tallied.iter().zip(tallies) {
        if let Err(e) = check_point(&points[point], t) {
            eprintln!("[sweep_undervolt] point {point}: {e}");
            failed += u64::from(TRIALS);
        }
    }
    failed
}

/// Grid points re-tallied after round `round`: spread over the grid by
/// the run seed, different from round to round.
fn tallied_points(seed: u64, round: u64) -> Vec<usize> {
    let n = grid().len();
    let first = (mix(seed, 300 + round) % n as u64) as usize;
    (0..TALLIED_POINTS)
        .map(|k| (first + k * n / TALLIED_POINTS) % n)
        .collect()
}

pub fn run(seed: u64, window: Duration) -> Result<Report, String> {
    let (dep, setup_s) = timed_setup(|| Ok(Deployment::new(&load_system()?, Precision::Int8)))?;

    let start = Instant::now();
    let mut rounds = Vec::new();
    while start.elapsed() < window {
        let r = rounds.len() as u64;
        rounds.push(run_round(
            &dep,
            round_seed(seed, r),
            work_dir().join(format!("round-{r}")),
        )?);
    }
    let elapsed = start.elapsed().as_secs_f64();
    let peak_rss = peak_rss_mb()?;

    let attempted = rounds.len() as u64 * grid().len() as u64 * u64::from(TRIALS);
    let failed: u64 = rounds
        .iter()
        .enumerate()
        .map(|(r, round)| failed_trials(&dep, round, &tallied_points(seed, r as u64)))
        .sum();
    let steps: u64 = rounds.iter().map(|r| r.steps).sum();
    let trial_ms: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.trial_ns.iter().map(|t| t / 1e6))
        .collect();
    let ok = (attempted - failed) as f64;

    println!(
        "sweep_undervolt: {} round(s) of {} points x {TRIALS} trials on {SHARDS} shards in {elapsed:.3} s",
        rounds.len(),
        grid().len()
    );
    print_value("trials_per_s", ok / elapsed, "1/s");
    print_value("steps_per_s", steps as f64 / elapsed, "1/s");

    let mut report = Report {
        correct: true,
        attempted,
        failed,
        metrics: Vec::new(),
    };
    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mb", peak_rss, "MB");
    report.metric("ops_per_s", ok / elapsed, "1/s");
    report.metric("work_per_s", steps as f64 / elapsed, "1/s");
    report.metric("op_latency_p50_ms", median(&trial_ms), "ms");
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use create_accel::energy::EnergyMeter;
    use create_core::engine::Accumulator;

    fn outcome(success: bool, steps: u64) -> MissionOutcome {
        MissionOutcome {
            success,
            steps,
            plans: 1,
            meter: EnergyMeter::new(),
            ldo_switches: 0,
            entropy_trace: Vec::new(),
            predicted_trace: Vec::new(),
            voltage_trace: Vec::new(),
            ad: Default::default(),
            scheme_events: Default::default(),
            entropy_spikes: 0,
        }
    }

    fn merged(outcomes: &[MissionOutcome]) -> SweepPoint {
        let mut acc = SweepAccumulator::default();
        for o in outcomes {
            acc.push(o.clone());
        }
        acc.finish()
    }

    #[test]
    fn a_dropped_or_altered_trial_fails_the_tally_check() {
        let trials = vec![outcome(true, 120), outcome(false, 3000), outcome(true, 75)];
        let point = merged(&trials);
        assert!(check_point(&point, tally(&trials)).is_ok());

        let dropped = merged(&trials[..2]);
        assert!(check_point(&dropped, tally(&trials)).is_err());

        let mut altered = trials.clone();
        altered[2].steps = 76;
        assert!(check_point(&merged(&altered), tally(&trials)).is_err());
        altered[2] = outcome(false, 75);
        assert!(check_point(&merged(&altered), tally(&trials)).is_err());
    }

    #[test]
    fn one_trial_chunks_give_each_shard_one_trial_of_every_point() {
        let trials = vec![TRIALS; grid().len()];
        let chunks = create_sweep::chunks(&trials, CHUNK);
        for shard in 0..SHARDS {
            let mut points: Vec<usize> = chunks
                .iter()
                .filter(|c| c.index as u32 % SHARDS == shard)
                .map(|c| c.point)
                .collect();
            points.dedup();
            assert_eq!(points, (0..grid().len()).collect::<Vec<_>>());
        }
    }
}
