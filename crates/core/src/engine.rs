//! The parallel experiment engine: one worker pool for every sweep.
//!
//! Every CREATE experiment has the same shape — a *grid* of experiment
//! points (a task × config × voltage × BER … cell), each of which runs `n`
//! independent trials and aggregates them. This module owns that shape
//! once, so `stats`, `memory` and the per-figure harnesses never hand-roll
//! worker pools:
//!
//! * trials from **all** points fan out over one pool (a long point cannot
//!   serialize the grid behind it);
//! * per-trial seeds derive deterministically from `(base seed, point
//!   index, trial index)` via [`derive_seed`], so results are bit-identical
//!   regardless of thread count or scheduling;
//! * outcomes stream into per-point [`Accumulator`]s in trial order (a
//!   small reorder window — see `OrderedFold`) instead of buffering every
//!   raw outcome;
//! * the pool size comes from `CREATE_THREADS` (validated, falling back to
//!   the machine's parallelism) and progress reporting from
//!   `CREATE_PROGRESS` (both through the shared
//!   [`create_tensor::envcfg`] warn-and-fallback contract).
//!
//! The scoped worker-pool primitive itself ([`scoped_map`], re-exported
//! here) lives in [`create_tensor::par`], at the bottom of the crate
//! graph, because the data-parallel training loops in `create-agents`
//! share it and `create-core` depends on `create-agents`.

use std::collections::BTreeMap;
use std::io::Write;
use std::str::FromStr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

pub use create_tensor::par::scoped_map;

/// Streaming aggregation of one experiment point's outcomes.
///
/// `push` is called exactly once per trial, **in trial order**, so a
/// left-fold accumulator produces bit-identical floats to a sequential
/// loop over the same outcomes.
pub trait Accumulator<O>: Send {
    /// The aggregated result type.
    type Summary;

    /// Folds one outcome in.
    fn push(&mut self, outcome: O);

    /// Consumes the accumulator into its summary.
    fn finish(self) -> Self::Summary;
}

/// An [`Accumulator`] whose running fold state can be serialized,
/// restored and merged — the contract the crash-resumable sweep fabric
/// (`create-sweep`) journals between processes.
///
/// The laws, all *bit-exact* (`create-sweep` byte-diffs merged results):
///
/// * `decode_state(&a.encode_state())` reproduces `a` exactly — same
///   `finish()` summary, same re-encoding;
/// * `encode_state` is a pure function of the outcomes folded so far
///   (no timestamps, addresses or other ambient state);
/// * [`merge_state`](Self::merge_state) is deterministic: merging the
///   same sequence of range states in the same order always produces the
///   same state, no matter which process does it or how many crashes
///   happened in between. (It is *not* required to reproduce the exact
///   float rounding of one uninterrupted left-fold across the boundary —
///   the fabric gets run-to-run identity by always merging fixed-size
///   chunk states in chunk order, so the chunk decomposition, not the
///   execution history, determines the result.)
pub trait StateAccumulator<O>: Accumulator<O> + Sized {
    /// Serializes the running fold state to bytes (deterministic).
    fn encode_state(&self) -> Vec<u8>;

    /// Restores a state produced by [`encode_state`](Self::encode_state).
    ///
    /// # Errors
    ///
    /// Rejects malformed bytes with a description (corrupt journals must
    /// fail loudly at decode, not produce garbage statistics).
    fn decode_state(bytes: &[u8]) -> Result<Self, String>;

    /// Folds `other` — the state of the trial range immediately after
    /// this one — into `self`.
    fn merge_state(&mut self, other: &Self);
}

/// Runs the contiguous trials `first_trial .. first_trial + len` of one
/// grid point sequentially and returns the resulting accumulator.
///
/// Seeds derive exactly as [`run_grid`] derives them —
/// [`derive_seed`]`(base_seed, point_index, trial)` — so a range runner
/// (the sweep fabric's shard worker) folds the *same trials at the same
/// seeds* as the in-process engine would, just one chunk at a time. The
/// fold is in trial order; outcomes go through
/// [`ExperimentPoint::run_batch`] so per-batch setup amortizes the same
/// way.
pub fn run_point_range<P: ExperimentPoint>(
    point: &P,
    point_index: usize,
    base_seed: u64,
    first_trial: u32,
    len: u32,
) -> P::Acc {
    let seeds: Vec<u64> = (0..len)
        .map(|i| derive_seed(base_seed, point_index, first_trial + i))
        .collect();
    let mut outcomes = Vec::with_capacity(len as usize);
    point.run_batch(first_trial, &seeds, &mut outcomes);
    debug_assert_eq!(
        outcomes.len(),
        len as usize,
        "run_batch must yield one outcome per seed"
    );
    let mut acc = point.accumulator();
    for outcome in outcomes {
        acc.push(outcome);
    }
    acc
}

/// Collects outcomes into a `Vec` in trial order — the "raw outcomes"
/// aggregator behind [`crate::stats::run_outcomes`].
#[derive(Debug)]
pub struct CollectAll<O>(Vec<O>);

impl<O> Default for CollectAll<O> {
    fn default() -> Self {
        CollectAll(Vec::new())
    }
}

impl<O: Send> Accumulator<O> for CollectAll<O> {
    type Summary = Vec<O>;

    fn push(&mut self, outcome: O) {
        self.0.push(outcome);
    }

    fn finish(self) -> Vec<O> {
        self.0
    }
}

/// One cell of an experiment grid.
///
/// The point is shared immutably across workers; each trial gets its own
/// deterministic seed.
pub trait ExperimentPoint: Sync {
    /// What one trial produces.
    type Outcome: Send;
    /// How this point's trials aggregate.
    type Acc: Accumulator<Self::Outcome>;

    /// Number of trials this point runs.
    fn trials(&self) -> u32;

    /// A fresh accumulator for this point.
    fn accumulator(&self) -> Self::Acc;

    /// Runs trial `trial` with the engine-derived `seed`.
    fn run_trial(&self, trial: u32, seed: u64) -> Self::Outcome;

    /// Runs the contiguous trials `first_trial .. first_trial +
    /// seeds.len()` of this point, appending one outcome per trial to
    /// `out` **in trial order**.
    ///
    /// The engine calls this once per claimed batch (`CREATE_TRIAL_BATCH`
    /// trials at a time), so points whose trials share expensive per-trial
    /// setup — inference scratch buffers, deployment clones — can override
    /// it to pay that setup once per batch. Outcomes must be identical to
    /// calling [`run_trial`](Self::run_trial) per entry, which is exactly
    /// what the default implementation does.
    fn run_batch(&self, first_trial: u32, seeds: &[u64], out: &mut Vec<Self::Outcome>) {
        for (i, &seed) in seeds.iter().enumerate() {
            out.push(self.run_trial(first_trial + i as u32, seed));
        }
    }
}

/// Derives the seed for one trial from `(base_seed, point_index,
/// trial_index)` with a SplitMix64-style finalizer, so neighbouring
/// points/trials get decorrelated streams and the mapping never depends
/// on scheduling.
pub fn derive_seed(base_seed: u64, point_index: usize, trial_index: u32) -> u64 {
    create_tensor::seed::mix64(
        base_seed
            .wrapping_add((point_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add((trial_index as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03)),
    )
}

/// Reads a positive integer environment variable, rejecting `0` and
/// unparseable values with a stderr warning and a clear fallback rather
/// than silently misbehaving (the shared [`create_tensor::envcfg`]
/// contract — `CREATE_REPS`, `CREATE_THREADS` and `CREATE_TRIAL_BATCH`
/// all parse through here).
pub(crate) fn positive_env(name: &str, default: usize) -> usize {
    create_tensor::envcfg::read_positive_usize(name, default)
}

/// Worker-pool size: `CREATE_THREADS` when set to a positive integer,
/// otherwise the machine's available parallelism. Delegates to
/// [`create_tensor::par::default_threads`] — one resolution (cached per
/// process) shared with the data-parallel training loops.
pub fn default_threads() -> usize {
    create_tensor::par::default_threads()
}

/// How the engine reports sweep progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Progress {
    /// No reporting (the default).
    Silent,
    /// A single self-overwriting stderr line (`CREATE_PROGRESS=1`).
    Stderr,
}

impl std::fmt::Display for Progress {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Progress::Silent => "0",
            Progress::Stderr => "1",
        })
    }
}

impl FromStr for Progress {
    type Err = String;

    /// `"0"` = silent, `"1"` = stderr (whitespace-tolerant).
    fn from_str(s: &str) -> Result<Self, String> {
        match s.trim() {
            "0" => Ok(Progress::Silent),
            "1" => Ok(Progress::Stderr),
            other => Err(format!("unknown progress mode {other:?}: expected 0 or 1")),
        }
    }
}

impl Progress {
    /// Resolves a raw `CREATE_PROGRESS` value (`None` = unset) with the
    /// shared warn-and-fallback contract
    /// ([`create_tensor::envcfg::parse_validated`]) — the same shape as
    /// every other `CREATE_*` knob: unset/blank selects [`Silent`]
    /// silently, garbage warns on stderr and falls back instead of
    /// silently misbehaving.
    ///
    /// [`Silent`]: Progress::Silent
    pub fn parse_env(raw: Option<&str>) -> Self {
        create_tensor::envcfg::parse_validated("CREATE_PROGRESS", raw, Progress::Silent, str::parse)
    }
}

/// Engine tuning knobs, normally read from the environment.
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Worker threads to fan trials over.
    pub threads: usize,
    /// Progress reporting sink.
    pub progress: Progress,
    /// Trials a worker claims per batch (`CREATE_TRIAL_BATCH`, default
    /// 1 — one claim per trial, the pre-batching behavior).
    ///
    /// Larger batches amortize per-trial setup — each batch runs through
    /// one [`ExperimentPoint::run_batch`] call, so a point can reuse
    /// inference scratch across the whole batch — at the cost of coarser
    /// load balancing. Results are **bit-identical for any batch size**:
    /// seeds still derive from `(base seed, point, trial)` and folding
    /// stays in trial order (pinned by `tests/engine.rs`).
    pub batch: usize,
}

impl EngineOptions {
    /// A validated builder; unset knobs fall back to their env-backed
    /// defaults at [`build`](EngineOptionsBuilder::build) time.
    pub fn builder() -> EngineOptionsBuilder {
        EngineOptionsBuilder::default()
    }

    /// Options from `CREATE_THREADS` / `CREATE_PROGRESS` /
    /// `CREATE_TRIAL_BATCH` — [`builder`](Self::builder) with nothing
    /// overridden.
    pub fn from_env() -> Self {
        Self::builder().build()
    }
}

/// Validated builder for [`EngineOptions`] — the single config path
/// shared by grid callers and the serving layer's `ServeConfig` builder:
/// explicit settings are clamped to the same ranges the env parsers
/// enforce (thread and batch counts are floored at 1), and anything left
/// unset resolves through the env-backed `CREATE_*` defaults at
/// [`build`](Self::build) time, so an out-of-range value cannot sneak in
/// through code that the env contract would have rejected.
#[derive(Debug, Clone, Default)]
pub struct EngineOptionsBuilder {
    threads: Option<usize>,
    progress: Option<Progress>,
    batch: Option<usize>,
}

impl EngineOptionsBuilder {
    /// Worker threads to fan trials over (floored at 1, with a warning
    /// on the shared [`envcfg`](create_tensor::envcfg) stderr channel
    /// when the floor bites; default `CREATE_THREADS` / machine
    /// parallelism).
    pub fn threads(mut self, threads: usize) -> Self {
        if threads == 0 {
            create_tensor::envcfg::warn_adjusted(
                "CREATE_THREADS",
                threads,
                1usize,
                "the engine needs at least one worker thread",
            );
        }
        self.threads = Some(threads.max(1));
        self
    }

    /// Progress reporting sink (default `CREATE_PROGRESS`).
    pub fn progress(mut self, progress: Progress) -> Self {
        self.progress = Some(progress);
        self
    }

    /// Trials a worker claims per batch (floored at 1, warning like
    /// [`threads`](Self::threads) when the floor bites; default
    /// `CREATE_TRIAL_BATCH`).
    pub fn batch(mut self, batch: usize) -> Self {
        if batch == 0 {
            create_tensor::envcfg::warn_adjusted(
                "CREATE_TRIAL_BATCH",
                batch,
                1usize,
                "workers claim at least one trial per batch",
            );
        }
        self.batch = Some(batch.max(1));
        self
    }

    /// Resolves unset knobs from the environment and builds the options.
    pub fn build(self) -> EngineOptions {
        EngineOptions {
            threads: self.threads.unwrap_or_else(default_threads),
            progress: self.progress.unwrap_or_else(|| {
                Progress::parse_env(std::env::var("CREATE_PROGRESS").ok().as_deref())
            }),
            batch: self
                .batch
                .unwrap_or_else(|| positive_env("CREATE_TRIAL_BATCH", 1)),
        }
    }
}

/// Reorders out-of-order trial completions into a strict in-order fold.
///
/// Workers finish trials out of order; folding them as they land would make
/// float sums depend on scheduling. Instead each completion is offered
/// here: the contiguous prefix is folded immediately and only the
/// not-yet-contiguous tail is parked, so at most (threads − 1) outcomes per
/// point are ever buffered — not the whole sweep.
struct OrderedFold<A, O> {
    acc: A,
    next: u32,
    pending: BTreeMap<u32, O>,
}

impl<O, A: Accumulator<O>> OrderedFold<A, O> {
    fn new(acc: A) -> Self {
        OrderedFold {
            acc,
            next: 0,
            pending: BTreeMap::new(),
        }
    }

    fn offer(&mut self, trial: u32, outcome: O) {
        if trial == self.next {
            self.acc.push(outcome);
            self.next += 1;
            while let Some(o) = self.pending.remove(&self.next) {
                self.acc.push(o);
                self.next += 1;
            }
        } else {
            self.pending.insert(trial, outcome);
        }
    }

    fn finish(self, expected: u32) -> A::Summary {
        debug_assert!(self.pending.is_empty(), "trials lost in reorder buffer");
        debug_assert_eq!(self.next, expected, "not all trials folded");
        let _ = expected;
        self.acc.finish()
    }
}

/// Runs every trial of every point in `points` across the worker pool and
/// returns one summary per point, in point order.
///
/// Seeds derive from [`derive_seed`]`(base_seed, point_index, trial_index)`
/// and aggregation folds in trial order, so the result is bit-identical
/// for any thread count (the determinism test in `tests/engine.rs` pins
/// this down).
pub fn run_grid<P, I>(
    points: I,
    base_seed: u64,
) -> Vec<<P::Acc as Accumulator<P::Outcome>>::Summary>
where
    P: ExperimentPoint,
    I: IntoIterator<Item = P>,
{
    run_grid_with(points, base_seed, &EngineOptions::from_env())
}

/// [`run_grid`] with explicit [`EngineOptions`].
pub fn run_grid_with<P, I>(
    points: I,
    base_seed: u64,
    options: &EngineOptions,
) -> Vec<<P::Acc as Accumulator<P::Outcome>>::Summary>
where
    P: ExperimentPoint,
    I: IntoIterator<Item = P>,
{
    let points: Vec<P> = points.into_iter().collect();
    if points.is_empty() {
        return Vec::new();
    }

    // Flatten the grid: global trial t maps to the point whose offset
    // bracket contains it. `offsets[i]` is the first flat index of point i.
    let mut offsets: Vec<usize> = Vec::with_capacity(points.len() + 1);
    let mut total = 0usize;
    for p in &points {
        offsets.push(total);
        total += p.trials() as usize;
    }
    offsets.push(total);

    let folds: Vec<Mutex<OrderedFold<P::Acc, P::Outcome>>> = points
        .iter()
        .map(|p| Mutex::new(OrderedFold::new(p.accumulator())))
        .collect();

    if total > 0 {
        let cursor = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        let threads = options.threads.max(1).min(total);
        let batch = options.batch.max(1);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    let mut seeds: Vec<u64> = Vec::new();
                    let mut outcomes: Vec<P::Outcome> = Vec::new();
                    loop {
                        // Claim a contiguous batch of flat trial indices.
                        let start = cursor.fetch_add(batch, Ordering::Relaxed);
                        if start >= total {
                            break;
                        }
                        let end = (start + batch).min(total);
                        // A claim can straddle point boundaries; each
                        // same-point span runs as one run_batch call.
                        let mut flat = start;
                        while flat < end {
                            // partition_point returns how many offsets are
                            // <= flat; the containing point is one before.
                            let point_idx = offsets.partition_point(|&o| o <= flat) - 1;
                            let span_end = offsets[point_idx + 1].min(end);
                            let first_trial = (flat - offsets[point_idx]) as u32;
                            let span = span_end - flat;
                            seeds.clear();
                            seeds.extend(
                                (0..span as u32)
                                    .map(|i| derive_seed(base_seed, point_idx, first_trial + i)),
                            );
                            outcomes.clear();
                            points[point_idx].run_batch(first_trial, &seeds, &mut outcomes);
                            debug_assert_eq!(
                                outcomes.len(),
                                span,
                                "run_batch must yield one outcome per seed"
                            );
                            {
                                let mut fold =
                                    folds[point_idx].lock().expect("engine fold poisoned");
                                for (i, outcome) in outcomes.drain(..).enumerate() {
                                    fold.offer(first_trial + i as u32, outcome);
                                }
                            }
                            let finished = done.fetch_add(span, Ordering::Relaxed) + span;
                            if options.progress == Progress::Stderr {
                                report_progress(finished, span, total);
                            }
                            flat = span_end;
                        }
                    }
                });
            }
        });
        if options.progress == Progress::Stderr {
            eprintln!();
        }
    }

    folds
        .into_iter()
        .zip(&points)
        .map(|(fold, p)| {
            fold.into_inner()
                .expect("engine fold poisoned")
                .finish(p.trials())
        })
        .collect()
}

fn report_progress(finished: usize, span: usize, total: usize) {
    // Only ~100 updates per sweep: report when a percent boundary is
    // crossed by the just-finished span of trials.
    let pct = finished * 100 / total;
    let prev_pct = (finished - span) * 100 / total;
    if pct != prev_pct || finished == total {
        let mut err = std::io::stderr().lock();
        let _ = write!(err, "\r[create] trials {finished}/{total} ({pct}%)");
        let _ = err.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cheap arithmetic point: trial i at seed s yields (i, s).
    struct Cell {
        trials: u32,
    }

    #[derive(Default)]
    struct SeedSum {
        order: Vec<u32>,
        seeds: Vec<u64>,
    }

    impl Accumulator<(u32, u64)> for SeedSum {
        type Summary = (Vec<u32>, Vec<u64>);

        fn push(&mut self, (trial, seed): (u32, u64)) {
            self.order.push(trial);
            self.seeds.push(seed);
        }

        fn finish(self) -> (Vec<u32>, Vec<u64>) {
            (self.order, self.seeds)
        }
    }

    impl ExperimentPoint for Cell {
        type Outcome = (u32, u64);
        type Acc = SeedSum;

        fn trials(&self) -> u32 {
            self.trials
        }

        fn accumulator(&self) -> SeedSum {
            SeedSum::default()
        }

        fn run_trial(&self, trial: u32, seed: u64) -> (u32, u64) {
            (trial, seed)
        }
    }

    fn options(threads: usize) -> EngineOptions {
        EngineOptions::builder()
            .threads(threads)
            .progress(Progress::Silent)
            .batch(1)
            .build()
    }

    fn options_batched(threads: usize, batch: usize) -> EngineOptions {
        EngineOptions::builder()
            .threads(threads)
            .progress(Progress::Silent)
            .batch(batch)
            .build()
    }

    #[test]
    fn folds_arrive_in_trial_order_regardless_of_threads() {
        for threads in [1, 2, 8] {
            let grid = vec![Cell { trials: 17 }, Cell { trials: 3 }, Cell { trials: 9 }];
            let out = run_grid_with(grid, 99, &options(threads));
            for (point, (order, _)) in out.iter().enumerate() {
                let expect: Vec<u32> = (0..out[point].0.len() as u32).collect();
                assert_eq!(order, &expect, "threads={threads} point={point}");
            }
        }
    }

    #[test]
    fn seeds_depend_on_point_and_trial_only() {
        let a = run_grid_with(vec![Cell { trials: 5 }, Cell { trials: 5 }], 7, &options(1));
        let b = run_grid_with(vec![Cell { trials: 5 }, Cell { trials: 5 }], 7, &options(8));
        assert_eq!(a, b, "seed assignment must not depend on thread count");
        assert_ne!(a[0].1, a[1].1, "distinct points get distinct seed streams");
        let c = run_grid_with(vec![Cell { trials: 5 }], 8, &options(1));
        assert_ne!(a[0].1, c[0].1, "base seed changes the stream");
    }

    #[test]
    fn empty_grid_and_zero_trials_are_safe() {
        let empty: Vec<Cell> = vec![];
        assert!(run_grid_with(empty, 1, &options(4)).is_empty());
        let out = run_grid_with(vec![Cell { trials: 0 }], 1, &options(4));
        assert_eq!(out.len(), 1);
        assert!(out[0].0.is_empty());
    }

    #[test]
    fn ordered_fold_reorders_a_scrambled_completion_order() {
        let mut fold = OrderedFold::new(SeedSum::default());
        for trial in [3u32, 0, 2, 1, 4] {
            fold.offer(trial, (trial, trial as u64));
        }
        let (order, _) = fold.finish(5);
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn positive_env_accepts_positive_integers() {
        std::env::set_var("CREATE_TEST_ENGINE_OK", "12");
        assert_eq!(positive_env("CREATE_TEST_ENGINE_OK", 40), 12);
        std::env::remove_var("CREATE_TEST_ENGINE_OK");
    }

    #[test]
    fn positive_env_rejects_zero_and_garbage() {
        assert_eq!(positive_env("CREATE_TEST_ENGINE_UNSET", 40), 40);
        std::env::set_var("CREATE_TEST_ENGINE_ZERO", "0");
        assert_eq!(positive_env("CREATE_TEST_ENGINE_ZERO", 40), 40);
        std::env::remove_var("CREATE_TEST_ENGINE_ZERO");
        std::env::set_var("CREATE_TEST_ENGINE_BAD", "not-a-number");
        assert_eq!(positive_env("CREATE_TEST_ENGINE_BAD", 40), 40);
        std::env::remove_var("CREATE_TEST_ENGINE_BAD");
        std::env::set_var("CREATE_TEST_ENGINE_NEG", "-3");
        assert_eq!(positive_env("CREATE_TEST_ENGINE_NEG", 40), 40);
        std::env::remove_var("CREATE_TEST_ENGINE_NEG");
    }

    #[test]
    fn batched_claims_are_bit_identical_to_per_trial_claims() {
        // CREATE_TRIAL_BATCH is a pure wall-clock knob: any batch size —
        // including one larger than every point's trial count — must give
        // identical seeds and fold order as batch=1, at any thread count.
        let grid = || vec![Cell { trials: 17 }, Cell { trials: 3 }, Cell { trials: 9 }];
        let reference = run_grid_with(grid(), 99, &options(1));
        for threads in [1, 2, 8] {
            for batch in [1usize, 3, 18, 64] {
                let out = run_grid_with(grid(), 99, &options_batched(threads, batch));
                assert_eq!(out, reference, "threads={threads} batch={batch}");
            }
        }
    }

    #[test]
    fn run_batch_default_matches_per_trial_outcomes() {
        let cell = Cell { trials: 5 };
        let seeds: Vec<u64> = (0..4u32).map(|t| derive_seed(7, 0, 2 + t)).collect();
        let mut batched = Vec::new();
        cell.run_batch(2, &seeds, &mut batched);
        let singles: Vec<_> = seeds
            .iter()
            .enumerate()
            .map(|(i, &s)| cell.run_trial(2 + i as u32, s))
            .collect();
        assert_eq!(batched, singles);
    }

    #[test]
    fn builder_clamps_threads_and_batch_to_one() {
        let opts = EngineOptions::builder()
            .threads(0)
            .progress(Progress::Silent)
            .batch(0)
            .build();
        assert_eq!(opts.threads, 1);
        assert_eq!(opts.batch, 1);
        assert_eq!(options_batched(1, 12).batch, 12);
    }

    #[test]
    fn progress_parses_through_the_shared_validated_contract() {
        // Unset and blank select Silent silently.
        assert_eq!(Progress::parse_env(None), Progress::Silent);
        assert_eq!(Progress::parse_env(Some("")), Progress::Silent);
        assert_eq!(Progress::parse_env(Some("  \t")), Progress::Silent);
        // The two valid values, whitespace-tolerant.
        assert_eq!(Progress::parse_env(Some("0")), Progress::Silent);
        assert_eq!(Progress::parse_env(Some("1")), Progress::Stderr);
        assert_eq!(Progress::parse_env(Some(" 1 ")), Progress::Stderr);
        // Garbage warns and falls back instead of silently enabling.
        assert_eq!(Progress::parse_env(Some("yes")), Progress::Silent);
        assert_eq!(Progress::parse_env(Some("2")), Progress::Silent);
        // Display round-trips through FromStr like the backend kinds.
        for p in [Progress::Silent, Progress::Stderr] {
            assert_eq!(p.to_string().parse(), Ok(p));
        }
    }

    #[test]
    fn run_point_range_matches_grid_seed_derivation() {
        // The range runner must fold exactly the trials [2, 6) of point 1
        // at the seeds run_grid would have handed them.
        let grid = vec![Cell { trials: 4 }, Cell { trials: 9 }];
        let full = run_grid_with(grid, 99, &options(1));
        let (order, seeds) = run_point_range(&Cell { trials: 9 }, 1, 99, 2, 4).finish();
        assert_eq!(order, vec![2, 3, 4, 5]);
        assert_eq!(seeds, full[1].1[2..6].to_vec());
    }

    #[test]
    fn derive_seed_matches_known_answers() {
        assert_eq!(derive_seed(0, 0, 0), 0x8209_B480_FAED_1B10);
        assert_eq!(derive_seed(0x5E12E, 3, 7), 0x0A08_58D9_4089_0C51);
        assert_eq!(derive_seed(u64::MAX, 1000, 39), 0x2127_ACD9_20C8_BD43);
    }

    #[test]
    fn derive_seed_decorrelates_neighbours() {
        let s = derive_seed(1, 0, 0);
        assert_ne!(s, derive_seed(1, 0, 1));
        assert_ne!(s, derive_seed(1, 1, 0));
        assert_ne!(s, derive_seed(2, 0, 0));
    }
}
