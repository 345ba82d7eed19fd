//! Resident mission-serving engine for the CREATE testbed.
//!
//! The per-figure harnesses run *batch* experiments: build a grid, fan it
//! over a pool, exit. This crate keeps a deployment **resident** and
//! serves missions on demand — the shape an embodied-AI stack has in
//! deployment, where task requests arrive continuously and the models
//! stay warm between them:
//!
//! * [`MissionEngine::start`] spawns a pool of workers, each owning a
//!   warmed [`MissionSession`] (controller/planner inference buffers
//!   pre-sized before the first request, so there is no first-request
//!   allocation spike);
//! * requests flow through a **bounded** queue
//!   ([`create_tensor::par::BoundedQueue`] — the same parking machinery
//!   as the training `WorkerPool`): when the queue is full,
//!   [`MissionEngine::submit`] rejects immediately with
//!   [`RejectReason::QueueFull`] instead of blocking or growing without
//!   bound — admission control, not back-pressure by stalling;
//! * every admitted request gets a dense id in admission order and a
//!   deterministic seed via [`request_seed`], so any served mission can
//!   be replayed **bit-identically** offline with
//!   [`create_core::run_trial_with`] (or [`MissionSession::run`]) at the
//!   ticket's seed — the replay contract the serve tests pin;
//! * [`MissionEngine::shutdown`] closes admission, drains every request
//!   already accepted, and joins the workers; tickets for drained
//!   requests still resolve.
//!
//! # Failure semantics
//!
//! The engine assumes its own substrate misbehaves, not just the
//! missions':
//!
//! * **Supervision** — each worker's serving loop runs under
//!   `catch_unwind`. A panic mid-mission resolves the in-flight ticket
//!   with [`MissionResult::Failed`]`(`[`ServeFailure::Panicked`]`)`
//!   (structurally: a drop guard on the claimed job fires during the
//!   unwind, so [`MissionTicket::wait`] can never hang on a dead
//!   worker), the worker respawns with a fresh session, and the engine
//!   keeps serving. `CREATE_SERVE_CHAOS` (or
//!   [`ServeConfigBuilder::chaos`]) injects panics with the given
//!   per-mission probability — decided as a pure function of the
//!   mission seed, so the chaos-hit set is identical across worker
//!   counts and runs.
//! * **Deadlines** — a [`RequestPolicy`] deadline expired at admission
//!   is refused with [`RejectReason::DeadlineExpired`]; one that expires
//!   while queued is shed at claim time with a typed
//!   [`ServeFailure::DeadlineExpired`] instead of burning a worker on a
//!   mission nobody is waiting for. `CREATE_SERVE_DEADLINE_MS` sets an
//!   engine-wide default for requests that do not carry their own.
//! * **Retries** — a failed (unsuccessful, not panicked) mission re-runs
//!   up to its [`RequestPolicy::retries`] budget, each attempt at a
//!   *derived deterministic seed* ([`retry_seed`]) after a jittered,
//!   seed-deterministic backoff — so even retried missions replay
//!   bit-identically from the [`ServedOutcome`]'s recorded final seed.
//! * **Priority** — [`Priority::Batch`] submissions are admitted only
//!   below a reduced queue bound, keeping headroom reserved for
//!   [`Priority::Interactive`] traffic when the queue is contended.
//! * **Adaptation** — an optional [`governor`] closes the
//!   energy–reliability loop between missions, switching protection
//!   scheme and controller voltage to hold a success SLO at minimum
//!   energy; its per-mission decision is recorded on the outcome so
//!   governed missions stay replayable.
//!
//! Configuration follows the workspace env contract
//! ([`create_tensor::envcfg`]): `CREATE_SERVE_WORKERS` (default: the
//! engine thread count), `CREATE_SERVE_QUEUE` (default 256),
//! `CREATE_SERVE_CHAOS` (panic probability, default 0),
//! `CREATE_SERVE_DEADLINE_MS` (default: none), `CREATE_SERVE_GOVERNOR`
//! (enable flag) with `CREATE_SERVE_SLO` / `CREATE_SERVE_WINDOW` — all
//! overridable in code through [`ServeConfig::builder`].
//!
//! # Example
//!
//! ```no_run
//! use create_serve::{MissionEngine, MissionRequest, ServeConfig};
//! use create_core::config::CreateConfig;
//! use std::sync::Arc;
//!
//! // In an application this deployment comes from
//! // `Deployment::new(&AgentSystem::jarvis(), Precision::Int8)`.
//! let (dep, task) = create_core::testutil::tiny_deployment();
//! let engine = MissionEngine::start(Arc::new(dep), ServeConfig::from_env());
//! let ticket = engine
//!     .submit(MissionRequest::new(task, CreateConfig::golden()))
//!     .expect("queue has room");
//! let served = ticket.wait();
//! println!("id={} seed={} success={}", served.request_id, served.seed, served.is_success());
//! engine.shutdown();
//! ```

use create_core::config::CreateConfig;
use create_core::mission::{Deployment, MissionOutcome, MissionSession};
use create_env::TaskId;
use create_tensor::par::{BoundedQueue, PushError};
use create_tensor::seed::{mix64, unit_f64};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub mod governor;

pub use governor::{default_ladder, Governor, GovernorConfig, GovernorReport, OperatingPoint};

/// Priority class of a request, applied at admission: when the queue is
/// contended, `Batch` traffic is refused first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// Latency-sensitive traffic; may use the queue's full capacity.
    #[default]
    Interactive,
    /// Throughput traffic; admitted only while the queue is below
    /// `capacity - interactive_reserve`, so a contended queue always
    /// keeps headroom for interactive requests.
    Batch,
}

/// A request's completion deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deadline {
    /// Relative to admission time.
    Within(Duration),
    /// An absolute instant.
    At(Instant),
}

/// Per-request robustness policy: deadline, priority class and retry
/// budget. [`Default`] is the pre-policy behavior — no deadline,
/// interactive, no retries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestPolicy {
    /// Completion deadline; `None` falls back to the engine's
    /// [`ServeConfig::default_deadline`].
    pub deadline: Option<Deadline>,
    /// Admission priority class.
    pub priority: Priority,
    /// Extra mission attempts after an unsuccessful (not panicked) one,
    /// each at a derived deterministic seed ([`retry_seed`]).
    pub retries: u32,
    /// Base backoff before the first retry; grows exponentially per
    /// attempt with deterministic jitter, capped at one second.
    pub backoff: Duration,
}

impl Default for RequestPolicy {
    fn default() -> Self {
        Self {
            deadline: None,
            priority: Priority::Interactive,
            retries: 0,
            backoff: Duration::from_millis(1),
        }
    }
}

impl RequestPolicy {
    /// Deadline `d` past admission.
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(Deadline::Within(d));
        self
    }

    /// Absolute deadline.
    pub fn with_deadline_at(mut self, at: Instant) -> Self {
        self.deadline = Some(Deadline::At(at));
        self
    }

    /// Batch (load-sheddable) priority.
    pub fn batch(mut self) -> Self {
        self.priority = Priority::Batch;
        self
    }

    /// Retry budget: up to `n` extra attempts on unsuccessful missions.
    pub fn with_retries(mut self, n: u32) -> Self {
        self.retries = n;
        self
    }
}

/// One mission to serve: which task, under which technique/error config,
/// with which robustness policy.
#[derive(Debug, Clone, PartialEq)]
pub struct MissionRequest {
    /// Task to run.
    pub task: TaskId,
    /// Technique/error configuration for the trial.
    pub config: CreateConfig,
    /// Deadline / priority / retry policy ([`RequestPolicy::default`] =
    /// the pre-policy behavior).
    pub policy: RequestPolicy,
}

impl MissionRequest {
    /// A request for `task` under `config` with the default policy.
    pub fn new(task: TaskId, config: CreateConfig) -> Self {
        MissionRequest {
            task,
            config,
            policy: RequestPolicy::default(),
        }
    }

    /// The same request under an explicit [`RequestPolicy`].
    pub fn with_policy(mut self, policy: RequestPolicy) -> Self {
        self.policy = policy;
        self
    }
}

/// Why [`MissionEngine::submit`] refused a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The bounded request queue is at capacity (or, for
    /// [`Priority::Batch`], at its reduced batch bound); retry later or
    /// shed load.
    QueueFull {
        /// The queue's fixed capacity.
        capacity: usize,
    },
    /// The engine is shutting down and no longer admits requests.
    ShuttingDown,
    /// The request's deadline had already expired at admission; running
    /// it could only waste a worker.
    DeadlineExpired,
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::QueueFull { capacity } => {
                write!(f, "request queue full (capacity {capacity})")
            }
            RejectReason::ShuttingDown => f.write_str("engine is shutting down"),
            RejectReason::DeadlineExpired => f.write_str("deadline expired before admission"),
        }
    }
}

impl std::error::Error for RejectReason {}

/// A refused submission: the request comes back to the caller untouched,
/// with the reason, so callers can retry, redirect or drop it.
#[derive(Debug, Clone, PartialEq)]
pub struct Rejected {
    /// The request, returned to the caller.
    pub request: MissionRequest,
    /// Why it was refused.
    pub reason: RejectReason,
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "mission request for task {:?} rejected: {}",
            self.request.task, self.reason
        )
    }
}

impl std::error::Error for Rejected {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.reason)
    }
}

/// Derives the seed a served request runs at from `(engine base seed,
/// request id)` with the same SplitMix64-style finalizer the batch
/// engine's `derive_seed` uses for `(point, trial)` cells.
///
/// This mapping **is** the replay contract: a [`ServedOutcome`] carries
/// its `request_id` and `seed`, and running
/// [`create_core::run_trial_with`] offline at that seed reproduces the
/// served [`MissionOutcome`] bit for bit.
pub fn request_seed(base_seed: u64, request_id: u64) -> u64 {
    mix64(base_seed.wrapping_add((request_id.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// The seed of retry attempt `attempt` (0 = the first run) for a request
/// whose first attempt runs at `first_seed`.
///
/// Attempt 0 is `first_seed` itself — retries never perturb the primary
/// replay contract — and each later attempt re-mixes through
/// [`request_seed`], so retried missions stay deterministic and
/// replayable at the [`ServedOutcome`]'s recorded final seed.
pub fn retry_seed(first_seed: u64, attempt: u32) -> u64 {
    if attempt == 0 {
        first_seed
    } else {
        request_seed(first_seed, attempt as u64)
    }
}

/// Salt decorrelating the chaos-injection decision from the mission's
/// own RNG streams (which hash the raw seed).
const CHAOS_SALT: u64 = 0xC4A0_5A17_0DD5_EED5;

/// Whether the chaos hook fires for a mission attempt at `seed` — a pure
/// function of `(probability, seed)`, so the set of chaos-hit missions
/// is identical across worker counts, scheduling and reruns.
fn chaos_fires(probability: f64, seed: u64) -> bool {
    if probability <= 0.0 {
        return false;
    }
    if probability >= 1.0 {
        return true;
    }
    unit_f64(request_seed(seed ^ CHAOS_SALT, 0)) < probability
}

/// Salt decorrelating the engine's retry backoff jitter from its chaos
/// draws.
const RETRY_SALT: u64 = CHAOS_SALT.rotate_left(17);

/// Jittered exponential backoff before retry attempt `attempt` (≥ 1):
/// `base · 2^(attempt-1)`, scaled by a jitter in `[0.5, 1.5)` drawn from
/// `(seed, attempt)`, capped at one second. The engine's retries and
/// `create-net`'s client share this curve, each salting `seed` with its
/// own constant.
pub fn backoff_delay(base: Duration, attempt: u32, seed: u64) -> Duration {
    let exp = base.as_secs_f64() * f64::from(1u32 << (attempt - 1).min(10));
    let jitter = 0.5 + unit_f64(request_seed(seed, u64::from(attempt)));
    Duration::from_secs_f64((exp * jitter).min(1.0))
}

/// Typed failure of a served mission (the mission never produced a
/// [`MissionOutcome`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeFailure {
    /// The worker panicked mid-mission; the supervisor resolved the
    /// ticket and respawned the worker.
    Panicked,
    /// The deadline expired while the request was queued; it was shed
    /// without running.
    DeadlineExpired,
}

impl std::fmt::Display for ServeFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ServeFailure::Panicked => "worker panicked mid-mission",
            ServeFailure::DeadlineExpired => "deadline expired while queued",
        })
    }
}

impl std::error::Error for ServeFailure {}

/// How a served request ended: a completed mission (successful or not —
/// see [`MissionOutcome::success`]) or a typed serving-layer failure.
#[derive(Debug, Clone, PartialEq)]
pub enum MissionResult {
    /// The mission ran to completion; bit-identical to an offline replay
    /// at the recorded seed (and recorded governor decision, if any).
    Completed(MissionOutcome),
    /// The serving layer failed the request before a mission outcome
    /// existed.
    Failed(ServeFailure),
}

/// A completed served mission.
#[derive(Debug, Clone, PartialEq)]
pub struct ServedOutcome {
    /// Dense admission-order id of the request.
    pub request_id: u64,
    /// The deterministic seed of the **final** attempt (equal to
    /// [`request_seed`]`(base_seed, request_id)` when no retries ran;
    /// see [`retry_seed`]). This is the seed an offline replay uses.
    pub seed: u64,
    /// Mission attempts executed (1 + retries taken; 0 when the request
    /// was shed or the worker died before completing any attempt).
    pub attempts: u32,
    /// How the request ended.
    pub result: MissionResult,
    /// The governor operating point this mission ran under (`None` on an
    /// ungoverned engine or a non-mission failure). A replay must apply
    /// it: `decision.apply(&request.config)`.
    pub decision: Option<OperatingPoint>,
    /// Nanoseconds the request waited in the queue before a worker
    /// claimed it (for panicked requests: admission until the unwind).
    pub queue_ns: u64,
    /// Nanoseconds the worker spent running the mission.
    pub service_ns: u64,
}

impl ServedOutcome {
    /// End-to-end latency (queue wait + service) in nanoseconds.
    pub fn latency_ns(&self) -> u64 {
        self.queue_ns + self.service_ns
    }

    /// The completed mission outcome, if one exists.
    pub fn outcome(&self) -> Option<&MissionOutcome> {
        match &self.result {
            MissionResult::Completed(outcome) => Some(outcome),
            MissionResult::Failed(_) => None,
        }
    }

    /// Whether a mission completed **and** achieved its goal.
    pub fn is_success(&self) -> bool {
        self.outcome().is_some_and(|o| o.success)
    }

    /// The serving-layer failure, if the request never completed a
    /// mission.
    pub fn failure(&self) -> Option<ServeFailure> {
        match &self.result {
            MissionResult::Completed(_) => None,
            MissionResult::Failed(failure) => Some(*failure),
        }
    }
}

/// One-slot rendezvous between the worker that runs a mission and the
/// ticket holder waiting on it.
#[derive(Debug, Default)]
struct TicketShared {
    slot: Mutex<Option<ServedOutcome>>,
    done: Condvar,
}

impl TicketShared {
    fn fulfill(&self, outcome: ServedOutcome) {
        let mut slot = self.slot.lock().expect("ticket poisoned");
        *slot = Some(outcome);
        self.done.notify_all();
    }
}

/// A claim on one admitted request's future [`ServedOutcome`].
///
/// The id and seed are assigned at admission, so a caller can predict —
/// and later replay — the mission before it even runs.
#[derive(Debug)]
pub struct MissionTicket {
    request_id: u64,
    seed: u64,
    shared: Arc<TicketShared>,
}

impl MissionTicket {
    /// Dense admission-order id of the request.
    pub fn request_id(&self) -> u64 {
        self.request_id
    }

    /// The deterministic seed the mission's first attempt will run at.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether the outcome is already available ([`wait`](Self::wait)
    /// would return without blocking).
    pub fn is_ready(&self) -> bool {
        self.shared.slot.lock().expect("ticket poisoned").is_some()
    }

    /// Blocks until the request resolves and returns its outcome.
    ///
    /// Always returns: shutdown drains every admitted request, and a
    /// claimed job resolves its ticket even if its worker panics — a
    /// drop guard on the job fulfills the ticket with
    /// [`ServeFailure::Panicked`] during the unwind, so no worker death
    /// can strand a waiter.
    pub fn wait(self) -> ServedOutcome {
        let mut slot = self.shared.slot.lock().expect("ticket poisoned");
        loop {
            if let Some(outcome) = slot.take() {
                return outcome;
            }
            slot = self.shared.done.wait(slot).expect("ticket poisoned");
        }
    }
}

/// Serving-engine configuration. Build one with [`ServeConfig::builder`]
/// (explicit, validated) or [`ServeConfig::from_env`] (the `CREATE_SERVE_*`
/// environment contract).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads, each owning one warmed [`MissionSession`].
    pub workers: usize,
    /// Request-queue capacity; submissions beyond it are rejected with
    /// [`RejectReason::QueueFull`]. Zero admits nothing (useful to test
    /// pure rejection paths).
    pub queue: usize,
    /// Base seed mixed into every request's [`request_seed`].
    pub base_seed: u64,
    /// Chaos hook: probability that a mission attempt panics its worker
    /// (test-only fault injection for the supervision path; decided
    /// deterministically per seed). 0 disables.
    pub chaos: f64,
    /// Queue slots reserved for [`Priority::Interactive`] requests:
    /// batch submissions are refused once the queue holds
    /// `queue - interactive_reserve` items.
    pub interactive_reserve: usize,
    /// Default deadline applied to requests whose policy carries none
    /// (`None` = requests without a deadline never expire).
    pub default_deadline: Option<Duration>,
    /// Adaptive reliability governor; `None` serves every request at its
    /// submitted config.
    pub governor: Option<GovernorConfig>,
}

impl ServeConfig {
    /// A validated builder; unset knobs fall back to their env-backed
    /// defaults at [`build`](ServeConfigBuilder::build) time.
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder::default()
    }

    /// Configuration from the `CREATE_SERVE_*` environment —
    /// [`builder`](Self::builder) with nothing overridden.
    pub fn from_env() -> Self {
        Self::builder().build()
    }
}

/// Validated builder for [`ServeConfig`], the serving-side counterpart of
/// [`create_core::EngineOptions::builder`]: explicit settings are clamped
/// the same way the env parsers validate, and anything left unset
/// resolves through the `CREATE_SERVE_*` environment at
/// [`build`](Self::build) time.
#[derive(Debug, Clone, Default)]
pub struct ServeConfigBuilder {
    workers: Option<usize>,
    queue: Option<usize>,
    base_seed: Option<u64>,
    chaos: Option<f64>,
    interactive_reserve: Option<usize>,
    default_deadline: Option<Option<Duration>>,
    governor: Option<Option<GovernorConfig>>,
}

impl ServeConfigBuilder {
    /// Worker-thread count (floored at 1; default `CREATE_SERVE_WORKERS`,
    /// falling back to the batch engine's thread count —
    /// `CREATE_THREADS` / machine parallelism — so batch and serve scale
    /// together unless told otherwise).
    pub fn workers(mut self, workers: usize) -> Self {
        if workers == 0 {
            create_tensor::envcfg::warn_adjusted(
                "CREATE_SERVE_WORKERS",
                workers,
                1usize,
                "the serving engine needs at least one worker",
            );
        }
        self.workers = Some(workers.max(1));
        self
    }

    /// Request-queue capacity (default `CREATE_SERVE_QUEUE`, falling back
    /// to 256). Unlike the env knob, an explicit `0` is honored: a
    /// zero-capacity queue rejects every submission, which the saturation
    /// tests rely on.
    pub fn queue(mut self, queue: usize) -> Self {
        self.queue = Some(queue);
        self
    }

    /// Base seed mixed into every request seed (default 0).
    pub fn base_seed(mut self, base_seed: u64) -> Self {
        self.base_seed = Some(base_seed);
        self
    }

    /// Chaos-panic probability per mission attempt, clamped to `[0, 1]`
    /// (default `CREATE_SERVE_CHAOS`, falling back to 0). Benches pin
    /// this to 0 so chaos never contaminates measurements.
    pub fn chaos(mut self, probability: f64) -> Self {
        let used = if probability.is_finite() {
            probability.clamp(0.0, 1.0)
        } else {
            0.0
        };
        // `!=` catches NaN too (NaN != NaN), so every adjustment warns.
        if used != probability {
            create_tensor::envcfg::warn_adjusted(
                "CREATE_SERVE_CHAOS",
                probability,
                used,
                "chaos probability must be a fraction in [0, 1]",
            );
        }
        self.chaos = Some(used);
        self
    }

    /// Queue slots reserved for interactive traffic (default: a quarter
    /// of the queue capacity, rounded up; clamped to the capacity).
    pub fn interactive_reserve(mut self, slots: usize) -> Self {
        self.interactive_reserve = Some(slots);
        self
    }

    /// Engine-wide default deadline for requests without one (default
    /// `CREATE_SERVE_DEADLINE_MS`, falling back to none).
    pub fn default_deadline(mut self, deadline: Option<Duration>) -> Self {
        self.default_deadline = Some(deadline);
        self
    }

    /// Enables the adaptive reliability governor (default: enabled iff
    /// the `CREATE_SERVE_GOVERNOR` flag is set, with
    /// [`GovernorConfig::from_env`]).
    pub fn governor(mut self, governor: Option<GovernorConfig>) -> Self {
        self.governor = Some(governor);
        self
    }

    /// Resolves unset knobs from the environment and builds the config.
    pub fn build(self) -> ServeConfig {
        use create_tensor::envcfg;
        let queue = self
            .queue
            .unwrap_or_else(|| envcfg::read_positive_usize("CREATE_SERVE_QUEUE", 256));
        ServeConfig {
            workers: self.workers.unwrap_or_else(|| {
                envcfg::read_positive_usize(
                    "CREATE_SERVE_WORKERS",
                    create_core::engine::default_threads(),
                )
            }),
            queue,
            base_seed: self.base_seed.unwrap_or(0),
            chaos: self
                .chaos
                .unwrap_or_else(|| envcfg::read_fraction("CREATE_SERVE_CHAOS", 0.0)),
            interactive_reserve: self
                .interactive_reserve
                .unwrap_or_else(|| queue.div_ceil(4))
                .min(queue),
            default_deadline: self.default_deadline.unwrap_or_else(default_deadline_env),
            governor: self.governor.unwrap_or_else(|| {
                envcfg::read_flag("CREATE_SERVE_GOVERNOR", false).then(GovernorConfig::from_env)
            }),
        }
    }
}

/// `CREATE_SERVE_DEADLINE_MS` through the shared warn-and-fallback
/// contract: unset/blank → no default deadline; a positive integer →
/// that many milliseconds; zero or garbage → warn and fall back to none.
fn default_deadline_env() -> Option<Duration> {
    /// Display shim so `Option<u64>` fits [`envcfg::parse_validated`]'s
    /// "using default D" message.
    struct MaybeMs(Option<u64>);
    impl std::fmt::Display for MaybeMs {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self.0 {
                Some(ms) => write!(f, "{ms}"),
                None => f.write_str("none"),
            }
        }
    }
    let raw = std::env::var("CREATE_SERVE_DEADLINE_MS").ok();
    create_tensor::envcfg::parse_validated(
        "CREATE_SERVE_DEADLINE_MS",
        raw.as_deref(),
        MaybeMs(None),
        |s| match s.trim().parse::<u64>() {
            Ok(ms) if ms > 0 => Ok(MaybeMs(Some(ms))),
            _ => Err("expected a positive integer (milliseconds)".to_string()),
        },
    )
    .0
    .map(Duration::from_millis)
}

/// One queued unit of work: the admitted request plus its pre-assigned
/// identity and the ticket to fulfill.
///
/// The ticket lives in an `Option` so resolution is linear — and the
/// `Drop` impl is the supervision backstop: if a job is dropped with its
/// ticket still pending (worker panic unwinding through the mission, or
/// a queue torn down with items inside), the ticket resolves with
/// [`ServeFailure::Panicked`] instead of stranding its waiter. This
/// makes "every admitted ticket resolves" a structural property, not a
/// code-path-by-code-path promise.
struct Job {
    request_id: u64,
    first_seed: u64,
    request: MissionRequest,
    deadline_at: Option<Instant>,
    ticket: Option<Arc<TicketShared>>,
    admitted: Instant,
}

impl Job {
    /// Resolves the ticket (first resolution wins; the drop guard then
    /// has nothing left to do).
    fn resolve(&mut self, outcome: ServedOutcome) {
        if let Some(ticket) = self.ticket.take() {
            ticket.fulfill(outcome);
        }
    }
}

impl Drop for Job {
    fn drop(&mut self) {
        if let Some(ticket) = self.ticket.take() {
            ticket.fulfill(ServedOutcome {
                request_id: self.request_id,
                seed: self.first_seed,
                attempts: 0,
                result: MissionResult::Failed(ServeFailure::Panicked),
                decision: None,
                queue_ns: saturating_elapsed_ns(self.admitted),
                service_ns: 0,
            });
        }
    }
}

/// Shared engine state: the bounded queue plus admission counters.
struct EngineShared {
    queue: BoundedQueue<Job>,
    /// Next request id; incremented under the queue lock (inside
    /// `push_with`), so ids are dense and in admission order.
    next_id: AtomicU64,
    accepted: AtomicU64,
    rejected: AtomicU64,
    /// Worker panics caught by the supervisor (each one respawned).
    panics: AtomicU64,
    /// Requests shed at claim time because their deadline expired queued.
    expired: AtomicU64,
    /// Retry attempts executed beyond first attempts.
    retried: AtomicU64,
    governor: Option<Governor>,
}

/// The resident serving engine: a warm worker pool behind a bounded
/// request queue. See the [crate docs](crate) for the full contract.
pub struct MissionEngine {
    shared: Arc<EngineShared>,
    config: ServeConfig,
    workers: Vec<JoinHandle<()>>,
}

impl MissionEngine {
    /// Starts `config.workers` serving threads over `deployment`, each
    /// warming its [`MissionSession`] before accepting work.
    pub fn start(deployment: Arc<Deployment>, config: ServeConfig) -> Self {
        let shared = Arc::new(EngineShared {
            queue: BoundedQueue::new(config.queue),
            next_id: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            retried: AtomicU64::new(0),
            governor: config.governor.clone().map(Governor::new),
        });
        let chaos = config.chaos;
        let workers = (0..config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let dep = Arc::clone(&deployment);
                std::thread::Builder::new()
                    .name(format!("create-serve-{i}"))
                    .spawn(move || Self::worker(&shared, &dep, chaos))
                    .expect("spawn serve worker")
            })
            .collect();
        MissionEngine {
            shared,
            config,
            workers,
        }
    }

    /// One worker under supervision: the serving loop runs inside
    /// `catch_unwind`, and a panic — chaos-injected or real — respawns a
    /// fresh warmed session and keeps serving. The panicking mission's
    /// ticket was already resolved by [`Job`]'s drop guard during the
    /// unwind, so nothing waits on the dead iteration.
    fn worker(shared: &Arc<EngineShared>, dep: &Deployment, chaos: f64) {
        loop {
            let mut progressed = false;
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                Self::mission_loop(shared, dep, chaos, &mut progressed);
            }));
            match caught {
                Ok(()) => return, // queue closed and drained
                Err(payload) => {
                    shared.panics.fetch_add(1, Ordering::Relaxed);
                    if !progressed {
                        // Panicked before claiming a single job (session
                        // warm-up on a broken deployment): respawning
                        // would spin on the same panic forever. Let the
                        // thread die; shutdown propagates the payload.
                        std::panic::resume_unwind(payload);
                    }
                }
            }
        }
    }

    /// The serving loop proper: a warmed session claiming jobs until the
    /// queue closes and drains. Sets `progressed` once it claims work, so
    /// the supervisor can tell a mid-mission panic (respawnable) from a
    /// panic before any job ran (fatal).
    fn mission_loop(shared: &EngineShared, dep: &Deployment, chaos: f64, progressed: &mut bool) {
        let mut session = MissionSession::warmed(dep);
        while let Some(mut job) = shared.queue.pop() {
            *progressed = true;
            let queue_ns = saturating_elapsed_ns(job.admitted);

            // Shed rather than run: nobody is waiting for this anymore.
            if job.deadline_at.is_some_and(|at| Instant::now() >= at) {
                shared.expired.fetch_add(1, Ordering::Relaxed);
                let outcome = ServedOutcome {
                    request_id: job.request_id,
                    seed: job.first_seed,
                    attempts: 0,
                    result: MissionResult::Failed(ServeFailure::DeadlineExpired),
                    decision: None,
                    queue_ns,
                    service_ns: 0,
                };
                job.resolve(outcome);
                continue;
            }

            let decision = shared.governor.as_ref().map(|g| g.decide());
            let config = match &decision {
                Some(point) => point.apply(&job.request.config),
                None => job.request.config.clone(),
            };

            let started = Instant::now();
            let mut attempt = 0u32;
            let (seed, outcome) = loop {
                let seed = retry_seed(job.first_seed, attempt);
                if chaos_fires(chaos, seed) {
                    // `job`'s drop guard resolves the ticket with
                    // `Failed(Panicked)` during this unwind; the
                    // supervisor respawns the worker.
                    panic!(
                        "[create-serve] chaos: injected worker panic (request {})",
                        job.request_id
                    );
                }
                let outcome = session.run(job.request.task, &config, seed);
                attempt += 1;
                let deadline_hit = job.deadline_at.is_some_and(|at| Instant::now() >= at);
                if outcome.success || attempt > job.request.policy.retries || deadline_hit {
                    break (seed, outcome);
                }
                shared.retried.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(backoff_delay(
                    job.request.policy.backoff,
                    attempt,
                    job.first_seed ^ RETRY_SALT,
                ));
            };
            let service_ns = saturating_elapsed_ns(started);

            if let Some(governor) = &shared.governor {
                governor.observe(&outcome.error_signals(), outcome.energy_j());
            }
            let served = ServedOutcome {
                request_id: job.request_id,
                seed,
                attempts: attempt,
                result: MissionResult::Completed(outcome),
                decision,
                queue_ns,
                service_ns,
            };
            job.resolve(served);
        }
    }

    /// Submits a request. Admission is immediate and non-blocking: either
    /// the request is queued and a [`MissionTicket`] (with its final id
    /// and seed) comes back, or it is refused and handed back in a
    /// [`Rejected`] — never silently dropped, never blocked on a full
    /// queue. An already-expired deadline refuses at the door
    /// ([`RejectReason::DeadlineExpired`]); [`Priority::Batch`] requests
    /// are admitted only below the reduced batch bound.
    // The Err variant intentionally carries the whole request back to
    // the caller (retry/redirect without a clone); rejection is the
    // slow path, so its size does not matter.
    #[allow(clippy::result_large_err)]
    pub fn submit(&self, request: MissionRequest) -> Result<MissionTicket, Rejected> {
        let now = Instant::now();
        let deadline_at = match request.policy.deadline {
            Some(Deadline::Within(d)) => Some(now + d),
            Some(Deadline::At(at)) => Some(at),
            None => self.config.default_deadline.map(|d| now + d),
        };
        if deadline_at.is_some_and(|at| at <= now) {
            self.shared.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(Rejected {
                request,
                reason: RejectReason::DeadlineExpired,
            });
        }
        let limit = match request.policy.priority {
            Priority::Interactive => self.config.queue,
            Priority::Batch => self
                .config
                .queue
                .saturating_sub(self.config.interactive_reserve),
        };
        let mut pending = Some(request);
        let mut ticket = None;
        let pushed = self.shared.queue.push_with_limit(limit, || {
            // Runs under the queue lock, only on admission: ids are dense,
            // in admission order, with no gaps for rejected requests.
            let request_id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
            let seed = request_seed(self.config.base_seed, request_id);
            let shared = Arc::new(TicketShared::default());
            ticket = Some(MissionTicket {
                request_id,
                seed,
                shared: Arc::clone(&shared),
            });
            Job {
                request_id,
                first_seed: seed,
                request: pending.take().expect("request consumed once"),
                deadline_at,
                ticket: Some(shared),
                admitted: Instant::now(),
            }
        });
        match pushed {
            Ok(()) => {
                self.shared.accepted.fetch_add(1, Ordering::Relaxed);
                Ok(ticket.expect("admitted request has a ticket"))
            }
            Err(err) => {
                self.shared.rejected.fetch_add(1, Ordering::Relaxed);
                let reason = match err {
                    PushError::Full => RejectReason::QueueFull {
                        capacity: self.shared.queue.capacity(),
                    },
                    PushError::Closed => RejectReason::ShuttingDown,
                };
                Err(Rejected {
                    request: pending.take().expect("rejected request is handed back"),
                    reason,
                })
            }
        }
    }

    /// The configuration the engine started with.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Requests currently queued (admitted, not yet claimed by a worker).
    pub fn queued(&self) -> usize {
        self.shared.queue.len()
    }

    /// Requests admitted so far.
    pub fn accepted(&self) -> u64 {
        self.shared.accepted.load(Ordering::Relaxed)
    }

    /// Requests refused so far (queue full, shutting down, or expired at
    /// admission).
    pub fn rejected(&self) -> u64 {
        self.shared.rejected.load(Ordering::Relaxed)
    }

    /// Worker panics caught and recovered by the supervisor so far.
    pub fn panics(&self) -> u64 {
        self.shared.panics.load(Ordering::Relaxed)
    }

    /// Requests shed at claim time because their deadline expired while
    /// queued.
    pub fn expired(&self) -> u64 {
        self.shared.expired.load(Ordering::Relaxed)
    }

    /// Retry attempts executed beyond first attempts.
    pub fn retried(&self) -> u64 {
        self.shared.retried.load(Ordering::Relaxed)
    }

    /// Snapshot of the adaptive governor (`None` on ungoverned engines).
    pub fn governor_report(&self) -> Option<GovernorReport> {
        self.shared.governor.as_ref().map(|g| g.report())
    }

    /// Stops admitting new requests: every subsequent
    /// [`submit`](Self::submit) is refused with
    /// [`RejectReason::ShuttingDown`]. Requests already accepted are
    /// still drained and their tickets still resolve. Idempotent.
    pub fn close(&self) {
        self.shared.queue.close();
    }

    /// Graceful shutdown: stops admitting ([`close`](Self::close)),
    /// **drains** every request already accepted (their tickets still
    /// resolve), then joins the workers. Dropping the engine does the
    /// same.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.shared.queue.close();
        for worker in self.workers.drain(..) {
            // Supervised workers only die with a panic payload when they
            // could not even start serving (warm-up panic with no job
            // claimed); propagate rather than hide that.
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
    }
}

impl Drop for MissionEngine {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// Monotonic elapsed nanoseconds, saturated into `u64` (585 years of
/// latency headroom).
fn saturating_elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_and_draws_match_known_answers() {
        assert_eq!(request_seed(0, 0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(request_seed(0x5E12E, 1), 0x8177_51D0_9336_0901);
        assert_eq!(request_seed(0x4E37, 12345), 0xD819_20BD_A71D_FA82);
        assert_eq!(request_seed(u64::MAX, u64::MAX), 0xB4D0_55FC_F2CB_BD7B);
        assert_eq!(retry_seed(0x1234, 1), 0x5A4D_7853_3D03_4CB5);
        assert_eq!(retry_seed(0x1234, 3), 0xAD00_2EDB_4259_D53A);
        assert_eq!([1, 2, 3].map(|s| chaos_fires(0.5, s)), [true, false, true]);
        let base = Duration::from_millis(10);
        let retry = |attempt| backoff_delay(base, attempt, 77 ^ RETRY_SALT);
        assert_eq!(retry(1), Duration::from_nanos(5_795_700));
        assert_eq!(retry(2), Duration::from_nanos(29_312_897));
        assert_eq!(retry(3), Duration::from_nanos(44_846_847));
    }

    #[test]
    fn request_seeds_are_deterministic_and_decorrelated() {
        assert_eq!(request_seed(7, 0), request_seed(7, 0));
        assert_ne!(request_seed(7, 0), request_seed(7, 1));
        assert_ne!(request_seed(7, 0), request_seed(8, 0));
        // Dense neighbouring ids must not produce near-identical seeds.
        let a = request_seed(0, 0);
        let b = request_seed(0, 1);
        assert!((a ^ b).count_ones() > 8, "a={a:#x} b={b:#x}");
    }

    #[test]
    fn retry_seeds_preserve_the_first_attempt_and_disperse_the_rest() {
        let first = request_seed(0xC0FFEE, 3);
        assert_eq!(retry_seed(first, 0), first, "attempt 0 is the contract");
        let retries: Vec<u64> = (1..5).map(|a| retry_seed(first, a)).collect();
        for (i, &r) in retries.iter().enumerate() {
            assert_ne!(r, first, "retry {} collides with the first seed", i + 1);
            assert_eq!(r, retry_seed(first, i as u32 + 1), "deterministic");
        }
        let distinct: std::collections::HashSet<_> = retries.iter().collect();
        assert_eq!(distinct.len(), retries.len());
    }

    #[test]
    fn chaos_decision_is_a_pure_function_of_seed() {
        assert!(!chaos_fires(0.0, 42));
        assert!(chaos_fires(1.0, 42));
        // Deterministic per seed at a fixed probability...
        for seed in 0..64u64 {
            assert_eq!(chaos_fires(0.3, seed), chaos_fires(0.3, seed));
        }
        // ...and roughly calibrated: ~30% of seeds fire at p = 0.3.
        let fired = (0..10_000u64).filter(|&s| chaos_fires(0.3, s)).count();
        assert!((2_500..3_500).contains(&fired), "fired {fired}/10000");
    }

    #[test]
    fn backoff_grows_is_jittered_and_caps_at_a_second() {
        let base = Duration::from_millis(10);
        for attempt in 1..6u32 {
            let d = backoff_delay(base, attempt, 7);
            let exp = base.as_secs_f64() * f64::from(1u32 << (attempt - 1));
            assert!(d.as_secs_f64() >= exp * 0.5 - 1e-9, "{d:?}");
            assert!(d.as_secs_f64() < (exp * 1.5).min(1.0) + 1e-9, "{d:?}");
        }
        let d1 = backoff_delay(base, 1, 7);
        let d2 = backoff_delay(base, 2, 7);
        assert!(d2 > d1, "exponential growth: {d1:?} -> {d2:?}");
        assert_eq!(d1, backoff_delay(base, 1, 7), "deterministic");
        assert_ne!(
            backoff_delay(base, 1, 7),
            backoff_delay(base, 1, 8),
            "jitter decorrelates requests"
        );
        assert!(backoff_delay(Duration::from_secs(30), 9, 7) <= Duration::from_secs(1));
    }

    #[test]
    fn builder_floors_workers_and_honors_zero_queue() {
        let cfg = ServeConfig::builder()
            .workers(0)
            .queue(0)
            .base_seed(9)
            .build();
        assert_eq!(cfg.workers, 1);
        assert_eq!(cfg.queue, 0, "explicit zero capacity is honored");
        assert_eq!(cfg.base_seed, 9);
        assert_eq!(cfg.interactive_reserve, 0, "reserve clamps to capacity");
    }

    #[test]
    fn builder_clamps_chaos_and_reserve() {
        let cfg = ServeConfig::builder()
            .queue(16)
            .chaos(7.5)
            .interactive_reserve(99)
            .build();
        assert_eq!(cfg.chaos, 1.0);
        assert_eq!(cfg.interactive_reserve, 16, "reserve clamps to capacity");
        let cfg = ServeConfig::builder().queue(16).chaos(f64::NAN).build();
        assert_eq!(cfg.chaos, 0.0);
        assert_eq!(cfg.interactive_reserve, 4, "default reserve is a quarter");
    }

    #[test]
    fn env_defaults_resolve_when_unset() {
        // The test env leaves CREATE_SERVE_* unset.
        if std::env::var("CREATE_SERVE_WORKERS").is_err()
            && std::env::var("CREATE_SERVE_QUEUE").is_err()
            && std::env::var("CREATE_SERVE_CHAOS").is_err()
            && std::env::var("CREATE_SERVE_DEADLINE_MS").is_err()
            && std::env::var("CREATE_SERVE_GOVERNOR").is_err()
        {
            let cfg = ServeConfig::from_env();
            assert_eq!(cfg.workers, create_core::engine::default_threads());
            assert_eq!(cfg.queue, 256);
            assert_eq!(cfg.base_seed, 0);
            assert_eq!(cfg.chaos, 0.0);
            assert_eq!(cfg.interactive_reserve, 64);
            assert_eq!(cfg.default_deadline, None);
            assert!(cfg.governor.is_none());
        }
    }

    #[test]
    fn reject_reasons_render_and_compose_as_errors() {
        assert_eq!(
            RejectReason::QueueFull { capacity: 4 }.to_string(),
            "request queue full (capacity 4)"
        );
        assert_eq!(
            RejectReason::ShuttingDown.to_string(),
            "engine is shutting down"
        );
        assert_eq!(
            RejectReason::DeadlineExpired.to_string(),
            "deadline expired before admission"
        );
        let rejected = Rejected {
            request: MissionRequest::new(create_env::TaskId::Log, CreateConfig::golden()),
            reason: RejectReason::DeadlineExpired,
        };
        let msg = rejected.to_string();
        assert!(msg.contains("deadline expired"), "{msg}");
        // `?`-composability: both types are std errors, with the reason
        // reachable through source().
        let err: Box<dyn std::error::Error> = Box::new(rejected);
        let source = err.source().expect("Rejected exposes its reason");
        assert_eq!(source.to_string(), "deadline expired before admission");
    }

    #[test]
    fn serve_failures_render() {
        assert_eq!(
            ServeFailure::Panicked.to_string(),
            "worker panicked mid-mission"
        );
        assert_eq!(
            ServeFailure::DeadlineExpired.to_string(),
            "deadline expired while queued"
        );
    }

    #[test]
    fn served_outcome_accessors_distinguish_completion_from_failure() {
        let failed = ServedOutcome {
            request_id: 1,
            seed: 2,
            attempts: 0,
            result: MissionResult::Failed(ServeFailure::Panicked),
            decision: None,
            queue_ns: 10,
            service_ns: 5,
        };
        assert_eq!(failed.latency_ns(), 15);
        assert!(failed.outcome().is_none());
        assert!(!failed.is_success());
        assert_eq!(failed.failure(), Some(ServeFailure::Panicked));
    }

    #[test]
    fn policy_builders_compose() {
        let policy = RequestPolicy::default()
            .with_deadline(Duration::from_millis(50))
            .batch()
            .with_retries(2);
        assert_eq!(
            policy.deadline,
            Some(Deadline::Within(Duration::from_millis(50)))
        );
        assert_eq!(policy.priority, Priority::Batch);
        assert_eq!(policy.retries, 2);
        let default = RequestPolicy::default();
        assert_eq!(default.priority, Priority::Interactive);
        assert_eq!(default.retries, 0);
        assert!(default.deadline.is_none());
    }
}
