//! Shared plumbing for the per-figure experiment harnesses.
//!
//! Every `benches/figXX_*.rs` target is a `harness = false` binary that
//! regenerates one table or figure of the paper: it loads the cached
//! trained agents, runs the experiment at `CREATE_REPS` repetitions
//! (default 40), prints the paper's rows/series as an aligned table, and
//! mirrors the data into the schema-versioned results store
//! (`results/*.json`, see [`create_core::results`]).

use create_agents::AgentSystem;
use create_core::prelude::*;
use create_env::TaskId;
use create_tensor::Precision;
use std::time::Instant;

/// Loads (or trains) the JARVIS-1 testbed and deploys it at INT8.
pub fn jarvis_deployment() -> Deployment {
    let system = AgentSystem::jarvis();
    Deployment::new(&system, Precision::Int8)
}

/// The LDO-grid candidates scanned by minimal-voltage searches, gentle to
/// aggressive.
pub const V_SEARCH_GRID: [f64; 9] = [0.90, 0.89, 0.88, 0.87, 0.86, 0.85, 0.84, 0.83, 0.82];

/// Iso-task-quality acceptance used by the Fig. 16/17 minimal-voltage
/// searches: success within one trial of golden, and successful-trial
/// steps within 2.5× golden (unchecked step inflation is what inverts
/// per-task energy — Fig. 1d).
pub fn sustains_quality(golden: &SweepPoint, p: &SweepPoint) -> bool {
    let slack = 1.0 / p.n.max(1) as f64 + 1e-9;
    let success_ok = p.success_rate >= golden.success_rate - slack;
    let steps_ok = p.successes == 0 || p.avg_steps <= 2.5 * golden.avg_steps.max(1.0);
    success_ok && steps_ok
}

/// Scans [`V_SEARCH_GRID`] downward and returns the operating point for
/// `config_at(v)`: among the candidates that sustain `golden` task
/// quality (the scan stops at the first violation), the one with the
/// lowest compute energy is selected — an engineer would never deploy a
/// voltage that *costs* energy, which can otherwise happen at small rep
/// counts when a single within-slack failure carries its full step
/// budget. The gentlest candidate is always accepted as the anchor, so
/// the result is total.
pub fn min_voltage_point(
    dep: &Deployment,
    task: TaskId,
    golden: &SweepPoint,
    reps: u32,
    seed: u64,
    config_at: impl Fn(f64) -> CreateConfig,
) -> (f64, SweepPoint) {
    let mut best_v = V_SEARCH_GRID[0];
    let mut best = run_point(dep, task, &config_at(V_SEARCH_GRID[0]), reps, seed);
    for &v in &V_SEARCH_GRID[1..] {
        let p = run_point(dep, task, &config_at(v), reps, seed);
        if !sustains_quality(golden, &p) {
            break;
        }
        if p.avg_compute_j < best.avg_compute_j {
            best_v = v;
            best = p;
        }
    }
    (best_v, best)
}

/// A labeled experiment grid: harnesses collect `(row labels, task,
/// config)` cells from their nested loops, then fan **every trial of every
/// cell** over one engine worker pool with [`LabeledGrid::run`] — instead
/// of spinning a fresh pool per cell the way the old per-point loops did.
#[derive(Default)]
pub struct LabeledGrid {
    cells: Vec<(Vec<String>, TaskId, CreateConfig)>,
}

impl LabeledGrid {
    /// An empty grid.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one cell; `label` is whatever row prefix the figure's table
    /// needs to identify it.
    pub fn push(&mut self, label: Vec<String>, task: TaskId, config: CreateConfig) {
        self.cells.push((label, task, config));
    }

    /// Runs all cells at `reps` trials each over one worker pool and
    /// returns `(label, point)` per cell, in insertion order.
    pub fn run(self, dep: &Deployment, reps: u32, seed: u64) -> Vec<(Vec<String>, SweepPoint)> {
        let points = run_config_grid(
            dep,
            self.cells
                .iter()
                .map(|(_, task, config)| (*task, config.clone())),
            reps,
            seed,
        );
        self.cells
            .into_iter()
            .zip(points)
            .map(|((label, _, _), p)| (label, p))
            .collect()
    }
}

/// One machine-readable benchmark record destined for a
/// `results/BENCH_*.json` store document — the results-store
/// [`create_core::results::Record`] builder under its historical bench
/// name. Future PRs diff these files to track the performance trajectory
/// (see `BENCH_kernels.json` / `BENCH_fig01.json`).
pub use create_core::results::Record as BenchRecord;

/// A value in a parsed flat bench record (the results-store
/// [`create_core::results::Value`]).
pub use create_core::results::Value as BenchValue;

/// One parsed record from a `results/BENCH_*.json` file: ordered
/// key/value pairs, exactly as [`BenchRecord`] emitted them.
pub use create_core::results::FlatRecord;

/// Writes `records` to `results/BENCH_<name>.json` as a schema-versioned
/// store document (one record per line, so diffs stay reviewable),
/// crash-safely (temp file + fsync + atomic rename), and logs the path.
pub fn emit_bench_json(name: &str, records: &[BenchRecord]) {
    let path = results_dir().join(format!("BENCH_{name}.json"));
    match create_core::results::write_doc(&path, name, records) {
        Ok(()) => println!("[bench-json] {}", path.display()),
        Err(e) => eprintln!("[bench-json] failed to write {}: {e}", path.display()),
    }
}

/// Parses the records of a `results/BENCH_*.json` file: either the
/// schema-versioned envelope [`emit_bench_json`] writes today or the
/// legacy bare-array format committed baselines still use (see
/// [`create_core::results::parse_doc`] — the envelope metadata is
/// dropped because record matching goes by [`record_key`], not by
/// document identity).
pub fn parse_bench_json(text: &str) -> Result<Vec<FlatRecord>, String> {
    create_core::results::parse_doc(text).map(|doc| doc.records)
}

/// The identity of a record across runs: every string field plus every
/// *configuration* number (rendered without a decimal point — shapes,
/// thread counts, rep counts). [`BenchRecord::num`] always renders with
/// a decimal point, so values emitted through it never leak into the
/// key — which is why emitters must route **measured** quantities
/// through `.num(..)` (even integral ones, e.g. fig01's
/// `approx_success_steps`) and reserve `.int(..)`/`.str(..)` for
/// configuration: a measured value in the key would silently unmatch
/// the record from its baseline the moment behavior changes, turning
/// the regression gate off exactly when it matters.
pub fn record_key(record: &FlatRecord) -> String {
    let mut key = String::new();
    for (k, v) in record {
        match v {
            BenchValue::Str(s) => {
                key.push_str(&format!("{k}={s};"));
            }
            BenchValue::Num { raw, .. } if !raw.contains('.') => {
                key.push_str(&format!("{k}={raw};"));
            }
            _ => {}
        }
    }
    key
}

/// The measured metric `bench_report` gates on, per record:
/// `(field, value, higher_is_better)`. Wall-clock style metrics
/// (`ns_per_iter`, `s_per_epoch`) gate as lower-is-better; throughput
/// metrics (`trials_per_s`, the serve bench's `missions_per_s`, the net
/// bench's `requests_per_s`) and the fault-serving bench's
/// `success_rate` as higher-is-better. Records without a recognized
/// metric (or with a `null` one) are not gated. First listed metric
/// present in the record wins, so emitters that record several of these
/// put the one they want gated first.
pub fn primary_metric(record: &FlatRecord) -> Option<(&'static str, f64, bool)> {
    const METRICS: [(&str, bool); 6] = [
        ("ns_per_iter", false),
        ("s_per_epoch", false),
        ("trials_per_s", true),
        ("missions_per_s", true),
        ("requests_per_s", true),
        ("success_rate", true),
    ];
    for (name, higher_is_better) in METRICS {
        if let Some((_, BenchValue::Num { value, .. })) = record.iter().find(|(k, _)| k == name) {
            return Some((name, *value, higher_is_better));
        }
    }
    None
}

/// Median wall-clock nanoseconds per iteration of `f`, measured with a
/// short calibration warm-up — the fixed-cost timer behind the
/// `BENCH_*.json` records (criterion's shim prints human-readable output;
/// this produces the machine-readable numbers).
pub fn time_ns_per_iter(mut f: impl FnMut()) -> f64 {
    use std::time::Instant;
    // Calibrate: how many iterations fit ~20 ms?
    let start = Instant::now();
    let mut calib_iters = 0u64;
    while start.elapsed().as_millis() < 20 {
        f();
        calib_iters += 1;
    }
    let per_iter = start.elapsed().as_secs_f64() / calib_iters.max(1) as f64;
    let iters_per_sample = ((0.02 / per_iter.max(1e-9)) as u64).clamp(1, 1_000_000_000);
    // 9 samples of ~20 ms each; report the median against noise.
    let mut samples: Vec<f64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters_per_sample {
                f();
            }
            t.elapsed().as_secs_f64() * 1e9 / iters_per_sample as f64
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("times are finite"));
    samples[samples.len() / 2]
}

/// Fewest samples a reported p99 needs: below this the nearest-rank 99th
/// percentile is the sample maximum (or its neighbour), so the tail is
/// reported as the maximum under its own name.
const P99_MIN_SAMPLES: usize = 100;

/// Nearest-rank percentile `p` (in `[0, 1]`) of ascending nanosecond
/// samples, in milliseconds; `0` when there are none.
pub fn percentile_ms(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((p * (sorted_ns.len() - 1) as f64).round() as usize).min(sorted_ns.len() - 1);
    sorted_ns[idx] as f64 / 1e6
}

/// The latency tail of ascending nanosecond samples as `(field, ms)`:
/// `("p99_ms", p99)` from 100 samples on, `("max_ms", max)` below that,
/// so a record never labels a sample maximum "p99".
pub fn tail_ms(sorted_ns: &[u64]) -> (&'static str, f64) {
    if sorted_ns.len() >= P99_MIN_SAMPLES {
        ("p99_ms", percentile_ms(sorted_ns, 0.99))
    } else {
        ("max_ms", percentile_ms(sorted_ns, 1.0))
    }
}

/// Prints a figure banner.
pub fn banner(figure: &str, caption: &str) {
    println!();
    println!("=== {figure} — {caption} ===");
}

/// Prints a table and mirrors it into the results store at
/// `results/<name>.json` (crash-safe schema-versioned document; each row
/// becomes one record keyed by the column headers).
pub fn emit(table: &TextTable, name: &str) {
    println!("{}", table.render());
    let path = results_dir().join(format!("{name}.json"));
    match create_core::results::write_doc(&path, name, &table.to_records()) {
        Ok(()) => println!("[results] {}", path.display()),
        Err(e) => eprintln!("[results] failed to write {}: {e}", path.display()),
    }
}

/// Elapsed-time reporter for a whole bench target.
pub struct Stopwatch(Instant, &'static str);

impl Stopwatch {
    /// Starts timing a bench target.
    pub fn start(name: &'static str) -> Self {
        Self(Instant::now(), name)
    }
}

impl Drop for Stopwatch {
    fn drop(&mut self) {
        println!(
            "[{}] completed in {:.1}s",
            self.1,
            self.0.elapsed().as_secs_f64()
        );
    }
}

/// The BER grid used by characterization sweeps (log-spaced).
pub fn ber_grid(lo_exp: i32, hi_exp: i32, per_decade: &[f64]) -> Vec<f64> {
    let mut out = Vec::new();
    for e in lo_exp..=hi_exp {
        for &m in per_decade {
            let v = m * 10f64.powi(e);
            out.push(v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_records_render_as_flat_json_objects() {
        let r = BenchRecord::new()
            .str("bench", "gemm_i8")
            .str("shape", "16x256x256")
            .num("ns_per_iter", 1234.5)
            .int("macs", 1_048_576);
        assert_eq!(
            r.render(),
            "  {\"bench\": \"gemm_i8\", \"shape\": \"16x256x256\", \
             \"ns_per_iter\": 1234.500000, \"macs\": 1048576}"
        );
        let quoted = BenchRecord::new().str("k", "a\"b\\c");
        assert_eq!(quoted.render(), "  {\"k\": \"a\\\"b\\\\c\"}");
    }

    #[test]
    fn bench_json_round_trips_through_the_parser() {
        let records = [
            BenchRecord::new()
                .str("bench", "gemm_i8")
                .str("shape", "4x32x32")
                .str("backend", "wide")
                .num("ns_per_iter", 123.25)
                .int("macs", 4096)
                .num("macs_per_s", 3.3e10),
            BenchRecord::new().str("k", "a\"b\\c").num("nan", f64::NAN),
        ];
        let body: Vec<String> = records.iter().map(BenchRecord::render).collect();
        let json = format!("[\n{}\n]\n", body.join(",\n"));
        let parsed = parse_bench_json(&json).expect("parse");
        assert_eq!(parsed.len(), 2);
        assert_eq!(
            parsed[0][0],
            ("bench".to_string(), BenchValue::Str("gemm_i8".to_string()))
        );
        assert_eq!(
            record_key(&parsed[0]),
            "bench=gemm_i8;shape=4x32x32;backend=wide;macs=4096;"
        );
        let (metric, value, higher) = primary_metric(&parsed[0]).expect("metric");
        assert_eq!(metric, "ns_per_iter");
        assert!((value - 123.25).abs() < 1e-9);
        assert!(!higher);
        // Non-finite metrics render as null and are not gated.
        assert_eq!(parsed[1][1], ("nan".to_string(), BenchValue::Null));
        assert_eq!(primary_metric(&parsed[1]), None);
        assert!(parse_bench_json("not json").is_err());
    }

    #[test]
    fn throughput_metrics_gate_as_higher_is_better() {
        let r = BenchRecord::new()
            .str("bench", "fig01_voltage_sweep")
            .int("reps", 8)
            .num("elapsed_s", 8.5)
            .num("trials_per_s", 6.4);
        let parsed = parse_bench_json(&format!("[\n{}\n]\n", r.render())).expect("parse");
        let (metric, value, higher) = primary_metric(&parsed[0]).expect("metric");
        assert_eq!(metric, "trials_per_s");
        assert!((value - 6.4).abs() < 1e-9);
        assert!(higher);
        assert_eq!(record_key(&parsed[0]), "bench=fig01_voltage_sweep;reps=8;");
    }

    #[test]
    fn time_ns_per_iter_is_positive_and_sane() {
        let mut x = 0u64;
        let ns = time_ns_per_iter(|| {
            x = x.wrapping_add(std::hint::black_box(1));
        });
        assert!(ns > 0.0 && ns < 1e7, "implausible ns/iter: {ns}");
    }

    #[test]
    fn tail_is_the_max_below_a_hundred_samples_and_p99_from_there() {
        let ms = |n: u64| (1..=n).map(|i| i * 1_000_000).collect::<Vec<u64>>();
        assert_eq!(tail_ms(&ms(48)), ("max_ms", 48.0));
        assert_eq!(percentile_ms(&ms(48), 0.50), 25.0);
        assert_eq!(tail_ms(&ms(1000)), ("p99_ms", 990.0));
        assert_eq!(tail_ms(&[]), ("max_ms", 0.0));
    }

    #[test]
    fn ber_grid_is_log_spaced_and_sorted() {
        let g = ber_grid(-8, -6, &[1.0, 3.0]);
        assert_eq!(g.len(), 6);
        assert!(g.windows(2).all(|w| w[0] < w[1]));
        assert!((g[0] - 1e-8).abs() < 1e-20);
    }
}
