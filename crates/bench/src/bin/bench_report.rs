//! Diffs freshly written `results/BENCH_*.json` files against the
//! committed baselines in `results/baseline/`, prints a per-shape
//! speedup table, and exits non-zero when any gated metric regressed by
//! more than the tolerance (`CREATE_BENCH_TOLERANCE`, default `0.20` =
//! 20%).
//!
//! Records are matched by their configuration identity (every string
//! field plus every integer field — bench name, shape, backend, thread
//! count, …); the gated metric per record is wall-clock
//! (`ns_per_iter`/`s_per_epoch`, lower is better) or throughput
//! (`trials_per_s`/`missions_per_s`, higher is better). Fresh records
//! without a baseline
//! counterpart are reported as `new` and never gate; a missing fresh
//! file is skipped (that bench simply did not run). A missing or
//! unparseable *individual* file — fresh or baseline — warns and skips
//! that comparison rather than aborting the whole report: one corrupt
//! artifact must not mask regressions visible in the others. The
//! report exits non-zero only on a true regression or when the entire
//! comparison set ends up empty (nothing compared anywhere — e.g. no
//! `results/baseline/` directory; commit one with
//! `cp results/BENCH_*.json results/baseline/`).
//!
//! Two intra-run gates ride along, comparing fresh records against each
//! other (so machine speed cancels out): the `auto` dispatch backend
//! must match or beat the best single backend on every shape group, and
//! the persistent training pool must match or beat spawn-per-chunk at
//! the widest measured worker count.
//!
//! The sweep fabric's merged trajectory rides along: when the CI sweep
//! job stages its `merged.json` next to the `BENCH_*.json` files, every
//! grid point's `state_digest` must match `results/baseline/merged.json`
//! **bit-exactly** — the sweep is a determinism harness, so its gate is
//! equality, not a tolerance band.
//!
//! ```text
//! cargo run -p create-bench --bin bench_report
//! ```

use create_bench::{parse_bench_json, primary_metric, record_key, BenchValue, FlatRecord};
use create_core::prelude::results_dir;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

fn field_str<'a>(record: &'a FlatRecord, key: &str) -> Option<&'a str> {
    record.iter().find_map(|(k, v)| match v {
        BenchValue::Str(s) if k == key => Some(s.as_str()),
        _ => None,
    })
}

/// [`record_key`] with the named string field removed — the grouping key
/// for "same configuration, different backend/mode" comparisons.
fn key_without(record: &FlatRecord, field: &str) -> String {
    record_key(record)
        .split(';')
        .filter(|part| !part.is_empty() && !part.starts_with(&format!("{field}=")))
        .map(|part| format!("{part};"))
        .collect()
}

/// Gate: the `auto` dispatch backend must match or beat the best single
/// concrete backend on **every** measured shape (within tolerance) —
/// otherwise its compiled-in shape rule routed a shape to the wrong
/// kernel. Compares fresh records only (same run, same machine, same
/// noise floor), grouped by configuration-minus-backend.
fn gate_auto_vs_best(file: &str, fresh: &[FlatRecord], tolerance: f64) -> usize {
    let mut groups: BTreeMap<String, Vec<(&str, f64, bool)>> = BTreeMap::new();
    for record in fresh {
        let Some(backend) = field_str(record, "backend") else {
            continue;
        };
        let Some((_, value, higher_is_better)) = primary_metric(record) else {
            continue;
        };
        if !value.is_finite() || value <= 0.0 {
            continue;
        }
        groups
            .entry(key_without(record, "backend"))
            .or_default()
            .push((backend, value, higher_is_better));
    }
    let mut violations = 0usize;
    let mut compared = 0usize;
    for (key, entries) in &groups {
        let Some(&(_, auto, higher_is_better)) = entries.iter().find(|(b, _, _)| *b == "auto")
        else {
            continue;
        };
        let concrete: Vec<f64> = entries
            .iter()
            .filter(|(b, _, _)| *b != "auto")
            .map(|&(_, v, _)| v)
            .collect();
        if concrete.is_empty() {
            continue;
        }
        compared += 1;
        let (best, ok) = if higher_is_better {
            let best = concrete.iter().cloned().fold(f64::MIN, f64::max);
            (best, auto >= best * (1.0 - tolerance))
        } else {
            let best = concrete.iter().cloned().fold(f64::MAX, f64::min);
            (best, auto <= best * (1.0 + tolerance))
        };
        if !ok {
            violations += 1;
            eprintln!(
                "  AUTO-DISPATCH MISS  {key}  auto {auto:.3} vs best single backend {best:.3}"
            );
        }
    }
    println!(
        "[bench-report] {file}: auto matched/beat the best single backend on \
         {}/{compared} shape groups",
        compared - violations
    );
    violations
}

/// Gate: the persistent worker pool must train at least as fast as the
/// old spawn-per-chunk fan-out at the widest measured worker count
/// (within tolerance) — the whole point of parking workers on a condvar.
fn gate_pool_vs_spawn(file: &str, fresh: &[FlatRecord], tolerance: f64) -> usize {
    let mut groups: BTreeMap<String, (Option<f64>, Option<f64>)> = BTreeMap::new();
    for record in fresh {
        let Some(mode) = field_str(record, "mode") else {
            continue;
        };
        let Some((_, value, _)) = primary_metric(record) else {
            continue;
        };
        if !value.is_finite() || value <= 0.0 {
            continue;
        }
        let slot = groups.entry(key_without(record, "mode")).or_default();
        match mode {
            "pool" => slot.0 = Some(value),
            "spawn" => slot.1 = Some(value),
            _ => {}
        }
    }
    // Gate only the widest worker count: at 1 worker both run inline and
    // at low counts the two are within noise of each other by design.
    let widest = groups
        .keys()
        .filter_map(|k| {
            k.split(';').find_map(|p| {
                p.strip_prefix("threads=")
                    .and_then(|t| t.parse::<u64>().ok())
            })
        })
        .max();
    let mut violations = 0usize;
    let mut compared = 0usize;
    for (key, (pool, spawn)) in &groups {
        let (Some(pool), Some(spawn)) = (pool, spawn) else {
            continue;
        };
        let threads = key.split(';').find_map(|p| {
            p.strip_prefix("threads=")
                .and_then(|t| t.parse::<u64>().ok())
        });
        if threads != widest {
            continue;
        }
        compared += 1;
        // s_per_epoch: lower is better.
        if *pool > *spawn * (1.0 + tolerance) {
            violations += 1;
            eprintln!(
                "  POOL SLOWER THAN SPAWN  {key}  pool {pool:.4} s/epoch vs spawn {spawn:.4}"
            );
        }
    }
    println!(
        "[bench-report] {file}: persistent pool >= spawn-per-chunk on \
         {}/{compared} widest-fan-out train runs",
        compared - violations
    );
    violations
}

/// Gate: across the fault-serving sweep, the adaptive governor must hold
/// static DMR's mission success (within a small absolute slack — the
/// missions it loses while still probing the cheap rungs) while spending
/// **measurably less** energy than always-DMR where protection is not
/// needed — otherwise the governor is either failing its SLO or not
/// actually saving anything. Energy is judged per BER level, because the
/// hot levels dominate any aggregate (a faulty mission meters 20–50× a
/// clean one) while the savings live on the quasi-clean traffic that
/// dominates real deployments: at **every** level adaptive must stay
/// within 10% of DMR (it escalates within a mission or two, so it never
/// pays much more than always-on protection), and on **at least one**
/// level it must spend ≤ 80% of DMR (the clean level, where always-DMR
/// burns redundant executions for nothing). Fresh records only — one run
/// compared against itself, so machine speed cancels out; the values are
/// seed-deterministic, so the thresholds are exact, not noise floors.
fn gate_adaptive_vs_static(file: &str, fresh: &[FlatRecord]) -> usize {
    fn num(record: &FlatRecord, key: &str) -> Option<f64> {
        record.iter().find_map(|(k, v)| match v {
            BenchValue::Num { value, .. } if k == key => Some(*value),
            _ => None,
        })
    }
    // Per level (configuration minus mode): per-mode (successes, avg J).
    let mut levels: BTreeMap<String, BTreeMap<&str, (f64, f64)>> = BTreeMap::new();
    for record in fresh {
        let (Some(mode), Some(rate), Some(avg_j), Some(missions)) = (
            field_str(record, "mode"),
            num(record, "success_rate"),
            num(record, "avg_energy_j"),
            num(record, "missions"),
        ) else {
            continue;
        };
        if !matches!(mode, "adaptive" | "dmr") {
            continue;
        }
        levels
            .entry(key_without(record, "mode"))
            .or_default()
            .insert(mode, (rate * missions, avg_j));
    }
    let mut violations = 0usize;
    let mut compared = 0usize;
    let mut min_ratio = f64::MAX;
    let mut adaptive_ok = 0.0f64;
    let mut dmr_ok = 0.0f64;
    for (key, modes) in &levels {
        let (Some(&(a_ok, a_j)), Some(&(d_ok, d_j))) = (modes.get("adaptive"), modes.get("dmr"))
        else {
            continue;
        };
        compared += 1;
        adaptive_ok += a_ok;
        dmr_ok += d_ok;
        let ratio = a_j / d_j.max(1e-12);
        min_ratio = min_ratio.min(ratio);
        if ratio > 1.10 {
            violations += 1;
            eprintln!(
                "  GOVERNOR OVERSPENDS DMR  {key}  adaptive {a_j:.3} J/mission vs dmr {d_j:.3} \
                 (must stay within 10%)"
            );
        }
    }
    if compared == 0 {
        println!("[bench-report] {file}: no adaptive/dmr level pairs, gate skipped");
        return 0;
    }
    // Slack: two missions — the cost of probing the cheap rung before the
    // first escalation at each hot level.
    let slack = 2.0;
    if adaptive_ok + slack < dmr_ok {
        violations += 1;
        eprintln!(
            "  GOVERNOR MISSES DMR SUCCESS  adaptive {adaptive_ok:.1} vs dmr {dmr_ok:.1} \
             successful missions (slack {slack:.1})"
        );
    }
    if min_ratio > 0.80 {
        violations += 1;
        eprintln!(
            "  GOVERNOR SAVES NO ENERGY  best adaptive/dmr energy ratio {min_ratio:.2} across \
             {compared} levels (some level must be <= 0.80)"
        );
    }
    println!(
        "[bench-report] {file}: adaptive {adaptive_ok:.1}/{dmr_ok:.1} dmr successes, \
         best per-level energy ratio {min_ratio:.2} over {compared} levels"
    );
    violations
}

/// The bench files the report covers (the machine-readable trajectory).
const BENCH_FILES: [&str; 6] = [
    "BENCH_kernels.json",
    "BENCH_fig01.json",
    "BENCH_train.json",
    "BENCH_serve.json",
    "BENCH_serve_faulty.json",
    "BENCH_net.json",
];

fn load(path: &Path) -> Result<Vec<FlatRecord>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse_bench_json(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The identity of one sweep grid point inside `merged.json`. Built by
/// hand rather than via [`record_key`] because the sweep's `voltage_v`
/// is emitted with a decimal point (so the generic key would drop it)
/// while `state_digest` is a string (so the generic key would *include*
/// it — and digest drift is exactly the regression this comparison
/// exists to flag, not a reason to unmatch the record).
fn sweep_point_key(record: &FlatRecord) -> Option<String> {
    let task = field_str(record, "task")?;
    let voltage = record.iter().find_map(|(k, v)| match v {
        BenchValue::Num { raw, .. } if k == "voltage_v" => Some(raw.as_str()),
        _ => None,
    })?;
    let n = record.iter().find_map(|(k, v)| match v {
        BenchValue::Num { raw, .. } if k == "n" => Some(raw.as_str()),
        _ => None,
    })?;
    Some(format!("task={task};voltage_v={voltage};n={n}"))
}

/// Compares the sweep fabric's merged trajectory (`results/merged.json`,
/// staged there by the CI sweep job) against the committed baseline in
/// `results/baseline/merged.json`, point by point. The gate is the
/// `state_digest` field — the merged accumulator's exact bit state — so
/// any ulp of drift anywhere in the mission/trial/accumulation path
/// fails the report, not just drift large enough to move a rounded
/// average. Returns `(points compared, regressions)`.
fn compare_sweep_trajectory(fresh_dir: &Path, baseline_dir: &Path) -> (usize, usize) {
    let file = "merged.json";
    let fresh_path = fresh_dir.join(file);
    if !fresh_path.is_file() {
        println!("[bench-report] {file}: no fresh sweep trajectory, skipped");
        return (0, 0);
    }
    let baseline_path = baseline_dir.join(file);
    if !baseline_path.is_file() {
        println!("[bench-report] {file}: no committed baseline, skipped");
        return (0, 0);
    }
    let (fresh, baseline) = match (load(&fresh_path), load(&baseline_path)) {
        (Ok(f), Ok(b)) => (f, b),
        (f, b) => {
            for err in [f.err(), b.err()].into_iter().flatten() {
                eprintln!("[bench-report] {err} — skipping this comparison");
            }
            return (0, 0);
        }
    };
    let by_key: BTreeMap<String, &FlatRecord> = baseline
        .iter()
        .filter_map(|r| Some((sweep_point_key(r)?, r)))
        .collect();
    let mut compared = 0usize;
    let mut regressions = 0usize;
    let mut fresh_only = 0usize;
    for record in &fresh {
        let Some(key) = sweep_point_key(record) else {
            continue;
        };
        let Some(base_record) = by_key.get(&key) else {
            fresh_only += 1;
            continue;
        };
        let (Some(digest), Some(base_digest)) = (
            field_str(record, "state_digest"),
            field_str(base_record, "state_digest"),
        ) else {
            continue;
        };
        compared += 1;
        if digest != base_digest {
            regressions += 1;
            eprintln!(
                "  SWEEP TRAJECTORY DRIFT  {key}  state digest {} -> {} (merged accumulator \
                 bit state changed)",
                &base_digest[..16.min(base_digest.len())],
                &digest[..16.min(digest.len())]
            );
        }
    }
    println!(
        "\n=== {file}: {compared} sweep points compared bit-exactly, {fresh_only} new ===\n\
         [bench-report] {file}: {}/{compared} grid points replayed bit-identically",
        compared - regressions
    );
    (compared, regressions)
}

/// One comparison row: `(key, baseline, current, speedup)`.
struct Row {
    key: String,
    metric: &'static str,
    baseline: f64,
    current: f64,
    speedup: f64,
}

fn main() -> ExitCode {
    let tolerance = create_tensor::envcfg::read_validated("CREATE_BENCH_TOLERANCE", 0.20f64, |s| {
        match s.trim().parse::<f64>() {
            Ok(v) if v.is_finite() && v >= 0.0 => Ok(v),
            _ => Err("expected a non-negative fraction, e.g. 0.20".to_string()),
        }
    });
    let fresh_dir = results_dir();
    let baseline_dir = fresh_dir.join("baseline");
    if !baseline_dir.is_dir() {
        // Warn but keep going: every comparison below will skip on its
        // missing baseline file, and the empty-comparison-set check at
        // the end turns "nothing was compared at all" into the failure.
        eprintln!(
            "[bench-report] no baseline directory at {} — commit one with \
             `cp results/BENCH_*.json results/baseline/`",
            baseline_dir.display()
        );
    }

    let mut regressions = 0usize;
    let mut compared = 0usize;
    for file in BENCH_FILES {
        let fresh_path = fresh_dir.join(file);
        if !fresh_path.is_file() {
            println!("[bench-report] {file}: no fresh results, skipped");
            continue;
        }
        let baseline_path = baseline_dir.join(file);
        if !baseline_path.is_file() {
            println!("[bench-report] {file}: no committed baseline, skipped");
            continue;
        }
        let (fresh, baseline) = match (load(&fresh_path), load(&baseline_path)) {
            (Ok(f), Ok(b)) => (f, b),
            (f, b) => {
                // A corrupt file knocks out this comparison, not the
                // report: warn and move on to the remaining files.
                for err in [f.err(), b.err()].into_iter().flatten() {
                    eprintln!("[bench-report] {err} — skipping this comparison");
                }
                continue;
            }
        };
        let by_key: BTreeMap<String, &FlatRecord> =
            baseline.iter().map(|r| (record_key(r), r)).collect();
        let mut rows: Vec<Row> = Vec::new();
        let mut fresh_only = 0usize;
        for record in &fresh {
            let Some((metric, current, higher_is_better)) = primary_metric(record) else {
                continue;
            };
            let key = record_key(record);
            let Some(base_record) = by_key.get(&key) else {
                fresh_only += 1;
                continue;
            };
            let Some((_, base, _)) = primary_metric(base_record) else {
                continue;
            };
            if !(base.is_finite() && current.is_finite()) || base <= 0.0 || current <= 0.0 {
                continue;
            }
            // Speedup > 1 always means "this run is faster than baseline".
            let speedup = if higher_is_better {
                current / base
            } else {
                base / current
            };
            rows.push(Row {
                key,
                metric,
                baseline: base,
                current,
                speedup,
            });
        }
        println!();
        println!(
            "=== {file}: {} compared, {fresh_only} new (tolerance {:.0}%) ===",
            rows.len(),
            tolerance * 100.0
        );
        let width = rows.iter().map(|r| r.key.len()).max().unwrap_or(0).min(90);
        for row in &rows {
            let flag = if row.speedup < 1.0 - tolerance {
                regressions += 1;
                "  << REGRESSION"
            } else if row.speedup > 1.0 + tolerance {
                "  (improved)"
            } else {
                ""
            };
            println!(
                "  {:<width$}  {:>12} {:>14.3} -> {:>14.3}  {:>6.2}x{flag}",
                row.key, row.metric, row.baseline, row.current, row.speedup,
            );
        }
        compared += rows.len();
        // The intra-run gates exist to catch *routing mistakes* — a
        // shape sent to a kernel that is 2–4× off the winner — not
        // measurement drift: on shared/virtualized hosts the measured
        // speed of the *same* kernel swings by ~30% minute to minute
        // (an A/B check of dispatched-vs-direct calls shows <2% true
        // overhead). Floor their tolerance accordingly.
        let gate_tolerance = tolerance.max(0.50);
        regressions += gate_auto_vs_best(file, &fresh, gate_tolerance);
        if file == "BENCH_train.json" {
            regressions += gate_pool_vs_spawn(file, &fresh, gate_tolerance);
        }
        if file == "BENCH_serve_faulty.json" {
            // Success/energy records are seed-deterministic, not timing
            // measurements: the gate runs at its own fixed thresholds.
            regressions += gate_adaptive_vs_static(file, &fresh);
        }
    }
    let (sweep_compared, sweep_regressions) = compare_sweep_trajectory(&fresh_dir, &baseline_dir);
    compared += sweep_compared;
    regressions += sweep_regressions;
    println!();
    if regressions > 0 {
        eprintln!(
            "[bench-report] {regressions} metric(s) regressed by more than {:.0}% \
             against results/baseline/",
            tolerance * 100.0
        );
        return ExitCode::FAILURE;
    }
    if compared == 0 {
        eprintln!(
            "[bench-report] empty comparison set: no fresh record matched any committed \
             baseline — run the benches and/or refresh results/baseline/"
        );
        return ExitCode::FAILURE;
    }
    println!("[bench-report] {compared} metrics within tolerance of the committed baselines");
    ExitCode::SUCCESS
}
