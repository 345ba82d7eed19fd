//! Training-stack benchmark: the f32 GEMM kernels at the testbed shapes
//! the planner/controller training loops actually run, head-to-head
//! across [`FloatBackendKind`]s, plus end-to-end training throughput
//! (epochs/s) for both proxy agents at 1, 2 and 4 data-parallel workers.
//!
//! Writes `results/BENCH_train.json` so every future PR has a training
//! baseline to beat (`bench_report` diffs it against
//! `results/baseline/`). The GEMM section measures *every* backend
//! in-process (they are called directly, not through the env-selected
//! global), so a single run records the scalar-vs-blocked-vs-wide-vs-auto
//! speedups and lets `bench_report` gate `auto` against the best single
//! backend per shape; the end-to-end section runs under whatever
//! `CREATE_F32_BACKEND` selected (recorded per record) — CI runs it
//! under several values — and measures the persistent worker pool
//! against the old spawn-per-chunk fan-out at 1, 2 and 4 workers.

use create_agents::presets::{ControllerPreset, PlannerPreset};
use create_agents::{
    datasets, vocab, ControllerModel, ControllerTrainScratch, PlannerModel, PlannerTrainScratch,
};
use create_bench::{banner, emit_bench_json, time_ns_per_iter, BenchRecord, Stopwatch};
use create_env::TaskId;
use create_tensor::{FloatBackendKind, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// Testbed shapes drawn from the proxy training loops (d = 32, MLP = 64,
/// planner sequences up to `MAX_SEQ`, controller 4-token sequences, the
/// one-hot view featurizer, and the vocab-wide head).
fn training_shapes() -> Vec<(&'static str, usize, usize, usize)> {
    let t = vocab::MAX_SEQ; // longest planner teacher-forcing sequence
    let v = vocab::VOCAB;
    vec![
        ("block_proj", t, 32, 32),   // x @ wq/wk/wv/wo
        ("mlp_up", t, 32, 64),       // x @ wgate/wup (and fc1)
        ("mlp_down", t, 64, 32),     // prod @ wdown (and fc2)
        ("head", t, 32, v),          // normed @ head.w
        ("ctrl_tokens", 4, 32, 32),  // controller 4-token block GEMMs
        ("view_onehot", 1, 686, 32), // one-hot view featurizer (sparse)
    ]
}

fn dense(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    Matrix::random_uniform(rows, cols, 1.0, rng)
}

/// ~1-hot-per-49-cells sparse input, matching `view_one_hot`'s density —
/// this is where the reference's zero-skip (preserved bit-exactly by the
/// blocked backend) pays off.
fn sparse_rowlike(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| {
        if rng.random_range(0.0f32..1.0) < 0.07 {
            1.0
        } else {
            0.0
        }
    })
}

fn bench_f32_gemms(records: &mut Vec<BenchRecord>) {
    banner(
        "train/gemm",
        "f32 training GEMMs, scalar vs blocked vs wide",
    );
    let mut rng = StdRng::seed_from_u64(11);
    for (label, m, k, n) in training_shapes() {
        let a = if label == "view_onehot" {
            sparse_rowlike(m, k, &mut rng)
        } else {
            dense(m, k, &mut rng)
        };
        let b = dense(k, n, &mut rng);
        let bt = dense(n, k, &mut rng);
        let c = dense(m, n, &mut rng);
        let flops = 2.0 * (m * k * n) as f64;
        let mut out = Matrix::default();
        let mut per_backend: Vec<(FloatBackendKind, [f64; 3])> = Vec::new();
        for kind in FloatBackendKind::ALL {
            let backend = kind.backend();
            // Forward product, input-gradient product, weight-gradient
            // product — the three GEMMs every training layer performs.
            let nn = time_ns_per_iter(|| {
                backend.matmul_into(black_box(&a), black_box(&b), &mut out);
                black_box(out.len());
            });
            let nt = time_ns_per_iter(|| {
                backend.matmul_nt_into(black_box(&a), black_box(&bt), &mut out);
                black_box(out.len());
            });
            let tn = time_ns_per_iter(|| {
                backend.matmul_tn_into(black_box(&a), black_box(&c), &mut out);
                black_box(out.len());
            });
            for (op, ns) in [("matmul", nn), ("matmul_nt", nt), ("matmul_tn", tn)] {
                records.push(
                    BenchRecord::new()
                        .str("bench", "f32_gemm")
                        .str("op", op)
                        .str("site", label)
                        .str("shape", format!("{m}x{k}x{n}"))
                        .str("backend", kind.name())
                        .num("ns_per_iter", ns)
                        .num("gflops", flops / ns),
                );
            }
            per_backend.push((kind, [nn, nt, tn]));
        }
        if let Some((_, scalar)) = per_backend.first() {
            for (kind, ns) in &per_backend[1..] {
                println!(
                    "  {label:<12} {m}x{k}x{n} {kind:>8}: speedup nn {:.2}x  nt {:.2}x  tn {:.2}x",
                    scalar[0] / ns[0],
                    scalar[1] / ns[1],
                    scalar[2] / ns[2],
                );
            }
        }
    }
}

/// The worker counts the end-to-end section measures: sequential, plus
/// the data-parallel pool at 2 and 4 workers. On a single-core box the
/// extra worker counts measure the coordination overhead honestly;
/// results are bit-identical at every count by contract.
const TRAIN_THREADS: [usize; 3] = [1, 2, 4];

/// The chunk-fan-out strategies measured head-to-head: the persistent
/// condvar-parked [`WorkerPool`](create_tensor::par::WorkerPool) that
/// `train_with_threads` now uses, and the pre-pool
/// [`SpawnPerChunk`](create_tensor::par::SpawnPerChunk) behaviour it
/// replaced. `bench_report` gates pool ≥ spawn at 4 workers.
const TRAIN_MODES: [&str; 2] = ["pool", "spawn"];

/// Times `epochs` epochs of a training closure after a 1-epoch warm-up,
/// recording seconds/epoch and epochs/s.
fn timed_epochs(
    records: &mut Vec<BenchRecord>,
    name: &str,
    mode: &str,
    threads: usize,
    samples: u64,
    epochs: usize,
    mut run_epochs: impl FnMut(usize),
) {
    run_epochs(1); // warm-up: JIT-free, but warms buffers and caches
    let start = Instant::now();
    run_epochs(epochs);
    let elapsed = start.elapsed().as_secs_f64();
    let backend = FloatBackendKind::from_env().name();
    println!(
        "  {name}: {:.3} s/epoch ({:.2} epochs/s) on the `{backend}` backend, \
         {threads} worker(s), {mode} fan-out",
        elapsed / epochs as f64,
        epochs as f64 / elapsed,
    );
    records.push(
        BenchRecord::new()
            .str("bench", name)
            .str("backend", backend)
            .str("mode", mode)
            .int("threads", threads as u64)
            .int("samples", samples)
            .int("epochs", epochs as u64)
            .num("s_per_epoch", elapsed / epochs as f64)
            .num("epochs_per_s", epochs as f64 / elapsed),
    );
}

fn bench_training_throughput(records: &mut Vec<BenchRecord>) {
    banner(
        "train/e2e",
        "planner + controller training throughput at testbed shapes",
    );
    // Planner: the tiny 2-layer testbed over the 3-task sample subset the
    // unit tests train on.
    let preset = PlannerPreset {
        proxy_layers: 2,
        proxy_hidden: 32,
        proxy_mlp: 64,
        proxy_heads: 4,
        ..PlannerPreset::jarvis()
    };
    let samples: Vec<_> = vocab::training_samples()
        .into_iter()
        .filter(|s| {
            [TaskId::Wooden, TaskId::Log, TaskId::Button]
                .iter()
                .any(|&t| s.tokens[0] == vocab::task_token(t))
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(5);
    let mut planner = PlannerModel::new(&preset, &mut rng);
    let mut p_scratch = PlannerTrainScratch::default();
    let n = samples.len() as u64;
    for threads in TRAIN_THREADS {
        for mode in TRAIN_MODES {
            timed_epochs(records, "train_planner", mode, threads, n, 40, |epochs| {
                // "pool" is the production path (train_with_threads spawns
                // one persistent pool per call); "spawn" replays the
                // pre-pool per-chunk thread churn for comparison.
                if mode == "pool" {
                    let _ = planner.train_with_threads(
                        &samples,
                        epochs,
                        3e-3,
                        None,
                        &mut rng,
                        threads,
                        &mut p_scratch,
                    );
                } else {
                    let mut spawn = create_tensor::par::SpawnPerChunk(threads);
                    let _ = planner.train_with_mapper(
                        &samples,
                        epochs,
                        3e-3,
                        None,
                        &mut rng,
                        &mut spawn,
                        &mut p_scratch,
                    );
                }
            });
        }
    }

    // Controller: behaviour cloning on a 2-task expert set.
    let c_preset = ControllerPreset {
        proxy_layers: 1,
        proxy_hidden: 32,
        proxy_mlp: 64,
        proxy_heads: 4,
        ..ControllerPreset::jarvis()
    };
    let bc = datasets::collect_bc(&[TaskId::Log, TaskId::Seed], 2, 300, 0.05, 3);
    let mut controller = ControllerModel::new(&c_preset, &mut rng);
    let mut c_scratch = ControllerTrainScratch::default();
    let n = bc.len() as u64;
    for threads in TRAIN_THREADS {
        for mode in TRAIN_MODES {
            timed_epochs(records, "train_controller", mode, threads, n, 4, |epochs| {
                if mode == "pool" {
                    let _ = controller.train_with_threads(
                        &bc,
                        epochs,
                        2e-3,
                        &mut rng,
                        threads,
                        &mut c_scratch,
                    );
                } else {
                    let mut spawn = create_tensor::par::SpawnPerChunk(threads);
                    let _ = controller.train_with_mapper(
                        &bc,
                        epochs,
                        2e-3,
                        &mut rng,
                        &mut spawn,
                        &mut c_scratch,
                    );
                }
            });
        }
    }
}

fn main() {
    let _t = Stopwatch::start("train");
    let mut records = Vec::new();
    bench_f32_gemms(&mut records);
    bench_training_throughput(&mut records);
    emit_bench_json("train", &records);
}
