//! Criterion microbenchmarks of the performance-critical kernels: the
//! INT8 systolic GEMM (per [`GemmBackendKind`], so scalar-vs-blocked
//! speedups are measured head-to-head on identical inputs), error
//! injection, anomaly detection (to quantify its "negligible overhead"
//! claim in software terms) and the fast Walsh–Hadamard transform used by
//! weight rotation.

use create_accel::ad;
use create_accel::ctx::{Component, LayerCtx, Unit};
use create_accel::ecc::Codeword;
use create_accel::gemm::GemmBackendKind;
use create_accel::inject::{ErrorModel, InjectionTarget, Injector};
use create_accel::sram::{MemoryFaultModel, Protection, SramBuffer};
use create_accel::{AccelConfig, Accelerator};
use create_bench::{emit_bench_json, time_ns_per_iter, BenchRecord};
use create_tensor::hadamard::fwht_normalized;
use create_tensor::{Matrix, Precision, QuantMatrix, QuantParams};
use criterion::{criterion_group, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

/// GEMM shapes measured head-to-head: the two PR-2 reference shapes plus
/// the *small* shapes that dominate mission traffic (the deployed
/// controller's per-step layers), where per-call overhead — allocation
/// before this PR — outweighs the arithmetic.
const GEMM_SHAPES: [(usize, usize, usize); 5] = [
    (16, 256, 256),
    (1, 512, 128),
    (4, 32, 32),
    (1, 64, 16),
    (4, 686, 32),
];

fn gemm_operands(m: usize, k: usize, n: usize, rng: &mut StdRng) -> (QuantMatrix, QuantMatrix) {
    let a = QuantMatrix::quantize(&Matrix::random_uniform(m, k, 1.0, rng), Precision::Int8);
    let w = QuantMatrix::quantize(&Matrix::random_uniform(k, n, 1.0, rng), Precision::Int8);
    (a, w)
}

fn bench_gemm(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    for (m, k, n) in GEMM_SHAPES {
        let (a, w) = gemm_operands(m, k, n, &mut rng);
        for kind in GemmBackendKind::ALL {
            let backend = kind.instantiate();
            c.bench_function(&format!("gemm_i8_{m}x{k}x{n}/{kind}"), |b| {
                b.iter(|| black_box(backend.gemm_i8_acc(black_box(&a), black_box(&w))))
            });
            let mut acc = Vec::new();
            c.bench_function(&format!("gemm_i8_into_{m}x{k}x{n}/{kind}"), |b| {
                b.iter(|| {
                    backend.gemm_i8_acc_into(black_box(&a), black_box(&w), &mut acc);
                    black_box(acc.len())
                })
            });
        }
    }
}

fn bench_accel_linear(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(7);
    let ctx = LayerCtx::new(Unit::Controller, Component::Fc1, 0);
    let params = QuantParams::from_max_abs(1.0, Precision::Int8);
    for (m, k, n) in [(4usize, 32usize, 32usize), (1, 64, 16)] {
        let x = Matrix::random_uniform(m, k, 1.0, &mut rng);
        let w = QuantMatrix::quantize(
            &Matrix::random_uniform(k, n, 0.5, &mut rng),
            Precision::Int8,
        );
        let mut accel = Accelerator::ideal(0);
        c.bench_function(&format!("accel_linear_{m}x{k}x{n}"), |b| {
            b.iter(|| black_box(accel.linear(&x, &w, params, 4.0, ctx)))
        });
        let mut out = Matrix::zeros(0, 0);
        c.bench_function(&format!("accel_linear_into_{m}x{k}x{n}"), |b| {
            b.iter(|| {
                accel.linear_into(&x, &w, params, 4.0, ctx, &mut out);
                black_box(out.rows())
            })
        });
    }
}

/// Machine-readable companion to the printed numbers: measures the hot
/// kernels with a fixed-cost timer and writes
/// `results/BENCH_kernels.json` so future PRs have a perf trajectory to
/// compare against.
fn emit_kernels_json() {
    let mut rng = StdRng::seed_from_u64(1);
    let mut records = Vec::new();
    for (m, k, n) in GEMM_SHAPES {
        let (a, w) = gemm_operands(m, k, n, &mut rng);
        let macs = (m * k * n) as u64;
        for kind in GemmBackendKind::ALL {
            let backend = kind.instantiate();
            let ns = time_ns_per_iter(|| {
                black_box(backend.gemm_i8_acc(black_box(&a), black_box(&w)));
            });
            let mut acc = Vec::new();
            let ns_into = time_ns_per_iter(|| {
                backend.gemm_i8_acc_into(black_box(&a), black_box(&w), &mut acc);
                black_box(acc.len());
            });
            for (bench, ns) in [("gemm_i8", ns), ("gemm_i8_into", ns_into)] {
                records.push(
                    BenchRecord::new()
                        .str("bench", bench)
                        .str("shape", format!("{m}x{k}x{n}"))
                        .str("backend", kind.name())
                        .num("ns_per_iter", ns)
                        .int("macs", macs)
                        .num("macs_per_s", macs as f64 / (ns * 1e-9)),
                );
            }
        }
    }
    // The full datapath (quantize → GEMM → dequant → clamp) through the
    // accelerator facade, allocating vs buffer-out, on the small shapes
    // where the zero-allocation steady state matters most.
    let ctx = LayerCtx::new(Unit::Controller, Component::Fc1, 0);
    let params = QuantParams::from_max_abs(1.0, Precision::Int8);
    for (m, k, n) in GEMM_SHAPES {
        let x = Matrix::random_uniform(m, k, 1.0, &mut rng);
        let w = QuantMatrix::quantize(
            &Matrix::random_uniform(k, n, 0.5, &mut rng),
            Precision::Int8,
        );
        let macs = (m * k * n) as u64;
        let mut accel = Accelerator::new(AccelConfig::default(), 0);
        let ns = time_ns_per_iter(|| {
            black_box(accel.linear(&x, &w, params, 4.0, ctx));
        });
        let mut out = Matrix::zeros(0, 0);
        let ns_into = time_ns_per_iter(|| {
            accel.linear_into(&x, &w, params, 4.0, ctx, &mut out);
            black_box(out.rows());
        });
        for (bench, ns) in [("accel_linear", ns), ("accel_linear_into", ns_into)] {
            records.push(
                BenchRecord::new()
                    .str("bench", bench)
                    .str("shape", format!("{m}x{k}x{n}"))
                    .str("backend", accel.backend_name())
                    .num("ns_per_iter", ns)
                    .int("macs", macs)
                    .num("macs_per_s", macs as f64 / (ns * 1e-9)),
            );
        }
    }
    emit_bench_json("kernels", &records);
}

fn bench_injection(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let injector = Injector::new(
        ErrorModel::Uniform { ber: 1e-5 },
        InjectionTarget::All,
        100.0,
    );
    let ctx = LayerCtx::new(Unit::Controller, Component::Fc1, 0);
    let base = vec![12345i32; 4096];
    c.bench_function("inject_sparse_4096", |b| {
        b.iter(|| {
            let mut acc = base.clone();
            black_box(injector.inject(&mut acc, ctx, 0.9, &mut rng))
        })
    });
}

fn bench_anomaly_detection(c: &mut Criterion) {
    let acc: Vec<i32> = (0..4096).map(|i| (i * 37) % 4000 - 2000).collect();
    c.bench_function("ad_clear_4096", |b| {
        b.iter(|| {
            let mut buf = acc.clone();
            black_box(ad::clear_anomalies(&mut buf, 1_900))
        })
    });
}

fn bench_hadamard(c: &mut Criterion) {
    let data: Vec<f32> = (0..64).map(|i| (i as f32).sin()).collect();
    c.bench_function("fwht_64", |b| {
        b.iter(|| {
            let mut buf = data.clone();
            fwht_normalized(&mut buf);
            black_box(buf)
        })
    });
}

fn bench_secded(c: &mut Criterion) {
    c.bench_function("secded_encode_u64", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
            black_box(Codeword::encode(black_box(i)))
        })
    });
    let cw = Codeword::encode(0xDEAD_BEEF_0BAD_F00D).with_flipped_bit(17);
    c.bench_function("secded_decode_corrected", |b| {
        b.iter(|| black_box(black_box(cw).decode()))
    });
}

fn bench_sram_snapshot(c: &mut Criterion) {
    let data: Vec<i8> = (0..16_384)
        .map(|i| ((i * 37 + 11) % 255) as u8 as i8)
        .collect();
    let buf = SramBuffer::store(&data, Protection::Secded, MemoryFaultModel::new());
    let mut rng = StdRng::seed_from_u64(3);
    c.bench_function("sram_snapshot_secded_16k_0p72v", |b| {
        b.iter(|| black_box(buf.snapshot(0.72, &mut rng)))
    });
}

criterion_group! {
    name = kernels;
    config = Criterion::default().sample_size(20);
    targets = bench_gemm, bench_accel_linear, bench_injection, bench_anomaly_detection,
        bench_hadamard, bench_secded, bench_sram_snapshot
}

fn main() {
    kernels();
    emit_kernels_json();
}
