//! Pluggable `f32` GEMM backends for the training stack.
//!
//! The trainable models (`create-nn` / `create-agents`) run every forward
//! and backward matrix product through [`Matrix::matmul`],
//! [`Matrix::matmul_nt`] and [`Matrix::matmul_tn`] (and their `_into`
//! forms). Those entry points dispatch through a [`FloatGemmBackend`], so
//! faster implementations can slot in under the unchanged training loops
//! — the f32 twin of the INT8 `GemmBackend` story in `create-accel`.
//! Four backends ship:
//!
//! * [`ScalarF32Backend`] — the original triple loops, kept as the
//!   bit-exact reference;
//! * [`BlockedF32Backend`] — a column-tiled, k-unrolled rewrite that is
//!   **bit-identical** to the reference for every input;
//! * [`WideF32Backend`] — a lane-parallel rewrite that computes
//!   [`F32_LANES`] *independent output columns* at once in a fixed-size
//!   `[f32; F32_LANES]` register block, also **bit-identical** (each lane
//!   owns one output and accumulates in the reference's k-order);
//! * [`DispatchF32Backend`] (`auto`, the default) — not a kernel but a
//!   router: a compiled-in rule per op on the call's `(m, k, n)` forwards
//!   it to the concrete backend the committed bench baselines show
//!   fastest there. Since every concrete backend is bit-identical,
//!   routing cannot change results.
//!
//! # Why the parity guarantee holds for floats
//!
//! `f32` addition is *not* associative, so unlike the integer path the
//! fast backend must not reassociate reductions. It doesn't: for every
//! output element the contributions are added **in the same sequential
//! k-order as the reference**, including the reference's zero-skip
//! (`a == 0.0` terms contribute nothing and are skipped — observable
//! through signed zeros, so it is part of the contract). The rewrite only
//! changes *which* outputs are in flight at once:
//!
//! * `matmul` / `matmul_tn` (blocked): the k-loop is unrolled 4-wide with
//!   the four products added one after another in k-order
//!   (register-resident partial, one load/store of the output tile per 4
//!   k-steps instead of per k-step), and output columns are tiled for
//!   locality;
//! * `matmul_nt` (blocked): four output columns are computed per pass,
//!   giving four *independent* sequential dot-product chains — the
//!   reference's single latency-bound chain becomes 4-way
//!   instruction-level parallelism with each chain's order untouched;
//! * all three kernels (wide): [`F32_LANES`] output columns are carried as
//!   one `[f32; F32_LANES]` accumulator array across the *entire* k-loop,
//!   so the output is written exactly once per lane group and the inner
//!   `acc[l] += a * b[l]` statement maps onto a single vector FMA-free
//!   multiply-add per lane; the zero-skip test (`a == 0.0`) is a scalar
//!   branch shared by every lane, because the skipped multiplier is the
//!   same for all columns of a lane group — so skipping acts as a
//!   uniform per-lane select and no lane ever sees a contribution the
//!   reference would not have added.
//!
//! Rust/LLVM does not fuse `a * b + c` into an FMA or apply fast-math
//! reassociation by default, so products and sums round exactly as the
//! reference's do. Property tests (`tensor/tests/props.rs`) pin the
//! bit-parity on random, zero-dimension and zero-laden inputs, and the CI
//! backend matrix runs the whole workspace under both values of
//! `CREATE_F32_BACKEND`.
//!
//! # Selecting a backend
//!
//! `Matrix`'s multiply entry points read the process-wide backend from
//! the `CREATE_F32_BACKEND` environment variable (`scalar`, `blocked`,
//! `wide` or `auto`, case-insensitive) once, on first use. Unset or empty
//! selects [the default](FloatBackendKind::default) (`auto`); any other
//! value warns on stderr and falls back to the default — the same
//! validated fallback contract as `CREATE_GEMM_BACKEND` / `CREATE_REPS`
//! (see [`crate::envcfg`]).
//!
//! [`Matrix::matmul`]: crate::Matrix::matmul
//! [`Matrix::matmul_nt`]: crate::Matrix::matmul_nt
//! [`Matrix::matmul_tn`]: crate::Matrix::matmul_tn

use crate::envcfg;
use crate::matrix::Matrix;
use std::fmt;
use std::str::FromStr;

/// An `f32` GEMM implementation for the training datapath.
///
/// Implementations must be **bit-identical** to [`ScalarF32Backend`] for
/// every input: same per-output accumulation order (sequential in k),
/// same zero-skip semantics (`matmul`/`matmul_tn` skip `a == 0.0`
/// contributions; `matmul_nt` skips nothing), and the standard shape
/// mismatch panics. Training results across backends must match to the
/// last weight bit, so any deviation would silently change experiment
/// semantics.
///
/// All three methods fully overwrite `out` (resizing it in place), so a
/// warmed-up output buffer makes the call allocation-free.
pub trait FloatGemmBackend: fmt::Debug + Send + Sync {
    /// Stable lower-case identifier (`"scalar"`, `"blocked"`, `"wide"`).
    fn name(&self) -> &'static str;

    /// `out = a @ b`.
    ///
    /// # Panics
    ///
    /// Panics if `a.cols() != b.rows()`.
    fn matmul_into(&self, a: &Matrix, b: &Matrix, out: &mut Matrix);

    /// `out = a @ bᵀ` without materializing the transpose.
    ///
    /// # Panics
    ///
    /// Panics if `a.cols() != b.cols()`.
    fn matmul_nt_into(&self, a: &Matrix, b: &Matrix, out: &mut Matrix);

    /// `out = aᵀ @ b` without materializing the transpose.
    ///
    /// # Panics
    ///
    /// Panics if `a.rows() != b.rows()`.
    fn matmul_tn_into(&self, a: &Matrix, b: &Matrix, out: &mut Matrix);
}

fn check_nn(a: &Matrix, b: &Matrix) {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul shape mismatch: {}x{} @ {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
}

fn check_nt(a: &Matrix, b: &Matrix) {
    assert_eq!(
        a.cols(),
        b.cols(),
        "matmul_nt shape mismatch: {}x{} @ ({}x{}).T",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
}

fn check_tn(a: &Matrix, b: &Matrix) {
    assert_eq!(
        a.rows(),
        b.rows(),
        "matmul_tn shape mismatch: ({}x{}).T @ {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
}

/// The reference backend: the original scalar loops. Slowest, simplest,
/// and the definition of correct.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScalarF32Backend;

impl FloatGemmBackend for ScalarF32Backend {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn matmul_into(&self, a: &Matrix, b: &Matrix, out: &mut Matrix) {
        check_nn(a, b);
        out.reset_zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            let a_row = a.row(i);
            let out_row = out.row_mut(i);
            for (k, &av) in a_row.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let b_row = b.row(k);
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
    }

    fn matmul_nt_into(&self, a: &Matrix, b: &Matrix, out: &mut Matrix) {
        check_nt(a, b);
        out.reset_zeros(a.rows(), b.rows());
        for i in 0..a.rows() {
            let a_row = a.row(i);
            for j in 0..b.rows() {
                let b_row = b.row(j);
                let mut acc = 0.0;
                for (&av, &bv) in a_row.iter().zip(b_row) {
                    acc += av * bv;
                }
                out.set(i, j, acc);
            }
        }
    }

    fn matmul_tn_into(&self, a: &Matrix, b: &Matrix, out: &mut Matrix) {
        check_tn(a, b);
        out.reset_zeros(a.cols(), b.cols());
        for k in 0..a.rows() {
            let a_row = a.row(k);
            let b_row = b.row(k);
            for (i, &av) in a_row.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let out_row = out.row_mut(i);
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
    }
}

/// Output-column tile width (f32 elements): one out tile plus `K_UNROLL`
/// matching b-row slices stay L1-resident while a k-block streams
/// through.
const N_TILE: usize = 128;

/// k-loop unroll width for the rank-1-update kernels (`matmul`,
/// `matmul_tn`): four updates fuse into one read-modify-write of the out
/// tile, with the four adds kept sequential in k-order for bit parity.
const K_UNROLL: usize = 4;

/// Independent output-column chains per pass in `matmul_nt`: four
/// sequential dot products advance in lockstep, turning the reference's
/// single dependent add chain into 4-way ILP without touching any
/// chain's internal order.
const NT_LANES: usize = 4;

/// The fast backend: column-tiled and k-unrolled, bit-identical to
/// [`ScalarF32Backend`] (see the module docs for why reordering never
/// happens within an output's reduction).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockedF32Backend;

impl BlockedF32Backend {
    /// Shared rank-1-update kernel: `out[i_out] += col(kk..kk+len_k) ⊗
    /// b_rows`, k-sequential with zero-skip. `a_at(k)` fetches the
    /// multiplier for absolute k-index `k`.
    #[inline]
    fn rank1_tile(
        out_tile: &mut [f32],
        b_data: &[f32],
        n: usize,
        j0: usize,
        kk: usize,
        k_end: usize,
        a_at: impl Fn(usize) -> f32,
    ) {
        let len = out_tile.len();
        let mut k = kk;
        while k + K_UNROLL <= k_end {
            let a0 = a_at(k);
            let a1 = a_at(k + 1);
            let a2 = a_at(k + 2);
            let a3 = a_at(k + 3);
            if a0 == 0.0 && a1 == 0.0 && a2 == 0.0 && a3 == 0.0 {
                // Whole group skipped — one-hot featurizer inputs are
                // mostly long runs of zeros.
                k += K_UNROLL;
                continue;
            }
            if a0 != 0.0 && a1 != 0.0 && a2 != 0.0 && a3 != 0.0 {
                let w0 = &b_data[k * n + j0..][..len];
                let w1 = &b_data[(k + 1) * n + j0..][..len];
                let w2 = &b_data[(k + 2) * n + j0..][..len];
                let w3 = &b_data[(k + 3) * n + j0..][..len];
                for jj in 0..len {
                    // Sequential adds in k-order: bit-identical to the
                    // reference's four separate passes over the tile.
                    let v = out_tile[jj] + a0 * w0[jj];
                    let v = v + a1 * w1[jj];
                    let v = v + a2 * w2[jj];
                    out_tile[jj] = v + a3 * w3[jj];
                }
            } else {
                for (dk, av) in [a0, a1, a2, a3].into_iter().enumerate() {
                    if av != 0.0 {
                        let w = &b_data[(k + dk) * n + j0..][..len];
                        for (o, &bv) in out_tile.iter_mut().zip(w) {
                            *o += av * bv;
                        }
                    }
                }
            }
            k += K_UNROLL;
        }
        while k < k_end {
            let av = a_at(k);
            if av != 0.0 {
                let w = &b_data[k * n + j0..][..len];
                for (o, &bv) in out_tile.iter_mut().zip(w) {
                    *o += av * bv;
                }
            }
            k += 1;
        }
    }
}

impl FloatGemmBackend for BlockedF32Backend {
    fn name(&self) -> &'static str {
        "blocked"
    }

    fn matmul_into(&self, a: &Matrix, b: &Matrix, out: &mut Matrix) {
        check_nn(a, b);
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        out.reset_zeros(m, n);
        if n == 0 {
            return;
        }
        let b_data = b.as_slice();
        for i in 0..m {
            let a_row = a.row(i);
            let out_row = out.row_mut(i);
            for j0 in (0..n).step_by(N_TILE) {
                let j1 = (j0 + N_TILE).min(n);
                Self::rank1_tile(&mut out_row[j0..j1], b_data, n, j0, 0, k, |kk| a_row[kk]);
            }
        }
    }

    fn matmul_nt_into(&self, a: &Matrix, b: &Matrix, out: &mut Matrix) {
        check_nt(a, b);
        let (m, k, p) = (a.rows(), a.cols(), b.rows());
        out.reset_zeros(m, p);
        for i in 0..m {
            let a_row = a.row(i);
            let mut j = 0;
            while j + NT_LANES <= p {
                let b0 = b.row(j);
                let b1 = b.row(j + 1);
                let b2 = b.row(j + 2);
                let b3 = b.row(j + 3);
                let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
                for kk in 0..k {
                    let av = a_row[kk];
                    // Four independent chains; each one accumulates in
                    // the reference's sequential k-order.
                    s0 += av * b0[kk];
                    s1 += av * b1[kk];
                    s2 += av * b2[kk];
                    s3 += av * b3[kk];
                }
                out.set(i, j, s0);
                out.set(i, j + 1, s1);
                out.set(i, j + 2, s2);
                out.set(i, j + 3, s3);
                j += NT_LANES;
            }
            while j < p {
                let b_row = b.row(j);
                let mut acc = 0.0;
                for (&av, &bv) in a_row.iter().zip(b_row) {
                    acc += av * bv;
                }
                out.set(i, j, acc);
                j += 1;
            }
        }
    }

    fn matmul_tn_into(&self, a: &Matrix, b: &Matrix, out: &mut Matrix) {
        check_tn(a, b);
        let (kdim, m, n) = (a.rows(), a.cols(), b.cols());
        // With few shared rows there is nothing to unroll and the
        // reference's k-outer loop (one zero test per `a` element, `b`
        // row streamed once) is strictly better — e.g. the one-hot view
        // featurizer's weight gradient has kdim == 1. Both paths are
        // bit-identical, so this is purely a performance heuristic.
        if kdim < 2 * K_UNROLL {
            ScalarF32Backend.matmul_tn_into(a, b, out);
            return;
        }
        out.reset_zeros(m, n);
        if n == 0 {
            return;
        }
        let a_data = a.as_slice();
        let b_data = b.as_slice();
        // The reference iterates k outer / i inner; flipping to i outer
        // keeps every output's contributions in ascending k-order (the
        // only order that matters for bit parity) while exposing the
        // k-unrolled tile kernel.
        for i in 0..m {
            let out_row = out.row_mut(i);
            for j0 in (0..n).step_by(N_TILE) {
                let j1 = (j0 + N_TILE).min(n);
                Self::rank1_tile(&mut out_row[j0..j1], b_data, n, j0, 0, kdim, |kk| {
                    a_data[kk * m + i]
                });
            }
        }
    }
}

/// Lane width of [`WideF32Backend`]: one `[f32; F32_LANES]` accumulator
/// block covers eight output columns — a full 256-bit vector register —
/// and LLVM autovectorizes the fixed-size lane loops without intrinsics.
pub const F32_LANES: usize = 8;

/// The lane-parallel backend: every kernel computes [`F32_LANES`]
/// *independent* output columns per pass, carrying them in a fixed-size
/// `[f32; F32_LANES]` accumulator array across the whole k-loop.
///
/// Bit-identical to [`ScalarF32Backend`] by construction: each lane owns
/// exactly one output element and receives its contributions in the
/// reference's sequential k-order (lanes never exchange or reassociate
/// partial sums), and the `a == 0.0` zero-skip is a scalar branch on the
/// shared multiplier, so it selects the same contributions per lane that
/// the reference adds per element. Compared to [`BlockedF32Backend`]'s
/// tile-update scheme, the output is read and written once per lane group
/// instead of once per k-unroll step, which is what pays off at the small
/// row counts (`m` ∈ 1..28) the training loops actually run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WideF32Backend;

impl WideF32Backend {
    /// Shared lane kernel: `out_group[l] = Σ_k a_at(k) · b[k·n + j0 + l]`
    /// for `out_group.len() ≤ F32_LANES` columns, accumulated in register
    /// lanes in ascending k-order with the reference's zero-skip.
    #[inline]
    fn lane_group(
        out_group: &mut [f32],
        b_data: &[f32],
        n: usize,
        j0: usize,
        k_end: usize,
        a_at: impl Fn(usize) -> f32,
    ) {
        if out_group.len() == F32_LANES {
            let mut acc = [0.0f32; F32_LANES];
            for k in 0..k_end {
                let av = a_at(k);
                if av == 0.0 {
                    continue;
                }
                let b_row = &b_data[k * n + j0..][..F32_LANES];
                for l in 0..F32_LANES {
                    acc[l] += av * b_row[l];
                }
            }
            out_group.copy_from_slice(&acc);
        } else {
            // Ragged tail (< F32_LANES columns): same per-element k-order,
            // variable lane count.
            let len = out_group.len();
            for v in out_group.iter_mut() {
                *v = 0.0;
            }
            for k in 0..k_end {
                let av = a_at(k);
                if av == 0.0 {
                    continue;
                }
                let b_row = &b_data[k * n + j0..][..len];
                for (o, &bv) in out_group.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
    }
}

impl FloatGemmBackend for WideF32Backend {
    fn name(&self) -> &'static str {
        "wide"
    }

    fn matmul_into(&self, a: &Matrix, b: &Matrix, out: &mut Matrix) {
        check_nn(a, b);
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        out.reset_zeros(m, n);
        if n == 0 {
            return;
        }
        let b_data = b.as_slice();
        for i in 0..m {
            let a_row = a.row(i);
            let out_row = out.row_mut(i);
            for j0 in (0..n).step_by(F32_LANES) {
                let j1 = (j0 + F32_LANES).min(n);
                Self::lane_group(&mut out_row[j0..j1], b_data, n, j0, k, |kk| a_row[kk]);
            }
        }
    }

    fn matmul_nt_into(&self, a: &Matrix, b: &Matrix, out: &mut Matrix) {
        check_nt(a, b);
        let (m, k, p) = (a.rows(), a.cols(), b.rows());
        out.reset_zeros(m, p);
        let b_data = b.as_slice();
        for i in 0..m {
            let a_row = a.row(i);
            let mut j = 0;
            // F32_LANES independent dot-product chains advance in
            // lockstep; each chain's internal order is the reference's
            // (no zero-skip in `matmul_nt`, matching the reference).
            while j + F32_LANES <= p {
                let mut acc = [0.0f32; F32_LANES];
                let rows: [&[f32]; F32_LANES] =
                    std::array::from_fn(|l| &b_data[(j + l) * k..][..k]);
                for (kk, &av) in a_row.iter().enumerate() {
                    for l in 0..F32_LANES {
                        acc[l] += av * rows[l][kk];
                    }
                }
                out.row_mut(i)[j..j + F32_LANES].copy_from_slice(&acc);
                j += F32_LANES;
            }
            while j < p {
                let b_row = b.row(j);
                let mut acc = 0.0;
                for (&av, &bv) in a_row.iter().zip(b_row) {
                    acc += av * bv;
                }
                out.set(i, j, acc);
                j += 1;
            }
        }
    }

    fn matmul_tn_into(&self, a: &Matrix, b: &Matrix, out: &mut Matrix) {
        check_tn(a, b);
        let (kdim, m, n) = (a.rows(), a.cols(), b.cols());
        // Same heuristic as the blocked backend: with almost no shared
        // rows the reference's k-outer loop (one zero test per `a`
        // element) is strictly better — the one-hot featurizer's weight
        // gradient has kdim == 1. Both paths are bit-identical, so this
        // is purely a performance choice.
        if kdim < 2 {
            ScalarF32Backend.matmul_tn_into(a, b, out);
            return;
        }
        out.reset_zeros(m, n);
        if n == 0 {
            return;
        }
        let a_data = a.as_slice();
        let b_data = b.as_slice();
        for i in 0..m {
            let out_row = out.row_mut(i);
            for j0 in (0..n).step_by(F32_LANES) {
                let j1 = (j0 + F32_LANES).min(n);
                Self::lane_group(&mut out_row[j0..j1], b_data, n, j0, kdim, |kk| {
                    a_data[kk * m + i]
                });
            }
        }
    }
}

/// The `auto` backend: a per-shape router over the concrete backends.
///
/// Each op picks its kernel with a few integer compares on the canonical
/// `(m, k, n)` — output rows, reduction length, output columns — per the
/// per-shape winners in the committed `results/baseline/BENCH_train.json`:
///
/// * `matmul_nt`: always `wide`;
/// * `matmul`: `scalar` for the one-hot featurizer's sparse products
///   (`m ≤ 2`, `k > 128`), else `blocked`;
/// * `matmul_tn` (shape `(a.cols, a.rows, b.cols)`): `scalar` for the
///   mid-width weight gradients (`m > 8`, `8 < k ≤ 128`, `16 < n ≤ 48`),
///   else `blocked`.
///
/// No allocation and no state, so the steady-state allocation-free
/// training contract is untouched, and every concrete backend is
/// bit-identical to the reference, so routing can change speed but never
/// a single output bit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DispatchF32Backend;

impl DispatchF32Backend {
    fn select_nn(a: &Matrix, _b: &Matrix) -> &'static dyn FloatGemmBackend {
        if a.rows() <= 2 && a.cols() > 128 {
            &ScalarF32Backend
        } else {
            &BlockedF32Backend
        }
    }

    fn select_nt(_a: &Matrix, _b: &Matrix) -> &'static dyn FloatGemmBackend {
        &WideF32Backend
    }

    fn select_tn(a: &Matrix, b: &Matrix) -> &'static dyn FloatGemmBackend {
        let (m, k, n) = (a.cols(), a.rows(), b.cols());
        if m > 8 && (9..=128).contains(&k) && (17..=48).contains(&n) {
            &ScalarF32Backend
        } else {
            &BlockedF32Backend
        }
    }
}

impl FloatGemmBackend for DispatchF32Backend {
    fn name(&self) -> &'static str {
        "auto"
    }

    fn matmul_into(&self, a: &Matrix, b: &Matrix, out: &mut Matrix) {
        Self::select_nn(a, b).matmul_into(a, b, out)
    }

    fn matmul_nt_into(&self, a: &Matrix, b: &Matrix, out: &mut Matrix) {
        Self::select_nt(a, b).matmul_nt_into(a, b, out)
    }

    fn matmul_tn_into(&self, a: &Matrix, b: &Matrix, out: &mut Matrix) {
        Self::select_tn(a, b).matmul_tn_into(a, b, out)
    }
}

/// Which [`FloatGemmBackend`] the process multiplies with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FloatBackendKind {
    /// [`ScalarF32Backend`] — the bit-exact reference loops.
    Scalar,
    /// [`BlockedF32Backend`] — tiled/unrolled, bit-identical, faster.
    Blocked,
    /// [`WideF32Backend`] — lane-parallel output columns, bit-identical.
    Wide,
    /// [`DispatchF32Backend`] — per-shape routing to the measured-fastest
    /// concrete backend, bit-identical because every route is.
    Auto,
}

impl Default for FloatBackendKind {
    /// `Auto`: the committed baselines prove per-shape routing matches or
    /// beats every single backend, and parity is bit-exact, so everyone
    /// gets per-shape dispatch unless `CREATE_F32_BACKEND` opts out.
    fn default() -> Self {
        FloatBackendKind::Auto
    }
}

impl fmt::Display for FloatBackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for FloatBackendKind {
    type Err = String;

    /// Case-insensitive, whitespace-tolerant parse of a backend name.
    fn from_str(s: &str) -> Result<Self, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Ok(FloatBackendKind::Scalar),
            "blocked" => Ok(FloatBackendKind::Blocked),
            "wide" => Ok(FloatBackendKind::Wide),
            "auto" => Ok(FloatBackendKind::Auto),
            other => Err(format!(
                "unknown f32 backend {other:?}: expected \"scalar\", \"blocked\", \"wide\" \
                 or \"auto\""
            )),
        }
    }
}

impl FloatBackendKind {
    /// Every shipped backend, in reference-first order. Parity tests and
    /// the `train` bench harness iterate this list.
    pub const ALL: [FloatBackendKind; 4] = [
        FloatBackendKind::Scalar,
        FloatBackendKind::Blocked,
        FloatBackendKind::Wide,
        FloatBackendKind::Auto,
    ];

    /// The backend's stable lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            FloatBackendKind::Scalar => ScalarF32Backend.name(),
            FloatBackendKind::Blocked => BlockedF32Backend.name(),
            FloatBackendKind::Wide => WideF32Backend.name(),
            FloatBackendKind::Auto => "auto",
        }
    }

    /// The selected implementation (every backend is zero-sized, so a
    /// static borrow suffices — no boxing).
    pub fn backend(self) -> &'static dyn FloatGemmBackend {
        match self {
            FloatBackendKind::Scalar => &ScalarF32Backend,
            FloatBackendKind::Blocked => &BlockedF32Backend,
            FloatBackendKind::Wide => &WideF32Backend,
            FloatBackendKind::Auto => &DispatchF32Backend,
        }
    }

    /// Resolves a raw `CREATE_F32_BACKEND` value (`None` = unset) with
    /// the shared warn-and-fallback contract ([`envcfg::parse_validated`]).
    pub fn parse_env(raw: Option<&str>) -> Self {
        envcfg::parse_validated("CREATE_F32_BACKEND", raw, Self::default(), str::parse)
    }

    /// The backend selected by the `CREATE_F32_BACKEND` environment
    /// variable, with validated fallback (see [`parse_env`](Self::parse_env)).
    ///
    /// The parse is cached for the life of the process — the multiply
    /// entry points are the innermost training hot path, and the fallback
    /// warning should print once, not once per GEMM. Tests that need to
    /// exercise parsing call [`parse_env`](Self::parse_env) directly.
    pub fn from_env() -> Self {
        static FROM_ENV: std::sync::OnceLock<FloatBackendKind> = std::sync::OnceLock::new();
        *FROM_ENV
            .get_or_init(|| Self::parse_env(std::env::var("CREATE_F32_BACKEND").ok().as_deref()))
    }
}

/// The process-wide active backend ([`FloatBackendKind::from_env`]); this
/// is what [`Matrix`]'s multiply entry points dispatch through.
pub fn active() -> &'static dyn FloatGemmBackend {
    FloatBackendKind::from_env().backend()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_with_zeros(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| {
            if rng.random_range(0.0..1.0) < 0.3 {
                0.0
            } else {
                rng.random_range(-2.0f32..2.0)
            }
        })
    }

    /// Every non-reference backend (including the `auto` router),
    /// asserted bit-equal to the scalar reference on the same
    /// inputs.
    fn fast_backends() -> Vec<Box<dyn FloatGemmBackend>> {
        vec![
            Box::new(BlockedF32Backend),
            Box::new(WideF32Backend),
            Box::new(DispatchF32Backend),
        ]
    }

    #[test]
    fn backends_agree_bitwise_on_random_and_zero_laden_inputs() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut s = Matrix::default();
        let mut f = Matrix::default();
        for _ in 0..30 {
            let m = rng.random_range(1usize..7);
            let k = rng.random_range(1usize..40);
            let n = rng.random_range(1usize..200);
            let a = random_with_zeros(m, k, &mut rng);
            let b = random_with_zeros(k, n, &mut rng);
            let bt = random_with_zeros(n, k, &mut rng);
            let c = random_with_zeros(m, n, &mut rng);
            for fast in fast_backends() {
                ScalarF32Backend.matmul_into(&a, &b, &mut s);
                fast.matmul_into(&a, &b, &mut f);
                assert_eq!(s, f, "{} nn {m}x{k}x{n}", fast.name());
                ScalarF32Backend.matmul_nt_into(&a, &bt, &mut s);
                fast.matmul_nt_into(&a, &bt, &mut f);
                assert_eq!(s, f, "{} nt {m}x{k}x{n}", fast.name());
                ScalarF32Backend.matmul_tn_into(&a, &c, &mut s);
                fast.matmul_tn_into(&a, &c, &mut f);
                assert_eq!(s, f, "{} tn {m}x{k}x{n}", fast.name());
            }
        }
    }

    #[test]
    fn backends_agree_on_zero_dimension_edges() {
        let mut s = Matrix::default();
        let mut f = Matrix::default();
        for fast in fast_backends() {
            for (m, k, n) in [(0usize, 5usize, 3usize), (2, 0, 3), (2, 5, 0), (0, 0, 0)] {
                let a = Matrix::zeros(m, k);
                let b = Matrix::zeros(k, n);
                ScalarF32Backend.matmul_into(&a, &b, &mut s);
                fast.matmul_into(&a, &b, &mut f);
                assert_eq!(s.shape(), (m, n));
                assert_eq!(s, f, "{} nn {m}x{k}x{n}", fast.name());
            }
        }
    }

    #[test]
    fn wide_agrees_on_short_k_and_ragged_lane_tails() {
        // k below any unroll width, and n not a multiple of F32_LANES, so
        // both the ragged-tail lane path and the short-k cases are hit.
        let mut rng = StdRng::seed_from_u64(22);
        let mut s = Matrix::default();
        let mut f = Matrix::default();
        for (m, k, n) in [(1usize, 1usize, 1usize), (3, 2, 7), (2, 3, 13), (5, 1, 9)] {
            let a = random_with_zeros(m, k, &mut rng);
            let b = random_with_zeros(k, n, &mut rng);
            ScalarF32Backend.matmul_into(&a, &b, &mut s);
            WideF32Backend.matmul_into(&a, &b, &mut f);
            assert_eq!(s, f, "nn {m}x{k}x{n}");
            let bt = random_with_zeros(n, k, &mut rng);
            ScalarF32Backend.matmul_nt_into(&a, &bt, &mut s);
            WideF32Backend.matmul_nt_into(&a, &bt, &mut f);
            assert_eq!(s, f, "nt {m}x{k}x{n}");
            let c = random_with_zeros(m, n, &mut rng);
            ScalarF32Backend.matmul_tn_into(&a, &c, &mut s);
            WideF32Backend.matmul_tn_into(&a, &c, &mut f);
            assert_eq!(s, f, "tn {m}x{k}x{n}");
        }
    }

    #[test]
    fn zero_skip_is_observable_and_preserved() {
        // -0.0 rows must be skipped (not added): 0.0 + -0.0*1.0 would
        // still be -0.0-free, but the skip also protects NaN/inf in b.
        let a = Matrix::from_vec(1, 2, vec![0.0, 1.0]);
        let b = Matrix::from_vec(2, 1, vec![f32::NAN, 2.0]);
        let mut s = Matrix::default();
        ScalarF32Backend.matmul_into(&a, &b, &mut s);
        assert_eq!(s.get(0, 0), 2.0, "zero-skip must shield the NaN");
        for fast in fast_backends() {
            let mut f = Matrix::default();
            fast.matmul_into(&a, &b, &mut f);
            assert_eq!(f.get(0, 0), 2.0, "{}", fast.name());
        }
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn blocked_nn_shape_mismatch_panics_like_the_reference() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        BlockedF32Backend.matmul_into(&a, &b, &mut Matrix::default());
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn wide_nn_shape_mismatch_panics_like_the_reference() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        WideF32Backend.matmul_into(&a, &b, &mut Matrix::default());
    }

    #[test]
    fn kind_parses_case_insensitively_and_round_trips() {
        assert_eq!("scalar".parse(), Ok(FloatBackendKind::Scalar));
        assert_eq!(" BLOCKED\n".parse(), Ok(FloatBackendKind::Blocked));
        assert_eq!("Wide".parse(), Ok(FloatBackendKind::Wide));
        assert_eq!("auto".parse(), Ok(FloatBackendKind::Auto));
        assert!("simd".parse::<FloatBackendKind>().is_err());
        for kind in FloatBackendKind::ALL {
            assert_eq!(kind.name().parse(), Ok(kind));
            assert_eq!(kind.backend().name(), kind.name());
            assert_eq!(kind.to_string(), kind.name());
        }
    }

    /// Output columns `n` of every routing-table row, one per boundary of
    /// the routing rules.
    const ROUTE_N: [usize; 6] = [1, 16, 17, 48, 49, 256];

    /// The kernel `auto` runs for each boundary shape, as `((m, k), [name
    /// for each n in ROUTE_N])` with `(m, k, n)` the canonical output
    /// rows, reduction length and output columns. Written out literally,
    /// not derived from the rules, so a rule edit that moves any GEMM to
    /// another kernel fails here.
    type Routes = [((usize, usize), [&'static str; 6]); 36];

    /// `matmul`: `a` is m×k, `b` is k×n.
    #[rustfmt::skip]
    const ROUTES_NN: Routes = [
        ((1, 1), ["blocked", "blocked", "blocked", "blocked", "blocked", "blocked"]),
        ((1, 8), ["blocked", "blocked", "blocked", "blocked", "blocked", "blocked"]),
        ((1, 9), ["blocked", "blocked", "blocked", "blocked", "blocked", "blocked"]),
        ((1, 128), ["blocked", "blocked", "blocked", "blocked", "blocked", "blocked"]),
        ((1, 129), ["scalar", "scalar", "scalar", "scalar", "scalar", "scalar"]),
        ((1, 686), ["scalar", "scalar", "scalar", "scalar", "scalar", "scalar"]),
        ((2, 1), ["blocked", "blocked", "blocked", "blocked", "blocked", "blocked"]),
        ((2, 8), ["blocked", "blocked", "blocked", "blocked", "blocked", "blocked"]),
        ((2, 9), ["blocked", "blocked", "blocked", "blocked", "blocked", "blocked"]),
        ((2, 128), ["blocked", "blocked", "blocked", "blocked", "blocked", "blocked"]),
        ((2, 129), ["scalar", "scalar", "scalar", "scalar", "scalar", "scalar"]),
        ((2, 686), ["scalar", "scalar", "scalar", "scalar", "scalar", "scalar"]),
        ((3, 1), ["blocked", "blocked", "blocked", "blocked", "blocked", "blocked"]),
        ((3, 8), ["blocked", "blocked", "blocked", "blocked", "blocked", "blocked"]),
        ((3, 9), ["blocked", "blocked", "blocked", "blocked", "blocked", "blocked"]),
        ((3, 128), ["blocked", "blocked", "blocked", "blocked", "blocked", "blocked"]),
        ((3, 129), ["blocked", "blocked", "blocked", "blocked", "blocked", "blocked"]),
        ((3, 686), ["blocked", "blocked", "blocked", "blocked", "blocked", "blocked"]),
        ((8, 1), ["blocked", "blocked", "blocked", "blocked", "blocked", "blocked"]),
        ((8, 8), ["blocked", "blocked", "blocked", "blocked", "blocked", "blocked"]),
        ((8, 9), ["blocked", "blocked", "blocked", "blocked", "blocked", "blocked"]),
        ((8, 128), ["blocked", "blocked", "blocked", "blocked", "blocked", "blocked"]),
        ((8, 129), ["blocked", "blocked", "blocked", "blocked", "blocked", "blocked"]),
        ((8, 686), ["blocked", "blocked", "blocked", "blocked", "blocked", "blocked"]),
        ((9, 1), ["blocked", "blocked", "blocked", "blocked", "blocked", "blocked"]),
        ((9, 8), ["blocked", "blocked", "blocked", "blocked", "blocked", "blocked"]),
        ((9, 9), ["blocked", "blocked", "blocked", "blocked", "blocked", "blocked"]),
        ((9, 128), ["blocked", "blocked", "blocked", "blocked", "blocked", "blocked"]),
        ((9, 129), ["blocked", "blocked", "blocked", "blocked", "blocked", "blocked"]),
        ((9, 686), ["blocked", "blocked", "blocked", "blocked", "blocked", "blocked"]),
        ((64, 1), ["blocked", "blocked", "blocked", "blocked", "blocked", "blocked"]),
        ((64, 8), ["blocked", "blocked", "blocked", "blocked", "blocked", "blocked"]),
        ((64, 9), ["blocked", "blocked", "blocked", "blocked", "blocked", "blocked"]),
        ((64, 128), ["blocked", "blocked", "blocked", "blocked", "blocked", "blocked"]),
        ((64, 129), ["blocked", "blocked", "blocked", "blocked", "blocked", "blocked"]),
        ((64, 686), ["blocked", "blocked", "blocked", "blocked", "blocked", "blocked"]),
    ];

    /// `matmul_nt`: `a` is m×k, `b` is n×k.
    #[rustfmt::skip]
    const ROUTES_NT: Routes = [
        ((1, 1), ["wide", "wide", "wide", "wide", "wide", "wide"]),
        ((1, 8), ["wide", "wide", "wide", "wide", "wide", "wide"]),
        ((1, 9), ["wide", "wide", "wide", "wide", "wide", "wide"]),
        ((1, 128), ["wide", "wide", "wide", "wide", "wide", "wide"]),
        ((1, 129), ["wide", "wide", "wide", "wide", "wide", "wide"]),
        ((1, 686), ["wide", "wide", "wide", "wide", "wide", "wide"]),
        ((2, 1), ["wide", "wide", "wide", "wide", "wide", "wide"]),
        ((2, 8), ["wide", "wide", "wide", "wide", "wide", "wide"]),
        ((2, 9), ["wide", "wide", "wide", "wide", "wide", "wide"]),
        ((2, 128), ["wide", "wide", "wide", "wide", "wide", "wide"]),
        ((2, 129), ["wide", "wide", "wide", "wide", "wide", "wide"]),
        ((2, 686), ["wide", "wide", "wide", "wide", "wide", "wide"]),
        ((3, 1), ["wide", "wide", "wide", "wide", "wide", "wide"]),
        ((3, 8), ["wide", "wide", "wide", "wide", "wide", "wide"]),
        ((3, 9), ["wide", "wide", "wide", "wide", "wide", "wide"]),
        ((3, 128), ["wide", "wide", "wide", "wide", "wide", "wide"]),
        ((3, 129), ["wide", "wide", "wide", "wide", "wide", "wide"]),
        ((3, 686), ["wide", "wide", "wide", "wide", "wide", "wide"]),
        ((8, 1), ["wide", "wide", "wide", "wide", "wide", "wide"]),
        ((8, 8), ["wide", "wide", "wide", "wide", "wide", "wide"]),
        ((8, 9), ["wide", "wide", "wide", "wide", "wide", "wide"]),
        ((8, 128), ["wide", "wide", "wide", "wide", "wide", "wide"]),
        ((8, 129), ["wide", "wide", "wide", "wide", "wide", "wide"]),
        ((8, 686), ["wide", "wide", "wide", "wide", "wide", "wide"]),
        ((9, 1), ["wide", "wide", "wide", "wide", "wide", "wide"]),
        ((9, 8), ["wide", "wide", "wide", "wide", "wide", "wide"]),
        ((9, 9), ["wide", "wide", "wide", "wide", "wide", "wide"]),
        ((9, 128), ["wide", "wide", "wide", "wide", "wide", "wide"]),
        ((9, 129), ["wide", "wide", "wide", "wide", "wide", "wide"]),
        ((9, 686), ["wide", "wide", "wide", "wide", "wide", "wide"]),
        ((64, 1), ["wide", "wide", "wide", "wide", "wide", "wide"]),
        ((64, 8), ["wide", "wide", "wide", "wide", "wide", "wide"]),
        ((64, 9), ["wide", "wide", "wide", "wide", "wide", "wide"]),
        ((64, 128), ["wide", "wide", "wide", "wide", "wide", "wide"]),
        ((64, 129), ["wide", "wide", "wide", "wide", "wide", "wide"]),
        ((64, 686), ["wide", "wide", "wide", "wide", "wide", "wide"]),
    ];

    /// `matmul_tn`: `a` is k×m, `b` is k×n.
    #[rustfmt::skip]
    const ROUTES_TN: Routes = [
        ((1, 1), ["blocked", "blocked", "blocked", "blocked", "blocked", "blocked"]),
        ((1, 8), ["blocked", "blocked", "blocked", "blocked", "blocked", "blocked"]),
        ((1, 9), ["blocked", "blocked", "blocked", "blocked", "blocked", "blocked"]),
        ((1, 128), ["blocked", "blocked", "blocked", "blocked", "blocked", "blocked"]),
        ((1, 129), ["blocked", "blocked", "blocked", "blocked", "blocked", "blocked"]),
        ((1, 686), ["blocked", "blocked", "blocked", "blocked", "blocked", "blocked"]),
        ((2, 1), ["blocked", "blocked", "blocked", "blocked", "blocked", "blocked"]),
        ((2, 8), ["blocked", "blocked", "blocked", "blocked", "blocked", "blocked"]),
        ((2, 9), ["blocked", "blocked", "blocked", "blocked", "blocked", "blocked"]),
        ((2, 128), ["blocked", "blocked", "blocked", "blocked", "blocked", "blocked"]),
        ((2, 129), ["blocked", "blocked", "blocked", "blocked", "blocked", "blocked"]),
        ((2, 686), ["blocked", "blocked", "blocked", "blocked", "blocked", "blocked"]),
        ((3, 1), ["blocked", "blocked", "blocked", "blocked", "blocked", "blocked"]),
        ((3, 8), ["blocked", "blocked", "blocked", "blocked", "blocked", "blocked"]),
        ((3, 9), ["blocked", "blocked", "blocked", "blocked", "blocked", "blocked"]),
        ((3, 128), ["blocked", "blocked", "blocked", "blocked", "blocked", "blocked"]),
        ((3, 129), ["blocked", "blocked", "blocked", "blocked", "blocked", "blocked"]),
        ((3, 686), ["blocked", "blocked", "blocked", "blocked", "blocked", "blocked"]),
        ((8, 1), ["blocked", "blocked", "blocked", "blocked", "blocked", "blocked"]),
        ((8, 8), ["blocked", "blocked", "blocked", "blocked", "blocked", "blocked"]),
        ((8, 9), ["blocked", "blocked", "blocked", "blocked", "blocked", "blocked"]),
        ((8, 128), ["blocked", "blocked", "blocked", "blocked", "blocked", "blocked"]),
        ((8, 129), ["blocked", "blocked", "blocked", "blocked", "blocked", "blocked"]),
        ((8, 686), ["blocked", "blocked", "blocked", "blocked", "blocked", "blocked"]),
        ((9, 1), ["blocked", "blocked", "blocked", "blocked", "blocked", "blocked"]),
        ((9, 8), ["blocked", "blocked", "blocked", "blocked", "blocked", "blocked"]),
        ((9, 9), ["blocked", "blocked", "scalar", "scalar", "blocked", "blocked"]),
        ((9, 128), ["blocked", "blocked", "scalar", "scalar", "blocked", "blocked"]),
        ((9, 129), ["blocked", "blocked", "blocked", "blocked", "blocked", "blocked"]),
        ((9, 686), ["blocked", "blocked", "blocked", "blocked", "blocked", "blocked"]),
        ((64, 1), ["blocked", "blocked", "blocked", "blocked", "blocked", "blocked"]),
        ((64, 8), ["blocked", "blocked", "blocked", "blocked", "blocked", "blocked"]),
        ((64, 9), ["blocked", "blocked", "scalar", "scalar", "blocked", "blocked"]),
        ((64, 128), ["blocked", "blocked", "scalar", "scalar", "blocked", "blocked"]),
        ((64, 129), ["blocked", "blocked", "blocked", "blocked", "blocked", "blocked"]),
        ((64, 686), ["blocked", "blocked", "blocked", "blocked", "blocked", "blocked"]),
    ];

    #[test]
    fn dispatch_routes_every_boundary_shape_to_its_pinned_kernel() {
        type Select = fn(&Matrix, &Matrix) -> &'static dyn FloatGemmBackend;
        let ops: [(&str, &Routes, Select); 3] = [
            ("matmul", &ROUTES_NN, DispatchF32Backend::select_nn),
            ("matmul_nt", &ROUTES_NT, DispatchF32Backend::select_nt),
            ("matmul_tn", &ROUTES_TN, DispatchF32Backend::select_tn),
        ];
        for (op, routes, select) in ops {
            for &((m, k), names) in routes {
                for (n, want) in ROUTE_N.into_iter().zip(names) {
                    let (a, b) = match op {
                        "matmul" => (Matrix::zeros(m, k), Matrix::zeros(k, n)),
                        "matmul_nt" => (Matrix::zeros(m, k), Matrix::zeros(n, k)),
                        _ => (Matrix::zeros(k, m), Matrix::zeros(k, n)),
                    };
                    assert_eq!(select(&a, &b).name(), want, "{op} {m}x{k}x{n}");
                }
            }
        }
    }

    #[test]
    fn parse_env_falls_back_with_validation() {
        assert_eq!(
            FloatBackendKind::parse_env(None),
            FloatBackendKind::default()
        );
        assert_eq!(
            FloatBackendKind::parse_env(Some("")),
            FloatBackendKind::default()
        );
        assert_eq!(
            FloatBackendKind::parse_env(Some("definitely-not-a-backend")),
            FloatBackendKind::default()
        );
        assert_eq!(
            FloatBackendKind::parse_env(Some("auto:/x.json")),
            FloatBackendKind::default()
        );
        assert_eq!(
            FloatBackendKind::parse_env(Some("sCaLaR")),
            FloatBackendKind::Scalar
        );
        assert_eq!(
            FloatBackendKind::parse_env(Some("blocked")),
            FloatBackendKind::Blocked
        );
        assert_eq!(
            FloatBackendKind::parse_env(Some(" wide ")),
            FloatBackendKind::Wide
        );
    }
}
