//! Pluggable GEMM backends for the systolic-array clean-compute path.
//!
//! [`Accelerator::linear`](crate::Accelerator::linear) computes the *clean*
//! (pre-injection) accumulator buffer through a [`GemmBackend`] trait
//! object, so alternative implementations can slot in under the unchanged
//! injection, anomaly-detection, requantization and MAC/energy-accounting
//! stages. Four backends ship:
//!
//! * [`ScalarBackend`] — the original triple loop from
//!   [`array::gemm_i8_acc`], kept as the bit-exact reference;
//! * [`BlockedBackend`] — a cache-blocked, 4-way k-unrolled rewrite that
//!   accumulates in `i32` lanes (autovectorization-friendly) and is
//!   **bit-identical** to the reference for every input;
//! * [`WideBackend`] — a lane-parallel rewrite carrying [`I8_LANES`]
//!   independent output columns in a fixed-size `[i32; I8_LANES]`
//!   register block across the whole k-loop (one output write per lane
//!   group instead of one read-modify-write per k-step), equally
//!   bit-identical;
//! * [`DispatchBackend`] (`auto`, the default) — a per-shape router: a
//!   compiled-in rule on each call's `(m, k, n)` picks `wide` or
//!   `blocked`. Routing between bit-identical kernels is itself
//!   bit-identical.
//!
//! The parity guarantee is not approximate: integer addition is exact and
//! associative, and the final 24-bit wrap only depends on the low 32 bits
//! of the exact sum, so reassociating the reduction cannot change a single
//! accumulator bit. Property tests (`tests/props.rs`) and the CI backend
//! matrix (`CREATE_GEMM_BACKEND=scalar|blocked`) pin this down.
//!
//! # Selecting a backend
//!
//! The backend is part of [`AccelConfig`](crate::AccelConfig); its default
//! comes from the `CREATE_GEMM_BACKEND` environment variable (`scalar`,
//! `blocked`, `wide` or `auto`, case-insensitive). Unset or empty selects
//! [the default](GemmBackendKind::default) (`auto`); any other value
//! warns on stderr and falls back to the default, mirroring
//! `CREATE_REPS` / `CREATE_THREADS` validation.
//!
//! # Adding another backend
//!
//! 1. Implement [`GemmBackend`] (delegate the shape check to
//!    [`array::check_gemm_shapes`] so mismatch panics stay uniform, and
//!    wrap accumulators with [`array::wrap_acc24`] /
//!    [`array::wrap_acc24_i32`] semantics);
//! 2. add a [`GemmBackendKind`] variant, its `instantiate`/`FromStr`/
//!    `name` arms, and list it in [`GemmBackendKind::ALL`];
//! 3. the parity property tests and the `kernels`/`fig08_gemm_profile`
//!    harnesses iterate [`GemmBackendKind::ALL`], so the new backend is
//!    automatically held to the bit-parity bar.

use crate::array;
use create_tensor::QuantMatrix;
use std::fmt;
use std::str::FromStr;

/// A clean-compute GEMM implementation for the INT8 datapath.
///
/// Implementations must reproduce the systolic array's semantics exactly:
/// `a (m×k) @ w (k×n)` with 24-bit wrap-around accumulators, bit-identical
/// to [`ScalarBackend`] for every input (including `m`, `k` or `n` of
/// zero), and must panic with the standard `gemm shape mismatch` message
/// when inner dimensions disagree. Fault injection, AD and the profiler
/// all consume the returned buffer, so any deviation would silently change
/// experiment semantics.
pub trait GemmBackend: fmt::Debug + Send + Sync {
    /// Stable lower-case identifier (`"scalar"`, `"blocked"`, `"wide"`).
    fn name(&self) -> &'static str;

    /// Computes the row-major `m·n` accumulator buffer, each entry a
    /// sign-extended 24-bit value exactly as the array would emit it.
    ///
    /// # Panics
    ///
    /// Panics if `a.cols() != w.rows()`.
    fn gemm_i8_acc(&self, a: &QuantMatrix, w: &QuantMatrix) -> Vec<i32>;

    /// [`gemm_i8_acc`](Self::gemm_i8_acc) into a caller-provided buffer.
    ///
    /// The contract is *bit-identical output, reused capacity*: `acc` is
    /// resized to `m·n` and fully overwritten, and once it has been
    /// warmed up at the largest shape the call performs no heap
    /// allocation. This is the accelerator's steady-state entry point —
    /// [`Accelerator::linear`](crate::Accelerator::linear) routes every
    /// clean GEMM through it against a persistent scratch buffer.
    ///
    /// The default implementation delegates to the allocating path (so
    /// third-party backends stay correct without changes); both shipped
    /// backends override it with a true in-place computation.
    ///
    /// # Panics
    ///
    /// Panics if `a.cols() != w.rows()`.
    fn gemm_i8_acc_into(&self, a: &QuantMatrix, w: &QuantMatrix, acc: &mut Vec<i32>) {
        *acc = self.gemm_i8_acc(a, w);
    }
}

/// The reference backend: the original scalar triple loop
/// ([`array::gemm_i8_acc`]), accumulating in `i64` and wrapping once at
/// the end. Slowest, simplest, and the definition of correct.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScalarBackend;

impl GemmBackend for ScalarBackend {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn gemm_i8_acc(&self, a: &QuantMatrix, w: &QuantMatrix) -> Vec<i32> {
        array::gemm_i8_acc(a, w)
    }

    fn gemm_i8_acc_into(&self, a: &QuantMatrix, w: &QuantMatrix, acc: &mut Vec<i32>) {
        array::gemm_i8_acc_into(a, w, acc);
    }
}

/// How many k-rows of `w` one inner block consumes (unroll width).
/// 4 measured best on the `kernels` bench (8 adds register pressure for
/// no gain at these shapes).
const K_UNROLL: usize = 4;

/// Output-column tile: one tile of the out row plus `K_UNROLL` matching
/// `w`-row slices stay resident in L1 while a k-block streams through.
const N_TILE: usize = 256;

/// The fast backend: output rows are tiled `N_TILE` columns at a time and
/// the k loop is manually unrolled `K_UNROLL`-wide, so each pass fuses
/// four rank-1 updates into one read-modify-write of the out tile.
/// Accumulation is `i32` with wrapping adds — exact modulo 2³², which is
/// all the final 24-bit wrap can observe — giving twice the SIMD lane
/// width of the scalar backend's `i64` sums while staying bit-identical.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockedBackend;

impl GemmBackend for BlockedBackend {
    fn name(&self) -> &'static str {
        "blocked"
    }

    fn gemm_i8_acc(&self, a: &QuantMatrix, w: &QuantMatrix) -> Vec<i32> {
        let mut acc = Vec::new();
        self.gemm_i8_acc_into(a, w, &mut acc);
        acc
    }

    fn gemm_i8_acc_into(&self, a: &QuantMatrix, w: &QuantMatrix, acc: &mut Vec<i32>) {
        array::check_gemm_shapes(a, w);
        let (m, k, n) = (a.rows(), a.cols(), w.cols());
        acc.clear();
        acc.resize(m * n, 0);
        if n == 0 {
            return;
        }
        let w_data = w.as_slice();
        for i in 0..m {
            let a_row = a.row(i);
            let out_row = &mut acc[i * n..(i + 1) * n];
            for j0 in (0..n).step_by(N_TILE) {
                let j1 = (j0 + N_TILE).min(n);
                let out = &mut out_row[j0..j1];
                let mut kk = 0;
                while kk + K_UNROLL <= k {
                    let a0 = a_row[kk] as i16;
                    let a1 = a_row[kk + 1] as i16;
                    let a2 = a_row[kk + 2] as i16;
                    let a3 = a_row[kk + 3] as i16;
                    if (a0 | a1 | a2 | a3) != 0 {
                        let len = out.len();
                        let w0 = &w_data[kk * n + j0..][..len];
                        let w1 = &w_data[(kk + 1) * n + j0..][..len];
                        let w2 = &w_data[(kk + 2) * n + j0..][..len];
                        let w3 = &w_data[(kk + 3) * n + j0..][..len];
                        for jj in 0..len {
                            // Every i8×i8 product fits in i16 (|p| ≤
                            // 16384), so the products are exact in i16
                            // and pairwise i32 sums match pmaddwd; the
                            // running i32 sum is exact mod 2^32, which is
                            // all the 24-bit wrap can observe.
                            let p01 = (a0 * w0[jj] as i16) as i32 + (a1 * w1[jj] as i16) as i32;
                            let p23 = (a2 * w2[jj] as i16) as i32 + (a3 * w3[jj] as i16) as i32;
                            out[jj] = out[jj].wrapping_add(p01.wrapping_add(p23));
                        }
                    }
                    kk += K_UNROLL;
                }
                while kk < k {
                    let av = a_row[kk] as i32;
                    if av != 0 {
                        let w_row = &w_data[kk * n + j0..kk * n + j1];
                        for (o, &wv) in out.iter_mut().zip(w_row) {
                            *o = o.wrapping_add(av * wv as i32);
                        }
                    }
                    kk += 1;
                }
            }
        }
        for v in acc.iter_mut() {
            *v = array::wrap_acc24_i32(*v);
        }
    }
}

/// Lane width of [`WideBackend`]: eight `i32` accumulators — a full
/// 256-bit vector register — per lane group, autovectorized from the
/// fixed-size array loops without intrinsics.
pub const I8_LANES: usize = 8;

/// The lane-parallel backend: [`I8_LANES`] independent output columns are
/// carried as one `[i32; I8_LANES]` accumulator array across the entire
/// k-loop, so each output element is written exactly once. Every lane
/// owns one output and accumulates in ascending k-order; integer
/// addition is exact, so (as with [`BlockedBackend`]) the result is
/// bit-identical to the reference for every input. Zero multipliers are
/// skipped with a scalar branch shared by the whole lane group — a pure
/// speed heuristic (one-hot featurizer rows are mostly zeros) that
/// cannot affect integer sums.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WideBackend;

impl GemmBackend for WideBackend {
    fn name(&self) -> &'static str {
        "wide"
    }

    fn gemm_i8_acc(&self, a: &QuantMatrix, w: &QuantMatrix) -> Vec<i32> {
        let mut acc = Vec::new();
        self.gemm_i8_acc_into(a, w, &mut acc);
        acc
    }

    fn gemm_i8_acc_into(&self, a: &QuantMatrix, w: &QuantMatrix, acc: &mut Vec<i32>) {
        array::check_gemm_shapes(a, w);
        let (m, k, n) = (a.rows(), a.cols(), w.cols());
        acc.clear();
        acc.resize(m * n, 0);
        if n == 0 {
            return;
        }
        let w_data = w.as_slice();
        for i in 0..m {
            let a_row = a.row(i);
            let out_row = &mut acc[i * n..(i + 1) * n];
            let mut j0 = 0;
            while j0 + I8_LANES <= n {
                let mut lanes = [0i32; I8_LANES];
                for kk in 0..k {
                    // Products fit i16 (|p| ≤ 16384) and the running i32
                    // sum is exact mod 2^32 — all the final 24-bit wrap
                    // can observe (same argument as BlockedBackend).
                    let av = a_row[kk] as i16;
                    if av == 0 {
                        continue;
                    }
                    let w_row = &w_data[kk * n + j0..][..I8_LANES];
                    for l in 0..I8_LANES {
                        lanes[l] = lanes[l].wrapping_add((av * w_row[l] as i16) as i32);
                    }
                }
                out_row[j0..j0 + I8_LANES].copy_from_slice(&lanes);
                j0 += I8_LANES;
            }
            // Ragged tail: same accumulation, variable lane count.
            if j0 < n {
                let tail = &mut out_row[j0..];
                for kk in 0..k {
                    let av = a_row[kk] as i16;
                    if av == 0 {
                        continue;
                    }
                    let w_row = &w_data[kk * n + j0..][..tail.len()];
                    for (o, &wv) in tail.iter_mut().zip(w_row) {
                        *o = o.wrapping_add((av * wv as i16) as i32);
                    }
                }
            }
        }
        for v in acc.iter_mut() {
            *v = array::wrap_acc24_i32(*v);
        }
    }
}

/// The `auto` backend: a per-shape router over the concrete INT8
/// backends.
///
/// Each call's `(m, k, n)` = (`a.rows()`, `a.cols()`, `w.cols()`) picks a
/// kernel with a few integer compares — `wide` for narrow outputs (`n ≤
/// 16`, the controller head) and for long reductions into mid-width
/// outputs (`k > 128`, `n ≤ 48`, the one-hot featurizer), `blocked` for
/// everything else, per the per-shape winners in the committed
/// `results/baseline/BENCH_kernels.json`. No allocation, no state, so the
/// accelerator's allocation-free `linear_into` contract is untouched, and
/// every route is bit-identical, so routing cannot change a single
/// accumulator bit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DispatchBackend;

impl DispatchBackend {
    fn select(a: &QuantMatrix, w: &QuantMatrix) -> &'static dyn GemmBackend {
        let (k, n) = (a.cols(), w.cols());
        if n <= 16 || (k > 128 && n <= 48) {
            &WideBackend
        } else {
            &BlockedBackend
        }
    }
}

impl GemmBackend for DispatchBackend {
    fn name(&self) -> &'static str {
        "auto"
    }

    fn gemm_i8_acc(&self, a: &QuantMatrix, w: &QuantMatrix) -> Vec<i32> {
        Self::select(a, w).gemm_i8_acc(a, w)
    }

    fn gemm_i8_acc_into(&self, a: &QuantMatrix, w: &QuantMatrix, acc: &mut Vec<i32>) {
        Self::select(a, w).gemm_i8_acc_into(a, w, acc)
    }
}

/// Which [`GemmBackend`] an [`AccelConfig`](crate::AccelConfig) selects.
///
/// This is the (cheaply copyable) configuration-side handle; the
/// accelerator turns it into a trait object at construction via
/// [`instantiate`](Self::instantiate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GemmBackendKind {
    /// [`ScalarBackend`] — the bit-exact reference triple loop.
    Scalar,
    /// [`BlockedBackend`] — tiled/unrolled, bit-identical, faster.
    Blocked,
    /// [`WideBackend`] — lane-parallel output columns, bit-identical.
    Wide,
    /// [`DispatchBackend`] — per-shape routing to the measured-fastest
    /// concrete backend, bit-identical because every route is.
    Auto,
}

impl Default for GemmBackendKind {
    /// `Auto`: the committed baselines prove per-shape routing matches or
    /// beats every single backend, and parity is bit-exact, so everyone
    /// gets per-shape dispatch unless `CREATE_GEMM_BACKEND` opts out.
    fn default() -> Self {
        GemmBackendKind::Auto
    }
}

impl fmt::Display for GemmBackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for GemmBackendKind {
    type Err = String;

    /// Case-insensitive, whitespace-tolerant parse of a backend name.
    fn from_str(s: &str) -> Result<Self, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Ok(GemmBackendKind::Scalar),
            "blocked" => Ok(GemmBackendKind::Blocked),
            "wide" => Ok(GemmBackendKind::Wide),
            "auto" => Ok(GemmBackendKind::Auto),
            other => Err(format!(
                "unknown GEMM backend {other:?}: expected \"scalar\", \"blocked\", \"wide\" \
                 or \"auto\""
            )),
        }
    }
}

impl GemmBackendKind {
    /// Every shipped backend, in reference-first order. Parity tests and
    /// the bench harnesses iterate this list.
    pub const ALL: [GemmBackendKind; 4] = [
        GemmBackendKind::Scalar,
        GemmBackendKind::Blocked,
        GemmBackendKind::Wide,
        GemmBackendKind::Auto,
    ];

    /// The backend's stable lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            GemmBackendKind::Scalar => ScalarBackend.name(),
            GemmBackendKind::Blocked => BlockedBackend.name(),
            GemmBackendKind::Wide => WideBackend.name(),
            GemmBackendKind::Auto => "auto",
        }
    }

    /// Boxes the selected implementation.
    pub fn instantiate(self) -> Box<dyn GemmBackend> {
        match self {
            GemmBackendKind::Scalar => Box::new(ScalarBackend),
            GemmBackendKind::Blocked => Box::new(BlockedBackend),
            GemmBackendKind::Wide => Box::new(WideBackend),
            GemmBackendKind::Auto => Box::new(DispatchBackend),
        }
    }

    /// Resolves a raw `CREATE_GEMM_BACKEND` value (`None` = unset).
    ///
    /// Unset, empty and whitespace-only select the default silently; a
    /// non-empty unknown value warns on stderr and falls back to the
    /// default rather than silently misbehaving — the shared validated
    /// fallback contract of [`create_tensor::envcfg`], same as
    /// `CREATE_REPS`/`CREATE_THREADS`/`CREATE_F32_BACKEND`. Exposed (not
    /// just `from_env`) so tests can cover parsing without racing on the
    /// process environment.
    pub fn parse_env(raw: Option<&str>) -> Self {
        create_tensor::envcfg::parse_validated("CREATE_GEMM_BACKEND", raw, Self::default(), |s| {
            s.parse()
        })
    }

    /// The backend selected by the `CREATE_GEMM_BACKEND` environment
    /// variable, with validated fallback (see [`parse_env`](Self::parse_env)).
    ///
    /// The parse is cached for the life of the process (accelerators are
    /// constructed per trial on the hot path, and the fallback warning
    /// should print once, not once per trial — the same once-per-run
    /// contract as `CREATE_REPS`). Tests that need to exercise parsing
    /// call [`parse_env`](Self::parse_env) directly.
    pub fn from_env() -> Self {
        static FROM_ENV: std::sync::OnceLock<GemmBackendKind> = std::sync::OnceLock::new();
        *FROM_ENV
            .get_or_init(|| Self::parse_env(std::env::var("CREATE_GEMM_BACKEND").ok().as_deref()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use create_tensor::{Matrix, Precision, QuantMatrix, QuantParams};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn quant_unit(m: &Matrix) -> QuantMatrix {
        QuantMatrix::quantize_with(m, QuantParams::from_scale(1.0, Precision::Int8))
    }

    fn random_quant(rows: usize, cols: usize, rng: &mut StdRng) -> QuantMatrix {
        quant_unit(&Matrix::from_fn(rows, cols, |_, _| {
            rng.random_range(-127i32..=127) as f32
        }))
    }

    /// Every non-reference backend, asserted bit-equal to the scalar
    /// reference on the same inputs. The dispatcher rides along: routing
    /// between bit-identical kernels must itself be bit-identical.
    fn fast_backends() -> [Box<dyn GemmBackend>; 3] {
        [
            Box::new(BlockedBackend),
            Box::new(WideBackend),
            Box::new(DispatchBackend),
        ]
    }

    #[test]
    fn backends_agree_on_random_shapes() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..40 {
            let m = rng.random_range(1usize..6);
            let k = rng.random_range(1usize..40);
            let n = rng.random_range(1usize..300);
            let a = random_quant(m, k, &mut rng);
            let w = random_quant(k, n, &mut rng);
            let reference = ScalarBackend.gemm_i8_acc(&a, &w);
            for fast in fast_backends() {
                assert_eq!(
                    reference,
                    fast.gemm_i8_acc(&a, &w),
                    "{} shape {m}x{k}x{n}",
                    fast.name()
                );
            }
        }
    }

    #[test]
    fn backends_agree_on_zero_row_and_zero_col_edges() {
        let mut rng = StdRng::seed_from_u64(12);
        // Includes short-k (below any unroll width) and n below / not a
        // multiple of the wide lane count.
        for (m, k, n) in [
            (0, 7, 5),
            (3, 0, 5),
            (3, 7, 0),
            (0, 0, 0),
            (1, 1, 1),
            (2, 3, 7),
            (4, 2, 13),
        ] {
            let a = random_quant(m, k, &mut rng);
            let w = random_quant(k, n, &mut rng);
            let scalar = ScalarBackend.gemm_i8_acc(&a, &w);
            assert_eq!(scalar.len(), m * n);
            for fast in fast_backends() {
                assert_eq!(
                    scalar,
                    fast.gemm_i8_acc(&a, &w),
                    "{} shape {m}x{k}x{n}",
                    fast.name()
                );
            }
        }
    }

    #[test]
    fn backends_agree_past_the_24_bit_wrap() {
        // k = 600 saturated codes: |sum| = 127*127*600 = 9,677,400 > 2^23,
        // so the accumulator wraps and parity must hold on wrapped values.
        let ones = Matrix::from_fn(2, 600, |_, _| 127.0);
        let a = quant_unit(&ones);
        let w = quant_unit(&ones.transpose());
        let scalar = ScalarBackend.gemm_i8_acc(&a, &w);
        assert!(
            scalar.iter().any(|&v| v < 0),
            "test must actually exercise wrap-around"
        );
        for fast in fast_backends() {
            assert_eq!(scalar, fast.gemm_i8_acc(&a, &w), "{}", fast.name());
        }
    }

    #[test]
    fn into_path_is_bit_identical_and_reuses_capacity_for_all_backends() {
        let mut rng = StdRng::seed_from_u64(13);
        for kind in GemmBackendKind::ALL {
            let backend = kind.instantiate();
            let mut acc = Vec::new();
            // Warm up at the largest shape, then shrink: same bits, same
            // buffer.
            let warm_a = random_quant(4, 64, &mut rng);
            let warm_w = random_quant(64, 300, &mut rng);
            backend.gemm_i8_acc_into(&warm_a, &warm_w, &mut acc);
            assert_eq!(acc, backend.gemm_i8_acc(&warm_a, &warm_w), "{kind}");
            let ptr = acc.as_ptr();
            for (m, k, n) in [(2usize, 7usize, 9usize), (1, 1, 1), (0, 3, 2), (3, 0, 4)] {
                let a = random_quant(m, k, &mut rng);
                let w = random_quant(k, n, &mut rng);
                backend.gemm_i8_acc_into(&a, &w, &mut acc);
                assert_eq!(acc, backend.gemm_i8_acc(&a, &w), "{kind} {m}x{k}x{n}");
                assert_eq!(acc.as_ptr(), ptr, "{kind}: buffer must be reused");
            }
        }
    }

    #[test]
    #[should_panic(expected = "gemm shape mismatch")]
    fn blocked_shape_mismatch_panics_like_the_reference() {
        let a = quant_unit(&Matrix::zeros(2, 3));
        let w = quant_unit(&Matrix::zeros(4, 2));
        let backend: Box<dyn GemmBackend> = GemmBackendKind::Blocked.instantiate();
        let _ = backend.gemm_i8_acc(&a, &w);
    }

    #[test]
    #[should_panic(expected = "gemm shape mismatch")]
    fn wide_shape_mismatch_panics_like_the_reference() {
        let a = quant_unit(&Matrix::zeros(2, 3));
        let w = quant_unit(&Matrix::zeros(4, 2));
        let backend: Box<dyn GemmBackend> = GemmBackendKind::Wide.instantiate();
        let _ = backend.gemm_i8_acc(&a, &w);
    }

    #[test]
    fn kind_parses_case_insensitively() {
        assert_eq!("scalar".parse(), Ok(GemmBackendKind::Scalar));
        assert_eq!("SCALAR".parse(), Ok(GemmBackendKind::Scalar));
        assert_eq!(" Blocked\n".parse(), Ok(GemmBackendKind::Blocked));
        assert_eq!("WIDE".parse(), Ok(GemmBackendKind::Wide));
        assert_eq!("auto".parse(), Ok(GemmBackendKind::Auto));
        assert!("simd".parse::<GemmBackendKind>().is_err());
    }

    /// Output columns `n` of every [`ROUTES`] row, one per boundary of
    /// the routing rule.
    const ROUTE_N: [usize; 6] = [1, 16, 17, 48, 49, 256];

    /// The kernel `auto` runs for each boundary shape, as `((m, k), [name
    /// for each n in ROUTE_N])`. Written out literally, not derived from
    /// the rule, so a rule edit that moves any GEMM to another kernel
    /// fails here.
    #[rustfmt::skip]
    const ROUTES: [((usize, usize), [&str; 6]); 36] = [
        ((1, 1), ["wide", "wide", "blocked", "blocked", "blocked", "blocked"]),
        ((1, 8), ["wide", "wide", "blocked", "blocked", "blocked", "blocked"]),
        ((1, 9), ["wide", "wide", "blocked", "blocked", "blocked", "blocked"]),
        ((1, 128), ["wide", "wide", "blocked", "blocked", "blocked", "blocked"]),
        ((1, 129), ["wide", "wide", "wide", "wide", "blocked", "blocked"]),
        ((1, 686), ["wide", "wide", "wide", "wide", "blocked", "blocked"]),
        ((2, 1), ["wide", "wide", "blocked", "blocked", "blocked", "blocked"]),
        ((2, 8), ["wide", "wide", "blocked", "blocked", "blocked", "blocked"]),
        ((2, 9), ["wide", "wide", "blocked", "blocked", "blocked", "blocked"]),
        ((2, 128), ["wide", "wide", "blocked", "blocked", "blocked", "blocked"]),
        ((2, 129), ["wide", "wide", "wide", "wide", "blocked", "blocked"]),
        ((2, 686), ["wide", "wide", "wide", "wide", "blocked", "blocked"]),
        ((3, 1), ["wide", "wide", "blocked", "blocked", "blocked", "blocked"]),
        ((3, 8), ["wide", "wide", "blocked", "blocked", "blocked", "blocked"]),
        ((3, 9), ["wide", "wide", "blocked", "blocked", "blocked", "blocked"]),
        ((3, 128), ["wide", "wide", "blocked", "blocked", "blocked", "blocked"]),
        ((3, 129), ["wide", "wide", "wide", "wide", "blocked", "blocked"]),
        ((3, 686), ["wide", "wide", "wide", "wide", "blocked", "blocked"]),
        ((8, 1), ["wide", "wide", "blocked", "blocked", "blocked", "blocked"]),
        ((8, 8), ["wide", "wide", "blocked", "blocked", "blocked", "blocked"]),
        ((8, 9), ["wide", "wide", "blocked", "blocked", "blocked", "blocked"]),
        ((8, 128), ["wide", "wide", "blocked", "blocked", "blocked", "blocked"]),
        ((8, 129), ["wide", "wide", "wide", "wide", "blocked", "blocked"]),
        ((8, 686), ["wide", "wide", "wide", "wide", "blocked", "blocked"]),
        ((9, 1), ["wide", "wide", "blocked", "blocked", "blocked", "blocked"]),
        ((9, 8), ["wide", "wide", "blocked", "blocked", "blocked", "blocked"]),
        ((9, 9), ["wide", "wide", "blocked", "blocked", "blocked", "blocked"]),
        ((9, 128), ["wide", "wide", "blocked", "blocked", "blocked", "blocked"]),
        ((9, 129), ["wide", "wide", "wide", "wide", "blocked", "blocked"]),
        ((9, 686), ["wide", "wide", "wide", "wide", "blocked", "blocked"]),
        ((64, 1), ["wide", "wide", "blocked", "blocked", "blocked", "blocked"]),
        ((64, 8), ["wide", "wide", "blocked", "blocked", "blocked", "blocked"]),
        ((64, 9), ["wide", "wide", "blocked", "blocked", "blocked", "blocked"]),
        ((64, 128), ["wide", "wide", "blocked", "blocked", "blocked", "blocked"]),
        ((64, 129), ["wide", "wide", "wide", "wide", "blocked", "blocked"]),
        ((64, 686), ["wide", "wide", "wide", "wide", "blocked", "blocked"]),
    ];

    #[test]
    fn dispatch_routes_every_boundary_shape_to_its_pinned_kernel() {
        let routed = |m: usize, k: usize, n: usize| {
            let a = quant_unit(&Matrix::zeros(m, k));
            let w = quant_unit(&Matrix::zeros(k, n));
            DispatchBackend::select(&a, &w).name()
        };
        for ((m, k), names) in ROUTES {
            for (n, want) in ROUTE_N.into_iter().zip(names) {
                assert_eq!(routed(m, k, n), want, "gemm_i8 {m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn parse_env_falls_back_with_validation() {
        assert_eq!(GemmBackendKind::parse_env(None), GemmBackendKind::default());
        assert_eq!(
            GemmBackendKind::parse_env(Some("")),
            GemmBackendKind::default()
        );
        assert_eq!(
            GemmBackendKind::parse_env(Some("  \t")),
            GemmBackendKind::default()
        );
        assert_eq!(
            GemmBackendKind::parse_env(Some("definitely-not-a-backend")),
            GemmBackendKind::default()
        );
        assert_eq!(
            GemmBackendKind::parse_env(Some("auto:/x.json")),
            GemmBackendKind::default()
        );
        assert_eq!(
            GemmBackendKind::parse_env(Some("sCaLaR")),
            GemmBackendKind::Scalar
        );
        assert_eq!(
            GemmBackendKind::parse_env(Some("blocked")),
            GemmBackendKind::Blocked
        );
    }

    #[test]
    fn names_round_trip_through_from_str() {
        for kind in GemmBackendKind::ALL {
            assert_eq!(kind.name().parse(), Ok(kind));
            assert_eq!(kind.instantiate().name(), kind.name());
            assert_eq!(kind.to_string(), kind.name());
        }
    }
}
