//! Dense numeric building blocks for the CREATE reproduction.
//!
//! This crate provides the small, self-contained math substrate that the
//! rest of the workspace builds on:
//!
//! * [`Matrix`] — a row-major `f32` matrix with the handful of operations
//!   the planner/controller stacks need (GEMM, transpose, map/zip, slicing).
//! * [`fgemm`] — pluggable `f32` GEMM backends behind the `Matrix`
//!   multiply entry points (`CREATE_F32_BACKEND=scalar|blocked|wide|auto`,
//!   bit-identical by contract, `auto` picking a kernel per op with a
//!   compiled-in shape rule); the training-stack twin of `create-accel`'s
//!   INT8 `GemmBackend`.
//! * [`envcfg`] — the shared validated environment-variable helper every
//!   `CREATE_*` knob parses through (silent default when unset/blank,
//!   warn-and-fallback on garbage).
//! * [`atomicfile`] — crash-safe write-temp-fsync-rename file replacement
//!   shared by every on-disk cache and results artifact in the workspace.
//! * [`crc`] — the CRC32 shared by the sweep journals' and the network
//!   front-end's `[len][crc][payload]` framing.
//! * [`par`] — the scoped worker-pool primitive (`CREATE_THREADS`-sized
//!   [`par::scoped_map`]) shared by the experiment engine in
//!   `create-core` and the data-parallel training loops in
//!   `create-agents`; it lives here, at the bottom of the crate graph,
//!   so both can reach it.
//! * [`seed`] — the SplitMix64 finalizer and the uniform `[0, 1)` draw
//!   behind every derived seed, backoff jitter and chaos decision.
//! * [`quant`] — per-tensor symmetric INT8/INT4 quantization, mirroring the
//!   accelerator datapath of the paper (8-bit multipliers, 24-bit
//!   accumulators, offline-profiled scales).
//! * [`hadamard`] — Hadamard matrices (via the Kronecker/Sylvester
//!   construction), the fast Walsh–Hadamard transform, and general
//!   orthogonal [`hadamard::Rotation`]s used both to *plant* systematic
//!   activation outliers (Householder concentration) and to *remove* them
//!   (weight-rotation-enhanced planning, Sec. 5.2 of the paper).
//! * [`stats`] — summary statistics, histograms, correlation/R², used by the
//!   characterization experiments (Figs. 4, 5, 8, 14).
//!
//! # Example
//!
//! ```
//! use create_tensor::{Matrix, hadamard};
//!
//! // Rotating by a Hadamard matrix preserves the L2 norm of every row,
//! // which is exactly why it can be folded across RMSNorm.
//! let x = Matrix::from_fn(1, 8, |_, j| j as f32);
//! let h = hadamard::Rotation::hadamard(8);
//! let y = h.apply_right(&x);
//! let n0: f32 = x.as_slice().iter().map(|v| v * v).sum();
//! let n1: f32 = y.as_slice().iter().map(|v| v * v).sum();
//! assert!((n0 - n1).abs() < 1e-3);
//! ```

pub mod atomicfile;
pub mod crc;
pub mod envcfg;
pub mod fgemm;
pub mod hadamard;
pub mod matrix;
pub mod par;
pub mod quant;
pub mod seed;
pub mod stats;

pub use fgemm::{
    BlockedF32Backend, DispatchF32Backend, FloatBackendKind, FloatGemmBackend, ScalarF32Backend,
    WideF32Backend,
};
pub use matrix::Matrix;
pub use quant::{Precision, QuantMatrix, QuantParams};
