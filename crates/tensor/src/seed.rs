//! Seed mixing shared by every deterministic stream in the workspace.
//!
//! Trial seeds (`create_core::engine::derive_seed`), served-request
//! seeds (`create_serve::request_seed`), retry backoff jitter and the
//! chaos hooks of the serving engine, the network front-end and the sweep
//! fabric all hash an integer identity into a well-mixed 64-bit value
//! and, where they need a probability, turn it into a uniform draw. This
//! module is the one implementation of both steps.

/// The SplitMix64 finalizer: a bijective avalanche mix of `z`, so nearby
/// inputs (consecutive ids, neighbouring grid points) give decorrelated
/// outputs.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from the top 53 bits of `z` — every value
/// is exactly representable as an `f64`.
pub fn unit_f64(z: u64) -> f64 {
    (z >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_matches_known_answers() {
        assert_eq!(mix64(0), 0);
        assert_eq!(mix64(1), 0x5692_161D_100B_05E5);
        assert_eq!(mix64(0x9E37_79B9_7F4A_7C15), 0xE220_A839_7B1D_CDAF);
        assert_eq!(mix64(u64::MAX), 0xB4D0_55FC_F2CB_BD7B);
    }

    #[test]
    fn unit_draws_span_the_half_open_interval() {
        assert_eq!(unit_f64(0), 0.0);
        assert_eq!(unit_f64(1 << 63), 0.5);
        assert!(unit_f64(u64::MAX) < 1.0);
        assert_eq!(unit_f64(u64::MAX), 1.0 - f64::EPSILON / 2.0);
    }
}
