//! Deterministic kill injection for the sweep fabric.
//!
//! `CREATE_SWEEP_CHAOS` follows the same contract as the serving
//! engine's `CREATE_SERVE_CHAOS`: a fraction in `[0, 1]`, and whether
//! the hook fires for a given unit of work is a **pure function of the
//! probability and a seed** — `0` never fires, `1` always fires, and the
//! set of chaos-hit chunks is identical across reruns, thread counts and
//! machines.
//!
//! The sweep's unit is one chunk, and the seed is salted with the
//! shard's *recovery generation* (how many attempts the journal has
//! recorded): a kill decision that ignored the generation would re-fire
//! identically on every resume and a chaos-enabled sweep could never
//! finish. With the salt, each resume re-draws, so for any `p < 1` the
//! kill-resume loop terminates with probability 1 while staying fully
//! deterministic given the journal state. `p = 1` still kills every
//! attempt — "always fires" is part of the contract.

use create_tensor::seed::{mix64, unit_f64};

/// Salt decorrelating sweep chaos draws from the serving engine's (which
/// uses its own salt) and from the trial RNG streams.
const SWEEP_CHAOS_SALT: u64 = 0x5EE9_FAB1_C0DE_CAFE;

/// Where in a chunk's lifecycle the kill lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillSite {
    /// Before the chunk's trials run: no file side effects at all.
    Before,
    /// Mid-append: a torn partial frame reaches the journal, the classic
    /// crash-during-write.
    MidAppend,
    /// After the record is durably appended: the work is saved but the
    /// process never got to act on it.
    AfterAppend,
}

/// How kills are delivered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChaosMode {
    /// No injection (the default).
    Off,
    /// Real crash semantics: `std::process::abort()`, no destructors, no
    /// unwinding — the closest in-process stand-in for SIGKILL. Used by
    /// the CLI and the CI kill-and-resume smoke job.
    Process(f64),
    /// Same decisions and same file side effects, but the kill surfaces
    /// as an error return instead of process death — lets in-process
    /// tests drive whole kill/resume histories.
    Simulated(f64),
}

impl ChaosMode {
    /// The injection probability (0 when off).
    pub fn probability(&self) -> f64 {
        match self {
            ChaosMode::Off => 0.0,
            ChaosMode::Process(p) | ChaosMode::Simulated(p) => *p,
        }
    }
}

/// The raw chaos draw for one chunk attempt: a pure function of the
/// chunk's identity and the shard's recovery generation.
pub fn chaos_draw(chunk_seed: u64, generation: u32) -> u64 {
    mix64(
        chunk_seed ^ SWEEP_CHAOS_SALT ^ (u64::from(generation)).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    )
}

/// Whether chaos fires on this attempt, and where, given `draw` from
/// [`chaos_draw`]. The top 53 bits decide *if* (the same
/// uniform-in-`[0,1)` construction `CREATE_SERVE_CHAOS` uses); two low
/// bits pick the site so all three sites occur across a sweep.
pub fn plan_kill(probability: f64, draw: u64) -> Option<KillSite> {
    if probability <= 0.0 {
        return None;
    }
    let fires = probability >= 1.0 || unit_f64(draw) < probability;
    if !fires {
        return None;
    }
    Some(match draw & 3 {
        0 => KillSite::Before,
        1 => KillSite::MidAppend,
        _ => KillSite::AfterAppend,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_never_fires_and_one_always_fires() {
        for seed in 0..200u64 {
            for generation in 1..4 {
                let draw = chaos_draw(seed, generation);
                assert_eq!(plan_kill(0.0, draw), None);
                assert!(plan_kill(1.0, draw).is_some());
            }
        }
    }

    #[test]
    fn draws_are_deterministic_but_vary_with_generation() {
        let a = chaos_draw(42, 1);
        assert_eq!(a, chaos_draw(42, 1));
        assert_ne!(a, chaos_draw(42, 2));
        assert_ne!(a, chaos_draw(43, 1));
    }

    #[test]
    fn firing_rate_tracks_probability() {
        let n = 4000;
        let hits = (0..n)
            .filter(|&s| plan_kill(0.3, chaos_draw(s, 1)).is_some())
            .count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.05, "rate {rate} far from 0.3");
    }

    #[test]
    fn all_three_sites_occur() {
        let mut seen = [false; 3];
        for s in 0..200u64 {
            match plan_kill(1.0, chaos_draw(s, 1)) {
                Some(KillSite::Before) => seen[0] = true,
                Some(KillSite::MidAppend) => seen[1] = true,
                Some(KillSite::AfterAppend) => seen[2] = true,
                None => unreachable!("p=1 always fires"),
            }
        }
        assert_eq!(seen, [true; 3]);
    }
}
