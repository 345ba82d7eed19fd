//! Deterministic network-fault injection for the TCP front-end.
//!
//! `CREATE_NET_CHAOS` follows the workspace chaos contract
//! (`CREATE_SERVE_CHAOS`, `CREATE_SWEEP_CHAOS`): a fraction in `[0, 1]`,
//! and whether a fault fires for a given response is a **pure function
//! of the probability and a seed** — `0` never fires, `1` always fires,
//! and the set of chaos-hit responses is identical across reruns, client
//! counts and machines.
//!
//! The front-end's unit is one *response about to be written*, and the
//! seed is the served outcome's final mission seed. A client that loses
//! a response to chaos reconnects and re-submits; the engine assigns the
//! retried request a fresh dense id, so the retry runs — and draws chaos
//! — at a *new* seed. For any `p < 1` the drop-retry loop therefore
//! terminates with probability 1 while staying fully deterministic given
//! the request history (the exact property the sweep gets from salting
//! its draws with the recovery generation).

use create_tensor::seed::{mix64, unit_f64};

/// Salt decorrelating net chaos draws from the serving engine's and the
/// sweep's (each has its own salt) and from the mission RNG streams.
const NET_CHAOS_SALT: u64 = 0x7E1E_C0DE_5A17_ED0D;

/// Which network fault a chaos hit injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFault {
    /// The connection drops before the response frame is written — the
    /// client sees a clean EOF with a request outstanding.
    DropBeforeReply,
    /// Half the response frame is written, then the connection drops —
    /// the client's decoder sees a torn frame.
    TornWrite,
    /// The response stalls (bounded by `CREATE_NET_CHAOS_STALL_MS`)
    /// before being written — exercises the client's read deadline.
    StalledRead,
}

/// The raw chaos draw for one response: a pure function of the served
/// mission's final seed.
pub fn chaos_draw(outcome_seed: u64) -> u64 {
    mix64(outcome_seed ^ NET_CHAOS_SALT)
}

/// Whether chaos fires on this response, and which fault, given `draw`
/// from [`chaos_draw`]. The top 53 bits decide *if* (the same
/// uniform-in-`[0,1)` construction the other chaos hooks use); two low
/// bits pick the fault so all three occur across a soak.
pub fn plan_fault(probability: f64, draw: u64) -> Option<NetFault> {
    if probability <= 0.0 {
        return None;
    }
    let fires = probability >= 1.0 || unit_f64(draw) < probability;
    if !fires {
        return None;
    }
    Some(match draw & 3 {
        0 => NetFault::DropBeforeReply,
        1 => NetFault::TornWrite,
        _ => NetFault::StalledRead,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_never_fires_and_one_always_fires() {
        for seed in 0..200u64 {
            let draw = chaos_draw(seed);
            assert_eq!(plan_fault(0.0, draw), None);
            assert!(plan_fault(1.0, draw).is_some());
        }
    }

    #[test]
    fn draws_are_deterministic_per_seed() {
        assert_eq!(chaos_draw(42), chaos_draw(42));
        assert_ne!(chaos_draw(42), chaos_draw(43));
    }

    #[test]
    fn firing_rate_tracks_probability() {
        let n = 4000;
        let hits = (0..n)
            .filter(|&s| plan_fault(0.25, chaos_draw(s)).is_some())
            .count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.05, "rate {rate} far from 0.25");
    }

    #[test]
    fn all_three_faults_occur() {
        let mut seen = [false; 3];
        for s in 0..200u64 {
            match plan_fault(1.0, chaos_draw(s)) {
                Some(NetFault::DropBeforeReply) => seen[0] = true,
                Some(NetFault::TornWrite) => seen[1] = true,
                Some(NetFault::StalledRead) => seen[2] = true,
                None => unreachable!("p=1 always fires"),
            }
        }
        assert_eq!(seen, [true; 3]);
    }
}
