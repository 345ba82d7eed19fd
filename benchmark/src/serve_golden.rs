//! `serve_golden`: a closed loop of [`THREADS`] `NetClient`s over loopback
//! to a `NetServer` in front of a [`THREADS`]-worker `MissionEngine`,
//! serving golden Charcoal missions.
//!
//! One task only: the engine assigns seeds in admission order, so with a
//! task mix the work a run does would follow arrival order and swing with
//! scheduling. With one task every run serves the same missions at the
//! same seeds, in whatever order they arrive.

use crate::harness::{closed_loop, parallel_map, Sample, Stop};
use crate::stats::{mix, peak_rss_mb, summarize};
use crate::{load_system, print_value, timed_setup, Report, THREADS};
use create_core::prelude::*;
use create_env::TaskId;
use create_net::wire::outcome_digest;
use create_net::{
    NetClient, NetClientConfig, NetConfig, NetError, NetOutcome, NetResponse, NetServer, WireConfig,
};
use create_serve::{request_seed, MissionEngine, ServeConfig};
use create_tensor::Precision;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The served task: ≈100 golden steps per mission.
pub const TASK: TaskId = TaskId::Charcoal;
/// Engine queue capacity: larger than the client count, so a closed loop
/// is never refused.
const QUEUE: usize = 16;
/// Per-connection in-flight cap.
const INFLIGHT: usize = 4;

/// The engine base seed of a run.
pub fn base_seed(seed: u64) -> u64 {
    mix(seed, 1)
}

/// A running engine with a server in front; dropping it shuts both down
/// (server first, so no connection outlives the engine).
pub struct Stack {
    pub server: NetServer,
    pub engine: Arc<MissionEngine>,
    pub dep: Arc<Deployment>,
}

/// The serving engine every workload's serve layer runs: [`THREADS`]
/// workers, no chaos, no governor, no deadlines.
fn engine(dep: Arc<Deployment>, base_seed: u64) -> MissionEngine {
    MissionEngine::start(
        dep,
        ServeConfig::builder()
            .workers(THREADS)
            .queue(QUEUE)
            .base_seed(base_seed)
            .chaos(0.0)
            .default_deadline(None)
            .governor(None)
            .build(),
    )
}

/// Loads the agents from the cache and starts an engine and a loopback
/// server.
pub fn start_stack(base_seed: u64) -> Result<Stack, String> {
    let system = load_system()?;
    let dep = Arc::new(Deployment::new(&system, Precision::Int8));
    let engine = Arc::new(engine(Arc::clone(&dep), base_seed));
    let server = NetServer::start(
        Arc::clone(&engine),
        NetConfig::builder()
            .addr("127.0.0.1:0")
            .inflight(INFLIGHT)
            .chaos(0.0)
            .build(),
    )
    .map_err(|e| format!("cannot bind a loopback server: {e}"))?;
    Ok(Stack {
        server,
        engine,
        dep,
    })
}

/// A client of `addr` with its own backoff seed.
pub fn client(addr: &str, index: usize) -> NetClient {
    let mut config = NetClientConfig::new(addr);
    config.seed = index as u64;
    NetClient::with_config(config)
}

/// Whether a `done` reply is bit-identical to the offline replay of its
/// mission: digest, steps and energy bits.
fn reply_matches(reply: &NetOutcome, replay: &MissionOutcome) -> bool {
    reply.digest == outcome_digest(replay)
        && reply.steps == replay.steps
        && reply.energy_bits == replay.energy_j().to_bits()
}

/// Checks that the replies carry every admitted request id `0..accepted`
/// exactly once, each at the seed the engine's replay contract assigns.
fn ids_cover(base_seed: u64, accepted: u64, replies: &[NetOutcome]) -> Result<(), String> {
    let mut ids: Vec<u64> = replies.iter().map(|r| r.request_id).collect();
    ids.sort_unstable();
    if ids != (0..accepted).collect::<Vec<u64>>() {
        return Err(format!(
            "{} replies do not cover the {accepted} admitted request ids once each",
            replies.len()
        ));
    }
    match replies
        .iter()
        .find(|r| r.seed != request_seed(base_seed, r.request_id))
    {
        Some(r) => Err(format!(
            "request {} ran at seed {:#x}, not at its replay seed",
            r.request_id, r.seed
        )),
        None => Ok(()),
    }
}

/// The `done` replies among `samples`.
fn done_replies(samples: &[Sample<Result<NetResponse, NetError>>]) -> Vec<NetOutcome> {
    samples
        .iter()
        .filter_map(|s| match s.result {
            Ok(NetResponse::Done(outcome)) => Some(outcome),
            _ => None,
        })
        .collect()
}

pub fn run(seed: u64, window: Duration) -> Result<Report, String> {
    let base = base_seed(seed);
    let (stack, setup_s) = timed_setup(|| start_stack(base))?;
    let addr = stack.server.local_addr().to_string();

    let start = Instant::now();
    let (samples, end) = closed_loop(
        THREADS,
        Stop::At(start + window),
        |i| client(&addr, i),
        |c| c.call(TASK, WireConfig::Golden),
        |mut c| c.goodbye(),
    );
    let elapsed = (end - start).as_secs_f64();
    let peak_rss = peak_rss_mb()?;

    let Stack {
        server,
        engine,
        dep,
    } = stack;
    server.shutdown();
    let accepted = engine.accepted();
    drop(engine);

    // Checks, after the timed window: every reply against an offline
    // replay of its mission, and the admitted ids against the replies.
    let done = done_replies(&samples);
    let config = CreateConfig::golden();
    let replays = parallel_map(&done, |r| {
        MissionSession::new(&dep).run(TASK, &config, r.seed)
    });
    let matching = done
        .iter()
        .zip(&replays)
        .filter(|(r, replay)| reply_matches(r, replay))
        .count();
    let ids = ids_cover(base, accepted, &done);
    if let Err(e) = &ids {
        eprintln!("[serve_golden] {e}");
    }

    let attempted = samples.len() as u64;
    let failed = attempted - matching as u64;
    let steps: u64 = done.iter().map(|r| r.steps).sum();
    let latencies_ms: Vec<f64> = samples.iter().map(|s| s.latency_ns as f64 / 1e6).collect();
    let latency = summarize(&latencies_ms).ok_or("no request completed in the window")?;
    let ok = (attempted - failed) as f64;

    println!("serve_golden: {attempted} requests from {THREADS} clients in {elapsed:.3} s");
    print_value("missions_per_s", ok / elapsed, "1/s");
    print_value("steps_per_s", steps as f64 / elapsed, "1/s");
    print_value("mission_latency_p50_ms", latency.p50, "ms");
    match latency.tail {
        Some((p, v)) => print_value(&format!("mission_latency_p{p}_ms"), v, "ms"),
        None => println!("mission latency: fewer than 40 samples, median only"),
    }
    println!("mission latency samples: {}", latency.n);

    let mut report = Report {
        correct: ids.is_ok(),
        attempted,
        failed,
        metrics: Vec::new(),
    };
    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mb", peak_rss, "MB");
    report.metric("ops_per_s", ok / elapsed, "1/s");
    report.metric("work_per_s", steps as f64 / elapsed, "1/s");
    report.metric("op_latency_p50_ms", latency.p50, "ms");
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use create_accel::energy::EnergyMeter;

    fn outcome(steps: u64) -> MissionOutcome {
        MissionOutcome {
            success: false,
            steps,
            plans: 2,
            meter: EnergyMeter::new(),
            ldo_switches: 0,
            entropy_trace: vec![0.5, 1.25],
            predicted_trace: Vec::new(),
            voltage_trace: Vec::new(),
            ad: Default::default(),
            scheme_events: Default::default(),
            entropy_spikes: 0,
        }
    }

    fn reply(request_id: u64, base: u64, replay: &MissionOutcome) -> NetOutcome {
        NetOutcome {
            client_id: 0,
            request_id,
            seed: request_seed(base, request_id),
            attempts: 1,
            success: replay.success,
            steps: replay.steps,
            plans: replay.plans,
            energy_bits: replay.energy_j().to_bits(),
            digest: outcome_digest(replay),
        }
    }

    #[test]
    fn a_flipped_digest_bit_fails_the_replay_check() {
        let replay = outcome(40);
        let good = reply(0, 7, &replay);
        assert!(reply_matches(&good, &replay));
        let flipped = NetOutcome {
            digest: good.digest ^ 1,
            ..good
        };
        assert!(!reply_matches(&flipped, &replay));
        let other_steps = NetOutcome { steps: 41, ..good };
        assert!(!reply_matches(&other_steps, &replay));
    }

    #[test]
    fn admitted_ids_must_come_back_once_at_their_seed() {
        let replay = outcome(40);
        let replies: Vec<NetOutcome> = (0..3).map(|id| reply(id, 7, &replay)).collect();
        assert!(ids_cover(7, 3, &replies).is_ok());
        assert!(
            ids_cover(7, 4, &replies).is_err(),
            "an admitted id is missing"
        );
        let mut twice = replies.clone();
        twice[2].request_id = 1;
        assert!(ids_cover(7, 3, &twice).is_err(), "an id came back twice");
        let mut reseeded = replies;
        reseeded[1].seed ^= 1;
        assert!(
            ids_cover(7, 3, &reseeded).is_err(),
            "a seed is off its contract"
        );
    }
}
