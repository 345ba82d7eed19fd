//! Network-serving throughput/latency: closed-loop TCP clients against
//! the `create-net` front-end over loopback.
//!
//! The serve bench measures the engine behind an in-process call; this
//! one adds the wire — framing, the per-connection reader/writer pair,
//! and a real socket round trip per request. At each concurrency level,
//! `c` clients each run a connect-once, call → await loop (one request
//! outstanding per client), measuring requests/s and client-observed
//! p50 and tail latency (`p99_ms` from 100 requests on, `max_ms` below
//! that — [`create_bench::tail_ms`]). Levels come from
//! `CREATE_NET_LEVELS` (comma-separated, default `1,4,16`; CI smoke runs
//! `1,4`), and each level's request count derives from the level alone,
//! so the record keys — and the committed baseline in
//! `results/baseline/BENCH_net.json` — are stable across machines.

use create_bench::{
    banner, emit_bench_json, jarvis_deployment, percentile_ms, tail_ms, BenchRecord, Stopwatch,
};
use create_core::prelude::*;
use create_env::TaskId;
use create_net::{NetClient, NetClientConfig, NetConfig, NetResponse, NetServer, WireConfig};
use create_serve::{MissionEngine, ServeConfig};
use std::sync::Arc;
use std::time::Instant;

/// Pinned in the record key: the bench measures the serving path, not
/// the machine, so the baseline must not drift with core count.
const WORKERS: usize = 4;
const QUEUE: usize = 256;
const INFLIGHT: usize = 32;

/// The concurrency levels, newtyped for the shared env contract
/// (`parse_validated` needs `Display` for its fallback message).
struct Levels(Vec<usize>);

impl std::fmt::Display for Levels {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let rendered: Vec<String> = self.0.iter().map(usize::to_string).collect();
        f.write_str(&rendered.join(","))
    }
}

/// `CREATE_NET_LEVELS`: comma-separated positive client counts, through
/// the shared warn-and-fallback contract.
fn net_levels() -> Vec<usize> {
    create_tensor::envcfg::parse_validated(
        "CREATE_NET_LEVELS",
        std::env::var("CREATE_NET_LEVELS").ok().as_deref(),
        Levels(vec![1, 4, 16]),
        |raw| {
            let levels = raw
                .split(',')
                .map(|t| match t.trim().parse::<usize>() {
                    Ok(v) if v > 0 => Ok(v),
                    _ => Err("expected comma-separated positive integers".to_string()),
                })
                .collect::<Result<Vec<usize>, String>>()?;
            if levels.is_empty() {
                return Err("expected at least one level".to_string());
            }
            Ok(Levels(levels))
        },
    )
    .0
}

/// Requests per level, a pure function of the concurrency so the record
/// key is machine-independent.
fn requests_for(concurrency: usize) -> u64 {
    (3 * concurrency as u64).max(48)
}

fn main() {
    let _t = Stopwatch::start("net");
    let dep = Arc::new(jarvis_deployment());
    let task = TaskId::Wooden;

    banner(
        "Net",
        "closed-loop requests/s and latency vs TCP client concurrency",
    );
    let mut table = TextTable::new(vec![
        "clients",
        "requests",
        "requests_per_s",
        "p50_ms",
        "tail_ms",
    ]);
    let mut records = Vec::new();
    for concurrency in net_levels() {
        let engine = Arc::new(MissionEngine::start(
            Arc::clone(&dep),
            ServeConfig::builder()
                .workers(WORKERS)
                .queue(QUEUE)
                .base_seed(0x4E37)
                // Measurements must stay chaos-free even when the suite
                // runs under the chaos env knobs (the CI smoke jobs).
                .chaos(0.0)
                .governor(None)
                .build(),
        ));
        let server = NetServer::start(
            Arc::clone(&engine),
            NetConfig::builder()
                .addr("127.0.0.1:0")
                .inflight(INFLIGHT)
                .chaos(0.0)
                .build(),
        )
        .expect("bind loopback");
        let addr = server.local_addr().to_string();

        // One throwaway request so session warm-up and lazy init stay
        // out of the measured window.
        NetClient::connect(addr.clone())
            .call(task, WireConfig::Golden)
            .expect("warm-up resolves");

        let requests = requests_for(concurrency);
        let started = Instant::now();
        let latencies_ns = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..concurrency)
                .map(|client| {
                    let addr = addr.clone();
                    // Spread the remainder so exactly `requests` run.
                    let quota = requests / concurrency as u64
                        + u64::from((client as u64) < requests % concurrency as u64);
                    scope.spawn(move || {
                        let mut config = NetClientConfig::new(addr);
                        config.seed = client as u64;
                        let mut net = NetClient::with_config(config);
                        let mut latencies = Vec::with_capacity(quota as usize);
                        for _ in 0..quota {
                            let t = Instant::now();
                            let response =
                                net.call(task, WireConfig::Golden).expect("call resolves");
                            assert!(
                                matches!(response, NetResponse::Done(_)),
                                "chaos-free closed loop must complete: {response:?}"
                            );
                            let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
                            latencies.push(ns);
                        }
                        net.goodbye();
                        latencies
                    })
                })
                .collect();
            let mut all: Vec<u64> = Vec::with_capacity(requests as usize);
            for client in clients {
                all.extend(client.join().expect("client thread"));
            }
            all
        });
        let elapsed = started.elapsed().as_secs_f64();
        server.shutdown();
        match Arc::try_unwrap(engine) {
            Ok(engine) => engine.shutdown(),
            Err(_) => unreachable!("server drained; no other engine handles"),
        }

        let mut sorted = latencies_ns.clone();
        sorted.sort_unstable();
        let requests_per_s = requests as f64 / elapsed.max(1e-9);
        let p50 = percentile_ms(&sorted, 0.50);
        let (tail_field, tail) = tail_ms(&sorted);
        table.row(vec![
            concurrency.to_string(),
            requests.to_string(),
            format!("{requests_per_s:.2}"),
            format!("{p50:.2}"),
            format!("{tail:.2} ({tail_field})"),
        ]);
        records.push(
            BenchRecord::new()
                .str("bench", "net_closed_loop")
                .str("task", "wooden")
                .int("workers", WORKERS as u64)
                .int("queue", QUEUE as u64)
                .int("inflight", INFLIGHT as u64)
                .int("concurrency", concurrency as u64)
                .int("requests", requests)
                .num("elapsed_s", elapsed)
                .num("requests_per_s", requests_per_s)
                .num("p50_ms", p50)
                .num(tail_field, tail),
        );
    }
    println!("{}", table.render());
    emit_bench_json("net", &records);
    println!(
        "Expected shape: requests/s tracks the serve bench's missions/s\n\
         within the loopback round-trip overhead, climbing toward the\n\
         {WORKERS}-worker service ceiling as clients increase."
    );
}
