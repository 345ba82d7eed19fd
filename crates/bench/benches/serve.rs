//! Serving-engine throughput/latency: closed-loop clients against the
//! resident `create-serve` engine.
//!
//! At each concurrency level, `c` client threads each run a
//! submit → wait loop (one request outstanding per client) against a
//! `MissionEngine` with a pinned worker count, measuring missions/s and
//! the p50 and tail end-to-end latency (queue wait + service) per
//! served mission — the tail is `p99_ms` from 100 missions on and
//! `max_ms` below that ([`create_bench::tail_ms`]). Levels come from
//! `CREATE_SERVE_LEVELS` (comma-separated, default `1,8,64`; CI smoke
//! runs `1,8`), and each level's mission count derives from the level
//! alone, so the record keys — and the committed baseline in
//! `results/baseline/BENCH_serve.json` — are stable across machines.

use create_bench::{
    banner, emit_bench_json, jarvis_deployment, percentile_ms, tail_ms, BenchRecord, Stopwatch,
};
use create_core::prelude::*;
use create_env::TaskId;
use create_serve::{MissionEngine, MissionRequest, ServeConfig};
use std::sync::Arc;
use std::time::Instant;

/// Worker count pinned in the record key: the bench measures the serving
/// path, not the machine, so the baseline must not drift with core count.
const WORKERS: usize = 4;
const QUEUE: usize = 256;

/// The concurrency levels, newtyped for the shared env contract
/// (`parse_validated` needs `Display` for its fallback message).
struct Levels(Vec<usize>);

impl std::fmt::Display for Levels {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let rendered: Vec<String> = self.0.iter().map(usize::to_string).collect();
        f.write_str(&rendered.join(","))
    }
}

/// `CREATE_SERVE_LEVELS`: comma-separated positive client counts, through
/// the shared warn-and-fallback contract.
fn serve_levels() -> Vec<usize> {
    create_tensor::envcfg::parse_validated(
        "CREATE_SERVE_LEVELS",
        std::env::var("CREATE_SERVE_LEVELS").ok().as_deref(),
        Levels(vec![1, 8, 64]),
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

/// Missions per level, a pure function of the concurrency so the record
/// key is machine-independent: enough per-client iterations to average
/// over at c=1, enough total at c=64 to exercise real contention.
fn missions_for(concurrency: usize) -> u64 {
    (3 * concurrency as u64).max(48)
}

fn main() {
    let _t = Stopwatch::start("serve");
    let dep = Arc::new(jarvis_deployment());
    let task = TaskId::Wooden;
    let config = CreateConfig::golden();

    banner(
        "Serve",
        "closed-loop missions/s and latency vs client concurrency",
    );
    let mut table = TextTable::new(vec![
        "clients",
        "missions",
        "missions_per_s",
        "p50_ms",
        "tail_ms",
    ]);
    let mut records = Vec::new();
    for concurrency in serve_levels() {
        let engine = Arc::new(MissionEngine::start(
            Arc::clone(&dep),
            ServeConfig::builder()
                .workers(WORKERS)
                .queue(QUEUE)
                .base_seed(0x5E12E)
                // Measurements must stay chaos-free even when the suite
                // runs under CREATE_SERVE_CHAOS (the CI chaos-smoke job).
                .chaos(0.0)
                .build(),
        ));
        // One throwaway mission so session warm-up and lazy init stay out
        // of the measured window.
        engine
            .submit(MissionRequest::new(task, config.clone()))
            .expect("fresh queue has room")
            .wait();

        let missions = missions_for(concurrency);
        let started = Instant::now();
        let latencies_ns = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..concurrency)
                .map(|client| {
                    let engine = Arc::clone(&engine);
                    let config = config.clone();
                    // Spread the remainder so exactly `missions` run.
                    let quota = missions / concurrency as u64
                        + u64::from((client as u64) < missions % concurrency as u64);
                    scope.spawn(move || {
                        let mut latencies = Vec::with_capacity(quota as usize);
                        for _ in 0..quota {
                            // Closed loop: at most `concurrency` requests
                            // outstanding, so a 256-deep queue never
                            // rejects; spin-retry stays as a safety net.
                            let mut request = MissionRequest::new(task, config.clone());
                            let served = loop {
                                match engine.submit(request) {
                                    Ok(ticket) => break ticket.wait(),
                                    Err(rejected) => {
                                        request = rejected.request;
                                        std::thread::yield_now();
                                    }
                                }
                            };
                            latencies.push(served.latency_ns());
                        }
                        latencies
                    })
                })
                .collect();
            let mut all: Vec<u64> = Vec::with_capacity(missions as usize);
            for client in clients {
                all.extend(client.join().expect("client thread"));
            }
            all
        });
        let elapsed = started.elapsed().as_secs_f64();
        match Arc::try_unwrap(engine) {
            Ok(engine) => engine.shutdown(),
            Err(_) => unreachable!("clients joined; no other engine handles"),
        }

        let mut sorted = latencies_ns.clone();
        sorted.sort_unstable();
        let missions_per_s = missions as f64 / elapsed.max(1e-9);
        let p50 = percentile_ms(&sorted, 0.50);
        let (tail_field, tail) = tail_ms(&sorted);
        table.row(vec![
            concurrency.to_string(),
            missions.to_string(),
            format!("{missions_per_s:.2}"),
            format!("{p50:.2}"),
            format!("{tail:.2} ({tail_field})"),
        ]);
        records.push(
            BenchRecord::new()
                .str("bench", "serve_closed_loop")
                .str("task", "wooden")
                .int("workers", WORKERS as u64)
                .int("queue", QUEUE as u64)
                .int("concurrency", concurrency as u64)
                .int("missions", missions)
                .num("elapsed_s", elapsed)
                .num("missions_per_s", missions_per_s)
                .num("p50_ms", p50)
                .num(tail_field, tail),
        );
    }
    println!("{}", table.render());
    emit_bench_json("serve", &records);
    println!(
        "Expected shape: missions/s climbs toward the {WORKERS}-worker\n\
         service ceiling as clients increase, then the tail grows with queueing."
    );
}
