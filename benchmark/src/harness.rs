//! The one closed-loop client harness: each client sends its next
//! operation only after the previous one returned, so a slow system
//! receives less load instead of a growing queue.

use std::time::Instant;

/// When each client stops issuing operations.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// Send no operation after this instant (the one in flight finishes).
    At(Instant),
    /// Send exactly this many operations per client.
    Count(usize),
}

/// One completed operation.
#[derive(Debug)]
pub struct Sample<R> {
    /// What the operation returned.
    pub result: R,
    /// Wall time from send to return, as the client observed it.
    pub latency_ns: u64,
}

/// Runs `clients` closed-loop clients on their own threads. Client `i`
/// is built by `connect(i)`, sends `op` until `stop`, and is handed to
/// `close` at the end. Returns every sample (client by client, in send
/// order) and the instant the last client finished.
pub fn closed_loop<C, R: Send>(
    clients: usize,
    stop: Stop,
    connect: impl Fn(usize) -> C + Sync,
    op: impl Fn(&mut C) -> R + Sync,
    close: impl Fn(C) + Sync,
) -> (Vec<Sample<R>>, Instant) {
    let per_client = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|i| {
                let (connect, op, close) = (&connect, &op, &close);
                scope.spawn(move || {
                    let mut client = connect(i);
                    let mut samples = Vec::new();
                    loop {
                        let more = match stop {
                            Stop::At(deadline) => Instant::now() < deadline,
                            Stop::Count(n) => samples.len() < n,
                        };
                        if !more {
                            break;
                        }
                        let t = Instant::now();
                        let result = op(&mut client);
                        let latency_ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
                        samples.push(Sample { result, latency_ns });
                    }
                    close(client);
                    (samples, Instant::now())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    let end = per_client
        .iter()
        .map(|(_, end)| *end)
        .max()
        .unwrap_or_else(Instant::now);
    let samples = per_client.into_iter().flat_map(|(s, _)| s).collect();
    (samples, end)
}

/// Maps `f` over `items` on [`crate::THREADS`] threads, each taking one
/// contiguous share; results come back in item order.
pub fn parallel_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let share = items.len().div_ceil(crate::THREADS).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(share)
            .map(|chunk| {
                let f = &f;
                scope.spawn(move || chunk.iter().map(f).collect::<Vec<R>>())
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker thread panicked"))
            .collect()
    })
}
