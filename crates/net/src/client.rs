//! The reconnecting client: one correlation id per logical request, a
//! retry budget, and deterministic jittered backoff.
//!
//! [`NetClient::call`] owns the whole failure surface: transport faults
//! (dropped connections, torn frames, read deadlines, `bye` frames,
//! `error` answers) reconnect and **re-submit at the same client-side
//! correlation id**; load rejections (`queue-full`, `overloaded`) back
//! off and retry until the budget runs out, then come back as the typed
//! [`NetResponse::Rejected`] they are. Terminal answers (`done`,
//! `failed`, `shutting-down`, `deadline-expired`) return immediately.
//! Every call resolves exactly once — a response, a typed rejection, or
//! [`NetError::Exhausted`]; nothing hangs and nothing is silently
//! dropped, which is the client half of the soak test's contract.
//!
//! The engine assigns a retried submission a fresh request id — and
//! therefore a fresh deterministic seed — so the server-side replay
//! contract ([`create_serve::request_seed`]) is preserved: whichever
//! attempt's `done` line finally arrives carries the id and seed that
//! replay it bit-for-bit.

use crate::wire::{frame, ClientMsg, FrameBuf, NetOutcome, NetReject, ServerMsg, WireConfig};
use create_env::TaskId;
use create_serve::{backoff_delay, ServeFailure};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

/// Salt decorrelating client backoff jitter from every other consumer of
/// [`create_serve::request_seed`].
const BACKOFF_SALT: u64 = 0xBACC_0FF5_EEDF_00D5;

/// How a logical request resolved. All three arms are *resolutions* —
/// the typed-failure contract of the serving engine, carried across the
/// network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetResponse {
    /// A completed mission (successful or not — see
    /// [`NetOutcome::success`]).
    Done(NetOutcome),
    /// The server refused it and the retry budget could not get it
    /// admitted (or the refusal was terminal).
    Rejected(NetReject),
    /// The serving layer failed it after admission.
    Failed(ServeFailure),
}

/// The client ran out of retry budget without any typed resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// Every attempt died on the transport.
    Exhausted {
        /// The correlation id of the abandoned request.
        client_id: u64,
        /// Attempts made (1 + retries).
        attempts: u32,
        /// Human-readable description of the last transport fault.
        last: String,
    },
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Exhausted {
                client_id,
                attempts,
                last,
            } => write!(
                f,
                "request {client_id} abandoned after {attempts} attempt(s); last fault: {last}"
            ),
        }
    }
}

impl std::error::Error for NetError {}

/// Client knobs. [`Default`] suits tests and benches on loopback.
#[derive(Debug, Clone)]
pub struct NetClientConfig {
    /// Server address.
    pub addr: String,
    /// Transport/rejection retries after the first attempt.
    pub retries: u32,
    /// Base backoff before the first retry; doubles per attempt with
    /// deterministic jitter, capped at one second (the engine's own
    /// retry curve).
    pub backoff: Duration,
    /// How long to wait for each response frame before treating the
    /// connection as dead.
    pub read_timeout: Duration,
    /// Seed for the deterministic backoff jitter.
    pub seed: u64,
}

impl NetClientConfig {
    /// Defaults against `addr`.
    pub fn new(addr: impl Into<String>) -> Self {
        NetClientConfig {
            addr: addr.into(),
            retries: 8,
            backoff: Duration::from_millis(10),
            read_timeout: Duration::from_secs(10),
            seed: 0,
        }
    }
}

/// What one wire exchange produced.
enum Exchange {
    Reply(ServerMsg),
    /// The transport died (description): reconnect and retry.
    Dead(String),
}

/// A lazily connecting, automatically reconnecting client. Not
/// thread-safe by design — one client per thread, like one
/// [`MissionSession`](create_core::mission::MissionSession) per worker.
pub struct NetClient {
    config: NetClientConfig,
    conn: Option<Conn>,
    next_client_id: u64,
    /// Transport faults absorbed so far (reconnect-and-retry events).
    transport_faults: u64,
}

struct Conn {
    stream: TcpStream,
    decoder: FrameBuf,
}

impl NetClient {
    /// A client for `addr` with default knobs; connects lazily on the
    /// first call.
    pub fn connect(addr: impl Into<String>) -> NetClient {
        Self::with_config(NetClientConfig::new(addr))
    }

    /// A client with explicit knobs.
    pub fn with_config(config: NetClientConfig) -> NetClient {
        NetClient {
            config,
            conn: None,
            next_client_id: 0,
            transport_faults: 0,
        }
    }

    /// Transport faults absorbed by reconnect-and-retry so far.
    pub fn transport_faults(&self) -> u64 {
        self.transport_faults
    }

    /// Runs one mission remotely; resolves exactly once (see the module
    /// docs for the retry semantics).
    ///
    /// # Errors
    ///
    /// [`NetError::Exhausted`] when the retry budget dies entirely on
    /// the transport.
    pub fn call(&mut self, task: TaskId, config: WireConfig) -> Result<NetResponse, NetError> {
        let client_id = self.next_client_id;
        self.next_client_id += 1;
        let msg = ClientMsg::Submit {
            client_id,
            task,
            config,
        };
        let mut last_fault = "never attempted".to_string();
        let mut last_reject: Option<NetReject> = None;
        let mut attempts = 0u32;
        while attempts <= self.config.retries {
            if attempts > 0 {
                std::thread::sleep(backoff_delay(
                    self.config.backoff,
                    attempts,
                    self.config.seed ^ client_id ^ BACKOFF_SALT,
                ));
            }
            attempts += 1;
            match self.exchange(&msg, client_id) {
                Exchange::Reply(ServerMsg::Done(outcome)) => {
                    return Ok(NetResponse::Done(outcome));
                }
                Exchange::Reply(ServerMsg::Failed { failure, .. }) => {
                    return Ok(NetResponse::Failed(failure));
                }
                Exchange::Reply(ServerMsg::Rejected { reason, .. }) => match reason {
                    // Load shedding: worth retrying within the budget.
                    NetReject::QueueFull { .. } | NetReject::Overloaded { .. } => {
                        last_reject = Some(reason);
                    }
                    // Terminal: retrying cannot help.
                    NetReject::ShuttingDown | NetReject::DeadlineExpired => {
                        return Ok(NetResponse::Rejected(reason));
                    }
                },
                Exchange::Reply(other) => {
                    // `pong`/`bye`/`error` in answer to a submit: the
                    // exchange path treats those as transport faults, so
                    // reaching here is a protocol bug worth surfacing.
                    self.drop_conn();
                    last_fault = format!("unexpected reply '{}'", other.render());
                }
                Exchange::Dead(fault) => {
                    self.drop_conn();
                    self.transport_faults += 1;
                    last_fault = fault;
                }
            }
        }
        match last_reject {
            // The budget saw typed rejections: resolve as one.
            Some(reason) => Ok(NetResponse::Rejected(reason)),
            None => Err(NetError::Exhausted {
                client_id,
                attempts,
                last: last_fault,
            }),
        }
    }

    /// Liveness probe: `ping` → `pong` over the current (or a fresh)
    /// connection. `false` means the transport died.
    pub fn ping(&mut self) -> bool {
        let id = u64::MAX; // pings carry no correlation id
        match self.exchange(&ClientMsg::Ping, id) {
            Exchange::Reply(ServerMsg::Pong) => true,
            _ => {
                self.drop_conn();
                false
            }
        }
    }

    /// Polite goodbye: tells the server, waits for its `bye`, closes.
    pub fn goodbye(&mut self) {
        if let Some(conn) = self.conn.as_mut() {
            let _ = conn
                .stream
                .write_all(&frame(ClientMsg::Bye.render().as_bytes()));
            // Read until `bye` or the connection closes; bounded by the
            // read timeout either way.
            loop {
                match read_reply(conn) {
                    Ok(ServerMsg::Bye) | Err(_) => break,
                    Ok(_) => {}
                }
            }
        }
        self.drop_conn();
    }

    /// One submit-and-await-reply exchange. Replies that cannot answer a
    /// submit (`pong` aside — stray pongs are skipped) are folded into
    /// [`Exchange::Dead`] so the retry loop handles every transport
    /// fate in one place.
    fn exchange(&mut self, msg: &ClientMsg, client_id: u64) -> Exchange {
        let conn = match self.ensure_conn() {
            Ok(conn) => conn,
            Err(e) => return Exchange::Dead(format!("connect failed: {e}")),
        };
        if let Err(e) = conn.stream.write_all(&frame(msg.render().as_bytes())) {
            return Exchange::Dead(format!("write failed: {e}"));
        }
        loop {
            match read_reply(conn) {
                Ok(ServerMsg::Pong) if !matches!(msg, ClientMsg::Ping) => {
                    // A stray pong from an earlier ping; keep waiting.
                }
                Ok(ServerMsg::Bye) => return Exchange::Dead("server said bye".to_string()),
                Ok(ServerMsg::Error(detail)) => {
                    // Our frame arrived damaged (or we spoke out of
                    // turn); the server may also disconnect. Re-submit
                    // on a fresh connection.
                    return Exchange::Dead(format!("server reported: {detail}"));
                }
                Ok(reply) => {
                    if reply_answers(&reply, client_id) {
                        return Exchange::Reply(reply);
                    }
                    return Exchange::Dead(format!(
                        "correlation mismatch: got '{}' awaiting {client_id}",
                        reply.render()
                    ));
                }
                Err(fault) => return Exchange::Dead(fault),
            }
        }
    }

    fn ensure_conn(&mut self) -> std::io::Result<&mut Conn> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(self.config.addr.as_str())?;
            stream.set_read_timeout(Some(self.config.read_timeout))?;
            stream.set_write_timeout(Some(self.config.read_timeout))?;
            stream.set_nodelay(true)?;
            self.conn = Some(Conn {
                stream,
                decoder: FrameBuf::new(),
            });
        }
        Ok(self.conn.as_mut().expect("just ensured"))
    }

    fn drop_conn(&mut self) {
        if let Some(conn) = self.conn.take() {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
    }
}

/// Whether `reply` answers the request correlated as `client_id`.
fn reply_answers(reply: &ServerMsg, client_id: u64) -> bool {
    match reply {
        ServerMsg::Done(o) => o.client_id == client_id,
        ServerMsg::Rejected { client_id: id, .. } | ServerMsg::Failed { client_id: id, .. } => {
            *id == client_id
        }
        ServerMsg::Pong => true,
        ServerMsg::Error(_) | ServerMsg::Bye => false,
    }
}

/// Reads one reply frame (bounded by the stream's read timeout).
fn read_reply(conn: &mut Conn) -> Result<ServerMsg, String> {
    let mut chunk = [0u8; 4096];
    loop {
        match conn.decoder.next_frame() {
            Ok(Some(payload)) => {
                return ServerMsg::parse(&payload).map_err(|e| format!("bad reply frame: {e}"));
            }
            Ok(None) => {}
            Err(e) => return Err(format!("damaged reply stream: {e}")),
        }
        match conn.stream.read(&mut chunk) {
            Ok(0) => return Err("connection closed by server".to_string()),
            Ok(n) => conn.decoder.extend(&chunk[..n]),
            Err(e) => return Err(format!("read failed: {e}")),
        }
    }
}
