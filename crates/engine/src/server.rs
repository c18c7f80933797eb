//! A zero-dependency TCP front-end serving a [`SpatialCatalog`] over a
//! line-based protocol (`std::net` only — no external crates).
//!
//! The protocol, trace ids and concurrency model are documented on
//! [`serve`], which `cargo doc` renders; this module is private.

use std::borrow::Cow;
use std::fmt::Write as _;
use std::io::{ErrorKind, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::str::SplitAsciiWhitespace;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use minskew_geom::Rect;
use minskew_obs::{
    json_escape, json_f64, Counter, Histogram, Registry, RegistrySnapshot, Stopwatch,
};

use crate::catalog::{CatalogEntry, CatalogError, SpatialCatalog};
use crate::persist::SnapshotIoError;
use crate::publish::EstimateTrace;
use crate::reader::SpatialReader;
use crate::table::{MaintenanceMode, RowId, TableOptions};

/// Hard cap on one request line (transport protection; a longer line
/// closes the connection after a typed error).
const MAX_LINE: usize = 1 << 20;

/// A connection's read buffer starts at this size, and its read and reply
/// buffers shrink back to it after a long line or a large reply. Replies
/// that fill this much are sent before the rest of the burst is served.
const BUF_KEEP: usize = 64 << 10;

/// How long an idle connection blocks in `read` before it checks whether
/// the server is shutting down.
const READ_POLL: Duration = Duration::from_millis(25);

/// How long the peer may take to accept one write of replies (at most
/// 64 KiB plus one reply) before the server drops the connection. Without
/// it a peer that pipelines requests and never reads its replies would
/// block its connection thread, and with it [`ServerHandle::join`],
/// forever.
pub const SERVE_WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Configuration for [`serve`], whose docs describe the protocol it
/// serves.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address; port `0` picks an ephemeral port (see
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Options for tables created via the `CREATE` verb (bucket budget and
    /// technique are overridable per request). Each table's sampling and
    /// flight recorder come from its own options; this seeds nothing else.
    pub table_options: TableOptions,
    /// Maximum query count accepted by one `BATCH` request.
    pub max_batch: usize,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            addr: String::from("127.0.0.1:0"),
            table_options: TableOptions::default(),
            max_batch: 4096,
        }
    }
}

/// The protocol's verbs.
#[derive(Debug, Clone, Copy)]
enum Verb {
    Estimate,
    Batch,
    Ping,
    Tables,
    Create,
    Drop,
    Insert,
    Delete,
    Analyze,
    Explain,
    Flight,
    Metrics,
    Stats,
    Maintain,
    Snapshot,
    Shutdown,
}

/// Every verb with its wire name (matched case-insensitively) and the
/// counter its requests bump, hottest first. Any other verb counts under
/// [`UNKNOWN_VERB`], so junk verbs cannot grow the registry.
const VERBS: [(Verb, &str, &str); 16] = [
    (Verb::Estimate, "ESTIMATE", "serve.verb.estimate"),
    (Verb::Batch, "BATCH", "serve.verb.batch"),
    (Verb::Ping, "PING", "serve.verb.ping"),
    (Verb::Tables, "TABLES", "serve.verb.tables"),
    (Verb::Create, "CREATE", "serve.verb.create"),
    (Verb::Drop, "DROP", "serve.verb.drop"),
    (Verb::Insert, "INSERT", "serve.verb.insert"),
    (Verb::Delete, "DELETE", "serve.verb.delete"),
    (Verb::Analyze, "ANALYZE", "serve.verb.analyze"),
    (Verb::Explain, "EXPLAIN", "serve.verb.explain"),
    (Verb::Flight, "FLIGHT", "serve.verb.flight"),
    (Verb::Metrics, "METRICS", "serve.verb.metrics"),
    (Verb::Stats, "STATS", "serve.verb.stats"),
    (Verb::Maintain, "MAINTAIN", "serve.verb.maintain"),
    (Verb::Snapshot, "SNAPSHOT", "serve.verb.snapshot"),
    (Verb::Shutdown, "SHUTDOWN", "serve.verb.shutdown"),
];

/// The counter for requests whose verb is not in [`VERBS`].
const UNKNOWN_VERB: &str = "serve.verb.unknown";

/// A registry metric looked up by name on its first use and held from then
/// on: later records take no lock and allocate nothing, and the metric
/// still first appears in `METRICS` when something records into it.
#[derive(Debug)]
struct Lazy<T> {
    name: &'static str,
    cell: OnceLock<Arc<T>>,
}

impl<T> Lazy<T> {
    fn new(name: &'static str) -> Lazy<T> {
        Lazy {
            name,
            cell: OnceLock::new(),
        }
    }
}

/// The metrics every request touches, resolved once per server.
#[derive(Debug)]
struct HotMetrics {
    requests: Lazy<Counter>,
    errors: Lazy<Counter>,
    estimates: Lazy<Counter>,
    writes: Lazy<Counter>,
    request_ns: Lazy<Histogram>,
    /// One counter per entry of [`VERBS`], then [`UNKNOWN_VERB`]'s.
    verbs: [Lazy<Counter>; VERBS.len() + 1],
}

impl HotMetrics {
    fn new() -> HotMetrics {
        HotMetrics {
            requests: Lazy::new("serve.requests"),
            errors: Lazy::new("serve.errors"),
            estimates: Lazy::new("serve.estimates"),
            writes: Lazy::new("serve.writes"),
            request_ns: Lazy::new("serve.request_ns"),
            verbs: std::array::from_fn(|i| Lazy::new(VERBS.get(i).map_or(UNKNOWN_VERB, |v| v.2))),
        }
    }
}

/// Shared server context.
#[derive(Debug)]
struct ServerCtx {
    catalog: Arc<SpatialCatalog>,
    options: ServeOptions,
    registry: Registry,
    hot: HotMetrics,
    shutdown: AtomicBool,
    /// Where a shutdown request connects to wake the accept loop: the
    /// bound address, with an unspecified IP replaced by loopback.
    wake_addr: SocketAddr,
    active: AtomicU64,
}

impl ServerCtx {
    fn new(catalog: Arc<SpatialCatalog>, options: ServeOptions, addr: SocketAddr) -> ServerCtx {
        let mut wake_addr = addr;
        if addr.ip().is_unspecified() {
            wake_addr.set_ip(match addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        ServerCtx {
            catalog,
            options,
            registry: Registry::new(),
            hot: HotMetrics::new(),
            shutdown: AtomicBool::new(false),
            wake_addr,
            active: AtomicU64::new(0),
        }
    }

    /// The server's metrics: its registry, with the state gauges read at
    /// scrape time merged in (`serve.active_connections`, `serve.tables`).
    /// `METRICS`, `STATS`, [`ServerHandle::metrics`] and
    /// [`ServerHandle::join`] all read this one snapshot.
    fn metrics(&self) -> RegistrySnapshot {
        let mut snapshot = self.registry.snapshot();
        snapshot.merge(RegistrySnapshot {
            gauges: vec![
                (
                    "serve.active_connections".to_owned(),
                    self.active.load(Ordering::SeqCst) as f64,
                ),
                ("serve.tables".to_owned(), self.catalog.len() as f64),
            ],
            ..RegistrySnapshot::default()
        });
        snapshot
    }

    /// Bumps a rarely used counter by name (one registry lookup).
    fn bump(&self, name: &str) {
        self.registry.counter(name).inc();
    }

    fn add(&self, counter: &Lazy<Counter>, n: u64) {
        let name = counter.name;
        counter
            .cell
            .get_or_init(|| self.registry.counter(name))
            .add(n);
    }

    fn record(&self, histogram: &Lazy<Histogram>, value: u64) {
        let name = histogram.name;
        histogram
            .cell
            .get_or_init(|| self.registry.histogram(name))
            .record(value);
    }

    /// Flags the server to stop, and wakes the accept loop (blocked in
    /// `accept`) with a connection to its own port.
    fn request_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            let _ = TcpStream::connect_timeout(&self.wake_addr, Duration::from_secs(1));
        }
    }
}

/// Handle to a running server. Dropping the handle does **not** stop the
/// server; call [`ServerHandle::shutdown`] (or send the `SHUTDOWN` verb).
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    ctx: Arc<ServerCtx>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port `0` requests).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals the accept loop to stop. Existing connections drain (each
    /// notices the flag within its read-poll interval).
    pub fn request_shutdown(&self) {
        self.ctx.request_shutdown();
    }

    /// `true` once shutdown has been requested (by this handle or by a
    /// `SHUTDOWN` request over the wire).
    pub fn shutdown_requested(&self) -> bool {
        self.ctx.shutdown.load(Ordering::SeqCst)
    }

    /// Blocks until the accept loop and every connection thread exit;
    /// returns the final metrics snapshot.
    pub fn join(mut self) -> RegistrySnapshot {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        self.ctx.metrics()
    }

    /// Requests shutdown and waits for a clean drain; returns the final
    /// metrics snapshot.
    pub fn shutdown(self) -> RegistrySnapshot {
        self.request_shutdown();
        self.join()
    }

    /// A point-in-time snapshot of the server's metrics (`serve.*`
    /// counters, gauges, latency histograms): what `METRICS` exports.
    pub fn metrics(&self) -> RegistrySnapshot {
        self.ctx.metrics()
    }
}

/// Starts serving `catalog` per `options`; returns once the listener is
/// bound.
///
/// # Protocol
///
/// Requests and responses are single UTF-8 lines terminated by `\n`.
/// Responses are `OK <payload>` or `ERR <code> <message>`, where `<code>`
/// is the CLI's exit-code taxonomy (DESIGN.md §7): `2` usage, `3` I/O,
/// `4` malformed data, `5` corrupt statistics, `6` build failure.
///
/// | Request | Response |
/// |---|---|
/// | `PING` | `OK pong` |
/// | `TABLES` | `OK <n> <name>...` |
/// | `CREATE <t> [buckets=N] [technique=T]` | `OK created <t>` |
/// | `DROP <t>` | `OK dropped <t>` |
/// | `INSERT <t> <x1> <y1> <x2> <y2>` | `OK <rowid>` |
/// | `DELETE <t> <rowid>` | `OK deleted <rowid>` |
/// | `ANALYZE <t>` | `OK analyzed <t> buckets=<B> fallback=<F>` |
/// | `ESTIMATE <t> <x1> <y1> <x2> <y2>` | `OK <estimate>` |
/// | `BATCH <t> <n> <x1> <y1> <x2> <y2> ...` | `OK <e1> <e2> ...` |
/// | `STATS [<t>]` | `OK {...}` (single-line JSON) |
/// | `MAINTAIN <t>` | `OK maintained <t> mode=<m> accuracy: ...; action: ...` |
/// | `MAINTAIN <t> MODE off\|reanalyze\|refine` | `OK maintenance <t> mode=<m>` |
/// | `SNAPSHOT <t> SAVE\|LOAD <path>` | `OK saved/loaded ...` |
/// | `EXPLAIN <t> <x1> <y1> <x2> <y2>` | `OK {...}` (single-line JSON trace) |
/// | `FLIGHT <t> [N]` | `OK <k>` + `k` lines of table `<t>`'s flight JSONL |
/// | `METRICS [json\|text]` | `OK <k>` + `k` lines of the server registry |
/// | `METRICS <t> [json\|text]` | `OK <k>` + `k` lines of table `<t>`'s registry |
/// | `SHUTDOWN` | `OK bye` (server stops accepting and drains) |
///
/// # Trace ids
///
/// Any request may carry an optional `TID=<token>` prefix (1–64 characters
/// from `[A-Za-z0-9._-]`): `TID=req7 ESTIMATE t 0 0 1 1`. The reply to a
/// `TID`-prefixed request is prefixed `TID=<token> ` (`TID=req7 OK 42`),
/// and the token is stamped into any flight record the request produces,
/// so a client can join its own requests to the server's flight JSONL. A
/// malformed token is a usage error (`ERR 2 ...`, no echo). Requests
/// without the prefix are byte-for-byte unchanged — the golden transcripts
/// pin that.
///
/// `EXPLAIN` answers with the full estimate trace (serving path,
/// per-bucket terms, pruning counters); its `estimate` field
/// is bit-identical to what `ESTIMATE` returns for the same query.
/// `FLIGHT <t> [N]` drains the newest `N` (default all) records of table
/// `<t>`'s one flight recorder: slow, wrong and sampled queries, whether a
/// wire `ESTIMATE` (trace id attached), the table or a reader served them
/// (see [`crate::TableOptions::flight_capacity`]). The first argument is
/// always the table, so a table named `5` drains like any other. `METRICS`
/// makes registries scrapeable live instead of dumped only at shutdown.
///
/// Estimates are formatted with Rust's shortest-round-trip `f64` display,
/// so `parse::<f64>()` on the client recovers the exact bits — the wire
/// preserves the bitwise differential contract.
///
/// Malformed input yields a typed `ERR` reply and the connection keeps
/// serving; the only lines that close a connection are transport-level
/// (EOF, an over-long line, an unwritable socket). A request can never
/// panic the server: handlers touch only total functions and typed errors.
///
/// # Concurrency
///
/// Thread per connection. The accept loop blocks in `accept`; a shutdown
/// request wakes it with a loopback connection to the server's own port,
/// and every accept reaps the connection threads that have finished.
/// `ESTIMATE`/`BATCH` go through per-connection [`SpatialReader`]s — the
/// snapshot path, which never takes the table lock — so estimate traffic
/// on one table proceeds concurrently across connections even while a
/// writer runs `ANALYZE`.
/// An `ESTIMATE` runs the reader's instrumented body, the one the table
/// runs: the connection's reader samples by the table's
/// [`crate::TableOptions::metrics_sampling`], and a sampled request may
/// enter the table's flight recorder. Mutating verbs lock only their
/// target table.
///
/// A connection serves every complete request line one read delivered,
/// appends each reply to one output buffer, and sends the buffer with a
/// single `write` before it reads again. Pipelined requests therefore cost
/// one write per wake-up, not one per reply (`serve.writes` counts them);
/// only replies past 64 KiB are sent early, which bounds the buffer. A
/// peer that has not taken a write within [`SERVE_WRITE_TIMEOUT`] is
/// dropped, so a client that never reads can hold neither its thread nor
/// [`ServerHandle::join`]. Idle connections notice a shutdown within their
/// 25 ms read timeout.
///
/// Per-connection and per-verb counters and request latency flow into the
/// server's [`Registry`]. The per-request ones are resolved once per
/// server, so an `ESTIMATE` takes no registry lock, and once its
/// connection's buffers have grown it allocates nothing. Neither does a
/// `BATCH` once the buffers fit its size, nor an idle server. An
/// `ESTIMATE` that enters the flight recorder allocates nothing either
/// without a `TID=` prefix, and exactly 1 with one: the record's copy of
/// the id. An `EXPLAIN` returns an owned trace: 9 allocations when no
/// bucket overlaps its query, more as its term list and JSON reply grow.
/// `tests/alloc_free.rs` counts all five, process-wide. State is not
/// mirrored into the registry: `serve.active_connections` and
/// `serve.tables` are read when a snapshot is taken
/// ([`ServerHandle::metrics`]), and `STATS` is a fixed projection of that
/// same snapshot.
pub fn serve(catalog: Arc<SpatialCatalog>, options: ServeOptions) -> std::io::Result<ServerHandle> {
    let addrs: Vec<SocketAddr> = options.addr.to_socket_addrs()?.collect();
    let listener = TcpListener::bind(&addrs[..])?;
    let addr = listener.local_addr()?;
    let ctx = Arc::new(ServerCtx::new(catalog, options, addr));
    let accept_ctx = Arc::clone(&ctx);
    let accept = std::thread::spawn(move || accept_loop(listener, accept_ctx));
    Ok(ServerHandle {
        addr,
        ctx,
        accept: Some(accept),
    })
}

fn accept_loop(listener: TcpListener, ctx: Arc<ServerCtx>) {
    let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
    loop {
        let accepted = listener.accept();
        // Set before the shutdown wake-up connects, so the wake-up (or a
        // client racing it) is never served.
        if ctx.shutdown.load(Ordering::SeqCst) {
            break;
        }
        conns.retain(|c| !c.is_finished());
        match accepted {
            Ok((stream, _)) => {
                ctx.bump("serve.connections");
                let conn_ctx = Arc::clone(&ctx);
                conns.push(std::thread::spawn(move || {
                    handle_connection(stream, conn_ctx)
                }));
            }
            // Out of descriptors and the like: back off rather than spin.
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
    drop(listener);
    for conn in conns {
        let _ = conn.join();
    }
}

/// Per-connection state: cached readers (one per table touched)
/// and `BATCH`'s query and result buffers, reused from request to request.
#[derive(Default)]
struct ConnState {
    readers: ConnReaders,
    queries: Vec<Rect>,
    values: Vec<f64>,
}

/// A connection's readers by table name, valid for one catalog
/// epoch: once a table is created or dropped anywhere, they are minted
/// again on next use, so a dropped table stops answering and a re-created
/// one is served from its own snapshots.
#[derive(Default)]
struct ConnReaders {
    epoch: u64,
    by_name: std::collections::HashMap<String, SpatialReader>,
}

impl ConnReaders {
    /// The reader for `name`, minted on first use in this epoch without
    /// taking the table lock.
    fn get(&mut self, ctx: &Arc<ServerCtx>, name: &str) -> Result<&mut SpatialReader, Reply> {
        let epoch = ctx.catalog.epoch();
        if epoch != self.epoch {
            self.by_name.clear();
            self.epoch = epoch;
        }
        if !self.by_name.contains_key(name) {
            let entry = lookup(ctx, name)?;
            self.by_name.insert(name.to_string(), entry.reader());
        }
        Ok(self
            .by_name
            .get_mut(name)
            .expect("reader inserted just above"))
    }
}

fn handle_connection(stream: TcpStream, ctx: Arc<ServerCtx>) {
    let _ = stream.set_nodelay(true);
    // Poll the shutdown flag between reads so drains are prompt.
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let _ = stream.set_write_timeout(Some(SERVE_WRITE_TIMEOUT));
    ctx.active.fetch_add(1, Ordering::SeqCst);
    serve_requests(stream, &ctx);
    ctx.active.fetch_sub(1, Ordering::SeqCst);
}

fn serve_requests(mut stream: TcpStream, ctx: &Arc<ServerCtx>) {
    let mut conn = ConnState::default();
    let mut out = String::new();
    // `buf[start..end]` holds what was read but not yet served.
    let mut buf = vec![0u8; BUF_KEEP];
    let (mut start, mut end) = (0, 0);
    loop {
        // Serve every complete line already buffered, replies into `out`.
        let mut quit = false;
        while let Some(len) = buf[start..end].iter().position(|&b| b == b'\n') {
            let line = request_text(&buf[start..start + len]);
            start += len + 1;
            quit = handle_request(ctx, &mut conn, &line, &mut out);
            if quit {
                break;
            }
            if out.len() >= BUF_KEEP && !send(ctx, &mut stream, &mut out) {
                return;
            }
        }
        buf.copy_within(start..end, 0);
        end -= start;
        start = 0;
        // Transport protection: an unbounded line would buffer forever.
        let overlong = !quit && end > MAX_LINE;
        if overlong {
            out.push_str("ERR 2 usage: request line exceeds 1 MiB\n");
        }
        // One write for everything this wake-up produced.
        if !send(ctx, &mut stream, &mut out)
            || quit
            || overlong
            || ctx.shutdown.load(Ordering::SeqCst)
        {
            return;
        }
        if end == buf.len() {
            // A line longer than the buffer: grow, up to one byte past the
            // longest line allowed, which trips the check above.
            buf.resize((2 * buf.len()).min(MAX_LINE + 1), 0);
        } else if buf.len() > BUF_KEEP && end < BUF_KEEP {
            buf.truncate(BUF_KEEP);
            buf.shrink_to_fit();
        }
        match stream.read(&mut buf[end..]) {
            Ok(0) => return, // peer closed
            Ok(n) => end += n,
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) => {}
            Err(_) => return,
        }
    }
}

/// One request line without its line ending (the `\n` and any `\r`s
/// before it): borrowed when it is valid UTF-8, with each invalid sequence
/// replaced by U+FFFD otherwise.
fn request_text(line: &[u8]) -> Cow<'_, str> {
    let mut len = line.len();
    while len > 0 && line[len - 1] == b'\r' {
        len -= 1;
    }
    match std::str::from_utf8(&line[..len]) {
        Ok(text) => Cow::Borrowed(text),
        Err(_) => String::from_utf8_lossy(&line[..len]),
    }
}

/// Writes out the buffered replies with one `write`, counted in
/// `serve.writes`, and empties the buffer (returning a large one's excess
/// capacity). `false` when the peer has gone, or has not taken the whole
/// buffer within [`SERVE_WRITE_TIMEOUT`]: a blocking socket's `write`
/// returns short only when its timeout expires.
fn send(ctx: &ServerCtx, stream: &mut TcpStream, out: &mut String) -> bool {
    if out.is_empty() {
        return true;
    }
    loop {
        match stream.write(out.as_bytes()) {
            Ok(n) => {
                ctx.add(&ctx.hot.writes, 1);
                if n < out.len() {
                    return false;
                }
                break;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    out.clear();
    out.shrink_to(BUF_KEEP);
    true
}

enum Reply {
    /// An `OK` line the handler already appended to the output buffer.
    Written,
    Line(String),
    /// Write the line, then stop the whole server (the `SHUTDOWN` verb).
    Quit(String),
}

fn ok(payload: impl std::fmt::Display) -> Reply {
    Reply::Line(format!("OK {payload}"))
}

fn err(code: u8, message: impl std::fmt::Display) -> Reply {
    Reply::Line(format!("ERR {code} {message}"))
}

fn catalog_err(e: CatalogError) -> Reply {
    match e {
        CatalogError::Build(inner) => err(6, format!("build: {inner}")),
        other => err(2, format!("usage: {other}")),
    }
}

fn snapshot_err(e: SnapshotIoError) -> Reply {
    match e {
        SnapshotIoError::NoStats => err(2, format!("usage: {e}")),
        SnapshotIoError::Io(_) | SnapshotIoError::Write(_) => err(3, format!("io: {e}")),
        SnapshotIoError::Corrupt(_) => err(5, format!("corrupt: {e}")),
    }
}

/// Splits an optional `TID=<token>` prefix off a request line. Returns the
/// token (`""` when absent) and the remainder of the line. A present but
/// malformed token is a usage error with **no** echo: the server refuses to
/// reflect bytes it could not validate.
fn split_tid(line: &str) -> Result<(&str, &str), Reply> {
    let trimmed = line.trim_start();
    let Some(rest) = trimmed.strip_prefix("TID=") else {
        return Ok(("", line));
    };
    let split = rest.find(|c: char| c.is_ascii_whitespace());
    let (token, remainder) = match split {
        Some(pos) => (&rest[..pos], &rest[pos..]),
        None => (rest, ""),
    };
    let valid = !token.is_empty()
        && token.len() <= 64
        && token
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'));
    if !valid {
        return Err(err(
            2,
            format_args!("usage: bad trace id (want 1-64 chars of [A-Za-z0-9._-])"),
        ));
    }
    Ok((token, remainder))
}

/// Serves one request line, appending its reply and a newline to `out`.
/// Returns `true` after `SHUTDOWN`, whose reply is the connection's last.
/// Total: every input maps to exactly one reply, and nothing here can
/// panic on malformed input.
fn handle_request(
    ctx: &Arc<ServerCtx>,
    conn: &mut ConnState,
    line: &str,
    out: &mut String,
) -> bool {
    let mut clock = Stopwatch::start();
    ctx.add(&ctx.hot.requests, 1);
    let reply = match split_tid(line) {
        Ok((tid, rest)) => {
            if !tid.is_empty() {
                out.push_str("TID=");
                out.push_str(tid);
                out.push(' ');
            }
            dispatch(ctx, conn, rest, tid, out)
        }
        Err(reply) => reply,
    };
    ctx.record(&ctx.hot.request_ns, clock.lap());
    let quit = matches!(reply, Reply::Quit(_));
    if let Reply::Line(text) | Reply::Quit(text) = reply {
        if text.starts_with("ERR") {
            ctx.add(&ctx.hot.errors, 1);
        }
        out.push_str(&text);
    }
    out.push('\n');
    quit
}

/// Most arguments a request splits into without allocating.
const INLINE_ARGS: usize = 8;

/// A request's argument tokens: inline up to [`INLINE_ARGS`], so the
/// common requests split their line without allocating; longer ones spill
/// to the heap.
enum Args<'a> {
    Inline(usize, [&'a str; INLINE_ARGS]),
    Spilled(Vec<&'a str>),
}

impl<'a> Args<'a> {
    fn split(mut tokens: SplitAsciiWhitespace<'a>) -> Args<'a> {
        let mut inline = [""; INLINE_ARGS];
        for (n, slot) in inline.iter_mut().enumerate() {
            match tokens.next() {
                Some(token) => *slot = token,
                None => return Args::Inline(n, inline),
            }
        }
        match tokens.next() {
            None => Args::Inline(INLINE_ARGS, inline),
            Some(next) => {
                let mut spilled = inline.to_vec();
                spilled.push(next);
                spilled.extend(tokens);
                Args::Spilled(spilled)
            }
        }
    }

    fn as_slice(&self) -> &[&'a str] {
        match self {
            Args::Inline(n, inline) => &inline[..*n],
            Args::Spilled(spilled) => spilled,
        }
    }
}

fn dispatch(
    ctx: &Arc<ServerCtx>,
    conn: &mut ConnState,
    line: &str,
    tid: &str,
    out: &mut String,
) -> Reply {
    let mut tokens = line.split_ascii_whitespace();
    let Some(token) = tokens.next() else {
        return err(2, "usage: empty request");
    };
    let index = VERBS
        .iter()
        .position(|(_, name, _)| name.eq_ignore_ascii_case(token))
        .unwrap_or(VERBS.len());
    ctx.add(&ctx.hot.verbs[index], 1);
    let Some(&(verb, ..)) = VERBS.get(index) else {
        return err(
            2,
            format_args!("usage: unknown verb {:?}", token.to_ascii_uppercase()),
        );
    };
    let args = match verb {
        // The one verb with unbounded arguments parses them in place.
        Verb::Batch => Args::Inline(0, [""; INLINE_ARGS]),
        _ => Args::split(tokens.clone()),
    };
    let args = args.as_slice();
    match verb {
        Verb::Ping => ok("pong"),
        Verb::Tables => {
            let names = ctx.catalog.list();
            let mut payload = names.len().to_string();
            for name in names {
                payload.push(' ');
                payload.push_str(&name);
            }
            ok(payload)
        }
        Verb::Create => cmd_create(ctx, args),
        Verb::Drop => match args {
            [name] => match ctx.catalog.drop_table(name) {
                Ok(()) => ok(format_args!("dropped {name}")),
                Err(e) => catalog_err(e),
            },
            _ => err(2, "usage: DROP <table>"),
        },
        Verb::Insert => cmd_insert(ctx, args),
        Verb::Delete => cmd_delete(ctx, args),
        Verb::Analyze => cmd_analyze(ctx, args),
        Verb::Estimate => cmd_estimate(ctx, conn, args, tid, out),
        Verb::Batch => cmd_batch(ctx, conn, tokens, out),
        Verb::Explain => cmd_explain(ctx, conn, args),
        Verb::Flight => cmd_flight(ctx, args),
        Verb::Metrics => cmd_metrics(ctx, args),
        Verb::Stats => cmd_stats(ctx, args),
        Verb::Maintain => cmd_maintain(ctx, args),
        Verb::Snapshot => cmd_snapshot(ctx, args),
        Verb::Shutdown => {
            ctx.request_shutdown();
            Reply::Quit(String::from("OK bye"))
        }
    }
}

fn cmd_create(ctx: &Arc<ServerCtx>, args: &[&str]) -> Reply {
    let [name, opts @ ..] = args else {
        return err(2, "usage: CREATE <table> [buckets=N] [technique=T]");
    };
    let mut options = ctx.options.table_options;
    for opt in opts {
        let Some((key, value)) = opt.split_once('=') else {
            return err(
                2,
                format_args!("usage: bad option {opt:?} (want key=value)"),
            );
        };
        match key {
            "buckets" => match value.parse::<usize>() {
                Ok(v) => options.analyze.buckets = v,
                Err(_) => return err(2, format_args!("usage: bad buckets {value:?}")),
            },
            "technique" => {
                options.analyze.technique = match value.parse() {
                    Ok(technique) => technique,
                    Err(_) => return err(2, format_args!("usage: unknown technique {value:?}")),
                }
            }
            _ => return err(2, format_args!("usage: unknown option {key:?}")),
        }
    }
    match ctx.catalog.create(name, options) {
        Ok(_) => ok(format_args!("created {name}")),
        Err(e) => catalog_err(e),
    }
}

fn lookup(ctx: &Arc<ServerCtx>, name: &str) -> Result<Arc<CatalogEntry>, Reply> {
    ctx.catalog
        .get(name)
        .ok_or_else(|| err(2, format_args!("usage: unknown table {name:?}")))
}

/// Parses four tokens into a rectangle. `code` distinguishes query usage
/// errors (2) from malformed data (4), per the exit-code taxonomy.
fn parse_rect(tokens: &[&str], code: u8) -> Result<Rect, Reply> {
    let [x1, y1, x2, y2] = tokens else {
        return Err(err(code, "expected <x1> <y1> <x2> <y2>"));
    };
    let parse = |t: &str| -> Result<f64, Reply> {
        match t.parse::<f64>() {
            Ok(v) => Ok(v),
            Err(_) => Err(err(code, format!("bad coordinate {t:?}"))),
        }
    };
    let rect = Rect::try_new(parse(x1)?, parse(y1)?, parse(x2)?, parse(y2)?)
        .map_err(|e| err(code, e.to_string()))?;
    Ok(rect)
}

fn cmd_insert(ctx: &Arc<ServerCtx>, args: &[&str]) -> Reply {
    let [name, coords @ ..] = args else {
        return err(2, "usage: INSERT <table> <x1> <y1> <x2> <y2>");
    };
    let rect = match parse_rect(coords, 4) {
        Ok(r) => r,
        Err(reply) => return reply,
    };
    match lookup(ctx, name) {
        Ok(entry) => {
            let id = entry.table().insert(rect);
            ok(id.raw())
        }
        Err(reply) => reply,
    }
}

fn cmd_delete(ctx: &Arc<ServerCtx>, args: &[&str]) -> Reply {
    let [name, id] = args else {
        return err(2, "usage: DELETE <table> <rowid>");
    };
    let Ok(row) = id.parse::<u64>() else {
        return err(2, format_args!("usage: bad rowid {id:?}"));
    };
    match lookup(ctx, name) {
        Ok(entry) => {
            if entry.table().delete(RowId::from_raw(row)) {
                ok(format_args!("deleted {row}"))
            } else {
                err(2, format_args!("usage: unknown rowid {row}"))
            }
        }
        Err(reply) => reply,
    }
}

fn cmd_analyze(ctx: &Arc<ServerCtx>, args: &[&str]) -> Reply {
    let [name] = args else {
        return err(2, "usage: ANALYZE <table>");
    };
    match lookup(ctx, name) {
        Ok(entry) => {
            let mut table = entry.table();
            table.analyze();
            let diag = table.stats_diagnostics();
            ok(format_args!(
                "analyzed {name} buckets={} fallback={}",
                diag.achieved_buckets, diag.fallback
            ))
        }
        Err(reply) => reply,
    }
}

fn cmd_estimate(
    ctx: &Arc<ServerCtx>,
    conn: &mut ConnState,
    args: &[&str],
    tid: &str,
    out: &mut String,
) -> Reply {
    let [name, coords @ ..] = args else {
        return err(2, "usage: ESTIMATE <table> <x1> <y1> <x2> <y2>");
    };
    let rect = match parse_rect(coords, 2) {
        Ok(r) => r,
        Err(reply) => return reply,
    };
    let reader = match conn.readers.get(ctx, name) {
        Ok(reader) => reader,
        Err(reply) => return reply,
    };
    match reader.try_estimate_tagged(&rect, tid) {
        Ok(value) => {
            ctx.add(&ctx.hot.estimates, 1);
            let _ = write!(out, "OK {value}");
            Reply::Written
        }
        Err(e) => err(2, format_args!("usage: {e}")),
    }
}

fn cmd_batch(
    ctx: &Arc<ServerCtx>,
    conn: &mut ConnState,
    mut args: SplitAsciiWhitespace<'_>,
    out: &mut String,
) -> Reply {
    let (Some(name), Some(count)) = (args.next(), args.next()) else {
        return err(2, "usage: BATCH <table> <n> <x1> <y1> <x2> <y2> ...");
    };
    let Ok(n) = count.parse::<usize>() else {
        return err(2, format_args!("usage: bad count {count:?}"));
    };
    if n > ctx.options.max_batch {
        return err(
            2,
            format_args!(
                "usage: batch of {n} exceeds the limit of {}",
                ctx.options.max_batch
            ),
        );
    }
    // One pass over the line: the tokens past a short read or a bad
    // coordinate are counted only to pick the error, since a count
    // mismatch outranks a bad coordinate.
    let expected = 4 * n;
    let miscount = |given: usize| {
        err(
            2,
            format_args!("usage: expected {expected} coordinates, got {given}"),
        )
    };
    conn.queries.clear();
    let mut quad = [""; 4];
    for i in 0..n {
        for (k, slot) in quad.iter_mut().enumerate() {
            match args.next() {
                Some(token) => *slot = token,
                None => return miscount(4 * i + k),
            }
        }
        match parse_rect(&quad, 2) {
            Ok(rect) => conn.queries.push(rect),
            Err(reply) => {
                let given = 4 * (i + 1) + args.count();
                return if given == expected {
                    reply
                } else {
                    miscount(given)
                };
            }
        }
    }
    if args.next().is_some() {
        return miscount(expected + 1 + args.count());
    }
    let reader = match conn.readers.get(ctx, name) {
        Ok(reader) => reader,
        Err(reply) => return reply,
    };
    // One Morton-ordered pass over one snapshot; replies come back in
    // request order and are bit-identical to a per-query loop.
    if let Err(e) = reader.try_estimate_batch_into(&conn.queries, &mut conn.values) {
        return err(2, format_args!("usage: {e}"));
    }
    out.push_str("OK ");
    for (i, value) in conn.values.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        let _ = write!(out, "{value}");
    }
    ctx.add(&ctx.hot.estimates, conn.values.len() as u64);
    Reply::Written
}

/// Cap on per-bucket terms inlined into an `EXPLAIN` reply; the full count
/// is always reported as `terms_total`.
const EXPLAIN_MAX_TERMS: usize = 32;

/// One-line JSON for an estimate trace (the `EXPLAIN` payload).
fn trace_json(trace: &EstimateTrace) -> String {
    let mut out = String::with_capacity(256);
    let _ = write!(
        out,
        "{{\"estimate\":{},\"raw\":{},\"clamped\":{},\"path\":\"{}\"",
        json_f64(trace.estimate),
        json_f64(trace.raw),
        trace.clamped,
        trace.path.label(),
    );
    let _ = write!(
        out,
        ",\"generation\":{},\"stats_era\":{},\"live\":{}",
        trace.generation, trace.stats_era, trace.live,
    );
    match &trace.detail {
        None => out.push_str(",\"detail\":null}"),
        Some(d) => {
            let k = &d.kernel;
            let _ = write!(
                out,
                ",\"detail\":{{\"technique\":\"{}\",\"rule\":\"{}\",\"buckets\":{},\
                 \"total_count\":{},\"saw_pos_zero\":{},\"prune\":{{\"blocks\":{},\
                 \"blocks_pruned\":{},\"quads_tested\":{},\"quads_pruned\":{},\
                 \"buckets_classified\":{}}},\"terms_total\":{},\"terms\":[",
                json_escape(&d.technique),
                d.rule.label(),
                d.num_buckets,
                json_f64(d.total_count),
                k.saw_pos_zero,
                k.prune.blocks,
                k.prune.blocks_pruned,
                k.prune.quads_tested,
                k.prune.quads_pruned,
                k.prune.buckets_classified,
                k.terms.len(),
            );
            for (i, t) in k.terms.iter().take(EXPLAIN_MAX_TERMS).enumerate() {
                let sep = if i == 0 { "" } else { "," };
                let _ = write!(
                    out,
                    "{sep}{{\"bucket\":{},\"count\":{},\"ex\":{},\"ey\":{},\
                     \"fraction\":{},\"term\":{}}}",
                    t.bucket,
                    json_f64(t.count),
                    json_f64(t.ex),
                    json_f64(t.ey),
                    json_f64(t.fraction),
                    json_f64(t.term),
                );
            }
            out.push_str("]}}");
        }
    }
    out
}

fn cmd_explain(ctx: &Arc<ServerCtx>, conn: &mut ConnState, args: &[&str]) -> Reply {
    let [name, coords @ ..] = args else {
        return err(2, "usage: EXPLAIN <table> <x1> <y1> <x2> <y2>");
    };
    let rect = match parse_rect(coords, 2) {
        Ok(r) => r,
        Err(reply) => return reply,
    };
    let reader = match conn.readers.get(ctx, name) {
        Ok(reader) => reader,
        Err(reply) => return reply,
    };
    match reader.try_explain(&rect) {
        Ok(trace) => {
            ctx.bump("serve.explains");
            ok(trace_json(&trace))
        }
        Err(e) => err(2, format_args!("usage: {e}")),
    }
}

/// Frames a multi-line payload as `OK <k>` followed by its `k` lines, all
/// written as one reply (the transport appends the final newline).
fn framed(payload: &str) -> Reply {
    let body = payload.strip_suffix('\n').unwrap_or(payload);
    if body.is_empty() {
        return ok(0);
    }
    Reply::Line(format!("OK {}\n{body}", body.lines().count()))
}

fn cmd_flight(ctx: &Arc<ServerCtx>, args: &[&str]) -> Reply {
    let (name, max) = match args {
        [name] => (name, usize::MAX),
        [name, max] => match max.parse::<usize>() {
            Ok(max) => (name, max),
            Err(_) => return err(2, format_args!("usage: bad count {max:?}")),
        },
        _ => return err(2, "usage: FLIGHT <table> [N]"),
    };
    // The recorder travels with every published snapshot, so a drain never
    // takes the table lock.
    let jsonl = match lookup(ctx, name) {
        Ok(entry) => entry.snapshot().capture().flight.to_jsonl(max),
        Err(reply) => return reply,
    };
    ctx.bump("serve.flight.drains");
    framed(&jsonl)
}

fn cmd_metrics(ctx: &Arc<ServerCtx>, args: &[&str]) -> Reply {
    // Bare `METRICS [json|text]` scrapes the server registry;
    // `METRICS <t> [json|text]` a table's. The format literals win the
    // one-argument ambiguity.
    let (snap, format) = match args {
        [] => (ctx.metrics(), "json"),
        [first] if *first == "json" || *first == "text" => (ctx.metrics(), *first),
        [name] => match lookup(ctx, name) {
            Ok(entry) => (entry.table().metrics(), "json"),
            Err(reply) => return reply,
        },
        [name, format] => match lookup(ctx, name) {
            Ok(entry) => (entry.table().metrics(), *format),
            Err(reply) => return reply,
        },
        _ => return err(2, "usage: METRICS [<table>] [json|text]"),
    };
    let text = match format {
        "json" => snap.to_json(),
        "text" => snap.to_text(),
        other => return err(2, format_args!("usage: unknown metrics format {other:?}")),
    };
    ctx.bump("serve.metrics.scrapes");
    framed(&text)
}

/// The count gauge `name` of a metrics snapshot, as an integer (0 if
/// absent).
fn count(snap: &RegistrySnapshot, name: &str) -> u64 {
    snap.gauge(name).map_or(0, |v| v as u64)
}

/// `STATS` is a fixed projection of the snapshot `METRICS` exports: every
/// number comes from it. Only a table's `fallback` and `maintenance`
/// labels, which are not numbers, are read from the table.
fn cmd_stats(ctx: &Arc<ServerCtx>, args: &[&str]) -> Reply {
    match args {
        [] => {
            let snap = ctx.metrics();
            let lat = snap
                .histogram("serve.request_ns")
                .cloned()
                .unwrap_or_default();
            ok(format_args!(
                "{{\"tables\":{},\"active_connections\":{},\"request_ns\":\
                 {{\"count\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}}}",
                count(&snap, "serve.tables"),
                count(&snap, "serve.active_connections"),
                lat.count,
                lat.quantile_upper_bound(0.5),
                lat.quantile_upper_bound(0.95),
                lat.quantile_upper_bound(0.99),
            ))
        }
        [name] => match lookup(ctx, name) {
            Ok(entry) => {
                let table = entry.table();
                let snap = table.metrics();
                // Filter non-finite staleness: `{s:.6}` would otherwise
                // print a bare `NaN`/`inf` token into the JSON reply.
                let staleness = snap
                    .gauge("engine.stats.staleness")
                    .filter(|s| s.is_finite())
                    .map_or_else(|| String::from("null"), |s| format!("{s:.6}"));
                ok(format_args!(
                    "{{\"table\":\"{name}\",\"rows\":{},\"buckets\":{},\
                     \"generation\":{},\"fallback\":\"{}\",\"maintenance\":\"{}\",\
                     \"staleness\":{staleness}}}",
                    count(&snap, "engine.rows"),
                    count(&snap, "engine.stats.buckets"),
                    count(&snap, "engine.stats.generation"),
                    table.stats_diagnostics().fallback,
                    table.maintenance_mode(),
                ))
            }
            Err(reply) => reply,
        },
        _ => err(2, "usage: STATS [<table>]"),
    }
}

fn cmd_maintain(ctx: &Arc<ServerCtx>, args: &[&str]) -> Reply {
    match args {
        [name] => match lookup(ctx, name) {
            Ok(entry) => {
                let mut table = entry.table();
                let report = table.maintain();
                ok(format_args!(
                    "maintained {name} mode={} {report}",
                    table.maintenance_mode()
                ))
            }
            Err(reply) => reply,
        },
        [name, mode_kw, mode] if mode_kw.eq_ignore_ascii_case("MODE") => {
            let parsed: MaintenanceMode = match mode.parse() {
                Ok(m) => m,
                Err(e) => return err(2, format_args!("usage: {e}")),
            };
            match lookup(ctx, name) {
                Ok(entry) => {
                    entry.table().set_maintenance_mode(parsed);
                    ok(format_args!("maintenance {name} mode={parsed}"))
                }
                Err(reply) => reply,
            }
        }
        _ => err(2, "usage: MAINTAIN <table> [MODE off|reanalyze|refine]"),
    }
}

fn cmd_snapshot(ctx: &Arc<ServerCtx>, args: &[&str]) -> Reply {
    let [name, action, path] = args else {
        return err(2, "usage: SNAPSHOT <table> SAVE|LOAD <path>");
    };
    let entry = match lookup(ctx, name) {
        Ok(entry) => entry,
        Err(reply) => return reply,
    };
    match action.to_ascii_uppercase().as_str() {
        "SAVE" => match entry.table().save_snapshot(std::path::Path::new(path)) {
            Ok(info) => ok(format_args!("saved {name} buckets={}", info.buckets)),
            Err(e) => snapshot_err(e),
        },
        "LOAD" => match entry.table().try_load_snapshot(std::path::Path::new(path)) {
            Ok(info) => ok(format_args!("loaded {name} buckets={}", info.buckets)),
            Err(e) => snapshot_err(e),
        },
        other => err(2, format_args!("usage: unknown snapshot action {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A test context serving a fresh catalog with `options`.
    fn test_ctx(options: ServeOptions) -> Arc<ServerCtx> {
        // Nothing listens here: a wire SHUTDOWN's wake-up connect fails.
        let addr = SocketAddr::from((Ipv4Addr::LOCALHOST, 1));
        Arc::new(ServerCtx::new(
            Arc::new(SpatialCatalog::new()),
            options,
            addr,
        ))
    }

    fn line(ctx: &Arc<ServerCtx>, conn: &mut ConnState, req: &str) -> String {
        let mut out = String::new();
        handle_request(ctx, conn, req, &mut out);
        out.strip_suffix('\n')
            .expect("newline-terminated")
            .to_string()
    }

    #[test]
    fn a_batch_count_mismatch_outranks_a_bad_coordinate() {
        let ctx = test_ctx(ServeOptions::default());
        let mut conn = ConnState::default();
        for (req, want) in [
            // Short, long and exact counts, each with a bad first
            // coordinate: only the exact count reports the coordinate.
            (
                "BATCH t 2 x 0 1 1 0 0 1",
                "ERR 2 usage: expected 8 coordinates, got 7",
            ),
            (
                "BATCH t 1 x 0 1 1 5",
                "ERR 2 usage: expected 4 coordinates, got 5",
            ),
            ("BATCH t 1 x 0 1 1", "ERR 2 bad coordinate \"x\""),
            // A bad coordinate in the last quad, short by one.
            (
                "BATCH t 2 0 0 1 1 0 0 y",
                "ERR 2 usage: expected 8 coordinates, got 7",
            ),
            (
                "BATCH t 2 0 0 1 1 0 0 1",
                "ERR 2 usage: expected 8 coordinates, got 7",
            ),
            (
                "BATCH t 1 0 0 1 1 2 3",
                "ERR 2 usage: expected 4 coordinates, got 6",
            ),
            ("BATCH t 0 1", "ERR 2 usage: expected 0 coordinates, got 1"),
            ("BATCH t 1", "ERR 2 usage: expected 4 coordinates, got 0"),
            // Counts and coordinates check out; the table does not exist.
            ("BATCH t 0", "ERR 2 usage: unknown table \"t\""),
        ] {
            assert_eq!(line(&ctx, &mut conn, req), want, "{req}");
        }
    }

    #[test]
    fn parse_rect_accepts_finite_and_rejects_everything_else() {
        assert!(parse_rect(&["0", "0", "1.5", "2"], 2).is_ok());
        for bad in [
            ["nan", "0", "1", "1"],
            ["inf", "0", "1", "1"],
            ["-inf", "0", "1", "1"],
            ["x", "0", "1", "1"],
            ["", "0", "1", "1"],
        ] {
            assert!(parse_rect(&bad, 2).is_err(), "{bad:?} must be rejected");
        }
        assert!(parse_rect(&["0", "0", "1"], 2).is_err(), "arity");
    }

    #[test]
    fn dispatch_maps_errors_to_the_exit_code_taxonomy() {
        let ctx = test_ctx(ServeOptions::default());
        let mut conn = ConnState::default();
        assert_eq!(line(&ctx, &mut conn, "PING"), "OK pong");
        assert_eq!(line(&ctx, &mut conn, "TABLES"), "OK 0");
        assert!(line(&ctx, &mut conn, "").starts_with("ERR 2 "));
        assert!(line(&ctx, &mut conn, "NOPE x").starts_with("ERR 2 "));
        assert!(line(&ctx, &mut conn, "ESTIMATE ghost 0 0 1 1").starts_with("ERR 2 "));
        assert_eq!(line(&ctx, &mut conn, "CREATE t"), "OK created t");
        assert!(line(&ctx, &mut conn, "INSERT t a b c d").starts_with("ERR 4 "));
        assert_eq!(line(&ctx, &mut conn, "INSERT t 0 0 1 1"), "OK 0");
        assert!(line(&ctx, &mut conn, "ESTIMATE t nan 0 1 1").starts_with("ERR 2 "));
        assert!(
            line(&ctx, &mut conn, "SNAPSHOT t SAVE /tmp/x").starts_with("ERR 2 "),
            "NoStats is usage"
        );
        assert_eq!(line(&ctx, &mut conn, "SHUTDOWN"), "OK bye");
        assert!(ctx.shutdown.load(Ordering::SeqCst));
    }

    #[test]
    fn a_connection_stops_serving_a_dropped_table_and_follows_its_recreation() {
        let ctx = test_ctx(ServeOptions::default());
        let mut old = ConnState::default();
        assert_eq!(line(&ctx, &mut old, "CREATE t"), "OK created t");
        for i in 0..50 {
            let x = f64::from(i % 10) * 10.0;
            let y = f64::from(i / 10) * 10.0;
            let req = format!("INSERT t {x} {y} {} {}", x + 5.0, y + 5.0);
            assert!(line(&ctx, &mut old, &req).starts_with("OK "));
        }
        assert!(line(&ctx, &mut old, "ANALYZE t").starts_with("OK analyzed t"));
        // Caches a reader for `t` on this connection.
        assert_eq!(line(&ctx, &mut old, "ESTIMATE t 0 0 100 100"), "OK 50");
        assert_eq!(line(&ctx, &mut old, "DROP t"), "OK dropped t");
        assert_eq!(
            line(&ctx, &mut old, "ESTIMATE t 0 0 100 100"),
            "ERR 2 usage: unknown table \"t\""
        );
        assert_eq!(
            line(&ctx, &mut old, "BATCH t 1 0 0 100 100"),
            "ERR 2 usage: unknown table \"t\""
        );
        // Re-created from another connection: the old one must serve the
        // new table exactly as a fresh connection does.
        let mut other = ConnState::default();
        assert_eq!(line(&ctx, &mut other, "CREATE t"), "OK created t");
        assert_eq!(line(&ctx, &mut other, "INSERT t 0 0 1 1"), "OK 0");
        assert!(line(&ctx, &mut other, "ANALYZE t").starts_with("OK analyzed t"));
        let mut fresh = ConnState::default();
        for req in [
            "ESTIMATE t 0 0 100 100",
            "BATCH t 2 0 0 100 100 0 0 0.5 0.5",
            "EXPLAIN t 0 0 100 100",
        ] {
            let want = line(&ctx, &mut fresh, req);
            assert_eq!(line(&ctx, &mut old, req), want, "{req}");
        }
        assert_eq!(line(&ctx, &mut old, "ESTIMATE t 0 0 100 100"), "OK 1");
    }

    #[test]
    fn maintain_verb_runs_and_switches_modes() {
        let ctx = test_ctx(ServeOptions::default());
        let mut conn = ConnState::default();
        assert!(line(&ctx, &mut conn, "MAINTAIN").starts_with("ERR 2 "));
        assert!(line(&ctx, &mut conn, "MAINTAIN ghost").starts_with("ERR 2 "));
        assert_eq!(line(&ctx, &mut conn, "CREATE t"), "OK created t");
        assert!(line(&ctx, &mut conn, "MAINTAIN t MODE bogus").starts_with("ERR 2 "));
        assert_eq!(
            line(&ctx, &mut conn, "MAINTAIN t MODE refine"),
            "OK maintenance t mode=refine"
        );
        // STATS surfaces the mode; staleness is null until stats exist.
        let stats = line(&ctx, &mut conn, "STATS t");
        assert!(stats.contains("\"maintenance\":\"refine\""), "{stats:?}");
        assert!(stats.contains("\"staleness\":null"), "{stats:?}");
        // A maintenance pass on a fresh (never-analyzed) table repairs by
        // installing statistics and reports its audit and action.
        let reply = line(&ctx, &mut conn, "MAINTAIN t");
        assert!(
            reply.starts_with("OK maintained t mode=refine"),
            "{reply:?}"
        );
        assert_eq!(line(&ctx, &mut conn, "INSERT t 0 0 1 1"), "OK 0");
        assert!(line(&ctx, &mut conn, "ANALYZE t").starts_with("OK analyzed t"));
        let stats = line(&ctx, &mut conn, "STATS t");
        assert!(stats.contains("\"staleness\":0.000000"), "{stats:?}");
    }

    #[test]
    fn trace_ids_echo_on_ok_and_err_but_malformed_never_echo() {
        let ctx = test_ctx(ServeOptions::default());
        let mut conn = ConnState::default();
        assert_eq!(line(&ctx, &mut conn, "TID=req-7 PING"), "TID=req-7 OK pong");
        assert_eq!(line(&ctx, &mut conn, "PING"), "OK pong", "no echo unasked");
        // Errors echo too, so the client can still join the reply.
        assert!(line(&ctx, &mut conn, "TID=a.b_c NOPE").starts_with("TID=a.b_c ERR 2 "));
        // Malformed tokens are refused without reflection.
        for bad in [
            "TID= PING",
            "TID=has/slash PING",
            "TID=qu\"ote PING",
            &format!("TID={} PING", "x".repeat(65)),
        ] {
            let reply = line(&ctx, &mut conn, bad);
            assert!(reply.starts_with("ERR 2 "), "{bad:?} -> {reply:?}");
            assert!(!reply.contains("TID="), "{bad:?} must not echo");
        }
        // Exactly 64 chars is still valid.
        let max = format!("TID={} PING", "y".repeat(64));
        assert!(line(&ctx, &mut conn, &max).ends_with("OK pong"));
    }

    #[test]
    fn create_takes_every_technique_name_and_keeps_its_error_reply() {
        let ctx = test_ctx(ServeOptions::default());
        let mut conn = ConnState::default();
        for (i, (name, built)) in [
            ("min-skew", "Min-Skew"),
            ("minskew", "Min-Skew"),
            ("equi-area", "Equi-Area"),
            ("equi-count", "Equi-Count"),
            ("uniform", "Uniform"),
        ]
        .into_iter()
        .enumerate()
        {
            let create = format!("CREATE t{i} buckets=4 technique={name}");
            assert_eq!(line(&ctx, &mut conn, &create), format!("OK created t{i}"));
            for j in 0..20 {
                let x = f64::from(j) * 5.0;
                let req = format!("INSERT t{i} {x} 0 {} 3", x + 3.0);
                assert!(line(&ctx, &mut conn, &req).starts_with("OK "));
            }
            assert!(line(&ctx, &mut conn, &format!("ANALYZE t{i}")).starts_with("OK analyzed"));
            let explain = line(&ctx, &mut conn, &format!("EXPLAIN t{i} 0 0 50 3"));
            assert!(
                explain.contains(&format!("\"technique\":\"{built}\"")),
                "{name}: {explain:?}"
            );
        }
        for bad in ["rtree", "Min-Skew"] {
            assert_eq!(
                line(&ctx, &mut conn, &format!("CREATE u technique={bad}")),
                format!("ERR 2 usage: unknown technique \"{bad}\"")
            );
        }
    }

    #[test]
    fn explain_escapes_a_loaded_technique_name() {
        // A statistics file may carry any technique name (a snapshot files
        // an unknown one under tag 255), control characters and quotes
        // included; EXPLAIN must still be one JSON line that decodes to it.
        let mut t = crate::SpatialTable::new(TableOptions::default());
        t.insert(Rect::new(0.0, 0.0, 4.0, 4.0));
        t.analyze();
        let stats = t.stats().expect("analyzed");
        let named = minskew_core::SpatialHistogram::from_parts(
            "a\n\"b\"\t\\c\u{1}",
            stats.buckets().to_vec(),
            1,
            stats.extension_rule(),
        );
        t.load_stats(&named.to_bytes());
        let trace = t
            .try_explain(&Rect::new(0.0, 0.0, 2.0, 2.0))
            .expect("finite");
        let json = trace_json(&trace);
        assert!(
            json.contains(r#""technique":"a\n\"b\"\t\\c\u0001","#),
            "{json:?}"
        );
        assert!(!json.contains('\n'), "{json:?}");
    }

    #[test]
    fn explain_matches_estimate_bitwise_and_carries_detail() {
        let ctx = test_ctx(ServeOptions::default());
        let mut conn = ConnState::default();
        assert_eq!(line(&ctx, &mut conn, "CREATE t"), "OK created t");
        for i in 0..200 {
            let x = f64::from(i % 20) * 5.0;
            let y = f64::from(i / 20) * 5.0;
            let req = format!("INSERT t {x} {y} {} {}", x + 3.0, y + 3.0);
            assert!(line(&ctx, &mut conn, &req).starts_with("OK "));
        }
        assert!(line(&ctx, &mut conn, "ANALYZE t").starts_with("OK analyzed t"));
        let est = line(&ctx, &mut conn, "ESTIMATE t 10 10 60 40");
        let explain = line(&ctx, &mut conn, "EXPLAIN t 10 10 60 40");
        let value = est.strip_prefix("OK ").expect("estimate ok").to_string();
        assert!(
            explain.starts_with(&format!("OK {{\"estimate\":{value},")),
            "headline must be the serving-path bits: {explain:?} vs {est:?}"
        );
        assert!(explain.contains("\"path\":\"indexed\""), "{explain:?}");
        assert!(explain.contains("\"technique\":"), "{explain:?}");
        assert!(explain.contains("\"prune\":{"), "{explain:?}");
        assert!(explain.contains("\"terms\":[{"), "{explain:?}");
        assert!(!explain.contains('\n'), "EXPLAIN is single-line");
        // Usage errors mirror ESTIMATE's.
        assert!(line(&ctx, &mut conn, "EXPLAIN ghost 0 0 1 1").starts_with("ERR 2 "));
        assert!(line(&ctx, &mut conn, "EXPLAIN t nan 0 1 1").starts_with("ERR 2 "));
    }

    #[test]
    fn flight_drains_wire_records_with_trace_ids() {
        let mut options = ServeOptions::default();
        options.table_options.metrics_sampling = 1; // sample every estimate
        options.table_options.flight_sample = 1; // record every sampled one
        let ctx = test_ctx(options);
        let mut conn = ConnState::default();
        assert_eq!(line(&ctx, &mut conn, "CREATE t"), "OK created t");
        assert_eq!(line(&ctx, &mut conn, "INSERT t 0 0 1 1"), "OK 0");
        assert!(line(&ctx, &mut conn, "TID=q1 ESTIMATE t 0 0 2 2").starts_with("TID=q1 OK "));
        assert!(line(&ctx, &mut conn, "ESTIMATE t 0 0 3 3").starts_with("OK "));
        let reply = line(&ctx, &mut conn, "FLIGHT t");
        let mut lines = reply.lines();
        assert_eq!(lines.next(), Some("OK 2"), "{reply:?}");
        let first = lines.next().expect("first record");
        assert!(
            first.contains("\"schema\":\"minskew-obs/flight-v1\""),
            "{first:?}"
        );
        assert!(first.contains("\"tid\":\"q1\""), "{first:?}");
        let second = lines.next().expect("second record");
        assert!(second.contains("\"tid\":\"\""), "{second:?}");
        // Bounded drains keep the newest.
        let bounded = line(&ctx, &mut conn, "FLIGHT t 1");
        assert!(bounded.starts_with("OK 1\n"), "{bounded:?}");
        // Every drain names its table.
        assert!(line(&ctx, &mut conn, "FLIGHT").starts_with("ERR 2 "));
        assert!(line(&ctx, &mut conn, "FLIGHT ghost").starts_with("ERR 2 "));
        assert!(line(&ctx, &mut conn, "FLIGHT t bogus").starts_with("ERR 2 "));
    }

    #[test]
    fn flight_drains_while_the_table_lock_is_held() {
        use std::sync::mpsc::channel;
        let mut options = ServeOptions::default();
        options.table_options.metrics_sampling = 1;
        options.table_options.flight_sample = 1;
        let ctx = test_ctx(options);
        let mut conn = ConnState::default();
        assert_eq!(line(&ctx, &mut conn, "CREATE t"), "OK created t");
        assert!(line(&ctx, &mut conn, "TID=held ESTIMATE t 0 0 1 1").starts_with("TID=held OK "));
        let entry = ctx.catalog.get("t").expect("created");
        let (held, held_rx) = channel();
        let (release, release_rx) = channel::<()>();
        let (drained, drained_rx) = channel();
        let (entry, ctx) = (&entry, &ctx);
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let _table = entry.table();
                held.send(()).expect("the test waits for the lock");
                release_rx.recv().ok();
            });
            held_rx.recv().expect("the table lock is held");
            scope.spawn(move || {
                let mut conn = ConnState::default();
                drained.send(line(ctx, &mut conn, "FLIGHT t")).ok();
            });
            let reply = drained_rx.recv_timeout(Duration::from_secs(1));
            release.send(()).expect("the holder waits");
            let reply = reply.expect("FLIGHT waited on the table lock");
            assert!(reply.starts_with("OK 1\n"), "{reply:?}");
            assert!(reply.contains("\"tid\":\"held\""), "{reply:?}");
        });
    }

    /// The trace ids of the records `FLIGHT <args>` drains, oldest first.
    fn drained_tids(ctx: &Arc<ServerCtx>, conn: &mut ConnState, args: &str) -> Vec<String> {
        let reply = line(ctx, conn, &format!("FLIGHT {args}"));
        let mut lines = reply.lines();
        let head = lines.next().expect("header");
        let tids: Vec<String> = lines.map(|record| field(record, "tid")).collect();
        assert_eq!(head, format!("OK {}", tids.len()), "{reply:?}");
        tids
    }

    #[test]
    fn flight_drains_a_table_whose_name_is_a_number() {
        let mut options = ServeOptions::default();
        options.table_options.metrics_sampling = 1;
        options.table_options.flight_sample = 1;
        let ctx = test_ctx(options);
        let mut conn = ConnState::default();
        for name in ["5", "t"] {
            assert_eq!(
                line(&ctx, &mut conn, &format!("CREATE {name}")),
                format!("OK created {name}")
            );
            let tagged = format!("TID=in-{name} ESTIMATE {name} 0 0 1 1");
            assert!(line(&ctx, &mut conn, &tagged).starts_with(&format!("TID=in-{name} OK ")));
        }
        assert_eq!(drained_tids(&ctx, &mut conn, "5"), ["\"in-5\""]);
        assert_eq!(drained_tids(&ctx, &mut conn, "t"), ["\"in-t\""]);
        assert_eq!(drained_tids(&ctx, &mut conn, "5 1"), ["\"in-5\""]);
        assert_eq!(
            line(&ctx, &mut conn, "FLIGHT 5 x"),
            "ERR 2 usage: bad count \"x\""
        );
    }

    #[test]
    fn wire_estimates_sample_by_the_table_mask_per_connection() {
        for metrics in [true, false] {
            let mut options = ServeOptions::default();
            options.table_options.metrics = metrics;
            options.table_options.metrics_sampling = 4;
            options.table_options.flight_sample = 1;
            let ctx = test_ctx(options);
            let mut conn = ConnState::default();
            assert_eq!(line(&ctx, &mut conn, "CREATE t"), "OK created t");
            assert_eq!(line(&ctx, &mut conn, "INSERT t 0 0 1 1"), "OK 0");
            for i in 0..8 {
                let reply = line(&ctx, &mut conn, &format!("TID=q{i} ESTIMATE t 0 0 2 2"));
                assert_eq!(reply, format!("TID=q{i} OK 1"));
            }
            // A second connection has a reader, and a sampled index, of
            // its own: its first estimate is sampled too.
            let mut other = ConnState::default();
            assert_eq!(
                line(&ctx, &mut other, "TID=r0 ESTIMATE t 0 0 2 2"),
                "TID=r0 OK 1"
            );
            let want: &[&str] = if metrics {
                &["\"q0\"", "\"q4\"", "\"r0\""]
            } else {
                &[]
            };
            assert_eq!(
                drained_tids(&ctx, &mut conn, "t"),
                want,
                "metrics {metrics}"
            );
            let text = line(&ctx, &mut conn, "METRICS t text");
            let recorded = want.len().to_string();
            assert!(
                text.lines().any(|l| l
                    .split_whitespace()
                    .eq(["engine.flight.recorded", recorded.as_str()])),
                "want engine.flight.recorded {recorded} in {text:?}"
            );
        }
    }

    #[test]
    fn metrics_verb_scrapes_registries_live() {
        let ctx = test_ctx(ServeOptions::default());
        let mut conn = ConnState::default();
        assert_eq!(line(&ctx, &mut conn, "PING"), "OK pong");
        let reply = line(&ctx, &mut conn, "METRICS");
        let (head, body) = reply.split_once('\n').expect("framed");
        let k: usize = head
            .strip_prefix("OK ")
            .expect("ok")
            .parse()
            .expect("count");
        assert_eq!(body.lines().count(), k, "{reply:?}");
        assert!(body.contains("\"schema\": \"minskew-obs/v1\""), "{body:?}");
        let text = line(&ctx, &mut conn, "METRICS text");
        assert!(text.starts_with("OK "), "{text:?}");
        assert!(body.contains("serve.verb.ping"), "{body:?}");
        assert!(text.contains("serve.requests"), "{text:?}");
        assert_eq!(line(&ctx, &mut conn, "CREATE t"), "OK created t");
        assert!(
            line(&ctx, &mut conn, "METRICS t").starts_with("OK "),
            "table registry"
        );
        assert!(line(&ctx, &mut conn, "METRICS ghost").starts_with("ERR 2 "));
        assert!(line(&ctx, &mut conn, "METRICS t xml").starts_with("ERR 2 "));
    }

    /// A blocking line client for the tests that need real connections.
    struct Client(std::io::BufReader<TcpStream>);

    impl Client {
        fn connect(addr: SocketAddr) -> Client {
            Client(std::io::BufReader::new(
                TcpStream::connect(addr).expect("connect"),
            ))
        }

        fn send(&mut self, req: &str) -> String {
            use std::io::BufRead;
            let stream = self.0.get_mut();
            stream.write_all(req.as_bytes()).expect("write");
            stream.write_all(b"\n").expect("write");
            let mut reply = String::new();
            self.0.read_line(&mut reply).expect("read");
            reply.trim_end().to_string()
        }
    }

    /// The numeric field `key` of a single-line JSON reply.
    fn field(json: &str, key: &str) -> String {
        let at = json.find(&format!("\"{key}\":")).expect(key) + key.len() + 3;
        json[at..]
            .split([',', '}'])
            .next()
            .expect("value")
            .to_string()
    }

    #[test]
    fn stats_is_a_projection_of_the_metrics_snapshot() {
        let handle = serve(Arc::new(SpatialCatalog::new()), ServeOptions::default())
            .expect("bind an ephemeral port");
        // Every connection that has answered is counted until it closes.
        let (mut a, mut b) = (
            Client::connect(handle.addr()),
            Client::connect(handle.addr()),
        );
        assert_eq!(a.send("PING"), "OK pong");
        assert_eq!(b.send("PING"), "OK pong");
        let mut c = Client::connect(handle.addr());
        assert_eq!(c.send("CREATE t"), "OK created t");
        for i in 0..40 {
            let x = f64::from(i % 8) * 10.0;
            let y = f64::from(i / 8) * 10.0;
            let req = format!("INSERT t {x} {y} {} {}", x + 5.0, y + 5.0);
            assert!(c.send(&req).starts_with("OK "));
        }
        assert!(c.send("ANALYZE t").starts_with("OK analyzed t"));
        assert!(c.send("INSERT t 1 1 2 2").starts_with("OK "));
        // Served in process, so no request is recorded between a STATS
        // reply and the snapshot it is checked against.
        let ctx = &handle.ctx;
        let Reply::Line(server) = cmd_stats(ctx, &[]) else {
            panic!("STATS failed")
        };
        let Reply::Line(table) = cmd_stats(ctx, &["t"]) else {
            panic!("STATS t failed")
        };
        let metrics = ctx.metrics();
        let gauge = |name| metrics.gauge(name).expect(name).to_string();
        assert_eq!(field(&server, "tables"), gauge("serve.tables"));
        assert_eq!(
            field(&server, "active_connections"),
            gauge("serve.active_connections")
        );
        assert_eq!(field(&server, "active_connections"), "3");
        let lat = metrics
            .histogram("serve.request_ns")
            .expect("requests timed");
        assert_eq!(field(&server, "count"), lat.count.to_string());
        for (key, q) in [("p50", 0.5), ("p95", 0.95), ("p99", 0.99)] {
            assert_eq!(field(&server, key), lat.quantile_upper_bound(q).to_string());
        }
        let metrics = ctx.catalog.get("t").expect("created").table().metrics();
        let gauge = |name| metrics.gauge(name).expect(name);
        assert_eq!(field(&table, "rows"), gauge("engine.rows").to_string());
        assert_eq!(field(&table, "rows"), "41");
        assert_eq!(
            field(&table, "buckets"),
            gauge("engine.stats.buckets").to_string()
        );
        assert_eq!(
            field(&table, "generation"),
            gauge("engine.stats.generation").to_string()
        );
        let staleness = gauge("engine.stats.staleness");
        assert!(staleness > 0.0);
        assert_eq!(field(&table, "staleness"), format!("{staleness:.6}"));
        // Connections that close together leave the count at zero.
        drop((a, b, c));
        assert_eq!(
            handle.shutdown().gauge("serve.active_connections"),
            Some(0.0)
        );
    }

    #[test]
    fn bare_stats_reports_request_latency_quantiles() {
        let ctx = test_ctx(ServeOptions::default());
        let mut conn = ConnState::default();
        assert_eq!(line(&ctx, &mut conn, "PING"), "OK pong");
        let stats = line(&ctx, &mut conn, "STATS");
        assert!(stats.starts_with("OK {\"tables\":0,"), "{stats:?}");
        assert!(stats.contains("\"request_ns\":{\"count\":"), "{stats:?}");
        assert!(stats.contains("\"p50\":"), "{stats:?}");
        assert!(stats.contains("\"p95\":"), "{stats:?}");
        assert!(stats.contains("\"p99\":"), "{stats:?}");
    }
}
