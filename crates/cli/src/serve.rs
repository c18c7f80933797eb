//! `minskew serve` — the TCP serving front-end — and `minskew catalog`,
//! its line-protocol client.
//!
//! `serve` hosts a [`SpatialCatalog`] behind the engine's zero-dependency
//! line protocol (see `minskew_engine::serve`); `catalog` is a one-shot
//! client that sends a single request and maps `ERR <code>` replies onto
//! the CLI's exit-code taxonomy, so scripts talk to a running server with
//! the same failure classes as the offline subcommands.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use minskew_data::atomic::write_atomic;
use minskew_data::read_rects_csv;
use minskew_engine::{serve, ServeOptions, SpatialCatalog, TableOptions};

use crate::{num, req, CliError, ErrorKind, Flags};

fn table_options(opts: &Flags) -> Result<TableOptions, CliError> {
    let mut options = TableOptions::default();
    options.analyze.buckets = num(opts, "buckets", options.analyze.buckets)?;
    if let Some(t) = opts.get("technique") {
        options.analyze.technique = t.parse().map_err(CliError::usage)?;
    }
    Ok(options)
}

/// `minskew serve [--addr A] [--port-file F] [--input data.csv]
/// [--table NAME] [--buckets B] [--technique T]`.
///
/// Blocks until a client sends `SHUTDOWN`, then dumps the server's metrics
/// registry to stdout.
pub(crate) fn serve_cmd(opts: &Flags) -> Result<(), CliError> {
    let addr = opts.get("addr").map_or("127.0.0.1:0", String::as_str);
    let options = table_options(opts)?;
    let catalog = Arc::new(SpatialCatalog::new());
    if let Some(path) = opts.get("input") {
        let name = opts.get("table").map_or("main", String::as_str);
        let data =
            read_rects_csv(path).map_err(|e| CliError::from_csv(&format!("reading {path}"), e))?;
        let entry = catalog
            .create(name, options)
            .map_err(|e| CliError::usage(e.to_string()))?;
        let mut table = entry.table();
        table.insert_many(data.into_rects());
        table.analyze();
        println!(
            "table {name:?}: {} rects, {} buckets",
            table.len(),
            table.stats_diagnostics().achieved_buckets,
        );
    }
    let handle = serve(
        catalog,
        ServeOptions {
            addr: addr.to_string(),
            table_options: options,
            max_batch: num(opts, "max-batch", 4096usize)?,
        },
    )
    .map_err(|e| CliError::new(ErrorKind::Io, format!("binding {addr}: {e}")))?;
    let bound = handle.addr();
    println!("listening on {bound}");
    if let Some(port_file) = opts.get("port-file") {
        write_atomic(Path::new(port_file), format!("{bound}\n").as_bytes())
            .map_err(|e| CliError::new(ErrorKind::Io, format!("writing {port_file}: {e}")))?;
    }
    let metrics = handle.join();
    print!("{}", metrics.to_text());
    Ok(())
}

/// Parses a reply's first line as an `OK <k>` frame header (tolerating an
/// optional `TID=<token> ` echo), returning `k`.
fn framed_count(line: &str) -> Option<usize> {
    let line = match line.strip_prefix("TID=") {
        Some(rest) => rest.split_once(' ').map_or(line, |(_, tail)| tail),
        None => line,
    };
    line.strip_prefix("OK ")?.trim().parse().ok()
}

/// Sends one request line and reads the reply: one line, plus — when
/// `framed` and the first line is an `OK <k>` frame header — the `k`
/// payload lines that follow (`FLIGHT` / `METRICS` framing).
fn round_trip(addr: &str, request: &str, framed: bool) -> Result<String, CliError> {
    let io_err =
        |what: &str, e: std::io::Error| CliError::new(ErrorKind::Io, format!("{what} {addr}: {e}"));
    let mut stream = TcpStream::connect(addr).map_err(|e| io_err("connecting to", e))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| io_err("configuring", e))?;
    stream
        .write_all(format!("{request}\n").as_bytes())
        .map_err(|e| io_err("writing to", e))?;
    let mut reader = BufReader::new(stream);
    let mut first = String::new();
    reader
        .read_line(&mut first)
        .map_err(|e| io_err("reading from", e))?;
    if first.is_empty() {
        return Err(CliError::new(
            ErrorKind::Io,
            format!("server at {addr} closed the connection without replying"),
        ));
    }
    let mut reply = first.trim_end_matches(['\n', '\r']).to_string();
    if framed {
        if let Some(k) = framed_count(&reply) {
            for _ in 0..k {
                let mut line = String::new();
                reader
                    .read_line(&mut line)
                    .map_err(|e| io_err("reading from", e))?;
                if line.is_empty() {
                    return Err(CliError::new(
                        ErrorKind::Io,
                        format!("server at {addr} closed the connection mid-frame"),
                    ));
                }
                reply.push('\n');
                reply.push_str(line.trim_end_matches(['\n', '\r']));
            }
        }
    }
    Ok(reply)
}

/// Maps a protocol reply onto the exit-code taxonomy: `OK`'s payload goes
/// to stdout; `ERR <code> <msg>` becomes a [`CliError`] of the matching
/// kind, so the process exits with the server's error code.
fn report(reply: &str) -> Result<(), CliError> {
    if let Some(payload) = reply.strip_prefix("OK") {
        println!("{}", payload.trim_start());
        return Ok(());
    }
    let Some(rest) = reply.strip_prefix("ERR ") else {
        return Err(CliError::new(
            ErrorKind::Io,
            format!("malformed server reply {reply:?}"),
        ));
    };
    let (code, message) = rest.split_once(' ').unwrap_or((rest, ""));
    let kind = match code {
        "3" => ErrorKind::Io,
        "4" => ErrorKind::Parse,
        "5" => ErrorKind::CorruptStats,
        "6" => ErrorKind::Build,
        _ => ErrorKind::Usage,
    };
    Err(CliError::new(kind, format!("server: {message}")))
}

/// [`report`] for framed (`OK <k>` + `k` lines) replies: the count line is
/// protocol framing, so only the payload lines reach stdout. A closed
/// stdout (`... | head`, `... | grep -q`) is a normal end of consumption,
/// not an error — the write is allowed to fail silently.
fn report_framed(reply: &str) -> Result<(), CliError> {
    use std::io::Write;
    if reply.starts_with("OK") {
        if let Some((_, body)) = reply.split_once('\n') {
            let _ = writeln!(std::io::stdout(), "{body}");
        }
        return Ok(());
    }
    report(reply)
}

/// Turns a `x1,y1,x2,y2` flag value into four protocol tokens.
fn rect_tokens(s: &str) -> Result<String, CliError> {
    let parts: Vec<&str> = s.split(',').map(str::trim).collect();
    if parts.len() != 4 {
        return Err(CliError::usage(format!("expected x1,y1,x2,y2, got {s:?}")));
    }
    for p in &parts {
        p.parse::<f64>()
            .map_err(|e| CliError::usage(format!("bad coordinate {p:?}: {e}")))?;
    }
    Ok(parts.join(" "))
}

/// The flags any `catalog` action accepts: the union over actions.
pub(crate) const CATALOG_FLAGS: &str =
    "addr tid name buckets technique rect id query limit format mode op path";

/// `minskew catalog <action> --addr HOST:PORT ...` — one-shot client.
///
/// With `--tid TOKEN`, the request carries a `TID=<token>` prefix and the
/// reply's echo is verified and stripped before reporting.
pub(crate) fn catalog_cmd(action: &str, opts: &Flags) -> Result<(), CliError> {
    let addr = req(opts, "addr")?;
    // FLIGHT and METRICS replies are `OK <k>` + k payload lines.
    let framed = matches!(action, "flight" | "metrics");
    let request = match action {
        "ping" => String::from("PING"),
        "list" => String::from("TABLES"),
        "shutdown" => String::from("SHUTDOWN"),
        "create" => {
            let mut request = format!("CREATE {}", req(opts, "name")?);
            for key in ["buckets", "technique"] {
                if let Some(value) = opts.get(key) {
                    request.push_str(&format!(" {key}={value}"));
                }
            }
            request
        }
        "drop" => format!("DROP {}", req(opts, "name")?),
        "insert" => format!(
            "INSERT {} {}",
            req(opts, "name")?,
            rect_tokens(req(opts, "rect")?)?
        ),
        "delete" => format!("DELETE {} {}", req(opts, "name")?, req(opts, "id")?),
        "analyze" => format!("ANALYZE {}", req(opts, "name")?),
        "estimate" => format!(
            "ESTIMATE {} {}",
            req(opts, "name")?,
            rect_tokens(req(opts, "query")?)?
        ),
        "explain" => format!(
            "EXPLAIN {} {}",
            req(opts, "name")?,
            rect_tokens(req(opts, "query")?)?
        ),
        "flight" => {
            let mut request = format!("FLIGHT {}", req(opts, "name")?);
            if let Some(limit) = opts.get("limit") {
                limit
                    .parse::<usize>()
                    .map_err(|e| CliError::usage(format!("bad --limit {limit:?}: {e}")))?;
                request.push_str(&format!(" {limit}"));
            }
            request
        }
        "metrics" => {
            let mut request = String::from("METRICS");
            if let Some(name) = opts.get("name") {
                request.push_str(&format!(" {name}"));
            }
            if let Some(format) = opts.get("format") {
                if format != "json" && format != "text" {
                    return Err(CliError::usage(format!(
                        "--format must be json or text, got {format:?}"
                    )));
                }
                request.push_str(&format!(" {format}"));
            }
            request
        }
        "stats" => match opts.get("name") {
            Some(name) => format!("STATS {name}"),
            None => String::from("STATS"),
        },
        "maintain" => {
            let mut request = format!("MAINTAIN {}", req(opts, "name")?);
            if let Some(mode) = opts.get("mode") {
                // Validate locally so a typo is a usage error before any
                // network round trip.
                mode.parse::<minskew_engine::MaintenanceMode>()
                    .map_err(CliError::usage)?;
                request.push_str(&format!(" MODE {mode}"));
            }
            request
        }
        "snapshot" => {
            let op = req(opts, "op")?;
            if !op.eq_ignore_ascii_case("save") && !op.eq_ignore_ascii_case("load") {
                return Err(CliError::usage(format!(
                    "--op must be save or load, got {op:?}"
                )));
            }
            format!(
                "SNAPSHOT {} {} {}",
                req(opts, "name")?,
                op.to_ascii_uppercase(),
                req(opts, "path")?
            )
        }
        other => {
            return Err(CliError::usage(format!(
                "unknown catalog action {other:?} (want ping|list|create|drop|insert|delete|\
                 analyze|estimate|explain|stats|flight|metrics|maintain|snapshot|shutdown)"
            )))
        }
    };
    let tid = opts.get("tid");
    if let Some(t) = tid {
        let valid = !t.is_empty()
            && t.len() <= 64
            && t.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'));
        if !valid {
            return Err(CliError::usage(format!(
                "bad --tid {t:?} (want 1-64 chars of [A-Za-z0-9._-])"
            )));
        }
    }
    let request = match tid {
        Some(t) => format!("TID={t} {request}"),
        None => request,
    };
    let mut reply = round_trip(addr, &request, framed)?;
    if let Some(t) = tid {
        let echo = format!("TID={t} ");
        match reply.strip_prefix(&echo) {
            Some(rest) => reply = rest.to_string(),
            None => {
                return Err(CliError::new(
                    ErrorKind::Io,
                    format!("server reply is missing the trace-id echo: {reply:?}"),
                ))
            }
        }
    }
    if framed {
        report_framed(&reply)
    } else {
        report(&reply)
    }
}

/// Extracts the first number following `"key":` in a JSON document emitted
/// by this workspace's hand-written writers (`STATS` replies, the
/// `minskew-obs/v1` export). Not a general JSON parser: `null` and absent
/// keys are both `None`.
fn json_field(doc: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = doc.find(&needle)?;
    let rest = doc[at + needle.len()..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// One polled observation for `minskew top`.
struct TopSample {
    requests: f64,
    p50_ns: f64,
    p95_ns: f64,
    p99_ns: f64,
    connections: f64,
    staleness: Option<f64>,
}

/// Polls one `top` sample: the bare `STATS` document always, plus the
/// table's `STATS` row when `--name` was given.
fn top_sample(addr: &str, table: Option<&str>) -> Result<TopSample, CliError> {
    let stats = round_trip(addr, "STATS", false)?;
    let mut sample = TopSample {
        requests: json_field(&stats, "count").unwrap_or(0.0),
        p50_ns: json_field(&stats, "p50").unwrap_or(0.0),
        p95_ns: json_field(&stats, "p95").unwrap_or(0.0),
        p99_ns: json_field(&stats, "p99").unwrap_or(0.0),
        connections: json_field(&stats, "active_connections").unwrap_or(0.0),
        staleness: None,
    };
    if let Some(name) = table {
        let tstats = round_trip(addr, &format!("STATS {name}"), false)?;
        if tstats.starts_with("OK") {
            sample.staleness = json_field(&tstats, "staleness");
        }
    }
    Ok(sample)
}

/// `minskew top --addr HOST:PORT [--name TABLE] [--interval SECS]
/// [--iterations N]` — a live dashboard over the `STATS` verb.
///
/// Each tick polls the server and renders one aligned row: requests/second
/// is a per-interval delta; the latency quantiles are the server's
/// cumulative `serve.request_ns` upper bounds; `conns` is the open
/// connection count, and `staleness` the `--name` table's. `--iterations
/// 0` (the default is 0 = forever) polls until interrupted.
pub(crate) fn top_cmd(opts: &Flags) -> Result<(), CliError> {
    let addr = req(opts, "addr")?;
    let table = opts.get("name").map(String::as_str);
    let interval = num(opts, "interval", 2.0f64)?;
    if !interval.is_finite() || interval <= 0.0 {
        return Err(CliError::usage(format!(
            "--interval must be a positive number of seconds, got {interval}"
        )));
    }
    let iterations = num(opts, "iterations", 0usize)?;
    println!(
        "{:>10}  {:>9}  {:>9}  {:>9}  {:>6}  {:>9}",
        "req/s", "p50_us", "p95_us", "p99_us", "conns", "staleness"
    );
    let mut prev = top_sample(addr, table)?;
    let mut tick = 0usize;
    loop {
        std::thread::sleep(Duration::from_secs_f64(interval));
        let cur = top_sample(addr, table)?;
        let qps = (cur.requests - prev.requests).max(0.0) / interval;
        let staleness = cur
            .staleness
            .map_or_else(|| String::from("-"), |s| format!("{s:.3}"));
        println!(
            "{:>10.1}  {:>9.1}  {:>9.1}  {:>9.1}  {:>6}  {:>9}",
            qps,
            cur.p50_ns / 1e3,
            cur.p95_ns / 1e3,
            cur.p99_ns / 1e3,
            cur.connections as u64,
            staleness
        );
        prev = cur;
        tick += 1;
        if iterations > 0 && tick >= iterations {
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_maps_error_codes_to_exit_kinds() {
        for (reply, kind) in [
            ("ERR 2 usage: nope", ErrorKind::Usage),
            ("ERR 3 io: gone", ErrorKind::Io),
            ("ERR 4 parse", ErrorKind::Parse),
            ("ERR 5 corrupt", ErrorKind::CorruptStats),
            ("ERR 6 build", ErrorKind::Build),
            ("ERR 99 weird", ErrorKind::Usage),
        ] {
            let e = report(reply).expect_err(reply);
            assert_eq!(e.kind, kind, "{reply}");
        }
        assert!(report("OK pong").is_ok());
        assert!(report("garbage").is_err());
    }

    #[test]
    fn rect_tokens_round_trip() {
        assert_eq!(rect_tokens("0, 1 ,2.5,3").expect("valid"), "0 1 2.5 3");
        assert!(rect_tokens("0,1,2").is_err());
        assert!(rect_tokens("a,b,c,d").is_err());
    }

    #[test]
    fn framed_count_reads_headers_with_and_without_echo() {
        assert_eq!(framed_count("OK 3"), Some(3));
        assert_eq!(framed_count("OK 0"), Some(0));
        assert_eq!(framed_count("TID=abc OK 7"), Some(7));
        assert_eq!(framed_count("OK pong"), None);
        assert_eq!(framed_count("ERR 2 nope"), None);
        assert_eq!(framed_count("TID=abc ERR 2 nope"), None);
    }

    #[test]
    fn json_field_extracts_from_both_json_dialects() {
        // Server STATS style (no space after the colon).
        let stats = r#"OK {"tables":2,"active_connections":1,"request_ns":{"count":14,"p50":2048,"p95":4096,"p99":8192}}"#;
        assert_eq!(json_field(stats, "tables"), Some(2.0));
        assert_eq!(json_field(stats, "count"), Some(14.0));
        assert_eq!(json_field(stats, "p99"), Some(8192.0));
        // minskew-obs/v1 style (space after the colon).
        let obs = "{\n  \"counters\": {\n    \"engine.query.calls\": 12\n  }\n}";
        assert_eq!(json_field(obs, "engine.query.calls"), Some(12.0));
        // Null and absent fields are both None.
        assert_eq!(json_field(r#"{"staleness":null}"#, "staleness"), None);
        assert_eq!(json_field(stats, "missing"), None);
    }

    #[test]
    fn report_framed_prints_body_and_maps_errors() {
        assert!(report_framed("OK 0").is_ok());
        assert!(report_framed("OK 2\nline1\nline2").is_ok());
        assert_eq!(
            report_framed("ERR 2 usage: nope").unwrap_err().kind,
            ErrorKind::Usage
        );
    }
}
