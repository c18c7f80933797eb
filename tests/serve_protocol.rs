//! Golden tests for the serving wire protocol: pinned request/response
//! byte transcripts for every verb, error replies mapped onto the CLI's
//! exit-code taxonomy (2 usage, 3 I/O, 4 malformed data, 5 corrupt stats,
//! 6 build failure), and a malformed-input fuzz pass proving that junk
//! always yields a typed `ERR` reply — the server never panics, never
//! wedges a connection, and keeps serving afterwards. Pipelined bursts
//! (many requests in one write) get the same bytes, in the same order, as
//! the same requests sent one at a time.
//!
//! The fixture data is chosen so estimates are trivially exact (`OK 4`),
//! making the estimate replies themselves part of the golden transcript.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

use minskew::prelude::*;

/// One live connection speaking the line protocol.
struct Client {
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        Client {
            reader: BufReader::new(stream),
        }
    }

    /// Sends raw bytes (caller includes the newline) and reads one reply.
    fn send_raw(&mut self, bytes: &[u8]) -> String {
        self.reader
            .get_mut()
            .write_all(bytes)
            .expect("write request");
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("read reply");
        reply.trim_end_matches('\n').to_string()
    }

    fn send(&mut self, line: &str) -> String {
        self.send_raw(format!("{line}\n").as_bytes())
    }

    /// Sends a framed verb (`FLIGHT` / `METRICS`): reads the `OK <k>`
    /// header, then exactly `k` body lines. Returns `(header, body)`.
    fn send_framed(&mut self, line: &str) -> (String, Vec<String>) {
        let header = self.send(line);
        let count = header
            .strip_prefix("OK ")
            .and_then(|rest| rest.parse::<usize>().ok())
            .unwrap_or(0);
        let mut body = Vec::with_capacity(count);
        for _ in 0..count {
            let mut line = String::new();
            self.reader.read_line(&mut line).expect("read frame line");
            body.push(line.trim_end_matches('\n').to_string());
        }
        (header, body)
    }
}

fn start_server() -> ServerHandle {
    serve(Arc::new(SpatialCatalog::new()), ServeOptions::default()).expect("bind server")
}

#[test]
fn golden_transcript_for_every_verb() {
    let handle = start_server();
    let mut c = Client::connect(handle.addr());
    let dir = std::env::temp_dir().join(format!("minskew-proto-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let snap = dir.join("t.snap").display().to_string();

    // Structural verbs, pinned byte for byte.
    assert_eq!(c.send("PING"), "OK pong");
    assert_eq!(c.send("TABLES"), "OK 0");
    assert_eq!(c.send("CREATE t buckets=4"), "OK created t");
    assert_eq!(
        c.send("CREATE t"),
        "ERR 2 usage: table \"t\" already exists"
    );
    assert_eq!(c.send("TABLES"), "OK 1 t");

    // Four identical rects: every estimate below is exact, so the numeric
    // replies are part of the golden transcript.
    for id in 0..4 {
        assert_eq!(c.send("INSERT t 0 0 10 10"), format!("OK {id}"));
    }
    assert_eq!(c.send("ESTIMATE t 0 0 10 10"), "OK 4", "no-stats fallback");
    assert_eq!(c.send("ESTIMATE t 20 20 30 30"), "OK 0");
    assert_eq!(c.send("ANALYZE t"), "OK analyzed t buckets=1 fallback=none");
    assert_eq!(c.send("ESTIMATE t 0 0 10 10"), "OK 4", "histogram estimate");
    assert_eq!(c.send("BATCH t 2 0 0 10 10 20 20 30 30"), "OK 4 0");
    // No-arg STATS carries the request-latency quantiles; the counts and
    // bounds depend on wall-clock timing, so pin shape rather than bytes.
    let stats = c.send("STATS");
    assert!(
        stats.starts_with("OK {\"tables\":1,\"active_connections\":1,\"request_ns\":{\"count\":"),
        "{stats}"
    );
    for key in ["\"p50\":", "\"p95\":", "\"p99\":"] {
        assert!(stats.contains(key), "{stats}");
    }
    assert_eq!(
        c.send("STATS t"),
        "OK {\"table\":\"t\",\"rows\":4,\"buckets\":1,\"generation\":5,\
         \"fallback\":\"none\",\"maintenance\":\"reanalyze\",\
         \"staleness\":0.000000}"
    );
    assert_eq!(
        c.send("MAINTAIN t"),
        "OK maintained t mode=reanalyze accuracy: no sampled queries yet; action: none",
        "fresh statistics need no repair"
    );
    assert_eq!(
        c.send("MAINTAIN t MODE refine"),
        "OK maintenance t mode=refine"
    );
    assert_eq!(
        c.send("MAINTAIN t MODE bogus"),
        "ERR 2 usage: unknown maintenance mode \"bogus\" (expected off, reanalyze, or refine)"
    );
    assert_eq!(
        c.send(&format!("SNAPSHOT t SAVE {snap}")),
        "OK saved t buckets=1"
    );
    assert_eq!(
        c.send(&format!("SNAPSHOT t LOAD {snap}")),
        "OK loaded t buckets=1"
    );
    assert_eq!(c.send("DELETE t 3"), "OK deleted 3");
    assert_eq!(c.send("DELETE t 9"), "ERR 2 usage: unknown rowid 9");
    assert_eq!(c.send("DROP t"), "OK dropped t");
    assert_eq!(c.send("TABLES"), "OK 0");

    let _ = std::fs::remove_dir_all(&dir);
    handle.shutdown();
}

#[test]
fn error_replies_cover_the_exit_code_taxonomy() {
    let handle = start_server();
    let mut c = Client::connect(handle.addr());
    let dir = std::env::temp_dir().join(format!("minskew-proto-err-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");

    assert_eq!(c.send("CREATE t"), "OK created t");
    assert_eq!(c.send("INSERT t 0 0 10 10"), "OK 0");

    // 2 — usage: unknown verbs/tables/options (`shards=` included: tables
    // are never sharded), malformed queries, empty requests, and SAVE with
    // no statistics installed.
    assert_eq!(c.send("FROB"), "ERR 2 usage: unknown verb \"FROB\"");
    assert_eq!(
        c.send("CREATE u shards=2"),
        "ERR 2 usage: unknown option \"shards\""
    );
    assert_eq!(
        c.send("TABLES"),
        "OK 1 t",
        "a rejected CREATE creates nothing"
    );
    assert_eq!(c.send(""), "ERR 2 usage: empty request");
    assert_eq!(
        c.send("ESTIMATE ghost 0 0 1 1"),
        "ERR 2 usage: unknown table \"ghost\""
    );
    assert_eq!(
        c.send("ESTIMATE t nan 0 1 1"),
        "ERR 2 rectangle corner coordinates must be finite"
    );
    assert_eq!(
        c.send("ESTIMATE t 1e400 0 1 1"),
        "ERR 2 rectangle corner coordinates must be finite",
        "overflow to infinity is rejected, not folded"
    );
    let save_no_stats = c.send(&format!("SNAPSHOT t SAVE {}", dir.join("x").display()));
    assert!(save_no_stats.starts_with("ERR 2 "), "{save_no_stats}");

    // 3 — I/O: loading a snapshot that does not exist.
    let missing = c.send(&format!(
        "SNAPSHOT t LOAD {}",
        dir.join("missing").display()
    ));
    assert!(missing.starts_with("ERR 3 "), "{missing}");

    // 4 — malformed data: unparsable row payloads.
    assert_eq!(c.send("INSERT t a b c d"), "ERR 4 bad coordinate \"a\"");

    // 5 — corrupt statistics: a snapshot file full of garbage.
    let garbage = dir.join("garbage.snap");
    std::fs::write(&garbage, b"this is not a snapshot container").expect("write");
    let corrupt = c.send(&format!("SNAPSHOT t LOAD {}", garbage.display()));
    assert!(corrupt.starts_with("ERR 5 "), "{corrupt}");

    // 6 — build failure: table options the engine rejects.
    let build = c.send("CREATE bad buckets=0");
    assert!(build.starts_with("ERR 6 "), "{build}");

    // The connection survived every error class.
    assert_eq!(c.send("PING"), "OK pong");
    let _ = std::fs::remove_dir_all(&dir);
    handle.shutdown();
}

#[test]
fn malformed_input_fuzz_yields_typed_errors_and_never_wedges() {
    let handle = start_server();
    let mut c = Client::connect(handle.addr());
    assert_eq!(c.send("CREATE t"), "OK created t");

    let fuzz: Vec<Vec<u8>> = vec![
        b"\x00\x01\x02\xff\xfe binary junk".to_vec(),
        b"\xc3\x28 invalid utf8".to_vec(), // overlong/invalid UTF-8 sequence
        b"ESTIMATE".to_vec(),
        b"ESTIMATE t".to_vec(),
        b"ESTIMATE t 1 2 3".to_vec(),
        b"ESTIMATE t 1 2 3 4 5".to_vec(),
        b"BATCH t -1".to_vec(),
        b"BATCH t 999999 0 0 1 1".to_vec(),
        b"BATCH t 2 0 0 1 1".to_vec(), // count/coordinate mismatch
        b"INSERT t 1e99999 0 1 1".to_vec(),
        b"DELETE t not-a-number".to_vec(),
        b"SNAPSHOT t TWIST /tmp/x".to_vec(),
        b"CREATE x buckets=huge".to_vec(),
        b"CREATE x frobnicate=1".to_vec(),
        b"create-with-trailing-space ".to_vec(),
        " \t ".as_bytes().to_vec(),
        vec![b'A'; 4096], // one long unknown verb
        // Malformed trace ids: empty token, illegal characters, over-long
        // token. All must yield a typed error with NO `TID=` echo.
        b"TID= PING".to_vec(),
        b"TID=bad!token PING".to_vec(),
        b"TID=qu\"ote PING".to_vec(),
        {
            let mut long = b"TID=".to_vec();
            long.extend(std::iter::repeat_n(b'a', 65));
            long.extend(b" PING");
            long
        },
    ];
    for (i, case) in fuzz.iter().enumerate() {
        let mut request = case.clone();
        request.push(b'\n');
        let reply = c.send_raw(&request);
        assert!(
            reply.starts_with("ERR "),
            "fuzz case {i} must yield a typed error (and malformed trace \
             ids must never be echoed), got {reply:?}"
        );
        // The connection still serves normal traffic: no wedge, no panic.
        assert_eq!(
            c.send("PING"),
            "OK pong",
            "fuzz case {i} wedged the connection"
        );
    }

    // A second connection is unaffected by the first one's abuse.
    let mut c2 = Client::connect(handle.addr());
    assert_eq!(c2.send("TABLES"), "OK 1 t");

    // Junk verbs share one counter: a client inventing verbs cannot grow
    // the registry, or every later scrape, without bound. (The first
    // scrape registers the scrape counter itself, so the second is the
    // baseline.)
    c.send_framed("METRICS");
    let (_, before) = c.send_framed("METRICS");
    let junk: String = (0..1000).map(|i| format!("JUNK{i}\n")).collect();
    c.reader
        .get_mut()
        .write_all(junk.as_bytes())
        .expect("write junk");
    for i in 0..1000 {
        let mut reply = String::new();
        c.reader.read_line(&mut reply).expect("read junk reply");
        assert_eq!(reply, format!("ERR 2 usage: unknown verb \"JUNK{i}\"\n"));
    }
    let (_, after) = c.send_framed("METRICS");
    assert!(
        after.len() <= before.len() + 1,
        "1000 junk verbs grew METRICS from {} to {} lines",
        before.len(),
        after.len()
    );
    handle.shutdown();
}

#[test]
fn trace_ids_and_observability_verbs_round_trip() {
    // A server whose wire flight recorder samples every estimate, so the
    // FLIGHT drain below is deterministic.
    let catalog = Arc::new(SpatialCatalog::new());
    let armed = TableOptions {
        flight_sample: 1,
        metrics_sampling: 1,
        ..TableOptions::default()
    };
    let handle = serve(
        Arc::clone(&catalog),
        ServeOptions {
            table_options: armed,
            ..ServeOptions::default()
        },
    )
    .expect("bind server");
    let mut c = Client::connect(handle.addr());
    assert_eq!(c.send("CREATE t"), "OK created t");
    for id in 0..4 {
        assert_eq!(c.send("INSERT t 0 0 10 10"), format!("OK {id}"));
    }
    assert_eq!(c.send("ANALYZE t"), "OK analyzed t buckets=1 fallback=none");

    // Valid trace ids echo on success and on typed errors alike, and the
    // un-tagged replies stay byte-identical to the golden transcript.
    assert_eq!(c.send("TID=q1 PING"), "TID=q1 OK pong");
    assert_eq!(
        c.send("TID=q1 FROB"),
        "TID=q1 ERR 2 usage: unknown verb \"FROB\""
    );
    assert_eq!(c.send("TID=q2 ESTIMATE t 0 0 10 10"), "TID=q2 OK 4");
    assert_eq!(c.send("ESTIMATE t 0 0 10 10"), "OK 4", "no tag, no echo");
    // The full token alphabet survives the round trip.
    assert_eq!(c.send("TID=a.Z-9_x PING"), "TID=a.Z-9_x OK pong");

    // EXPLAIN: the headline field is byte-identical to the ESTIMATE reply
    // (both print the same bits through the same formatter).
    let explain = c.send("EXPLAIN t 0 0 10 10");
    assert!(explain.starts_with("OK {\"estimate\":4,"), "{explain}");
    for key in ["\"path\":", "\"generation\":", "\"detail\":"] {
        assert!(explain.contains(key), "{explain}");
    }
    assert_eq!(
        c.send("EXPLAIN t nan 0 1 1"),
        "ERR 2 rectangle corner coordinates must be finite"
    );

    // FLIGHT: framed `OK <k>` + k pinned JSONL lines, carrying the trace
    // id stamped on the sampled ESTIMATE above.
    let (header, body) = c.send_framed("FLIGHT");
    assert!(
        !body.is_empty(),
        "sample-every recorder drained nothing: {header}"
    );
    assert_eq!(header, format!("OK {}", body.len()));
    for line in &body {
        assert!(
            line.starts_with("{\"schema\":\"minskew-obs/flight-v1\","),
            "{line}"
        );
    }
    assert!(
        body.iter().any(|l| l.contains("\"tid\":\"q2\"")),
        "trace id q2 missing from flight records: {body:?}"
    );
    // A bounded drain returns at most that many records.
    let (_, bounded) = c.send_framed("FLIGHT 1");
    assert_eq!(bounded.len(), 1);
    // The per-table recorder drains through the same verb.
    let (table_header, _) = c.send_framed("FLIGHT t");
    assert!(table_header.starts_with("OK "), "{table_header}");
    assert!(
        c.send("FLIGHT ghost").starts_with("ERR 2 "),
        "unknown table"
    );

    // METRICS: framed registry scrape in both formats, server and table.
    let (header, body) = c.send_framed("METRICS");
    assert!(header.starts_with("OK "), "{header}");
    assert_eq!(body.first().map(String::as_str), Some("{"));
    let doc = body.join("\n");
    assert!(doc.contains("\"schema\": \"minskew-obs/v1\""), "{doc}");
    assert!(doc.contains("serve.verb.ping"), "{doc}");
    assert!(doc.contains("serve.flight.recorded"), "{doc}");
    let (_, text_body) = c.send_framed("METRICS text");
    assert!(
        text_body.iter().any(|l| l.starts_with("serve.requests")),
        "{text_body:?}"
    );
    let (_, table_body) = c.send_framed("METRICS t json");
    assert!(
        table_body.iter().any(|l| l.contains("engine.")),
        "table scrape must expose engine metrics: {table_body:?}"
    );
    assert!(c.send("METRICS t yaml").starts_with("ERR 2 "), "bad format");
    assert!(
        c.send("METRICS ghost").starts_with("ERR 2 "),
        "unknown table"
    );

    // The connection survived the whole tour.
    assert_eq!(c.send("PING"), "OK pong");
    handle.shutdown();
}

#[test]
fn shutdown_verb_stops_the_server_cleanly() {
    let handle = start_server();
    let mut c = Client::connect(handle.addr());
    assert_eq!(c.send("CREATE t"), "OK created t");
    assert_eq!(c.send("INSERT t 0 0 5 5"), "OK 0");
    assert_eq!(c.send("SHUTDOWN"), "OK bye");
    assert!(handle.shutdown_requested());
    // join() drains the accept loop and every connection thread, then
    // returns the final metrics: the request counters must have seen us.
    let metrics = handle.join();
    let text = metrics.to_text();
    assert!(text.contains("serve.requests"), "{text}");
    assert!(text.contains("serve.verb.shutdown"), "{text}");
    // New connections are refused or go unanswered after shutdown.
    assert!(
        TcpStream::connect_timeout(
            &"127.0.0.1:1".parse().expect("addr"),
            std::time::Duration::from_millis(10),
        )
        .is_err(),
        "sanity: connecting to a dead port errors"
    );
}

#[test]
fn batch_replies_preserve_request_order_and_library_bits() {
    // BATCH evaluates in Morton order of the query centres; the wire reply
    // must nevertheless come back in **request** order, with every value
    // bit-identical to the library. The query mix is scattered across the
    // extent (distinct answers) and reversed, so request order is far from
    // Morton order — any order leak would misalign the replies.
    let data = minskew_datagen::charminar_with(1_500, 79);
    let catalog = Arc::new(SpatialCatalog::new());
    let entry = catalog
        .create("roads", TableOptions::default())
        .expect("create");
    {
        let mut table = entry.table();
        for r in data.rects() {
            table.insert(*r);
        }
        table.analyze();
    }
    let handle = serve(catalog, ServeOptions::default()).expect("bind");
    let mut c = Client::connect(handle.addr());
    let mbr = data.stats().mbr;
    let (w, h) = (mbr.width(), mbr.height());
    let mut queries = Vec::new();
    for i in 0..16 {
        let f = i as f64 / 16.0;
        let x = mbr.lo.x + f * w * 0.5;
        let y = mbr.lo.y + (1.0 - f) * h * 0.5;
        let size = 0.1 + 0.05 * i as f64;
        queries.push(Rect::new(x, y, x + size * w, y + size * h));
    }
    queries.reverse();
    let expected: Vec<f64> = {
        let table = entry.table();
        queries.iter().map(|q| table.estimate(q)).collect()
    };
    let distinct: std::collections::HashSet<u64> = expected.iter().map(|v| v.to_bits()).collect();
    assert!(
        distinct.len() > 8,
        "query mix must produce distinct answers for the order check: {expected:?}"
    );
    let mut line = format!("BATCH roads {}", queries.len());
    for q in &queries {
        line.push_str(&format!(" {} {} {} {}", q.lo.x, q.lo.y, q.hi.x, q.hi.y));
    }
    let reply = c.send(&line);
    let values: Vec<f64> = reply
        .strip_prefix("OK ")
        .expect("batch reply")
        .split(' ')
        .map(|t| t.parse().expect("parse batch value"))
        .collect();
    assert_eq!(values.len(), expected.len(), "reply arity: {reply:?}");
    for (i, (got, want)) in values.iter().zip(&expected).enumerate() {
        assert_eq!(
            want.to_bits(),
            got.to_bits(),
            "batch reply {i} out of order or off by bits: reply {reply:?}"
        );
    }
    handle.shutdown();
}

#[test]
fn estimates_over_the_wire_are_bit_identical_to_the_library() {
    // The wire uses shortest-round-trip f64 formatting, so parsing the
    // reply must recover exactly the bits the engine computed.
    let data = minskew_datagen::charminar_with(1_500, 61);
    let catalog = Arc::new(SpatialCatalog::new());
    let entry = catalog
        .create("roads", TableOptions::default())
        .expect("create");
    {
        let mut table = entry.table();
        for r in data.rects() {
            table.insert(*r);
        }
        table.analyze();
    }
    let handle = serve(catalog, ServeOptions::default()).expect("bind");
    let mut c = Client::connect(handle.addr());
    let mbr = data.stats().mbr;
    let (w, h) = (mbr.width(), mbr.height());
    let table = entry.table();
    for i in 0..25 {
        let f = i as f64 / 25.0;
        let q = Rect::new(
            mbr.lo.x + f * w * 0.8,
            mbr.lo.y + (1.0 - f) * h * 0.8,
            mbr.lo.x + f * w * 0.8 + 0.1 * w,
            mbr.lo.y + (1.0 - f) * h * 0.8 + 0.1 * h,
        );
        let expected = table.estimate(&q);
        let reply = c.send(&format!(
            "ESTIMATE roads {} {} {} {}",
            q.lo.x, q.lo.y, q.hi.x, q.hi.y
        ));
        let value: f64 = reply
            .strip_prefix("OK ")
            .expect("estimate reply")
            .parse()
            .expect("parse estimate");
        assert_eq!(
            expected.to_bits(),
            value.to_bits(),
            "wire round trip changed the bits: query {i}, reply {reply:?}"
        );
    }
    drop(table);
    handle.shutdown();
}

/// Sends `lines` as one write and reads `replies` reply lines back.
fn burst(c: &mut Client, lines: &[&str], replies: usize) -> Vec<String> {
    let bytes: String = lines.iter().map(|l| format!("{l}\n")).collect();
    c.reader
        .get_mut()
        .write_all(bytes.as_bytes())
        .expect("write burst");
    (0..replies)
        .map(|_| {
            let mut reply = String::new();
            c.reader.read_line(&mut reply).expect("read burst reply");
            reply
        })
        .collect()
}

/// A server holding table `t` with four identical rects, analyzed, so
/// estimates are exact (`OK 4`).
fn start_server_with_table() -> ServerHandle {
    let handle = start_server();
    let mut c = Client::connect(handle.addr());
    assert_eq!(c.send("CREATE t"), "OK created t");
    for id in 0..4 {
        assert_eq!(c.send("INSERT t 0 0 10 10"), format!("OK {id}"));
    }
    assert!(c.send("ANALYZE t").starts_with("OK analyzed t"));
    handle
}

#[test]
fn pipelined_requests_get_the_replies_of_one_at_a_time() {
    let handle = start_server_with_table();
    let lines = [
        "PING",
        "ESTIMATE t 0 0 10 10",
        "BATCH t 2 0 0 10 10 20 20 30 30",
        "FROB",
        "TID=q7 ESTIMATE t 0 0 5 5",
        "EXPLAIN t 0 0 10 10",
        "TID=bad!token PING",
    ];
    let mut single = Client::connect(handle.addr());
    let expected: Vec<String> = lines
        .iter()
        .map(|line| format!("{}\n", single.send(line)))
        .collect();
    assert_eq!(expected[1], "OK 4\n");
    assert_eq!(expected[4], "TID=q7 OK 4\n");
    let mut piped = Client::connect(handle.addr());
    assert_eq!(burst(&mut piped, &lines, lines.len()), expected);
    handle.shutdown();
}

#[test]
fn pipelined_shutdown_answers_everything_before_it_then_closes() {
    let handle = start_server_with_table();
    let mut c = Client::connect(handle.addr());
    let replies = burst(
        &mut c,
        &["PING", "ESTIMATE t 0 0 10 10", "SHUTDOWN", "PING"],
        3,
    );
    assert_eq!(replies, ["OK pong\n", "OK 4\n", "OK bye\n"]);
    let mut rest = String::new();
    assert_eq!(
        c.reader.read_line(&mut rest).expect("read after bye"),
        0,
        "no reply after SHUTDOWN's, then EOF: {rest:?}"
    );
    handle.join();
}

#[test]
fn pipelined_replies_precede_the_overlong_line_error() {
    let handle = start_server();
    let mut c = Client::connect(handle.addr());
    // Exactly one byte more than the 1 MiB limit and no newline: the
    // server reads every byte before it answers and closes, so the close
    // is clean and no reply is lost to a reset.
    let mut bytes = b"PING\nTID=x PING\n".to_vec();
    bytes.resize(bytes.len() + (1 << 20) + 1, b'x');
    c.reader.get_mut().write_all(&bytes).expect("write");
    let mut replies = Vec::new();
    loop {
        let mut reply = String::new();
        if c.reader.read_line(&mut reply).expect("read reply") == 0 {
            break;
        }
        replies.push(reply);
    }
    assert_eq!(
        replies,
        [
            "OK pong\n",
            "TID=x OK pong\n",
            "ERR 2 usage: request line exceeds 1 MiB\n"
        ]
    );
    handle.shutdown();
}

#[test]
fn a_pipelined_burst_is_answered_in_fewer_writes_than_requests() {
    let handle = start_server_with_table();
    let writes = |handle: &ServerHandle| {
        let snap = handle.metrics();
        snap.counters
            .iter()
            .find(|(name, _)| name == "serve.writes")
            .map_or(0, |(_, n)| *n)
    };
    let mut c = Client::connect(handle.addr());
    assert_eq!(c.send("PING"), "OK pong");
    let before = writes(&handle);
    let lines = ["ESTIMATE t 0 0 10 10"; 32];
    let replies = burst(&mut c, &lines, lines.len());
    assert!(replies.iter().all(|r| r == "OK 4\n"), "{replies:?}");
    let after = writes(&handle);
    assert!(before > 0, "serve.writes counts single replies too");
    assert!(
        after - before < 32,
        "32 pipelined requests took {} writes",
        after - before
    );
    handle.shutdown();
}
