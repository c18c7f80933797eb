//! Load generator for the TCP serving front-end: end-to-end requests/sec
//! through a real socket, for single-query (`ESTIMATE`) and batched
//! (`BATCH`) traffic, at client concurrency 1 and 4 — with the bit-identity contract re-checked inline: every reply
//! is parsed and compared against the engine's own estimate, so a
//! throughput number that changes an answer fails the run instead of
//! reporting a win.
//!
//! Writes machine-readable results to `BENCH_serve.json` at the workspace
//! root. `host_cpus` is recorded honestly — on a 1-CPU container the
//! concurrency rows measure protocol/scheduling overhead, not parallel
//! speedup; the interesting comparison there is ESTIMATE vs BATCH (syscall
//! amortisation).
//!
//! `MINSKEW_QUICK=1` shrinks the workload for a smoke run.

use minskew_bench::{charminar_scaled, Scale};
use minskew_engine::{serve, ServeOptions, SpatialCatalog, TableOptions};
use minskew_geom::Rect;
use minskew_workload::QueryWorkload;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

const BATCH_SIZE: usize = 64;

#[derive(Clone, Copy)]
enum Mode {
    Estimate,
    Batch,
}

impl Mode {
    fn label(self) -> &'static str {
        match self {
            Mode::Estimate => "ESTIMATE",
            Mode::Batch => "BATCH",
        }
    }
}

struct Row {
    mode: &'static str,
    clients: usize,
    queries: usize,
    qps: f64,
}

/// One client thread: drives `rounds` passes over the pool through a
/// persistent connection, checking every reply against the expected bits.
fn drive_client(
    addr: std::net::SocketAddr,
    pool: &[Rect],
    expected: &[u64],
    rounds: usize,
    mode: Mode,
) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    let read_reply = |reader: &mut BufReader<TcpStream>, reply: &mut String| {
        reply.clear();
        reader.read_line(reply).expect("read reply");
    };
    match mode {
        Mode::Estimate => {
            for _ in 0..rounds {
                for (i, q) in pool.iter().enumerate() {
                    let request = format!(
                        "ESTIMATE roads {} {} {} {}\n",
                        q.lo.x, q.lo.y, q.hi.x, q.hi.y
                    );
                    reader
                        .get_mut()
                        .write_all(request.as_bytes())
                        .expect("write");
                    read_reply(&mut reader, &mut reply);
                    let got: f64 = reply
                        .trim_end()
                        .strip_prefix("OK ")
                        .unwrap_or_else(|| panic!("bad reply {reply:?}"))
                        .parse()
                        .expect("parse estimate");
                    assert_eq!(
                        got.to_bits(),
                        expected[i],
                        "wire estimate diverged from the engine (query {i})"
                    );
                }
            }
        }
        Mode::Batch => {
            for _ in 0..rounds {
                for (chunk_at, chunk) in pool.chunks(BATCH_SIZE).enumerate() {
                    let mut request = format!("BATCH roads {}", chunk.len());
                    for q in chunk {
                        request.push_str(&format!(" {} {} {} {}", q.lo.x, q.lo.y, q.hi.x, q.hi.y));
                    }
                    request.push('\n');
                    reader
                        .get_mut()
                        .write_all(request.as_bytes())
                        .expect("write");
                    read_reply(&mut reader, &mut reply);
                    let payload = reply
                        .trim_end()
                        .strip_prefix("OK ")
                        .unwrap_or_else(|| panic!("bad reply {reply:?}"));
                    for (j, token) in payload.split(' ').enumerate() {
                        let got: f64 = token.parse().expect("parse batch value");
                        assert_eq!(
                            got.to_bits(),
                            expected[chunk_at * BATCH_SIZE + j],
                            "batched wire estimate diverged (chunk {chunk_at}, item {j})"
                        );
                    }
                }
            }
        }
    }
}

fn run_config(
    data: &minskew_data::Dataset,
    pool: &[Rect],
    clients: usize,
    rounds: usize,
    mode: Mode,
) -> Row {
    let catalog = Arc::new(SpatialCatalog::new());
    let entry = catalog
        .create("roads", TableOptions::default())
        .expect("create table");
    {
        let mut table = entry.table();
        for r in data.rects() {
            table.insert(*r);
        }
        table.analyze();
    }
    let expected: Vec<u64> = {
        let table = entry.table();
        pool.iter().map(|q| table.estimate(q).to_bits()).collect()
    };
    let handle = serve(catalog, ServeOptions::default()).expect("bind server");
    let addr = handle.addr();

    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| drive_client(addr, pool, &expected, rounds, mode));
        }
    });
    let secs = start.elapsed().as_secs_f64();
    handle.shutdown();

    let queries = clients * rounds * pool.len();
    Row {
        mode: mode.label(),
        clients,
        queries,
        qps: queries as f64 / secs,
    }
}

fn main() {
    let scale = Scale::from_env();
    let quick = scale.data_divisor != 1;
    let host_cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
    eprintln!("[serve] host_cpus = {host_cpus}, quick = {quick}");

    let data = charminar_scaled(scale);
    let pool_size = scale.queries.clamp(BATCH_SIZE, 512);
    let workload = QueryWorkload::generate(&data, 0.05, pool_size, 0x10AD);
    let pool: Vec<Rect> = workload.queries().to_vec();
    let rounds = if quick { 1 } else { 8 };

    let mut rows = Vec::new();
    for mode in [Mode::Estimate, Mode::Batch] {
        for clients in [1usize, 4] {
            let row = run_config(&data, &pool, clients, rounds, mode);
            eprintln!(
                "[serve] {} clients={}: {:.0} q/s ({} queries)",
                row.mode, row.clients, row.qps, row.queries
            );
            rows.push(row);
        }
    }

    println!("\n## TCP serving throughput (end-to-end queries/sec)\n");
    println!("| mode | clients | queries | qps |");
    println!("|------|---------|---------|-----|");
    for r in &rows {
        println!(
            "| {} | {} | {} | {:.0} |",
            r.mode, r.clients, r.queries, r.qps
        );
    }

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    json.push_str(&format!("  \"rects\": {},\n", data.len()));
    json.push_str(&format!("  \"query_pool\": {},\n", pool.len()));
    json.push_str(&format!("  \"batch_size\": {BATCH_SIZE},\n"));
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str(
        "  \"note\": \"end-to-end TCP loopback traffic with inline bitwise \
         verification of every reply against the engine; on a 1-CPU host \
         the clients=4 rows measure scheduling overhead, not parallelism; \
         BATCH amortises syscalls over 64 queries per request\",\n",
    );
    json.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"mode\": \"{}\", \"clients\": {}, \"queries\": {}, \
             \"qps\": {:.1}}}{}\n",
            r.mode,
            r.clients,
            r.queries,
            r.qps,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");

    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_serve.json");
    std::fs::write(&out, json).expect("write BENCH_serve.json");
    eprintln!("[serve] wrote {}", out.display());
}
