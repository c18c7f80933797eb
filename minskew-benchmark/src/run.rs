//! `run`: one workload, end to end — generate the inputs from the seed,
//! start the real server on them, drive it, and check every reply against
//! an in-process table built from the same CSV and options.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use minskew_data::{read_rects_csv, write_rects_csv, Dataset};
use minskew_engine::{CatalogEntry, SpatialCatalog, TableOptions};
use minskew_geom::Rect;
use minskew_workload::GroundTruth;

use crate::json;
use crate::stats::{median, percentile, sorted_us};
use crate::trace::{span_if, Tracer};
use crate::wire::{closed_loop, pipelined, Client, Echo, ServerProcess, Tally};
use crate::workload::{self, ChurnStream, PoolStream, Stream, Workload, BATCH, TABLE};

/// Server starts measured for `setup_s`: the one that serves the run, and
/// the rest spread evenly over the timed phase, so that one slow stretch of
/// the host does not set them all.
const SETUPS: usize = 5;
/// Length of the timed phase of a full run, in seconds (`BENCHMARK.json`'s
/// `run_seconds`).
pub const SECONDS: f64 = 15.0;
/// Length of the timed phase of a `--quick` smoke run.
const QUICK_SECONDS: f64 = 1.0;
/// One closed-loop segment; each is followed by a pipelined one half as
/// long.
const SEGMENT: Duration = Duration::from_millis(100);
/// Echo round trips after each pair of segments (a few milliseconds).
const ECHO_BURST: u64 = 200;
/// Echo round trips on either side of each server start.
const SETUP_ECHO: u64 = 1000;
/// CPU time of one echo round trip, client and echo thread on one core, on
/// the host the benchmark was written on (a 2-vCPU Xeon guest at 2.1 GHz)
/// when its neighbours are quiet.
///
/// Other tenants of a shared host slow every instruction of a small guest,
/// CPU time included, by up to a third for minutes at a time. The echo
/// slows with them, so each gated CPU time is scaled by this over the cost
/// of echoes timed beside it (over the whole run for the request metrics,
/// on either side of each start for `setup_s`): it then reads in that
/// host's quiet time, and its run-to-run spread roughly halves.
const REFERENCE_ECHO_NS: f64 = 10_000.0;

pub struct RunArgs {
    pub seed: u64,
    pub trace: bool,
    pub quick: bool,
}

/// A named measurement.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

pub struct Outcome {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    /// Sample sizes and per-segment values behind the metrics, as JSON
    /// text, for the result file.
    pub samples: Vec<(&'static str, String)>,
    pub tracer: Option<Tracer>,
}

/// The in-process oracle: a catalog table loaded exactly as `minskew
/// serve --input` loads its table.
pub struct Oracle {
    pub catalog: Arc<SpatialCatalog>,
    pub entry: Arc<CatalogEntry>,
}

impl Oracle {
    pub fn load(
        data: &Dataset,
        buckets: usize,
        mut tracer: Option<&mut Tracer>,
    ) -> Result<Oracle, String> {
        let mut options = TableOptions::default();
        options.analyze.buckets = buckets;
        let catalog = Arc::new(SpatialCatalog::new());
        let entry = catalog
            .create(TABLE, options)
            .map_err(|e| format!("creating the oracle table: {e}"))?;
        {
            let mut table = entry.table();
            span_if(tracer.as_deref_mut(), "table.bulk_load", || {
                for r in data.rects() {
                    table.insert(*r);
                }
            });
            span_if(tracer, "table.analyze", || table.analyze());
        }
        Ok(Oracle { catalog, entry })
    }

    pub fn batch_replies(&self, queries: &[Rect]) -> Vec<Vec<u8>> {
        let mut reader = self.entry.reader();
        queries
            .chunks(BATCH)
            .map(|chunk| {
                let values: Vec<f64> = chunk.iter().map(|q| reader.estimate(q)).collect();
                workload::estimates_reply(&values)
            })
            .collect()
    }
}

enum Streams {
    Pool(PoolStream),
    Churn(ChurnStream),
}

impl Streams {
    fn as_dyn(&mut self) -> &mut dyn Stream {
        match self {
            Streams::Pool(s) => s,
            Streams::Churn(s) => s,
        }
    }
}

/// Runs workload `w` against the server binary `bin`, keeping its files in
/// `work`.
pub fn run_workload(
    w: Workload,
    args: &RunArgs,
    bin: &Path,
    work: &Path,
) -> Result<Outcome, String> {
    let mut tracer = args.trace.then(Tracer::new);
    let data = workload::dataset(w, args.quick);
    let csv = work.join(format!("{}.csv", w.name()));
    write_rects_csv(&data, &csv).map_err(|e| format!("writing {}: {e}", csv.display()))?;
    let loaded = span_if(tracer.as_mut(), "data.csv_read", || read_rects_csv(&csv))
        .map_err(|e| format!("reading {}: {e}", csv.display()))?;
    let oracle = Oracle::load(&loaded, w.buckets(), tracer.as_mut())?;

    let mut reader = oracle.entry.reader();
    let (mut stream, probe) = match w {
        Workload::PointHot => {
            let (s, probe) = workload::point_hot(&data, &mut reader, args.seed);
            (Streams::Pool(s), probe)
        }
        Workload::BatchCold => {
            let (s, probe) = workload::batch_cold(&data, &mut reader, args.seed, args.quick);
            (Streams::Pool(s), probe)
        }
        Workload::ChurnMixed => {
            let s = ChurnStream::new(&data, args.seed, args.quick);
            let probe = s.reads().to_vec();
            (Streams::Churn(s), probe)
        }
        Workload::AnalyzeBuild => (
            Streams::Pool(workload::analyze_build()),
            workload::verify_queries(&data, args.quick),
        ),
    };
    let verify = workload::verify_queries(&data, args.quick);

    let setups = if args.quick || args.trace { 1 } else { SETUPS };
    let io = |e: std::io::Error| format!("talking to the server: {e}");
    let mut echo = Echo::start().map_err(io)?;
    // One server start: the server, its wall-clock set-up time, its set-up
    // CPU time, and the CPU nanoseconds of an echo round trip around it.
    let spawn = |i: usize, echo: &mut Echo| -> Result<(ServerProcess, [f64; 3]), String> {
        let before = echo.cpu_ns(SETUP_ECHO)?;
        let port_file = work.join(format!("port-{i}"));
        let (server, secs) = ServerProcess::spawn(bin, &csv, w.buckets(), &port_file)?;
        let cpu = server.cpu_s()?;
        let after = echo.cpu_ns(SETUP_ECHO)?;
        let echo_ns = (before + after) as f64 / (2 * SETUP_ECHO) as f64;
        Ok((server, [secs, cpu, echo_ns]))
    };
    let (server, first) = spawn(0, &mut echo)?;
    let mut starts = vec![first];

    let mut tally = Tally::default();
    let mut client = Client::connect(server.addr).map_err(|e| format!("connecting: {e}"))?;
    let seconds = if args.quick { QUICK_SECONDS } else { SECONDS };
    let secs = |share: f64| Duration::from_secs_f64(seconds * share);
    let mut next = 0;
    let mut latencies = Vec::new();
    // Warm-up: fills the reader's cache and wakes the connection thread.
    closed_loop(
        &mut client,
        stream.as_dyn(),
        &mut next,
        secs(0.05),
        &mut latencies,
        None,
        &mut tally,
    )
    .map_err(io)?;
    let mut samples = Vec::new();
    let mut metrics = Vec::new();
    if let Some(t) = tracer.as_mut() {
        // Alternate client spans off and on; the headline rate's drop with
        // spans on is the tracing overhead.
        let mut rate = [Vec::new(), Vec::new()];
        let deadline = Instant::now() + secs(0.3);
        let mut i = 0;
        while i < 2 || i % 2 == 1 || Instant::now() < deadline {
            let on = i % 2 == 1;
            i += 1;
            let tracer = on.then_some(&mut *t);
            let (n, s) = closed_loop(
                &mut client,
                stream.as_dyn(),
                &mut next,
                SEGMENT,
                &mut latencies,
                tracer,
                &mut tally,
            )
            .map_err(io)?;
            rate[usize::from(on)].push(n as f64 / s);
        }
        let (off, on) = (median(&rate[0]), median(&rate[1]));
        metrics.push(metric("trace.overhead_pct", "%", 100.0 * (off - on) / off));
    } else {
        // Closed and pipelined segments alternate until the time is up,
        // each pair followed by a burst of echo round trips that gauges the
        // host's speed; the extra server starts pause the clock.
        let measure = secs(0.95);
        let mut deadline = Instant::now() + measure;
        let (mut closed_s, mut piped_s, mut piped_n) = (0.0, 0.0, 0);
        let (mut closed_cpu, mut piped_cpu) = (0.0, 0.0);
        let (mut echo_ns, mut echoes) = (0, 0);
        latencies.clear();
        while echoes == 0 || Instant::now() < deadline {
            let measured = measure - deadline.saturating_duration_since(Instant::now());
            let due = measure.mul_f64(starts.len() as f64 / setups as f64);
            if starts.len() < setups && measured >= due {
                let paused = Instant::now();
                let (extra, start) = spawn(starts.len(), &mut echo)?;
                starts.push(start);
                extra.shutdown()?;
                deadline += paused.elapsed();
            }
            let c0 = server.cpu_s()?;
            let (_, s) = closed_loop(
                &mut client,
                stream.as_dyn(),
                &mut next,
                SEGMENT,
                &mut latencies,
                None,
                &mut tally,
            )
            .map_err(io)?;
            closed_s += s;
            let c1 = server.cpu_s()?;
            let (n, s) = pipelined(
                &mut client,
                stream.as_dyn(),
                &mut next,
                SEGMENT / 2,
                w.window(),
                &mut tally,
            )
            .map_err(io)?;
            piped_n += n;
            piped_s += s;
            let c2 = server.cpu_s()?;
            closed_cpu += c1 - c0;
            piped_cpu += c2 - c1;
            echo_ns += echo.cpu_ns(ECHO_BURST)?;
            echoes += ECHO_BURST;
        }
        let host_scale = REFERENCE_ECHO_NS * echoes as f64 / echo_ns.max(1) as f64;
        // Every request of the timed phase counts, so a rare stall (a
        // `MAINTAIN`, a slow publish) adds its CPU time to the cost.
        let closed_n = latencies.len() as f64;
        let per_request = |cpu_s: f64, n: f64| cpu_s * 1e6 / n.max(1.0);
        metrics.push(metric(
            "server_cpu_us_per_request",
            "us",
            per_request(closed_cpu, closed_n) * host_scale,
        ));
        metrics.push(metric(
            "server_cpu_us_per_pipelined_request",
            "us",
            per_request(piped_cpu, piped_n as f64) * host_scale,
        ));
        // Recorded, never gated: what the client saw, in wall-clock time,
        // and the CPU costs before scaling.
        let all = sorted_us(&latencies);
        let wall = [
            ("requests_per_s", closed_n / closed_s),
            ("request_p50_us", percentile(&all, 0.5)),
            ("request_p99_us", percentile(&all, 0.99)),
            ("pipelined_requests_per_s", piped_n as f64 / piped_s),
            ("echo_cpu_us", echo_ns as f64 / 1e3 / echoes as f64),
            (
                "unscaled_server_cpu_us_per_request",
                per_request(closed_cpu, closed_n),
            ),
            (
                "unscaled_server_cpu_us_per_pipelined_request",
                per_request(piped_cpu, piped_n as f64),
            ),
        ];
        samples.extend(wall.map(|(k, v)| (k, json::number(v))));
        samples.push(("closed_requests", all.len().to_string()));
        samples.push(("pipelined_requests", piped_n.to_string()));
        samples.push(("echo_round_trips", echoes.to_string()));
    }
    drop(echo);

    // Quiesce, then read back estimates for the verification queries.
    if let Streams::Churn(_) = stream {
        let reply = client
            .call(format!("ANALYZE {TABLE}\n").as_bytes())
            .map_err(io)?;
        tally.note(if reply.starts_with(b"OK ") {
            Ok(())
        } else {
            Err(format!(
                "final ANALYZE replied {:?}",
                String::from_utf8_lossy(&reply)
            ))
        });
    }
    let mut verify_replies = Vec::new();
    for chunk in verify.chunks(BATCH) {
        verify_replies.push(client.call(&workload::batch_line(chunk)).map_err(io)?);
    }
    let rss = server.peak_rss_mb()?;
    drop(client);
    server.shutdown()?;

    // The oracle's view, after replaying the writes the server took.
    let live: Dataset = match &stream {
        Streams::Churn(churn) => {
            let mut table = oracle.entry.table();
            // Each replayed request was counted as attempted when its reply
            // arrived; only the verdict was pending.
            let (failed, first) = churn.replay(&mut table);
            tally.failed += failed;
            if let Some(why) = first {
                tally.first_failure.get_or_insert(why);
            }
            table.analyze();
            let upper = (data.len() + next as usize) as u64;
            let rows: Vec<Rect> = (0..upper)
                .filter_map(|id| table.get(minskew_engine::RowId::from_raw(id)))
                .collect();
            Dataset::new(rows)
        }
        Streams::Pool(_) => data,
    };
    let expected = oracle.batch_replies(&verify);
    for (i, (got, want)) in verify_replies.iter().zip(&expected).enumerate() {
        tally.note(if got == want {
            Ok(())
        } else {
            Err(format!(
                "verification batch {i}: reply differs from the oracle"
            ))
        });
    }
    samples.push(("verify_queries", verify.len().to_string()));
    let column = |i: usize| starts.iter().map(|s| s[i]).collect::<Vec<f64>>();
    samples.push(("setup_wall_s", json::array(&column(0))));
    samples.push(("setup_cpu_s", json::array(&column(1))));
    samples.push(("setup_echo_cpu_ns", json::array(&column(2))));

    if args.trace {
        let t = tracer.as_mut().expect("traced run");
        metrics.extend(crate::layers::probe(t, &oracle, &live, &probe, w, args)?);
    } else {
        // The served estimates matched the oracle's bit for bit (or the run
        // has failed), so the oracle's stand for them here.
        let truth = GroundTruth::index(&live);
        let mut reader = oracle.entry.reader();
        let (mut num, mut den) = (0.0, 0.0);
        for q in &verify {
            let exact = truth.count(q) as f64;
            num += (exact - reader.estimate(q)).abs();
            den += exact;
        }
        let setup: Vec<f64> = starts
            .iter()
            .map(|[_, cpu, echo_ns]| cpu * REFERENCE_ECHO_NS / echo_ns.max(1.0))
            .collect();
        metrics.insert(0, metric("setup_s", "s", median(&setup)));
        metrics.push(metric("avg_rel_error", "ratio", num / den.max(1.0)));
        metrics.push(metric("peak_rss_mb", "MB", rss));
    }
    Ok(Outcome {
        tally,
        metrics,
        samples,
        tracer,
    })
}
