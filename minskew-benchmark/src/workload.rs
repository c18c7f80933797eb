//! The four workloads: their datasets, the seeded request stream each one
//! sends, and the reply a correct server must give to every request.
//!
//! Each workload exercises one layer and bypasses the others, so that a
//! change to one layer has a workload that should move and workloads that
//! should not:
//!
//! * `point-hot` — single `ESTIMATE`s drawn by Zipf(1.0) from 512 queries,
//!   a pool that fits the reader's 1024-entry query cache. The kernel is
//!   almost never run; the server front-end (read, parse, dispatch,
//!   format, write) does nearly all the work.
//! * `batch-cold` — `BATCH`es of 64 distinct queries over a road network.
//!   Every query misses the cache, and the estimate kernel does most of
//!   the work; one request carries 64 estimates, so the front-end barely
//!   matters.
//! * `churn-mixed` — distinct `ESTIMATE`s with a write after every seven,
//!   and a `MAINTAIN` every 65 536 requests. Every write republishes a
//!   snapshot (a histogram clone) and makes the next read rebuild the
//!   kernel plane, so read-side gains that add publish work show up here.
//! * `analyze-build` — `ANALYZE` of a road network: density grid, prefix
//!   sums and split search do all the work; wire and kernel do none.

use minskew_data::Dataset;
use minskew_datagen::{charminar_with, RoadNetworkSpec, Zipf};
use minskew_engine::{RowId, SpatialReader, SpatialTable};
use minskew_geom::{Point, Rect};
use minskew_workload::QueryWorkload;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The table every workload serves.
pub const TABLE: &str = "t";
/// Queries per `BATCH` request.
pub const BATCH: usize = 64;
/// The paper's QSize values (§5.2).
const QSIZES: [f64; 4] = [0.02, 0.05, 0.10, 0.25];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PointHot,
    BatchCold,
    ChurnMixed,
    AnalyzeBuild,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PointHot,
        Workload::BatchCold,
        Workload::ChurnMixed,
        Workload::AnalyzeBuild,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PointHot => "point-hot",
            Workload::BatchCold => "batch-cold",
            Workload::ChurnMixed => "churn-mixed",
            Workload::AnalyzeBuild => "analyze-build",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn road(self) -> bool {
        matches!(self, Workload::BatchCold | Workload::AnalyzeBuild)
    }

    /// Rows loaded into the table: Charminar's 40 000, or the NJ-road
    /// cardinality of 414 442. A quick run uses a tenth.
    pub fn rows(self, quick: bool) -> usize {
        let rows = if self.road() { 414_442 } else { 40_000 };
        if quick {
            rows / 10
        } else {
            rows
        }
    }

    /// The `ANALYZE` bucket budget.
    pub fn buckets(self) -> usize {
        match self {
            Workload::PointHot => 100,
            _ => 1000,
        }
    }

    /// Requests kept outstanding in the pipelined segments. Two `ANALYZE`s
    /// already hide the round trip; more would only queue.
    pub fn window(self) -> usize {
        match self {
            Workload::AnalyzeBuild => 2,
            _ => 32,
        }
    }
}

/// splitmix64 of `seed` and a per-purpose salt, so every input drawn from
/// one seed is independent of the others.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed of every workload's dataset.
const DATA_SEED: u64 = 1999;

/// The workload's dataset: Charminar, or the NJ-road-like network.
///
/// The data is part of the workload and stays the same from seed to seed,
/// like a table that stays while its traffic changes: the run's seed draws
/// every request. Road networks drawn from different seeds differ enough
/// that Min-Skew's error on them ranges over a factor of two, which would
/// drown any change a later commit makes.
pub fn dataset(w: Workload, quick: bool) -> Dataset {
    let rows = w.rows(quick);
    if w.road() {
        RoadNetworkSpec {
            segments: rows,
            ..RoadNetworkSpec::default()
        }
        .generate(DATA_SEED)
    } else {
        charminar_with(rows, DATA_SEED)
    }
}

/// `count` distinct queries, each with a QSize drawn from the paper's
/// values, in a seeded order.
pub fn mixed_queries(data: &Dataset, count: usize, seed: u64) -> Vec<Rect> {
    let per = count.div_ceil(QSIZES.len());
    let mut queries: Vec<Rect> = QSIZES
        .iter()
        .enumerate()
        .flat_map(|(i, &q)| {
            QueryWorkload::generate(data, q, per, mix(seed, 100 + i as u64))
                .queries()
                .to_vec()
        })
        .collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(mix(seed, 4));
    queries.shuffle(&mut rng);
    queries.truncate(count);
    queries
}

/// Queries checked against the in-process oracle after the timed phases;
/// their exact counts give the run's `avg_rel_error`. Like the data they
/// do not depend on the run's seed, so the accuracy of the statistics
/// reads the same in every run over the same table.
pub fn verify_queries(data: &Dataset, quick: bool) -> Vec<Rect> {
    mixed_queries(data, if quick { 256 } else { 2048 }, mix(DATA_SEED, 9))
}

fn push_rect(line: &mut Vec<u8>, r: &Rect) {
    use std::io::Write as _;
    let _ = write!(line, " {} {} {} {}", r.lo.x, r.lo.y, r.hi.x, r.hi.y);
}

pub fn estimate_line(q: &Rect) -> Vec<u8> {
    let mut line = format!("ESTIMATE {TABLE}").into_bytes();
    push_rect(&mut line, q);
    line.push(b'\n');
    line
}

pub fn insert_line(r: &Rect) -> Vec<u8> {
    let mut line = format!("INSERT {TABLE}").into_bytes();
    push_rect(&mut line, r);
    line.push(b'\n');
    line
}

pub fn batch_line(queries: &[Rect]) -> Vec<u8> {
    let mut line = format!("BATCH {TABLE} {}", queries.len()).into_bytes();
    for q in queries {
        push_rect(&mut line, q);
    }
    line.push(b'\n');
    line
}

/// The reply a correct server sends for estimates `values`: the shortest
/// round-trip form of each `f64`, so equal bytes mean equal bits.
pub fn estimates_reply(values: &[f64]) -> Vec<u8> {
    let mut reply = String::from("OK");
    for v in values {
        reply.push_str(&format!(" {v}"));
    }
    reply.push('\n');
    reply.into_bytes()
}

/// A sequence of requests, and the check every reply must pass.
pub trait Stream {
    /// The line (with its newline) of request number `k`.
    fn request(&mut self, k: u64) -> &[u8];
    /// Checks the reply to request `k`; a stream that can only judge a
    /// reply after a replay keeps it for later.
    fn check(&mut self, k: u64, reply: &[u8]) -> Result<(), String>;
}

/// A stream over a fixed pool of requests whose correct replies are known
/// before the run starts.
pub struct PoolStream {
    lines: Vec<Vec<u8>>,
    expected: Vec<Vec<u8>>,
    /// `true` when only the reply's prefix is fixed (an `ANALYZE`
    /// acknowledgement; its effect is checked through later estimates).
    prefix_only: bool,
    /// Pool index of request `k` is `order[k % order.len()]`.
    order: Vec<u32>,
}

impl PoolStream {
    pub fn pool_index(&self, k: u64) -> usize {
        self.order[(k % self.order.len() as u64) as usize] as usize
    }

    #[cfg(test)]
    pub fn expected_mut(&mut self) -> &mut [Vec<u8>] {
        &mut self.expected
    }
}

impl Stream for PoolStream {
    fn request(&mut self, k: u64) -> &[u8] {
        let i = self.pool_index(k);
        &self.lines[i]
    }

    fn check(&mut self, k: u64, reply: &[u8]) -> Result<(), String> {
        let want = &self.expected[self.pool_index(k)];
        let ok = if self.prefix_only {
            reply.starts_with(want)
        } else {
            reply == &want[..]
        };
        if ok {
            Ok(())
        } else {
            Err(format!(
                "request {k}: got {:?}, want {:?}",
                String::from_utf8_lossy(reply).trim_end(),
                String::from_utf8_lossy(want).trim_end()
            ))
        }
    }
}

/// `point-hot`: 512 queries at QSize 5 %, requested in Zipf(1.0) order.
pub fn point_hot(data: &Dataset, oracle: &mut SpatialReader, seed: u64) -> (PoolStream, Vec<Rect>) {
    let pool = QueryWorkload::generate(data, 0.05, 512, mix(seed, 2))
        .queries()
        .to_vec();
    let zipf = Zipf::new(pool.len(), 1.0);
    let mut rng = rand::rngs::StdRng::seed_from_u64(mix(seed, 3));
    let order: Vec<u32> = (0..1 << 20)
        .map(|_| (zipf.sample(&mut rng) - 1) as u32)
        .collect();
    let expected = pool
        .iter()
        .map(|q| estimates_reply(&[oracle.estimate(q)]))
        .collect();
    let probe: Vec<Rect> = order[..order.len().min(1 << 15)]
        .iter()
        .map(|&i| pool[i as usize])
        .collect();
    let stream = PoolStream {
        lines: pool.iter().map(estimate_line).collect(),
        expected,
        prefix_only: false,
        order,
    };
    (stream, probe)
}

/// `batch-cold`: batches of 64 distinct queries. The pool repeats only
/// after 524 288 queries, far beyond the 1024-entry cache.
pub fn batch_cold(
    data: &Dataset,
    oracle: &mut SpatialReader,
    seed: u64,
    quick: bool,
) -> (PoolStream, Vec<Rect>) {
    let batches = if quick { 512 } else { 8192 };
    let queries = mixed_queries(data, batches * BATCH, mix(seed, 2));
    let mut lines = Vec::with_capacity(batches);
    let mut expected = Vec::with_capacity(batches);
    for chunk in queries.chunks(BATCH) {
        lines.push(batch_line(chunk));
        let values: Vec<f64> = chunk.iter().map(|q| oracle.estimate(q)).collect();
        expected.push(estimates_reply(&values));
    }
    let stream = PoolStream {
        lines,
        expected,
        prefix_only: false,
        order: (0..batches as u32).collect(),
    };
    let probe = queries[..queries.len().min(1 << 15)].to_vec();
    (stream, probe)
}

/// `analyze-build`: nothing but `ANALYZE`.
pub fn analyze_build() -> PoolStream {
    PoolStream {
        lines: vec![format!("ANALYZE {TABLE}\n").into_bytes()],
        expected: vec![format!("OK analyzed {TABLE} ").into_bytes()],
        prefix_only: true,
        order: vec![0],
    }
}

/// Live rows the churn writer keeps once its first inserts are in.
const CHURN_LIVE: u64 = 5000;
/// Every `MAINTAIN_EVERY`-th request is `MAINTAIN`.
const MAINTAIN_EVERY: u64 = 65_536;
/// Distinct read queries before the read pool repeats.
const CHURN_READS: usize = 65_536;

/// One request of `churn-mixed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnOp {
    /// `ESTIMATE` of read query `i`.
    Estimate(usize),
    /// `INSERT` of the `i`-th rectangle the writer adds.
    Insert(u64),
    /// `DELETE` of the row the writer's `i`-th insert created.
    Delete(u64),
    Maintain,
}

/// Request `k` of `churn-mixed`: every eighth request writes (inserts until
/// 5000 written rows are live, then alternately deletes the oldest of them
/// and inserts), and every 65 536th runs `MAINTAIN` instead.
pub fn churn_op(k: u64) -> ChurnOp {
    if k % MAINTAIN_EVERY == MAINTAIN_EVERY - 1 {
        return ChurnOp::Maintain;
    }
    if k % 8 != 7 {
        return ChurnOp::Estimate((k % CHURN_READS as u64) as usize);
    }
    let w = k / 8 - k / MAINTAIN_EVERY;
    if w < CHURN_LIVE {
        return ChurnOp::Insert(w);
    }
    let r = w - CHURN_LIVE;
    if r.is_multiple_of(2) {
        ChurnOp::Delete(r / 2)
    } else {
        ChurnOp::Insert(CHURN_LIVE + r / 2)
    }
}

/// The `i`-th inserted rectangle: a 100×100 square at a hotspot orbiting
/// the middle of the Charminar space, so inserts land where the
/// statistics put few rows and make them drift.
pub fn churn_rect(seed: u64, i: u64) -> Rect {
    let mut rng = rand::rngs::StdRng::seed_from_u64(mix(seed, 1000 + i));
    let angle = i as f64 * 0.002;
    let x = 5000.0 + 3000.0 * angle.cos() + rng.gen_range(-200.0..200.0);
    let y = 5000.0 + 3000.0 * angle.sin() + rng.gen_range(-200.0..200.0);
    Rect::from_center_size(Point::new(x, y), 100.0, 100.0)
}

/// `churn-mixed`. Replies depend on every write before them, so they are
/// kept and judged by [`ChurnStream::replay`] once the run is over.
pub struct ChurnStream {
    seed: u64,
    /// Row id of the writer's first insert (the loaded rows take the ids
    /// before it).
    first_id: u64,
    reads: Vec<Rect>,
    read_lines: Vec<Vec<u8>>,
    line: Vec<u8>,
    replies: Vec<u8>,
    /// `(k, end offset in replies)` per reply received.
    ends: Vec<(u64, usize)>,
}

impl ChurnStream {
    pub fn new(data: &Dataset, seed: u64, quick: bool) -> ChurnStream {
        let reads = mixed_queries(data, if quick { 4096 } else { CHURN_READS }, mix(seed, 2));
        ChurnStream {
            seed,
            first_id: data.len() as u64,
            read_lines: reads.iter().map(estimate_line).collect(),
            reads,
            line: Vec::new(),
            replies: Vec::new(),
            ends: Vec::new(),
        }
    }

    pub fn reads(&self) -> &[Rect] {
        &self.reads
    }

    /// Applies every request the server answered, in order, to `table`
    /// (which must start as the server did) and compares each reply with
    /// what the table gives. Reads go through a lock-free reader, as the
    /// server's do, so `MAINTAIN` sees the same state on both sides.
    /// Returns the number of mismatches and the first one.
    pub fn replay(&self, table: &mut SpatialTable) -> (u64, Option<String>) {
        let mut reader = table.reader();
        let mut failed = 0;
        let mut first = None;
        let mut start = 0;
        for &(k, end) in &self.ends {
            let reply = &self.replies[start..end];
            start = end;
            let (want, prefix_only) = match churn_op(k) {
                ChurnOp::Estimate(i) => (
                    estimates_reply(&[reader.estimate(&self.reads[i % self.reads.len()])]),
                    false,
                ),
                ChurnOp::Insert(i) => {
                    let id = table.insert(churn_rect(self.seed, i)).raw();
                    (format!("OK {id}\n").into_bytes(), false)
                }
                ChurnOp::Delete(i) => {
                    let id = self.first_id + i;
                    let want = if table.delete(RowId::from_raw(id)) {
                        format!("OK deleted {id}\n")
                    } else {
                        format!("(replay could not delete row {id})")
                    };
                    (want.into_bytes(), false)
                }
                ChurnOp::Maintain => {
                    table.maintain();
                    (b"OK ".to_vec(), true)
                }
            };
            let ok = if prefix_only {
                reply.starts_with(&want)
            } else {
                reply == &want[..]
            };
            if !ok {
                failed += 1;
                first.get_or_insert_with(|| {
                    format!(
                        "request {k} ({:?}): got {:?}, want {:?}",
                        churn_op(k),
                        String::from_utf8_lossy(reply).trim_end(),
                        String::from_utf8_lossy(&want).trim_end()
                    )
                });
            }
        }
        (failed, first)
    }
}

impl Stream for ChurnStream {
    fn request(&mut self, k: u64) -> &[u8] {
        self.line = match churn_op(k) {
            ChurnOp::Estimate(i) => return &self.read_lines[i % self.read_lines.len()],
            ChurnOp::Insert(i) => insert_line(&churn_rect(self.seed, i)),
            ChurnOp::Delete(i) => format!("DELETE {TABLE} {}\n", self.first_id + i).into_bytes(),
            ChurnOp::Maintain => format!("MAINTAIN {TABLE}\n").into_bytes(),
        };
        &self.line
    }

    fn check(&mut self, k: u64, reply: &[u8]) -> Result<(), String> {
        self.replies.extend_from_slice(reply);
        self.ends.push((k, self.replies.len()));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minskew_engine::TableOptions;

    /// The CSV bytes and the first requests of every workload's stream.
    fn inputs(w: Workload, seed: u64) -> (Vec<u8>, Vec<u8>) {
        let data = dataset(w, true);
        let path = std::env::temp_dir().join(format!(
            "minskew-benchmark-{}-{}-{seed}.csv",
            std::process::id(),
            w.name()
        ));
        minskew_data::write_rects_csv(&data, &path).expect("write CSV");
        let csv = std::fs::read(&path).expect("read CSV");
        let _ = std::fs::remove_file(&path);
        let mut options = TableOptions::default();
        options.analyze.buckets = w.buckets();
        let mut table = SpatialTable::new(options);
        for r in data.rects() {
            table.insert(*r);
        }
        table.analyze();
        let mut reader = table.reader();
        let mut stream: Box<dyn Stream> = match w {
            Workload::PointHot => Box::new(point_hot(&data, &mut reader, seed).0),
            Workload::BatchCold => Box::new(batch_cold(&data, &mut reader, seed, true).0),
            Workload::ChurnMixed => Box::new(ChurnStream::new(&data, seed, true)),
            Workload::AnalyzeBuild => Box::new(analyze_build()),
        };
        let mut requests = Vec::new();
        for k in (0..2000).chain(MAINTAIN_EVERY - 8..MAINTAIN_EVERY + 8) {
            requests.extend_from_slice(stream.request(k));
        }
        for q in verify_queries(&data, true) {
            requests.extend_from_slice(&estimate_line(&q));
        }
        (csv, requests)
    }

    #[test]
    fn the_same_seed_gives_byte_identical_inputs() {
        for w in Workload::ALL {
            let (csv, requests) = inputs(w, 11);
            assert!(!csv.is_empty() && !requests.is_empty());
            assert!(
                inputs(w, 11) == (csv.clone(), requests.clone()),
                "{}",
                w.name()
            );
            // Another seed draws other requests over the same table;
            // `analyze-build` draws nothing.
            let (other_csv, other_requests) = inputs(w, 12);
            assert_eq!(csv, other_csv, "{}", w.name());
            if w != Workload::AnalyzeBuild {
                assert_ne!(requests, other_requests, "{}", w.name());
            }
        }
    }

    #[test]
    fn churn_schedule_writes_every_eighth_request_and_keeps_deletes_valid() {
        let mut inserted = 0u64;
        let mut deleted = 0u64;
        let mut maintains = 0;
        for k in 0..3 * MAINTAIN_EVERY {
            match churn_op(k) {
                ChurnOp::Estimate(_) => assert_ne!(k % 8, 7),
                ChurnOp::Insert(i) => {
                    assert_eq!(i, inserted, "inserts are numbered in order");
                    inserted += 1;
                }
                ChurnOp::Delete(i) => {
                    assert_eq!(i, deleted, "deletes take the oldest insert");
                    assert!(i < inserted, "a delete targets a row already inserted");
                    deleted += 1;
                }
                ChurnOp::Maintain => maintains += 1,
            }
            if inserted >= CHURN_LIVE {
                assert!(inserted - deleted >= CHURN_LIVE - 1);
            }
        }
        assert_eq!(maintains, 3);
        assert_eq!(inserted + deleted + maintains, 3 * MAINTAIN_EVERY / 8);
    }
}
