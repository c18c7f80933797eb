//! Deterministic fault injection for robustness testing.
//!
//! The estimator stack promises to *degrade, never panic* on hostile input:
//! the codec is total over arbitrary bytes, the CSV reader maps every
//! malformed stream to an error, and the engine's statistics ladder falls
//! back rather than crashing. This module provides the machinery that
//! proves it:
//!
//! * [`FaultKind`] — the failure taxonomy: truncation, bit flips,
//!   non-finite rows, inverted-corner rows, early EOF.
//! * [`FaultInjector`] — seeded, deterministic corruption of byte buffers
//!   and CSV text; the same `(seed, kind)` pair always yields the same
//!   corruption, so failing cases replay exactly.
//! * [`ChaosReader`] — an [`io::Read`] wrapper that corrupts a stream
//!   in flight, for driving [`crate::read_rects_csv_from`].
//! * [`FaultSource`] — a [`RectSource`] wrapper that injects corrupt
//!   rectangles into sweeps, for driving histogram construction.
//!
//! Everything here is deliberately in the library (not `#[cfg(test)]`): the
//! engine crate's degradation tests and any downstream user's soak harness
//! reuse the same injector.

use std::io::{self, Read};

use minskew_geom::{Point, Rect};

use crate::{DatasetStats, RectSource};

/// The kinds of fault the injector can produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Cut the payload short at a pseudo-random position.
    Truncate,
    /// Flip a handful of pseudo-randomly chosen bits.
    BitFlip,
    /// Insert a row whose coordinates are NaN/infinite.
    NonFiniteRow,
    /// Insert a row with corners in descending order (readers must
    /// normalise or reject, never build an inverted rectangle).
    InvertedCornerRow,
    /// End the stream early, mid-row, as a dying disk or socket would.
    EarlyEof,
    /// A torn write: bytes up to a pseudo-random offset are intact, the
    /// tail is zeroed — the length is preserved, exactly what a
    /// partially-flushed page leaves behind.
    TornWrite,
    /// The stream yields some bytes, then fails with an I/O error (a
    /// dying disk mid-read, as opposed to [`FaultKind::EarlyEof`]'s clean
    /// end). The byte-buffer form truncates.
    ShortReadThenError,
    /// The atomic-install `rename` fails (transiently, from the retry
    /// loop's point of view). Has no byte-buffer representation —
    /// [`FaultInjector::corrupt`] returns the data unchanged; the kind is
    /// consumed by [`crate::write_atomic_chaos`].
    RenameFail,
}

impl FaultKind {
    /// Every fault kind, for exhaustive sweeps in tests.
    pub const ALL: [FaultKind; 8] = [
        FaultKind::Truncate,
        FaultKind::BitFlip,
        FaultKind::NonFiniteRow,
        FaultKind::InvertedCornerRow,
        FaultKind::EarlyEof,
        FaultKind::TornWrite,
        FaultKind::ShortReadThenError,
        FaultKind::RenameFail,
    ];

    /// The kinds relevant to persisted-snapshot recovery: every way a
    /// snapshot file on disk can be damaged (plus [`FaultKind::RenameFail`]
    /// for the write path).
    pub const SNAPSHOT: [FaultKind; 6] = [
        FaultKind::Truncate,
        FaultKind::BitFlip,
        FaultKind::EarlyEof,
        FaultKind::TornWrite,
        FaultKind::ShortReadThenError,
        FaultKind::RenameFail,
    ];
}

/// Deterministic seeded fault generator (splitmix64 underneath — no
/// dependency on the workspace RNG so the harness stays self-contained).
#[derive(Debug, Clone)]
pub struct FaultInjector {
    state: u64,
}

impl FaultInjector {
    /// Creates an injector; the same seed replays the same faults.
    pub fn new(seed: u64) -> FaultInjector {
        FaultInjector { state: seed }
    }

    /// Next pseudo-random word (splitmix64).
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, bound)`; `bound` must be non-zero.
    pub(crate) fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    /// Returns a corrupted copy of `data` exhibiting `kind`.
    ///
    /// For the row-structured kinds ([`FaultKind::NonFiniteRow`],
    /// [`FaultKind::InvertedCornerRow`]) the payload is treated as CSV text
    /// and a poisoned row is spliced in at a random line boundary; the byte
    /// kinds corrupt the raw buffer.
    pub fn corrupt(&mut self, data: &[u8], kind: FaultKind) -> Vec<u8> {
        match kind {
            FaultKind::Truncate | FaultKind::EarlyEof | FaultKind::ShortReadThenError => {
                if data.is_empty() {
                    return Vec::new();
                }
                data[..self.below(data.len())].to_vec()
            }
            FaultKind::TornWrite => {
                let mut out = data.to_vec();
                if out.is_empty() {
                    return out;
                }
                let tear = self.below(out.len());
                for b in &mut out[tear..] {
                    *b = 0;
                }
                out
            }
            FaultKind::RenameFail => data.to_vec(),
            FaultKind::BitFlip => {
                let mut out = data.to_vec();
                if out.is_empty() {
                    return out;
                }
                let flips = 1 + self.below(7);
                for _ in 0..flips {
                    let pos = self.below(out.len());
                    let bit = self.below(8);
                    out[pos] ^= 1 << bit;
                }
                out
            }
            FaultKind::NonFiniteRow => self.splice_row(data, b"nan,nan,inf,-inf\n"),
            FaultKind::InvertedCornerRow => self.splice_row(data, b"9.0,9.0,1.0,1.0\n"),
        }
    }

    /// Splices `row` in at a pseudo-random line boundary of `data`.
    fn splice_row(&mut self, data: &[u8], row: &[u8]) -> Vec<u8> {
        let boundaries: Vec<usize> = std::iter::once(0)
            .chain(
                data.iter()
                    .enumerate()
                    .filter(|&(_, &b)| b == b'\n')
                    .map(|(i, _)| i + 1),
            )
            .collect();
        let at = boundaries[self.below(boundaries.len())];
        let mut out = Vec::with_capacity(data.len() + row.len());
        out.extend_from_slice(&data[..at]);
        out.extend_from_slice(row);
        out.extend_from_slice(&data[at..]);
        out
    }

    /// A corrupt rectangle matching `kind`, built through the public fields
    /// (bypassing `Rect`'s constructors exactly the way in-memory corruption
    /// would).
    ///
    /// Only meaningful for the row-level kinds; the byte-level kinds return
    /// `None` (they have no rectangle representation).
    pub fn corrupt_rect(&mut self, kind: FaultKind) -> Option<Rect> {
        match kind {
            FaultKind::NonFiniteRow => Some(Rect {
                lo: Point::new(f64::NAN, 0.0),
                hi: Point::new(1.0, f64::INFINITY),
            }),
            FaultKind::InvertedCornerRow => Some(Rect {
                lo: Point::new(9.0, 9.0),
                hi: Point::new(1.0, 1.0),
            }),
            _ => None,
        }
    }
}

/// An [`io::Read`] adapter that injects one fault into the wrapped stream.
///
/// * [`FaultKind::Truncate`] / [`FaultKind::EarlyEof`] — the stream ends
///   cleanly at a pseudo-random offset.
/// * [`FaultKind::BitFlip`] — bytes past a pseudo-random offset have a bit
///   flipped (one per ~64 bytes).
/// * Row kinds — a poisoned CSV row is emitted at a pseudo-random offset
///   before the stream resumes.
pub struct ChaosReader<R> {
    inner: R,
    kind: FaultKind,
    injector: FaultInjector,
    /// Byte offset at which the fault triggers.
    trigger: u64,
    /// Bytes read so far.
    offset: u64,
    /// Pending injected bytes (row kinds), drained before the inner stream.
    pending: Vec<u8>,
    pending_pos: usize,
    injected: bool,
}

impl<R: Read> ChaosReader<R> {
    /// Wraps `inner`, arming one `kind` fault somewhere in the first
    /// `horizon` bytes (deterministic in `seed`).
    pub fn new(inner: R, kind: FaultKind, seed: u64, horizon: u64) -> ChaosReader<R> {
        let mut injector = FaultInjector::new(seed);
        let trigger = if horizon == 0 {
            0
        } else {
            injector.next_u64() % horizon
        };
        ChaosReader {
            inner,
            kind,
            injector,
            trigger,
            offset: 0,
            pending: Vec::new(),
            pending_pos: 0,
            injected: false,
        }
    }
}

impl<R: Read> Read for ChaosReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        // Drain any injected row first.
        if self.pending_pos < self.pending.len() {
            let n = (self.pending.len() - self.pending_pos).min(buf.len());
            buf[..n].copy_from_slice(&self.pending[self.pending_pos..self.pending_pos + n]);
            self.pending_pos += n;
            return Ok(n);
        }
        if !self.injected && self.offset >= self.trigger {
            self.injected = true;
            match self.kind {
                FaultKind::Truncate | FaultKind::EarlyEof => return Ok(0),
                FaultKind::ShortReadThenError => {
                    return Err(io::Error::other("injected fault: medium failed mid-read"))
                }
                FaultKind::NonFiniteRow | FaultKind::InvertedCornerRow => {
                    // Break the current line, then poison the next one: the
                    // newline keeps the corruption row-aligned.
                    self.pending = b"\n".to_vec();
                    self.pending.extend_from_slice(match self.kind {
                        FaultKind::NonFiniteRow => b"nan,nan,inf,-inf\n".as_slice(),
                        _ => b"9.0,9.0,1.0,1.0\n".as_slice(),
                    });
                    self.pending_pos = 0;
                    let n = self.pending.len().min(buf.len());
                    buf[..n].copy_from_slice(&self.pending[..n]);
                    self.pending_pos = n;
                    return Ok(n);
                }
                // Handled on the fall-through path (BitFlip / TornWrite
                // corrupt bytes as they stream; RenameFail has no stream
                // representation and passes through).
                FaultKind::BitFlip | FaultKind::TornWrite | FaultKind::RenameFail => {}
            }
        }
        let n = self.inner.read(buf)?;
        if self.injected && n > 0 {
            match self.kind {
                FaultKind::BitFlip => {
                    for chunk in buf[..n].chunks_mut(64) {
                        let pos = self.injector.below(chunk.len());
                        let bit = self.injector.below(8);
                        chunk[pos] ^= 1 << bit;
                    }
                }
                FaultKind::TornWrite => {
                    // Past the tear point the medium returns zeroed pages.
                    for b in &mut buf[..n] {
                        *b = 0;
                    }
                }
                _ => {}
            }
        }
        self.offset += n as u64;
        Ok(n)
    }
}

/// A [`RectSource`] wrapper that injects corrupt rectangles into sweeps.
///
/// `stats()` passes through unchanged, so consumers see a summary that is
/// *inconsistent* with the sweep — exactly the state a torn file or flaky
/// replica produces, and what graceful-degradation paths must survive.
pub struct FaultSource<'a, S: RectSource + ?Sized> {
    inner: &'a S,
    kind: FaultKind,
    seed: u64,
}

impl<'a, S: RectSource + ?Sized> FaultSource<'a, S> {
    /// Wraps `inner`, injecting one `kind` fault per sweep.
    pub fn new(inner: &'a S, kind: FaultKind, seed: u64) -> FaultSource<'a, S> {
        FaultSource { inner, kind, seed }
    }
}

impl<S: RectSource + ?Sized> RectSource for FaultSource<'_, S> {
    fn scan(&self) -> Box<dyn Iterator<Item = Rect> + '_> {
        let mut injector = FaultInjector::new(self.seed);
        let n = self.inner.stats().n;
        match self.kind {
            FaultKind::Truncate | FaultKind::EarlyEof | FaultKind::ShortReadThenError => {
                let keep = if n == 0 { 0 } else { injector.below(n) };
                Box::new(self.inner.scan().take(keep))
            }
            FaultKind::TornWrite => {
                // Torn in-memory image: rows past the tear read back as
                // all-zero records (length preserved, content gone).
                let tear = if n == 0 { 0 } else { injector.below(n) };
                Box::new(self.inner.scan().enumerate().map(move |(i, r)| {
                    if i >= tear {
                        Rect::new(0.0, 0.0, 0.0, 0.0)
                    } else {
                        r
                    }
                }))
            }
            FaultKind::RenameFail => Box::new(self.inner.scan()),
            FaultKind::BitFlip => {
                // In-memory analogue of a flipped sign/exponent bit: one
                // rectangle's coordinate is perturbed to a hostile value.
                let at = if n == 0 { 0 } else { injector.below(n) };
                Box::new(self.inner.scan().enumerate().map(move |(i, r)| {
                    if i == at {
                        Rect {
                            lo: Point::new(r.lo.x * -1e30, r.lo.y),
                            hi: r.hi,
                        }
                    } else {
                        r
                    }
                }))
            }
            FaultKind::NonFiniteRow | FaultKind::InvertedCornerRow => {
                let bad = injector
                    .corrupt_rect(self.kind)
                    .expect("row kinds always produce a rect");
                let at = if n == 0 { 0 } else { injector.below(n + 1) };
                Box::new(
                    self.inner
                        .scan()
                        .enumerate()
                        .flat_map(move |(i, r)| if i == at { vec![bad, r] } else { vec![r] })
                        .chain(if at >= n { vec![bad] } else { vec![] }),
                )
            }
        }
    }

    fn stats(&self) -> DatasetStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{read_rects_csv_from, write_rects_csv, Dataset};
    use std::io::BufReader;

    /// Tests in one process run in parallel, so every call writes its own
    /// file: a shared path would let one test delete or overwrite the CSV
    /// another is still reading.
    fn sample_csv() -> Vec<u8> {
        static CALLS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let ds = Dataset::new(
            (0..50)
                .map(|i| Rect::new(i as f64, 0.0, i as f64 + 1.0, 2.0))
                .collect(),
        );
        let call = CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "minskew-fault-sample-{}-{call}.csv",
            std::process::id()
        ));
        write_rects_csv(&ds, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(path).ok();
        bytes
    }

    #[test]
    fn injector_is_deterministic() {
        let data = sample_csv();
        for kind in FaultKind::ALL {
            let a = FaultInjector::new(7).corrupt(&data, kind);
            let b = FaultInjector::new(7).corrupt(&data, kind);
            assert_eq!(a, b, "{kind:?} must replay identically");
            let c = FaultInjector::new(8).corrupt(&data, kind);
            // Different seeds usually differ (not guaranteed per-kind, but
            // across all kinds at least one must).
            if a != c {
                return;
            }
        }
        panic!("seeds 7 and 8 produced identical corruption for every kind");
    }

    #[test]
    fn corrupted_csv_errors_but_never_panics() {
        let data = sample_csv();
        for kind in FaultKind::ALL {
            for seed in 0..50u64 {
                let bytes = FaultInjector::new(seed).corrupt(&data, kind);
                // Any outcome but a panic is acceptable; corrupt rows must
                // never silently become non-finite rectangles.
                if let Ok(ds) = read_rects_csv_from(BufReader::new(&bytes[..])) {
                    assert!(ds.rects().iter().all(Rect::is_finite), "{kind:?}/{seed}");
                }
            }
        }
    }

    #[test]
    fn chaos_reader_faults_are_survivable() {
        let data = sample_csv();
        for kind in FaultKind::ALL {
            for seed in 0..50u64 {
                let reader = ChaosReader::new(&data[..], kind, seed, data.len() as u64);
                if let Ok(ds) = read_rects_csv_from(BufReader::new(reader)) {
                    assert!(ds.rects().iter().all(Rect::is_finite), "{kind:?}/{seed}");
                }
            }
        }
    }

    #[test]
    fn non_finite_rows_are_rejected_not_absorbed() {
        // The NaN row kinds must produce a parse error (NaN text) — never an
        // Ok dataset containing the poison row.
        let data = sample_csv();
        for seed in 0..20u64 {
            let bytes = FaultInjector::new(seed).corrupt(&data, FaultKind::NonFiniteRow);
            let res = read_rects_csv_from(BufReader::new(&bytes[..]));
            assert!(res.is_err(), "seed {seed}: NaN row must be rejected");
        }
    }

    #[test]
    fn inverted_corner_rows_are_normalised() {
        // Inverted corners are legal input (the reader normalises order), so
        // the sweep succeeds and the extra row is finite and well-ordered.
        let data = sample_csv();
        let bytes = FaultInjector::new(3).corrupt(&data, FaultKind::InvertedCornerRow);
        let ds = read_rects_csv_from(BufReader::new(&bytes[..])).expect("normalised");
        assert_eq!(ds.len(), 51);
        assert!(ds
            .rects()
            .iter()
            .all(|r| r.lo.x <= r.hi.x && r.lo.y <= r.hi.y));
    }

    #[test]
    fn fault_source_injects_and_preserves_stats() {
        let ds = Dataset::new(
            (0..30)
                .map(|i| Rect::new(i as f64, 0.0, i as f64 + 1.0, 1.0))
                .collect(),
        );
        for kind in FaultKind::ALL {
            let src = FaultSource::new(&ds, kind, 11);
            assert_eq!(src.stats().n, 30, "stats must pass through");
            let swept: Vec<Rect> = src.scan().collect();
            match kind {
                FaultKind::Truncate | FaultKind::EarlyEof | FaultKind::ShortReadThenError => {
                    assert!(swept.len() < 30, "{kind:?} must drop rows")
                }
                FaultKind::NonFiniteRow => {
                    assert_eq!(swept.len(), 31);
                    assert!(swept.iter().any(|r| !r.is_finite()));
                }
                FaultKind::InvertedCornerRow => {
                    assert_eq!(swept.len(), 31);
                    assert!(swept.iter().any(|r| r.lo.x > r.hi.x));
                }
                FaultKind::BitFlip => {
                    assert_eq!(swept.len(), 30);
                    assert!(swept.iter().zip(ds.rects()).any(|(a, b)| a != b));
                }
                FaultKind::TornWrite => {
                    assert_eq!(swept.len(), 30, "torn image preserves length");
                    assert!(swept.iter().any(|r| r.area() == 0.0));
                }
                FaultKind::RenameFail => {
                    assert_eq!(swept, ds.rects(), "no sweep representation");
                }
            }
        }
    }

    #[test]
    fn arbitrary_byte_soup_never_panics_the_reader() {
        let mut injector = FaultInjector::new(0xBAD5EED);
        for len in [0usize, 1, 7, 64, 333, 4096] {
            let bytes: Vec<u8> = (0..len).map(|_| injector.next_u64() as u8).collect();
            // Ok or Err both fine; no panic.
            let _ = read_rects_csv_from(BufReader::new(&bytes[..]));
        }
    }
}
