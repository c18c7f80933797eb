//! Durable snapshot container for persisted statistics.
//!
//! The catalog codec ([`crate::SpatialHistogram::to_bytes`]) gives a
//! histogram a compact wire form, but a bare codec blob on disk has no
//! integrity story: a torn write, a flipped bit in a zeroed region, or a
//! half-synced page can decode into a *plausible* histogram that silently
//! mis-estimates forever. This module wraps the codec payload in a
//! versioned, checksummed container so every such corruption is
//! **detected**, typed, and recoverable:
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"MSKSNAP\x01"
//! 8       2     format version (u16 le, currently 1)
//! 10      1     technique tag (see [`technique_tag`])
//! 11      1     reserved (must be 0)
//! 12      4     section count (u32 le)
//! 16      32*k  section table: kind u32, reserved u32, offset u64,
//!               len u64, crc64 u64 per section
//! ...           section payloads (concatenated, in table order)
//! end-8   8     whole-file CRC-64 over every preceding byte
//! ```
//!
//! Sections are length-prefixed and independently checksummed (CRC-64/XZ),
//! so a decoder can localise damage; the trailing whole-file checksum
//! catches truncation and header tampering that per-section checks cannot.
//! Unknown section kinds are *skipped* after their checksum verifies, so
//! older readers survive newer writers (forward compatibility). Decoding is
//! **total**: any byte input yields `Ok` or a typed [`SnapshotError`],
//! never a panic — the fault-injection suite drives this with torn writes,
//! bit flips, truncation, and arbitrary byte soup.
//!
//! Blobs in the pre-container format (the bare `MSKH` codec image) still
//! load through [`SpatialHistogram::from_snapshot_bytes`]; they are
//! reported as [`FormatVersion::Legacy`] so callers can surface the
//! migration diagnostic.

use crate::codec::CodecError;
use crate::{SpatialEstimator, SpatialHistogram};

/// First 8 bytes of every container-format snapshot.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"MSKSNAP\x01";
/// Container format version this library writes.
pub const SNAPSHOT_VERSION: u16 = 1;
/// Section kind holding the histogram codec payload.
pub const SECTION_STATS: u32 = 1;
/// Bytes per section-table entry.
const SECTION_ENTRY_BYTES: usize = 32;
/// Fixed header bytes before the section table.
const HEADER_BYTES: usize = 16;
/// Trailing whole-file checksum bytes.
const FOOTER_BYTES: usize = 8;

/// Sanity ceiling on the decoded bucket count: no legitimate summary in
/// this workspace is remotely near 2^24 buckets, and refusing earlier means
/// a hostile header can never drive a large allocation.
pub const MAX_SNAPSHOT_BUCKETS: usize = 1 << 24;

/// Which on-disk format a snapshot was decoded from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FormatVersion {
    /// The checksummed container format (version 1).
    Container,
    /// A bare pre-container codec blob (`MSKH` magic, no checksums).
    Legacy,
}

impl std::fmt::Display for FormatVersion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FormatVersion::Container => write!(f, "container/v{SNAPSHOT_VERSION}"),
            FormatVersion::Legacy => write!(f, "legacy"),
        }
    }
}

/// Decoded snapshot metadata, returned alongside (or instead of) the
/// histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// Format the bytes were decoded from.
    pub version: FormatVersion,
    /// Technique tag recorded in the header (mirrors the payload name).
    pub technique: String,
    /// Sections present in the container (1 for legacy blobs).
    pub sections: usize,
    /// Bytes of the stats codec payload.
    pub payload_bytes: usize,
    /// Total snapshot size in bytes.
    pub total_bytes: usize,
    /// Buckets in the decoded histogram.
    pub buckets: usize,
    /// `N` recorded by the histogram (rectangles summarised).
    pub input_len: usize,
}

impl std::fmt::Display for SnapshotInfo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} snapshot: {} ({} buckets over {} rects), {} section(s), {} bytes",
            self.version,
            self.technique,
            self.buckets,
            self.input_len,
            self.sections,
            self.total_bytes,
        )
    }
}

/// Errors produced while decoding or verifying a snapshot.
///
/// Every corruption mode maps to a variant — decoding never panics — and
/// the engine's degradation ladder keys recovery off the variant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Neither the container magic nor the legacy codec magic matched.
    BadMagic,
    /// The container format version is unknown to this library.
    UnsupportedVersion(u16),
    /// The buffer ended before the declared structure.
    Truncated,
    /// The header's reserved byte or section count is malformed.
    MalformedHeader(String),
    /// A section-table entry points outside the payload region.
    SectionOutOfBounds {
        /// Section kind tag of the offending entry.
        kind: u32,
    },
    /// A section's stored CRC-64 does not match its bytes.
    SectionChecksum {
        /// Section kind tag whose checksum failed.
        kind: u32,
    },
    /// The trailing whole-file CRC-64 does not match the preceding bytes.
    FileChecksum,
    /// No `SECTION_STATS` section is present.
    MissingStatsSection,
    /// The stats payload failed the inner codec's validation.
    Payload(CodecError),
    /// The header technique tag disagrees with the decoded payload.
    TechniqueMismatch {
        /// Technique recorded in the container header.
        header: String,
        /// Technique the decoded payload reports.
        payload: String,
    },
    /// The decoded bucket count exceeds [`MAX_SNAPSHOT_BUCKETS`].
    InsaneBucketCount {
        /// Count the payload declared.
        count: usize,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot format version {v}")
            }
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::MalformedHeader(why) => write!(f, "malformed snapshot header: {why}"),
            SnapshotError::SectionOutOfBounds { kind } => {
                write!(f, "section {kind} points outside the snapshot")
            }
            SnapshotError::SectionChecksum { kind } => {
                write!(f, "section {kind} checksum mismatch (corrupt payload)")
            }
            SnapshotError::FileChecksum => {
                write!(f, "whole-file checksum mismatch (torn or corrupt snapshot)")
            }
            SnapshotError::MissingStatsSection => write!(f, "snapshot has no stats section"),
            SnapshotError::Payload(e) => write!(f, "stats payload rejected: {e}"),
            SnapshotError::TechniqueMismatch { header, payload } => write!(
                f,
                "technique tag {header:?} disagrees with payload technique {payload:?}"
            ),
            SnapshotError::InsaneBucketCount { count } => write!(
                f,
                "bucket count {count} exceeds the sanity bound {MAX_SNAPSHOT_BUCKETS}"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Payload(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CodecError> for SnapshotError {
    fn from(e: CodecError) -> SnapshotError {
        SnapshotError::Payload(e)
    }
}

/// CRC-64/XZ (reflected ECMA-182 polynomial), table-driven. Chosen over an
/// ad-hoc hash because its error-detection properties under burst and
/// single-bit corruption are well characterised — exactly the faults a torn
/// page or decaying medium produces.
const CRC64_POLY: u64 = 0xC96C_5795_D787_0F42; // reflected 0x42F0E1EBA9EA3693

const fn crc64_table() -> [u64; 256] {
    let mut table = [0u64; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ CRC64_POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC64_TABLE: [u64; 256] = crc64_table();

/// CRC-64/XZ of `bytes`.
pub fn crc64(bytes: &[u8]) -> u64 {
    let mut crc = !0u64;
    for &b in bytes {
        crc = CRC64_TABLE[((crc ^ b as u64) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Maps a technique name to its header tag. Unknown names map to 255 and
/// round-trip through [`technique_name`] as `"other"`.
pub fn technique_tag(name: &str) -> u8 {
    match name {
        "Min-Skew" => 0,
        "Equi-Area" => 1,
        "Equi-Count" => 2,
        "Uniform" => 3,
        "R-tree" => 4,
        "Grid" => 5,
        _ => 255,
    }
}

/// Inverse of [`technique_tag`].
pub fn technique_name(tag: u8) -> &'static str {
    match tag {
        0 => "Min-Skew",
        1 => "Equi-Area",
        2 => "Equi-Count",
        3 => "Uniform",
        4 => "R-tree",
        5 => "Grid",
        _ => "other",
    }
}

fn read_u16(data: &[u8], at: usize) -> Result<u16, SnapshotError> {
    let b = data.get(at..at + 2).ok_or(SnapshotError::Truncated)?;
    Ok(u16::from_le_bytes([b[0], b[1]]))
}

fn read_u32(data: &[u8], at: usize) -> Result<u32, SnapshotError> {
    let b = data.get(at..at + 4).ok_or(SnapshotError::Truncated)?;
    Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

fn read_u64(data: &[u8], at: usize) -> Result<u64, SnapshotError> {
    let b = data.get(at..at + 8).ok_or(SnapshotError::Truncated)?;
    Ok(u64::from_le_bytes([
        b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
    ]))
}

/// One verified section: kind tag plus its payload slice.
struct Section<'a> {
    kind: u32,
    bytes: &'a [u8],
}

/// Parses and fully verifies the container structure: magic, version,
/// header sanity, section bounds, per-section checksums, and the trailing
/// whole-file checksum. Returns the verified sections plus the header
/// technique tag.
fn parse_container(data: &[u8]) -> Result<(u8, Vec<Section<'_>>), SnapshotError> {
    if data.len() < 8 || &data[..8] != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    if data.len() < HEADER_BYTES + FOOTER_BYTES {
        return Err(SnapshotError::Truncated);
    }
    // Whole-file checksum first: it catches truncation and header damage in
    // one probe, before any header field is trusted.
    let stored = read_u64(data, data.len() - FOOTER_BYTES)?;
    if crc64(&data[..data.len() - FOOTER_BYTES]) != stored {
        return Err(SnapshotError::FileChecksum);
    }
    let version = read_u16(data, 8)?;
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let technique = data[10];
    if data[11] != 0 {
        return Err(SnapshotError::MalformedHeader(format!(
            "reserved byte is {}",
            data[11]
        )));
    }
    let n_sections = read_u32(data, 12)? as usize;
    let table_bytes = n_sections
        .checked_mul(SECTION_ENTRY_BYTES)
        .ok_or_else(|| SnapshotError::MalformedHeader("section count overflows".into()))?;
    let payload_start = HEADER_BYTES
        .checked_add(table_bytes)
        .ok_or(SnapshotError::Truncated)?;
    let payload_end = data.len() - FOOTER_BYTES;
    if payload_start > payload_end {
        return Err(SnapshotError::Truncated);
    }
    let mut sections = Vec::with_capacity(n_sections);
    for i in 0..n_sections {
        let entry = HEADER_BYTES + i * SECTION_ENTRY_BYTES;
        let kind = read_u32(data, entry)?;
        if read_u32(data, entry + 4)? != 0 {
            return Err(SnapshotError::MalformedHeader(format!(
                "section {kind} reserved word is non-zero"
            )));
        }
        let offset = read_u64(data, entry + 8)? as usize;
        let len = read_u64(data, entry + 16)? as usize;
        let crc = read_u64(data, entry + 24)?;
        let end = offset
            .checked_add(len)
            .ok_or(SnapshotError::SectionOutOfBounds { kind })?;
        if offset < payload_start || end > payload_end {
            return Err(SnapshotError::SectionOutOfBounds { kind });
        }
        let bytes = &data[offset..end];
        if crc64(bytes) != crc {
            return Err(SnapshotError::SectionChecksum { kind });
        }
        sections.push(Section { kind, bytes });
    }
    Ok((technique, sections))
}

/// Decodes the stats payload out of verified sections, applying the
/// engine-facing sanity bounds the raw codec does not enforce.
fn decode_stats(
    technique_tag_byte: u8,
    sections: &[Section<'_>],
) -> Result<SpatialHistogram, SnapshotError> {
    let stats = sections
        .iter()
        .find(|s| s.kind == SECTION_STATS)
        .ok_or(SnapshotError::MissingStatsSection)?;
    let hist = SpatialHistogram::from_bytes(stats.bytes)?;
    if hist.num_buckets() > MAX_SNAPSHOT_BUCKETS {
        return Err(SnapshotError::InsaneBucketCount {
            count: hist.num_buckets(),
        });
    }
    let header = technique_name(technique_tag_byte);
    // A tag of 255 means "technique this writer didn't know"; any payload
    // name is acceptable there. Known tags must agree with the payload —
    // disagreement means one of the two was corrupted in a way the
    // checksums cannot see (e.g. a stale header spliced onto a new body).
    if technique_tag_byte != 255 && technique_tag(hist.name()) != technique_tag_byte {
        return Err(SnapshotError::TechniqueMismatch {
            header: header.to_owned(),
            payload: hist.name().to_owned(),
        });
    }
    Ok(hist)
}

impl SpatialHistogram {
    /// Serialises the histogram into the checksummed snapshot container.
    ///
    /// The encoding is deterministic: the same histogram always yields the
    /// same bytes, so snapshot files can be byte-compared in differential
    /// tests.
    pub fn to_snapshot_bytes(&self) -> Vec<u8> {
        let payload = self.to_bytes();
        let payload_offset = HEADER_BYTES + SECTION_ENTRY_BYTES; // one section
        let mut buf = Vec::with_capacity(payload_offset + payload.len() + FOOTER_BYTES);
        buf.extend_from_slice(SNAPSHOT_MAGIC);
        buf.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        buf.push(technique_tag(self.name()));
        buf.push(0); // reserved
        buf.extend_from_slice(&1u32.to_le_bytes()); // section count
                                                    // Section table entry: stats.
        buf.extend_from_slice(&SECTION_STATS.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes()); // reserved
        buf.extend_from_slice(&(payload_offset as u64).to_le_bytes());
        buf.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        buf.extend_from_slice(&crc64(&payload).to_le_bytes());
        buf.extend_from_slice(&payload);
        let file_crc = crc64(&buf);
        buf.extend_from_slice(&file_crc.to_le_bytes());
        buf
    }

    /// Decodes a snapshot produced by [`Self::to_snapshot_bytes`], or a
    /// legacy bare codec blob (reported as [`FormatVersion::Legacy`]).
    ///
    /// Total on arbitrary input: every corruption mode — bad magic, torn
    /// write, bit flip, truncation, hostile header, stale section table —
    /// maps to a typed [`SnapshotError`]; this function never panics and
    /// never installs a silently-wrong histogram (checksums cover every
    /// payload byte).
    pub fn from_snapshot_bytes(
        data: &[u8],
    ) -> Result<(SpatialHistogram, SnapshotInfo), SnapshotError> {
        if data.len() >= 4 && &data[..4] == b"MSKH" {
            // Legacy pre-container blob: decode through the codec, apply
            // the same sanity bounds, and flag the format for migration.
            let hist = SpatialHistogram::from_bytes(data)?;
            if hist.num_buckets() > MAX_SNAPSHOT_BUCKETS {
                return Err(SnapshotError::InsaneBucketCount {
                    count: hist.num_buckets(),
                });
            }
            let info = SnapshotInfo {
                version: FormatVersion::Legacy,
                technique: hist.name().to_owned(),
                sections: 1,
                payload_bytes: data.len(),
                total_bytes: data.len(),
                buckets: hist.num_buckets(),
                input_len: hist.input_len(),
            };
            return Ok((hist, info));
        }
        let (tag, sections) = parse_container(data)?;
        let payload_bytes = sections
            .iter()
            .find(|s| s.kind == SECTION_STATS)
            .map_or(0, |s| s.bytes.len());
        let n_sections = sections.len();
        let hist = decode_stats(tag, &sections)?;
        let info = SnapshotInfo {
            version: FormatVersion::Container,
            technique: hist.name().to_owned(),
            sections: n_sections,
            payload_bytes,
            total_bytes: data.len(),
            buckets: hist.num_buckets(),
            input_len: hist.input_len(),
        };
        Ok((hist, info))
    }
}

/// Fully verifies a snapshot without keeping the decoded histogram:
/// structure, checksums, payload decode, and sanity bounds all run, so
/// `verify_snapshot(bytes).is_ok()` implies a later load will succeed.
pub fn verify_snapshot(data: &[u8]) -> Result<SnapshotInfo, SnapshotError> {
    SpatialHistogram::from_snapshot_bytes(data).map(|(_, info)| info)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_uniform, MinSkewBuilder};
    use minskew_datagen::charminar_with;

    fn sample() -> SpatialHistogram {
        let ds = charminar_with(2_000, 7);
        MinSkewBuilder::new(30).regions(900).build(&ds)
    }

    #[test]
    fn container_round_trip_is_byte_identical() {
        let h = sample();
        let snap = h.to_snapshot_bytes();
        let (back, info) = SpatialHistogram::from_snapshot_bytes(&snap).expect("clean decode");
        assert_eq!(back, h);
        assert_eq!(back.to_snapshot_bytes(), snap, "re-encode drift");
        assert_eq!(info.version, FormatVersion::Container);
        assert_eq!(info.technique, "Min-Skew");
        assert_eq!(info.buckets, h.num_buckets());
        assert_eq!(info.input_len, h.input_len());
        assert_eq!(info.total_bytes, snap.len());
        assert!(verify_snapshot(&snap).is_ok());
    }

    #[test]
    fn legacy_blob_still_loads_with_diagnostic() {
        let h = sample();
        let legacy = h.to_bytes();
        let (back, info) = SpatialHistogram::from_snapshot_bytes(&legacy).expect("legacy shim");
        assert_eq!(back, h);
        assert_eq!(info.version, FormatVersion::Legacy);
        assert!(info.to_string().contains("legacy"), "{info}");
    }

    #[test]
    fn every_single_byte_corruption_is_detected_or_harmless() {
        // The container's contract is stronger than the codec's: a valid
        // snapshot with ANY single byte changed must fail to decode (the
        // checksums cover every byte), not just "not panic".
        let snap = sample().to_snapshot_bytes();
        for pos in 0..snap.len() {
            let mut corrupt = snap.clone();
            corrupt[pos] ^= 0x10;
            assert!(
                SpatialHistogram::from_snapshot_bytes(&corrupt).is_err(),
                "flip at byte {pos} went undetected"
            );
        }
    }

    #[test]
    fn truncation_at_every_length_is_detected() {
        let snap = sample().to_snapshot_bytes();
        for cut in 0..snap.len() {
            let r = SpatialHistogram::from_snapshot_bytes(&snap[..cut]);
            assert!(r.is_err(), "truncation to {cut} bytes went undetected");
        }
    }

    #[test]
    fn torn_zero_tail_is_detected() {
        // A torn write that leaves a prefix valid and the tail zeroed is
        // the classic failure the bare codec could mis-decode; the
        // container must reject it at every tear point.
        let snap = sample().to_snapshot_bytes();
        for at in [16, snap.len() / 3, snap.len() / 2, snap.len() - 9] {
            let mut torn = snap.clone();
            for b in &mut torn[at..] {
                *b = 0;
            }
            assert!(
                SpatialHistogram::from_snapshot_bytes(&torn).is_err(),
                "tear at {at} went undetected"
            );
        }
    }

    #[test]
    fn technique_mismatch_is_detected() {
        let mut snap = sample().to_snapshot_bytes();
        snap[10] = technique_tag("Uniform");
        // Re-seal the checksums the way a buggy (not malicious) rewriter
        // would, so only the semantic cross-check can catch it.
        let end = snap.len() - 8;
        let crc = crc64(&snap[..end]).to_le_bytes();
        snap[end..].copy_from_slice(&crc);
        assert!(matches!(
            SpatialHistogram::from_snapshot_bytes(&snap),
            Err(SnapshotError::TechniqueMismatch { .. })
        ));
    }

    #[test]
    fn arbitrary_byte_soup_never_panics() {
        let mut state = 0x5EED_CAFEu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u8
        };
        for len in [0usize, 1, 7, 8, 15, 16, 47, 48, 100, 4096] {
            let soup: Vec<u8> = (0..len).map(|_| next()).collect();
            let _ = SpatialHistogram::from_snapshot_bytes(&soup);
            let _ = verify_snapshot(&soup);
        }
        // Byte soup behind a valid magic exercises the header paths.
        for len in [0usize, 8, 24, 48, 200] {
            let mut soup: Vec<u8> = SNAPSHOT_MAGIC.to_vec();
            soup.extend((0..len).map(|_| next()));
            let _ = SpatialHistogram::from_snapshot_bytes(&soup);
        }
    }

    #[test]
    fn unknown_sections_are_skipped() {
        // Hand-build a container with an extra unknown section; an old
        // reader must verify and skip it.
        let h = build_uniform(&charminar_with(200, 3));
        let payload = h.to_bytes();
        let extra = b"future-section-payload";
        let payload_offset = HEADER_BYTES + 2 * SECTION_ENTRY_BYTES;
        let mut buf = Vec::new();
        buf.extend_from_slice(SNAPSHOT_MAGIC);
        buf.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        buf.push(technique_tag(h.name()));
        buf.push(0);
        buf.extend_from_slice(&2u32.to_le_bytes());
        for (kind, offset, bytes) in [
            (SECTION_STATS, payload_offset, payload.as_slice()),
            (0xBEEF, payload_offset + payload.len(), extra.as_slice()),
        ] {
            buf.extend_from_slice(&kind.to_le_bytes());
            buf.extend_from_slice(&0u32.to_le_bytes());
            buf.extend_from_slice(&(offset as u64).to_le_bytes());
            buf.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
            buf.extend_from_slice(&crc64(bytes).to_le_bytes());
        }
        buf.extend_from_slice(&payload);
        buf.extend_from_slice(extra);
        let crc = crc64(&buf).to_le_bytes();
        buf.extend_from_slice(&crc);
        let (back, info) = SpatialHistogram::from_snapshot_bytes(&buf).expect("skips unknown");
        assert_eq!(back, h);
        assert_eq!(info.sections, 2);
        // ...but a corrupted unknown section still fails verification.
        let extra_at = payload_offset + payload.len();
        buf[extra_at] ^= 0xFF;
        let end = buf.len() - 8;
        let reseal = crc64(&buf[..end]).to_le_bytes();
        buf[end..].copy_from_slice(&reseal);
        assert!(matches!(
            SpatialHistogram::from_snapshot_bytes(&buf),
            Err(SnapshotError::SectionChecksum { kind: 0xBEEF })
        ));
    }

    #[test]
    fn version_and_magic_are_checked() {
        let mut wrong_version = sample().to_snapshot_bytes();
        wrong_version[8] = 99;
        let end = wrong_version.len() - 8;
        let crc = crc64(&wrong_version[..end]).to_le_bytes();
        wrong_version[end..].copy_from_slice(&crc);
        assert_eq!(
            SpatialHistogram::from_snapshot_bytes(&wrong_version).unwrap_err(),
            SnapshotError::UnsupportedVersion(99)
        );
        assert_eq!(
            SpatialHistogram::from_snapshot_bytes(b"what is this").unwrap_err(),
            SnapshotError::BadMagic
        );
        assert_eq!(
            SpatialHistogram::from_snapshot_bytes(b"").unwrap_err(),
            SnapshotError::BadMagic
        );
    }

    #[test]
    fn crc64_matches_reference_vector() {
        // CRC-64/XZ check value for "123456789".
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_eq!(crc64(b""), 0);
    }

    #[test]
    fn technique_tags_round_trip() {
        for name in [
            "Min-Skew",
            "Equi-Area",
            "Equi-Count",
            "Uniform",
            "R-tree",
            "Grid",
        ] {
            assert_eq!(technique_name(technique_tag(name)), name);
        }
        assert_eq!(technique_name(technique_tag("Sampling")), "other");
    }
}
