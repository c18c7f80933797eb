//! Plain-text dataset I/O.
//!
//! The paper's real-life inputs are TIGER/Sequoia extracts — line-segment or
//! polygon bounding boxes. Users who have such data can bring it as a CSV
//! of `x1,y1,x2,y2` rows (one rectangle per line, `#`-prefixed comment lines
//! and blank lines ignored) and run every estimator and experiment in this
//! workspace on it.

use std::io::{BufRead, BufWriter, Write};
use std::path::Path;

use minskew_geom::Rect;

use crate::Dataset;

/// Errors produced while reading a rectangle CSV.
#[derive(Debug)]
pub enum CsvError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A data line was malformed; payload is (1-based line number, reason).
    Parse(usize, String),
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "I/O error: {e}"),
            CsvError::Parse(line, why) => write!(f, "line {line}: {why}"),
        }
    }
}

impl std::error::Error for CsvError {}

impl From<std::io::Error> for CsvError {
    fn from(e: std::io::Error) -> CsvError {
        CsvError::Io(e)
    }
}

/// Reads a dataset from a `x1,y1,x2,y2` CSV file.
///
/// Corner order per row is normalised; non-finite values are rejected.
pub fn read_rects_csv(path: impl AsRef<Path>) -> Result<Dataset, CsvError> {
    let file = std::fs::File::open(path)?;
    read_rects_csv_from(std::io::BufReader::new(file))
}

/// Reads a dataset in `x1,y1,x2,y2` CSV form from any buffered reader.
///
/// This is the seam the fault-injection suite drives: the parser is total
/// over arbitrary byte streams — every malformed line, injected I/O error,
/// or mid-stream truncation maps to a [`CsvError`], never a panic. Lines
/// are read into one reused buffer, so parsing allocates only the output.
pub fn read_rects_csv_from(mut reader: impl BufRead) -> Result<Dataset, CsvError> {
    let mut rects = Vec::new();
    let mut line = String::new();
    let mut line_no = 0;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        line_no += 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        rects.push(parse_line(trimmed, line_no)?);
    }
    Ok(Dataset::new(rects))
}

/// Parses one trimmed, non-comment data line (`line_no` is 1-based) into
/// a rectangle with normalised corners.
///
/// One pass over the fields: a field count other than four outranks a
/// bad field, and the first bad field outranks the rest.
pub(crate) fn parse_line(line: &str, line_no: usize) -> Result<Rect, CsvError> {
    let mut vals = [0.0f64; 4];
    let mut count = 0;
    let mut bad = None;
    for field in line.split(',') {
        if count < 4 && bad.is_none() {
            let field = field.trim();
            match field.parse::<f64>() {
                Ok(v) if v.is_finite() => vals[count] = v,
                Ok(_) => bad = Some(format!("non-finite value {field:?}")),
                Err(e) => bad = Some(format!("bad number {field:?}: {e}")),
            }
        }
        count += 1;
    }
    if count != 4 {
        return Err(CsvError::Parse(
            line_no,
            format!("expected 4 comma-separated values, got {count}"),
        ));
    }
    match bad {
        Some(why) => Err(CsvError::Parse(line_no, why)),
        None => Ok(Rect::new(vals[0], vals[1], vals[2], vals[3])),
    }
}

/// Writes a dataset as a `x1,y1,x2,y2` CSV file (with a header comment).
pub fn write_rects_csv(data: &Dataset, path: impl AsRef<Path>) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    let mut w = BufWriter::new(file);
    writeln!(w, "# x1,y1,x2,y2 — {} rectangles", data.len())?;
    for r in data.rects() {
        writeln!(w, "{},{},{},{}", r.lo.x, r.lo.y, r.hi.x, r.hi.y)?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("minskew-io-test-{}-{name}", std::process::id()))
    }

    #[test]
    fn roundtrip() {
        let ds = Dataset::new(vec![
            Rect::new(0.0, 1.5, 2.0, 3.0),
            Rect::new(-4.25, 0.0, 0.0, 10.0),
        ]);
        let path = tmp("roundtrip.csv");
        write_rects_csv(&ds, &path).unwrap();
        let back = read_rects_csv(&path).unwrap();
        assert_eq!(back.rects(), ds.rects());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let path = tmp("comments.csv");
        std::fs::write(&path, "# header\n\n1,2,3,4\n  # another\n5,6,7,8\n").unwrap();
        let ds = read_rects_csv(&path).unwrap();
        assert_eq!(ds.len(), 2);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn corner_order_normalised() {
        let path = tmp("order.csv");
        std::fs::write(&path, "3,4,1,2\n").unwrap();
        let ds = read_rects_csv(&path).unwrap();
        assert_eq!(ds.rects()[0], Rect::new(1.0, 2.0, 3.0, 4.0));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn malformed_rows_reported_with_line_numbers() {
        for (content, expect_line) in [
            ("1,2,3\n", 1),
            ("1,2,3,4\nx,2,3,4\n", 2),
            ("1,2,3,4\n\n1,2,3,inf\n", 3),
        ] {
            let path = tmp("bad.csv");
            std::fs::write(&path, content).unwrap();
            match read_rects_csv(&path) {
                Err(CsvError::Parse(line, _)) => assert_eq!(line, expect_line, "{content:?}"),
                other => panic!("expected parse error for {content:?}, got {other:?}"),
            }
            std::fs::remove_file(path).ok();
        }
    }

    #[test]
    fn error_messages_and_line_numbers_are_pinned() {
        let from = |text: &str| read_rects_csv_from(text.as_bytes()).map(|d| d.len());
        for (text, want) in [
            (
                "1,2,3\n",
                "line 1: expected 4 comma-separated values, got 3",
            ),
            // The field count is checked before any number is parsed.
            (
                "x,2,3\n",
                "line 1: expected 4 comma-separated values, got 3",
            ),
            (
                "1,2,3,4,\n",
                "line 1: expected 4 comma-separated values, got 5",
            ),
            (
                "# c\n1,2,3,4\n1, x ,3,4\n",
                "line 3: bad number \"x\": invalid float literal",
            ),
            ("1,2,3,NaN\n", "line 1: non-finite value \"NaN\""),
            (
                "\r\n 1 , 2 ,3,4 \r\n1,2,3,-inf",
                "line 3: non-finite value \"-inf\"",
            ),
        ] {
            match from(text) {
                Err(e @ CsvError::Parse(..)) => assert_eq!(e.to_string(), want, "{text:?}"),
                other => panic!("{text:?}: expected a parse error, got {other:?}"),
            }
        }
        assert_eq!(from("\r\n 1 , 2 ,3,4 \r\n#\n\n5,6,7,8").ok(), Some(2));
        let invalid_utf8: &[u8] = b"1,2,3,4\n\xff,2,3,4\n";
        assert!(matches!(
            read_rects_csv_from(invalid_utf8),
            Err(CsvError::Io(e)) if e.kind() == std::io::ErrorKind::InvalidData
        ));
    }

    #[test]
    fn missing_file_is_io_error() {
        match read_rects_csv("/definitely/not/here.csv") {
            Err(CsvError::Io(_)) => {}
            other => panic!("expected I/O error, got {other:?}"),
        }
    }
}
