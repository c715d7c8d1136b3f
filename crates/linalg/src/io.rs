//! Plain-text matrix serialization.
//!
//! A small, self-describing coordinate format (in the spirit of Matrix
//! Market, but versioned and minimal) so datasets and projections can move
//! between the CLI, the examples, and external tools:
//!
//! ```text
//! spca-sparse 3 4 2      # header: kind rows cols nnz
//! 0 1 2.5                # row col value
//! 2 3 -1.0
//! ```
//!
//! Dense matrices use `spca-dense rows cols` followed by one
//! whitespace-separated row per line.

use std::fmt;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use crate::dense::Mat;
use crate::sparse::SparseMat;

/// Parse failure while reading a matrix file.
#[derive(Debug, Clone, PartialEq)]
pub struct FormatError {
    /// 1-based line where the problem was found (0 = missing content).
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for FormatError {}

/// Errors from reading: I/O or format.
#[derive(Debug)]
pub enum ReadError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The content did not parse.
    Format(FormatError),
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::Io(e) => write!(f, "i/o error: {e}"),
            ReadError::Format(e) => write!(f, "format error: {e}"),
        }
    }
}

impl std::error::Error for ReadError {}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> Self {
        ReadError::Io(e)
    }
}

impl From<FormatError> for ReadError {
    fn from(e: FormatError) -> Self {
        ReadError::Format(e)
    }
}

fn err(line: usize, message: impl Into<String>) -> ReadError {
    ReadError::Format(FormatError { line, message: message.into() })
}

/// Parses one matrix value. `NaN`, `inf` and literals that overflow to
/// infinity are format errors: a single non-finite entry would turn every
/// fitted parameter into NaN.
fn parse_value(line: usize, tok: &str) -> Result<f64, ReadError> {
    let v: f64 = tok.parse().map_err(|e| err(line, format!("bad value: {e}")))?;
    if !v.is_finite() {
        return Err(err(line, format!("non-finite value {tok:?}")));
    }
    Ok(v)
}

/// Writes a sparse matrix in coordinate format.
pub fn write_sparse(w: &mut impl Write, m: &SparseMat) -> io::Result<()> {
    writeln!(w, "spca-sparse {} {} {}", m.rows(), m.cols(), m.nnz())?;
    for r in 0..m.rows() {
        for (c, v) in m.row(r).iter() {
            writeln!(w, "{r} {c} {v:e}")?;
        }
    }
    Ok(())
}

/// Reads a sparse matrix in coordinate format.
pub fn read_sparse(r: &mut impl BufRead) -> Result<SparseMat, ReadError> {
    let mut lines = r.lines().enumerate();
    let (_, header) = lines.next().ok_or_else(|| err(0, "empty input"))?;
    let header = header?;
    let mut it = header.split_whitespace();
    if it.next() != Some("spca-sparse") {
        return Err(err(1, "expected 'spca-sparse' header"));
    }
    let parse = |line: usize, tok: Option<&str>, what: &str| -> Result<usize, ReadError> {
        tok.ok_or_else(|| err(line, format!("missing {what}")))?
            .parse::<usize>()
            .map_err(|e| err(line, format!("bad {what}: {e}")))
    };
    let rows = parse(1, it.next(), "row count")?;
    let cols = parse(1, it.next(), "column count")?;
    let nnz = parse(1, it.next(), "nnz count")?;

    let mut triplets = Vec::with_capacity(nnz);
    for (idx, line) in lines {
        let line = line?;
        let lineno = idx + 1;
        if line.trim().is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        let r = parse(lineno, it.next(), "row index")?;
        let c = parse(lineno, it.next(), "column index")?;
        let v = parse_value(lineno, it.next().ok_or_else(|| err(lineno, "missing value"))?)?;
        if r >= rows || c >= cols {
            return Err(err(lineno, format!("entry ({r},{c}) out of {rows}x{cols}")));
        }
        triplets.push((r, c as u32, v));
    }
    if triplets.len() != nnz {
        return Err(err(0, format!("header promised {nnz} entries, found {}", triplets.len())));
    }
    Ok(SparseMat::from_triplets(rows, cols, &triplets))
}

/// Writes a dense matrix, one row per line.
pub fn write_dense(w: &mut impl Write, m: &Mat) -> io::Result<()> {
    writeln!(w, "spca-dense {} {}", m.rows(), m.cols())?;
    for r in 0..m.rows() {
        let row: Vec<String> = m.row(r).iter().map(|v| format!("{v:e}")).collect();
        writeln!(w, "{}", row.join(" "))?;
    }
    Ok(())
}

/// Reads a dense matrix written by [`write_dense`].
pub fn read_dense(r: &mut impl BufRead) -> Result<Mat, ReadError> {
    let mut lines = r.lines().enumerate();
    let (_, header) = lines.next().ok_or_else(|| err(0, "empty input"))?;
    let header = header?;
    let mut it = header.split_whitespace();
    if it.next() != Some("spca-dense") {
        return Err(err(1, "expected 'spca-dense' header"));
    }
    let rows: usize = it
        .next()
        .ok_or_else(|| err(1, "missing row count"))?
        .parse()
        .map_err(|e| err(1, format!("bad row count: {e}")))?;
    let cols: usize = it
        .next()
        .ok_or_else(|| err(1, "missing column count"))?
        .parse()
        .map_err(|e| err(1, format!("bad column count: {e}")))?;

    let mut m = Mat::zeros(rows, cols);
    let mut filled = 0usize;
    for (idx, line) in lines {
        let line = line?;
        let lineno = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        if filled >= rows {
            return Err(err(lineno, "more rows than the header promised"));
        }
        let values: Result<Vec<f64>, ReadError> =
            line.split_whitespace().map(|t| parse_value(lineno, t)).collect();
        let values = values?;
        if values.len() != cols {
            return Err(err(lineno, format!("expected {cols} values, found {}", values.len())));
        }
        m.row_mut(filled).copy_from_slice(&values);
        filled += 1;
    }
    if filled != rows {
        return Err(err(0, format!("header promised {rows} rows, found {filled}")));
    }
    Ok(m)
}

/// Saves a sparse matrix to a file.
pub fn save_sparse(path: impl AsRef<Path>, m: &SparseMat) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    write_sparse(&mut w, m)
}

/// Loads a sparse matrix from a file.
pub fn load_sparse(path: impl AsRef<Path>) -> Result<SparseMat, ReadError> {
    let mut r = BufReader::new(File::open(path)?);
    read_sparse(&mut r)
}

/// Saves a dense matrix to a file.
pub fn save_dense(path: impl AsRef<Path>, m: &Mat) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    write_dense(&mut w, m)
}

/// Loads a dense matrix from a file.
pub fn load_dense(path: impl AsRef<Path>) -> Result<Mat, ReadError> {
    let mut r = BufReader::new(File::open(path)?);
    read_dense(&mut r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Prng;

    #[test]
    fn sparse_roundtrip() {
        let m = SparseMat::from_triplets(
            4,
            5,
            &[(0, 1, 2.5), (2, 4, -1.0), (3, 0, 1e-12), (3, 3, 7.25)],
        );
        let mut buf = Vec::new();
        write_sparse(&mut buf, &m).unwrap();
        let back = read_sparse(&mut buf.as_slice()).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn dense_roundtrip() {
        let mut rng = Prng::seed_from_u64(1);
        let m = rng.normal_mat(6, 3);
        let mut buf = Vec::new();
        write_dense(&mut buf, &m).unwrap();
        let back = read_dense(&mut buf.as_slice()).unwrap();
        assert!(m.approx_eq(&back, 0.0), "text f64 roundtrip must be exact via {{:e}}");
    }

    #[test]
    fn sparse_rejects_bad_headers_and_entries() {
        let cases: &[(&str, &str)] = &[
            ("", "empty"),
            ("not-a-header 1 2 3", "header"),
            ("spca-sparse 2 2", "nnz"),
            ("spca-sparse 2 2 1\n5 0 1.0", "out of"),
            ("spca-sparse 2 2 1\n0 0 abc", "bad value"),
            ("spca-sparse 2 2 2\n0 0 1.0", "promised 2"),
        ];
        for (text, needle) in cases {
            let e = read_sparse(&mut text.as_bytes()).unwrap_err();
            assert!(
                e.to_string().contains(needle),
                "input {text:?}: error {e} should mention {needle:?}"
            );
        }
    }

    #[test]
    fn non_finite_values_are_format_errors_naming_the_line() {
        for tok in ["NaN", "nan", "inf", "-inf", "infinity", "1e400"] {
            let sparse = format!("spca-sparse 2 2 2\n0 0 1.0\n1 1 {tok}\n");
            match read_sparse(&mut sparse.as_bytes()) {
                Err(ReadError::Format(e)) => {
                    assert_eq!(e.line, 3, "{tok}: {e}");
                    assert!(e.message.contains("non-finite"), "{tok}: {e}");
                }
                other => panic!("sparse {tok}: expected a format error, got {other:?}"),
            }
            let dense = format!("spca-dense 2 2\n1 2\n3 {tok}\n");
            match read_dense(&mut dense.as_bytes()) {
                Err(ReadError::Format(e)) => {
                    assert_eq!(e.line, 3, "{tok}: {e}");
                    assert!(e.message.contains("non-finite"), "{tok}: {e}");
                }
                other => panic!("dense {tok}: expected a format error, got {other:?}"),
            }
        }
    }

    #[test]
    fn dense_rejects_ragged_rows() {
        let text = "spca-dense 2 3\n1 2 3\n4 5";
        let e = read_dense(&mut text.as_bytes()).unwrap_err();
        assert!(e.to_string().contains("expected 3 values"));
    }

    #[test]
    fn comments_and_blank_lines_are_skipped_in_sparse() {
        let text = "spca-sparse 2 2 1\n\n# a comment\n1 1 3.0\n";
        let m = read_sparse(&mut text.as_bytes()).unwrap();
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.row(1).values, &[3.0]);
    }

    #[test]
    fn file_helpers_roundtrip() {
        let dir = std::env::temp_dir().join("spca-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.sm");
        let m = SparseMat::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, 2.0)]);
        save_sparse(&path, &m).unwrap();
        let back = load_sparse(&path).unwrap();
        assert_eq!(m, back);
        std::fs::remove_file(&path).ok();
    }
}
