//! Workload trace files: record a frame's operation stream to a portable
//! text format and replay it later — the trace-driven mode every DRAM
//! simulator grows sooner or later.
//!
//! Format (one op per line, `#` comments ignored):
//!
//! ```text
//! #mcm-trace v1
//! R 0x1000 64
//! W 0x2000 64
//! ```
//!
//! Addresses are hexadecimal with an `0x` prefix (decimal also accepted),
//! lengths decimal bytes.

use std::io::{self, BufRead, Write};

use crate::error::LoadError;
use crate::traffic::LoadOp;

/// The header line identifying the format.
pub const TRACE_HEADER: &str = "#mcm-trace v1";

/// Writes `ops` to `w` in trace-file format.
pub fn write_trace<W: Write>(ops: impl IntoIterator<Item = LoadOp>, w: &mut W) -> io::Result<u64> {
    writeln!(w, "{TRACE_HEADER}")?;
    let mut n = 0u64;
    for op in ops {
        let dir = if op.write { 'W' } else { 'R' };
        writeln!(w, "{dir} {:#x} {}", op.addr, op.len)?;
        n += 1;
    }
    Ok(n)
}

fn parse_addr(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// Reads a trace from `r` lazily, one operation per `next()`: a capped
/// replay stops at its cap and never parses a line past it. A malformed or
/// unreadable line yields a line-numbered error.
pub fn read_trace<R: BufRead>(r: R) -> impl Iterator<Item = Result<LoadOp, LoadError>> {
    r.lines()
        .enumerate()
        .filter_map(|(idx, line)| parse_line(idx + 1, line).transpose())
}

/// One trace line: an operation, `None` for a blank or comment line.
fn parse_line(number: usize, line: io::Result<String>) -> Result<Option<LoadOp>, LoadError> {
    let line = line.map_err(|e| LoadError::BadParam {
        reason: format!("trace read error at line {number}: {e}"),
    })?;
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let bad = |why: &str| LoadError::BadParam {
        reason: format!("trace line {number}: {why}: '{line}'"),
    };
    let mut fields = line.split_whitespace();
    let dir = fields.next().ok_or_else(|| bad("missing direction"))?;
    let write = match dir {
        "R" | "r" => false,
        "W" | "w" => true,
        _ => return Err(bad("direction must be R or W")),
    };
    let addr = fields
        .next()
        .and_then(parse_addr)
        .ok_or_else(|| bad("bad address"))?;
    let len: u32 = fields
        .next()
        .and_then(|s| s.parse().ok())
        .filter(|&l| l > 0)
        .ok_or_else(|| bad("bad length"))?;
    if fields.next().is_some() {
        return Err(bad("trailing fields"));
    }
    Ok(Some(LoadOp { write, addr, len }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffers::FrameLayout;
    use crate::levels::HdOperatingPoint;
    use crate::traffic::FrameTraffic;
    use crate::usecase::UseCase;

    #[test]
    fn roundtrip_preserves_ops() {
        let ops = vec![
            LoadOp {
                write: false,
                addr: 0x1000,
                len: 64,
            },
            LoadOp {
                write: true,
                addr: 0x2040,
                len: 16,
            },
            LoadOp {
                write: false,
                addr: 12345,
                len: 100,
            },
        ];
        let mut buf = Vec::new();
        let n = write_trace(ops.clone(), &mut buf).unwrap();
        assert_eq!(n, 3);
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.starts_with(TRACE_HEADER));
        assert!(text.contains("R 0x1000 64"));
        let back: Vec<LoadOp> = read_trace(&buf[..]).collect::<Result<_, _>>().unwrap();
        assert_eq!(back, ops);
    }

    #[test]
    fn full_frame_roundtrip() {
        let uc = UseCase::hd(HdOperatingPoint::Hd720p30);
        let layout = FrameLayout::new(&uc, 64 << 20).unwrap();
        let ops: Vec<LoadOp> = FrameTraffic::new(&uc, &layout, 256)
            .unwrap()
            .take(10_000)
            .collect();
        let mut buf = Vec::new();
        write_trace(ops.iter().copied(), &mut buf).unwrap();
        let back: Result<Vec<LoadOp>, _> = read_trace(&buf[..]).collect();
        assert_eq!(back.unwrap(), ops);
    }

    #[test]
    fn comments_blank_lines_and_decimal_addresses_are_accepted() {
        let input = "\
#mcm-trace v1

# a comment
r 100 4
w 0X200 8
";
        let ops: Vec<LoadOp> = read_trace(input.as_bytes())
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(
            ops,
            vec![
                LoadOp {
                    write: false,
                    addr: 100,
                    len: 4
                },
                LoadOp {
                    write: true,
                    addr: 0x200,
                    len: 8
                },
            ]
        );
    }

    #[test]
    fn malformed_lines_are_rejected_with_line_numbers() {
        for (input, needle) in [
            ("X 0x0 4", "direction"),
            ("R zzz 4", "bad address"),
            ("R 0x0 0", "bad length"),
            ("R 0x0", "bad length"),
            ("R 0x0 4 extra", "trailing"),
        ] {
            let err = read_trace(input.as_bytes()).next().unwrap().unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains("line 1"), "{msg}");
            assert!(msg.contains(needle), "{msg} should mention {needle}");
        }
    }

    #[test]
    fn reading_is_lazy_and_stops_where_the_caller_stops() {
        let text = "#mcm-trace v1\nR 0x0 64\n# note\n\nW 0x40 64\nR 0x80 64\nX bad line\n";
        // The malformed line 7 lies past the ops taken: never reached.
        let ops: Vec<LoadOp> = read_trace(text.as_bytes())
            .take(3)
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(ops.len(), 3);
        assert!(ops[1].write);
        // Read on, it fails with its own line number, then the trace ends.
        let mut all = read_trace(text.as_bytes()).skip(3);
        let err = all.next().unwrap().unwrap_err().to_string();
        assert!(
            err.contains("trace line 7: direction must be R or W"),
            "{err}"
        );
        assert!(all.next().is_none());
    }
}
