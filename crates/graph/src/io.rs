//! Edge-list serialisation.
//!
//! Two formats:
//!
//! * **Text** — the SNAP layout the paper's datasets ship in: one
//!   `src dst [weight]` triple per line, `#` comments ignored.
//! * **Binary** — the preprocessed on-disk form of Figure 9: a fixed 16-byte
//!   header followed by 12-byte little-endian records `(u32 src, u32 dst,
//!   f32 weight)`, supporting the strictly sequential block loads the
//!   streaming-apply model requires.

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::coo::{Edge, EdgeList};
use crate::error::GraphError;

const BINARY_MAGIC: u32 = 0x4752_4152; // "GRAR"

/// Writes a graph in SNAP-style text format.
///
/// The output starts with a comment header recording the vertex count so
/// that isolated trailing vertices survive a round trip. A `&mut` reference
/// may be passed for any `W: Write`.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_text<W: Write>(graph: &EdgeList, mut writer: W) -> Result<(), GraphError> {
    writeln!(writer, "# graphr edge list")?;
    writeln!(
        writer,
        "# nodes: {} edges: {}",
        graph.num_vertices(),
        graph.num_edges()
    )?;
    for e in graph.iter() {
        if e.weight == 1.0 {
            writeln!(writer, "{}\t{}", e.src, e.dst)?;
        } else {
            writeln!(writer, "{}\t{}\t{}", e.src, e.dst, e.weight)?;
        }
    }
    Ok(())
}

/// Reads a graph in SNAP-style text format.
///
/// Lines starting with `#` are comments; a `# nodes: N ...` comment pins the
/// vertex count, otherwise it is inferred as `max id + 1`. Fields may be
/// separated by any ASCII whitespace; a missing weight defaults to `1.0`.
/// A `&mut` reference may be passed for any `R: Read`.
///
/// # Errors
///
/// Returns [`GraphError::Parse`] on malformed lines and [`GraphError::Io`]
/// on reader failures.
pub fn read_text<R: Read>(reader: R) -> Result<EdgeList, GraphError> {
    let buf = BufReader::new(reader);
    let mut edges: Vec<Edge> = Vec::new();
    let mut declared_vertices: Option<usize> = None;
    let mut max_id: u64 = 0;
    for (idx, line) in buf.lines().enumerate() {
        let line = line?;
        let line_no = idx + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if let Some(comment) = trimmed.strip_prefix('#') {
            if let Some(rest) = comment.trim().strip_prefix("nodes:") {
                let first = rest.split_whitespace().next().unwrap_or("");
                if let Ok(n) = first.parse::<usize>() {
                    declared_vertices = Some(n);
                }
            }
            continue;
        }
        let mut fields = trimmed.split_whitespace();
        let src: u32 = parse_field(fields.next(), line_no, "source")?;
        let dst: u32 = parse_field(fields.next(), line_no, "destination")?;
        let weight: f32 = match fields.next() {
            Some(w) => w.parse().map_err(|_| GraphError::Parse {
                line: line_no,
                message: format!("invalid weight '{w}'"),
            })?,
            None => 1.0,
        };
        max_id = max_id.max(u64::from(src)).max(u64::from(dst));
        edges.push(Edge::new(src, dst, weight));
    }
    let inferred = if edges.is_empty() {
        0
    } else {
        max_id as usize + 1
    };
    let num_vertices = declared_vertices.unwrap_or(inferred).max(inferred);
    EdgeList::from_edges(num_vertices, edges)
}

fn parse_field(field: Option<&str>, line: usize, what: &str) -> Result<u32, GraphError> {
    let s = field.ok_or_else(|| GraphError::Parse {
        line,
        message: format!("missing {what} vertex"),
    })?;
    s.parse().map_err(|_| GraphError::Parse {
        line,
        message: format!("invalid {what} vertex '{s}'"),
    })
}

/// Encodes a graph into the compact binary format.
#[must_use]
pub fn to_binary(graph: &EdgeList) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16 + graph.num_edges() * crate::BYTES_PER_EDGE as usize);
    buf.extend_from_slice(&BINARY_MAGIC.to_le_bytes());
    buf.extend_from_slice(&1u32.to_le_bytes()); // format version
    buf.extend_from_slice(&(graph.num_vertices() as u32).to_le_bytes());
    buf.extend_from_slice(&(graph.num_edges() as u32).to_le_bytes());
    for e in graph.iter() {
        buf.extend_from_slice(&e.src.to_le_bytes());
        buf.extend_from_slice(&e.dst.to_le_bytes());
        buf.extend_from_slice(&e.weight.to_le_bytes());
    }
    buf
}

/// Decodes a graph from the compact binary format.
///
/// # Errors
///
/// Returns [`GraphError::Parse`] if the magic number, version, or length is
/// wrong, or if any record references an out-of-range vertex.
pub fn from_binary(data: &[u8]) -> Result<EdgeList, GraphError> {
    let parse_err = |message: &str| GraphError::Parse {
        line: 0,
        message: message.into(),
    };
    let (header, payload) = data
        .split_first_chunk::<16>()
        .ok_or_else(|| parse_err("truncated header"))?;
    let [magic, version, num_vertices, num_edges] = words(header);
    if magic != BINARY_MAGIC {
        return Err(parse_err("bad magic number"));
    }
    if version != 1 {
        return Err(parse_err("unsupported format version"));
    }
    let num_edges = num_edges as usize;
    if payload.len() != num_edges * crate::BYTES_PER_EDGE as usize {
        return Err(parse_err("edge payload length mismatch"));
    }
    let edges = payload
        .chunks_exact(crate::BYTES_PER_EDGE as usize)
        .map(|record| {
            let [src, dst, weight] = words(record);
            Edge::new(src, dst, f32::from_bits(weight))
        })
        .collect();
    EdgeList::from_edges(num_vertices as usize, edges)
}

/// The first `N` little-endian `u32` words of `bytes`, which holds at least
/// `4 * N` bytes.
fn words<const N: usize>(bytes: &[u8]) -> [u32; N] {
    let (chunks, _) = bytes.as_chunks::<4>();
    std::array::from_fn(|i| u32::from_le_bytes(chunks[i]))
}

/// Writes a graph to a SNAP-style text file at `path`.
///
/// # Errors
///
/// Propagates file-creation and write errors.
pub fn write_text_file<P: AsRef<Path>>(graph: &EdgeList, path: P) -> Result<(), GraphError> {
    let file = File::create(path)?;
    write_text(graph, BufWriter::new(file))
}

/// Reads a graph from a SNAP-style text file at `path`.
///
/// # Errors
///
/// Returns [`GraphError::Io`] if the file cannot be opened and
/// [`GraphError::Parse`] on malformed content.
pub fn read_text_file<P: AsRef<Path>>(path: P) -> Result<EdgeList, GraphError> {
    read_text(File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::rmat::Rmat;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// The bytes text edge lists are made of, so fuzzed text reaches the
    /// field parsers instead of failing UTF-8 decoding.
    const TEXT_ALPHABET: &[u8] = b"0123456789 \t\n#.-e:nodesinf";

    /// A graph on `n` vertices from raw `(src, dst, weight)` triples, ids
    /// folded into range.
    fn graph_from(n: u32, edges: Vec<(u32, u32, f32)>) -> EdgeList {
        let edges = edges
            .into_iter()
            .map(|(s, d, w)| Edge::new(s % n, d % n, w))
            .collect();
        EdgeList::from_edges(n as usize, edges).unwrap()
    }

    /// Both readers over `bytes`: each returns `Ok` or `Err`, and a binary
    /// input it accepts re-encodes to exactly the same bytes.
    fn read_both(bytes: &[u8]) {
        if let Ok(g) = from_binary(bytes) {
            assert_eq!(to_binary(&g), bytes);
        }
        let _ = read_text(bytes);
    }

    proptest! {
        #[test]
        fn readers_never_panic_on_arbitrary_bytes(
            bytes in vec(0u8..=255, 0..96),
            text in vec(0..TEXT_ALPHABET.len(), 0..96),
        ) {
            read_both(&bytes);
            let text: Vec<u8> = text.into_iter().map(|i| TEXT_ALPHABET[i]).collect();
            read_both(&text);
        }

        #[test]
        fn readers_never_panic_on_corrupted_encodings(
            n in 1u32..32,
            edges in vec((0u32..32, 0u32..32, 0.0f32..16.0), 0..12),
            flips in vec((0usize..4096, 1u8..=255), 0..4),
            cut in 0usize..4096,
        ) {
            let g = graph_from(n, edges);
            let mut text = Vec::new();
            write_text(&g, &mut text).unwrap();
            for mut bytes in [to_binary(&g), text] {
                for &(at, mask) in &flips {
                    let len = bytes.len();
                    bytes[at % len] ^= mask;
                }
                read_both(&bytes);
                read_both(&bytes[..cut % (bytes.len() + 1)]);
            }
        }

        #[test]
        fn binary_round_trips_generated_graphs(
            n in 1u32..64,
            edges in vec((0u32..64, 0u32..64, 0.0f32..16.0), 0..40),
        ) {
            let g = graph_from(n, edges);
            prop_assert_eq!(from_binary(&to_binary(&g)).unwrap(), g);
        }
    }

    #[test]
    fn text_round_trip_preserves_graph() {
        let g = Rmat::new(64, 200).seed(3).max_weight(8).generate();
        let mut out = Vec::new();
        write_text(&g, &mut out).unwrap();
        let back = read_text(out.as_slice()).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn text_reader_accepts_snap_style_input() {
        let input = "# Directed graph\n# Nodes here are fake\n0\t1\n1 2 2.5\n\n2\t0\n";
        let g = read_text(input.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.edges()[1].weight, 2.5);
    }

    #[test]
    fn declared_node_count_preserves_isolated_vertices() {
        let input = "# nodes: 10 edges: 1\n0 1\n";
        let g = read_text(input.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 10);
    }

    #[test]
    fn text_parse_errors_carry_line_numbers() {
        let err = read_text("0 1\nxyz 2\n".as_bytes()).unwrap_err();
        match err {
            GraphError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other}"),
        }
        let err = read_text("0\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("destination"));
    }

    #[test]
    fn binary_round_trip_preserves_graph() {
        let g = Rmat::new(128, 500).seed(5).max_weight(16).generate();
        let bytes = to_binary(&g);
        assert_eq!(bytes.len(), 16 + 500 * 12);
        let back = from_binary(&bytes).unwrap();
        assert_eq!(back, g);
    }

    /// The exact bytes of a small weighted graph: a round trip cannot catch
    /// a format change, because encoder and decoder would change together.
    #[test]
    fn binary_bytes_are_pinned() {
        let g = EdgeList::from_edges(3, vec![Edge::new(0, 1, 2.5), Edge::new(2, 0, 0.5)]).unwrap();
        let expected = [
            [0x52, 0x41, 0x52, 0x47], // magic "GRAR"
            [0x01, 0x00, 0x00, 0x00], // version 1
            [0x03, 0x00, 0x00, 0x00], // 3 vertices
            [0x02, 0x00, 0x00, 0x00], // 2 edges
            [0x00, 0x00, 0x00, 0x00], // src 0
            [0x01, 0x00, 0x00, 0x00], // dst 1
            [0x00, 0x00, 0x20, 0x40], // weight 2.5
            [0x02, 0x00, 0x00, 0x00], // src 2
            [0x00, 0x00, 0x00, 0x00], // dst 0
            [0x00, 0x00, 0x00, 0x3F], // weight 0.5
        ]
        .concat();
        assert_eq!(to_binary(&g), expected);
    }

    #[test]
    fn binary_rejects_corruption() {
        let g = Rmat::new(16, 10).seed(1).generate();
        let bytes = to_binary(&g);
        assert!(from_binary(&bytes[..8]).is_err());
        let mut bad_magic = bytes.to_vec();
        bad_magic[0] ^= 0xFF;
        assert!(from_binary(&bad_magic).is_err());
        let truncated = &bytes[..bytes.len() - 4];
        assert!(from_binary(truncated).is_err());
    }

    #[test]
    fn file_round_trip() {
        let g = Rmat::new(32, 100).seed(9).max_weight(4).generate();
        let path = std::env::temp_dir().join(format!("graphr-io-test-{}.txt", std::process::id()));
        write_text_file(&g, &path).unwrap();
        let back = read_text_file(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back, g);
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = read_text_file("/definitely/not/a/real/path.txt").unwrap_err();
        assert!(matches!(err, GraphError::Io(_)));
    }

    #[test]
    fn empty_graph_round_trips_both_formats() {
        let g = EdgeList::new(5);
        let mut out = Vec::new();
        write_text(&g, &mut out).unwrap();
        assert_eq!(read_text(out.as_slice()).unwrap(), g);
        assert_eq!(from_binary(&to_binary(&g)).unwrap(), g);
    }
}
