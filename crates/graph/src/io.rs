//! Plain-text graph serialization.
//!
//! The format is a line-oriented edge list, friendly to shell tooling:
//!
//! ```text
//! # comment
//! n 5
//! 0 1 10
//! 1 2 3
//! ```
//!
//! The `n <count>` header is optional; without it, the node count is
//! `max id + 1`. Used by the `ccapsp` CLI and for exchanging workloads.

use std::io::BufRead;
use std::path::Path;

use crate::graph::{Direction, Graph};
use crate::{Weight, INF};

/// Errors arising when parsing an edge-list file.
#[derive(Debug)]
pub enum ParseGraphError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed line, with its 1-based line number and content.
    Malformed(usize, String),
}

impl std::fmt::Display for ParseGraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseGraphError::Io(e) => write!(f, "i/o error: {e}"),
            ParseGraphError::Malformed(line, content) => {
                write!(f, "malformed line {line}: {content:?}")
            }
        }
    }
}

impl std::error::Error for ParseGraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseGraphError::Io(e) => Some(e),
            ParseGraphError::Malformed(..) => None,
        }
    }
}

impl From<std::io::Error> for ParseGraphError {
    fn from(e: std::io::Error) -> Self {
        ParseGraphError::Io(e)
    }
}

/// Parses an edge list from a reader.
///
/// # Errors
///
/// Returns [`ParseGraphError::Malformed`] for lines that are neither
/// comments (`#`), an `n <count>` header, nor `u v w` triples with
/// `w < INF`.
pub fn read_edge_list(
    reader: impl BufRead,
    direction: Direction,
) -> Result<Graph, ParseGraphError> {
    let mut edges: Vec<(usize, usize, Weight)> = Vec::new();
    let mut declared_n: Option<usize> = None;
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        match (parts.next(), parts.next(), parts.next(), parts.next()) {
            (Some("n"), Some(count), None, None) => {
                declared_n = count.parse().ok();
                if declared_n.is_none() {
                    return Err(ParseGraphError::Malformed(idx + 1, line));
                }
            }
            (Some(u), Some(v), Some(w), None) => match (u.parse(), v.parse(), w.parse()) {
                (Ok(u), Ok(v), Ok(w)) if w < INF => edges.push((u, v, w)),
                _ => return Err(ParseGraphError::Malformed(idx + 1, line)),
            },
            _ => return Err(ParseGraphError::Malformed(idx + 1, line)),
        }
    }
    let max_id = edges
        .iter()
        .map(|&(u, v, _)| u.max(v) + 1)
        .max()
        .unwrap_or(0);
    let n = declared_n.unwrap_or(max_id).max(max_id);
    Ok(Graph::from_edges(n, direction, &edges))
}

/// Reads an edge-list file from disk.
///
/// # Errors
///
/// I/O and parse errors; see [`read_edge_list`].
pub fn read_graph_file(
    path: impl AsRef<Path>,
    direction: Direction,
) -> Result<Graph, ParseGraphError> {
    let file = std::fs::File::open(path)?;
    read_edge_list(std::io::BufReader::new(file), direction)
}

/// Writes a graph as an edge list (with an `n` header so isolated trailing
/// nodes survive a round-trip).
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_edge_list(g: &Graph, mut writer: impl std::io::Write) -> std::io::Result<()> {
    writeln!(writer, "# congested-clique-apsp edge list")?;
    writeln!(writer, "n {}", g.n())?;
    for (u, v, w) in g.edges() {
        writeln!(writer, "{u} {v} {w}")?;
    }
    Ok(())
}

/// Writes a graph to a file.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_graph_file(g: &Graph, path: impl AsRef<Path>) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    write_edge_list(g, std::io::BufWriter::new(file))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parses_basic_edge_list() {
        let text = "# hello\nn 4\n0 1 10\n1 2 3\n";
        let g = read_edge_list(Cursor::new(text), Direction::Undirected).unwrap();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 2);
        assert_eq!(g.edge_weight(1, 2), Some(3));
    }

    #[test]
    fn infers_n_without_header() {
        let text = "0 5 1\n";
        let g = read_edge_list(Cursor::new(text), Direction::Undirected).unwrap();
        assert_eq!(g.n(), 6);
    }

    #[test]
    fn header_grows_to_fit_edges() {
        let text = "n 2\n0 9 1\n";
        let g = read_edge_list(Cursor::new(text), Direction::Undirected).unwrap();
        assert_eq!(g.n(), 10);
    }

    #[test]
    fn rejects_malformed_lines() {
        let text = "0 1\n";
        let err = read_edge_list(Cursor::new(text), Direction::Undirected).unwrap_err();
        assert!(matches!(err, ParseGraphError::Malformed(1, _)), "{err}");
        let text = "0 1 x\n";
        assert!(read_edge_list(Cursor::new(text), Direction::Undirected).is_err());
    }

    #[test]
    fn rejects_weights_at_inf() {
        let below = format!("0 1 {}\n", INF - 1);
        let g = read_edge_list(Cursor::new(below), Direction::Undirected).unwrap();
        assert_eq!(g.edge_weight(0, 1), Some(INF - 1));
        let text = format!("0 1 5\n1 2 {INF}\n");
        let err = read_edge_list(Cursor::new(text), Direction::Undirected).unwrap_err();
        assert!(matches!(err, ParseGraphError::Malformed(2, _)), "{err}");
    }

    #[test]
    fn round_trips() {
        let g = Graph::from_edges(5, Direction::Undirected, &[(0, 1, 7), (2, 4, 1), (1, 3, 9)]);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let back = read_edge_list(Cursor::new(buf), Direction::Undirected).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn directed_round_trip_preserves_orientation() {
        let g = Graph::from_edges(3, Direction::Directed, &[(2, 0, 4)]);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let back = read_edge_list(Cursor::new(buf), Direction::Directed).unwrap();
        assert_eq!(back.edge_weight(2, 0), Some(4));
        assert_eq!(back.edge_weight(0, 2), None);
    }

    #[test]
    fn empty_input_is_empty_graph() {
        let g = read_edge_list(Cursor::new(""), Direction::Undirected).unwrap();
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("cc-apsp-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.txt");
        let g = Graph::from_edges(4, Direction::Undirected, &[(0, 3, 2)]);
        write_graph_file(&g, &path).unwrap();
        let back = read_graph_file(&path, Direction::Undirected).unwrap();
        assert_eq!(g, back);
    }
}
