//! Delta snapshots: the durable form of one applied update batch.
//!
//! A [`Delta`] records everything needed to move a servable state
//! `(graph, estimate)` forward by one batch — and to *prove* it moved to
//! the right place:
//!
//! * the [`state_fingerprint`] of the base state it applies to,
//! * the canonical [`UpdateBatch`],
//! * the estimate rows that changed (whether repaired row-by-row or taken
//!   from a full rebuild),
//! * the fingerprint of the resulting state.
//!
//! The file form (conventionally `*.ccdelta`) uses the checksummed
//! section framing of [`cc_graph::codec`] under [`MAGIC`].
//!
//! Sections: header (n, strategy, base/result fingerprints), batch (ops),
//! rows (repaired row indices + entries). Serialization is canonical.
//!
//! Every apply goes through one primitive, [`Delta::apply_in_place`]. It
//! takes the live state's kept fingerprint, so the base check is a
//! compare. It then streams the result fingerprint over the live rows with
//! the delta's rows substituted, and writes those rows in place only once
//! that fingerprint matches. So a delta can neither be applied to the
//! wrong base nor silently produce a wrong result, a rejected delta writes
//! nothing, and no successor copy of the estimate is built: a write costs
//! O(rows·n) plus one full-state hash. A landmark state's delta carries no
//! rows: the sketch is rebuilt from the new graph and its seed.
//!
//! Chains compose: [`replay`] folds `state + delta*` forward, and
//! [`compact`] collapses a chain into one equivalent delta whose batch is
//! the canonical base→final diff and whose rows carry the final values.
//! Both hash the base state once and then chain each link's verified
//! result fingerprint into the next link's base check.

use cc_apsp::landmark::LandmarkSketch;
use cc_apsp::oracle::OracleBackend;
use cc_graph::codec::{put_u64, read_sections, DecodeError, Fnv1a, Reader, SectionWriter};
use cc_graph::graph::Direction;
use cc_graph::{DistMatrix, Graph, NodeId, Weight, INF};
use cc_par::ExecPolicy;

use crate::update::{EdgeOp, UpdateBatch, UpdateError};

/// File magic: identifies a delta regardless of format version.
pub const MAGIC: [u8; 8] = *b"CCDELTA\n";

/// Current (and only) format version.
pub const FORMAT_VERSION: u32 = 1;

const SEC_HEAD: u32 = 1;
const SEC_BATCH: u32 = 2;
const SEC_ROWS: u32 = 3;

const OP_INSERT: u8 = 1;
const OP_DELETE: u8 = 2;
const OP_REWEIGHT: u8 = 3;

/// Content fingerprint of a servable state: FNV-1a word steps over a
/// canonical encoding of the graph (n, direction, sorted edge triples) and
/// the estimate (row-major entries). Two states agree iff their graphs and
/// estimates are identical, independent of how either was produced — which
/// is exactly the identity delta chains are checked against. Hashing per
/// word instead of per byte keeps the two fingerprints in every delta
/// application well under the cost of a single repaired row.
pub fn state_fingerprint(graph: &Graph, estimate: &DistMatrix) -> u64 {
    fingerprint_with_rows(graph, estimate, &[])
}

/// [`state_fingerprint`] of `graph` and `estimate` with `rows` (sorted by
/// index) standing in for the estimate's rows of the same index, streamed
/// row by row: the substituted matrix is never built.
fn fingerprint_with_rows(
    graph: &Graph,
    estimate: &DistMatrix,
    rows: &[(NodeId, Vec<Weight>)],
) -> u64 {
    let mut h = graph_hash(graph);
    let mut rows = rows.iter().peekable();
    for i in 0..estimate.n() {
        let row = match rows.next_if(|(idx, _)| *idx == i) {
            Some((_, row)) => row.as_slice(),
            None => estimate.row(i),
        };
        for &d in row {
            h.word(d);
        }
    }
    h.finish()
}

fn graph_hash(graph: &Graph) -> Fnv1a {
    let mut h = Fnv1a::default();
    h.word(graph.n() as u64).word(match graph.direction() {
        Direction::Undirected => 0,
        Direction::Directed => 1,
    });
    for (u, v, w) in graph.edges() {
        h.word(u as u64).word(v as u64).word(w);
    }
    h
}

/// Backend-aware [`state_fingerprint`]: identical to the dense fingerprint
/// for `OracleBackend::Dense` (so existing `*.ccdelta` chains and pinned
/// fixtures keep their identities), and a canonical word-wise hash of the
/// sketch's serialized content for `OracleBackend::Landmark` (prefixed with
/// a domain tag so a dense state and a landmark state can never collide by
/// construction).
pub fn backend_state_fingerprint(graph: &Graph, backend: &OracleBackend) -> u64 {
    match backend {
        OracleBackend::Dense(m) => state_fingerprint(graph, m),
        OracleBackend::Landmark(sketch) => {
            let mut h = graph_hash(graph);
            h.word(u64::from_le_bytes(*b"LANDMARK"));
            sketch.fold_words(|w| {
                h.word(w);
            });
            h.finish()
        }
    }
}

/// How the producing engine computed the delta's rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaStrategy {
    /// Only the affected rows were recomputed.
    Repaired,
    /// The whole estimate was rebuilt (the rows section still carries only
    /// the rows that changed).
    Rebuilt,
}

impl DeltaStrategy {
    /// Machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            DeltaStrategy::Repaired => "repaired",
            DeltaStrategy::Rebuilt => "rebuilt",
        }
    }
}

impl std::fmt::Display for DeltaStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One applied batch in durable, verifiable form; see the
/// [module docs](self).
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// Node count of the states this delta moves between.
    pub n: usize,
    /// How the rows were produced (provenance only; apply treats both the
    /// same).
    pub strategy: DeltaStrategy,
    /// [`state_fingerprint`] of the base state.
    pub base_fingerprint: u64,
    /// [`state_fingerprint`] of the resulting state.
    pub result_fingerprint: u64,
    /// The canonical batch that was applied.
    pub batch: UpdateBatch,
    /// Replaced estimate rows: `(row index, row values)`, sorted by index.
    pub rows: Vec<(NodeId, Vec<Weight>)>,
}

/// Everything that can go wrong reading or applying a delta.
#[derive(Debug)]
pub enum DeltaError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The format version is not [`FORMAT_VERSION`].
    UnsupportedVersion(u32),
    /// The input ended before a declared length was satisfied.
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes actually remaining.
        available: usize,
    },
    /// A section's payload does not match its stored checksum.
    ChecksumMismatch {
        /// Which section failed (`"header"`, `"batch"`, `"rows"`).
        section: &'static str,
    },
    /// Structurally invalid content.
    Malformed(String),
    /// The delta's base fingerprint does not match the state it was
    /// applied to.
    BaseMismatch {
        /// Fingerprint the delta expects.
        expected: u64,
        /// Fingerprint of the state it was given.
        actual: u64,
    },
    /// Applying the batch + rows did not land on the recorded result
    /// fingerprint (a corrupted or hand-edited rows section).
    ResultMismatch {
        /// Fingerprint the delta promises.
        expected: u64,
        /// Fingerprint actually produced.
        actual: u64,
    },
    /// The embedded batch failed validation against the base graph.
    Batch(UpdateError),
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::Io(e) => write!(f, "i/o error: {e}"),
            DeltaError::BadMagic => write!(f, "not a cc-dynamic delta (bad magic)"),
            DeltaError::UnsupportedVersion(v) => {
                write!(f, "unsupported delta format version {v}")
            }
            DeltaError::Truncated { needed, available } => {
                write!(
                    f,
                    "truncated delta: needed {needed} bytes, {available} available"
                )
            }
            DeltaError::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in {section} section")
            }
            DeltaError::Malformed(what) => write!(f, "malformed delta: {what}"),
            DeltaError::BaseMismatch { expected, actual } => write!(
                f,
                "delta applies to state {expected:016x}, got {actual:016x}"
            ),
            DeltaError::ResultMismatch { expected, actual } => write!(
                f,
                "delta promises result {expected:016x}, produced {actual:016x}"
            ),
            DeltaError::Batch(e) => write!(f, "invalid batch: {e}"),
        }
    }
}

impl std::error::Error for DeltaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DeltaError::Io(e) => Some(e),
            DeltaError::Batch(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for DeltaError {
    fn from(e: std::io::Error) -> Self {
        DeltaError::Io(e)
    }
}

impl From<UpdateError> for DeltaError {
    fn from(e: UpdateError) -> Self {
        DeltaError::Batch(e)
    }
}

impl From<DecodeError> for DeltaError {
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::BadMagic => DeltaError::BadMagic,
            DecodeError::UnsupportedVersion(v) => DeltaError::UnsupportedVersion(v),
            DecodeError::Truncated { needed, available } => {
                DeltaError::Truncated { needed, available }
            }
            DecodeError::ChecksumMismatch { section } => DeltaError::ChecksumMismatch { section },
            DecodeError::Malformed(what) => DeltaError::Malformed(what),
        }
    }
}

impl Delta {
    /// Serializes to the canonical byte form (see the [module docs](self)).
    pub fn to_bytes(&self) -> Vec<u8> {
        SectionWriter::new(&MAGIC, FORMAT_VERSION)
            .section(SEC_HEAD, |b| {
                put_u64(b, self.n as u64);
                b.push(match self.strategy {
                    DeltaStrategy::Repaired => 0,
                    DeltaStrategy::Rebuilt => 1,
                });
                put_u64(b, self.base_fingerprint);
                put_u64(b, self.result_fingerprint);
            })
            .section(SEC_BATCH, |b| {
                put_u64(b, self.batch.ops.len() as u64);
                for op in &self.batch.ops {
                    let (tag, u, v, w) = match *op {
                        EdgeOp::Insert(u, v, w) => (OP_INSERT, u, v, Some(w)),
                        EdgeOp::Delete(u, v) => (OP_DELETE, u, v, None),
                        EdgeOp::Reweight(u, v, w) => (OP_REWEIGHT, u, v, Some(w)),
                    };
                    b.push(tag);
                    put_u64(b, u as u64);
                    put_u64(b, v as u64);
                    if let Some(w) = w {
                        put_u64(b, w);
                    }
                }
            })
            .section(SEC_ROWS, |b| {
                b.reserve(8 + self.rows.len() * (8 + 8 * self.n));
                put_u64(b, self.rows.len() as u64);
                for (idx, row) in &self.rows {
                    put_u64(b, *idx as u64);
                    for &d in row {
                        put_u64(b, d);
                    }
                }
            })
            .finish()
    }

    /// Decodes a delta, validating magic, version, per-section checksums,
    /// and structural invariants.
    ///
    /// # Errors
    ///
    /// Every decoding failure maps to a specific [`DeltaError`] variant; no
    /// input panics.
    pub fn from_bytes(data: &[u8]) -> Result<Self, DeltaError> {
        let (_, [head, batch, rows]) = read_sections(
            data,
            &MAGIC,
            &[FORMAT_VERSION],
            [
                (SEC_HEAD, "header"),
                (SEC_BATCH, "batch"),
                (SEC_ROWS, "rows"),
            ],
        )?;
        let (n, strategy, base_fingerprint, result_fingerprint) = decode_head(head)?;
        Ok(Delta {
            n,
            strategy,
            base_fingerprint,
            result_fingerprint,
            batch: decode_batch(batch)?,
            rows: decode_rows(rows, n)?,
        })
    }

    /// Writes the delta to `path` atomically (see
    /// [`cc_graph::codec::write_atomic`]).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), DeltaError> {
        Ok(cc_graph::codec::write_atomic(path, &self.to_bytes())?)
    }

    /// Reads a delta from `path`.
    ///
    /// # Errors
    ///
    /// I/O and decoding errors; see [`Delta::from_bytes`].
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, DeltaError> {
        let data = std::fs::read(path)?;
        Self::from_bytes(&data)
    }

    /// Applies the delta to a live state in place. `fingerprint` is the
    /// state's [`backend_state_fingerprint`], which the caller keeps, so
    /// the base check is a compare. Everything is verified before anything
    /// is written: the shape of the rows, the batch, and the result
    /// fingerprint, streamed over the live rows with the delta's rows
    /// substituted. Only then does the state take the new graph and the
    /// delta's rows, in O(rows·n) with no copy of the estimate. On success
    /// the state's fingerprint is [`Delta::result_fingerprint`]; on any
    /// error the state is untouched.
    ///
    /// A landmark state **rebuilds its sketch** from `(new graph, sketch
    /// seed)` — sketch construction is a deterministic pure function of
    /// those two, which is why a landmark delta ships no rows.
    ///
    /// # Errors
    ///
    /// [`DeltaError::BaseMismatch`] when applied to the wrong state,
    /// [`DeltaError::Malformed`] when the node counts differ, a row index
    /// is out of range, repeated or out of order, a row is not `n` long,
    /// or a delta carrying dense rows meets a landmark state,
    /// [`DeltaError::Batch`] when the embedded batch does not validate,
    /// and [`DeltaError::ResultMismatch`] when the recorded rows do not
    /// reproduce the promised result.
    pub fn apply_in_place(
        &self,
        graph: &mut Graph,
        backend: &mut OracleBackend,
        fingerprint: u64,
    ) -> Result<(), DeltaError> {
        if fingerprint != self.base_fingerprint {
            return Err(DeltaError::BaseMismatch {
                expected: self.base_fingerprint,
                actual: fingerprint,
            });
        }
        self.check_shape(graph.n(), backend)?;
        let (new_graph, _changes) = self.batch.apply_to(graph)?;
        let mut rebuilt = None;
        let produced = match &*backend {
            OracleBackend::Dense(estimate) => {
                fingerprint_with_rows(&new_graph, estimate, &self.rows)
            }
            OracleBackend::Landmark(sketch) => {
                let sketch =
                    LandmarkSketch::build(&new_graph, sketch.seed(), ExecPolicy::from_env());
                backend_state_fingerprint(
                    &new_graph,
                    rebuilt.insert(OracleBackend::Landmark(sketch)),
                )
            }
        };
        if produced != self.result_fingerprint {
            return Err(DeltaError::ResultMismatch {
                expected: self.result_fingerprint,
                actual: produced,
            });
        }
        *graph = new_graph;
        if let Some(rebuilt) = rebuilt {
            *backend = rebuilt;
        } else if let OracleBackend::Dense(estimate) = backend {
            for (idx, row) in &self.rows {
                estimate.row_mut(*idx).copy_from_slice(row);
            }
        }
        Ok(())
    }

    /// [`Delta::apply_in_place`] on a copy of a base state whose
    /// fingerprint is not kept: hashes the base, then returns the new
    /// state. Equivalent to [`replay`] of this one delta.
    ///
    /// # Errors
    ///
    /// See [`Delta::apply_in_place`].
    pub fn apply(
        &self,
        graph: &Graph,
        backend: &OracleBackend,
    ) -> Result<(Graph, OracleBackend), DeltaError> {
        replay(graph, backend, std::slice::from_ref(self))
    }

    /// The checks that need no hashing: the node count, and rows sorted by
    /// strictly increasing index below `n`, each `n` long, and only on a
    /// dense state.
    fn check_shape(&self, n: usize, backend: &OracleBackend) -> Result<(), DeltaError> {
        if n != self.n {
            return Err(DeltaError::Malformed(format!(
                "delta is for n={}, state has n={n}",
                self.n
            )));
        }
        if backend.as_landmark().is_some() && !self.rows.is_empty() {
            return Err(DeltaError::Malformed(
                "delta carries dense rows but the state is a landmark sketch".into(),
            ));
        }
        let mut prev = None;
        for (idx, row) in &self.rows {
            check_row_index(*idx, prev, n)?;
            if row.len() != n {
                return Err(DeltaError::Malformed(format!(
                    "row {idx} has {} entries, not n={n}",
                    row.len()
                )));
            }
            prev = Some(*idx);
        }
        Ok(())
    }
}

/// Rows are listed by strictly increasing index below `n`; `prev` is the
/// index before `idx`.
fn check_row_index(idx: NodeId, prev: Option<NodeId>, n: usize) -> Result<(), DeltaError> {
    if idx >= n {
        return Err(DeltaError::Malformed(format!(
            "row index {idx} out of range for n={n}"
        )));
    }
    if prev.is_some_and(|p| p >= idx) {
        return Err(DeltaError::Malformed(
            "row indices must be strictly increasing".into(),
        ));
    }
    Ok(())
}

fn decode_head(payload: &[u8]) -> Result<(usize, DeltaStrategy, u64, u64), DeltaError> {
    let mut cur = Reader::new(payload);
    let n = cur.len_u64()?;
    let strategy = match cur.u8()? {
        0 => DeltaStrategy::Repaired,
        1 => DeltaStrategy::Rebuilt,
        other => {
            return Err(DeltaError::Malformed(format!(
                "invalid strategy byte {other}"
            )))
        }
    };
    let base = cur.u64()?;
    let result = cur.u64()?;
    cur.finish("in header section")?;
    Ok((n, strategy, base, result))
}

fn decode_batch(payload: &[u8]) -> Result<UpdateBatch, DeltaError> {
    let mut cur = Reader::new(payload);
    let count = cur.len_u64()?;
    // Cap pre-allocation by the bytes present (17 per op minimum): a lying
    // count must surface as Truncated, not a capacity panic.
    let mut ops = Vec::with_capacity(count.min(cur.remaining() / 17));
    for _ in 0..count {
        let tag = cur.u8()?;
        let u = cur.len_u64()?;
        let v = cur.len_u64()?;
        ops.push(match tag {
            OP_INSERT => EdgeOp::Insert(u, v, cur.u64()?),
            OP_DELETE => EdgeOp::Delete(u, v),
            OP_REWEIGHT => EdgeOp::Reweight(u, v, cur.u64()?),
            other => return Err(DeltaError::Malformed(format!("invalid op tag {other}"))),
        });
    }
    cur.finish("in batch section")?;
    Ok(UpdateBatch::new(ops))
}

fn decode_rows(payload: &[u8], n: usize) -> Result<Vec<(NodeId, Vec<Weight>)>, DeltaError> {
    let mut cur = Reader::new(payload);
    let count = cur.len_u64()?;
    // Saturating math: a crafted header can declare an absurd n, and the
    // per-row byte estimate must degrade to "no pre-allocation", never
    // overflow (the per-cell reads below then fail as Truncated).
    let per_row = n.saturating_mul(8).saturating_add(8);
    let mut rows = Vec::with_capacity(count.min(cur.remaining() / per_row));
    let mut prev: Option<NodeId> = None;
    for _ in 0..count {
        let idx = cur.len_u64()?;
        check_row_index(idx, prev, n)?;
        prev = Some(idx);
        let row = cur.u64s(n)?;
        if let Some(d) = row.iter().find(|&&d| d > INF) {
            return Err(DeltaError::Malformed(format!(
                "row {idx} has entry {d} > INF"
            )));
        }
        rows.push((idx, row));
    }
    cur.finish("in rows section")?;
    Ok(rows)
}

/// Replays a delta chain: folds `state + deltas` forward over one copy of
/// the state with [`Delta::apply_in_place`], verifying every link's
/// fingerprints.
///
/// # Errors
///
/// The first failing link's [`DeltaError`].
pub fn replay(
    graph: &Graph,
    backend: &OracleBackend,
    deltas: &[Delta],
) -> Result<(Graph, OracleBackend), DeltaError> {
    let (g, b, _, _) = replay_fingerprinted(graph, backend, deltas)?;
    Ok((g, b))
}

/// [`replay`], also returning the chain's base and result fingerprints:
/// the base is hashed once, and each link's verified result fingerprint is
/// the next link's base.
fn replay_fingerprinted(
    graph: &Graph,
    backend: &OracleBackend,
    deltas: &[Delta],
) -> Result<(Graph, OracleBackend, u64, u64), DeltaError> {
    let base = backend_state_fingerprint(graph, backend);
    let (mut g, mut b) = (graph.clone(), backend.clone());
    let mut fingerprint = base;
    for d in deltas {
        d.apply_in_place(&mut g, &mut b, fingerprint)?;
        fingerprint = d.result_fingerprint;
    }
    Ok((g, b, base, fingerprint))
}

/// Collapses a delta chain into one equivalent delta: the batch is the
/// canonical base→final graph diff, the fingerprints span the whole chain,
/// and for a dense state the rows are the union of the chain's row indices
/// carrying the **final** values (a landmark chain ships no rows; the
/// receiver rebuilds the sketch). `apply(base, compact(chain)) ==
/// replay(base, chain)`.
///
/// Returns the compacted delta together with the final state.
///
/// # Errors
///
/// Any replay failure; see [`replay`].
pub fn compact(
    graph: &Graph,
    backend: &OracleBackend,
    deltas: &[Delta],
) -> Result<(Delta, Graph, OracleBackend), DeltaError> {
    let (final_graph, final_backend, base_fingerprint, result_fingerprint) =
        replay_fingerprinted(graph, backend, deltas)?;
    let mut indices: Vec<NodeId> = deltas
        .iter()
        .flat_map(|d| d.rows.iter().map(|(i, _)| *i))
        .collect();
    indices.sort_unstable();
    indices.dedup();
    // Only a dense chain has row indices: `apply` rejects rows on a
    // landmark state.
    let rows: Vec<(NodeId, Vec<Weight>)> = indices
        .into_iter()
        .map(|i| (i, final_backend.dist_row(i)))
        .collect();
    let strategy = if deltas.iter().any(|d| d.strategy == DeltaStrategy::Rebuilt) {
        DeltaStrategy::Rebuilt
    } else {
        DeltaStrategy::Repaired
    };
    let delta = Delta {
        n: graph.n(),
        strategy,
        base_fingerprint,
        result_fingerprint,
        batch: UpdateBatch::diff(graph, &final_graph),
        rows,
    };
    Ok((delta, final_graph, final_backend))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_apsp::oracle::OracleBackend::Dense;
    use cc_graph::apsp;
    use cc_graph::graph::Direction;

    fn state() -> (Graph, DistMatrix) {
        let g = Graph::from_edges(
            5,
            Direction::Undirected,
            &[(0, 1, 3), (1, 2, 1), (2, 3, 4), (3, 4, 2), (0, 4, 9)],
        );
        let e = apsp::exact_apsp(&g);
        (g, e)
    }

    /// A hand-built delta moving `state()` forward by one reweight, rows
    /// recomputed exactly.
    fn sample_delta() -> (Delta, Graph, DistMatrix) {
        let (g, e) = state();
        let batch = UpdateBatch::new(vec![EdgeOp::Reweight(0, 1, 1)]).canonicalize();
        let (ng, _) = batch.apply_to(&g).unwrap();
        let ne = apsp::exact_apsp(&ng);
        let rows: Vec<(NodeId, Vec<Weight>)> = (0..5)
            .filter(|&i| e.row(i) != ne.row(i))
            .map(|i| (i, ne.row(i).to_vec()))
            .collect();
        assert!(!rows.is_empty());
        let delta = Delta {
            n: 5,
            strategy: DeltaStrategy::Repaired,
            base_fingerprint: state_fingerprint(&g, &e),
            result_fingerprint: state_fingerprint(&ng, &ne),
            batch,
            rows,
        };
        (delta, ng, ne)
    }

    #[test]
    fn round_trips_through_bytes() {
        let (delta, _, _) = sample_delta();
        let bytes = delta.to_bytes();
        let back = Delta::from_bytes(&bytes).expect("decode");
        assert_eq!(back, delta);
        assert_eq!(back.to_bytes(), bytes, "canonical form must be stable");
    }

    #[test]
    fn apply_verifies_and_produces_the_recorded_state() {
        let (delta, ng, ne) = sample_delta();
        let (g, e) = state();
        let (got_g, got_b) = delta.apply(&g, &Dense(e.clone())).expect("applies");
        assert_eq!(got_g, ng);
        assert_eq!(got_b, Dense(ne));
        // Wrong base: apply to the *result* state.
        assert!(matches!(
            delta.apply(&got_g, &got_b),
            Err(DeltaError::BaseMismatch { .. })
        ));
        // Corrupted rows: flip one value; result fingerprint must catch it.
        let mut bad = delta.clone();
        bad.rows[0].1[0] ^= 1;
        assert!(matches!(
            bad.apply(&g, &Dense(e)),
            Err(DeltaError::ResultMismatch { .. })
        ));
    }

    #[test]
    fn state_fingerprint_distinguishes_graph_and_estimate() {
        let (g, e) = state();
        let fp = state_fingerprint(&g, &e);
        let mut e2 = e.clone();
        e2.set(0, 1, 99);
        assert_ne!(fp, state_fingerprint(&g, &e2));
        let g2 = Graph::from_edges(5, Direction::Undirected, &[(0, 1, 3)]);
        assert_ne!(fp, state_fingerprint(&g2, &e));
        assert_eq!(fp, state_fingerprint(&g.clone(), &e.clone()));
    }

    #[test]
    fn bad_magic_version_and_corruption_are_typed() {
        let (delta, _, _) = sample_delta();
        let bytes = delta.to_bytes();
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(Delta::from_bytes(&bad), Err(DeltaError::BadMagic)));
        let mut bad = bytes.clone();
        bad[8] = 99;
        assert!(matches!(
            Delta::from_bytes(&bad),
            Err(DeltaError::UnsupportedVersion(99))
        ));
        let mut bad = bytes.clone();
        *bad.last_mut().unwrap() ^= 1;
        assert!(matches!(
            Delta::from_bytes(&bad),
            Err(DeltaError::ChecksumMismatch { section: "rows" })
        ));
        let mut bad = bytes;
        bad.push(0);
        assert!(matches!(
            Delta::from_bytes(&bad),
            Err(DeltaError::Malformed(_))
        ));
    }

    #[test]
    fn absurd_header_n_errors_instead_of_panicking() {
        // A correctly-checksummed frame whose header declares n = 2^61 - 1:
        // the rows decoder's pre-allocation estimate must saturate (not
        // overflow) and the decode must fail cleanly, not abort.
        let mut head = Vec::new();
        put_u64(&mut head, (1u64 << 61) - 1);
        head.push(0); // Repaired
        put_u64(&mut head, 0);
        put_u64(&mut head, 0);
        let mut batch = Vec::new();
        put_u64(&mut batch, 0);
        let mut rows = Vec::new();
        put_u64(&mut rows, 1); // one row claimed, no bytes behind it
        let bytes = SectionWriter::new(&MAGIC, FORMAT_VERSION)
            .section(SEC_HEAD, |b| b.extend_from_slice(&head))
            .section(SEC_BATCH, |b| b.extend_from_slice(&batch))
            .section(SEC_ROWS, |b| b.extend_from_slice(&rows))
            .finish();
        assert!(matches!(
            Delta::from_bytes(&bytes),
            Err(DeltaError::Truncated { .. })
        ));
    }

    #[test]
    fn row_entry_above_inf_is_malformed() {
        let (mut delta, _, _) = sample_delta();
        let (idx, row) = &mut delta.rows[0];
        row[0] = INF + 1;
        let idx = *idx;
        match Delta::from_bytes(&delta.to_bytes()) {
            Err(DeltaError::Malformed(msg)) => {
                assert!(msg.contains(&format!("row {idx}")), "{msg}")
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn every_truncation_point_errors_cleanly() {
        let (delta, _, _) = sample_delta();
        let bytes = delta.to_bytes();
        for len in 0..bytes.len() {
            let err = Delta::from_bytes(&bytes[..len]).unwrap_err();
            assert!(
                matches!(err, DeltaError::Truncated { .. }),
                "prefix of {len} bytes gave {err:?}"
            );
        }
    }

    fn landmark_state(seed: u64) -> (Graph, OracleBackend) {
        let (g, _) = state();
        let sketch = LandmarkSketch::build(&g, seed, ExecPolicy::Seq);
        (g, OracleBackend::Landmark(sketch))
    }

    /// A landmark delta: batch only, no rows; result = deterministic
    /// sketch rebuild on the updated graph.
    fn landmark_delta(
        g: &Graph,
        b: &OracleBackend,
        ops: Vec<EdgeOp>,
    ) -> (Delta, Graph, OracleBackend) {
        let seed = b.as_landmark().unwrap().seed();
        let batch = UpdateBatch::new(ops).canonicalize();
        let (ng, _) = batch.apply_to(g).unwrap();
        let nb = OracleBackend::Landmark(LandmarkSketch::build(&ng, seed, ExecPolicy::Seq));
        let delta = Delta {
            n: g.n(),
            strategy: DeltaStrategy::Rebuilt,
            base_fingerprint: backend_state_fingerprint(g, b),
            result_fingerprint: backend_state_fingerprint(&ng, &nb),
            batch,
            rows: Vec::new(),
        };
        (delta, ng, nb)
    }

    #[test]
    fn landmark_apply_rebuilds_and_verifies() {
        let (g, b) = landmark_state(42);
        let (delta, ng, nb) = landmark_delta(&g, &b, vec![EdgeOp::Reweight(0, 1, 1)]);
        let (got_g, got_b) = delta.apply(&g, &b).expect("applies");
        assert_eq!(got_g, ng);
        assert_eq!(got_b, nb);
        // Wrong base state is caught before anything is rebuilt.
        assert!(matches!(
            delta.apply(&got_g, &got_b),
            Err(DeltaError::BaseMismatch { .. })
        ));
        // A dense-rows delta cannot apply to a landmark state.
        let mut with_rows = delta.clone();
        with_rows.rows = vec![(0, vec![0; 5])];
        assert!(matches!(
            with_rows.apply(&g, &b),
            Err(DeltaError::Malformed(_))
        ));
        // A tampered result fingerprint is a ResultMismatch.
        let mut lying = delta.clone();
        lying.result_fingerprint ^= 1;
        assert!(matches!(
            lying.apply(&g, &b),
            Err(DeltaError::ResultMismatch { .. })
        ));
    }

    #[test]
    fn dense_backend_fingerprint_is_the_state_fingerprint() {
        let (g, e) = state();
        assert_eq!(
            backend_state_fingerprint(&g, &Dense(e.clone())),
            state_fingerprint(&g, &e),
            "dense backend fingerprint must equal the legacy dense fingerprint"
        );
    }

    #[test]
    fn landmark_and_dense_fingerprints_never_collide() {
        let (g, e) = state();
        let dense = OracleBackend::Dense(e);
        let (_, landmark) = landmark_state(0);
        assert_ne!(
            backend_state_fingerprint(&g, &dense),
            backend_state_fingerprint(&g, &landmark)
        );
    }

    #[test]
    fn landmark_replay_and_compact_agree() {
        let (g, b) = landmark_state(9);
        let (d1, g1, b1) = landmark_delta(&g, &b, vec![EdgeOp::Reweight(0, 1, 1)]);
        let (d2, g2, b2) = landmark_delta(
            &g1,
            &b1,
            vec![EdgeOp::Delete(0, 4), EdgeOp::Insert(1, 4, 2)],
        );
        let chain = [d1, d2];
        let (rg, rb) = replay(&g, &b, &chain).expect("replays");
        assert_eq!((&rg, &rb), (&g2, &b2));
        let (merged, cg, cb) = compact(&g, &b, &chain).expect("compacts");
        assert_eq!((&cg, &cb), (&rg, &rb));
        assert!(merged.rows.is_empty(), "landmark compaction ships no rows");
        let (ag, ab) = merged.apply(&g, &b).expect("compacted applies");
        assert_eq!((ag, ab), (rg, rb));
    }

    #[test]
    fn replay_and_compact_agree() {
        let (g, e) = state();
        let (d1, g1, e1) = sample_delta();
        // A second hand-built delta on top of the first.
        let batch = UpdateBatch::new(vec![EdgeOp::Delete(0, 4), EdgeOp::Insert(1, 4, 2)]);
        let (g2, _) = batch.canonicalize().apply_to(&g1).unwrap();
        let e2 = apsp::exact_apsp(&g2);
        let rows: Vec<(NodeId, Vec<Weight>)> = (0..5)
            .filter(|&i| e1.row(i) != e2.row(i))
            .map(|i| (i, e2.row(i).to_vec()))
            .collect();
        let d2 = Delta {
            n: 5,
            strategy: DeltaStrategy::Repaired,
            base_fingerprint: state_fingerprint(&g1, &e1),
            result_fingerprint: state_fingerprint(&g2, &e2),
            batch: batch.canonicalize(),
            rows,
        };
        let chain = [d1, d2];
        let b = Dense(e);
        let (rg, rb) = replay(&g, &b, &chain).expect("replays");
        assert_eq!(
            backend_state_fingerprint(&rg, &rb),
            state_fingerprint(&g2, &e2)
        );
        let (merged, cg, cb) = compact(&g, &b, &chain).expect("compacts");
        assert_eq!((&cg, &cb), (&rg, &rb));
        let (ag, ab) = merged.apply(&g, &b).expect("compacted delta applies");
        assert_eq!((ag, ab), (rg, rb));
        // Empty chain compacts to the identity delta.
        let (id, ig, ib) = compact(&g, &b, &[]).expect("identity");
        assert!(id.batch.is_empty() && id.rows.is_empty());
        assert_eq!(id.base_fingerprint, id.result_fingerprint);
        assert_eq!((ig, ib), (g, b));
    }
}
