//! Versioned binary snapshots: the servable artifact of a pipeline run.
//!
//! A [`Snapshot`] packages everything a query node needs — the graph, the
//! oracle backend (dense matrix or landmark sketch), and the run's
//! provenance ([`SnapshotMeta`]) — into a single self-validating file
//! (conventionally `*.ccsnap`) in the checksummed section framing of
//! [`cc_graph::codec`] under [`MAGIC`].
//!
//! Three sections are defined (graph, estimate, metadata); each carries
//! its own checksum so corruption is localized in the error. Since format
//! version 2 the estimate payload opens with a backend tag byte (`0` dense
//! matrix, `1` landmark sketch); version-1 files — always dense, no tag —
//! still load (the writer always emits the current version).
//! Serialization is canonical — the same snapshot always produces the same
//! bytes — which is what the round-trip property test (`save → load →
//! save` is bit-identical) pins down.

use cc_apsp::landmark::LandmarkSketch;
use cc_apsp::oracle::OracleBackend;
use cc_graph::codec::{put_bytes, put_u64, read_sections, DecodeError, Reader, SectionWriter};
use cc_graph::graph::{Direction, Graph};
use cc_graph::{DistMatrix, NodeId, Weight, INF};
use std::path::Path;

/// File magic: identifies a snapshot regardless of format version.
pub const MAGIC: [u8; 8] = *b"CCSNAP\0\n";

/// Current format version (tagged estimate section).
pub const FORMAT_VERSION: u32 = 2;

/// The original format: untagged, always-dense estimate section. Still
/// accepted on read; never written.
pub const LEGACY_VERSION: u32 = 1;

const SEC_GRAPH: u32 = 1;
const SEC_ESTIMATE: u32 = 2;
const SEC_META: u32 = 3;
const SECTIONS: [(u32, &str); 3] = [
    (SEC_GRAPH, "graph"),
    (SEC_ESTIMATE, "estimate"),
    (SEC_META, "meta"),
];

const BACKEND_DENSE: u8 = 0;
const BACKEND_LANDMARK: u8 = 1;

/// Provenance of the run that produced a snapshot's estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotMeta {
    /// Algorithm short-name (`thm11`, `exact`, …).
    pub algo: String,
    /// RNG seed the pipeline ran with.
    pub seed: u64,
    /// The stretch bound the run guarantees.
    pub stretch_bound: f64,
    /// Simulated Congested Clique rounds the run charged.
    pub rounds: u64,
    /// Human label of the workload (input path or generator spec).
    pub source: String,
}

/// A servable pipeline artifact: graph + oracle backend + provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// The graph queries are routed on.
    pub graph: Graph,
    /// The distance structure the oracle answers from: a dense APSP matrix
    /// or a landmark sketch.
    pub backend: OracleBackend,
    /// Provenance of the producing run.
    pub meta: SnapshotMeta,
}

/// Everything that can go wrong reading a snapshot.
#[derive(Debug)]
pub enum SnapshotError {
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
        /// Which section failed (`"graph"`, `"estimate"`, `"meta"`).
        section: &'static str,
    },
    /// Structurally invalid content (bad tag, bad dimensions, …).
    Malformed(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "i/o error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a cc-serve snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot format version {v}")
            }
            SnapshotError::Truncated { needed, available } => {
                write!(
                    f,
                    "truncated snapshot: needed {needed} bytes, {available} available"
                )
            }
            SnapshotError::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in {section} section")
            }
            SnapshotError::Malformed(what) => write!(f, "malformed snapshot: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl From<DecodeError> for SnapshotError {
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::BadMagic => SnapshotError::BadMagic,
            DecodeError::UnsupportedVersion(v) => SnapshotError::UnsupportedVersion(v),
            DecodeError::Truncated { needed, available } => {
                SnapshotError::Truncated { needed, available }
            }
            DecodeError::ChecksumMismatch { section } => {
                SnapshotError::ChecksumMismatch { section }
            }
            DecodeError::Malformed(what) => SnapshotError::Malformed(what),
        }
    }
}

impl Snapshot {
    /// Packages a graph and its estimate.
    ///
    /// # Panics
    ///
    /// Panics if the estimate dimension differs from the graph's node count.
    pub fn new(graph: Graph, estimate: DistMatrix, meta: SnapshotMeta) -> Self {
        Self::with_backend(graph, OracleBackend::Dense(estimate), meta)
    }

    /// Packages a graph and any oracle backend.
    ///
    /// # Panics
    ///
    /// Panics if the backend dimension differs from the graph's node count.
    pub fn with_backend(graph: Graph, backend: OracleBackend, meta: SnapshotMeta) -> Self {
        assert_eq!(
            graph.n(),
            backend.n(),
            "snapshot estimate dimension mismatch"
        );
        Self {
            graph,
            backend,
            meta,
        }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.graph.n()
    }

    /// The dense estimate, when the backend is dense.
    pub fn dense_estimate(&self) -> Option<&DistMatrix> {
        self.backend.as_dense()
    }

    /// Content fingerprint of the servable state (graph + backend,
    /// excluding provenance metadata): the identity the dynamic engine's
    /// `*.ccdelta` chains are anchored to. Two snapshots with the same
    /// fingerprint answer every query identically, whatever produced them.
    /// For dense backends this is exactly the pre-backend
    /// [`cc_dynamic::state_fingerprint`], so existing delta chains stay
    /// anchored.
    pub fn state_fingerprint(&self) -> u64 {
        cc_dynamic::backend_state_fingerprint(&self.graph, &self.backend)
    }

    /// Serializes to the canonical byte form (see the [module docs](self)).
    pub fn to_bytes(&self) -> Vec<u8> {
        SectionWriter::new(&MAGIC, FORMAT_VERSION)
            .section(SEC_GRAPH, |b| {
                // n, direction, edge count, (u, v, w) triples. The edge
                // list from `Graph::edges` is already deduped and sorted, so
                // rebuilding through `Graph::from_edges` reproduces the CSR
                // exactly.
                put_u64(b, self.graph.n() as u64);
                b.push(match self.graph.direction() {
                    Direction::Undirected => 0,
                    Direction::Directed => 1,
                });
                let edges = self.graph.edges();
                put_u64(b, edges.len() as u64);
                for (u, v, w) in edges {
                    put_u64(b, u as u64);
                    put_u64(b, v as u64);
                    put_u64(b, w);
                }
            })
            .section(SEC_ESTIMATE, |b| match &self.backend {
                // Dense: tag, n, then the row-major entries (the v1
                // layout, shifted one byte by the tag).
                OracleBackend::Dense(matrix) => {
                    b.reserve(1 + 8 + 8 * matrix.raw().len());
                    b.push(BACKEND_DENSE);
                    put_u64(b, matrix.n() as u64);
                    for &d in matrix.raw() {
                        put_u64(b, d);
                    }
                }
                // Landmark: tag, n, then the sketch's content words —
                // seed, landmark count L, the L ids, the L×n rows, and per
                // vertex its bunch as a count and (id, dist) pairs.
                OracleBackend::Landmark(sketch) => {
                    b.push(BACKEND_LANDMARK);
                    put_u64(b, sketch.n() as u64);
                    sketch.fold_words(|w| put_u64(b, w));
                }
            })
            .section(SEC_META, |b| {
                put_bytes(b, self.meta.algo.as_bytes());
                put_bytes(b, self.meta.source.as_bytes());
                put_u64(b, self.meta.seed);
                put_u64(b, self.meta.stretch_bound.to_bits());
                put_u64(b, self.meta.rounds);
            })
            .finish()
    }

    /// Decodes a snapshot, validating magic, version, per-section checksums,
    /// and structural invariants.
    ///
    /// # Errors
    ///
    /// Every decoding failure maps to a specific [`SnapshotError`] variant;
    /// no input panics.
    pub fn from_bytes(data: &[u8]) -> Result<Self, SnapshotError> {
        let (version, [graph, estimate, meta]) =
            read_sections(data, &MAGIC, &[FORMAT_VERSION, LEGACY_VERSION], SECTIONS)?;
        // Decode the estimate first: its node count is self-bounding (a
        // lying n fails the per-cell reads long before any n²-sized
        // allocation). The graph decoder then validates its own n against it
        // *before* building the CSR, so no length field in the file can
        // trigger an allocation bigger than the file itself.
        let backend = decode_backend(estimate, version)?;
        Ok(Snapshot {
            graph: decode_graph(graph, backend.n())?,
            backend,
            meta: decode_meta(meta)?,
        })
    }

    /// Writes the snapshot to `path` atomically (see
    /// [`cc_graph::codec::write_atomic`]).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        Ok(cc_graph::codec::write_atomic(path, &self.to_bytes())?)
    }

    /// Reads a snapshot from `path`.
    ///
    /// # Errors
    ///
    /// I/O and decoding errors; see [`Snapshot::from_bytes`].
    pub fn load(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        let data = std::fs::read(path)?;
        Self::from_bytes(&data)
    }
}

fn decode_graph(payload: &[u8], expected_n: usize) -> Result<Graph, SnapshotError> {
    let mut cur = Reader::new(payload);
    let n = cur.len_u64()?;
    if n != expected_n {
        return Err(SnapshotError::Malformed(format!(
            "graph has {n} nodes but the estimate is {expected_n}×{expected_n}"
        )));
    }
    let direction = match cur.u8()? {
        0 => Direction::Undirected,
        1 => Direction::Directed,
        other => {
            return Err(SnapshotError::Malformed(format!(
                "invalid direction byte {other}"
            )))
        }
    };
    let m = cur.len_u64()?;
    // Cap the pre-allocation by the bytes actually present (24 per edge): a
    // lying length field must surface as Truncated, not a capacity panic.
    let mut edges: Vec<(NodeId, NodeId, Weight)> = Vec::with_capacity(m.min(cur.remaining() / 24));
    for _ in 0..m {
        let u = cur.len_u64()?;
        let v = cur.len_u64()?;
        let w = cur.u64()?;
        if u >= n || v >= n {
            return Err(SnapshotError::Malformed(format!(
                "edge ({u}, {v}) out of range for n={n}"
            )));
        }
        if w >= INF {
            return Err(SnapshotError::Malformed(format!(
                "edge ({u}, {v}) has weight {w} ≥ INF"
            )));
        }
        edges.push((u, v, w));
    }
    cur.finish("in graph section")?;
    Ok(Graph::from_edges(n, direction, &edges))
}

fn decode_backend(payload: &[u8], version: u32) -> Result<OracleBackend, SnapshotError> {
    let mut cur = Reader::new(payload);
    // Version-1 estimate sections have no tag byte and are always dense.
    let tag = if version == LEGACY_VERSION {
        BACKEND_DENSE
    } else {
        cur.u8()?
    };
    let backend = match tag {
        BACKEND_DENSE => OracleBackend::Dense(decode_dense(&mut cur)?),
        BACKEND_LANDMARK => OracleBackend::Landmark(decode_landmark(&mut cur)?),
        other => {
            return Err(SnapshotError::Malformed(format!(
                "unknown oracle backend tag {other}"
            )))
        }
    };
    cur.finish("in estimate section")?;
    Ok(backend)
}

fn decode_dense(cur: &mut Reader<'_>) -> Result<DistMatrix, SnapshotError> {
    let n = cur.len_u64()?;
    let cells = n
        .checked_mul(n)
        .ok_or_else(|| SnapshotError::Malformed("estimate dimension overflows".into()))?;
    let cells = cur.u64s(cells)?;
    if let Some(i) = cells.iter().position(|&d| d > INF) {
        return Err(SnapshotError::Malformed(format!(
            "estimate entry ({}, {}) is {} > INF",
            i / n,
            i % n,
            cells[i]
        )));
    }
    Ok(DistMatrix::from_raw(n, cells))
}

fn decode_landmark(cur: &mut Reader<'_>) -> Result<LandmarkSketch, SnapshotError> {
    let n = cur.len_u64()?;
    let seed = cur.u64()?;
    let count = cur.len_u64()?;
    // Every pre-allocation below is capped by the bytes actually present,
    // so lying length fields surface as Truncated, never as capacity
    // panics or oversized allocations.
    let mut landmarks: Vec<NodeId> = Vec::with_capacity(count.min(cur.remaining() / 8));
    for _ in 0..count {
        landmarks.push(cur.len_u64()?);
    }
    let cells = count
        .checked_mul(n)
        .ok_or_else(|| SnapshotError::Malformed("landmark row length overflows".into()))?;
    let rows = cur.u64s(cells)?;
    let mut bunches: Vec<Vec<(NodeId, Weight)>> = Vec::with_capacity(n.min(cur.remaining() / 8));
    for _ in 0..n {
        let len = cur.len_u64()?;
        let mut bunch: Vec<(NodeId, Weight)> = Vec::with_capacity(len.min(cur.remaining() / 16));
        for _ in 0..len {
            let v = cur.len_u64()?;
            let d = cur.u64()?;
            bunch.push((v, d));
        }
        bunches.push(bunch);
    }
    LandmarkSketch::from_parts(n, seed, landmarks, rows, bunches)
        .map_err(|e| SnapshotError::Malformed(format!("landmark sketch: {e}")))
}

fn decode_meta(payload: &[u8]) -> Result<SnapshotMeta, SnapshotError> {
    let mut cur = Reader::new(payload);
    let algo = cur.str()?;
    let source = cur.str()?;
    let seed = cur.u64()?;
    let stretch_bound = f64::from_bits(cur.u64()?);
    let rounds = cur.u64()?;
    cur.finish("in meta section")?;
    Ok(SnapshotMeta {
        algo,
        seed,
        stretch_bound,
        rounds,
        source,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::apsp;

    fn sample() -> Snapshot {
        let g = Graph::from_edges(
            5,
            Direction::Undirected,
            &[(0, 1, 3), (1, 2, 1), (2, 3, 4), (3, 4, 2), (0, 4, 9)],
        );
        let exact = apsp::exact_apsp(&g);
        Snapshot::new(
            g,
            exact,
            SnapshotMeta {
                algo: "exact".into(),
                seed: 7,
                stretch_bound: 1.0,
                rounds: 12,
                source: "unit-test".into(),
            },
        )
    }

    #[test]
    fn round_trips_through_bytes() {
        let snap = sample();
        let bytes = snap.to_bytes();
        let back = Snapshot::from_bytes(&bytes).expect("decode");
        assert_eq!(back, snap);
        assert_eq!(back.to_bytes(), bytes, "canonical form must be stable");
    }

    #[test]
    fn round_trips_through_file() {
        let snap = sample();
        let path = std::env::temp_dir().join(format!("ccsnap_unit_{}.ccsnap", std::process::id()));
        snap.save(&path).expect("save");
        let back = Snapshot::load(&path).expect("load");
        let _ = std::fs::remove_file(&path);
        assert_eq!(back, snap);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[0] ^= 0xFF;
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(SnapshotError::BadMagic)
        ));
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[8] = 99; // version LE low byte
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(SnapshotError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn every_truncation_point_errors_cleanly() {
        let bytes = sample().to_bytes();
        for len in 0..bytes.len() {
            let err = Snapshot::from_bytes(&bytes[..len]).unwrap_err();
            assert!(
                matches!(err, SnapshotError::Truncated { .. }),
                "prefix of {len} bytes gave {err:?}"
            );
        }
    }

    #[test]
    fn flipped_payload_byte_is_a_checksum_mismatch() {
        let bytes = sample().to_bytes();
        // Flip the very last byte (inside the meta payload).
        let mut corrupt = bytes.clone();
        *corrupt.last_mut().unwrap() ^= 0x01;
        assert!(matches!(
            Snapshot::from_bytes(&corrupt),
            Err(SnapshotError::ChecksumMismatch { section: "meta" })
        ));
    }

    #[test]
    fn trailing_garbage_is_malformed() {
        let mut bytes = sample().to_bytes();
        bytes.push(0);
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(SnapshotError::Malformed(_))
        ));
    }

    /// A syntactically valid frame around arbitrary section payloads (with
    /// correct checksums), for crafting adversarial inputs.
    fn frame_v(version: u32, sections: &[(u32, Vec<u8>)]) -> Vec<u8> {
        sections
            .iter()
            .fold(SectionWriter::new(&MAGIC, version), |w, (tag, payload)| {
                w.section(*tag, |b| b.extend_from_slice(payload))
            })
            .finish()
    }

    fn frame(sections: &[(u32, Vec<u8>)]) -> Vec<u8> {
        frame_v(FORMAT_VERSION, sections)
    }

    /// The graph, estimate and meta payloads of an encoded snapshot.
    fn payloads(bytes: &[u8]) -> [Vec<u8>; 3] {
        let (_, payloads) = read_sections(bytes, &MAGIC, &[FORMAT_VERSION], SECTIONS).unwrap();
        payloads.map(<[u8]>::to_vec)
    }

    #[test]
    fn lying_length_fields_error_instead_of_panicking() {
        // A correctly-checksummed graph section declaring 2^60 edges with no
        // edge bytes behind it: must decode to Truncated, not abort trying
        // to pre-allocate the declared capacity.
        let mut lying_graph = Vec::new();
        put_u64(&mut lying_graph, 4); // n
        lying_graph.push(0); // undirected
        put_u64(&mut lying_graph, 1 << 60); // m — a lie
        let mut meta = Vec::new();
        put_bytes(&mut meta, b"x");
        put_bytes(&mut meta, b"y");
        put_u64(&mut meta, 0);
        put_u64(&mut meta, 1.0f64.to_bits());
        put_u64(&mut meta, 0);
        // A well-formed 4×4 estimate so the graph decoder's dimension check
        // passes and the lying edge count is actually reached.
        let mut ok_estimate = vec![0u8]; // dense backend tag
        put_u64(&mut ok_estimate, 4);
        for _ in 0..16 {
            put_u64(&mut ok_estimate, 0);
        }
        let bytes = frame(&[
            (SEC_GRAPH, lying_graph),
            (SEC_ESTIMATE, ok_estimate),
            (SEC_META, meta.clone()),
        ]);
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(SnapshotError::Truncated { .. })
        ));

        // Same for an estimate section declaring n = 2^31 (2^62 cells).
        let mut ok_graph = Vec::new();
        put_u64(&mut ok_graph, 4);
        ok_graph.push(0);
        put_u64(&mut ok_graph, 0);
        let mut lying_estimate = vec![0u8];
        put_u64(&mut lying_estimate, 1 << 31);
        let bytes = frame(&[
            (SEC_GRAPH, ok_graph),
            (SEC_ESTIMATE, lying_estimate),
            (SEC_META, meta.clone()),
        ]);
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(SnapshotError::Truncated { .. })
        ));

        // A graph section declaring n = 2^40 with zero edges is internally
        // consistent, but must be rejected against the estimate's (payload-
        // bounded) dimension before any n-sized allocation happens.
        let mut huge_graph = Vec::new();
        put_u64(&mut huge_graph, 1 << 40);
        huge_graph.push(0);
        put_u64(&mut huge_graph, 0);
        let mut tiny_estimate = vec![0u8];
        put_u64(&mut tiny_estimate, 1);
        put_u64(&mut tiny_estimate, 0); // the single cell
        let bytes = frame(&[
            (SEC_GRAPH, huge_graph),
            (SEC_ESTIMATE, tiny_estimate),
            (SEC_META, meta),
        ]);
        match Snapshot::from_bytes(&bytes) {
            Err(SnapshotError::Malformed(msg)) => assert!(msg.contains("nodes"), "{msg}"),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    fn landmark_sample() -> Snapshot {
        use cc_graph::generators;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(13);
        let g = generators::gnp_connected(18, 0.2, 1..=9, &mut rng);
        let sketch = LandmarkSketch::build(&g, 13, cc_par::ExecPolicy::Seq);
        Snapshot::with_backend(
            g,
            OracleBackend::Landmark(sketch),
            SnapshotMeta {
                algo: "landmark".into(),
                seed: 13,
                stretch_bound: 3.0,
                rounds: 0,
                source: "unit-test".into(),
            },
        )
    }

    #[test]
    fn landmark_snapshots_round_trip() {
        let snap = landmark_sample();
        let bytes = snap.to_bytes();
        let back = Snapshot::from_bytes(&bytes).expect("decode");
        assert_eq!(back, snap);
        assert_eq!(back.to_bytes(), bytes, "canonical form must be stable");
    }

    #[test]
    fn landmark_every_truncation_point_errors_cleanly() {
        let bytes = landmark_sample().to_bytes();
        for len in 0..bytes.len() {
            let err = Snapshot::from_bytes(&bytes[..len]).unwrap_err();
            assert!(
                matches!(err, SnapshotError::Truncated { .. }),
                "prefix of {len} bytes gave {err:?}"
            );
        }
    }

    #[test]
    fn landmark_estimate_byte_flips_are_checksum_mismatches() {
        let snap = landmark_sample();
        let clean = snap.to_bytes();
        // Flip bytes across the estimate payload, which follows the file
        // header, the graph section and its own 20-byte section header.
        let [graph, estimate, _] = payloads(&clean);
        let est_start = MAGIC.len() + 8 + (20 + graph.len()) + 20;
        let est_len = estimate.len();
        assert!(est_len > 0, "estimate section not found");
        for off in (0..est_len).step_by(97.max(est_len / 64)) {
            let mut corrupt = clean.clone();
            corrupt[est_start + off] ^= 0x01;
            assert!(
                matches!(
                    Snapshot::from_bytes(&corrupt),
                    Err(SnapshotError::ChecksumMismatch {
                        section: "estimate"
                    })
                ),
                "flip at estimate offset {off} was not caught"
            );
        }
    }

    #[test]
    fn unknown_backend_tags_are_malformed() {
        // Set the estimate payload's first byte (the backend tag) to an
        // unknown value under a valid checksum, so the tag check fires.
        let [graph, mut estimate, meta] = payloads(&sample().to_bytes());
        estimate[0] = 7;
        let bytes = frame(&[
            (SEC_GRAPH, graph),
            (SEC_ESTIMATE, estimate),
            (SEC_META, meta),
        ]);
        match Snapshot::from_bytes(&bytes) {
            Err(SnapshotError::Malformed(msg)) => assert!(msg.contains("backend tag"), "{msg}"),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn legacy_v1_dense_frames_still_decode() {
        let snap = sample();
        let v2 = snap.to_bytes();
        // Rebuild the same snapshot as a version-1 file: same graph and
        // meta payloads, estimate payload without the leading tag byte.
        let [graph, mut estimate, meta] = payloads(&v2);
        estimate.remove(0);
        let v1 = frame_v(
            LEGACY_VERSION,
            &[
                (SEC_GRAPH, graph),
                (SEC_ESTIMATE, estimate),
                (SEC_META, meta),
            ],
        );
        let back = Snapshot::from_bytes(&v1).expect("legacy decode");
        assert_eq!(back, snap);
        // Re-encoding a legacy snapshot produces the current format.
        assert_eq!(back.to_bytes(), v2);
    }

    #[test]
    fn lying_landmark_lengths_error_instead_of_panicking() {
        let mut ok_graph = Vec::new();
        put_u64(&mut ok_graph, 4);
        ok_graph.push(0);
        put_u64(&mut ok_graph, 0);
        let mut meta = Vec::new();
        put_bytes(&mut meta, b"x");
        put_bytes(&mut meta, b"y");
        put_u64(&mut meta, 0);
        put_u64(&mut meta, 3.0f64.to_bits());
        put_u64(&mut meta, 0);
        // A landmark estimate declaring 2^60 landmarks with no id bytes
        // behind it: Truncated, not an allocation blow-up.
        let mut lying = vec![1u8]; // landmark backend tag
        put_u64(&mut lying, 4); // n
        put_u64(&mut lying, 0); // seed
        put_u64(&mut lying, 1 << 60); // landmark count — a lie
        let bytes = frame(&[
            (SEC_GRAPH, ok_graph.clone()),
            (SEC_ESTIMATE, lying),
            (SEC_META, meta.clone()),
        ]);
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(SnapshotError::Truncated { .. })
        ));

        // Structurally complete but invalid content (landmark id out of
        // range) must be Malformed via the sketch validator.
        let mut bad = vec![1u8];
        put_u64(&mut bad, 4); // n
        put_u64(&mut bad, 0); // seed
        put_u64(&mut bad, 1); // one landmark
        put_u64(&mut bad, 9); // id 9 out of range for n=4
        for _ in 0..4 {
            put_u64(&mut bad, 0); // its row
        }
        for _ in 0..4 {
            put_u64(&mut bad, 0); // empty bunches
        }
        let bytes = frame(&[(SEC_GRAPH, ok_graph), (SEC_ESTIMATE, bad), (SEC_META, meta)]);
        match Snapshot::from_bytes(&bytes) {
            Err(SnapshotError::Malformed(msg)) => {
                assert!(msg.contains("landmark sketch"), "{msg}")
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn edge_weight_at_inf_is_malformed() {
        let snap = sample();
        let graph = Graph::from_edges(5, Direction::Undirected, &[(0, 1, 3), (1, 2, INF)]);
        let bytes = Snapshot { graph, ..snap }.to_bytes();
        match Snapshot::from_bytes(&bytes) {
            Err(SnapshotError::Malformed(msg)) => assert!(msg.contains("(1, 2)"), "{msg}"),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn estimate_entry_above_inf_is_malformed() {
        let snap = sample();
        let mut estimate = snap.backend.as_dense().unwrap().clone();
        // INF is a legal entry (unreachable); one past it is not.
        estimate.set(2, 4, INF);
        estimate.set(3, 1, INF + 1);
        let bytes = Snapshot::new(snap.graph, estimate, snap.meta).to_bytes();
        match Snapshot::from_bytes(&bytes) {
            Err(SnapshotError::Malformed(msg)) => assert!(msg.contains("(3, 1)"), "{msg}"),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn error_display_is_descriptive() {
        let truncated = SnapshotError::Truncated {
            needed: 8,
            available: 3,
        };
        assert!(truncated.to_string().contains("truncated"));
        assert!(SnapshotError::BadMagic.to_string().contains("magic"));
        assert!(SnapshotError::UnsupportedVersion(9)
            .to_string()
            .contains('9'));
        assert!(SnapshotError::ChecksumMismatch { section: "graph" }
            .to_string()
            .contains("graph"));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_panics_at_construction() {
        let g = Graph::from_edges(3, Direction::Undirected, &[(0, 1, 1)]);
        Snapshot::new(
            g,
            DistMatrix::infinite(4),
            SnapshotMeta {
                algo: "x".into(),
                seed: 0,
                stretch_bound: 1.0,
                rounds: 0,
                source: String::new(),
            },
        );
    }
}
