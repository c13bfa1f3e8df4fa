//! Edge-update batches: the write-side input of the dynamic engine.
//!
//! An [`UpdateBatch`] is a list of [`EdgeOp`]s — `Insert`/`Delete`/
//! `Reweight` — that together declare the **final state** of the touched
//! edges relative to a base graph. A batch is not a sequential edit script:
//! after [`UpdateBatch::canonicalize`], at most one op survives per
//! unordered endpoint pair (last write wins), ops are sorted by `(u, v)`,
//! and validation happens against the base graph at apply time. That makes
//! canonicalization idempotent and order-insensitive across distinct pairs,
//! which is what keeps delta replay deterministic.
//!
//! Semantics against the base graph (all checked by
//! [`UpdateBatch::apply_to`]):
//!
//! * `Insert(u, v, w)` — the edge must be absent; afterwards present with
//!   weight `w`.
//! * `Delete(u, v)` — the edge must be present; afterwards absent.
//! * `Reweight(u, v, w)` — the edge must be present; afterwards weight `w`.
//!
//! Weights keep the paper's standing assumption: strictly positive and
//! finite. The engine is undirected-only (the serving path loads every
//! graph undirected), so endpoint pairs are normalized to `u < v`.

use cc_graph::graph::Direction;
use cc_graph::{Graph, NodeId, Weight, INF};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::{BTreeMap, HashSet};

/// One edge operation. Endpoints are an unordered pair (the engine is
/// undirected-only); [`UpdateBatch::canonicalize`] normalizes them to
/// `u < v`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeOp {
    /// Add edge `(u, v)` with weight `w`; the edge must not already exist.
    Insert(NodeId, NodeId, Weight),
    /// Remove edge `(u, v)`; the edge must exist.
    Delete(NodeId, NodeId),
    /// Set the weight of existing edge `(u, v)` to `w`.
    Reweight(NodeId, NodeId, Weight),
}

impl EdgeOp {
    /// The (un-normalized) endpoint pair.
    pub fn endpoints(&self) -> (NodeId, NodeId) {
        match *self {
            EdgeOp::Insert(u, v, _) | EdgeOp::Delete(u, v) | EdgeOp::Reweight(u, v, _) => (u, v),
        }
    }

    /// The endpoint pair normalized to `(min, max)`.
    pub fn key(&self) -> (NodeId, NodeId) {
        let (u, v) = self.endpoints();
        (u.min(v), u.max(v))
    }

    /// The same op with endpoints normalized to `(min, max)`.
    fn normalized(self) -> EdgeOp {
        let (u, v) = self.key();
        match self {
            EdgeOp::Insert(_, _, w) => EdgeOp::Insert(u, v, w),
            EdgeOp::Delete(_, _) => EdgeOp::Delete(u, v),
            EdgeOp::Reweight(_, _, w) => EdgeOp::Reweight(u, v, w),
        }
    }
}

impl std::fmt::Display for EdgeOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            EdgeOp::Insert(u, v, w) => write!(f, "insert {u} {v} {w}"),
            EdgeOp::Delete(u, v) => write!(f, "delete {u} {v}"),
            EdgeOp::Reweight(u, v, w) => write!(f, "reweight {u} {v} {w}"),
        }
    }
}

/// Everything that can make a batch invalid against a base graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateError {
    /// An op names an endpoint `>= n`.
    OutOfRange {
        /// The offending op, rendered.
        op: String,
        /// Node count of the base graph.
        n: usize,
    },
    /// An op names `u == v` (self-loops are never stored).
    SelfLoop(String),
    /// An `Insert`/`Reweight` weight is zero or not finite (`>= INF`).
    InvalidWeight(String),
    /// An `Insert` targets an edge the base graph already has.
    InsertExisting(String),
    /// A `Delete`/`Reweight` targets an edge the base graph does not have.
    MissingEdge(String),
    /// The base graph is directed; the dynamic engine is undirected-only.
    DirectedUnsupported,
    /// The rebuild path was asked for an algorithm the dispatch table does
    /// not know.
    UnknownAlgorithm(String),
    /// A textual ops file failed to parse.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        what: String,
    },
}

impl std::fmt::Display for UpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpdateError::OutOfRange { op, n } => {
                write!(f, "op {op:?} out of range for a {n}-node graph")
            }
            UpdateError::SelfLoop(op) => write!(f, "op {op:?} is a self-loop"),
            UpdateError::InvalidWeight(op) => {
                write!(f, "op {op:?} has a non-positive or non-finite weight")
            }
            UpdateError::InsertExisting(op) => {
                write!(f, "op {op:?} inserts an edge that already exists")
            }
            UpdateError::MissingEdge(op) => {
                write!(f, "op {op:?} targets an edge that does not exist")
            }
            UpdateError::DirectedUnsupported => {
                write!(f, "dynamic updates support undirected graphs only")
            }
            UpdateError::UnknownAlgorithm(a) => write!(f, "unknown algorithm {a:?}"),
            UpdateError::Parse { line, what } => write!(f, "ops file line {line}: {what}"),
        }
    }
}

impl std::error::Error for UpdateError {}

/// One edge's before/after view, produced by [`UpdateBatch::apply_to`].
/// `old == None` means inserted, `new == None` means deleted; ops that
/// change nothing (`Reweight` to the current weight) are dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeChange {
    /// Smaller endpoint.
    pub u: NodeId,
    /// Larger endpoint.
    pub v: NodeId,
    /// Weight in the base graph (`None` for an insert).
    pub old: Option<Weight>,
    /// Weight in the updated graph (`None` for a delete).
    pub new: Option<Weight>,
}

/// A batch of edge ops plus the canonicalization/validation/application
/// machinery; see the [module docs](self) for semantics.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct UpdateBatch {
    /// The ops, in declaration order (canonical order after
    /// [`UpdateBatch::canonicalize`]).
    pub ops: Vec<EdgeOp>,
}

impl UpdateBatch {
    /// A batch over the given ops.
    pub fn new(ops: Vec<EdgeOp>) -> Self {
        Self { ops }
    }

    /// Whether the batch has no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// The canonical form: endpoints normalized to `u < v`, at most one op
    /// per pair (the **last** op in declaration order wins), ops sorted by
    /// `(u, v)`. Canonicalization is idempotent, and batches touching
    /// distinct pairs canonicalize identically under any reordering.
    pub fn canonicalize(&self) -> UpdateBatch {
        let mut last: BTreeMap<(NodeId, NodeId), EdgeOp> = BTreeMap::new();
        for op in &self.ops {
            last.insert(op.key(), op.normalized());
        }
        UpdateBatch {
            ops: last.into_values().collect(),
        }
    }

    /// Validates the canonical form of this batch against `base` and
    /// applies it, returning the updated graph and the effective per-edge
    /// changes (no-op reweights are dropped; the change list is sorted by
    /// `(u, v)` like the canonical ops).
    ///
    /// # Errors
    ///
    /// Any violation of the semantics in the [module docs](self) returns
    /// the matching [`UpdateError`]; the base graph is never modified.
    pub fn apply_to(&self, base: &Graph) -> Result<(Graph, Vec<EdgeChange>), UpdateError> {
        if base.direction() != Direction::Undirected {
            return Err(UpdateError::DirectedUnsupported);
        }
        let n = base.n();
        let canonical = self.canonicalize();
        let mut changes: Vec<EdgeChange> = Vec::with_capacity(canonical.ops.len());
        for op in &canonical.ops {
            let (u, v) = op.key();
            if u == v {
                return Err(UpdateError::SelfLoop(op.to_string()));
            }
            if v >= n {
                return Err(UpdateError::OutOfRange {
                    op: op.to_string(),
                    n,
                });
            }
            let old = base.edge_weight(u, v);
            let new = match *op {
                EdgeOp::Insert(_, _, w) => {
                    if old.is_some() {
                        return Err(UpdateError::InsertExisting(op.to_string()));
                    }
                    Some(w)
                }
                EdgeOp::Reweight(_, _, w) => {
                    if old.is_none() {
                        return Err(UpdateError::MissingEdge(op.to_string()));
                    }
                    Some(w)
                }
                EdgeOp::Delete(_, _) => {
                    if old.is_none() {
                        return Err(UpdateError::MissingEdge(op.to_string()));
                    }
                    None
                }
            };
            if let Some(w) = new {
                if w == 0 || w >= INF {
                    return Err(UpdateError::InvalidWeight(op.to_string()));
                }
            }
            if old != new {
                changes.push(EdgeChange { u, v, old, new });
            }
        }
        // One O(n + m) pass over the CSR arrays; the validation above makes
        // every change a distinct in-range pair.
        let edits: Vec<(NodeId, NodeId, Option<Weight>)> =
            changes.iter().map(|c| (c.u, c.v, c.new)).collect();
        Ok((base.patched(&edits), changes))
    }

    /// The batch that turns `base` into `target` (both undirected, same
    /// `n`): the canonical diff used by delta compaction.
    ///
    /// # Panics
    ///
    /// Panics if node counts differ or either graph is directed.
    pub fn diff(base: &Graph, target: &Graph) -> UpdateBatch {
        assert_eq!(base.n(), target.n(), "diff requires equal node counts");
        assert!(
            base.direction() == Direction::Undirected
                && target.direction() == Direction::Undirected,
            "diff requires undirected graphs"
        );
        let old: BTreeMap<(NodeId, NodeId), Weight> = base
            .edges()
            .into_iter()
            .map(|(u, v, w)| ((u, v), w))
            .collect();
        let new: BTreeMap<(NodeId, NodeId), Weight> = target
            .edges()
            .into_iter()
            .map(|(u, v, w)| ((u, v), w))
            .collect();
        let mut ops = Vec::new();
        for (&(u, v), &w) in &new {
            match old.get(&(u, v)) {
                None => ops.push(EdgeOp::Insert(u, v, w)),
                Some(&ow) if ow != w => ops.push(EdgeOp::Reweight(u, v, w)),
                Some(_) => {}
            }
        }
        for &(u, v) in old.keys() {
            if !new.contains_key(&(u, v)) {
                ops.push(EdgeOp::Delete(u, v));
            }
        }
        UpdateBatch::new(ops).canonicalize()
    }

    /// Parses the textual ops format the CLI's `--ops` flag reads: one op
    /// per line (`insert u v w` / `delete u v` / `reweight u v w`), blank
    /// lines and `#` comments ignored.
    ///
    /// # Errors
    ///
    /// Returns [`UpdateError::Parse`] with the offending 1-based line.
    pub fn parse(text: &str) -> Result<UpdateBatch, UpdateError> {
        let mut ops = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = idx + 1;
            let trimmed = raw.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = trimmed.split_whitespace().collect();
            let num = |s: &str, what: &str| -> Result<u64, UpdateError> {
                s.parse().map_err(|_| UpdateError::Parse {
                    line,
                    what: format!("{what} expects a number, got {s:?}"),
                })
            };
            let op = match fields[..] {
                ["insert", u, v, w] => EdgeOp::Insert(
                    num(u, "u")? as NodeId,
                    num(v, "v")? as NodeId,
                    num(w, "w")?,
                ),
                ["delete", u, v] => EdgeOp::Delete(num(u, "u")? as NodeId, num(v, "v")? as NodeId),
                ["reweight", u, v, w] => EdgeOp::Reweight(
                    num(u, "u")? as NodeId,
                    num(v, "v")? as NodeId,
                    num(w, "w")?,
                ),
                _ => {
                    return Err(UpdateError::Parse {
                        line,
                        what: format!(
                            "expected `insert u v w`, `delete u v`, or `reweight u v w`, got {trimmed:?}"
                        ),
                    })
                }
            };
            ops.push(op);
        }
        Ok(UpdateBatch::new(ops))
    }

    /// Renders the batch in the textual format [`UpdateBatch::parse`]
    /// reads.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for op in &self.ops {
            out.push_str(&op.to_string());
            out.push('\n');
        }
        out
    }
}

/// Shape of a randomly generated mutation stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutationProfile {
    /// Mostly weight churn on existing edges (≈ 8:1:1
    /// reweight:insert:delete) — the "traffic conditions drifted" workload.
    /// Reweights perturb the current weight by a bounded multiplicative
    /// jitter (±25%, at least ±1) rather than redrawing it uniformly: local
    /// drift keeps the affected row set small.
    ReweightHeavy,
    /// Mostly structural churn (≈ 2:4:4 reweight:insert:delete) with
    /// uniformly redrawn weights — the "links come and go" workload, whose
    /// deletes routinely lengthen distances in many rows at once.
    TopologyHeavy,
}

impl MutationProfile {
    /// Parses a CLI spelling: `reweight` or `topology`.
    pub fn parse(s: &str) -> Option<MutationProfile> {
        match s.trim() {
            "reweight" => Some(MutationProfile::ReweightHeavy),
            "topology" => Some(MutationProfile::TopologyHeavy),
            _ => None,
        }
    }

    /// Machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            MutationProfile::ReweightHeavy => "reweight",
            MutationProfile::TopologyHeavy => "topology",
        }
    }

    /// `(reweight, insert, delete)` relative weights.
    fn mix(self) -> (u32, u32, u32) {
        match self {
            MutationProfile::ReweightHeavy => (8, 1, 1),
            MutationProfile::TopologyHeavy => (2, 4, 4),
        }
    }
}

impl std::fmt::Display for MutationProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A seeded random batch of `k` valid ops against `g`: each op touches a
/// distinct edge pair, weights are drawn from `1..=w_max` (the graph's max
/// weight, at least 1), and op kinds follow `profile`. Deletes are capped
/// so the batch never removes more than half the edges. The batch is a
/// pure function of `(g, k, profile, rng state)`.
pub fn random_batch(
    g: &Graph,
    k: usize,
    profile: MutationProfile,
    rng: &mut StdRng,
) -> UpdateBatch {
    let n = g.n();
    let edges = g.edges();
    let w_max = g.max_weight().max(1);
    let (rw, ins, del) = profile.mix();
    let total = rw + ins + del;
    let mut touched: HashSet<(NodeId, NodeId)> = HashSet::new();
    let mut deleted = 0usize;
    let mut ops = Vec::with_capacity(k);
    if n < 2 {
        return UpdateBatch::default();
    }
    for _ in 0..k {
        let mut placed = false;
        // Bounded retries: dense graphs can exhaust insertable pairs and
        // tiny graphs can exhaust untouched edges.
        for _ in 0..64 {
            let pick = rng.gen_range(0..total);
            if pick < rw + del && !edges.is_empty() {
                let (u, v, w) = edges[rng.gen_range(0..edges.len())];
                if touched.contains(&(u, v)) {
                    continue;
                }
                if pick >= rw {
                    if deleted * 2 >= edges.len() {
                        continue;
                    }
                    deleted += 1;
                    ops.push(EdgeOp::Delete(u, v));
                } else {
                    let nw = match profile {
                        // Bounded drift: ±25% of the current weight
                        // (at least ±1), floored at 1.
                        MutationProfile::ReweightHeavy => {
                            let span = (w / 4).max(1);
                            let delta = rng.gen_range(1..=span);
                            if rng.gen_bool(0.5) {
                                w.saturating_sub(delta).max(1)
                            } else {
                                w + delta
                            }
                        }
                        // Uniform redraw, nudged off the current weight.
                        MutationProfile::TopologyHeavy => {
                            let mut nw = rng.gen_range(1..=w_max);
                            if nw == w {
                                nw = if w == w_max { 1.max(w - 1) } else { w + 1 };
                            }
                            nw
                        }
                    };
                    if nw == w {
                        continue; // jitter landed back on the floor
                    }
                    ops.push(EdgeOp::Reweight(u, v, nw));
                }
                touched.insert((u, v));
                placed = true;
                break;
            }
            // Insert path: rejection-sample a non-edge.
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            let (u, v) = (u.min(v), u.max(v));
            if u == v || touched.contains(&(u, v)) || g.edge_weight(u, v).is_some() {
                continue;
            }
            ops.push(EdgeOp::Insert(u, v, rng.gen_range(1..=w_max)));
            touched.insert((u, v));
            placed = true;
            break;
        }
        if !placed {
            break; // graph too small/dense to place more distinct ops
        }
    }
    UpdateBatch::new(ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn base() -> Graph {
        Graph::from_edges(
            5,
            Direction::Undirected,
            &[(0, 1, 3), (1, 2, 1), (2, 3, 4), (3, 4, 2)],
        )
    }

    #[test]
    fn canonicalize_normalizes_dedupes_and_sorts() {
        let b = UpdateBatch::new(vec![
            EdgeOp::Reweight(3, 2, 9),
            EdgeOp::Insert(0, 4, 5),
            EdgeOp::Reweight(2, 3, 7), // same pair as the first op: wins
        ]);
        let c = b.canonicalize();
        assert_eq!(
            c.ops,
            vec![EdgeOp::Insert(0, 4, 5), EdgeOp::Reweight(2, 3, 7)]
        );
        assert_eq!(c.canonicalize(), c, "idempotent");
    }

    #[test]
    fn apply_insert_delete_reweight() {
        let (g, changes) = UpdateBatch::new(vec![
            EdgeOp::Insert(0, 4, 5),
            EdgeOp::Delete(2, 3),
            EdgeOp::Reweight(0, 1, 8),
        ])
        .apply_to(&base())
        .expect("valid batch");
        assert_eq!(g.edge_weight(0, 4), Some(5));
        assert_eq!(g.edge_weight(2, 3), None);
        assert_eq!(g.edge_weight(0, 1), Some(8));
        assert_eq!(g.edge_weight(3, 4), Some(2), "untouched edge survives");
        assert_eq!(changes.len(), 3);
        assert!(changes
            .windows(2)
            .all(|w| (w[0].u, w[0].v) < (w[1].u, w[1].v)));
    }

    #[test]
    fn noop_reweight_is_dropped_from_changes() {
        let (g, changes) = UpdateBatch::new(vec![EdgeOp::Reweight(0, 1, 3)])
            .apply_to(&base())
            .expect("valid");
        assert_eq!(changes, vec![]);
        assert_eq!(g, base());
    }

    #[test]
    fn validation_errors_are_typed() {
        let g = base();
        let err = |ops: Vec<EdgeOp>| UpdateBatch::new(ops).apply_to(&g).unwrap_err();
        assert!(matches!(
            err(vec![EdgeOp::Insert(0, 9, 1)]),
            UpdateError::OutOfRange { .. }
        ));
        assert!(matches!(
            err(vec![EdgeOp::Insert(2, 2, 1)]),
            UpdateError::SelfLoop(_)
        ));
        assert!(matches!(
            err(vec![EdgeOp::Insert(0, 1, 9)]),
            UpdateError::InsertExisting(_)
        ));
        assert!(matches!(
            err(vec![EdgeOp::Delete(0, 2)]),
            UpdateError::MissingEdge(_)
        ));
        assert!(matches!(
            err(vec![EdgeOp::Reweight(0, 1, 0)]),
            UpdateError::InvalidWeight(_)
        ));
        assert!(matches!(
            err(vec![EdgeOp::Insert(0, 2, INF)]),
            UpdateError::InvalidWeight(_)
        ));
        let directed = Graph::from_edges(3, Direction::Directed, &[(0, 1, 1)]);
        assert_eq!(
            UpdateBatch::new(vec![EdgeOp::Delete(0, 1)])
                .apply_to(&directed)
                .unwrap_err(),
            UpdateError::DirectedUnsupported
        );
    }

    #[test]
    fn diff_round_trips_through_apply() {
        let g = base();
        let target = Graph::from_edges(
            5,
            Direction::Undirected,
            &[(0, 1, 3), (1, 2, 6), (3, 4, 2), (0, 3, 1)],
        );
        let batch = UpdateBatch::diff(&g, &target);
        let (applied, _) = batch.apply_to(&g).expect("diff applies");
        assert_eq!(applied, target);
        assert!(UpdateBatch::diff(&g, &g).is_empty());
    }

    #[test]
    fn parse_and_render_round_trip() {
        let text = "# a comment\ninsert 0 4 5\n\ndelete 2 3\nreweight 0 1 8\n";
        let batch = UpdateBatch::parse(text).expect("parses");
        assert_eq!(batch.len(), 3);
        assert_eq!(UpdateBatch::parse(&batch.render()), Ok(batch));
        assert!(matches!(
            UpdateBatch::parse("insert 0 4"),
            Err(UpdateError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            UpdateBatch::parse("insert 0 x 4"),
            Err(UpdateError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn random_batches_are_valid_and_deterministic() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = base();
        for profile in [
            MutationProfile::ReweightHeavy,
            MutationProfile::TopologyHeavy,
        ] {
            let b = random_batch(&g, 3, profile, &mut rng);
            assert!(!b.is_empty());
            b.apply_to(&g).expect("random batch is valid");
        }
        let a = random_batch(
            &g,
            3,
            MutationProfile::ReweightHeavy,
            &mut StdRng::seed_from_u64(9),
        );
        let b = random_batch(
            &g,
            3,
            MutationProfile::ReweightHeavy,
            &mut StdRng::seed_from_u64(9),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn profile_parses_and_prints() {
        assert_eq!(
            MutationProfile::parse("reweight"),
            Some(MutationProfile::ReweightHeavy)
        );
        assert_eq!(
            MutationProfile::parse("topology"),
            Some(MutationProfile::TopologyHeavy)
        );
        assert_eq!(MutationProfile::parse("x"), None);
        assert_eq!(MutationProfile::TopologyHeavy.to_string(), "topology");
    }
}
