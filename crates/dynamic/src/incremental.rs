//! Incremental oracle maintenance: apply an [`UpdateBatch`] to a servable
//! `(graph, estimate)` state without rebuilding it.
//!
//! # The exact write path
//!
//! For an **exact** estimate `d` on an undirected graph, the batch's changed
//! edges split into *worsened* ones (an increase or a delete) and *improved*
//! ones (a decrease or an insert). Two steps, neither of which squares,
//! carry `d_old` to `d_new`:
//!
//! 1. **Repair the rows the worsened edges can lengthen.** A distance
//!    `d(s,t)` can grow only if every old shortest path used a worsened edge
//!    `{u, v}` at its old weight, and then
//!    `d_old(s,u) + w_old + d_old(v,t) = d_old(s,t)` in some orientation.
//!    That test runs on the old estimate, for the worsened edges only. It is
//!    conservative, since a tie through the edge also flags `s`. Flagged
//!    rows are recomputed by Dijkstra on the new graph
//!    ([`cc_graph::apsp::exact_rows_with`]).
//! 2. **Fold each improved edge** `{u, v}` with new weight `w` over the
//!    whole matrix, in O(n²):
//!    `M(x,y) ← min(M(x,y), M(x,u) + w + M(v,y), M(x,v) + w + M(u,y))`.
//!    The fold runs in parallel row blocks against copies of rows `u`
//!    and `v`.
//!
//! Both steps write the live matrix in place. Only the flagged rows' old
//! values are kept, swapped out as Dijkstra's rows go in, and each fold
//! reports the rows it lowers. The delta's rows are the flagged rows that
//! differ from their kept values plus the rows a fold lowered (a fold
//! never raises an entry, so a lowered row always differs). So a write
//! copies no matrix and diffs no other row; one full-state hash refreshes
//! the fingerprint.
//!
//! **Why the result is exact.** Let `d_W` be the distances of the old graph
//! with only the worsened changes applied. Unflagged rows equal `d_W`, and
//! flagged rows equal `d_new`. Since `d_new ≤ d_W`, every entry lies
//! between the two. Let `L_i` be the distances once the first `i` improved
//! edges are applied on top of the worsened ones, so `L_0 = d_W` and the
//! last one is `d_new`. A shortest path crosses a new edge at most once, so
//! the fold carries `L_(i-1)` exactly to `L_i`. The fold is monotone, so
//! the matrix stays `≤ L_i`. By the triangle inequality in the new graph,
//! no fold term is below `d_new`, so the matrix stays `≥ d_new`. After the
//! last fold, `d_new ≤ M ≤ d_new`: the estimate is **bit-identical** to a
//! from-scratch build on the new graph, the invariant
//! `tests/dynamic_props.rs` pins across graph families, thread counts and
//! kernel modes.
//!
//! **Overflow.** Every operand is an estimate entry, at most
//! `INF = u64::MAX / 4`, or an edge weight of at most `INF`: batch weights
//! are validated below it, and old weights are clamped to it. So a sum of
//! three operands cannot wrap, and plain adds replace `wadd`. A sum with an
//! `INF` operand is `≥ INF`: it never beats an entry, since every entry is
//! at most `INF`, and never equals a finite one.
//!
//! **Why there is no squaring.** Even a batch that flags every row costs at
//! most Dijkstra from *every* source, and on every generator family that is
//! no slower than the Censor-Hillel–Paz squaring loop a rebuild would run.
//! Graphs from `Family::generate(512, 512, seed 1)`, 2 threads of a 2-core
//! x86-64 VM, release build, median of four runs of best-of-five:
//!
//! | family | average degree | Dijkstra, all sources | squaring |
//! |---|---|---|---|
//! | gnp | 7.8 | 30 ms | 59 ms |
//! | geo | 42 | 36 ms | 40 ms |
//! | ba | 6.0 | 24 ms | 51 ms |
//! | wide | 7.8 | 30 ms | 59 ms |
//! | grid | 3.8 | 14 ms | 44 ms |
//! | pathz | 2.2 | 8 ms | 66 ms |
//!
//! Squaring wins only on denser graphs. On gnp at n = 512 the line sits
//! near average degree 35; single best-of-five runs took 56 ms against
//! 47 ms at degree 50, and 94 ms against 60 ms at degree 100. No workload
//! or generator family is on that side of the line, so the exact path has
//! no cost model and no knob.
//!
//! # Rebuilds
//!
//! Approximate estimates are pipeline artifacts whose global random
//! structure per-row repair cannot reproduce. They re-enter the pipeline
//! through [`crate::rebuild::run_algorithm`] with the original algorithm,
//! seed and config. Landmark sketches rebuild deterministically from the
//! new graph and the sketch seed.

use cc_apsp::landmark::LandmarkSketch;
use cc_apsp::oracle::OracleBackend;
use cc_graph::apsp::exact_rows_with;
use cc_graph::{DistMatrix, Graph, NodeId, Weight, INF};
use cc_matrix::engine::KernelMode;
use cc_par::ExecPolicy;
use std::sync::atomic::{AtomicBool, Ordering};

use crate::delta::{backend_state_fingerprint, Delta, DeltaStrategy};
use crate::rebuild::run_algorithm;
use crate::update::{EdgeChange, UpdateBatch, UpdateError};

/// Tuning knobs for [`IncrementalOracle`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DynamicConfig {
    /// Execution policy for the repair Dijkstras, the deterioration scan,
    /// the fold and the rebuilds. Wall-clock only.
    pub exec: ExecPolicy,
    /// Kernel dispatch for the pipelines that rebuild approximate
    /// estimates. Wall-clock only.
    pub kernel: KernelMode,
}

/// How one [`IncrementalOracle::apply`] call was executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApplyStrategy {
    /// The exact write path: Dijkstra on the rows the worsened edges can
    /// lengthen, then one fold per improved edge.
    Repaired {
        /// Rows the deterioration test flagged (and Dijkstra recomputed).
        affected: usize,
        /// Improved edges (decreases and inserts) folded over the matrix.
        folded: usize,
    },
    /// A rebuild on the post-update graph: the state is approximate (a
    /// pipeline artifact or a landmark sketch), and per-row repair cannot
    /// reproduce its global random structure bit for bit.
    Rebuilt,
}

/// The result of applying one batch.
#[derive(Debug, Clone, PartialEq)]
pub struct ApplyOutcome {
    /// Repair or rebuild, with detail.
    pub strategy: ApplyStrategy,
    /// Edges the canonical batch effectively changed.
    pub changed_edges: usize,
    /// The durable delta: canonical batch + the estimate rows that
    /// actually changed, with base/result fingerprints.
    pub delta: Delta,
}

/// Lifetime counters of one engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DynamicStats {
    /// Batches served by the exact write path.
    pub repairs: u64,
    /// Batches served by full rebuild.
    pub rebuilds: u64,
}

/// A dynamic-graph oracle: the current `(graph, estimate)` state plus the
/// machinery to move it forward by update batches.
///
/// ```
/// use cc_dynamic::incremental::{DynamicConfig, IncrementalOracle};
/// use cc_dynamic::update::{EdgeOp, UpdateBatch};
/// use cc_graph::graph::{Direction, Graph};
/// use cc_graph::apsp;
///
/// let g = Graph::from_edges(4, Direction::Undirected,
///     &[(0, 1, 5), (1, 2, 2), (2, 3, 2)]);
/// let mut oracle = IncrementalOracle::new(
///     g.clone(), apsp::exact_apsp(&g), "exact", 7, DynamicConfig::default());
///
/// // A shortcut edge appears; the engine folds it over the matrix…
/// let batch = UpdateBatch::new(vec![EdgeOp::Insert(0, 3, 1)]);
/// let outcome = oracle.apply(&batch).expect("valid batch");
///
/// // …and the result is bit-identical to recomputing from scratch.
/// assert_eq!(oracle.estimate(), &apsp::exact_apsp(oracle.graph()));
/// assert_eq!(oracle.estimate().get(0, 3), 1);
/// assert_eq!(outcome.changed_edges, 1);
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalOracle {
    graph: Graph,
    backend: OracleBackend,
    /// [`backend_state_fingerprint`] of `(graph, backend)`, refreshed
    /// whenever either changes.
    fingerprint: u64,
    algo: String,
    seed: u64,
    cfg: DynamicConfig,
    stats: DynamicStats,
}

impl IncrementalOracle {
    /// Wraps a servable dense state. `algo` and `seed` are the provenance
    /// of `estimate` (a snapshot's `meta.algo` / `meta.seed`); they
    /// determine whether repair is possible (`"exact"` only) and which
    /// pipeline a rebuild re-enters.
    ///
    /// # Panics
    ///
    /// Panics if graph and estimate dimensions differ.
    pub fn new(
        graph: Graph,
        estimate: DistMatrix,
        algo: &str,
        seed: u64,
        cfg: DynamicConfig,
    ) -> Self {
        Self::with_backend(graph, OracleBackend::Dense(estimate), algo, seed, cfg)
    }

    /// Wraps any servable backend. Landmark backends have no repair path:
    /// every effective batch rebuilds the sketch deterministically from
    /// `(new graph, sketch seed)` and ships a row-free delta.
    ///
    /// # Panics
    ///
    /// Panics if graph and backend dimensions differ.
    pub fn with_backend(
        graph: Graph,
        backend: OracleBackend,
        algo: &str,
        seed: u64,
        cfg: DynamicConfig,
    ) -> Self {
        assert_eq!(
            graph.n(),
            backend.n(),
            "incremental oracle dimension mismatch"
        );
        Self {
            fingerprint: backend_state_fingerprint(&graph, &backend),
            graph,
            backend,
            algo: algo.to_string(),
            seed,
            cfg,
            stats: DynamicStats::default(),
        }
    }

    /// The current graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The current backend.
    pub fn backend(&self) -> &OracleBackend {
        &self.backend
    }

    /// The current dense estimate.
    ///
    /// # Panics
    ///
    /// Panics if the backend is a landmark sketch; use [`Self::backend`].
    pub fn estimate(&self) -> &DistMatrix {
        self.backend
            .as_dense()
            .expect("estimate(): landmark backend has no dense matrix")
    }

    /// The algorithm the estimate came from.
    pub fn algo(&self) -> &str {
        &self.algo
    }

    /// Lifetime repair/rebuild counters.
    pub fn stats(&self) -> DynamicStats {
        self.stats
    }

    /// [`backend_state_fingerprint`] of the current state, computed once
    /// per state change rather than per call.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Whether batches can take the repair path at all: exact dense
    /// estimates on undirected graphs only (see the [module docs](self)).
    pub fn supports_repair(&self) -> bool {
        matches!(self.backend, OracleBackend::Dense(_)) && self.algo == "exact"
    }

    /// Applies a batch: validates + canonicalizes it, repairs or rebuilds,
    /// advances the state, and returns the durable [`Delta`]. The state is
    /// untouched on error.
    ///
    /// # Errors
    ///
    /// Any batch validation failure ([`UpdateError`]); also
    /// [`UpdateError::UnknownAlgorithm`] if a rebuild is needed but the
    /// provenance algorithm is not in the dispatch table.
    pub fn apply(&mut self, batch: &UpdateBatch) -> Result<ApplyOutcome, UpdateError> {
        let n = self.graph.n();
        let base_fingerprint = self.fingerprint;
        let (new_graph, changes) = batch.apply_to(&self.graph)?;
        let canonical = batch.canonicalize();
        if changes.is_empty() {
            // Identity delta; nothing to repair, no counter moves.
            return Ok(ApplyOutcome {
                strategy: ApplyStrategy::Repaired {
                    affected: 0,
                    folded: 0,
                },
                changed_edges: 0,
                delta: Delta {
                    n,
                    strategy: DeltaStrategy::Repaired,
                    base_fingerprint,
                    result_fingerprint: base_fingerprint,
                    batch: canonical,
                    rows: Vec::new(),
                },
            });
        }

        // The exact path repairs the live matrix in place and cannot fail.
        // Each rebuild is built beside the live state and assigned only
        // once it exists, so an error leaves the state intact. Every arm
        // records only the rows that actually changed: canonical, minimal,
        // and independent of which path produced them.
        let repair = self.supports_repair();
        let (strategy, rows) = match &mut self.backend {
            OracleBackend::Dense(estimate) if repair => {
                repair_exact(estimate, &new_graph, &changes, self.cfg.exec)
            }
            OracleBackend::Dense(old) => {
                // The re-entered pipeline's phase spans nest under this one.
                let mut sp = cc_obs::span("dyn-rebuild");
                sp.attr("changed_edges", changes.len() as f64);
                let (estimate, _bound, _rounds) = run_algorithm(
                    &new_graph,
                    &self.algo,
                    self.seed,
                    self.cfg.exec,
                    self.cfg.kernel,
                )?;
                let rows = (0..n)
                    .filter(|&s| estimate.row(s) != old.row(s))
                    .map(|s| (s, estimate.row(s).to_vec()))
                    .collect();
                *old = estimate;
                (ApplyStrategy::Rebuilt, rows)
            }
            OracleBackend::Landmark(sketch) => {
                // The receiver of the row-free delta rebuilds the same way;
                // see `Delta::apply_in_place`.
                let mut sp = cc_obs::span("dyn-rebuild");
                sp.attr("changed_edges", changes.len() as f64);
                *sketch = LandmarkSketch::build(&new_graph, sketch.seed(), self.cfg.exec);
                (ApplyStrategy::Rebuilt, Vec::new())
            }
        };
        self.graph = new_graph;
        self.fingerprint = backend_state_fingerprint(&self.graph, &self.backend);
        let delta_strategy = match strategy {
            ApplyStrategy::Repaired { .. } => {
                self.stats.repairs += 1;
                DeltaStrategy::Repaired
            }
            ApplyStrategy::Rebuilt => {
                self.stats.rebuilds += 1;
                DeltaStrategy::Rebuilt
            }
        };
        Ok(ApplyOutcome {
            strategy,
            changed_edges: changes.len(),
            delta: Delta {
                n,
                strategy: delta_strategy,
                base_fingerprint,
                result_fingerprint: self.fingerprint,
                batch: canonical,
                rows,
            },
        })
    }
}

/// The exact write path of the [module docs](self), in place: Dijkstra on
/// the rows the worsened edges can lengthen, then one fold per improved
/// edge. Returns the strategy and the rows that changed, with their new
/// values. Only the flagged rows' old values are kept, and the folds
/// report the rows they lower, so no copy of the matrix is made and no
/// row outside those two sets is compared.
fn repair_exact(
    estimate: &mut DistMatrix,
    new_graph: &Graph,
    changes: &[EdgeChange],
    exec: ExecPolicy,
) -> (ApplyStrategy, Vec<(NodeId, Vec<Weight>)>) {
    let n = estimate.n();
    // `apply_to` drops no-op changes, so every change is one or the other.
    let (improved, worsened): (Vec<&EdgeChange>, Vec<&EdgeChange>) =
        changes.iter().partition(|c| match (c.old, c.new) {
            (Some(w_old), Some(w_new)) => w_new < w_old,
            (w_old, _) => w_old.is_none(),
        });

    // The flagged rows, sorted, and their values before Dijkstra.
    let mut affected: Vec<NodeId> = Vec::new();
    let mut saved: Vec<Vec<Weight>> = Vec::new();
    if !worsened.is_empty() {
        let mut sp = cc_obs::span("dyn-repair");
        let old = &*estimate;
        let flags: Vec<bool> = exec.map_collect(n, |s| {
            let row_s = old.row(s);
            worsened.iter().any(|c| {
                // Base weights are not validated; one at or above INF lies
                // on no finite path, and clamping keeps the sums from wrapping.
                let w_old = c.old.expect("a worsened edge had a weight").min(INF);
                // δ_old is symmetric, so rows u and v stand in for columns.
                let (row_u, row_v) = (old.row(c.u), old.row(c.v));
                let via_uv = row_s[c.u] + w_old;
                let via_vu = row_s[c.v] + w_old;
                row_s
                    .iter()
                    .zip(row_u.iter().zip(row_v))
                    .any(|(&d_st, (&d_ut, &d_vt))| {
                        d_st < INF && (via_uv + d_vt == d_st || via_vu + d_ut == d_st)
                    })
            })
        });
        affected = (0..n).filter(|&s| flags[s]).collect();
        sp.attr("affected_rows", affected.len() as f64);
        sp.attr("worsened_edges", worsened.len() as f64);
        // Swapping the Dijkstra rows in leaves the old rows in `saved`.
        saved = exact_rows_with(new_graph, &affected, exec);
        for (&s, row) in affected.iter().zip(&mut saved) {
            row.swap_with_slice(estimate.row_mut(s));
        }
    }

    // Rows a fold lowered. Relaxed: a flag publishes no other data, and
    // `for_each_chunk_mut` joins its workers before the flags are read.
    let lowered: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
    if !improved.is_empty() {
        let mut sp = cc_obs::span("dyn-fold");
        sp.attr("folded_edges", improved.len() as f64);
        let block = exec.row_block_len(n, n);
        for c in &improved {
            let w = c.new.expect("an improved edge has a weight");
            let row_u = estimate.row(c.u).to_vec();
            let row_v = estimate.row(c.v).to_vec();
            exec.for_each_chunk_mut(estimate.raw_mut(), block, |b, chunk| {
                for (i, row) in chunk.chunks_mut(n).enumerate() {
                    // x → u → v → y and x → v → u → y, read before the row
                    // changes under them.
                    let via_uv = row[c.u] + w;
                    let via_vu = row[c.v] + w;
                    let mut lower = false;
                    for (d, (&d_uy, &d_vy)) in row.iter_mut().zip(row_u.iter().zip(&row_v)) {
                        let m = (*d).min(via_uv + d_vy).min(via_vu + d_uy);
                        lower |= m < *d;
                        *d = m;
                    }
                    if lower {
                        lowered[b * block / n + i].store(true, Ordering::Relaxed);
                    }
                }
            });
        }
    }

    // A flagged row changed iff it differs from its saved value. Any other
    // row was written only by the folds, which never raise an entry, so it
    // changed iff a fold lowered it.
    let mut saved = affected.iter().zip(&saved).peekable();
    let rows = (0..n)
        .filter(|&s| match saved.next_if(|(&a, _)| a == s) {
            Some((_, old)) => estimate.row(s) != old.as_slice(),
            None => lowered[s].load(Ordering::Relaxed),
        })
        .map(|s| (s, estimate.row(s).to_vec()))
        .collect();
    let strategy = ApplyStrategy::Repaired {
        affected: affected.len(),
        folded: improved.len(),
    };
    (strategy, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::update::{random_batch, EdgeOp, MutationProfile};
    use cc_graph::apsp::exact_apsp;
    use cc_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn exact_engine(n: usize, seed: u64, cfg: DynamicConfig) -> IncrementalOracle {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::gnp_connected(n, 0.15, 1..=20, &mut rng);
        let e = exact_apsp(&g);
        IncrementalOracle::new(g, e, "exact", seed, cfg)
    }

    #[test]
    fn repair_matches_rebuild_for_single_ops() {
        let mut oracle = exact_engine(30, 1, DynamicConfig::default());
        for batch in [
            UpdateBatch::new(vec![EdgeOp::Insert(0, 29, 1)]),
            UpdateBatch::new(vec![EdgeOp::Reweight(0, 29, 7)]),
            UpdateBatch::new(vec![EdgeOp::Delete(0, 29)]),
            // Mixed, on overlapping paths: the cheap edge 0–8 (weight 3)
            // goes, 0–3 drops from 15 to 2, and 3–8 appears, so 0 → 3 → 8
            // takes over the deleted edge's paths.
            UpdateBatch::new(vec![
                EdgeOp::Delete(0, 8),
                EdgeOp::Reweight(0, 3, 2),
                EdgeOp::Insert(3, 8, 1),
            ]),
        ] {
            oracle.apply(&batch).expect("valid batch");
            assert_eq!(
                oracle.estimate(),
                &exact_apsp(oracle.graph()),
                "batch {batch:?}"
            );
        }
        assert_eq!(oracle.stats().repairs, 4);
    }

    #[test]
    fn repair_matches_rebuild_for_random_batches() {
        let mut oracle = exact_engine(36, 2, DynamicConfig::default());
        let mut rng = StdRng::seed_from_u64(11);
        for step in 0..6 {
            let batch = random_batch(oracle.graph(), 4, MutationProfile::TopologyHeavy, &mut rng);
            let outcome = oracle.apply(&batch).expect("valid batch");
            assert_eq!(
                oracle.estimate(),
                &exact_apsp(oracle.graph()),
                "step {step} ({:?})",
                outcome.strategy
            );
        }
    }

    #[test]
    fn empty_batch_is_an_identity_delta() {
        let mut oracle = exact_engine(16, 3, DynamicConfig::default());
        let before = oracle.fingerprint();
        let outcome = oracle.apply(&UpdateBatch::default()).expect("empty ok");
        assert_eq!(outcome.changed_edges, 0);
        assert_eq!(outcome.delta.base_fingerprint, before);
        assert_eq!(outcome.delta.result_fingerprint, before);
        assert!(outcome.delta.rows.is_empty());
        assert_eq!(oracle.stats(), DynamicStats::default());
    }

    #[test]
    fn worsening_every_row_still_repairs_exactly() {
        // Every edge of a path graph is a bridge: raising the middle one
        // lengthens a distance in every row, which once forced a rebuild.
        let n = 10;
        let edges: Vec<(NodeId, NodeId, Weight)> = (0..n - 1).map(|i| (i, i + 1, 2)).collect();
        let g = Graph::from_edges(n, cc_graph::graph::Direction::Undirected, &edges);
        let old = exact_apsp(&g);
        let mut oracle =
            IncrementalOracle::new(g, old.clone(), "exact", 4, DynamicConfig::default());
        let outcome = oracle
            .apply(&UpdateBatch::new(vec![EdgeOp::Reweight(4, 5, 9)]))
            .expect("valid");
        assert_eq!(
            outcome.strategy,
            ApplyStrategy::Repaired {
                affected: n,
                folded: 0
            }
        );
        let (rebuilt, _, _) = run_algorithm(
            oracle.graph(),
            "exact",
            4,
            ExecPolicy::from_env(),
            KernelMode::from_env(),
        )
        .expect("exact runs");
        assert_eq!(oracle.estimate(), &rebuilt);
        assert_eq!(oracle.estimate(), &exact_apsp(oracle.graph()));
        // The delta carries exactly the rows that differ, here all of them.
        let diff: Vec<(NodeId, Vec<Weight>)> = (0..n)
            .filter(|&s| oracle.estimate().row(s) != old.row(s))
            .map(|s| (s, oracle.estimate().row(s).to_vec()))
            .collect();
        assert_eq!(diff.len(), n);
        assert_eq!(outcome.delta.rows, diff);
        assert_eq!(outcome.delta.strategy, DeltaStrategy::Repaired);
    }

    #[test]
    fn deleting_an_edge_weighted_at_or_above_inf_does_not_overflow() {
        let g = Graph::from_edges(
            3,
            cc_graph::graph::Direction::Undirected,
            &[(0, 1, u64::MAX), (1, 2, 1)],
        );
        let e = exact_apsp(&g);
        let mut oracle = IncrementalOracle::new(g, e, "exact", 0, DynamicConfig::default());
        let outcome = oracle
            .apply(&UpdateBatch::new(vec![EdgeOp::Delete(0, 1)]))
            .expect("valid");
        assert_eq!(oracle.estimate(), &exact_apsp(oracle.graph()));
        assert!(outcome.delta.rows.is_empty());
    }

    #[test]
    fn approximate_estimates_always_rebuild() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = generators::gnp_connected(24, 0.2, 1..=9, &mut rng);
        let (est, _, _) = run_algorithm(
            &g,
            "spanner",
            5,
            ExecPolicy::from_env(),
            KernelMode::from_env(),
        )
        .unwrap();
        let mut oracle = IncrementalOracle::new(g, est, "spanner", 5, DynamicConfig::default());
        assert!(!oracle.supports_repair());
        let batch = UpdateBatch::new(vec![EdgeOp::Insert(0, 23, 3)]);
        let outcome = oracle.apply(&batch).expect("valid");
        assert_eq!(outcome.strategy, ApplyStrategy::Rebuilt);
        // The rebuilt estimate is exactly what a fresh pipeline run gives.
        let (direct, _, _) = run_algorithm(
            oracle.graph(),
            "spanner",
            5,
            ExecPolicy::from_env(),
            KernelMode::from_env(),
        )
        .unwrap();
        assert_eq!(oracle.estimate(), &direct);
        assert_eq!(oracle.stats().rebuilds, 1);
    }

    #[test]
    fn delta_replays_onto_an_untouched_copy() {
        let mut oracle = exact_engine(26, 6, DynamicConfig::default());
        let base_graph = oracle.graph().clone();
        let base_estimate = oracle.estimate().clone();
        let batch = random_batch(
            &base_graph,
            3,
            MutationProfile::TopologyHeavy,
            &mut StdRng::seed_from_u64(17),
        );
        let outcome = oracle.apply(&batch).expect("valid");
        let (g2, b2) = outcome
            .delta
            .apply(&base_graph, &OracleBackend::Dense(base_estimate))
            .expect("replays");
        assert_eq!(&g2, oracle.graph());
        assert_eq!(b2.as_dense(), Some(oracle.estimate()));
    }

    #[test]
    fn landmark_backends_rebuild_with_row_free_replayable_deltas() {
        let mut rng = StdRng::seed_from_u64(21);
        let g = generators::gnp_connected(30, 0.15, 1..=20, &mut rng);
        let sketch = LandmarkSketch::build(&g, 9, ExecPolicy::Seq);
        let mut oracle = IncrementalOracle::with_backend(
            g.clone(),
            OracleBackend::Landmark(sketch),
            "landmark",
            9,
            DynamicConfig::default(),
        );
        assert!(!oracle.supports_repair());
        let base_graph = oracle.graph().clone();
        let base_backend = oracle.backend().clone();

        let batch = UpdateBatch::new(vec![EdgeOp::Insert(0, 29, 1), EdgeOp::Insert(5, 25, 2)]);
        let outcome = oracle.apply(&batch).expect("valid batch");
        assert_eq!(outcome.strategy, ApplyStrategy::Rebuilt);
        assert!(outcome.delta.rows.is_empty(), "sketch deltas ship no rows");
        assert_eq!(oracle.stats().rebuilds, 1);

        // The new state is exactly a fresh deterministic build…
        let expect = LandmarkSketch::build(oracle.graph(), 9, ExecPolicy::Seq);
        assert_eq!(oracle.backend(), &OracleBackend::Landmark(expect));
        // …and the delta replays onto an untouched copy of the base state.
        let (g2, b2) = outcome
            .delta
            .apply(&base_graph, &base_backend)
            .expect("replays");
        assert_eq!(&g2, oracle.graph());
        assert_eq!(&b2, oracle.backend());

        // Empty batches stay identity deltas with no counter moves.
        let before = oracle.fingerprint();
        let idle = oracle.apply(&UpdateBatch::default()).expect("empty ok");
        assert_eq!(idle.changed_edges, 0);
        assert_eq!(idle.delta.result_fingerprint, before);
        assert_eq!(oracle.stats().rebuilds, 1);
    }

    #[test]
    #[should_panic(expected = "landmark backend has no dense matrix")]
    fn estimate_accessor_panics_on_landmark_backend() {
        let g = Graph::from_edges(3, cc_graph::graph::Direction::Undirected, &[(0, 1, 1)]);
        let sketch = LandmarkSketch::build(&g, 1, ExecPolicy::Seq);
        let oracle = IncrementalOracle::with_backend(
            g,
            OracleBackend::Landmark(sketch),
            "landmark",
            1,
            DynamicConfig::default(),
        );
        let _ = oracle.estimate();
    }

    #[test]
    fn failed_batches_leave_the_state_untouched() {
        let mut oracle = exact_engine(14, 7, DynamicConfig::default());
        let before = oracle.fingerprint();
        let bad = UpdateBatch::new(vec![EdgeOp::Insert(0, 99, 1)]);
        assert!(oracle.apply(&bad).is_err());
        assert_eq!(oracle.fingerprint(), before);
        assert_eq!(oracle.stats(), DynamicStats::default());
    }

    #[test]
    fn disconnecting_updates_produce_inf_rows() {
        // A path graph cut in the middle: the far side becomes unreachable
        // and the repaired rows must say so.
        let g = Graph::from_edges(
            4,
            cc_graph::graph::Direction::Undirected,
            &[(0, 1, 1), (1, 2, 1), (2, 3, 1)],
        );
        let e = exact_apsp(&g);
        let mut oracle = IncrementalOracle::new(g, e, "exact", 0, DynamicConfig::default());
        oracle
            .apply(&UpdateBatch::new(vec![EdgeOp::Delete(1, 2)]))
            .expect("valid");
        assert_eq!(oracle.estimate(), &exact_apsp(oracle.graph()));
        assert_eq!(oracle.estimate().get(0, 3), INF);
        assert_eq!(oracle.estimate().get(0, 1), 1);

        // Rejoining the halves turns INF entries finite by the fold alone.
        let rejoined = oracle
            .apply(&UpdateBatch::new(vec![EdgeOp::Insert(0, 3, 5)]))
            .expect("valid");
        assert_eq!(
            rejoined.strategy,
            ApplyStrategy::Repaired {
                affected: 0,
                folded: 1
            }
        );
        assert_eq!(oracle.estimate(), &exact_apsp(oracle.graph()));
        assert_eq!(oracle.estimate().get(1, 2), 7);
    }
}
