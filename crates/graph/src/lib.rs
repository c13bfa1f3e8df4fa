#![warn(missing_docs)]

//! Weighted graph substrate for the Congested Clique APSP reproduction.
//!
//! This crate provides everything the distributed algorithms in
//! [`cc-apsp`](../cc_apsp/index.html) need from a graph library, built from
//! scratch:
//!
//! * [`Graph`] — a compact CSR (compressed sparse row) weighted graph, either
//!   directed or undirected, with positive integer weights.
//! * [`generators`] — deterministic random graph families used as workloads
//!   (Erdős–Rényi, random geometric, preferential attachment, grids, paths
//!   with chords) and weight distributions.
//! * [`sssp`] — exact single-source shortest paths (Dijkstra, hop-limited
//!   Bellman–Ford, lexicographic (distance, hops) Dijkstra) used both inside
//!   the simulated nodes' local computations and as ground truth.
//! * [`apsp`] — exact all-pairs shortest paths (all-sources Dijkstra and
//!   Floyd–Warshall) producing a [`DistMatrix`].
//! * [`dist`] — the distance-matrix type and stretch auditing
//!   ([`StretchStats`]) used by every experiment.
//! * [`unionfind`], [`mst`], [`components`] — supporting structures for the
//!   zero-weight reduction (Theorem 2.1 of the paper) and generators.
//! * [`codec`] — the byte codec (FNV-1a, bounded reader, checksummed
//!   sections, atomic file writes) under every binary format downstream.
//!
//! # Example
//!
//! ```
//! use cc_graph::{generators, apsp, Weight};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let g = generators::gnp_connected(64, 0.1, 1..=100, &mut rng);
//! let exact = apsp::exact_apsp(&g);
//! assert_eq!(exact.get(3, 3), 0);
//! assert!(exact.get(0, 63) < cc_graph::INF);
//! ```

pub mod apsp;
pub mod codec;
pub mod components;
pub mod dist;
pub mod generators;
pub mod graph;
pub mod hops;
pub mod io;
pub mod mst;
pub mod sssp;
pub mod unionfind;

pub use dist::{DistMatrix, StretchStats};
pub use graph::{Graph, GraphBuilder};

/// Edge weight / distance type used across the whole workspace.
///
/// Weights are positive integers bounded by a polynomial in `n`, as assumed in
/// Section 2.1 of the paper; distances fit comfortably in 64 bits.
pub type Weight = u64;

/// Node identifier. The paper assumes IDs are `{1, ..., n}` after renaming; we
/// use `{0, ..., n-1}`.
pub type NodeId = usize;

/// The "infinite" distance sentinel.
///
/// Chosen as `u64::MAX / 4` so that adding two non-infinite distances, or an
/// `INF` and a finite weight, never wraps. Use [`wadd`] for semiring addition.
pub const INF: Weight = u64::MAX / 4;

/// Saturating min-plus semiring addition: `INF` absorbs.
///
/// ```
/// use cc_graph::{wadd, INF};
/// assert_eq!(wadd(2, 3), 5);
/// assert_eq!(wadd(INF, 3), INF);
/// assert_eq!(wadd(INF, INF), INF);
/// ```
#[inline]
pub fn wadd(a: Weight, b: Weight) -> Weight {
    if a >= INF || b >= INF {
        INF
    } else {
        a + b
    }
}

/// Integer base-2 logarithm, rounded up, of `n.max(2)`; the `log n` that
/// appears in all the paper's bounds.
///
/// ```
/// use cc_graph::log2_ceil;
/// assert_eq!(log2_ceil(1), 1);
/// assert_eq!(log2_ceil(2), 1);
/// assert_eq!(log2_ceil(1024), 10);
/// assert_eq!(log2_ceil(1025), 11);
/// ```
#[inline]
pub fn log2_ceil(n: usize) -> u32 {
    let n = n.max(2);
    usize::BITS - (n - 1).leading_zeros()
}
