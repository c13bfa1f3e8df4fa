#![warn(missing_docs)]

//! Min-plus (tropical) semiring matrix machinery.
//!
//! Section 2.1 of the paper frames distance computation as matrix
//! exponentiation over the tropical semiring `(Z≥0 ∪ {∞}, min, +)`: if `A` is
//! the weighted adjacency matrix of `G` (with zero diagonal), then `A^h[u,v]`
//! is the h-hop distance from `u` to `v`. This crate provides:
//!
//! * [`dense`] — dense distance products and exponentiation: the naive
//!   reference product (ground truth) and the register-blocked lane kernel,
//!   compiled for AVX-512, AVX2 and a portable baseline and run on the
//!   widest of them the host has ([`dense::simd_isa`] names it);
//! * [`filtered`] — the *filtered* matrices of Section 5: each row keeps only
//!   its `k` smallest entries (ties by column ID). [`filtered::FilteredMatrix::from_dense`]
//!   and friends implement the `Ā` notation, and the crate's tests verify
//!   Lemma 5.5 (`filter(Ā^i) = filter(A^i)`);
//! * [`sparse`] — sparse min-plus products with the density bookkeeping of
//!   the CDKL21 round-cost model (Theorem 6.1 in the paper), used by the
//!   skeleton-graph construction (Section 6);
//! * [`engine`] — the kernel **engine** (v2): a density- and
//!   entry-bound-sampling [`engine::KernelPlan`] dispatcher that routes
//!   every multiply, self-products ([`engine::square`], used by
//!   `power`/`closure`) included, to the one branchless lane kernel at the
//!   narrowest lawful element width (`u64` wide / `u32` compact / `u16`
//!   ultra — see [`engine::ULTRA_MAX_ENTRY`] and
//!   [`engine::COMPACT_MAX_ENTRY`]) or to the sharded sparse kernel — with
//!   bit-identical results across all of them and across instruction
//!   sets. Every pipeline's hot products go through it.
//!
//! # Example
//!
//! ```
//! use cc_graph::graph::{Graph, Direction};
//! use cc_matrix::dense;
//!
//! let g = Graph::from_edges(3, Direction::Undirected, &[(0, 1, 2), (1, 2, 2)]);
//! let a = dense::adjacency_matrix(&g);
//! let a2 = dense::distance_product(&a, &a);
//! assert_eq!(a2.get(0, 2), 4); // two hops
//! ```

pub mod dense;
pub mod engine;
pub mod filtered;
pub mod sparse;
