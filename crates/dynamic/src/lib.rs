#![warn(missing_docs)]

//! **cc-dynamic** — the dynamic update engine: the write path of the
//! serving stack.
//!
//! Every pipeline in the workspace assumes a frozen graph; this crate makes
//! the servable `(graph, estimate)` state *move*. The shape follows the
//! related congested-clique literature — the paper's constant-approximation
//! estimates tolerate bounded local perturbation, and the CDKL/Dory–Parter
//! line recomputes only sparse skeleton structure after a change — which is
//! exactly the contract here: touch only what an update batch can affect,
//! and prove the result equals a from-scratch rebuild.
//!
//! * [`update`] — [`UpdateBatch`](update::UpdateBatch)es of
//!   `Insert`/`Delete`/`Reweight` ops with deterministic canonicalization
//!   (dedupe, last-write-wins, stable order) and typed validation;
//! * [`incremental`] —
//!   [`IncrementalOracle`](incremental::IncrementalOracle), which applies a
//!   batch to an exact estimate by re-running Dijkstra only on the rows the
//!   worsened edges can lengthen and folding each improved edge over the
//!   matrix in O(n²), and rebuilds approximate estimates; the hard
//!   invariant is **bit-identical output** to a from-scratch build;
//! * [`delta`] — the section-checksummed `*.ccdelta` format recording
//!   `base fingerprint + batch + repaired rows`, with chain
//!   [`replay`](delta::replay) and [`compact`](delta::compact)ion;
//! * [`rebuild`] — the named-algorithm dispatch table
//!   ([`run_algorithm`](rebuild::run_algorithm)) shared by the CLI and the
//!   rebuilds of approximate estimates.

pub mod delta;
pub mod incremental;
pub mod rebuild;
pub mod update;

pub use delta::{backend_state_fingerprint, state_fingerprint, Delta, DeltaError, DeltaStrategy};
pub use incremental::{ApplyOutcome, ApplyStrategy, DynamicConfig, IncrementalOracle};
pub use update::{EdgeOp, MutationProfile, UpdateBatch, UpdateError};
