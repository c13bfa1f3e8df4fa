//! The min-plus **kernel engine**: one front door for every distance
//! product in the workspace, with per-multiply auto-dispatch between the
//! cache-blocked dense lane kernel, at the narrowest entry width the
//! operands allow, and the sharded sparse kernel.
//!
//! Every pipeline in the paper bottoms out in min-plus products — the
//! Theorem 7.1 skeleton squaring, the small-diameter path, and the doubling
//! baseline all spend most of their work there — and the right kernel
//! depends on the operands: adjacency-shaped matrices are extremely sparse,
//! post-closure distance matrices are fully dense, the weight-scaled
//! instances of Lemma 8.1 have entries bounded well below 32 bits, and the
//! smallest scaled instances fit in 16. The engine measures what it is
//! given (sampled density, sampled-then-confirmed entry bounds) and picks
//! per multiply:
//!
//! | choice | kernel | picked when |
//! |---|---|---|
//! | [`KernelChoice::SparseSharded`] | [`crate::sparse`] row shards | `fill(A)·fill(B) ≤ 1/16` (sampled) |
//! | [`KernelChoice::DenseUltra`] | lane kernel over `u16` | dense, and all finite entries ≤ [`ULTRA_MAX_ENTRY`] |
//! | [`KernelChoice::DenseCompact`] | lane kernel over `u32` | dense, and all finite entries ≤ [`COMPACT_MAX_ENTRY`] |
//! | [`KernelChoice::DenseLanes`] | lane kernel over `u64` | dense, wide entries |
//!
//! Self-products (`A ⋆ A`, the shape of every [`power`]/[`closure`]
//! squaring) route through [`square`]: the same dispatch and kernels under
//! a span of their own, with the one matrix narrowed once for both
//! operands.
//!
//! The dispatch can be overridden with [`KernelMode::Dense`] /
//! [`KernelMode::Sparse`] — threaded through `PipelineConfig` and
//! `ccapsp run --kernel {auto,dense,sparse}` — or process-wide with the
//! `CC_KERNEL` environment variable (the [`KernelMode::from_env`] default).
//!
//! # Bit-identical outputs
//!
//! The lane kernel at every width and the sparse kernel compute the exact
//! entrywise minimum over the same candidate set, so the engine's output
//! is **bit-identical** for every mode, tile size, and thread count —
//! kernel selection is purely a wall-clock decision. The
//! golden-conformance suite and `tests/kernel_props.rs` pin this contract.

use crate::dense::{self, lanes_product, TropicalEntry, TILE};
use crate::sparse::{cdkl_rounds, sparse_product_with, SparseMatrix, SparseProduct};
use cc_graph::{DistMatrix, NodeId, Weight, INF};
use cc_par::ExecPolicy;
use std::sync::OnceLock;

/// How many rows of each operand the dispatcher samples (evenly strided)
/// when estimating density and fast-rejecting entry bounds.
const DENSITY_SAMPLE_ROWS: usize = 64;

/// Sparse kernel cutoff: auto-dispatch picks the sparse kernel when the
/// product of the operands' sampled fill fractions is at most this. The
/// sparse kernel does `≈ fill(A)·fill(B)·n³` work with a constant factor a
/// few times worse than the dense lane kernels', so 1/16 leaves a safe
/// margin.
pub const SPARSE_FILL_CUTOFF: f64 = 1.0 / 16.0;

/// Largest finite entry the compact (`u32`) kernel accepts: chosen so the
/// sum of two finite entries stays strictly below the `u32` kernel's own
/// infinity sentinel (its `TOP`, so this bound and the kernel's saturation
/// point can never drift apart), keeping the compact kernel bit-identical
/// to the wide one.
pub const COMPACT_MAX_ENTRY: u64 = ((<u32 as TropicalEntry>::TOP - 1) / 2) as u64;

/// Largest finite entry the ultra-compact `u16` kernel accepts (8191):
/// the sum of two finite entries stays strictly below the `u16` infinity
/// sentinel, so the 2-byte kernel is bit-identical to the wide one. This is
/// the shape of the paper's weight-scaled instances (Lemma 8.1 rescales
/// weights into a small integer range before each recursion level), at 4x
/// the memory density of the original `u64` path.
pub const ULTRA_MAX_ENTRY: u64 = ((<u16 as TropicalEntry>::TOP - 1) / 2) as u64;

/// Which kernel family a multiply is asked to use. `Auto` measures the
/// operands; `Dense`/`Sparse` force the family (the wide/compact/ultra
/// split inside `Dense` is still decided by the entry bound, which is a
/// pure representation detail).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelMode {
    /// Density-sampling dispatch (the default).
    Auto,
    /// Always the dense lane kernel, at the narrowest lawful entry width.
    Dense,
    /// Always the sharded sparse kernel.
    Sparse,
}

impl KernelMode {
    /// Parses a CLI/env spelling: `auto`, `dense`, or `sparse`.
    pub fn parse(s: &str) -> Option<KernelMode> {
        match s.trim() {
            "auto" => Some(KernelMode::Auto),
            "dense" => Some(KernelMode::Dense),
            "sparse" => Some(KernelMode::Sparse),
            _ => None,
        }
    }

    /// The process-wide default, read from `CC_KERNEL` once and cached:
    /// `dense`/`sparse` force a family, unset or anything else means
    /// [`KernelMode::Auto`].
    pub fn from_env() -> KernelMode {
        static CACHED: OnceLock<KernelMode> = OnceLock::new();
        *CACHED.get_or_init(|| {
            std::env::var("CC_KERNEL")
                .ok()
                .and_then(|v| KernelMode::parse(&v))
                .unwrap_or(KernelMode::Auto)
        })
    }

    /// Machine-readable name (`auto` / `dense` / `sparse`).
    pub fn name(self) -> &'static str {
        match self {
            KernelMode::Auto => "auto",
            KernelMode::Dense => "dense",
            KernelMode::Sparse => "sparse",
        }
    }
}

impl Default for KernelMode {
    /// [`KernelMode::from_env`]: the `CC_KERNEL` environment default.
    fn default() -> Self {
        Self::from_env()
    }
}

impl std::fmt::Display for KernelMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for KernelMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        KernelMode::parse(s).ok_or_else(|| format!("unknown kernel mode {s:?} (auto|dense|sparse)"))
    }
}

/// The concrete kernel a plan resolved to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelChoice {
    /// Branchless lane kernel over `u64` entries (full weight range).
    DenseLanes,
    /// Lane kernel over `u32` entries (all finite entries of both operands
    /// are at most [`COMPACT_MAX_ENTRY`] — the bounded-entry structure of
    /// the paper's weight-scaled instances), at 2x the memory density of
    /// the wide path.
    DenseCompact,
    /// Lane kernel over `u16` entries (all finite entries of both operands
    /// are at most [`ULTRA_MAX_ENTRY`] — the smallest weight-scaled
    /// instances), at 4x the memory density of the wide path with 16-wide
    /// lanes.
    DenseUltra,
    /// Row-sharded sparse kernel ([`crate::sparse`]).
    SparseSharded,
}

impl KernelChoice {
    /// Machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            KernelChoice::DenseLanes => "dense-lanes",
            KernelChoice::DenseCompact => "dense-compact",
            KernelChoice::DenseUltra => "dense-ultra",
            KernelChoice::SparseSharded => "sparse-sharded",
        }
    }

    /// Stable numeric code (`0..=3` in declaration order), for reports that
    /// must name the kernel with a number, such as the `kernel_code` extra
    /// of BENCH rows.
    pub fn code(self) -> u64 {
        match self {
            KernelChoice::DenseLanes => 0,
            KernelChoice::DenseCompact => 1,
            KernelChoice::DenseUltra => 2,
            KernelChoice::SparseSharded => 3,
        }
    }

    /// Unrolled lane width of the dense kernel this choice runs on (the
    /// sparse kernel has no fixed lane shape and reports `None`).
    pub fn lane_width(self) -> Option<usize> {
        match self {
            KernelChoice::DenseLanes => Some(dense::WIDE_LANES),
            KernelChoice::DenseCompact => Some(dense::COMPACT_LANES),
            KernelChoice::DenseUltra => Some(dense::ULTRA_LANES),
            KernelChoice::SparseSharded => None,
        }
    }
}

impl std::fmt::Display for KernelChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One multiply's dispatch decision: what was measured and which kernel
/// runs. Plans are cheap (`O(n)` sampled entries plus, on the dense path,
/// one `O(n²)` bound scan — negligible next to the `O(n³)` multiply) and
/// are recomputed **per multiply**, so e.g. repeated squaring migrates from
/// the sparse to the dense kernel as the matrix fills in.
///
/// ```
/// use cc_graph::DistMatrix;
/// use cc_matrix::engine::{KernelChoice, KernelMode, KernelPlan, COMPACT_MAX_ENTRY, ULTRA_MAX_ENTRY};
///
/// // A filled small-weight matrix dispatches to the 2-byte ultra kernel…
/// let mut a = DistMatrix::infinite(8);
/// for u in 0..8 {
///     for v in 0..8 {
///         a.set(u, v, 1 + (u + v) as u64);
///     }
/// }
/// let plan = KernelPlan::choose(&a, &a, KernelMode::Auto);
/// assert_eq!(plan.choice, KernelChoice::DenseUltra);
///
/// // …one entry past the u16 bound demotes it to the u32 compact kernel…
/// a.set(0, 0, ULTRA_MAX_ENTRY + 1);
/// assert_eq!(KernelPlan::choose(&a, &a, KernelMode::Auto).choice, KernelChoice::DenseCompact);
///
/// // …and past the u32 bound, to the full-width lane kernel.
/// a.set(0, 0, COMPACT_MAX_ENTRY + 1);
/// assert_eq!(KernelPlan::choose(&a, &a, KernelMode::Auto).choice, KernelChoice::DenseLanes);
///
/// // A nearly-empty matrix (only the diagonal is finite) dispatches to
/// // the sparse kernel.
/// let empty = DistMatrix::infinite(8);
/// let plan = KernelPlan::choose(&empty, &empty, KernelMode::Auto);
/// assert_eq!(plan.choice, KernelChoice::SparseSharded);
///
/// // Explicit modes override the measurement.
/// let forced = KernelPlan::choose(&empty, &empty, KernelMode::Dense);
/// assert!(forced.choice != KernelChoice::SparseSharded);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelPlan {
    /// The mode the caller requested.
    pub mode: KernelMode,
    /// The kernel the plan resolved to.
    pub choice: KernelChoice,
    /// Sampled fill fraction (finite entries / n²) of the left operand.
    pub fill_a: f64,
    /// Sampled fill fraction of the right operand.
    pub fill_b: f64,
}

impl KernelPlan {
    /// Plans one multiply `A ⋆ B` under `mode`; see the type-level docs for
    /// the dispatch rule.
    pub fn choose(a: &DistMatrix, b: &DistMatrix, mode: KernelMode) -> KernelPlan {
        let fill_a = sampled_fill(a);
        let fill_b = sampled_fill(b);
        let choice = match mode {
            KernelMode::Sparse => KernelChoice::SparseSharded,
            KernelMode::Dense => dense_choice(a, b),
            KernelMode::Auto => {
                if fill_a * fill_b <= SPARSE_FILL_CUTOFF {
                    KernelChoice::SparseSharded
                } else {
                    dense_choice(a, b)
                }
            }
        };
        KernelPlan {
            mode,
            choice,
            fill_a,
            fill_b,
        }
    }
}

/// Sampled fraction of finite (`< INF`) entries, over up to
/// [`DENSITY_SAMPLE_ROWS`] evenly strided rows.
fn sampled_fill(m: &DistMatrix) -> f64 {
    let n = m.n();
    if n == 0 {
        return 0.0;
    }
    let sample = n.min(DENSITY_SAMPLE_ROWS);
    let mut finite = 0usize;
    let mut seen = 0usize;
    for s in 0..sample {
        // `s·n/sample` spreads the sample over the whole index range even
        // when `sample` does not divide `n` (a plain `n/sample` stride
        // would sample a prefix and mis-plan half-empty matrices).
        let row = m.row(s * n / sample);
        finite += row.iter().filter(|&&w| w < INF).count();
        seen += n;
    }
    finite as f64 / seen.max(1) as f64
}

/// Largest finite entry over the same strided row sample [`sampled_fill`]
/// uses (`0` if the sample is all-infinite). A sampled entry **above** a
/// bound proves the matrix ineligible for that width, so this fast-rejects
/// the full O(n²) eligibility scans for wide-weight matrices; a sampled
/// maximum *below* a bound is only a hint and must still be confirmed by
/// the exact scan (an unsampled row may hold a wider entry — truncating it
/// would corrupt results).
fn sampled_entry_cap(m: &DistMatrix) -> u64 {
    let n = m.n();
    if n == 0 {
        return 0;
    }
    let sample = n.min(DENSITY_SAMPLE_ROWS);
    let mut cap = 0u64;
    for s in 0..sample {
        for &w in m.row(s * n / sample) {
            if w < INF && w > cap {
                cap = w;
            }
        }
    }
    cap
}

/// Inside the dense family: the narrowest lane kernel whose exactness
/// bound every finite entry of both operands fits — `u16` ultra, then
/// `u32` compact, else the full-width `u64` lanes. The sampled entry cap
/// fast-rejects widths the sample already disproves; full scans confirm
/// the rest (bound checks must be exact, only the *order* they are tried
/// in is sampled).
fn dense_choice(a: &DistMatrix, b: &DistMatrix) -> KernelChoice {
    let cap = sampled_entry_cap(a).max(sampled_entry_cap(b));
    if cap <= ULTRA_MAX_ENTRY && fits(a, b, ULTRA_MAX_ENTRY) {
        KernelChoice::DenseUltra
    } else if cap <= COMPACT_MAX_ENTRY && fits(a, b, COMPACT_MAX_ENTRY) {
        KernelChoice::DenseCompact
    } else {
        KernelChoice::DenseLanes
    }
}

/// Whether every entry of both operands is either infinite or at most
/// `bound` (a self-product scans its one matrix once).
fn fits(a: &DistMatrix, b: &DistMatrix, bound: Weight) -> bool {
    let within = |m: &DistMatrix| m.raw().iter().all(|&w| w >= INF || w <= bound);
    within(a) && (std::ptr::eq(a, b) || within(b))
}

/// Opens the per-multiply `cc_obs` span (`op[choice]`, e.g.
/// `minplus[dense-ultra]`) tagged with the operand size and sampled fill.
/// One relaxed atomic load when tracing is off — the name is never
/// formatted.
fn kernel_span(op: &str, n: usize, plan: &KernelPlan) -> cc_obs::SpanGuard {
    let mut sp = cc_obs::span_lazy(|| format!("{op}[{}]", plan.choice.name()));
    if sp.is_active() {
        sp.attr("n", n as f64);
        sp.attr("fill", plan.fill_a * plan.fill_b);
    }
    sp
}

/// The one dispatch behind [`min_plus_planned`] and [`square_planned`]. A
/// plan may be reused after its operands changed (the fields are public),
/// so a narrow choice is re-checked against both operands — narrowing a
/// wide entry would truncate it — and [`dense_choice`] picks again when it
/// no longer fits. Same bits either way.
fn run_planned(a: &DistMatrix, b: &DistMatrix, plan: &KernelPlan, exec: ExecPolicy) -> DistMatrix {
    assert_eq!(a.n(), b.n(), "distance product dimension mismatch");
    let choice = match plan.choice {
        KernelChoice::DenseUltra if !fits(a, b, ULTRA_MAX_ENTRY) => dense_choice(a, b),
        KernelChoice::DenseCompact if !fits(a, b, COMPACT_MAX_ENTRY) => dense_choice(a, b),
        choice => choice,
    };
    match choice {
        KernelChoice::DenseLanes => lanes_product::<u64>(a, b, exec, TILE),
        KernelChoice::DenseCompact => lanes_product::<u32>(a, b, exec, TILE),
        KernelChoice::DenseUltra => lanes_product::<u16>(a, b, exec, TILE),
        KernelChoice::SparseSharded => {
            let s = dense_to_sparse(a);
            let t = dense_to_sparse(b);
            sparse_to_dense(&sparse_product_with(&s, &t, None, exec).matrix)
        }
    }
}

/// The engine's distance product `A ⋆ B`: plans the multiply under `mode`
/// and runs the chosen kernel. Output is bit-identical to
/// [`dense::distance_product`] for every mode.
///
/// # Panics
///
/// Panics if dimensions differ.
pub fn min_plus(a: &DistMatrix, b: &DistMatrix, mode: KernelMode, exec: ExecPolicy) -> DistMatrix {
    min_plus_planned(a, b, &KernelPlan::choose(a, b, mode), exec)
}

/// [`min_plus`] with a precomputed [`KernelPlan`].
///
/// # Panics
///
/// Panics if dimensions differ.
pub fn min_plus_planned(
    a: &DistMatrix,
    b: &DistMatrix,
    plan: &KernelPlan,
    exec: ExecPolicy,
) -> DistMatrix {
    let _sp = kernel_span("minplus", a.n(), plan);
    run_planned(a, b, plan, exec)
}

/// The engine's self-product `A ⋆ A`: plans like [`min_plus`] and runs the
/// same kernels under a `square[<kernel>]` span, narrowing the one matrix
/// once for both operands. This is the multiply shape of every
/// [`power`]/[`closure`] squaring. Bit-identical to
/// `min_plus(a, a, mode, exec)` for every mode.
pub fn square(a: &DistMatrix, mode: KernelMode, exec: ExecPolicy) -> DistMatrix {
    square_planned(a, &KernelPlan::choose(a, a, mode), exec)
}

/// [`square`] with a precomputed [`KernelPlan`].
pub fn square_planned(a: &DistMatrix, plan: &KernelPlan, exec: ExecPolicy) -> DistMatrix {
    let _sp = kernel_span("square", a.n(), plan);
    run_planned(a, a, plan, exec)
}

/// `A^h` through the engine: binary exponentiation where every multiply is
/// re-planned (so squaring an adjacency-shaped matrix starts sparse and
/// migrates to the dense kernels as it fills in), and every self-product —
/// the repeated squarings that dominate the exponentiation — goes through
/// [`square`]. `A^0` is the tropical identity. Bit-identical to
/// [`dense::power`].
pub fn power(a: &DistMatrix, h: u64, mode: KernelMode, exec: ExecPolicy) -> DistMatrix {
    dense::power_by(a, h, |x, y| {
        if std::ptr::eq(x, y) {
            square(x, mode, exec)
        } else {
            min_plus(x, y, mode, exec)
        }
    })
}

/// Exact APSP by repeated engine squaring until fixpoint — every multiply
/// is a self-product and goes through [`square`]; returns the distance
/// matrix and the number of squarings. Bit-identical to
/// [`dense::closure`].
pub fn closure(a: &DistMatrix, mode: KernelMode, exec: ExecPolicy) -> (DistMatrix, usize) {
    dense::closure_by(a, |x, y| {
        if std::ptr::eq(x, y) {
            square(x, mode, exec)
        } else {
            min_plus(x, y, mode, exec)
        }
    })
}

/// A sparse product routed through the engine: when the operands are dense
/// enough (or `mode` forces it), the multiply runs on a dense lane kernel
/// and the result is re-sparsified; otherwise the sharded sparse
/// kernel runs directly. Returns the [`SparseProduct`] — matrix, densities,
/// and CDKL21 round charge all **identical** for every mode (the charge is
/// computed from measured densities, never from the kernel that ran) —
/// plus the [`KernelChoice`] that was made.
///
/// # Panics
///
/// Panics if dimensions differ.
pub fn sparse_product_planned(
    s: &SparseMatrix,
    t: &SparseMatrix,
    rho_out_hint: Option<f64>,
    mode: KernelMode,
    exec: ExecPolicy,
) -> (SparseProduct, KernelChoice) {
    assert_eq!(s.n(), t.n(), "sparse product dimension mismatch");
    let n = s.n();
    let fill_s = s.density() / n.max(1) as f64;
    let fill_t = t.density() / n.max(1) as f64;
    let go_dense = match mode {
        KernelMode::Dense => true,
        KernelMode::Sparse => false,
        KernelMode::Auto => fill_s * fill_t > SPARSE_FILL_CUTOFF,
    };
    if !go_dense {
        let _sp = kernel_span(
            "spmm",
            n,
            &KernelPlan {
                mode,
                choice: KernelChoice::SparseSharded,
                fill_a: fill_s,
                fill_b: fill_t,
            },
        );
        return (
            sparse_product_with(s, t, rho_out_hint, exec),
            KernelChoice::SparseSharded,
        );
    }
    let a = sparse_to_dense(s);
    let b = sparse_to_dense(t);
    let plan = KernelPlan {
        mode,
        choice: dense_choice(&a, &b),
        fill_a: fill_s,
        fill_b: fill_t,
    };
    let _sp = kernel_span("spmm", n, &plan);
    let c = min_plus_planned(&a, &b, &plan, exec);
    let out = dense_to_sparse(&c);
    let rho_s = s.density();
    let rho_t = t.density();
    let rho_out = out.density().max(rho_out_hint.unwrap_or(0.0));
    let rounds = cdkl_rounds(n, rho_s, rho_t, rho_out);
    (
        SparseProduct {
            matrix: out,
            densities: (rho_s, rho_t, rho_out),
            rounds,
        },
        plan.choice,
    )
}

/// Dense → sparse: finite entries only, per-row in column order (the same
/// canonical shape [`crate::sparse`] produces).
fn dense_to_sparse(m: &DistMatrix) -> SparseMatrix {
    let n = m.n();
    let rows: Vec<Vec<(NodeId, Weight)>> = (0..n)
        .map(|u| {
            m.row(u)
                .iter()
                .copied()
                .enumerate()
                .filter(|&(_, w)| w < INF)
                .collect()
        })
        .collect();
    SparseMatrix::from_rows(n, rows)
}

/// Sparse → dense: missing entries become `∞` (no implicit diagonal).
fn sparse_to_dense(s: &SparseMatrix) -> DistMatrix {
    let n = s.n();
    let mut m = DistMatrix::from_raw(n, vec![INF; n * n]);
    for u in 0..n {
        for &(v, w) in s.row(u) {
            m.set(u, v, w);
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::{adjacency_matrix, distance_product};
    use cc_graph::graph::{Direction, Graph};
    use rand::{Rng, SeedableRng};

    fn random_matrix(n: usize, fill: f64, max_w: Weight, seed: u64) -> DistMatrix {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let data: Vec<Weight> = (0..n * n)
            .map(|_| {
                if rng.gen_bool(fill) {
                    rng.gen_range(0..=max_w)
                } else {
                    INF
                }
            })
            .collect();
        DistMatrix::from_raw(n, data)
    }

    #[test]
    fn every_mode_matches_naive_reference() {
        for (seed, fill, max_w) in [(1u64, 0.05, 40), (2, 0.5, 40), (3, 0.9, INF - 1)] {
            let a = random_matrix(19, fill, max_w, seed);
            let b = random_matrix(19, fill, max_w, seed + 50);
            let naive = distance_product(&a, &b);
            for mode in [KernelMode::Auto, KernelMode::Dense, KernelMode::Sparse] {
                let out = min_plus(&a, &b, mode, ExecPolicy::Seq);
                assert_eq!(out, naive, "seed={seed} fill={fill} mode={mode}");
            }
        }
    }

    #[test]
    fn auto_dispatch_tracks_density() {
        let sparse = random_matrix(64, 0.02, 30, 9);
        let dense = random_matrix(64, 0.8, 30, 10);
        assert_eq!(
            KernelPlan::choose(&sparse, &sparse, KernelMode::Auto).choice,
            KernelChoice::SparseSharded
        );
        // Small weights (≤ 30) on a dense matrix land on the u16 kernel.
        let plan = KernelPlan::choose(&dense, &dense, KernelMode::Auto);
        assert_eq!(plan.choice, KernelChoice::DenseUltra);
        assert!(plan.fill_a > 0.5, "fill_a = {}", plan.fill_a);
        // Mid-range weights (> u16 bound, ≤ u32 bound) land on compact.
        let mid = random_matrix(64, 0.8, COMPACT_MAX_ENTRY / 2, 11);
        assert_eq!(
            KernelPlan::choose(&mid, &mid, KernelMode::Auto).choice,
            KernelChoice::DenseCompact
        );
    }

    #[test]
    fn ultra_dispatch_needs_both_operands_bounded() {
        let small = random_matrix(16, 0.9, ULTRA_MAX_ENTRY, 21);
        let mut wide = random_matrix(16, 0.9, ULTRA_MAX_ENTRY, 22);
        wide.set(7, 3, ULTRA_MAX_ENTRY + 1);
        assert_eq!(
            KernelPlan::choose(&small, &small, KernelMode::Dense).choice,
            KernelChoice::DenseUltra
        );
        let demoted = KernelPlan::choose(&small, &wide, KernelMode::Dense);
        assert_eq!(demoted.choice, KernelChoice::DenseCompact);
        // Still bit-identical on the mixed pair.
        let naive = distance_product(&small, &wide);
        assert_eq!(
            min_plus(&small, &wide, KernelMode::Dense, ExecPolicy::Seq),
            naive
        );
    }

    #[test]
    fn ultra_boundary_entries_round_trip() {
        // Entries at exactly the u16 bound still compute exactly (their sum
        // is the largest finite value the kernel can produce).
        let mut a = DistMatrix::infinite(3);
        a.set(0, 1, ULTRA_MAX_ENTRY);
        a.set(1, 2, ULTRA_MAX_ENTRY);
        let plan = KernelPlan::choose(&a, &a, KernelMode::Dense);
        assert_eq!(plan.choice, KernelChoice::DenseUltra);
        let out = min_plus_planned(&a, &a, &plan, ExecPolicy::Seq);
        assert_eq!(out.get(0, 2), 2 * ULTRA_MAX_ENTRY);
        assert_eq!(out, distance_product(&a, &a));
    }

    #[test]
    fn stale_ultra_plan_falls_back_without_truncation() {
        let mut a = random_matrix(10, 0.9, ULTRA_MAX_ENTRY, 23);
        let plan = KernelPlan::choose(&a, &a, KernelMode::Dense);
        assert_eq!(plan.choice, KernelChoice::DenseUltra);
        // Past BOTH narrow bounds, and the only finite entry of row 0, so
        // every path out of node 0 takes it: a narrowed copy, truncated or
        // saturated to `∞`, would change row 0 of the product.
        for v in 0..10 {
            a.set(0, v, INF);
        }
        a.set(0, 1, COMPACT_MAX_ENTRY + 5);
        let out = min_plus_planned(&a, &a, &plan, ExecPolicy::Seq);
        assert_eq!(out, distance_product(&a, &a));
        let sq = square_planned(&a, &plan, ExecPolicy::Seq);
        assert_eq!(sq, distance_product(&a, &a));
    }

    #[test]
    fn engine_square_matches_min_plus_for_every_mode() {
        for (seed, max_w) in [
            (31u64, 40),
            (32, ULTRA_MAX_ENTRY + 9),
            (33, COMPACT_MAX_ENTRY * 2),
        ] {
            for fill in [0.03, 0.6] {
                let a = random_matrix(17, fill, max_w, seed);
                let naive = distance_product(&a, &a);
                for mode in [KernelMode::Auto, KernelMode::Dense, KernelMode::Sparse] {
                    for threads in [1usize, 2, 4] {
                        let out = square(&a, mode, ExecPolicy::with_threads(threads));
                        assert_eq!(
                            out, naive,
                            "seed={seed} fill={fill} mode={mode} threads={threads}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn lane_width_and_density_are_reported() {
        assert_eq!(KernelChoice::DenseLanes.lane_width(), Some(8));
        assert_eq!(KernelChoice::DenseCompact.lane_width(), Some(8));
        assert_eq!(KernelChoice::DenseUltra.lane_width(), Some(16));
        assert_eq!(KernelChoice::SparseSharded.lane_width(), None);
        assert_eq!(KernelChoice::DenseLanes.code(), 0);
        assert_eq!(KernelChoice::DenseCompact.code(), 1);
        assert_eq!(KernelChoice::DenseUltra.code(), 2);
        assert_eq!(KernelChoice::SparseSharded.code(), 3);
    }

    #[test]
    fn sampled_fill_covers_the_whole_row_range() {
        // Regression: first half empty, second half fully dense, at an n
        // where a truncating `n / sample` stride would sample only the
        // empty prefix and report fill ≈ 0.
        let n = 127;
        let mut data = vec![INF; n * n];
        for u in (n / 2)..n {
            for v in 0..n {
                data[u * n + v] = 3;
            }
        }
        let m = DistMatrix::from_raw(n, data);
        let fill = KernelPlan::choose(&m, &m, KernelMode::Auto).fill_a;
        assert!(
            (0.3..=0.7).contains(&fill),
            "half-dense matrix sampled as fill {fill}"
        );
    }

    #[test]
    fn stale_compact_plan_falls_back_to_the_wide_kernel() {
        // A plan chosen for bounded operands, reused after an entry grew
        // past the compact bound, must not truncate.
        let mut a = DistMatrix::infinite(6);
        for u in 0..6 {
            for v in 0..6 {
                a.set(u, v, ULTRA_MAX_ENTRY + 2); // compact, not ultra
            }
        }
        let plan = KernelPlan::choose(&a, &a, KernelMode::Dense);
        assert_eq!(plan.choice, KernelChoice::DenseCompact);
        // Would truncate to 7 under `as u32`; as row 0's only finite entry,
        // every path out of node 0 takes it.
        for v in 0..6 {
            a.set(0, v, INF);
        }
        a.set(0, 1, (1 << 32) + 7);
        let naive = distance_product(&a, &a);
        assert_eq!(min_plus_planned(&a, &a, &plan, ExecPolicy::Seq), naive);
        assert_eq!(square_planned(&a, &plan, ExecPolicy::Seq), naive);
    }

    #[test]
    fn wide_entries_disable_the_compact_kernel() {
        let mut wide = random_matrix(16, 0.8, 30, 11);
        wide.set(3, 4, COMPACT_MAX_ENTRY + 1);
        assert_eq!(
            KernelPlan::choose(&wide, &wide, KernelMode::Dense).choice,
            KernelChoice::DenseLanes
        );
        // Still bit-identical.
        let naive = distance_product(&wide, &wide);
        assert_eq!(
            min_plus(&wide, &wide, KernelMode::Dense, ExecPolicy::Seq),
            naive
        );
    }

    #[test]
    fn compact_boundary_entries_round_trip() {
        // Entries at exactly the compact bound still compute exactly.
        let mut a = DistMatrix::infinite(3);
        a.set(0, 1, COMPACT_MAX_ENTRY);
        a.set(1, 2, COMPACT_MAX_ENTRY);
        let plan = KernelPlan::choose(&a, &a, KernelMode::Dense);
        assert_eq!(plan.choice, KernelChoice::DenseCompact);
        let out = min_plus_planned(&a, &a, &plan, ExecPolicy::Seq);
        assert_eq!(out.get(0, 2), 2 * COMPACT_MAX_ENTRY);
        assert_eq!(out, distance_product(&a, &a));
    }

    #[test]
    fn engine_power_matches_dense_power() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let mut edges = Vec::new();
        for u in 0..14usize {
            for v in (u + 1)..14 {
                if rng.gen_bool(0.3) {
                    edges.push((u, v, rng.gen_range(1..40u64)));
                }
            }
        }
        let g = Graph::from_edges(14, Direction::Undirected, &edges);
        let a = adjacency_matrix(&g);
        for h in [0u64, 1, 3, 6] {
            let reference = crate::dense::power(&a, h);
            for mode in [KernelMode::Auto, KernelMode::Dense, KernelMode::Sparse] {
                assert_eq!(
                    power(&a, h, mode, ExecPolicy::Seq),
                    reference,
                    "h={h} mode={mode}"
                );
            }
        }
    }

    #[test]
    fn engine_closure_matches_dense_closure() {
        let a = random_matrix(12, 0.3, 50, 13);
        let (reference, ref_sq) = crate::dense::closure(&a);
        for mode in [KernelMode::Auto, KernelMode::Dense, KernelMode::Sparse] {
            let (out, sq) = closure(&a, mode, ExecPolicy::Seq);
            assert_eq!(out, reference, "mode={mode}");
            assert_eq!(sq, ref_sq, "mode={mode}");
        }
    }

    #[test]
    fn sparse_product_planned_is_mode_invariant() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(14);
        let mk = |rng: &mut rand::rngs::StdRng, per_row: usize| {
            let rows = (0..20)
                .map(|_| {
                    (0..per_row)
                        .map(|_| (rng.gen_range(0..20), rng.gen_range(0..100u64)))
                        .collect()
                })
                .collect();
            SparseMatrix::from_rows(20, rows)
        };
        let s = mk(&mut rng, 12);
        let t = mk(&mut rng, 9);
        let (reference, _) =
            sparse_product_planned(&s, &t, Some(3.0), KernelMode::Sparse, ExecPolicy::Seq);
        for mode in [KernelMode::Auto, KernelMode::Dense] {
            let (out, _) = sparse_product_planned(&s, &t, Some(3.0), mode, ExecPolicy::Seq);
            assert_eq!(out.matrix, reference.matrix, "mode={mode}");
            assert_eq!(out.densities, reference.densities, "mode={mode}");
            assert_eq!(out.rounds, reference.rounds, "mode={mode}");
        }
    }

    #[test]
    fn kernel_mode_parses_and_prints() {
        assert_eq!(KernelMode::parse("dense"), Some(KernelMode::Dense));
        assert_eq!(KernelMode::parse(" sparse "), Some(KernelMode::Sparse));
        assert_eq!(KernelMode::parse("auto"), Some(KernelMode::Auto));
        assert_eq!(KernelMode::parse("fast"), None);
        assert_eq!(KernelMode::Dense.to_string(), "dense");
        assert_eq!("auto".parse::<KernelMode>(), Ok(KernelMode::Auto));
        assert!("bogus".parse::<KernelMode>().is_err());
    }
}
