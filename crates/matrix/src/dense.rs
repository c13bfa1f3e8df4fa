//! Dense min-plus products and exponentiation.
//!
//! Two dense kernels live here:
//!
//! * [`distance_product_with`] — the naive row-blocked triple loop. This is
//!   the **reference semantics** every other kernel is tested against; it is
//!   deliberately left simple.
//! * [`distance_product_lanes_opts`] — the **lane kernel** and the
//!   production dense path ([`crate::engine`] routes every dense multiply,
//!   squares included, here). Loop order is `i, k, j`: the innermost loop
//!   broadcasts one pre-clamped `A[i,k]` against a contiguous row of `B`
//!   and min-folds it into the contiguous output row — a pure branchless
//!   `add + min` stream over fixed-width lanes with a scalar tail, no
//!   transposition, no `∞` branches, no reduction across lanes. The `k`
//!   dimension is walked in [`TILE`]-row blocks. The same generic kernel
//!   instantiates at `u64` (full range), `u32` (compact), and `u16`
//!   (ultra-compact) entry widths. The `u64` arm stays whatever its speed
//!   against the naive loop: it is the same generic code as the narrow
//!   arms, not a kernel of its own, and it is the only lawful arm for
//!   entries past the `u32` bound.
//!
//! Both kernels compute the exact entrywise minimum over all `k`, so their
//! outputs are **bit-identical** for every tile size, lane width, and thread
//! count — `min` over unsigned integers has no rounding. The
//! auto-dispatching front end that picks the lane kernel's width or the
//! sparse kernel is [`crate::engine`].

use cc_graph::{wadd, DistMatrix, Graph, Weight, INF};
use cc_par::ExecPolicy;

/// The weighted adjacency matrix of `g` over the tropical semiring:
/// `A[u,v] = w(u,v)` for edges, `A[v,v] = 0`, `∞` elsewhere.
pub fn adjacency_matrix(g: &Graph) -> DistMatrix {
    let mut a = DistMatrix::infinite(g.n());
    for (u, v, w) in g.all_arcs() {
        a.relax(u, v, w);
    }
    a
}

/// The distance product `A ⋆ B`: `(A ⋆ B)[i,j] = min_k (A[i,k] + B[k,j])`,
/// under the `CC_THREADS` execution default; see [`distance_product_with`].
///
/// `O(n³)` centrally. (The *distributed* cost model for products lives in
/// [`crate::sparse`]; dense products are used as reference semantics and for
/// node-local computations on broadcast data.)
///
/// # Panics
///
/// Panics if dimensions differ.
pub fn distance_product(a: &DistMatrix, b: &DistMatrix) -> DistMatrix {
    distance_product_with(a, b, ExecPolicy::from_env())
}

/// [`distance_product`] under an explicit [`ExecPolicy`]: output rows depend
/// only on `A`'s row and all of `B`, so the product is computed in disjoint
/// row blocks. Output is bit-identical for every policy.
///
/// # Panics
///
/// Panics if dimensions differ.
pub fn distance_product_with(a: &DistMatrix, b: &DistMatrix, exec: ExecPolicy) -> DistMatrix {
    assert_eq!(a.n(), b.n(), "distance product dimension mismatch");
    let n = a.n();
    let rows_per_block = exec.row_block_len(n, 1);
    let mut data = vec![INF; n * n];
    exec.for_each_chunk_mut(&mut data, rows_per_block * n.max(1), |block, chunk| {
        for (off, crow) in chunk.chunks_mut(n).enumerate() {
            let i = block * rows_per_block + off;
            let arow = a.row(i);
            for (k, &aik) in arow.iter().enumerate() {
                if aik >= INF {
                    continue;
                }
                let brow = b.row(k);
                for j in 0..n {
                    let cand = wadd(aik, brow[j]);
                    if cand < crow[j] {
                        crow[j] = cand;
                    }
                }
            }
        }
    });
    DistMatrix::from_raw(n, data)
}

/// Rows of the `k` dimension per block in the lane kernel: small enough
/// that a full `TILE × n` slice of the right operand fits in L2 at the
/// sizes the pipelines use. The tile never changes results, only
/// wall-clock time.
pub const TILE: usize = 64;

/// Lane width of the wide (`u64`) lane kernel: 8 × 8 bytes = one 64-byte
/// cache line per lane group.
pub const WIDE_LANES: usize = 8;

/// Lane width of the compact (`u32`) lane kernel: 8 × 4 bytes = one 256-bit
/// vector per lane group on AVX2, two 128-bit vectors on SSE2.
pub const COMPACT_LANES: usize = 8;

/// Lane width of the ultra-compact (`u16`) lane kernel: 16 × 2 bytes. All
/// clamped `u16` values stay below `2^15`, so unsigned and signed 16-bit
/// min agree and the lane loop lowers to plain `paddw`/`pminsw` even on
/// baseline SSE2.
pub const ULTRA_LANES: usize = 16;

/// An entry type the lane kernel can run over: `u64` for full-range
/// tropical weights, `u32` for the compact bounded-entry path, `u16` for
/// the ultra-compact small-weight path (see [`crate::engine`]). `TOP`
/// plays the role of `∞`.
///
/// **Kernel precondition:** every entry fed to [`lanes_kernel`] must be at
/// most `TOP` ([`TropicalEntry::from_weight`] clamps once, O(n²), before
/// the O(n³) loop). Because `TOP ≤ MAX/4`, the sum of two clamped entries
/// never overflows, so `tadd` is a plain wrapping add — no per-element
/// saturation in the hot loop — and any sum involving a `TOP` operand lands
/// at or above `TOP`, where it can never win a minimum against an output
/// entry (those start at `TOP` and only decrease). That is exactly
/// `wadd`'s observable behaviour.
pub(crate) trait TropicalEntry:
    Copy + Ord + Send + Sync + TryFrom<Weight> + Into<Weight>
{
    /// The infinity sentinel for this width (≤ `MAX/4`).
    const TOP: Self;
    /// Unrolled lane count of the branchless inner loop for this width.
    const LANES: usize;
    /// Semiring addition under the clamped-input precondition.
    fn tadd(self, rhs: Self) -> Self;

    /// A tropical weight at this width, clamped to `TOP`: `∞` (any
    /// `w ≥ INF`) becomes `TOP`. Exact for every finite `w` within the
    /// width's entry bound, which the engine checks before narrowing.
    #[inline]
    fn from_weight(w: Weight) -> Self {
        match Self::try_from(w) {
            Ok(v) if v < Self::TOP => v,
            _ => Self::TOP,
        }
    }

    /// A kernel output entry as a tropical weight: `TOP` maps back to `INF`.
    #[inline]
    fn to_weight(self) -> Weight {
        if self >= Self::TOP {
            INF
        } else {
            self.into()
        }
    }
}

impl TropicalEntry for u64 {
    const TOP: u64 = INF;
    const LANES: usize = WIDE_LANES;
    #[inline(always)]
    fn tadd(self, rhs: u64) -> u64 {
        self.wrapping_add(rhs)
    }
}

impl TropicalEntry for u32 {
    const TOP: u32 = u32::MAX / 4;
    const LANES: usize = COMPACT_LANES;
    #[inline(always)]
    fn tadd(self, rhs: u32) -> u32 {
        self.wrapping_add(rhs)
    }
}

impl TropicalEntry for u16 {
    const TOP: u16 = u16::MAX / 4;
    const LANES: usize = ULTRA_LANES;
    #[inline(always)]
    fn tadd(self, rhs: u16) -> u16 {
        self.wrapping_add(rhs)
    }
}

/// Min-folds `aik + brow[j]` into `crow[j]` for every `j`: the branchless
/// inner loop of the lane kernel. The main loop runs over fixed
/// [`TropicalEntry::LANES`]-wide chunks — a shape LLVM turns into packed
/// integer `add`/`min` with no branches and no cross-lane reduction — and
/// the sub-lane remainder is handled by an explicit scalar tail.
#[inline(always)]
fn lane_min_into<T: TropicalEntry>(crow: &mut [T], brow: &[T], aik: T) {
    debug_assert_eq!(crow.len(), brow.len());
    let mut cc = crow.chunks_exact_mut(T::LANES);
    let bb = brow.chunks_exact(T::LANES);
    let btail = bb.remainder();
    for (cl, bl) in (&mut cc).zip(bb) {
        for (c, &b) in cl.iter_mut().zip(bl) {
            *c = (*c).min(aik.tadd(b));
        }
    }
    for (c, &b) in cc.into_remainder().iter_mut().zip(btail) {
        *c = (*c).min(aik.tadd(b));
    }
}

/// The lane min-plus kernel over raw **row-major** `a` and `b` (both
/// clamped to `TOP`): returns row-major `C` with
/// `C[i][j] = min_k (a[i][k] + b[k][j])`.
///
/// Loop order is `i, k, j`: for each output row, each `a[i][k]` is
/// broadcast against the contiguous row `b[k]` and min-folded into the
/// contiguous output row by [`lane_min_into`] — no transposition, no
/// horizontal reductions, and the only branch outside the O(n²) bookkeeping
/// is the per-`(i,k)` skip of `∞` left entries (which never changes the
/// minimum). The `k` dimension is walked in `tile`-sized blocks so the
/// `tile × n` slice of `b` is reused across every row of a strip; row
/// strips are computed in disjoint chunks (parallel under `exec`). Exact
/// min ⇒ bit-identical output for every `(tile, exec)`.
pub(crate) fn lanes_kernel<T: TropicalEntry>(
    n: usize,
    a: &[T],
    b: &[T],
    exec: ExecPolicy,
    tile: usize,
) -> Vec<T> {
    debug_assert_eq!(a.len(), n * n);
    debug_assert_eq!(b.len(), n * n);
    let tile = tile.max(1);
    let rows_per_block = exec.row_block_len(n, 1);
    let mut data = vec![T::TOP; n * n];
    exec.for_each_chunk_mut(&mut data, rows_per_block * n.max(1), |block, chunk| {
        let i0 = block * rows_per_block;
        let rows_here = chunk.len() / n.max(1);
        let mut kk = 0;
        while kk < n {
            let kmax = (kk + tile).min(n);
            for off in 0..rows_here {
                let arow = &a[(i0 + off) * n..(i0 + off) * n + n];
                let crow = &mut chunk[off * n..off * n + n];
                for (k, &aik) in arow.iter().enumerate().take(kmax).skip(kk) {
                    if aik >= T::TOP {
                        continue;
                    }
                    lane_min_into(crow, &b[k * n..k * n + n], aik);
                }
            }
            kk = kmax;
        }
    });
    data
}

/// [`lanes_kernel`] at entry width `T` over tropical matrices: each operand
/// is narrowed once with [`TropicalEntry::from_weight`] — a self-product
/// (`a` and `b` the same matrix) narrows its one matrix once — and the
/// output is widened back. Every finite entry of both operands must be
/// within `T`'s entry bound; the engine checks it first.
///
/// # Panics
///
/// Panics if dimensions differ.
pub(crate) fn lanes_product<T: TropicalEntry>(
    a: &DistMatrix,
    b: &DistMatrix,
    exec: ExecPolicy,
    tile: usize,
) -> DistMatrix {
    assert_eq!(a.n(), b.n(), "distance product dimension mismatch");
    let n = a.n();
    let narrow =
        |m: &DistMatrix| -> Vec<T> { m.raw().iter().map(|&w| T::from_weight(w)).collect() };
    let an = narrow(a);
    let bn = (!std::ptr::eq(a, b)).then(|| narrow(b));
    let c = lanes_kernel(n, &an, bn.as_deref().unwrap_or(&an), exec, tile);
    DistMatrix::from_raw(n, c.into_iter().map(T::to_weight).collect())
}

/// The lane-kernel distance product over full-range `u64` entries with
/// every knob explicit: the engine's wide dense path. The tile size is a
/// pure performance parameter: the output is bit-identical to
/// [`distance_product`] for **every** `tile ≥ 1` and every policy (property
/// tested in `tests/kernel_props.rs`); the engine runs it at [`TILE`].
///
/// # Panics
///
/// Panics if dimensions differ.
pub fn distance_product_lanes_opts(
    a: &DistMatrix,
    b: &DistMatrix,
    exec: ExecPolicy,
    tile: usize,
) -> DistMatrix {
    lanes_product::<Weight>(a, b, exec, tile)
}

/// `A^h` over the tropical semiring by binary exponentiation
/// (`O(n³ log h)`), under the `CC_THREADS` execution default. `A^0` is the
/// identity (zero diagonal, `∞` elsewhere).
pub fn power(a: &DistMatrix, h: u64) -> DistMatrix {
    power_with(a, h, ExecPolicy::from_env())
}

/// [`power`] under an explicit [`ExecPolicy`].
///
/// Two classic wasted products are skipped: the accumulator starts as the
/// bit-position's `A^(2^i)` itself instead of multiplying into the identity
/// (the identity is neutral, so `I ⋆ B = B` can be a clone), and the base is
/// never squared once the remaining exponent bits are exhausted.
pub fn power_with(a: &DistMatrix, h: u64, exec: ExecPolicy) -> DistMatrix {
    power_by(a, h, |x, y| distance_product_with(x, y, exec))
}

/// The binary-exponentiation control flow shared by this module and the
/// kernel engine, parameterized over the multiply (see [`power_with`] for
/// the skipped-product details).
pub(crate) fn power_by(
    a: &DistMatrix,
    h: u64,
    multiply: impl Fn(&DistMatrix, &DistMatrix) -> DistMatrix,
) -> DistMatrix {
    let n = a.n();
    let mut result: Option<DistMatrix> = None; // `None` = the tropical identity
    let mut base = a.clone();
    let mut h = h;
    while h > 0 {
        if h & 1 == 1 {
            result = Some(match result {
                None => base.clone(),
                Some(r) => multiply(&r, &base),
            });
        }
        h >>= 1;
        if h > 0 {
            base = multiply(&base, &base);
        }
    }
    result.unwrap_or_else(|| DistMatrix::infinite(n))
}

/// Exact APSP by repeated squaring until fixpoint; returns the distance
/// matrix and the number of squarings (`⌈log₂(n-1)⌉` at most).
pub fn closure(a: &DistMatrix) -> (DistMatrix, usize) {
    closure_by(a, distance_product)
}

/// The squaring-to-fixpoint loop shared by this module and the kernel
/// engine, parameterized over the multiply.
pub(crate) fn closure_by(
    a: &DistMatrix,
    multiply: impl Fn(&DistMatrix, &DistMatrix) -> DistMatrix,
) -> (DistMatrix, usize) {
    let mut cur = a.clone();
    let mut squarings = 0;
    loop {
        let next = multiply(&cur, &cur);
        squarings += 1;
        if next == cur {
            return (next, squarings);
        }
        cur = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::apsp::exact_apsp;
    use cc_graph::graph::Direction;
    use cc_graph::sssp::bellman_ford_hops;
    use rand::{Rng, SeedableRng};

    fn random_graph(n: usize, seed: u64) -> Graph {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut edges = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.gen_bool(0.3) {
                    edges.push((u, v, rng.gen_range(1..50)));
                }
            }
        }
        Graph::from_edges(n, Direction::Undirected, &edges)
    }

    #[test]
    fn adjacency_has_zero_diagonal() {
        let g = random_graph(10, 1);
        let a = adjacency_matrix(&g);
        for v in 0..10 {
            assert_eq!(a.get(v, v), 0);
        }
    }

    #[test]
    fn power_h_equals_h_hop_distances() {
        let g = random_graph(12, 2);
        let a = adjacency_matrix(&g);
        for h in [1u64, 2, 3, 5] {
            let ah = power(&a, h);
            for s in 0..g.n() {
                let bf = bellman_ford_hops(&g, s, h as usize);
                for (t, &d) in bf.iter().enumerate() {
                    assert_eq!(ah.get(s, t), d, "h={h} s={s} t={t}");
                }
            }
        }
    }

    #[test]
    fn closure_equals_exact_apsp() {
        let g = random_graph(14, 3);
        let a = adjacency_matrix(&g);
        let (closed, squarings) = closure(&a);
        assert_eq!(closed, exact_apsp(&g));
        assert!(squarings <= 5, "squarings = {squarings}"); // ceil(log2(13)) + 1
    }

    #[test]
    fn product_is_associative_on_random_matrices() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let n = 8;
        let mk = |rng: &mut rand::rngs::StdRng| {
            let data: Vec<u64> = (0..n * n)
                .map(|_| {
                    if rng.gen_bool(0.3) {
                        INF
                    } else {
                        rng.gen_range(0..100)
                    }
                })
                .collect();
            DistMatrix::from_raw(n, data)
        };
        for _ in 0..10 {
            let (a, b, c) = (mk(&mut rng), mk(&mut rng), mk(&mut rng));
            let left = distance_product(&distance_product(&a, &b), &c);
            let right = distance_product(&a, &distance_product(&b, &c));
            assert_eq!(left, right);
        }
    }

    #[test]
    fn identity_is_neutral() {
        let g = random_graph(9, 4);
        let a = adjacency_matrix(&g);
        let id = DistMatrix::infinite(9);
        assert_eq!(distance_product(&a, &id), a);
        assert_eq!(distance_product(&id, &a), a);
    }

    #[test]
    fn lanes_product_matches_naive_across_tiles() {
        let g = random_graph(29, 16);
        let h = random_graph(29, 17);
        let a = adjacency_matrix(&g);
        let b = adjacency_matrix(&h);
        // `A ⋆ B`, and the self-product `A ⋆ A` every squaring runs.
        for (x, y) in [(&a, &b), (&a, &a)] {
            let naive = distance_product(x, y);
            for tile in [1usize, 3, 8, 29, 64, 100] {
                for threads in [1usize, 2, 4] {
                    let exec = ExecPolicy::with_threads(threads);
                    let out = distance_product_lanes_opts(x, y, exec, tile);
                    assert_eq!(out, naive, "tile={tile} threads={threads}");
                }
            }
        }
    }

    #[test]
    fn lanes_product_handles_inf_saturation() {
        let n = 4;
        let mut a = DistMatrix::infinite(n);
        let mut b = DistMatrix::infinite(n);
        a.set(0, 1, INF - 1);
        b.set(1, 2, 5);
        a.set(0, 3, 7);
        b.set(3, 2, 9);
        let naive = distance_product(&a, &b);
        let lanes = distance_product_lanes_opts(&a, &b, ExecPolicy::Seq, 2);
        assert_eq!(lanes, naive);
        assert_eq!(lanes.get(0, 2), 16); // via node 3, not the ~INF path
    }

    #[test]
    fn narrow_lane_kernels_match_the_wide_one() {
        // The u32/u16 instantiations of the lane kernel compute the same
        // min-plus as the wide one on entries within their bounds, for a
        // product and a self-product (one narrowed matrix as both operands).
        let n = 13;
        let mut rng = rand::rngs::StdRng::seed_from_u64(19);
        let mut mk = || {
            let data = (0..n * n)
                .map(|_| {
                    if rng.gen_bool(0.3) {
                        INF
                    } else {
                        rng.gen_range(0..1000)
                    }
                })
                .collect();
            DistMatrix::from_raw(n, data)
        };
        let (a, b) = (mk(), mk());
        for (x, y) in [(&a, &b), (&a, &a)] {
            let want = distance_product(x, y);
            assert_eq!(lanes_product::<u64>(x, y, ExecPolicy::Seq, 7), want);
            assert_eq!(lanes_product::<u32>(x, y, ExecPolicy::Seq, 7), want);
            assert_eq!(lanes_product::<u16>(x, y, ExecPolicy::Seq, 7), want);
        }
    }

    #[test]
    fn power_zero_is_identity() {
        let g = random_graph(6, 5);
        let a = adjacency_matrix(&g);
        assert_eq!(power(&a, 0), DistMatrix::infinite(6));
    }
}
