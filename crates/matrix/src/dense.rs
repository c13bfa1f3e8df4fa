//! Dense min-plus products and exponentiation.
//!
//! Three dense kernels live here:
//!
//! * [`distance_product_with`] — the naive row-blocked triple loop. This is
//!   the **reference semantics** every other kernel is tested against; it is
//!   deliberately left simple.
//! * [`distance_product_lanes_with`] — the **lane kernel** and the
//!   production dense path ([`crate::engine`] routes every dense multiply
//!   here). Loop order is `i, k, j`: the innermost loop broadcasts one
//!   pre-clamped `A[i,k]` against a contiguous row of `B` and min-folds it
//!   into the contiguous output row — a pure branchless `add + min` stream
//!   over [`TropicalEntry::LANES`]-wide lanes with a scalar tail, no
//!   transposition, no `∞` branches, no reduction across lanes. The same
//!   generic kernel instantiates at `u64` (full range), `u32` (compact),
//!   and `u16` (ultra-compact) entry widths. The `u64` arm stays whatever
//!   its speed against the naive loop: it is the same generic code as the
//!   narrow arms, not a kernel of its own; it is the only lawful arm for
//!   entries past the `u32` bound; and the wide *squares* that dominate
//!   [`power`]/[`closure`] already take the k-tiled kernel below.
//! * [`square_ktiled_with`] — the blocked-Floyd–Warshall-style self-product
//!   used by [`power`]/[`closure`]-shaped squarings: the output is walked in
//!   [`KTILED_ROWS`]-row accumulator strips and the *full* `k` sweep runs
//!   against each strip before moving on, so the strip stays L1-resident
//!   across the sweep and each operand row fetched serves every strip row
//!   while hot.
//!
//! All kernels compute the exact entrywise minimum over all `k`, so their
//! outputs are **bit-identical** for every tile size, lane width, and thread
//! count — `min` over unsigned integers has no rounding. The
//! auto-dispatching front end that picks between these and the sparse
//! kernel is [`crate::engine`].

use cc_graph::{wadd, DistMatrix, Graph, Weight, INF};
use cc_par::ExecPolicy;
use std::sync::OnceLock;

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

/// Default tile size (rows of the `k` dimension per tile) for the blocked
/// kernels when `CC_TILE` is unset: small enough that a full `tile × n`
/// slice of the right operand fits in L2 at the sizes the pipelines use.
pub const DEFAULT_TILE: usize = 64;

/// The tile size used by [`distance_product_lanes_with`] and
/// [`square_ktiled_with`]: the `CC_TILE` environment variable (read once
/// per process), else [`DEFAULT_TILE`]. Values are clamped to at least 1.
/// The tile size never changes results, only wall-clock time.
pub fn tile_size() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| {
        std::env::var("CC_TILE")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&t| t > 0)
            .unwrap_or(DEFAULT_TILE)
    })
}

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

/// An entry type the dense kernels can run over: `u64` for full-range
/// tropical weights, `u32` for the compact bounded-entry path, `u16` for
/// the ultra-compact small-weight path (see [`crate::engine`]). `TOP`
/// plays the role of `∞`.
///
/// **Kernel precondition:** every entry fed to [`lanes_kernel`] or
/// [`ktiled_kernel`] must be at most `TOP` (callers clamp once, O(n²),
/// before the O(n³) loop). Because `TOP ≤ MAX/4`, the sum of two clamped
/// entries never overflows, so `tadd` is a plain wrapping add — no
/// per-element saturation in the hot loop — and any sum involving a `TOP`
/// operand lands at or above `TOP`, where it can never win a minimum
/// against an output entry (those start at `TOP` and only decrease). That
/// is exactly `wadd`'s observable behaviour.
pub(crate) trait TropicalEntry: Copy + Ord + Send + Sync {
    /// The infinity sentinel for this width (≤ `MAX/4`).
    const TOP: Self;
    /// Unrolled lane count of the branchless inner loop for this width.
    const LANES: usize;
    /// Semiring addition under the clamped-input precondition.
    fn tadd(self, rhs: Self) -> Self;
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

/// A copy with every entry clamped to `TOP` — establishes the
/// [`TropicalEntry`] kernel precondition (values above `TOP` all mean `∞`).
fn clamp_top<T: TropicalEntry>(src: &[T]) -> Vec<T> {
    src.iter().map(|&w| w.min(T::TOP)).collect()
}

/// Min-folds `aik + brow[j]` into `crow[j]` for every `j`: the branchless
/// inner loop of the lane kernels. The main loop runs over fixed
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

/// Rows per accumulator strip in [`ktiled_kernel`]: small enough that the
/// strip (`KTILED_ROWS × n` entries) plus one operand row stay L1-resident
/// (4 × 2 KiB + 2 KiB = 10 KiB for `u32` at n = 512), large enough that
/// each `tile × n` operand block fetched for a `k` step is reused across
/// several output rows before eviction.
pub const KTILED_ROWS: usize = 4;

/// The blocked-Floyd–Warshall-style **k-tiled** self-product kernel over
/// raw row-major `a` (clamped to `TOP`): returns `C = a ⋆ a`.
///
/// Where [`lanes_kernel`] streams a whole `rows_per_block` strip against
/// each `k` block (the block's operand rows are evicted and re-fetched
/// once per output row when the strip outgrows L2), this kernel walks the
/// output in small [`KTILED_ROWS`]-row accumulator strips and runs the
/// **full** `k` sweep against each strip before moving on — the strip
/// stays L1-resident across the entire sweep and each `tile × n` operand
/// block is reused across the strip's rows while still hot, which is the
/// access pattern of the blocked Floyd–Warshall inner phase. The inner
/// loop is the same full-width branchless [`lane_min_into`]; loop order
/// within a strip stays `i, k, j` (`k`-outer orderings defeat the
/// vectorizer's store chain — measured 5x slower). Used by the
/// [`power`]/[`closure`]-shaped squarings where the same matrix is both
/// operands. Exact min ⇒ bit-identical to the naive reference for every
/// `(tile, exec)` (the `tile` parameter blocks the `k` sweep, matching the
/// other kernels' knob).
pub(crate) fn ktiled_kernel<T: TropicalEntry>(
    n: usize,
    a: &[T],
    exec: ExecPolicy,
    tile: usize,
) -> Vec<T> {
    debug_assert_eq!(a.len(), n * n);
    let tile = tile.max(1);
    let rows_per_block = exec.row_block_len(n, 1);
    let mut data = vec![T::TOP; n * n];
    exec.for_each_chunk_mut(&mut data, rows_per_block * n.max(1), |block, chunk| {
        let i0 = block * rows_per_block;
        let rows_here = chunk.len() / n.max(1);
        let mut ii = 0;
        while ii < rows_here {
            let imax = (ii + KTILED_ROWS).min(rows_here);
            let mut kk = 0;
            while kk < n {
                let kmax = (kk + tile).min(n);
                for i in ii..imax {
                    let arow = &a[(i0 + i) * n..(i0 + i) * n + n];
                    let crow = &mut chunk[i * n..i * n + n];
                    for (k, &aik) in arow.iter().enumerate().take(kmax).skip(kk) {
                        if aik >= T::TOP {
                            continue;
                        }
                        lane_min_into(crow, &a[k * n..k * n + n], aik);
                    }
                }
                kk = kmax;
            }
            ii = imax;
        }
    });
    data
}

/// The lane-kernel distance product: same result as [`distance_product`],
/// computed by [`lanes_kernel`] over `u64` entries with the `CC_TILE` tile
/// size and the `CC_THREADS` execution default. This is the engine's wide
/// dense path; the bounded-entry `u32`/`u16` instantiations are dispatched
/// by [`crate::engine`].
///
/// # Panics
///
/// Panics if dimensions differ.
pub fn distance_product_lanes(a: &DistMatrix, b: &DistMatrix) -> DistMatrix {
    distance_product_lanes_with(a, b, ExecPolicy::from_env())
}

/// [`distance_product_lanes`] under an explicit [`ExecPolicy`].
///
/// # Panics
///
/// Panics if dimensions differ.
pub fn distance_product_lanes_with(a: &DistMatrix, b: &DistMatrix, exec: ExecPolicy) -> DistMatrix {
    distance_product_lanes_opts(a, b, exec, tile_size())
}

/// [`distance_product_lanes`] with every knob explicit. The tile size is a
/// pure performance parameter: the output is bit-identical to
/// [`distance_product`] for **every** `tile ≥ 1` and every policy (property
/// tested in `tests/kernel_props.rs`).
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
    assert_eq!(a.n(), b.n(), "distance product dimension mismatch");
    let n = a.n();
    let ac = clamp_top::<Weight>(a.raw());
    let bc = clamp_top::<Weight>(b.raw());
    DistMatrix::from_raw(n, lanes_kernel(n, &ac, &bc, exec, tile))
}

/// The k-tiled self-product `A ⋆ A`: same result as
/// `distance_product(a, a)`, computed by [`ktiled_kernel`] with the
/// `CC_TILE` tile size and the `CC_THREADS` execution default.
pub fn square_ktiled(a: &DistMatrix) -> DistMatrix {
    square_ktiled_with(a, ExecPolicy::from_env())
}

/// [`square_ktiled`] under an explicit [`ExecPolicy`].
pub fn square_ktiled_with(a: &DistMatrix, exec: ExecPolicy) -> DistMatrix {
    square_ktiled_opts(a, exec, tile_size())
}

/// [`square_ktiled`] with every knob explicit; bit-identical to
/// `distance_product(a, a)` for every `tile ≥ 1` and every policy.
pub fn square_ktiled_opts(a: &DistMatrix, exec: ExecPolicy, tile: usize) -> DistMatrix {
    let n = a.n();
    let ac = clamp_top::<Weight>(a.raw());
    DistMatrix::from_raw(n, ktiled_kernel(n, &ac, exec, tile))
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
        let naive = distance_product(&a, &b);
        for tile in [1usize, 3, 8, 29, 64, 100] {
            for threads in [1usize, 2, 4] {
                let out =
                    distance_product_lanes_opts(&a, &b, ExecPolicy::with_threads(threads), tile);
                assert_eq!(out, naive, "tile={tile} threads={threads}");
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
    fn ktiled_square_matches_naive_across_tiles() {
        let g = random_graph(27, 18);
        let a = adjacency_matrix(&g);
        let naive = distance_product(&a, &a);
        for tile in [1usize, 5, 27, 64, 100] {
            for threads in [1usize, 2, 4] {
                let out = square_ktiled_opts(&a, ExecPolicy::with_threads(threads), tile);
                assert_eq!(out, naive, "tile={tile} threads={threads}");
            }
        }
    }

    #[test]
    fn narrow_lane_kernels_match_the_wide_one() {
        // The u32/u16 instantiations of lanes_kernel/ktiled_kernel compute
        // the same min-plus as the wide kernel on pre-narrowed data.
        let n = 13;
        let mut rng = rand::rngs::StdRng::seed_from_u64(19);
        let wide: Vec<u64> = (0..n * n)
            .map(|_| {
                if rng.gen_bool(0.3) {
                    INF
                } else {
                    rng.gen_range(0..1000)
                }
            })
            .collect();
        let w64: Vec<u64> = wide
            .iter()
            .map(|&w| w.min(<u64 as TropicalEntry>::TOP))
            .collect();
        let w32: Vec<u32> = wide
            .iter()
            .map(|&w| if w >= INF { u32::MAX / 4 } else { w as u32 })
            .collect();
        let w16: Vec<u16> = wide
            .iter()
            .map(|&w| if w >= INF { u16::MAX / 4 } else { w as u16 })
            .collect();
        let c64 = lanes_kernel::<u64>(n, &w64, &w64, ExecPolicy::Seq, 7);
        let c32 = lanes_kernel::<u32>(n, &w32, &w32, ExecPolicy::Seq, 7);
        let c16 = lanes_kernel::<u16>(n, &w16, &w16, ExecPolicy::Seq, 7);
        let k64 = ktiled_kernel::<u64>(n, &w64, ExecPolicy::Seq, 5);
        let k32 = ktiled_kernel::<u32>(n, &w32, ExecPolicy::Seq, 5);
        let k16 = ktiled_kernel::<u16>(n, &w16, ExecPolicy::Seq, 5);
        for i in 0..n * n {
            let finite = |v: u64, top: u64| if v >= top { None } else { Some(v) };
            let want = finite(c64[i], INF);
            assert_eq!(
                finite(c32[i] as u64, (u32::MAX / 4) as u64),
                want,
                "u32 {i}"
            );
            assert_eq!(
                finite(c16[i] as u64, (u16::MAX / 4) as u64),
                want,
                "u16 {i}"
            );
            let want_k = finite(k64[i], INF);
            assert_eq!(want, want_k, "square vs product {i}");
            assert_eq!(finite(k32[i] as u64, (u32::MAX / 4) as u64), want_k);
            assert_eq!(finite(k16[i] as u64, (u16::MAX / 4) as u64), want_k);
        }
    }

    #[test]
    fn tile_size_is_positive() {
        assert!(tile_size() >= 1);
    }

    #[test]
    fn power_zero_is_identity() {
        let g = random_graph(6, 5);
        let a = adjacency_matrix(&g);
        assert_eq!(power(&a, 0), DistMatrix::infinite(6));
    }
}
