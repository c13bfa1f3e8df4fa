//! Dense min-plus products and exponentiation.
//!
//! Two dense kernels live here:
//!
//! * [`distance_product_with`] — the naive row-blocked triple loop. This is
//!   the **reference semantics** every other kernel is tested against; it is
//!   deliberately left simple.
//! * [`distance_product_lanes_opts`] — the **lane kernel** and the
//!   production dense path ([`crate::engine`] routes every dense multiply,
//!   squares included, here). It is register-blocked: for each [`TILE`] of
//!   the `k` dimension, an `R × W` block of the output stays in vector
//!   registers while each pre-clamped `A[i,k]` is broadcast against a
//!   `W`-wide row of a `B` panel and min-folded in — a branchless
//!   `add + min` with no transposition, no `∞` branches and no reduction
//!   across lanes — and every row group of a row strip reuses each
//!   `TILE × W` panel of `B` before the next. A plain row loop covers the
//!   rows and columns past the last full block. The one generic body is
//!   compiled for AVX-512, for AVX2 and for the portable baseline, and the
//!   kernel runs on the widest of them the host has, picked once at run
//!   time ([`simd_isa`]); no setting changes it. It instantiates at `u64`
//!   (full range), `u32` (compact) and `u16` (ultra-compact) entry widths.
//!   The `u64` arm stays whatever its speed against the naive loop: it is
//!   the same generic code as the narrow arms, not a kernel of its own,
//!   and it is the only lawful arm for entries past the `u32` bound.
//!
//! Both kernels compute the exact entrywise minimum over all `k`, so their
//! outputs are **bit-identical** for every tile size, block shape,
//! instruction set and thread count — an integer `min` has no rounding.
//! The auto-dispatching front end that picks the lane kernel's width or the
//! sparse kernel is [`crate::engine`].

use cc_graph::{wadd, DistMatrix, Graph, Weight, INF};
use cc_par::ExecPolicy;
use std::sync::atomic::{AtomicBool, Ordering};
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

/// Rows of the `k` dimension per block in the lane kernel. A `TILE × W`
/// panel of the right operand (at most 16 KiB: 64 rows of a 256-byte
/// AVX-512 block row) is reread by every row group of a strip, so it stays
/// in L1. The strip's `TILE`-column slice of the left operand (128 KiB for
/// a 256-row strip of `u64` entries) is reread for every panel, so it
/// stays in L2. Each block of the output is loaded and stored once per
/// tile. The tile never changes results, only wall-clock time.
pub const TILE: usize = 64;

/// Unrolled lane count of the `u64` row loop that covers a strip's tails.
/// In the register block, `u64` lanes lower to `vpaddq` + `vpminsq` on
/// AVX-512; to `vpaddq` + `vpcmpgtq` + `vblendvpd` on AVX2, which has no
/// packed 64-bit min; and to scalar `add` + `cmp` + `cmovl` on portable
/// SSE2, which has no 64-bit compare (`pcmpgtq` is SSE4.2).
pub const WIDE_LANES: usize = 8;

/// Unrolled lane count of the `u32` row loop that covers a strip's tails.
/// In the register block, `u32` lanes lower to `vpaddd` + `vpminsd` on
/// AVX-512 and AVX2, and to `paddd` + `pcmpgtd` and a mask blend
/// (`pand`/`pandn`/`por`) on portable SSE2, which has no 32-bit min
/// (`pminsd` is SSE4.1).
pub const COMPACT_LANES: usize = 8;

/// Unrolled lane count of the `u16` row loop that covers a strip's tails.
/// In the register block, `u16` lanes lower to `vpaddw` + `vpminsw` on
/// AVX-512 and AVX2, and to `paddw` + `pminsw` on portable SSE2. SSE2 has
/// a signed 16-bit min but no unsigned one (`pminuw` is SSE4.1), so the
/// kernel compares lanes as signed integers at every width: exact, because
/// no operand (at most twice the `u16` infinity sentinel, `2 × 16383`)
/// reaches `2^15`.
pub const ULTRA_LANES: usize = 16;

/// An instruction set the lane kernel has an entry point for. Each entry
/// point compiles the one generic block body ([`strip`]) with its target
/// features enabled; the kernel runs on the widest one the host has,
/// detected once ([`Isa::host`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Isa {
    /// AVX-512F + AVX-512BW: 512-bit vectors, with a packed min at every
    /// width (BW adds the 16-bit one).
    #[cfg(target_arch = "x86_64")]
    Avx512,
    /// AVX2: 256-bit vectors, with a packed min at 16 and 32 bits.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// The target's baseline: SSE2's 128-bit vectors on x86-64.
    Portable,
}

impl Isa {
    /// Every instruction set this host can run the kernel on, widest first.
    pub(crate) fn available() -> Vec<Isa> {
        let mut isas = Vec::new();
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512bw") {
                isas.push(Isa::Avx512);
            }
            if is_x86_feature_detected!("avx2") {
                isas.push(Isa::Avx2);
            }
        }
        isas.push(Isa::Portable);
        isas
    }

    /// The widest instruction set the host has, detected on first use and
    /// cached: the one every lane-kernel product runs on.
    pub(crate) fn host() -> Isa {
        static HOST: OnceLock<Isa> = OnceLock::new();
        *HOST.get_or_init(|| Isa::available()[0])
    }

    /// `avx512`, `avx2` or `portable`.
    pub(crate) fn name(self) -> &'static str {
        match self {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => "avx512",
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => "avx2",
            Isa::Portable => "portable",
        }
    }

    /// Bytes per vector register.
    fn vector_bytes(self) -> usize {
        match self {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => 64,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => 32,
            Isa::Portable => 16,
        }
    }
}

/// The instruction set the lane kernel runs on in this process: `avx512`,
/// `avx2` or `portable`. Picked once from the host's CPU features, widest
/// first; no setting changes it, and outputs are bit-identical on all three.
pub fn simd_isa() -> &'static str {
    Isa::host().name()
}

/// Lanes of `T` per vector instruction on the host's instruction set.
pub(crate) fn vector_lanes<T>() -> usize {
    Isa::host().vector_bytes() / std::mem::size_of::<T>()
}

/// One row strip of the lane kernel: `(n, a, b, c, tile)` min-folds
/// `a ⋆ b` into `c`, where `a` and `c` hold the strip's rows.
type StripFn<T> = unsafe fn(usize, &[T], &[T], &mut [T], usize);

/// A lane-kernel entry point with its register block: `rows × lanes`
/// entries of the output stay in registers across a tile of `k`.
pub(crate) struct Entry<T> {
    rows: usize,
    /// The block width `W`, which only the tests read.
    #[cfg(test)]
    lanes: usize,
    run: StripFn<T>,
}

/// `entry!(f::<T, R, W>)`: the [`Entry`] of `f` at block shape `R × W`.
macro_rules! entry {
    ($f:ident::<$t:ty, $r:literal, $w:literal>) => {
        Entry {
            rows: $r,
            #[cfg(test)]
            lanes: $w,
            run: $f::<$t, $r, $w>,
        }
    };
}

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
    /// The largest finite entry the kernel takes at this width: the sum of
    /// two such entries stays strictly below `TOP`, so the narrow kernel is
    /// bit-identical to the wide one. The wide width takes every entry.
    const MAX_ENTRY: Weight;
    /// Unrolled lane count of the row loop ([`lane_min_into`]).
    const LANES: usize;
    /// Semiring addition under the clamped-input precondition.
    fn tadd(self, rhs: Self) -> Self;
    /// The smaller of two entries, compared as signed integers: exact
    /// under the precondition, where no operand (at most `2·TOP`) has its
    /// top bit set, and the only packed 16-bit min SSE2 has (`pminsw`).
    fn tmin(self, rhs: Self) -> Self;
    /// This width's entry point on `isa`.
    fn entry(isa: Isa) -> Entry<Self>;

    /// A tropical weight at this width, clamped to `TOP`: `∞` (any
    /// `w ≥ INF`) becomes `TOP`. Exact for every finite `w` within
    /// [`TropicalEntry::MAX_ENTRY`], which [`recast`] checks.
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
    const MAX_ENTRY: Weight = Weight::MAX;
    const LANES: usize = WIDE_LANES;
    #[inline(always)]
    fn tadd(self, rhs: u64) -> u64 {
        self.wrapping_add(rhs)
    }
    #[inline(always)]
    fn tmin(self, rhs: u64) -> u64 {
        (self as i64).min(rhs as i64) as u64
    }
    fn entry(isa: Isa) -> Entry<u64> {
        match isa {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => entry!(avx512::<u64, 4, 32>),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => entry!(avx2::<u64, 3, 16>),
            Isa::Portable => entry!(strip::<u64, 4, 4>),
        }
    }
}

impl TropicalEntry for u32 {
    const TOP: u32 = u32::MAX / 4;
    const MAX_ENTRY: Weight = ((Self::TOP - 1) / 2) as Weight;
    const LANES: usize = COMPACT_LANES;
    #[inline(always)]
    fn tadd(self, rhs: u32) -> u32 {
        self.wrapping_add(rhs)
    }
    #[inline(always)]
    fn tmin(self, rhs: u32) -> u32 {
        (self as i32).min(rhs as i32) as u32
    }
    fn entry(isa: Isa) -> Entry<u32> {
        match isa {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => entry!(avx512::<u32, 4, 64>),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => entry!(avx2::<u32, 3, 32>),
            Isa::Portable => entry!(strip::<u32, 1, 32>),
        }
    }
}

impl TropicalEntry for u16 {
    const TOP: u16 = u16::MAX / 4;
    const MAX_ENTRY: Weight = ((Self::TOP - 1) / 2) as Weight;
    const LANES: usize = ULTRA_LANES;
    #[inline(always)]
    fn tadd(self, rhs: u16) -> u16 {
        self.wrapping_add(rhs)
    }
    #[inline(always)]
    fn tmin(self, rhs: u16) -> u16 {
        (self as i16).min(rhs as i16) as u16
    }
    fn entry(isa: Isa) -> Entry<u16> {
        match isa {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => entry!(avx512::<u16, 4, 128>),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => entry!(avx2::<u16, 3, 64>),
            Isa::Portable => entry!(strip::<u16, 1, 64>),
        }
    }
}

/// Min-folds `aik + brow[j]` into `crow[j]` for every `j`: the lane
/// kernel's row loop, which covers the row and column tails of a strip.
/// The main loop runs over fixed [`TropicalEntry::LANES`]-wide chunks — a
/// shape LLVM turns into packed integer `add`/`min` with no branches and no
/// cross-lane reduction — and the sub-lane remainder is handled by an
/// explicit scalar tail.
#[inline(always)]
fn lane_min_into<T: TropicalEntry>(crow: &mut [T], brow: &[T], aik: T) {
    debug_assert_eq!(crow.len(), brow.len());
    let mut cc = crow.chunks_exact_mut(T::LANES);
    let bb = brow.chunks_exact(T::LANES);
    let btail = bb.remainder();
    for (cl, bl) in (&mut cc).zip(bb) {
        for (c, &b) in cl.iter_mut().zip(bl) {
            *c = c.tmin(aik.tadd(b));
        }
    }
    for (c, &b) in cc.into_remainder().iter_mut().zip(btail) {
        *c = c.tmin(aik.tadd(b));
    }
}

/// The one block body of the lane kernel, over a strip of rows: `a` and
/// `c` hold the strip's rows of the left operand and of the output, `b` is
/// the whole right operand, all row-major with `n` columns.
///
/// For each `tile` of `k`, an `R × W` block of `c` is loaded into
/// registers, min-folded with `a[i][k] + b[k][j0..j0 + W]` for every `k` of
/// the tile, and stored back; every row group of the strip reuses each
/// `tile × W` panel of `b` before the next panel. The rows past the last
/// full group and the columns past the last full panel take the row loop
/// [`lane_min_into`], which skips `∞` left entries. The block itself has no
/// branch: a `TOP` entry of `a` adds to at least `TOP` and never wins.
#[inline(always)]
fn strip<T: TropicalEntry, const R: usize, const W: usize>(
    n: usize,
    a: &[T],
    b: &[T],
    c: &mut [T],
    tile: usize,
) {
    let rows = c.len() / n;
    let (full_rows, full_cols) = (rows - rows % R, n - n % W);
    let mut kk = 0;
    while kk < n {
        let kmax = (kk + tile).min(n);
        for j0 in (0..full_cols).step_by(W) {
            for i0 in (0..full_rows).step_by(R) {
                let mut acc = [[T::TOP; W]; R];
                for (r, row) in acc.iter_mut().enumerate() {
                    row.copy_from_slice(&c[(i0 + r) * n + j0..][..W]);
                }
                let arows: [&[T]; R] = std::array::from_fn(|r| &a[(i0 + r) * n..][kk..kmax]);
                for t in 0..kmax - kk {
                    let panel: &[T; W] = b[(kk + t) * n + j0..][..W].try_into().unwrap();
                    for (row, arow) in acc.iter_mut().zip(&arows) {
                        let aik = arow[t];
                        for (cj, &bj) in row.iter_mut().zip(panel) {
                            *cj = cj.tmin(aik.tadd(bj));
                        }
                    }
                }
                for (r, row) in acc.iter().enumerate() {
                    c[(i0 + r) * n + j0..][..W].copy_from_slice(row);
                }
            }
        }
        for i in 0..rows {
            let j0 = if i < full_rows { full_cols } else { 0 };
            if j0 == n {
                continue;
            }
            for k in kk..kmax {
                let aik = a[i * n + k];
                if aik < T::TOP {
                    lane_min_into(
                        &mut c[i * n + j0..(i + 1) * n],
                        &b[k * n + j0..(k + 1) * n],
                        aik,
                    );
                }
            }
        }
        kk = kmax;
    }
}

/// [`strip`] compiled for AVX-512F + AVX-512BW; a host without them must
/// never call it.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw")]
fn avx512<T: TropicalEntry, const R: usize, const W: usize>(
    n: usize,
    a: &[T],
    b: &[T],
    c: &mut [T],
    tile: usize,
) {
    strip::<T, R, W>(n, a, b, c, tile)
}

/// [`strip`] compiled for AVX2; a host without it must never call it.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn avx2<T: TropicalEntry, const R: usize, const W: usize>(
    n: usize,
    a: &[T],
    b: &[T],
    c: &mut [T],
    tile: usize,
) {
    strip::<T, R, W>(n, a, b, c, tile)
}

/// The lane min-plus kernel over raw **row-major** `a` and `b` (both
/// clamped to `TOP`): returns row-major `C` with
/// `C[i][j] = min_k (a[i][k] + b[k][j])`, computed on the host's widest
/// instruction set ([`Isa::host`]).
///
/// Row strips, each a whole number of register blocks where `n` allows,
/// are computed in disjoint chunks (parallel under `exec`) by the entry
/// point's [`strip`]. Exact min ⇒ bit-identical output for every
/// `(tile, exec)` and every instruction set.
pub(crate) fn lanes_kernel<T: TropicalEntry>(
    n: usize,
    a: &[T],
    b: &[T],
    exec: ExecPolicy,
    tile: usize,
) -> Vec<T> {
    lanes_kernel_on(Isa::host(), n, a, b, exec, tile)
}

/// [`lanes_kernel`] on the entry point for `isa`, which must be one of
/// [`Isa::available`].
pub(crate) fn lanes_kernel_on<T: TropicalEntry>(
    isa: Isa,
    n: usize,
    a: &[T],
    b: &[T],
    exec: ExecPolicy,
    tile: usize,
) -> Vec<T> {
    debug_assert_eq!(a.len(), n * n);
    debug_assert_eq!(b.len(), n * n);
    debug_assert!(Isa::available().contains(&isa));
    let tile = tile.max(1);
    let entry = T::entry(isa);
    let strip_len = exec.row_block_len(n.div_ceil(entry.rows), entry.rows * n);
    let mut data = vec![T::TOP; n * n];
    exec.for_each_chunk_mut(&mut data, strip_len, |block, chunk| {
        let a = &a[block * strip_len..][..chunk.len()];
        // SAFETY: `entry` is `isa`'s entry point, and `isa` is one of
        // `Isa::available()`, whose features the host was checked for.
        unsafe { (entry.run)(n, a, b, chunk, tile) }
    });
    data
}

/// Entries held at width `S` recast to width `T` in one pass, a block per
/// task under `exec`, or `None` when a finite entry is past `T`'s
/// [`TropicalEntry::MAX_ENTRY`]: nothing is ever truncated. `∞` at either
/// width maps to `∞` at the other, and to a wide `T` every finite entry is
/// exact, so a widening never fails; from wide weights the pass also clamps
/// every `w ≥ INF` to `TOP`, as the kernel requires. The output is
/// allocated zeroed, which for a large matrix is fresh pages: each task
/// faults in its own block's.
pub(crate) fn recast<S: TropicalEntry, T: TropicalEntry>(
    src: &[S],
    exec: ExecPolicy,
) -> Option<Vec<T>> {
    let past = AtomicBool::new(false);
    let mut out = vec![T::from_weight(0); src.len()];
    let block = exec.row_block_len(src.len(), 1);
    exec.for_each_chunk_mut(&mut out, block, |i, chunk| {
        let mut over = false;
        for (y, &x) in chunk.iter_mut().zip(&src[i * block..]) {
            let w = x.to_weight();
            over |= w < INF && w > T::MAX_ENTRY;
            *y = T::from_weight(w);
        }
        if over {
            // The flag publishes no other data, and the tasks are joined
            // before it is read.
            past.store(true, Ordering::Relaxed);
        }
    });
    (!past.into_inner()).then_some(out)
}

/// [`lanes_kernel`] at entry width `T` over `n × n` operands held at width
/// `S`: each operand is [`recast`] to `T` in one checked pass (a
/// self-product, `a` and `b` the same slice, recasts its one matrix once),
/// and the product comes back at width `T`. `None` when a finite entry of
/// either operand is past `T`'s entry bound.
pub(crate) fn lanes_product<S: TropicalEntry, T: TropicalEntry>(
    n: usize,
    a: &[S],
    b: &[S],
    exec: ExecPolicy,
    tile: usize,
) -> Option<Vec<T>> {
    let an = recast::<S, T>(a, exec)?;
    let bn = if std::ptr::eq(a, b) {
        None
    } else {
        Some(recast::<S, T>(b, exec)?)
    };
    let bn = bn.as_deref().unwrap_or(&an);
    Some(lanes_kernel(n, &an, bn, exec, tile))
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
    assert_eq!(a.n(), b.n(), "distance product dimension mismatch");
    let n = a.n();
    // The wide kernel's output entries are at most `INF` already.
    let c = lanes_product::<Weight, Weight>(n, a.raw(), b.raw(), exec, tile)
        .expect("the wide kernel takes every entry");
    DistMatrix::from_raw(n, c)
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
/// matrix and the number of squarings. For an adjacency matrix (zero
/// diagonal) on `n ≥ 2` nodes that is at most `⌈log₂(n-1)⌉ + 1`: the
/// squarings that reach the fixpoint, plus the last one, which only
/// confirms it. A path graph takes every one of them. This is the reference
/// loop; [`crate::engine::closure`] is the production one.
pub fn closure(a: &DistMatrix) -> (DistMatrix, usize) {
    let mut cur = a.clone();
    let mut squarings = 0;
    loop {
        let next = distance_product(&cur, &cur);
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
    fn closure_squarings_on_paths_are_pinned() {
        // ⌈log₂(n-1)⌉ squarings reach the fixpoint; one more confirms it.
        for (n, want) in [(2, 1), (3, 2), (5, 3), (9, 4), (17, 5), (33, 6)] {
            let edges: Vec<_> = (1..n).map(|v| (v - 1, v, 1)).collect();
            let g = Graph::from_edges(n, Direction::Undirected, &edges);
            let (closed, squarings) = closure(&adjacency_matrix(&g));
            assert_eq!(squarings, want, "n={n}");
            assert_eq!(closed, exact_apsp(&g), "n={n}");
        }
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
        fn widen<T: TropicalEntry>(n: usize, c: Option<Vec<T>>) -> DistMatrix {
            let c = recast::<T, u64>(&c.unwrap(), ExecPolicy::with_threads(2));
            DistMatrix::from_raw(n, c.unwrap())
        }
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
            let (x, y) = (x.raw(), y.raw());
            let wide = lanes_product::<u64, u64>(n, x, y, ExecPolicy::Seq, 7);
            let compact = lanes_product::<u64, u32>(n, x, y, ExecPolicy::Seq, 7);
            let ultra = lanes_product::<u64, u16>(n, x, y, ExecPolicy::Seq, 7);
            assert_eq!(DistMatrix::from_raw(n, wide.unwrap()), want);
            assert_eq!(widen(n, compact), want);
            assert_eq!(widen(n, ultra), want);
        }
    }

    #[test]
    fn recast_refuses_entries_past_the_bound() {
        let top = <u16 as TropicalEntry>::TOP;
        let bound = <u16 as TropicalEntry>::MAX_ENTRY;
        // At the bound and at `∞` (above `INF` too) the round trip is exact.
        let wide = [0, bound, INF, INF + 5, Weight::MAX];
        let seq = ExecPolicy::Seq;
        let narrow = recast::<u64, u16>(&wide, seq).expect("every entry fits");
        assert_eq!(narrow, [0, bound as u16, top, top, top]);
        let back = recast::<u16, u64>(&narrow, seq);
        assert_eq!(back, Some(vec![0, bound, INF, INF, INF]));
        // One past the bound refuses the whole matrix, in any task's block.
        for at in [0, 4500, 8999] {
            for threads in [1, 2, 4] {
                let exec = ExecPolicy::with_threads(threads);
                let mut past = vec![1; 9000];
                past[at] = bound + 1;
                assert_eq!(recast::<u64, u16>(&past, exec), None, "at={at}");
                assert!(recast::<u64, u32>(&past, exec).is_some(), "at={at}");
            }
        }
        // A kernel output past the ultra bound (sums reach `2·bound`) widens
        // to `u32` exactly.
        let sum = [2 * bound as u16, top];
        let top32 = <u32 as TropicalEntry>::TOP;
        let compact = recast::<u16, u32>(&sum, seq);
        assert_eq!(compact, Some(vec![2 * bound as u32, top32]));
    }

    /// An `n × n` matrix with finite entries in `0..=max_w` at fill 0.8,
    /// and with row 0 and row `n / 2` all `∞`.
    fn with_infinite_rows(n: usize, max_w: Weight, seed: u64) -> DistMatrix {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let data = (0..n * n)
            .map(|cell| {
                let row = cell / n;
                if row == 0 || row == n / 2 || rng.gen_bool(0.2) {
                    INF
                } else {
                    rng.gen_range(0..=max_w)
                }
            })
            .collect();
        DistMatrix::from_raw(n, data)
    }

    /// Every entry point the host can run, at every width, against the
    /// naive product on sizes that give no full block, full `R × W` blocks,
    /// a row tail, a column tail and both, at every tile and thread count.
    #[test]
    fn every_entry_point_matches_naive_on_block_shapes() {
        fn check<T: TropicalEntry>(seed: u64) {
            let narrow =
                |m: &DistMatrix| -> Vec<T> { m.raw().iter().map(|&w| T::from_weight(w)).collect() };
            let max_w = (T::TOP.into() - 1) / 2;
            for isa in Isa::available() {
                let Entry {
                    rows: r, lanes: w, ..
                } = T::entry(isa);
                let mut sizes = vec![1, r - 1, w - 1, w + 1, 2 * w + 3];
                sizes.retain(|&n| n > 0);
                sizes.dedup();
                for n in sizes {
                    let a = with_infinite_rows(n, max_w, seed + n as u64);
                    let b = with_infinite_rows(n, max_w, seed + 2 * n as u64 + 1);
                    let want = narrow(&distance_product_with(&a, &b, ExecPolicy::Seq));
                    let (an, bn) = (narrow(&a), narrow(&b));
                    // Two panels wide, one thread count keeps the unoptimized
                    // test build fast; strips still split at every count.
                    let threads: &[usize] = if n <= w + 1 { &[1, 2, 4] } else { &[2] };
                    for tile in [1, 7, 64, n] {
                        for &threads in threads {
                            let exec = ExecPolicy::with_threads(threads);
                            let got = lanes_kernel_on(isa, n, &an, &bn, exec, tile);
                            assert!(
                                got == want,
                                "{} {} n={n} tile={tile} threads={threads}",
                                isa.name(),
                                std::any::type_name::<T>()
                            );
                        }
                    }
                }
            }
        }
        check::<u64>(100);
        check::<u32>(200);
        check::<u16>(300);
    }

    #[test]
    fn power_zero_is_identity() {
        let g = random_graph(6, 5);
        let a = adjacency_matrix(&g);
        assert_eq!(power(&a, 0), DistMatrix::infinite(6));
    }
}
