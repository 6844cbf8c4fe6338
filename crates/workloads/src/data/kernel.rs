//! The reference's kernels: B packed into widened columns of Bᵀ, then two
//! rows of A against every packed column.
//!
//! On x86_64 both are written with SSE2 intrinsics, which every x86_64
//! CPU has: the pack is a sixteen-row × eight-column byte transpose, the
//! product a register block of two rows × four columns. Elsewhere the pack
//! gathers an element at a time and the product is `dot` per element,
//! which are also the tests' references. This module and the tile
//! executor's in `accfg-sim` are the only library code in the workspace
//! that uses `unsafe` or `core::arch` (CI greps for both); the two are
//! copies, so the check shares no code with the kernel it checks.

use super::LANES;

/// Bᵀ widened to i16: lane `t < k` of column `j` of `b_cols` (columns of
/// `k.div_ceil(LANES)` lane groups) becomes `b[t * n + j]`, for the `k`
/// rows of `n` bytes of the row-major `b`; lanes from `k` on keep what
/// they held.
///
/// A lane group of rows at a time, so the reads stay within [`LANES`]
/// cache lines and every column receives a whole lane group. On x86_64 a
/// whole group of rows is transposed eight columns at a step; a partial
/// group, the last `n mod 8` columns and every group elsewhere are
/// gathered an element at a time.
#[inline]
pub(super) fn pack_b(b: &[u8], n: usize, k: usize, b_cols: &mut [[i16; LANES]]) {
    let groups = k.div_ceil(LANES);
    for g in 0..groups {
        let (k0, run) = (g * LANES, (k - g * LANES).min(LANES));
        let rows = &b[k0 * n..];
        #[cfg(target_arch = "x86_64")]
        let transposed = if run == LANES {
            // SAFETY: `sse2::transpose` needs SSE2 and nothing else, and
            // SSE2 is part of the x86_64 baseline.
            unsafe { sse2::transpose(rows, n, g, b_cols, groups) }
        } else {
            0
        };
        #[cfg(not(target_arch = "x86_64"))]
        let transposed = 0;
        for (j, b_col) in b_cols.chunks_exact_mut(groups).enumerate().skip(transposed) {
            for (t, wide) in b_col[g][..run].iter_mut().enumerate() {
                *wide = rows[t * n + j] as i8 as i16;
            }
        }
    }
}

/// `c[r][j] = Σ a[r][l] · b_col_j[l]`, wrapping, for the two rows of `a`
/// and the `c[r].len()` columns of `b_cols`, each column as many lane
/// groups as a row of `a`.
#[inline]
pub(super) fn two_rows(a: [&[[i16; LANES]]; 2], b_cols: &[[i16; LANES]], c: [&mut [i32]; 2]) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `sse2::two_rows` needs SSE2 and nothing else, and SSE2 is
    // part of the x86_64 baseline: every CPU this build can run on has it.
    unsafe {
        sse2::two_rows(a, b_cols, c);
    }
    #[cfg(not(target_arch = "x86_64"))]
    portable(a, b_cols, c);
}

/// [`two_rows`] as one [`dot`] per element.
#[cfg(not(target_arch = "x86_64"))]
fn portable(a: [&[[i16; LANES]]; 2], b_cols: &[[i16; LANES]], c: [&mut [i32]; 2]) {
    let [c0, c1] = c;
    for ((c0, c1), b_col) in c0.iter_mut().zip(c1).zip(b_cols.chunks_exact(a[0].len())) {
        *c0 = dot(a[0], b_col);
        *c1 = dot(a[1], b_col);
    }
}

/// `Σ a[l] · b[l]`, wrapping, over two runs of lane groups of one length:
/// [`LANES`] independent partial sums, one per lane of a group, the shape
/// LLVM lowers to packed 16-bit multiply-adds where the target has them.
#[cfg(any(test, not(target_arch = "x86_64")))]
#[inline]
pub(super) fn dot(a: &[[i16; LANES]], b: &[[i16; LANES]]) -> i32 {
    let mut lanes = [0i32; LANES];
    macro_rules! each_lane {
        ($($l:literal)*) => {{
            let mut g = 0;
            while g < a.len() {
                let (a, b) = (&a[g], &b[g]);
                $(lanes[$l] = lanes[$l].wrapping_add((a[$l] as i32).wrapping_mul(b[$l] as i32));)*
                g += 1;
            }
            0i32 $(.wrapping_add(lanes[$l]))*
        }};
    }
    each_lane!(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15)
}

/// The transpose and the register block.
///
/// A transpose step loads eight bytes of each of sixteen rows of B and
/// interleaves them in four rounds (bytes, then pairs, quads and eights of
/// them), which leaves one column of sixteen bytes per register; each
/// column is sign-extended to i16 by interleaving it with itself and
/// shifting every 16-bit lane right by eight, arithmetically.
///
/// The register block: every step of eight lanes loads two rows of A and
/// four columns of B once and runs eight `pmaddwd` (eight 16-bit
/// products and four 32-bit pair sums each) into eight i32x4
/// accumulators; a block ends in one transposed horizontal sum per row,
/// which leaves the row's four C elements in one register. The last
/// `n mod 4` columns take a two-row × one-column variant.
///
/// Bit-exact with `dot`: an i8 · i8 product is exact in 16 bits, two of
/// them (at most 2 · (−128)² = 32 768) fit the 32-bit pair sum, and the
/// wrapping i32 additions do not depend on their order.
#[cfg(target_arch = "x86_64")]
mod sse2 {
    use super::LANES;
    use core::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_cvtsi128_si32, _mm_loadl_epi64, _mm_loadu_si128,
        _mm_madd_epi16, _mm_setzero_si128, _mm_shuffle_epi32, _mm_srai_epi16, _mm_storeu_si128,
        _mm_unpackhi_epi16, _mm_unpackhi_epi32, _mm_unpackhi_epi64, _mm_unpackhi_epi8,
        _mm_unpacklo_epi16, _mm_unpacklo_epi32, _mm_unpacklo_epi64, _mm_unpacklo_epi8,
    };

    /// Eight lanes of one step.
    type Step = [i16; 8];

    /// Lane group `g` of every whole group of eight columns of `b_cols`
    /// (columns of `groups` lane groups), from the sixteen rows of `n`
    /// bytes at the start of `rows`; returns the number of columns
    /// written.
    #[target_feature(enable = "sse2")]
    #[inline]
    pub(super) fn transpose(
        rows: &[u8],
        n: usize,
        g: usize,
        b_cols: &mut [[i16; LANES]],
        groups: usize,
    ) -> usize {
        let mut j0 = 0;
        for block in b_cols.chunks_exact_mut(8 * groups) {
            let mut r = [_mm_setzero_si128(); 16];
            for (t, r) in r.iter_mut().enumerate() {
                *r = load8(rows[t * n + j0..].first_chunk().expect("eight columns"));
            }
            // rows 2p and 2p + 1: a byte pair per column
            let mut x = [_mm_setzero_si128(); 8];
            for (p, x) in x.iter_mut().enumerate() {
                *x = _mm_unpacklo_epi8(r[2 * p], r[2 * p + 1]);
            }
            // rows 4q..4q + 4 of columns 0..4 in y[q], of columns 4..8 in y[4 + q]
            let mut y = [_mm_setzero_si128(); 8];
            for q in 0..4 {
                y[q] = _mm_unpacklo_epi16(x[2 * q], x[2 * q + 1]);
                y[4 + q] = _mm_unpackhi_epi16(x[2 * q], x[2 * q + 1]);
            }
            // rows 8s..8s + 8 of columns 2c and 2c + 1 in z[2c + s]
            let mut z = [_mm_setzero_si128(); 8];
            for h in 0..2 {
                for s in 0..2 {
                    let (u, v) = (y[4 * h + 2 * s], y[4 * h + 2 * s + 1]);
                    z[4 * h + s] = _mm_unpacklo_epi32(u, v);
                    z[4 * h + 2 + s] = _mm_unpackhi_epi32(u, v);
                }
            }
            for (c, pair) in block.chunks_exact_mut(2 * groups).enumerate() {
                let (col0, col1) = pair.split_at_mut(groups);
                widen(&mut col0[g], _mm_unpacklo_epi64(z[2 * c], z[2 * c + 1]));
                widen(&mut col1[g], _mm_unpackhi_epi64(z[2 * c], z[2 * c + 1]));
            }
            j0 += 8;
        }
        j0
    }

    /// The sixteen bytes of `col` as i16 into the first sixteen lanes of
    /// `out`.
    #[target_feature(enable = "sse2")]
    #[inline]
    fn widen(out: &mut [i16], col: __m128i) {
        let (lo, hi) = out[..16].split_at_mut(8);
        store8(
            lo.try_into().expect("eight lanes"),
            _mm_srai_epi16::<8>(_mm_unpacklo_epi8(col, col)),
        );
        store8(
            hi.try_into().expect("eight lanes"),
            _mm_srai_epi16::<8>(_mm_unpackhi_epi8(col, col)),
        );
    }

    /// [`super::two_rows`].
    #[target_feature(enable = "sse2")]
    #[inline]
    pub(super) fn two_rows(a: [&[[i16; LANES]]; 2], b_cols: &[[i16; LANES]], c: [&mut [i32]; 2]) {
        let a0 = a[0].as_flattened().as_chunks::<8>().0;
        let steps = a0.len();
        let a1 = &a[1].as_flattened().as_chunks::<8>().0[..steps];
        let [c0, c1] = c;
        let n = c0.len();
        let c1 = &mut c1[..n];
        let b_cols = b_cols.as_flattened()[..n * 8 * steps].as_chunks::<8>().0;
        let (c0_quads, c0_tail) = c0.as_chunks_mut::<4>();
        let (c1_quads, c1_tail) = c1.as_chunks_mut::<4>();
        let quads = b_cols.chunks_exact(4 * steps);
        let tail = quads.remainder().chunks_exact(steps);
        for ((out0, out1), quad) in c0_quads.iter_mut().zip(c1_quads).zip(quads) {
            let (b01, b23) = quad.split_at(2 * steps);
            let (b0, b1) = b01.split_at(steps);
            let (b2, b3) = b23.split_at(steps);
            let mut acc = [_mm_setzero_si128(); 8];
            for s in 0..steps {
                let (x0, x1) = (load(&a0[s]), load(&a1[s]));
                let y = [load(&b0[s]), load(&b1[s]), load(&b2[s]), load(&b3[s])];
                for q in 0..4 {
                    acc[q] = _mm_add_epi32(acc[q], _mm_madd_epi16(x0, y[q]));
                    acc[4 + q] = _mm_add_epi32(acc[4 + q], _mm_madd_epi16(x1, y[q]));
                }
            }
            store(out0, sum4([acc[0], acc[1], acc[2], acc[3]]));
            store(out1, sum4([acc[4], acc[5], acc[6], acc[7]]));
        }
        for ((out0, out1), b) in c0_tail.iter_mut().zip(c1_tail).zip(tail) {
            let mut acc = [_mm_setzero_si128(); 2];
            for s in 0..steps {
                let y = load(&b[s]);
                acc[0] = _mm_add_epi32(acc[0], _mm_madd_epi16(load(&a0[s]), y));
                acc[1] = _mm_add_epi32(acc[1], _mm_madd_epi16(load(&a1[s]), y));
            }
            *out0 = sum(acc[0]);
            *out1 = sum(acc[1]);
        }
    }

    /// The four lanes of `v[q]` summed into lane `q` of the result: two
    /// rounds of interleaving and adding, a transpose folded into the sum.
    #[target_feature(enable = "sse2")]
    #[inline]
    fn sum4(v: [__m128i; 4]) -> __m128i {
        // lanes 0 + 2 and 1 + 3 of v[0] and v[1], interleaved
        let s01 = _mm_add_epi32(
            _mm_unpacklo_epi32(v[0], v[1]),
            _mm_unpackhi_epi32(v[0], v[1]),
        );
        let s23 = _mm_add_epi32(
            _mm_unpacklo_epi32(v[2], v[3]),
            _mm_unpackhi_epi32(v[2], v[3]),
        );
        _mm_add_epi32(_mm_unpacklo_epi64(s01, s23), _mm_unpackhi_epi64(s01, s23))
    }

    /// The four lanes of `v` summed.
    #[target_feature(enable = "sse2")]
    #[inline]
    fn sum(v: __m128i) -> i32 {
        let v = _mm_add_epi32(v, _mm_shuffle_epi32::<0b01_00_11_10>(v));
        _mm_cvtsi128_si32(_mm_add_epi32(v, _mm_shuffle_epi32::<0b10_11_00_01>(v)))
    }

    #[target_feature(enable = "sse2")]
    #[inline]
    fn load(step: &Step) -> __m128i {
        // SAFETY: `step` is sixteen readable bytes, and `loadu` has no
        // alignment requirement.
        unsafe { _mm_loadu_si128(step.as_ptr().cast()) }
    }

    #[target_feature(enable = "sse2")]
    #[inline]
    fn load8(row: &[u8; 8]) -> __m128i {
        // SAFETY: `row` is eight readable bytes, `loadl` reads exactly
        // eight and has no alignment requirement.
        unsafe { _mm_loadl_epi64(row.as_ptr().cast()) }
    }

    #[target_feature(enable = "sse2")]
    #[inline]
    fn store8(out: &mut Step, v: __m128i) {
        // SAFETY: `out` is sixteen writable bytes, and `storeu` has no
        // alignment requirement.
        unsafe { _mm_storeu_si128(out.as_mut_ptr().cast(), v) }
    }

    #[target_feature(enable = "sse2")]
    #[inline]
    fn store(out: &mut [i32; 4], v: __m128i) {
        // SAFETY: `out` is sixteen writable bytes, and `storeu` has no
        // alignment requirement.
        unsafe { _mm_storeu_si128(out.as_mut_ptr().cast(), v) }
    }
}
