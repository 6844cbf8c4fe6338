//! The tile executor's kernels: B packed into widened columns, then two
//! rows of A against every packed column.
//!
//! On x86_64 both are written with intrinsics. The pack is a sixteen-row ×
//! eight-column SSE2 byte transpose, which every x86_64 CPU can run. The
//! product is a register block of two rows × four columns: in AVX2, a
//! whole lane group a step, where [`avx2_pays`] (the CPU has AVX2 and the
//! depth spans more than one lane group), and in SSE2, eight lanes a step,
//! everywhere else. [`widest`] runs the caller's body compiled for AVX2
//! under the same rule, so the AVX2 block inlines into it. Elsewhere the
//! pack gathers an element at a time and the product is `dot` per element,
//! which are also the tests' references. This module and the SSE2
//! operand fill of a dispatch in `accfg-workloads` are the only library
//! code in the workspace that uses `unsafe` or `core::arch` (CI greps for
//! both).

use super::LANES;

/// Bᵀ widened to i16: lane `t < k` of column `j` of `b_cols` (columns
/// `k` rounded up to [`LANES`] long) becomes `b[t * stride_b + j]`, for the
/// `k` rows of B that start every `stride_b` bytes of `b`; lanes from `k`
/// on keep what they held.
///
/// [`LANES`] rows at a time, so the reads stay within [`LANES`] cache
/// lines and every column receives a contiguous run. On x86_64 a whole
/// group of rows is transposed eight columns at a step; a partial group,
/// the last `n mod 8` columns and every group elsewhere are gathered an
/// element at a time.
#[inline]
pub(super) fn pack_b(b: &[u8], stride_b: usize, k: usize, b_cols: &mut [i16]) {
    let padded_k = k.next_multiple_of(LANES);
    for k0 in (0..k).step_by(LANES) {
        let rows = &b[k0 * stride_b..];
        let run = (k - k0).min(LANES);
        #[cfg(target_arch = "x86_64")]
        let transposed = if run == LANES {
            // SAFETY: `sse2::transpose` needs SSE2 and nothing else, and
            // SSE2 is part of the x86_64 baseline.
            unsafe { sse2::transpose(rows, stride_b, k0, b_cols, padded_k) }
        } else {
            0
        };
        #[cfg(not(target_arch = "x86_64"))]
        let transposed = 0;
        for (j, b_col) in b_cols
            .chunks_exact_mut(padded_k)
            .enumerate()
            .skip(transposed)
        {
            for (t, wide) in b_col[k0..k0 + run].iter_mut().enumerate() {
                *wide = rows[t * stride_b + j] as i8 as i16;
            }
        }
    }
}

/// `c[r][j] = Σ a[r][l] · b_col_j[l]`, wrapping, for the two rows of `a`
/// and the `c[r].len()` columns of `b_cols`, each column as long as a row
/// of `a`, which is a multiple of [`LANES`].
///
/// The AVX2 block where [`avx2_pays`] at the length of a row of `a`, the
/// SSE2 block elsewhere on x86_64.
#[inline]
pub(super) fn two_rows(a: [&[i16]; 2], b_cols: &[i16], c: [&mut [i32]; 2]) {
    debug_assert_eq!(a[0].len() % LANES, 0);
    #[cfg(target_arch = "x86_64")]
    if avx2_pays(a[0].len()) {
        // SAFETY: `avx2::two_rows` needs AVX2, which `avx2_pays` detected.
        unsafe { avx2::two_rows(a, b_cols, c) }
    } else {
        // SAFETY: `sse2::two_rows` needs SSE2 and nothing else, and SSE2
        // is part of the x86_64 baseline: every CPU this build can run on
        // has it.
        unsafe { sse2::two_rows(a, b_cols, c) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    portable(a, b_cols, c);
}

/// Whether the AVX2 block runs at `depth`, the length of a row of A: on a
/// CPU with AVX2, and only past one lane group. At one lane group the
/// AVX2 block saves one step per block and its wider reduction gives that
/// back (at depth 16 the executor measured no faster with it), so such a
/// tile keeps SSE2.
#[inline]
pub(super) fn avx2_pays(depth: usize) -> bool {
    #[cfg(target_arch = "x86_64")]
    let avx2 = std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let avx2 = false;
    depth > LANES && avx2
}

/// `body()`, run inside a scope compiled for AVX2 where [`avx2_pays`] at
/// `depth`, so that the packing, the widening and the AVX2 block inline
/// into it; plain `body()` elsewhere. `body` should be an
/// `#[inline(always)]` closure: one LLVM keeps out of the scope runs
/// without AVX2 and calls the block once per row pair.
#[inline(always)]
pub(super) fn widest<R>(depth: usize, body: impl FnOnce() -> R) -> R {
    if avx2_pays(depth) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `avx2::scope` needs AVX2, which `avx2_pays` detected.
        return unsafe { avx2::scope(body) };
    }
    body()
}

/// [`two_rows`] as one [`dot`] per element.
#[cfg(not(target_arch = "x86_64"))]
fn portable(a: [&[i16]; 2], b_cols: &[i16], c: [&mut [i32]; 2]) {
    let [c0, c1] = c;
    for ((c0, c1), b_col) in c0.iter_mut().zip(c1).zip(b_cols.chunks_exact(a[0].len())) {
        *c0 = dot(a[0], b_col);
        *c1 = dot(a[1], b_col);
    }
}

/// `Σ a[l] · b[l]`, wrapping, over two rows of one length that is a
/// multiple of [`LANES`]: [`LANES`] independent partial sums over
/// fixed-width chunks, the shape LLVM lowers to packed 16-bit
/// multiply-adds where the target has them.
#[cfg(any(test, not(target_arch = "x86_64")))]
#[inline]
pub(super) fn dot(a: &[i16], b: &[i16]) -> i32 {
    let b = &b[..a.len()];
    let mut lanes = [0i32; LANES];
    let mut at = 0;
    while at + LANES <= a.len() {
        let (a, b) = (&a[at..at + LANES], &b[at..at + LANES]);
        let mut l = 0;
        while l < LANES {
            lanes[l] = lanes[l].wrapping_add(a[l] as i32 * b[l] as i32);
            l += 1;
        }
        at += LANES;
    }
    let mut sum = 0i32;
    let mut l = 0;
    while l < LANES {
        sum = sum.wrapping_add(lanes[l]);
        l += 1;
    }
    sum
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
    use core::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_cvtsi128_si32, _mm_loadl_epi64, _mm_loadu_si128,
        _mm_madd_epi16, _mm_setzero_si128, _mm_shuffle_epi32, _mm_srai_epi16, _mm_storeu_si128,
        _mm_unpackhi_epi16, _mm_unpackhi_epi32, _mm_unpackhi_epi64, _mm_unpackhi_epi8,
        _mm_unpacklo_epi16, _mm_unpacklo_epi32, _mm_unpacklo_epi64, _mm_unpacklo_epi8,
    };

    /// Eight lanes of one step.
    type Step = [i16; 8];

    /// Lanes `k0..k0 + 16` of every whole group of eight columns of
    /// `b_cols`, from the sixteen rows of B that start every `stride_b`
    /// bytes of `rows`; returns the number of columns written.
    #[target_feature(enable = "sse2")]
    #[inline]
    pub(super) fn transpose(
        rows: &[u8],
        stride_b: usize,
        k0: usize,
        b_cols: &mut [i16],
        padded_k: usize,
    ) -> usize {
        let mut j0 = 0;
        for block in b_cols.chunks_exact_mut(8 * padded_k) {
            let mut r = [_mm_setzero_si128(); 16];
            for (t, r) in r.iter_mut().enumerate() {
                *r = load8(
                    rows[t * stride_b + j0..]
                        .first_chunk()
                        .expect("eight columns"),
                );
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
            for (c, pair) in block.chunks_exact_mut(2 * padded_k).enumerate() {
                let (col0, col1) = pair.split_at_mut(padded_k);
                widen(&mut col0[k0..], _mm_unpacklo_epi64(z[2 * c], z[2 * c + 1]));
                widen(&mut col1[k0..], _mm_unpackhi_epi64(z[2 * c], z[2 * c + 1]));
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
    pub(super) fn two_rows(a: [&[i16]; 2], b_cols: &[i16], c: [&mut [i32]; 2]) {
        let a0 = a[0].as_chunks::<8>().0;
        let steps = a0.len();
        let a1 = &a[1].as_chunks::<8>().0[..steps];
        let [c0, c1] = c;
        let n = c0.len();
        let c1 = &mut c1[..n];
        let b_cols = b_cols[..n * 8 * steps].as_chunks::<8>().0;
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

/// The register block a whole lane group at a step, and the scope it
/// inlines into.
///
/// Every step loads two rows of A and four columns of B once, a lane
/// group each, and runs eight `vpmaddwd` (sixteen 16-bit products and
/// eight 32-bit pair sums each) into eight i32x8 accumulators. A block
/// ends in the SSE2 block's transposed horizontal sum, run on both 128-bit
/// halves at once, and one fold of the upper half onto the lower, which
/// leaves the row's four C elements in one register. The last `n mod 4`
/// columns take a two-row × one-column variant. Bit-exact with `dot` for
/// the SSE2 block's reasons.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::LANES;
    use core::arch::x86_64::{
        __m128i, __m256i, _mm256_add_epi32, _mm256_castsi256_si128, _mm256_extracti128_si256,
        _mm256_loadu_si256, _mm256_madd_epi16, _mm256_setzero_si256, _mm256_unpackhi_epi32,
        _mm256_unpackhi_epi64, _mm256_unpacklo_epi32, _mm256_unpacklo_epi64, _mm_add_epi32,
        _mm_cvtsi128_si32, _mm_shuffle_epi32, _mm_storeu_si128,
    };

    /// One lane group.
    type Group = [i16; LANES];

    /// `body()`, compiled for AVX2 wherever LLVM inlines `body` into it.
    #[target_feature(enable = "avx2")]
    pub(super) fn scope<R>(body: impl FnOnce() -> R) -> R {
        body()
    }

    /// [`super::two_rows`].
    #[target_feature(enable = "avx2")]
    #[inline]
    pub(super) fn two_rows(a: [&[i16]; 2], b_cols: &[i16], c: [&mut [i32]; 2]) {
        let a0 = a[0].as_chunks::<LANES>().0;
        let groups = a0.len();
        let a1 = &a[1].as_chunks::<LANES>().0[..groups];
        let [c0, c1] = c;
        let n = c0.len();
        let c1 = &mut c1[..n];
        let b_cols = b_cols[..n * LANES * groups].as_chunks::<LANES>().0;
        let (c0_quads, c0_tail) = c0.as_chunks_mut::<4>();
        let (c1_quads, c1_tail) = c1.as_chunks_mut::<4>();
        let quads = b_cols.chunks_exact(4 * groups);
        let tail = quads.remainder().chunks_exact(groups);
        for ((out0, out1), quad) in c0_quads.iter_mut().zip(c1_quads).zip(quads) {
            let (b01, b23) = quad.split_at(2 * groups);
            let (b0, b1) = b01.split_at(groups);
            let (b2, b3) = b23.split_at(groups);
            let mut acc = [_mm256_setzero_si256(); 8];
            for g in 0..groups {
                let (x0, x1) = (load(&a0[g]), load(&a1[g]));
                let y = [load(&b0[g]), load(&b1[g]), load(&b2[g]), load(&b3[g])];
                for q in 0..4 {
                    acc[q] = _mm256_add_epi32(acc[q], _mm256_madd_epi16(x0, y[q]));
                    acc[4 + q] = _mm256_add_epi32(acc[4 + q], _mm256_madd_epi16(x1, y[q]));
                }
            }
            store(out0, sum4([acc[0], acc[1], acc[2], acc[3]]));
            store(out1, sum4([acc[4], acc[5], acc[6], acc[7]]));
        }
        for ((out0, out1), b) in c0_tail.iter_mut().zip(c1_tail).zip(tail) {
            let mut acc = [_mm256_setzero_si256(); 2];
            for g in 0..groups {
                let y = load(&b[g]);
                acc[0] = _mm256_add_epi32(acc[0], _mm256_madd_epi16(load(&a0[g]), y));
                acc[1] = _mm256_add_epi32(acc[1], _mm256_madd_epi16(load(&a1[g]), y));
            }
            *out0 = sum(acc[0]);
            *out1 = sum(acc[1]);
        }
    }

    /// The eight lanes of `v[q]` summed into lane `q` of the result: the
    /// SSE2 block's two rounds of interleaving and adding within each
    /// 128-bit half, then the halves folded.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn sum4(v: [__m256i; 4]) -> __m128i {
        // per half: lanes 0 + 2 and 1 + 3 of v[0] and v[1], interleaved
        let s01 = _mm256_add_epi32(
            _mm256_unpacklo_epi32(v[0], v[1]),
            _mm256_unpackhi_epi32(v[0], v[1]),
        );
        let s23 = _mm256_add_epi32(
            _mm256_unpacklo_epi32(v[2], v[3]),
            _mm256_unpackhi_epi32(v[2], v[3]),
        );
        fold(_mm256_add_epi32(
            _mm256_unpacklo_epi64(s01, s23),
            _mm256_unpackhi_epi64(s01, s23),
        ))
    }

    /// The eight lanes of `v` summed.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn sum(v: __m256i) -> i32 {
        let v = fold(v);
        let v = _mm_add_epi32(v, _mm_shuffle_epi32::<0b01_00_11_10>(v));
        _mm_cvtsi128_si32(_mm_add_epi32(v, _mm_shuffle_epi32::<0b10_11_00_01>(v)))
    }

    /// The upper 128-bit half of `v` added onto the lower.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn fold(v: __m256i) -> __m128i {
        _mm_add_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v))
    }

    #[target_feature(enable = "avx2")]
    #[inline]
    fn load(group: &Group) -> __m256i {
        // SAFETY: `group` is thirty-two readable bytes, and `loadu` has
        // no alignment requirement.
        unsafe { _mm256_loadu_si256(group.as_ptr().cast()) }
    }

    #[target_feature(enable = "avx2")]
    #[inline]
    fn store(out: &mut [i32; 4], v: __m128i) {
        // SAFETY: `out` is sixteen writable bytes, and `storeu` has no
        // alignment requirement.
        unsafe { _mm_storeu_si128(out.as_mut_ptr().cast(), v) }
    }
}

#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// `block` against `dot`, element by element, over the first `m` rows
    /// of `a_bytes` (`k` each) and the first `n` columns of `b_bytes`
    /// (`k` each), widened as the executor widens them: A zero from `k`
    /// on, B's lanes past `k` left holding stale bytes. Rows in pairs, the
    /// last of an odd `m` paired with itself; one row of A and one column
    /// of B all −128.
    fn block_is_dot(
        block: impl Fn([&[i16]; 2], &[i16], [&mut [i32]; 2]),
        (m, n, k): (usize, usize, usize),
        (a_bytes, b_bytes): (&[i8], &[i8]),
        (row, col): (usize, usize),
    ) {
        let padded_k = k.next_multiple_of(LANES);
        let mut a = vec![0i16; m * padded_k];
        for (wide, bytes) in a.chunks_exact_mut(padded_k).zip(a_bytes.chunks_exact(k)) {
            for (wide, &byte) in wide.iter_mut().zip(bytes) {
                *wide = byte.into();
            }
        }
        let mut b_cols: Vec<i16> = b_bytes[..n * padded_k].iter().map(|&b| b.into()).collect();
        a[row * padded_k..][..k].fill(-128);
        b_cols[col * padded_k..][..k].fill(-128);
        let mut c = vec![0i32; 2 * n];
        for i in (0..m).step_by(2) {
            let pair = [i, (i + 1).min(m - 1)];
            let (c0, c1) = c.split_at_mut(n);
            let rows = pair.map(|r| &a[r * padded_k..][..padded_k]);
            block(rows, &b_cols, [c0, c1]);
            for (got, a_row) in c.chunks_exact(n).zip(rows) {
                for (j, (&got, b_col)) in got.iter().zip(b_cols.chunks_exact(padded_k)).enumerate()
                {
                    prop_assert_eq!(got, dot(a_row, b_col), "C[{}][{}] of {:?}", i, j, (m, n, k));
                }
            }
        }
    }

    /// Enough operand bytes for the properties' largest A (9 × 70) and
    /// packed B (13 columns of 80 lanes).
    const A_BYTES: usize = 9 * 70;
    const B_BYTES: usize = 13 * 80;

    #[test]
    fn avx2_pays_past_one_lane_group_on_a_cpu_with_avx2() {
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        assert!(!avx2_pays(16));
        assert_eq!(avx2_pays(17), avx2);
        assert_eq!(avx2_pays(32), avx2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The SSE2 block is `dot`, at every depth: `two_rows` takes it
        /// only up to one lane group on a CPU with AVX2.
        #[test]
        fn sse2_block_equals_dot(
            dims in (1usize..10, 1usize..14, 1usize..71),
            a in vec(any::<i8>(), A_BYTES..A_BYTES + 1),
            b in vec(any::<i8>(), B_BYTES..B_BYTES + 1),
            corner in (any::<usize>(), any::<usize>()),
        ) {
            let (m, n, _) = dims;
            let corner = (corner.0 % m, corner.1 % n);
            // SAFETY: SSE2 is part of the x86_64 baseline.
            block_is_dot(|a, b, c| unsafe { sse2::two_rows(a, b, c) }, dims, (&a, &b), corner);
        }

        /// The AVX2 block is `dot`, at every depth, one lane group
        /// included, which `two_rows` never gives it.
        #[test]
        fn avx2_block_equals_dot(
            dims in (1usize..10, 1usize..14, 1usize..71),
            a in vec(any::<i8>(), A_BYTES..A_BYTES + 1),
            b in vec(any::<i8>(), B_BYTES..B_BYTES + 1),
            corner in (any::<usize>(), any::<usize>()),
        ) {
            if !std::arch::is_x86_feature_detected!("avx2") {
                eprintln!("avx2_block_equals_dot: this CPU has no AVX2, nothing to check");
                return;
            }
            let (m, n, _) = dims;
            let corner = (corner.0 % m, corner.1 % n);
            // SAFETY: AVX2 detected just above.
            block_is_dot(|a, b, c| unsafe { avx2::two_rows(a, b, c) }, dims, (&a, &b), corner);
        }
    }
}
