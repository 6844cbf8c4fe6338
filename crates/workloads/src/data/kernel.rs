//! The reference's kernels, and the two element loops of a dispatch
//! around them: B packed into widened columns of Bᵀ, then two rows of A
//! against every packed column; the operand fill; and the compare of C
//! against the reference.
//!
//! On x86_64 all four are written with intrinsics. The pack is a
//! sixteen-row × eight-column SSE2 byte transpose, which every x86_64 CPU
//! can run. The product is a register block of two rows × four columns:
//! in AVX2, a whole lane group a step, where [`avx2_pays`] (the CPU has
//! AVX2 and the depth spans more than one lane group), and in SSE2, eight
//! lanes a step, everywhere else. [`widest`] runs the caller's body
//! compiled for AVX2 under the same rule, so the AVX2 block inlines into
//! it. The fill expands one draw into sixteen operand bytes a step, and
//! the compare tests four words of C a step, both SSE2. Off x86_64 each
//! works an element at a time — the pack gathers, the product is `dot`
//! per element (also the tests' reference), the fill shifts nibbles out
//! of each draw, the compare tests one word — and on x86_64 so do the
//! fill's short last run and the compare's last `len mod 4` words. This
//! module and the tile executor's in `accfg-sim` are the only library
//! code in the workspace that uses `unsafe` or `core::arch` (CI greps for
//! both); the two kernels are copies, so the check shares no code with
//! the kernel it checks.

use super::{SplitMix, LANES};

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
///
/// The AVX2 block where [`avx2_pays`] at the depth of a row of `a`, the
/// SSE2 block elsewhere on x86_64.
#[inline]
pub(super) fn two_rows(a: [&[[i16; LANES]]; 2], b_cols: &[[i16; LANES]], c: [&mut [i32]; 2]) {
    #[cfg(target_arch = "x86_64")]
    if avx2_pays(a[0].len() * LANES) {
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

/// Whether the AVX2 block runs at `depth`, the `k` of the product: on a
/// CPU with AVX2, and only past one lane group. At one lane group the
/// AVX2 block saves one step per block and its wider reduction gives that
/// back (at depth 16 the check measured ~10 % slower with it, the
/// executor no faster), so such a product keeps SSE2.
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

/// Fills `bytes` with operands in `[-8, 7]`, sixteen from each draw of
/// `rng`: byte `i` of a run is nibble `i` of the draw, less 8, and the
/// last run, when `bytes.len()` is not a multiple of sixteen, takes the
/// low nibbles of a draw of its own.
///
/// On x86_64 a whole run is one SSE2 expansion of the draw; the short
/// last run and every run elsewhere are shifted out a nibble at a time.
#[inline]
pub(super) fn fill_nibbles(bytes: &mut [u8], rng: &mut SplitMix) {
    let (runs, last) = bytes.as_chunks_mut::<16>();
    for run in runs {
        let draw = rng.next_u64();
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `sse2::nibbles` needs SSE2 and nothing else, and SSE2 is
        // part of the x86_64 baseline.
        unsafe {
            sse2::nibbles(run, draw)
        }
        #[cfg(not(target_arch = "x86_64"))]
        nibbles(run, draw);
    }
    if !last.is_empty() {
        nibbles(last, rng.next_u64());
    }
}

/// Byte `i` of `run` (at most sixteen bytes) is nibble `i` of `draw`,
/// less 8.
fn nibbles(run: &mut [u8], mut draw: u64) {
    for byte in run {
        *byte = (draw as u8 & 0xF).wrapping_sub(8);
        draw >>= 4;
    }
}

/// The index of the first word of `c`, read as little-endian i32s, that
/// differs from the element of `want` at its index, over the shorter of
/// the two; `None` when they agree.
///
/// On x86_64 the whole steps of four words are compared in SSE2 and a
/// difference among them is then located a word at a time; the last
/// `len mod 4` words, and every word elsewhere, one at a time.
#[inline]
pub(super) fn first_mismatch(want: &[i32], c: &[u8]) -> Option<usize> {
    let len = want.len().min(c.len() / 4);
    let (want, c) = (&want[..len], &c[..4 * len]);
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `sse2::first_mismatch` needs SSE2 and nothing else, and SSE2
    // is part of the x86_64 baseline.
    let found = unsafe { sse2::first_mismatch(want, c) };
    #[cfg(not(target_arch = "x86_64"))]
    let found = each_word(want, c);
    found
}

/// [`first_mismatch`] a word at a time, over `want` and the words of `c`
/// until either runs out.
fn each_word(want: &[i32], c: &[u8]) -> Option<usize> {
    let words = c.as_chunks::<4>().0;
    want.iter()
        .zip(words)
        .position(|(&want, word)| i32::from_le_bytes(*word) != want)
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
///
/// The fill moves a draw into the low half of a register; byte `j` holds
/// nibbles `2j` (low) and `2j + 1` (high). Masking takes the low nibbles,
/// a 16-bit shift right by four and the same mask the high ones, and
/// interleaving the two bytewise puts nibble `i` in byte `i`: the bytes
/// of the element loop, less 8 by one bytewise subtraction.
///
/// The compare folds the difference of each four words of C and of the
/// reference into one accumulator, an xor and an or a step, with no test
/// inside the loop: C almost always matches. One 32-bit equality of the
/// accumulator with zero and its byte mask then tell whether any word
/// differed, and only then are the words walked one at a time to find the
/// first.
#[cfg(target_arch = "x86_64")]
mod sse2 {
    use super::LANES;
    use core::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_and_si128, _mm_cmpeq_epi32, _mm_cvtsi128_si32,
        _mm_cvtsi64_si128, _mm_loadl_epi64, _mm_loadu_si128, _mm_madd_epi16, _mm_movemask_epi8,
        _mm_or_si128, _mm_set1_epi8, _mm_setzero_si128, _mm_shuffle_epi32, _mm_srai_epi16,
        _mm_srli_epi16, _mm_storeu_si128, _mm_sub_epi8, _mm_unpackhi_epi16, _mm_unpackhi_epi32,
        _mm_unpackhi_epi64, _mm_unpackhi_epi8, _mm_unpacklo_epi16, _mm_unpacklo_epi32,
        _mm_unpacklo_epi64, _mm_unpacklo_epi8, _mm_xor_si128,
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

    /// [`super::nibbles`] for a whole run.
    #[target_feature(enable = "sse2")]
    #[inline]
    pub(super) fn nibbles(run: &mut [u8; 16], draw: u64) {
        let draw = _mm_cvtsi64_si128(draw as i64);
        let mask = _mm_set1_epi8(0xF);
        let low = _mm_and_si128(draw, mask);
        let high = _mm_and_si128(_mm_srli_epi16::<4>(draw), mask);
        let run_of = _mm_sub_epi8(_mm_unpacklo_epi8(low, high), _mm_set1_epi8(8));
        // SAFETY: `run` is sixteen writable bytes, and `storeu` has no
        // alignment requirement.
        unsafe { _mm_storeu_si128(run.as_mut_ptr().cast(), run_of) }
    }

    /// [`super::first_mismatch`] over `want` and the `want.len()` words of
    /// `c`.
    #[target_feature(enable = "sse2")]
    #[inline]
    pub(super) fn first_mismatch(want: &[i32], c: &[u8]) -> Option<usize> {
        let quads = want.as_chunks::<4>().0;
        let words = c.as_chunks::<16>().0;
        let mut differ = _mm_setzero_si128();
        for (want, words) in quads.iter().zip(words) {
            // SAFETY: `want` and `words` are sixteen readable bytes each,
            // and `loadu` has no alignment requirement.
            let (want, words) = unsafe {
                (
                    _mm_loadu_si128(want.as_ptr().cast()),
                    _mm_loadu_si128(words.as_ptr().cast()),
                )
            };
            differ = _mm_or_si128(differ, _mm_xor_si128(want, words));
        }
        if _mm_movemask_epi8(_mm_cmpeq_epi32(differ, _mm_setzero_si128())) != 0xFFFF {
            return super::each_word(want, c);
        }
        let done = 4 * quads.len();
        Some(done + super::each_word(&want[done..], &c[4 * done..])?)
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
    pub(super) fn two_rows(a: [&[Group]; 2], b_cols: &[Group], c: [&mut [i32]; 2]) {
        let a0 = a[0];
        let groups = a0.len();
        let a1 = &a[1][..groups];
        let [c0, c1] = c;
        let n = c0.len();
        let c1 = &mut c1[..n];
        let b_cols = &b_cols[..n * groups];
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
    /// (`k` each, lane groups), widened as the reference widens them: A
    /// zero from `k` on, B's lanes past `k` holding arbitrary bytes. Rows
    /// in pairs, the last of an odd `m` paired with itself; one row of A
    /// and one column of B all −128.
    fn block_is_dot(
        block: impl Fn([&[[i16; LANES]]; 2], &[[i16; LANES]], [&mut [i32]; 2]),
        (m, n, k): (usize, usize, usize),
        (a_bytes, b_bytes): (&[i8], &[i8]),
        (row, col): (usize, usize),
    ) {
        let groups = k.div_ceil(LANES);
        let mut a = vec![[0i16; LANES]; m * groups];
        for (wide, bytes) in a.chunks_exact_mut(groups).zip(a_bytes.chunks_exact(k)) {
            for (wide, &byte) in wide.as_flattened_mut().iter_mut().zip(bytes) {
                *wide = byte.into();
            }
        }
        let mut b_cols = vec![[0i16; LANES]; n * groups];
        for (wide, &byte) in b_cols.as_flattened_mut().iter_mut().zip(b_bytes) {
            *wide = byte.into();
        }
        a[row * groups..][..groups].as_flattened_mut()[..k].fill(-128);
        b_cols[col * groups..][..groups].as_flattened_mut()[..k].fill(-128);
        let mut c = vec![0i32; 2 * n];
        for i in (0..m).step_by(2) {
            let pair = [i, (i + 1).min(m - 1)];
            let (c0, c1) = c.split_at_mut(n);
            let rows = pair.map(|r| &a[r * groups..][..groups]);
            block(rows, &b_cols, [c0, c1]);
            for (got, a_row) in c.chunks_exact(n).zip(rows) {
                for (j, (&got, b_col)) in got.iter().zip(b_cols.chunks_exact(groups)).enumerate() {
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
