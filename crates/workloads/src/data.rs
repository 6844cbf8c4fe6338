//! Test-data generation and reference results for matmul workloads.

use crate::spec::{MatmulLayout, MatmulSpec};
use accfg_sim::{MemError, Memory};

/// A tiny deterministic PRNG (SplitMix64-style) so workloads are
/// reproducible without external dependencies.
#[derive(Debug, Clone)]
pub struct SplitMix {
    state: u64,
}

impl SplitMix {
    /// Seeds the generator.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The element count `rows · cols` as a length. One that is negative (a
/// spec assembled field by field around [`MatmulSpec::new`]) or that
/// overflows becomes a length no memory holds, so the region view faults.
fn count(rows: i64, cols: i64) -> usize {
    rows.checked_mul(cols)
        .and_then(|c| usize::try_from(c).ok())
        .unwrap_or(usize::MAX)
}

/// Fills A and B with small pseudorandom i8 values in `[-8, 7]`, which
/// keep i32 accumulators far from overflow even at depth 512.
///
/// One generator draws for A, then B. Each draw fills sixteen bytes:
/// byte `i` of the run is nibble `i` of the draw, less 8. A matrix whose
/// length is not a multiple of sixteen ends on a fresh draw's low nibbles.
///
/// # Errors
/// Fails if the layout exceeds the memory capacity — before writing
/// anything, so a faulting fill leaves `mem` as it found it.
pub fn fill_inputs(
    mem: &mut Memory,
    spec: &MatmulSpec,
    layout: &MatmulLayout,
    seed: u64,
) -> Result<(), MemError> {
    let (a_len, b_len) = (count(spec.m, spec.k), count(spec.k, spec.n));
    mem.bytes(layout.b_addr as u64, b_len)?;
    let mut rng = SplitMix::new(seed);
    fill_nibbles(mem.bytes_mut(layout.a_addr as u64, a_len)?, &mut rng);
    fill_nibbles(mem.bytes_mut(layout.b_addr as u64, b_len)?, &mut rng);
    Ok(())
}

/// Sixteen bytes of `[-8, 7]` from each draw of `rng`, the last run short.
fn fill_nibbles(bytes: &mut [u8], rng: &mut SplitMix) {
    for run in bytes.chunks_mut(16) {
        let mut word = rng.next_u64();
        for byte in run {
            *byte = (word as u8 & 0xF).wrapping_sub(8);
            word >>= 4;
        }
    }
}

mod kernel;

/// Elements in a lane group: the multiple a packed row is padded to.
const LANES: usize = 16;

/// The reference `act(A · B)`, two rows of C at a time, as dot products
/// over operands packed once.
///
/// Bᵀ is widened to i16, each column zero-padded to whole lane groups; two
/// rows of A, widened the same way, sit behind the columns. Every element
/// of a row of C is then the dot product of two contiguous runs of lane
/// groups. An i8 · i8 product is exact in 16 bits and the wrapping i32 sum
/// does not depend on its order.
struct Reference<'m> {
    a: &'m [u8],
    /// `n` columns of Bᵀ, `groups` lane groups each, then the current pair
    /// of rows of A (zero from `k` on, like every column).
    packed: Vec<[i16; LANES]>,
    /// The current pair of rows of C.
    rows: Vec<i32>,
    m: usize,
    n: usize,
    k: usize,
    groups: usize,
    relu: bool,
}

impl<'m> Reference<'m> {
    /// Views A and B in `mem` and packs B; `None` when the product is
    /// empty (a dimension that is not positive), which makes C all zeros.
    fn new(
        mem: &'m Memory,
        spec: &MatmulSpec,
        layout: &MatmulLayout,
    ) -> Result<Option<Self>, MemError> {
        let a = mem.bytes(layout.a_addr as u64, count(spec.m, spec.k))?;
        let b = mem.bytes(layout.b_addr as u64, count(spec.k, spec.n))?;
        let dim = |d: i64| usize::try_from(d).ok().filter(|&d| d > 0);
        let (Some(m), Some(n), Some(k)) = (dim(spec.m), dim(spec.n), dim(spec.k)) else {
            return Ok(None);
        };
        let groups = k.div_ceil(LANES);
        let mut packed = vec![[0; LANES]; (n + 2) * groups];
        kernel::pack_b(b, n, k, &mut packed[..n * groups]);
        Ok(Some(Self {
            a,
            packed,
            rows: vec![0; 2 * n],
            m,
            n,
            k,
            groups,
            relu: spec.relu,
        }))
    }

    /// Rows `i` and `i + 1` of C, or row `i` alone when it is the last,
    /// which the kernel then computes twice. (Inlined into the row loop of
    /// each caller, so the kernel lands inside the check.)
    #[inline(always)]
    fn rows(&mut self, i: usize) -> &[i32] {
        let (b_cols, a_rows) = self.packed.split_at_mut(self.n * self.groups);
        let last = (i + 1).min(self.m - 1);
        for (wide, row) in a_rows.chunks_exact_mut(self.groups).zip([i, last]) {
            let a = &self.a[row * self.k..][..self.k];
            for (wide, &a) in wide.as_flattened_mut().iter_mut().zip(a) {
                *wide = a as i8 as i16;
            }
        }
        let (a0, a1) = a_rows.split_at(self.groups);
        let (c0, c1) = self.rows.split_at_mut(self.n);
        kernel::two_rows([a0, a1], b_cols, [c0, c1]);
        let rows = &mut self.rows[..(last + 1 - i) * self.n];
        if self.relu {
            for c in rows.iter_mut() {
                *c = (*c).max(0);
            }
        }
        rows
    }
}

/// Computes the reference `C = act(A · B)` from the matrices in memory.
///
/// Independent of the simulator's datapath: it shares [`Memory`]'s
/// region views with it and nothing else.
///
/// # Errors
/// Fails on out-of-bounds reads.
// `#[inline]`: compiled where it is called, so in this crate's own code
// `check_result` is the one caller of the kernel and the kernel is inlined
// into it
#[inline]
pub fn reference_c(
    mem: &Memory,
    spec: &MatmulSpec,
    layout: &MatmulLayout,
) -> Result<Vec<i32>, MemError> {
    let len = count(spec.m, spec.n);
    let Some(mut reference) = Reference::new(mem, spec, layout)? else {
        return Ok(vec![0; len]);
    };
    let mut c = Vec::with_capacity(len);
    for i in (0..reference.m).step_by(2) {
        c.extend_from_slice(reference.rows(i));
    }
    Ok(c)
}

/// Compares the C region in memory against the reference result, element
/// by element, a reference row at a time: the reference is never held
/// whole.
///
/// # Errors
/// Returns a description of the first mismatching element, or a memory
/// fault.
pub fn check_result(mem: &Memory, spec: &MatmulSpec, layout: &MatmulLayout) -> Result<(), String> {
    let reference = Reference::new(mem, spec, layout).map_err(|e| e.to_string())?;
    let c = mem
        .bytes(
            layout.c_addr as u64,
            count(spec.m, spec.n).saturating_mul(4),
        )
        .map_err(|e| e.to_string())?;
    let Some(mut reference) = reference else {
        return compare(std::iter::repeat(0), c, 0, spec.n);
    };
    for i in (0..reference.m).step_by(2) {
        let start = i * reference.n;
        compare(reference.rows(i).iter().copied(), c, start, spec.n)?;
    }
    Ok(())
}

/// `want` against the words of the `n`-column matrix `c` from element
/// `start` on, until either runs out.
fn compare(want: impl Iterator<Item = i32>, c: &[u8], start: usize, n: i64) -> Result<(), String> {
    for (idx, (want, word)) in (start..).zip(want.zip(c[4 * start..].chunks_exact(4))) {
        let got = i32::from_le_bytes(word.try_into().expect("4 bytes"));
        if got != want {
            let (i, j) = (idx as i64 / n, idx as i64 % n);
            return Err(format!("C[{i}][{j}] = {got}, expected {want}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = SplitMix::new(42);
        let mut b = SplitMix::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    /// `len` fill bytes from `rng` by the definition: byte `i` is nibble
    /// `i % 16` of draw `i / 16`, less 8.
    fn nibble_stream(rng: &mut SplitMix, len: usize) -> Vec<i8> {
        let words: Vec<u64> = (0..len.div_ceil(16)).map(|_| rng.next_u64()).collect();
        (0..len)
            .map(|i| ((words[i / 16] >> (4 * (i % 16))) & 0xF) as i8 - 8)
            .collect()
    }

    #[test]
    fn fill_is_pinned_by_a_known_answer() {
        // the operand stream is a definition: a change here is a new one
        let (_, layout, mem) = filled((4, 4, 8), 0x5EED);
        let a: Vec<i8> = mem
            .bytes(layout.a_addr as u64, 32)
            .unwrap()
            .iter()
            .map(|&b| b as i8)
            .collect();
        assert_eq!(
            a,
            [
                -4, 3, 1, 2, -8, 7, -5, -8, 5, 1, 5, 7, -7, 7, 1, -8, -3, -1, -4, 0, 7, 3, 3, -7,
                -2, -7, -4, -1, -6, -5, -3, -3
            ]
        );
    }

    #[test]
    fn b_continues_the_stream_of_a() {
        // A is 21 bytes: one full draw and a short tail
        for seed in [0, 7, u64::MAX] {
            let (_, layout, mem) = filled((3, 5, 7), seed);
            let mut rng = SplitMix::new(seed);
            let (a, b) = (nibble_stream(&mut rng, 21), nibble_stream(&mut rng, 35));
            let read = |addr: i64, len: usize| -> Vec<i8> {
                let bytes = mem.bytes(addr as u64, len).unwrap();
                bytes.iter().map(|&b| b as i8).collect()
            };
            assert_eq!(read(layout.a_addr, 21), a);
            assert_eq!(read(layout.b_addr, 35), b);
        }
    }

    #[test]
    fn fill_is_small_and_uniform() {
        // A is 64 KiB
        let (_, layout, mem) = filled((256, 16, 256), 0xF111);
        let a = mem.bytes(layout.a_addr as u64, 1 << 16).unwrap();
        let b = mem.bytes(layout.b_addr as u64, 1 << 12).unwrap();
        assert!(a.iter().chain(b).all(|&v| (-8..=7).contains(&(v as i8))));
        let mut histogram = [0usize; 16];
        for &v in a {
            histogram[(v as i8 + 8) as usize] += 1;
        }
        let uniform = (1 << 16) / 16;
        for (v, &seen) in histogram.iter().enumerate() {
            assert!(
                seen.abs_diff(uniform) * 20 <= uniform,
                "{} seen {seen} times in 64 KiB",
                v as i32 - 8
            );
        }
    }

    #[test]
    fn counts_that_overflow_fault_and_touch_nothing() {
        // a valid spec whose m · k is 2^64: it wrapped to 0 in release
        // builds and panicked in debug ones
        let spec = MatmulSpec::new((1 << 62, 1, 4), (1, 1, 1)).unwrap();
        let layout = MatmulLayout {
            a_addr: 0,
            b_addr: 0x1000,
            c_addr: 0x2000,
            end: 0x3000,
        };
        let mut mem = Memory::new(0x3000);
        let fault = mem.bytes(0, usize::MAX).unwrap_err();
        assert_eq!(fill_inputs(&mut mem, &spec, &layout, 1), Err(fault));
        assert_eq!(mem, Memory::new(0x3000));
        assert_eq!(check_result(&mem, &spec, &layout), Err(fault.to_string()));
        assert_eq!(reference_c(&mem, &spec, &layout), Err(fault));
    }

    #[test]
    fn reference_matches_hand_computation() {
        let spec = MatmulSpec::new((2, 2, 2), (2, 2, 2)).unwrap();
        let layout = MatmulLayout::at(0, &spec);
        let mut mem = Memory::new(layout.end as usize);
        // A = [[1,2],[3,4]], B = [[5,6],[7,8]]
        for (i, v) in [1i8, 2, 3, 4].iter().enumerate() {
            mem.write_i8(layout.a_addr as u64 + i as u64, *v).unwrap();
        }
        for (i, v) in [5i8, 6, 7, 8].iter().enumerate() {
            mem.write_i8(layout.b_addr as u64 + i as u64, *v).unwrap();
        }
        let c = reference_c(&mem, &spec, &layout).unwrap();
        assert_eq!(c, vec![19, 22, 43, 50]);
    }

    #[test]
    fn check_result_detects_mismatch() {
        let spec = MatmulSpec::new((2, 2, 2), (2, 2, 2)).unwrap();
        let layout = MatmulLayout::at(0, &spec);
        let mut mem = Memory::new(layout.end as usize);
        fill_inputs(&mut mem, &spec, &layout, 7).unwrap();
        // C is all zeros; unless the reference is zero too, this must fail
        let reference = reference_c(&mem, &spec, &layout).unwrap();
        if reference.iter().any(|&v| v != 0) {
            assert!(check_result(&mem, &spec, &layout).is_err());
        }
        // write the correct values and it passes
        for (idx, v) in reference.iter().enumerate() {
            mem.write_i32(layout.c_addr as u64 + 4 * idx as u64, *v)
                .unwrap();
        }
        check_result(&mem, &spec, &layout).unwrap();
    }

    #[test]
    fn a_fill_that_does_not_fit_writes_nothing() {
        let spec = MatmulSpec::new((4, 4, 4), (4, 4, 4)).unwrap();
        let layout = MatmulLayout::at(0, &spec);
        // A fits, B does not
        let mut mem = Memory::new(layout.b_addr as usize + 8);
        assert!(fill_inputs(&mut mem, &spec, &layout, 7).is_err());
        assert_eq!(mem, Memory::new(layout.b_addr as usize + 8));
    }

    /// `C = act(A · B)` by its definition, one checked read per operand.
    fn definition_c(mem: &Memory, spec: &MatmulSpec, layout: &MatmulLayout) -> Vec<i32> {
        let mut c = Vec::new();
        for i in 0..spec.m {
            for j in 0..spec.n {
                let mut acc = 0i32;
                for k in 0..spec.k {
                    let a = mem
                        .read_i8((layout.a_addr + i * spec.k + k) as u64)
                        .unwrap();
                    let b = mem
                        .read_i8((layout.b_addr + k * spec.n + j) as u64)
                        .unwrap();
                    acc = acc.wrapping_add(i32::from(a).wrapping_mul(i32::from(b)));
                }
                c.push(if spec.relu { acc.max(0) } else { acc });
            }
        }
        c
    }

    /// A spec, its layout and a memory that holds it, A and B filled from
    /// `seed`.
    fn filled(dims: (i64, i64, i64), seed: u64) -> (MatmulSpec, MatmulLayout, Memory) {
        let spec = MatmulSpec::new(dims, dims).unwrap();
        let layout = MatmulLayout::at(0, &spec);
        let mut mem = Memory::new(layout.end as usize);
        fill_inputs(&mut mem, &spec, &layout, seed).unwrap();
        (spec, layout, mem)
    }

    /// Overwrites A and B with every i8, not only `[-8, 7]`.
    fn fill_full_range(mem: &mut Memory, layout: &MatmulLayout, seed: u64) {
        let mut rng = SplitMix::new(seed);
        for byte in mem.bytes_mut(0, layout.c_addr as usize).unwrap() {
            *byte = rng.next_u64() as u8;
        }
    }

    fn write_c(mem: &mut Memory, layout: &MatmulLayout, c: &[i32]) {
        for (idx, &v) in c.iter().enumerate() {
            mem.write_i32(layout.c_addr as u64 + 4 * idx as u64, v)
                .unwrap();
        }
    }

    #[test]
    fn extreme_operands_at_every_depth() {
        // m and n are multiples of nothing; (A, B) as (even, odd) elements
        for k in [1, 2, 7, 8, 9, 511, 512, 513] {
            for (a, b) in [
                ([-128, -128], [-128, -128]),
                ([127, 127], [127, 127]),
                ([-128, 127], [127, -128]),
                ([-128, 127], [-128, 127]),
            ] {
                let (mut spec, layout, mut mem) = filled((5, 7, k), 0);
                for (base, len, pattern) in [(layout.a_addr, 5 * k, a), (layout.b_addr, k * 7, b)] {
                    for at in 0..len {
                        mem.write_i8((base + at) as u64, pattern[at as usize % 2])
                            .unwrap();
                    }
                }
                for relu in [false, true] {
                    spec.relu = relu;
                    let reference = reference_c(&mem, &spec, &layout).unwrap();
                    assert_eq!(reference, definition_c(&mem, &spec, &layout), "k = {k}");
                    if (a, b, k, relu) == ([-128, -128], [-128, -128], 2, false) {
                        // one pair of products, and it does not fit in 16 bits
                        assert_eq!(reference, vec![32768; 35]);
                    }
                }
            }
        }
    }

    #[test]
    fn the_padded_layout_at_its_corners() {
        // depths either side of one, two and three lane groups; one column,
        // two, and one past a lane group's worth
        for k in [1, 15, 16, 17, 31, 32, 33] {
            for n in [1, 2, 17] {
                for m in [1, 5] {
                    let (mut spec, layout, mut mem) = filled((m, n, k), 0);
                    fill_full_range(&mut mem, &layout, (m * n * k) as u64);
                    for relu in [false, true] {
                        spec.relu = relu;
                        assert_eq!(
                            reference_c(&mem, &spec, &layout).unwrap(),
                            definition_c(&mem, &spec, &layout),
                            "(m, n, k) = {:?}, relu {relu}",
                            (m, n, k)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn the_papers_shapes() {
        // a 64 x 512 x 64 strip of the 512-cubed sweep point, and a
        // tile row's worth of its 8-wide OpenGeMM tiles
        for dims in [(64, 64, 512), (8, 8, 512)] {
            let (spec, layout, mem) = filled(dims, 0x512);
            assert_eq!(
                reference_c(&mem, &spec, &layout).unwrap(),
                definition_c(&mem, &spec, &layout)
            );
        }
    }

    #[test]
    fn check_reports_the_row_major_first_of_two_mismatches() {
        // the pairs sit in one row, in rows 1 and 3, and far apart
        let (spec, layout, mut mem) = filled((9, 6, 5), 11);
        let reference = reference_c(&mem, &spec, &layout).unwrap();
        for (first, second) in [(7, 9), (8, 21), (13, 50), (0, 53)] {
            write_c(&mut mem, &layout, &reference);
            for idx in [second, first] {
                let corrupt = reference[idx] ^ 0x40;
                mem.write_i32(layout.c_addr as u64 + 4 * idx as u64, corrupt)
                    .unwrap();
            }
            let (i, j) = (first / 6, first % 6);
            let (got, want) = (reference[first] ^ 0x40, reference[first]);
            assert_eq!(
                check_result(&mem, &spec, &layout),
                Err(format!("C[{i}][{j}] = {got}, expected {want}"))
            );
        }
    }

    #[test]
    fn check_names_a_corrupted_last_column_past_a_lane_group() {
        // k = 17: every column's last operand is alone in its lane group
        let (spec, layout, mut mem) = filled((4, 6, 17), 17);
        let reference = reference_c(&mem, &spec, &layout).unwrap();
        for i in 0..4 {
            write_c(&mut mem, &layout, &reference);
            let idx = i * 6 + 5;
            let (got, want) = (reference[idx].wrapping_add(1), reference[idx]);
            mem.write_i32(layout.c_addr as u64 + 4 * idx as u64, got)
                .unwrap();
            assert_eq!(
                check_result(&mem, &spec, &layout),
                Err(format!("C[{i}][5] = {got}, expected {want}"))
            );
        }
    }

    #[test]
    fn check_faults_as_the_region_views_do_and_compares_nothing() {
        let (spec, layout, mem) = filled((6, 5, 4), 3);
        // C is all zeros, so a check that compared anything would say so
        assert!(check_result(&mem, &spec, &layout)
            .unwrap_err()
            .starts_with("C["));
        let capacity = mem.capacity() as i64;
        let past_end = |len: i64| capacity - len + 1;
        for (moved, len) in [
            (
                MatmulLayout {
                    a_addr: past_end(24),
                    ..layout
                },
                24,
            ),
            (
                MatmulLayout {
                    b_addr: past_end(20),
                    ..layout
                },
                20,
            ),
            (
                MatmulLayout {
                    c_addr: past_end(120),
                    ..layout
                },
                120,
            ),
        ] {
            let fault = mem.bytes(past_end(len) as u64, len as usize).unwrap_err();
            assert_eq!(check_result(&mem, &spec, &moved), Err(fault.to_string()));
        }
        assert_eq!(
            reference_c(
                &mem,
                &spec,
                &MatmulLayout {
                    b_addr: past_end(20),
                    ..layout
                }
            ),
            Err(mem.bytes(past_end(20) as u64, 20).unwrap_err())
        );
    }

    #[test]
    fn check_handles_short_matrices_and_one_column() {
        for dims in [(1, 1, 1), (3, 1, 9), (2, 5, 3), (7, 1, 2), (1, 9, 4)] {
            let (mut spec, layout, mut mem) = filled(dims, 5);
            for relu in [false, true] {
                spec.relu = relu;
                let reference = reference_c(&mem, &spec, &layout).unwrap();
                assert_eq!(reference, definition_c(&mem, &spec, &layout));
                write_c(&mut mem, &layout, &reference);
                check_result(&mem, &spec, &layout).unwrap();
                // the last element of the last row
                let last = reference.len() - 1;
                let (got, want) = (reference[last].wrapping_sub(1), reference[last]);
                mem.write_i32(layout.c_addr as u64 + 4 * last as u64, got)
                    .unwrap();
                let (i, j) = (dims.0 - 1, dims.1 - 1);
                assert_eq!(
                    check_result(&mem, &spec, &layout),
                    Err(format!("C[{i}][{j}] = {got}, expected {want}"))
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The register-blocked kernel is the portable `dot`, element by
        /// element: odd `m` pairs its last row with itself, every `n mod 4`
        /// leaves a column tail, `k` crosses eight- and sixteen-lane steps,
        /// operands are full-range i8, and one row of A and one column of B
        /// are all −128 (the 32 768 pair-sum corner).
        #[test]
        fn blocked_reference_equals_the_portable_dot(
            dims in (1i64..10, 1i64..14, 1i64..71),
            corner in (any::<u64>(), any::<u64>()),
            seed in any::<u64>(),
        ) {
            let (spec, layout, mut mem) = filled(dims, seed);
            fill_full_range(&mut mem, &layout, seed);
            let (m, n, k) = (dims.0 as usize, dims.1 as usize, dims.2 as usize);
            let (row, col) = (corner.0 as usize % m, corner.1 as usize % n);
            let (a_addr, b_addr) = (layout.a_addr as u64, layout.b_addr as u64);
            for l in 0..k {
                mem.write_i8(a_addr + (row * k + l) as u64, -128).unwrap();
                mem.write_i8(b_addr + (l * n + col) as u64, -128).unwrap();
            }
            // `k` operands `step` bytes apart from `addr`, widened into
            // zero-padded lane groups
            let widened = |addr: u64, step: usize| {
                let mut v = vec![[0i16; LANES]; k.div_ceil(LANES)];
                for (l, wide) in v.as_flattened_mut()[..k].iter_mut().enumerate() {
                    *wide = mem.read_i8(addr + (l * step) as u64).unwrap().into();
                }
                v
            };
            let reference = reference_c(&mem, &spec, &layout).unwrap();
            for i in 0..m {
                let a_row = widened(a_addr + (i * k) as u64, 1);
                for j in 0..n {
                    let want = kernel::dot(&a_row, &widened(b_addr + j as u64, n));
                    prop_assert_eq!(reference[i * n + j], want, "C[{}][{}] of {:?}", i, j, dims);
                }
            }
        }

        /// The pack is its definition over the whole packed buffer, the
        /// two rows of A behind the columns included: zero to three whole
        /// eight-column groups and every `n mod 8`, whole and partial
        /// sixteen-row groups, full-range bytes with a column of −128 and
        /// one of 127 (the sign extension), and B's last row ending on
        /// memory's last byte, so any over-read panics.
        #[test]
        fn packed_b_is_b_transposed_and_widened(
            dims in (1usize..25, 1usize..71),
            columns in (any::<usize>(), any::<usize>()),
            seed in any::<u64>(),
        ) {
            let (n, k) = dims;
            let spec = MatmulSpec::new((1, n as i64, k as i64), (1, n as i64, k as i64)).unwrap();
            // A, then B up to the last byte
            let end = (k + k * n) as i64;
            let layout = MatmulLayout { a_addr: 0, b_addr: k as i64, c_addr: end, end };
            let mut mem = Memory::new(end as usize);
            fill_full_range(&mut mem, &layout, seed);
            for t in 0..k {
                let row = (k + t * n) as u64;
                mem.write_i8(row + (columns.0 % n) as u64, -128).unwrap();
                mem.write_i8(row + (columns.1 % n) as u64, 127).unwrap();
            }
            let reference = Reference::new(&mem, &spec, &layout).unwrap().unwrap();
            let b = mem.bytes(k as u64, k * n).unwrap();
            let groups = k.div_ceil(LANES);
            let mut want = vec![[0i16; LANES]; (n + 2) * groups];
            for (j, col) in want.chunks_exact_mut(groups).take(n).enumerate() {
                for (t, wide) in col.as_flattened_mut()[..k].iter_mut().enumerate() {
                    *wide = b[t * n + j] as i8 as i16;
                }
            }
            prop_assert_eq!(reference.packed, want, "n {} k {}", n, k);
        }
    }

    proptest! {
        #[test]
        fn reference_equals_the_definition(
            // across lane groups and 64
            dims in (1i64..70, 1i64..70, 1i64..70),
            relu in any::<bool>(),
            full_range in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let mut spec = MatmulSpec::new(dims, dims).unwrap();
            spec.relu = relu;
            let layout = MatmulLayout::at(0, &spec);
            let mut mem = Memory::new(layout.end as usize);
            fill_inputs(&mut mem, &spec, &layout, seed).unwrap();
            if full_range {
                fill_full_range(&mut mem, &layout, seed);
            }
            let reference = reference_c(&mem, &spec, &layout).unwrap();
            prop_assert_eq!(&reference, &definition_c(&mem, &spec, &layout));
            prop_assert!(!relu || reference.iter().all(|&v| v >= 0));
        }

        #[test]
        fn check_names_the_one_corrupted_element(
            dims in (1i64..25, 1i64..25, 1i64..25),
            relu in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let mut spec = MatmulSpec::new(dims, dims).unwrap();
            spec.relu = relu;
            let layout = MatmulLayout::at(0, &spec);
            let mut mem = Memory::new(layout.end as usize);
            fill_inputs(&mut mem, &spec, &layout, seed).unwrap();
            let reference = reference_c(&mem, &spec, &layout).unwrap();
            let c_word = |idx: usize| layout.c_addr as u64 + 4 * idx as u64;
            for (idx, &v) in reference.iter().enumerate() {
                mem.write_i32(c_word(idx), v).unwrap();
            }
            check_result(&mem, &spec, &layout).unwrap();
            let last = reference.len() - 1;
            for idx in [0, last, seed as usize % reference.len()] {
                let (want, got) = (reference[idx], reference[idx].wrapping_add(1));
                mem.write_i32(c_word(idx), got).unwrap();
                let (i, j) = (idx as i64 / spec.n, idx as i64 % spec.n);
                prop_assert_eq!(
                    check_result(&mem, &spec, &layout),
                    Err(format!("C[{i}][{j}] = {got}, expected {want}"))
                );
                mem.write_i32(c_word(idx), want).unwrap();
            }
        }
    }
}
