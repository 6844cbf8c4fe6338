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

    /// A small i8 in `[-8, 7]`, keeping i32 accumulators far from overflow
    /// even at depth 512.
    pub fn next_small_i8(&mut self) -> i8 {
        ((self.next_u64() >> 33) % 16) as i8 - 8
    }
}

/// An element count as a length; a negative one (a spec assembled field
/// by field around [`MatmulSpec::new`]) becomes a length no memory holds,
/// so the region view faults.
fn count(elements: i64) -> usize {
    usize::try_from(elements).unwrap_or(usize::MAX)
}

/// Fills A and B with small pseudorandom i8 values.
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
    let (a_len, b_len) = (count(spec.m * spec.k), count(spec.k * spec.n));
    mem.bytes(layout.b_addr as u64, b_len)?;
    let mut rng = SplitMix::new(seed);
    for byte in mem.bytes_mut(layout.a_addr as u64, a_len)? {
        *byte = rng.next_small_i8() as u8;
    }
    for byte in mem.bytes_mut(layout.b_addr as u64, b_len)? {
        *byte = rng.next_small_i8() as u8;
    }
    Ok(())
}

/// Rows of C the reference produces per pass over B.
const ROW_BLOCK: usize = 4;

/// The reference `act(A · B)`, [`ROW_BLOCK`] rows at a time.
///
/// B is widened to i16 once. A block is then one pass over it: each row
/// of B, scaled by one element from each of [`ROW_BLOCK`] rows of A, is
/// added into as many `n`-long rows of C. An i8 · i8 product is exact in
/// 16 bits, so the scaling is a 16-bit multiply and only the sum is 32
/// bits wide.
struct RowBlocks<'m> {
    a: &'m [u8],
    b: Vec<i16>,
    m: usize,
    n: usize,
    k: usize,
    relu: bool,
    block: Vec<i32>,
}

impl<'m> RowBlocks<'m> {
    /// Views A and B in `mem`; `None` when the product is empty (a
    /// dimension that is not positive), which makes C all zeros.
    fn new(
        mem: &'m Memory,
        spec: &MatmulSpec,
        layout: &MatmulLayout,
    ) -> Result<Option<Self>, MemError> {
        let a = mem.bytes(layout.a_addr as u64, count(spec.m * spec.k))?;
        let b = mem.bytes(layout.b_addr as u64, count(spec.k * spec.n))?;
        let dim = |d: i64| usize::try_from(d).ok().filter(|&d| d > 0);
        let (Some(m), Some(n), Some(k)) = (dim(spec.m), dim(spec.n), dim(spec.k)) else {
            return Ok(None);
        };
        Ok(Some(Self {
            a,
            b: b.iter().map(|&b| b as i8 as i16).collect(),
            m,
            n,
            k,
            relu: spec.relu,
            block: vec![0; ROW_BLOCK * n],
        }))
    }

    /// The first row of every block, in order.
    fn firsts(&self) -> impl Iterator<Item = usize> {
        (0..self.m).step_by(ROW_BLOCK)
    }

    /// Rows `first..first + ROW_BLOCK` of C, or as many as C has, row-major.
    fn rows(&mut self, first: usize) -> &[i32] {
        let (m, n, k) = (self.m, self.n, self.k);
        // a block past the last row repeats it, and drops the repeats below
        let a: [&[u8]; ROW_BLOCK] =
            std::array::from_fn(|r| &self.a[(first + r).min(m - 1) * k..][..k]);
        self.block.fill(0);
        let (c0, rest) = self.block.split_at_mut(n);
        let (c1, rest) = rest.split_at_mut(n);
        let (c2, c3) = rest.split_at_mut(n);
        for (kk, b_row) in self.b.chunks_exact(n).enumerate() {
            let [a0, a1, a2, a3] = a.map(|a_row| a_row[kk] as i8 as i16);
            // a `while` over the index: the debug-build suites run this
            // loop too, and there a `Zip::next` is a call per element
            let mut j = 0;
            while j < n {
                let b = b_row[j];
                c0[j] = c0[j].wrapping_add(a0.wrapping_mul(b) as i32);
                c1[j] = c1[j].wrapping_add(a1.wrapping_mul(b) as i32);
                c2[j] = c2[j].wrapping_add(a2.wrapping_mul(b) as i32);
                c3[j] = c3[j].wrapping_add(a3.wrapping_mul(b) as i32);
                j += 1;
            }
        }
        let rows = &mut self.block[..(m - first).min(ROW_BLOCK) * n];
        if self.relu {
            for acc in rows.iter_mut() {
                *acc = (*acc).max(0);
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
pub fn reference_c(
    mem: &Memory,
    spec: &MatmulSpec,
    layout: &MatmulLayout,
) -> Result<Vec<i32>, MemError> {
    let len = count(spec.m * spec.n);
    let Some(mut blocks) = RowBlocks::new(mem, spec, layout)? else {
        return Ok(vec![0; len]);
    };
    let mut c = Vec::with_capacity(len);
    for first in blocks.firsts() {
        c.extend_from_slice(blocks.rows(first));
    }
    Ok(c)
}

/// Compares the C region in memory against the reference result, element
/// by element, a block of reference rows at a time: the reference is
/// never held whole.
///
/// # Errors
/// Returns a description of the first mismatching element, or a memory
/// fault.
pub fn check_result(mem: &Memory, spec: &MatmulSpec, layout: &MatmulLayout) -> Result<(), String> {
    let blocks = RowBlocks::new(mem, spec, layout).map_err(|e| e.to_string())?;
    let c = mem
        .bytes(
            layout.c_addr as u64,
            count(spec.m * spec.n).saturating_mul(4),
        )
        .map_err(|e| e.to_string())?;
    let Some(mut blocks) = blocks else {
        return compare(std::iter::repeat(0), c, 0, spec.n);
    };
    for first in blocks.firsts() {
        let start = first * blocks.n;
        compare(blocks.rows(first).iter().copied(), c, start, spec.n)?;
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
    fn rng_is_deterministic_and_small() {
        let mut a = SplitMix::new(42);
        let mut b = SplitMix::new(42);
        for _ in 0..100 {
            let va = a.next_small_i8();
            assert_eq!(va, b.next_small_i8());
            assert!((-8..=7).contains(&va));
        }
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
    fn the_papers_shapes() {
        // a 64 x 512 x 64 strip of the 512-cubed sweep point, and a row
        // block's worth of its 8-wide OpenGeMM tiles
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
        // the pairs sit in one row, in one block of rows, and in two blocks
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
    fn check_handles_fewer_rows_than_a_block_and_one_column() {
        for dims in [(1, 1, 1), (3, 1, 9), (2, 5, 3), (7, 1, 2), (1, 9, 4)] {
            let (mut spec, layout, mut mem) = filled(dims, 5);
            for relu in [false, true] {
                spec.relu = relu;
                let reference = reference_c(&mem, &spec, &layout).unwrap();
                assert_eq!(reference, definition_c(&mem, &spec, &layout));
                write_c(&mut mem, &layout, &reference);
                check_result(&mem, &spec, &layout).unwrap();
                // the last element of the last (short) block
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
        #[test]
        fn reference_equals_the_definition(
            // across the row block and 64
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
                // every i8, not only [-8, 7]
                let mut rng = SplitMix::new(seed);
                for byte in mem.bytes_mut(0, layout.c_addr as usize).unwrap() {
                    *byte = rng.next_u64() as u8;
                }
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
