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
    let a = mem.bytes(layout.a_addr as u64, count(spec.m * spec.k))?;
    let b = mem.bytes(layout.b_addr as u64, count(spec.k * spec.n))?;
    let mut c = vec![0i32; count(spec.m * spec.n)];
    // an empty product is all zeros (and `chunks_exact` needs a width)
    if a.is_empty() || b.is_empty() {
        return Ok(c);
    }
    let (n, k) = (spec.n as usize, spec.k as usize);
    // i-k-j: each A element scales one contiguous row of B into one row of C
    for (a_row, c_row) in a.chunks_exact(k).zip(c.chunks_exact_mut(n)) {
        for (&a, b_row) in a_row.iter().zip(b.chunks_exact(n)) {
            let a = a as i8 as i32;
            for (acc, &b) in c_row.iter_mut().zip(b_row) {
                *acc = acc.wrapping_add(a.wrapping_mul(b as i8 as i32));
            }
        }
        if spec.relu {
            for acc in c_row {
                *acc = (*acc).max(0);
            }
        }
    }
    Ok(c)
}

/// Compares the C region in memory against the reference result, element
/// by element.
///
/// # Errors
/// Returns a description of the first mismatching element, or a memory
/// fault.
pub fn check_result(mem: &Memory, spec: &MatmulSpec, layout: &MatmulLayout) -> Result<(), String> {
    let expected = reference_c(mem, spec, layout).map_err(|e| e.to_string())?;
    let c = mem
        .bytes(layout.c_addr as u64, expected.len().saturating_mul(4))
        .map_err(|e| e.to_string())?;
    for (idx, (&want, word)) in expected.iter().zip(c.chunks_exact(4)).enumerate() {
        let got = i32::from_le_bytes(word.try_into().expect("4 bytes"));
        if got != want {
            let (i, j) = (idx as i64 / spec.n, idx as i64 % spec.n);
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

    proptest! {
        #[test]
        fn reference_equals_the_definition(
            dims in (1i64..25, 1i64..25, 1i64..25),
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
