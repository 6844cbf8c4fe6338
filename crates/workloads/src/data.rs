//! Test-data generation, reference results and the functional check for
//! matmul workloads.
//!
//! # The check
//!
//! [`check_result`] checks the C a dispatch wrote against `act(A · B)`
//! without computing the product. It is Freivalds' check (R. Freivalds,
//! "Probabilistic machines can use less running time", IFIP Congress
//! 1977): draw a vector `r` of `n` entries, each in `[1, 2³²]`, and compare
//! `A · (B · r)` with `C · r` row by row, in i64 arithmetic that wraps
//! (mod 2⁶⁴). That costs O(m·k + k·n + m·n) where the product costs
//! O(m·n·k), and it shares no step with the tile executor that wrote C.
//! `r` comes from a [`SplitMix`] seeded by a fixed key and the spec's
//! dimensions, so every verdict, and every report, repeats exactly.
//!
//! **Shape rule.** The check is exact while no element of `A · B` can wrap
//! its i32: an i8 product is at most 2¹⁴ in magnitude, so `k · 2¹⁴ < 2³¹`,
//! or `k ≤ 131 071`. Then an element of C that differs from the product
//! differs by some `e` with `0 < |e| < 2³²`, and two guarantees hold:
//!
//! - **every single-word corruption is caught, deterministically:** `e`
//!   has at most 31 factors of two and `r[j]` at most 32, so `e · r[j]` is
//!   not 0 mod 2⁶⁴;
//! - **any other corruption passes with probability at most 2⁻³² over the
//!   key:** fix every entry of `r` but one, `r[j]`, whose column holds an
//!   error `e` in a failing row. The row passes only where `e · r[j]` meets
//!   one value mod 2⁶⁴, which fixes `r[j]` mod 2³³ at least, and one value
//!   of the 2³² that `r[j]` takes at most does that.
//!
//! Working mod 2³² would not be sound: it must draw odd entries to catch
//! a single error of 2³¹, and then a row with two errors of 2³¹ passes
//! every time.
//!
//! `relu` specs (the clamp is not linear) and deeper `k` take the scalar
//! definition instead, row by row; that is the only other path.
//! The definition is also the verdict on a C that Freivalds' check rejects:
//! it names the row-major first element that differs.

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
    kernel::fill_nibbles(mem.bytes_mut(layout.a_addr as u64, a_len)?, &mut rng);
    kernel::fill_nibbles(mem.bytes_mut(layout.b_addr as u64, b_len)?, &mut rng);
    Ok(())
}

mod kernel;

/// The deepest `k` at which no element of `A · B` wraps its i32, so that
/// [`check_result`] may use Freivalds' check: `k · 2¹⁴ < 2³¹`.
const FREIVALDS_DEPTH: usize = (1 << 17) - 1;

/// The key [`check_result`] seeds its vector from, beside the spec's
/// dimensions.
const KEY: u64 = 0xF4E1_7A1D_5C0D_E3B9;

/// A and B of a product, viewed in memory, and its dimensions `(m, n, k)`:
/// `None` when the product is empty (a dimension that is not positive),
/// which makes C all zeros.
type Operands<'m> = (&'m [u8], &'m [u8], Option<(usize, usize, usize)>);

fn operands<'m>(
    mem: &'m Memory,
    spec: &MatmulSpec,
    layout: &MatmulLayout,
) -> Result<Operands<'m>, MemError> {
    let a = mem.bytes(layout.a_addr as u64, count(spec.m, spec.k))?;
    let b = mem.bytes(layout.b_addr as u64, count(spec.k, spec.n))?;
    let dim = |d: i64| usize::try_from(d).ok().filter(|&d| d > 0);
    let dims = match (dim(spec.m), dim(spec.n), dim(spec.k)) {
        (Some(m), Some(n), Some(k)) => Some((m, n, k)),
        _ => None,
    };
    Ok((a, b, dims))
}

/// One row of `act(A · B)` into `out`, by the definition: element `j` is
/// the wrapping i32 sum of `a_row[l] · B[l][j]` over the rows of `n =
/// out.len()` bytes of `b`.
fn definition_row(a_row: &[u8], b: &[u8], relu: bool, out: &mut [i32]) {
    out.fill(0);
    for (&a, b_row) in a_row.iter().zip(b.chunks_exact(out.len())) {
        for (c, &b) in out.iter_mut().zip(b_row) {
            *c = c.wrapping_add(i32::from(a as i8) * i32::from(b as i8));
        }
    }
    if relu {
        for c in out {
            *c = (*c).max(0);
        }
    }
}

/// Computes the reference `C = act(A · B)` from the matrices in memory, by
/// the definition.
///
/// # Errors
/// Fails on out-of-bounds reads.
pub fn reference_c(
    mem: &Memory,
    spec: &MatmulSpec,
    layout: &MatmulLayout,
) -> Result<Vec<i32>, MemError> {
    let (a, b, dims) = operands(mem, spec, layout)?;
    let mut c = vec![0; count(spec.m, spec.n)];
    if let Some((_, n, k)) = dims {
        for (a_row, out) in a.chunks_exact(k).zip(c.chunks_exact_mut(n)) {
            definition_row(a_row, b, spec.relu, out);
        }
    }
    Ok(c)
}

/// Checks the C region in memory against `act(A · B)` without computing
/// the product: Freivalds' check where the module doc's shape rule allows
/// it, the definition elsewhere.
///
/// # Errors
/// Returns a description of the row-major first mismatching element, or a
/// memory fault.
pub fn check_result(mem: &Memory, spec: &MatmulSpec, layout: &MatmulLayout) -> Result<(), String> {
    let (a, b, dims) = operands(mem, spec, layout).map_err(|e| e.to_string())?;
    let c = mem
        .bytes(
            layout.c_addr as u64,
            count(spec.m, spec.n).saturating_mul(4),
        )
        .map_err(|e| e.to_string())?;
    let Some((m, n, k)) = dims else {
        let zero = c.as_chunks::<4>().0.iter().position(|&word| word != [0; 4]);
        return zero.map_or(Ok(()), |idx| Err(mismatch(c, idx, 0, spec.n)));
    };
    let key = KEY ^ (m as u64) ^ (n as u64).rotate_left(21) ^ (k as u64).rotate_left(42);
    if spec.relu || k > FREIVALDS_DEPTH || !freivalds((a, b, c), (n, k), key) {
        return by_definition((a, b, c), (n, k), spec.relu);
    }
    Ok(())
}

/// Whether `A · (B · r) = C · r` in wrapping i64, row by row, for A of
/// rows of `k` bytes, B of `k` rows of `n` bytes and C of rows of `n`
/// little-endian i32 words; `r` is `n` draws in `[1, 2³²]` from a
/// [`SplitMix`] seeded by `key`.
fn freivalds((a, b, c): (&[u8], &[u8], &[u8]), (n, k): (usize, usize), key: u64) -> bool {
    let mut rng = SplitMix::new(key);
    let mut vectors = vec![0i64; n + k];
    let (r, br) = vectors.split_at_mut(n);
    for r in r.iter_mut() {
        *r = entry(rng.next_u64());
    }
    for (br, b_row) in br.iter_mut().zip(b.chunks_exact(n)) {
        *br = dot(b_row, r);
    }
    a.chunks_exact(k)
        .zip(c.chunks_exact(4 * n))
        .all(|(a_row, c_row)| {
            let words = c_row.as_chunks::<4>().0.iter();
            let cr = words.zip(&*r).fold(0i64, |sum, (word, &r)| {
                sum.wrapping_add(i64::from(i32::from_le_bytes(*word)).wrapping_mul(r))
            });
            dot(a_row, br) == cr
        })
}

/// An entry of Freivalds' vector from a draw: its high half, plus one, so
/// in `[1, 2³²]`.
fn entry(draw: u64) -> i64 {
    (draw >> 32) as i64 + 1
}

/// `Σ x[l] · y[l]`, wrapping, of i8 operands `x` and i64 `y`.
fn dot(x: &[u8], y: &[i64]) -> i64 {
    x.iter().zip(y).fold(0, |sum, (&x, &y)| {
        sum.wrapping_add(i64::from(x as i8).wrapping_mul(y))
    })
}

/// [`check_result`] by the definition, a row at a time: the verdict for
/// `relu` specs, for depths past [`FREIVALDS_DEPTH`] and on every row
/// Freivalds' check rejects, which it names exactly.
#[cold]
fn by_definition(
    (a, b, c): (&[u8], &[u8], &[u8]),
    (n, k): (usize, usize),
    relu: bool,
) -> Result<(), String> {
    let mut want = vec![0; n];
    for (i, (a_row, c_row)) in a.chunks_exact(k).zip(c.chunks_exact(4 * n)).enumerate() {
        definition_row(a_row, b, relu, &mut want);
        let words = c_row.as_chunks::<4>().0;
        let differs = |(&want, word): (&i32, &[u8; 4])| i32::from_le_bytes(*word) != want;
        if let Some(j) = want.iter().zip(words).position(differs) {
            return Err(mismatch(c, i * n + j, want[j], n as i64));
        }
    }
    Ok(())
}

/// The message for element `idx` of the `n`-column matrix `c`, which is
/// not `want`.
#[cold]
fn mismatch(c: &[u8], idx: usize, want: i32, n: i64) -> String {
    let got = i32::from_le_bytes(c[4 * idx..][..4].try_into().expect("4 bytes"));
    let (i, j) = (idx as i64 / n, idx as i64 % n);
    format!("C[{i}][{j}] = {got}, expected {want}")
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

    /// The bytes of `v` as the i8 operands they hold.
    fn as_i8(v: &[u8]) -> Vec<i8> {
        v.iter().map(|&b| b as i8).collect()
    }

    #[test]
    fn b_continues_the_stream_of_a() {
        // A of 1..=80 bytes, every partial last run, B of k, 3k or 5k
        let dims = (1..=5).flat_map(|m| (1..=16).flat_map(move |k| [1, 3, 5].map(|n| (m, n, k))));
        for seed in [0, 7, u64::MAX] {
            for (m, n, k) in dims.clone() {
                let (_, layout, mem) = filled((m, n, k), seed);
                let (a_len, b_len) = ((m * k) as usize, (k * n) as usize);
                let mut rng = SplitMix::new(seed);
                let (a, b) = (
                    nibble_stream(&mut rng, a_len),
                    nibble_stream(&mut rng, b_len),
                );
                let read = |addr: i64, len: usize| as_i8(mem.bytes(addr as u64, len).unwrap());
                assert_eq!(read(layout.a_addr, a_len), a, "{:?}", (m, n, k));
                assert_eq!(read(layout.b_addr, b_len), b, "{:?}", (m, n, k));
            }
        }
    }

    #[test]
    fn fill_is_the_nibble_stream_at_every_length() {
        // every partial last run, either side of up to five whole ones;
        // the second fill continues the generator as B continues A's
        let seeds = (0..64u64).map(|s| s.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ s);
        for seed in seeds.chain([u64::MAX]) {
            for len in 0..=80 {
                let (mut rng, mut definition) = (SplitMix::new(seed), SplitMix::new(seed));
                let (mut a, mut b) = (vec![0x55; len], vec![0x55; (len * 7 + 3) % 81]);
                kernel::fill_nibbles(&mut a, &mut rng);
                kernel::fill_nibbles(&mut b, &mut rng);
                assert_eq!(
                    as_i8(&a),
                    nibble_stream(&mut definition, len),
                    "{len} {seed}"
                );
                let b_definition = nibble_stream(&mut definition, b.len());
                assert_eq!(as_i8(&b), b_definition, "{len} {seed}");
                assert_eq!(rng.next_u64(), definition.next_u64(), "{len} {seed}");
            }
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

    /// What `check_result` must say of a C holding `c` where the product
    /// is `want`: the row-major first element that differs, or nothing.
    fn verdict(c: &[i32], want: &[i32], n: i64) -> Result<(), String> {
        let Some(idx) = c.iter().zip(want).position(|(c, want)| c != want) else {
            return Ok(());
        };
        let (i, j) = (idx as i64 / n, idx as i64 % n);
        Err(format!("C[{i}][{j}] = {}, expected {}", c[idx], want[idx]))
    }

    /// `check_result` accepts the definition's C and names a corruption
    /// of its first, a middle and its last word, in the lowest bit and in
    /// the sign bit; C is left holding the definition.
    fn accepts_and_names_a_corrupted_word(
        mem: &mut Memory,
        spec: &MatmulSpec,
        layout: &MatmulLayout,
    ) {
        let want = definition_c(mem, spec, layout);
        write_c(mem, layout, &want);
        assert_eq!(check_result(mem, spec, layout), Ok(()), "{spec:?}");
        for idx in [0, want.len() / 2, want.len() - 1] {
            for flip in [1, i32::MIN] {
                let mut c = want.clone();
                c[idx] ^= flip;
                write_c(mem, layout, &c);
                assert_eq!(
                    check_result(mem, spec, layout),
                    verdict(&c, &want, spec.n),
                    "{spec:?}"
                );
            }
        }
        write_c(mem, layout, &want);
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
                    accepts_and_names_a_corrupted_word(&mut mem, &spec, &layout);
                }
            }
        }
    }

    #[test]
    fn full_range_operands_at_small_corners() {
        // depths 1 to 33, one column, two and seventeen, one row and five
        for k in [1, 15, 16, 17, 31, 32, 33] {
            for n in [1, 2, 17] {
                for m in [1, 5] {
                    let (mut spec, layout, mut mem) = filled((m, n, k), 0);
                    fill_full_range(&mut mem, &layout, (m * n * k) as u64);
                    for relu in [false, true] {
                        spec.relu = relu;
                        accepts_and_names_a_corrupted_word(&mut mem, &spec, &layout);
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
            let (spec, layout, mut mem) = filled(dims, 0x512);
            accepts_and_names_a_corrupted_word(&mut mem, &spec, &layout);
        }
    }

    #[test]
    fn structured_corruptions_are_named_at_their_first_word() {
        // square and not, one row and many, narrow rows and wide
        for dims in [(4, 6, 9), (6, 6, 6), (1, 5, 3), (9, 2, 40), (32, 32, 32)] {
            let (spec, layout, mut mem) = filled(dims, dims.0 as u64 * 7 + 1);
            let want = definition_c(&mem, &spec, &layout);
            let (m, n) = (dims.0 as usize, dims.1 as usize);
            let mut corruptions: Vec<(String, Vec<i32>)> = Vec::new();
            // two words of one row off by 2³¹ each (+ or − by the word's
            // sign): a row sum mod 2³² with odd entries misses every pair
            for i in 0..m {
                for j1 in 0..n {
                    for j2 in j1 + 1..n {
                        let mut c = want.clone();
                        c[i * n + j1] ^= i32::MIN;
                        c[i * n + j2] ^= i32::MIN;
                        corruptions.push((format!("sign bits {i} {j1} {j2}"), c));
                    }
                }
            }
            for i in 0..m.saturating_sub(1) {
                let mut c = want.clone();
                let (row, next) = c.split_at_mut((i + 1) * n);
                row[i * n..].swap_with_slice(&mut next[..n]);
                corruptions.push((format!("rows {i} and {} swapped", i + 1), c));
            }
            if m == n {
                let c = (0..m * n).map(|idx| want[idx % n * n + idx / n]).collect();
                corruptions.push(("transposed".into(), c));
            }
            let mut c = want.clone();
            c[(m - 1) * n..].fill(0);
            corruptions.push(("last row zeroed".into(), c));
            for (what, c) in corruptions {
                write_c(&mut mem, &layout, &c);
                assert_eq!(
                    check_result(&mem, &spec, &layout),
                    verdict(&c, &want, spec.n),
                    "{what} of {dims:?}"
                );
            }
        }
    }

    /// Freivalds' check alone, under `key`, of the C in `mem`.
    fn freivalds_in(mem: &Memory, spec: &MatmulSpec, layout: &MatmulLayout, key: u64) -> bool {
        let (a, b, dims) = operands(mem, spec, layout).unwrap();
        let (m, n, k) = dims.unwrap();
        let c = mem.bytes(layout.c_addr as u64, 4 * m * n).unwrap();
        freivalds((a, b, c), (n, k), key)
    }

    #[test]
    fn two_sign_flips_in_one_row_fail_under_every_key() {
        // the probabilistic guarantee at its narrowest: the two errors of
        // 2³¹ cancel only where two entries of r are equal (mod 2³³)
        let (spec, layout, mut mem) = filled((3, 5, 7), 41);
        let mut c = definition_c(&mem, &spec, &layout);
        c[5] ^= i32::MIN;
        c[9] ^= i32::MIN;
        write_c(&mut mem, &layout, &c);
        for key in 0..4096 {
            assert!(!freivalds_in(&mem, &spec, &layout, KEY ^ key), "key {key}");
        }
    }

    #[test]
    fn no_single_word_error_vanishes_mod_2_64() {
        // the deterministic guarantee: 0 < |e| < 2³² times an entry of r,
        // which is never 0 and at most 2³², is never 0 mod 2⁶⁴
        assert_eq!((entry(0), entry(u64::MAX)), (1, 1 << 32));
        let errors = [1, 3, 1 << 31, 3 << 30, (1 << 32) - 1];
        let entries = [0, 1, 1 << 32, u64::MAX >> 1, u64::MAX].map(entry);
        for e in errors.into_iter().flat_map(|e: i64| [e, -e]) {
            for r in entries {
                assert_ne!(e.wrapping_mul(r), 0, "{e} · {r}");
            }
        }
    }

    #[test]
    fn a_relu_spec_is_checked_by_the_definition() {
        // the unclamped product satisfies Freivalds' equation, and is wrong
        let (mut spec, layout, mut mem) = filled((6, 5, 12), 3);
        let product = definition_c(&mem, &spec, &layout);
        spec.relu = true;
        let clamped = definition_c(&mem, &spec, &layout);
        assert_ne!(product, clamped);
        write_c(&mut mem, &layout, &product);
        assert_eq!(
            check_result(&mem, &spec, &layout),
            verdict(&product, &clamped, spec.n)
        );
        accepts_and_names_a_corrupted_word(&mut mem, &spec, &layout);
    }

    #[test]
    fn a_product_past_the_shape_rule_is_checked_by_the_definition() {
        // all −128: each element is k · 2¹⁴, which wraps its i32 first at
        // k = 2¹⁷ (to i32::MIN), one past the deepest Freivalds' check takes
        for k in [FREIVALDS_DEPTH as i64, FREIVALDS_DEPTH as i64 + 1] {
            let (spec, layout, mut mem) = filled((2, 3, k), 0);
            mem.bytes_mut(0, layout.c_addr as usize).unwrap().fill(0x80);
            assert_eq!(definition_c(&mem, &spec, &layout)[0], (k << 14) as i32);
            accepts_and_names_a_corrupted_word(&mut mem, &spec, &layout);
            // a product that wrapped fails Freivalds' equation even correct
            let exact = k <= FREIVALDS_DEPTH as i64;
            assert_eq!(freivalds_in(&mem, &spec, &layout, KEY), exact, "k = {k}");
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
    fn check_names_a_corrupted_last_column() {
        // the last word of every row in turn
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

    #[test]
    fn check_names_every_corrupted_position() {
        // every word of C in turn: each lane of a four-word step, every
        // `n mod 4` tail, both rows of a pair and the lone last row of an
        // odd `m`; at one lane group and past it (the AVX2 scope's compare)
        for (m, n, k) in
            (1..=5).flat_map(|m| (1..=13).flat_map(move |n| [3, 20].map(|k| (m, n, k))))
        {
            let (spec, layout, mut mem) = filled((m, n, k), (m * 100 + n * 10 + k) as u64);
            let reference = reference_c(&mem, &spec, &layout).unwrap();
            write_c(&mut mem, &layout, &reference);
            assert_eq!(
                check_result(&mem, &spec, &layout),
                Ok(()),
                "{:?}",
                (m, n, k)
            );
            for (idx, &want) in reference.iter().enumerate() {
                let word = layout.c_addr as u64 + 4 * idx as u64;
                // a difference in the word's lowest byte, and in its highest
                for got in [want ^ 1, want ^ i32::MIN] {
                    mem.write_i32(word, got).unwrap();
                    let (i, j) = (idx as i64 / n, idx as i64 % n);
                    assert_eq!(
                        check_result(&mem, &spec, &layout),
                        Err(format!("C[{i}][{j}] = {got}, expected {want}")),
                        "{:?}",
                        (m, n, k)
                    );
                }
                mem.write_i32(word, want).unwrap();
            }
        }
    }

    proptest! {
        /// Freivalds' check accepts a correct C on its own, so a correct
        /// dispatch never costs the definition's scan.
        #[test]
        fn freivalds_accepts_every_correct_product(
            dims in (1i64..40, 1i64..40, 1i64..70),
            full_range in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let (spec, layout, mut mem) = filled(dims, seed);
            if full_range {
                fill_full_range(&mut mem, &layout, seed);
            }
            let want = definition_c(&mem, &spec, &layout);
            write_c(&mut mem, &layout, &want);
            prop_assert!(freivalds_in(&mem, &spec, &layout, seed), "{:?}", dims);
        }

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
