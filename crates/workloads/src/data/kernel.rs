//! The operand fill, the one element loop of a dispatch this crate runs
//! with intrinsics: on x86_64 each draw is expanded into sixteen operand
//! bytes by SSE2, which every x86_64 CPU can run; the short last run, and
//! every run elsewhere, is shifted out a nibble at a time. This module and
//! the tile executor's kernel in `accfg-sim` are the only library code in
//! the workspace that uses `unsafe` or `core::arch` (CI greps for both).

use super::SplitMix;

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

/// The fill moves a draw into the low half of a register; byte `j` holds
/// nibbles `2j` (low) and `2j + 1` (high). Masking takes the low nibbles,
/// a 16-bit shift right by four and the same mask the high ones, and
/// interleaving the two bytewise puts nibble `i` in byte `i`: the bytes
/// of the element loop, less 8 by one bytewise subtraction.
#[cfg(target_arch = "x86_64")]
mod sse2 {
    use core::arch::x86_64::{
        _mm_and_si128, _mm_cvtsi64_si128, _mm_set1_epi8, _mm_srli_epi16, _mm_storeu_si128,
        _mm_sub_epi8, _mm_unpacklo_epi8,
    };

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
}
