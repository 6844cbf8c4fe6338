//! Workload specifications: problem shapes and tiling policies.

use std::error::Error;
use std::fmt;

/// An invalid workload specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// What is wrong.
    pub message: String,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid workload spec: {}", self.message)
    }
}

impl Error for SpecError {}

/// A tiled matrix-multiplication workload `C[m×n] = A[m×k] · B[k×n]`
/// (i8 inputs, i32 outputs), split into `tile_m × tile_k × tile_n` macro
/// operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MatmulSpec {
    /// Output rows.
    pub m: i64,
    /// Output columns.
    pub n: i64,
    /// Reduction depth.
    pub k: i64,
    /// Tile rows per invocation.
    pub tile_m: i64,
    /// Tile reduction depth per invocation.
    pub tile_k: i64,
    /// Tile columns per invocation.
    pub tile_n: i64,
    /// Apply ReLU to the output (only allowed when `tile_k == k`, since a
    /// partial accumulation must not be clamped).
    pub relu: bool,
}

impl MatmulSpec {
    /// Validates and builds a spec.
    ///
    /// # Errors
    ///
    /// Dimensions must be positive, tiles must divide the problem, and ReLU
    /// requires an untiled reduction.
    pub fn new(
        (m, n, k): (i64, i64, i64),
        (tile_m, tile_n, tile_k): (i64, i64, i64),
    ) -> Result<Self, SpecError> {
        let err = |message: &str| {
            Err(SpecError {
                message: message.to_string(),
            })
        };
        if m <= 0 || n <= 0 || k <= 0 || tile_m <= 0 || tile_n <= 0 || tile_k <= 0 {
            return err("all dimensions must be positive");
        }
        if m % tile_m != 0 || n % tile_n != 0 || k % tile_k != 0 {
            return err("tile sizes must divide the problem dimensions");
        }
        Ok(Self {
            m,
            n,
            k,
            tile_m,
            tile_n,
            tile_k,
            relu: false,
        })
    }

    /// Enables ReLU on the output.
    ///
    /// # Errors
    ///
    /// ReLU requires `tile_k == k`.
    pub fn with_relu(mut self) -> Result<Self, SpecError> {
        if self.tile_k != self.k {
            return Err(SpecError {
                message: "relu requires an untiled reduction (tile_k == k)".into(),
            });
        }
        self.relu = true;
        Ok(self)
    }

    /// The OpenGeMM evaluation shape (Section 6.2): `size`² matrices with
    /// 8-by-`size`-by-8 tiles.
    ///
    /// # Errors
    /// `size` must be a positive multiple of 8.
    pub fn opengemm_paper(size: i64) -> Result<Self, SpecError> {
        Self::new((size, size, size), (8, 8, size))
    }

    /// The Gemmini evaluation shape (Section 6.1): `size`² matrices, one
    /// coarse-grained `gemmini_loop_ws`-style invocation per 64-wide
    /// column-strip tile (64 × k × 64 — the weight-stationary hardware loop
    /// keeps the full reduction on-chip, so invocations grow quadratically
    /// with size, matching the paper's utilization curve).
    ///
    /// # Errors
    /// `size` must be positive and, above 64, a multiple of 64.
    pub fn gemmini_paper(size: i64) -> Result<Self, SpecError> {
        let tile = size.min(64);
        Self::new((size, size, size), (tile, tile, size))
    }

    /// Tile grid dimensions `(ti, tj, tk)`.
    pub fn tiles(&self) -> (i64, i64, i64) {
        (
            self.m / self.tile_m,
            self.n / self.tile_n,
            self.k / self.tile_k,
        )
    }

    /// Total number of accelerator invocations.
    pub fn invocations(&self) -> i64 {
        let (ti, tj, tk) = self.tiles();
        ti * tj * tk
    }

    /// Total arithmetic operations (2 per MAC).
    pub fn total_ops(&self) -> i64 {
        2 * self.m * self.n * self.k
    }

    /// `true` if the reduction dimension is tiled (partial accumulation).
    pub fn accumulates(&self) -> bool {
        self.tile_k != self.k
    }
}

/// Memory placement for one matmul: A, then B, then C, each page-aligned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatmulLayout {
    /// Base address of A (`m × k` i8 elements, row-major).
    pub a_addr: i64,
    /// Base address of B (`k × n` i8 elements, row-major).
    pub b_addr: i64,
    /// Base address of C (`m × n` i32 elements, row-major).
    pub c_addr: i64,
    /// First byte past the workload's memory.
    pub end: i64,
}

impl MatmulLayout {
    /// Lays the three matrices out starting at `base`.
    pub fn at(base: i64, spec: &MatmulSpec) -> Self {
        let align = |x: i64| (x + 0xFFF) & !0xFFF;
        let a_addr = align(base);
        let b_addr = align(a_addr + spec.m * spec.k);
        let c_addr = align(b_addr + spec.k * spec.n);
        let end = align(c_addr + 4 * spec.m * spec.n);
        Self {
            a_addr,
            b_addr,
            c_addr,
            end,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validates_divisibility() {
        assert!(MatmulSpec::new((64, 64, 64), (8, 8, 8)).is_ok());
        assert!(MatmulSpec::new((64, 64, 64), (7, 8, 8)).is_err());
        assert!(MatmulSpec::new((0, 64, 64), (8, 8, 8)).is_err());
        assert!(MatmulSpec::new((64, 64, 64), (8, 8, -8)).is_err());
    }

    #[test]
    fn relu_needs_untiled_reduction() {
        let s = MatmulSpec::new((64, 64, 64), (8, 8, 64)).unwrap();
        assert!(s.with_relu().is_ok());
        let s = MatmulSpec::new((64, 64, 64), (8, 8, 8)).unwrap();
        assert!(s.with_relu().is_err());
    }

    #[test]
    fn paper_shapes() {
        let og = MatmulSpec::opengemm_paper(128).unwrap();
        assert_eq!(og.tiles(), (16, 16, 1));
        assert_eq!(og.invocations(), 256);
        assert!(!og.accumulates());

        let small = MatmulSpec::gemmini_paper(32).unwrap();
        assert_eq!(small.invocations(), 1); // single invocation below 64
        let big = MatmulSpec::gemmini_paper(128).unwrap();
        assert_eq!(big.invocations(), 4); // (128/64)² column strips
        assert!(!big.accumulates()); // full-k strips need no accumulation
    }

    #[test]
    fn ops_count() {
        let s = MatmulSpec::opengemm_paper(64).unwrap();
        assert_eq!(s.total_ops(), 2 * 64 * 64 * 64);
    }

    #[test]
    fn layout_is_disjoint_and_aligned() {
        let s = MatmulSpec::opengemm_paper(64).unwrap();
        let l = MatmulLayout::at(0x1000, &s);
        assert!(l.a_addr % 0x1000 == 0);
        assert!(l.b_addr >= l.a_addr + 64 * 64);
        assert!(l.c_addr >= l.b_addr + 64 * 64);
        assert!(l.end >= l.c_addr + 4 * 64 * 64);
    }
}
