//! Flat byte-addressable memory shared by the host and the accelerator
//! (Figure 1: the accelerator reads and writes host memory directly).

use std::error::Error;
use std::fmt;

/// An out-of-bounds access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemError {
    /// The faulting byte address.
    pub addr: u64,
    /// The access size in bytes.
    pub size: usize,
    /// Memory capacity.
    pub capacity: usize,
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "memory access of {} bytes at {:#x} exceeds capacity {:#x}",
            self.size, self.addr, self.capacity
        )
    }
}

impl Error for MemError {}

/// A flat little-endian memory.
///
/// # Examples
///
/// ```
/// use accfg_sim::Memory;
///
/// let mut mem = Memory::new(1024);
/// mem.write_i32(0x40, -7)?;
/// assert_eq!(mem.read_i32(0x40)?, -7);
/// # Ok::<(), accfg_sim::MemError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Memory {
    bytes: Vec<u8>,
}

impl Memory {
    /// Creates a zero-initialized memory of `capacity` bytes.
    pub fn new(capacity: usize) -> Self {
        Self {
            bytes: vec![0; capacity],
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.bytes.len()
    }

    fn check(&self, addr: u64, size: usize) -> Result<usize, MemError> {
        let a = addr as usize;
        if a.checked_add(size)
            .is_some_and(|end| end <= self.bytes.len())
        {
            Ok(a)
        } else {
            Err(MemError {
                addr,
                size,
                capacity: self.bytes.len(),
            })
        }
    }

    /// Reads a signed byte.
    ///
    /// # Errors
    /// Fails on out-of-bounds access.
    pub fn read_i8(&self, addr: u64) -> Result<i8, MemError> {
        let a = self.check(addr, 1)?;
        Ok(self.bytes[a] as i8)
    }

    /// Writes a signed byte.
    ///
    /// # Errors
    /// Fails on out-of-bounds access.
    pub fn write_i8(&mut self, addr: u64, value: i8) -> Result<(), MemError> {
        let a = self.check(addr, 1)?;
        self.bytes[a] = value as u8;
        Ok(())
    }

    /// Reads a little-endian i32.
    ///
    /// # Errors
    /// Fails on out-of-bounds access.
    pub fn read_i32(&self, addr: u64) -> Result<i32, MemError> {
        let a = self.check(addr, 4)?;
        Ok(le_i32(&self.bytes[a..a + 4]))
    }

    /// Writes a little-endian i32.
    ///
    /// # Errors
    /// Fails on out-of-bounds access.
    pub fn write_i32(&mut self, addr: u64, value: i32) -> Result<(), MemError> {
        let a = self.check(addr, 4)?;
        self.bytes[a..a + 4].copy_from_slice(&value.to_le_bytes());
        Ok(())
    }

    /// Reads a little-endian i64.
    ///
    /// # Errors
    /// Fails on out-of-bounds access.
    pub fn read_i64(&self, addr: u64) -> Result<i64, MemError> {
        let a = self.check(addr, 8)?;
        Ok(i64::from_le_bytes(
            self.bytes[a..a + 8].try_into().expect("8 bytes"),
        ))
    }

    /// Writes a little-endian i64.
    ///
    /// # Errors
    /// Fails on out-of-bounds access.
    pub fn write_i64(&mut self, addr: u64, value: i64) -> Result<(), MemError> {
        let a = self.check(addr, 8)?;
        self.bytes[a..a + 8].copy_from_slice(&value.to_le_bytes());
        Ok(())
    }

    /// Borrows the `len` bytes starting at `addr` after one bounds check,
    /// so a loop over a region proven in bounds pays no per-element check.
    ///
    /// # Errors
    /// Fails if any byte of the region is out of bounds.
    pub fn bytes(&self, addr: u64, len: usize) -> Result<&[u8], MemError> {
        let a = self.check(addr, len)?;
        Ok(&self.bytes[a..a + len])
    }

    /// The mutable twin of [`Memory::bytes`].
    ///
    /// # Errors
    /// Fails if any byte of the region is out of bounds.
    pub fn bytes_mut(&mut self, addr: u64, len: usize) -> Result<&mut [u8], MemError> {
        let a = self.check(addr, len)?;
        Ok(&mut self.bytes[a..a + len])
    }

    /// Copies a slice of i8 values into memory starting at `addr`.
    ///
    /// # Errors
    /// Fails on out-of-bounds access.
    pub fn write_i8_slice(&mut self, addr: u64, values: &[i8]) -> Result<(), MemError> {
        let region = self.bytes_mut(addr, values.len())?;
        for (byte, &v) in region.iter_mut().zip(values) {
            *byte = v as u8;
        }
        Ok(())
    }

    /// Reads `count` i32 values starting at `addr`.
    ///
    /// # Errors
    /// Fails on out-of-bounds access, including a `count` whose byte
    /// length does not fit an address.
    pub fn read_i32_slice(&self, addr: u64, count: usize) -> Result<Vec<i32>, MemError> {
        // a saturated length exceeds every capacity, so it faults below
        let region = self.bytes(addr, count.saturating_mul(4))?;
        Ok(region.chunks_exact(4).map(le_i32).collect())
    }
}

/// Decodes one little-endian i32 from a 4-byte slice of a region view.
pub(crate) fn le_i32(word: &[u8]) -> i32 {
    i32::from_le_bytes(word.try_into().expect("4 bytes"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_all_widths() {
        let mut m = Memory::new(64);
        m.write_i8(0, -5).unwrap();
        m.write_i32(8, -123456).unwrap();
        m.write_i64(16, i64::MIN + 3).unwrap();
        assert_eq!(m.read_i8(0).unwrap(), -5);
        assert_eq!(m.read_i32(8).unwrap(), -123456);
        assert_eq!(m.read_i64(16).unwrap(), i64::MIN + 3);
    }

    #[test]
    fn little_endian_layout() {
        let mut m = Memory::new(8);
        m.write_i32(0, 0x0403_0201).unwrap();
        assert_eq!(m.read_i8(0).unwrap(), 1);
        assert_eq!(m.read_i8(3).unwrap(), 4);
    }

    #[test]
    fn bounds_are_checked() {
        let mut m = Memory::new(8);
        assert!(m.read_i32(5).is_err());
        assert!(m.write_i64(1, 0).is_err());
        assert!(m.read_i8(8).is_err());
        let e = m.read_i32(u64::MAX).unwrap_err();
        assert_eq!(e.size, 4);
    }

    #[test]
    fn slice_helpers() {
        let mut m = Memory::new(32);
        m.write_i8_slice(4, &[1, -2, 3]).unwrap();
        assert_eq!(m.read_i8(5).unwrap(), -2);
        m.write_i32(8, 7).unwrap();
        m.write_i32(12, 9).unwrap();
        assert_eq!(m.read_i32_slice(8, 2).unwrap(), vec![7, 9]);
    }

    #[test]
    fn region_views_are_checked_once_for_the_whole_region() {
        let mut m = Memory::new(16);
        m.bytes_mut(12, 4).unwrap().copy_from_slice(&[1, 2, 3, 4]);
        assert_eq!(m.bytes(13, 3).unwrap(), &[2, 3, 4]);
        assert_eq!(m.bytes(16, 0).unwrap(), &[] as &[u8]);
        // one byte past the end, a wrapping end, and the faulting region reported whole
        assert!(m.bytes_mut(13, 4).is_err());
        assert!(m.bytes(u64::MAX, 2).is_err());
        let e = m.bytes(8, 9).unwrap_err();
        assert_eq!((e.addr, e.size, e.capacity), (8, 9, 16));
    }

    #[test]
    fn slice_helpers_fault_without_partial_effects() {
        let mut m = Memory::new(8);
        assert!(m.write_i8_slice(6, &[1, 2, 3]).is_err());
        assert_eq!(m, Memory::new(8));
        assert!(m.read_i32_slice(4, 2).is_err());
        // a count whose byte length overflows is a fault, not an allocation
        assert!(m.read_i32_slice(4, usize::MAX).is_err());
    }
}
