//! Minimal byte codec shared by the typed layers above the store.
//!
//! Every integer is a canonical unsigned LEB128 varint — seven bits a
//! byte, low group first, the high bit set on every byte but the last —
//! and a signed one is zigzagged first (`0, -1, 1, -2, …` → `0, 1, 2, 3,
//! …`), so small magnitudes of either sign take one byte. Strings are a
//! varint length and their UTF-8 bytes; tags and flags are single bytes.
//! Canonical means one encoding per value: the reader refuses a varint
//! with a redundant zero group, one wider than 64 bits and a truncated
//! one, so the same logical value always encodes to the same bytes and
//! every accepted byte string re-encodes to itself — the property the
//! determinism contract (byte-identical store files for identical runs)
//! rests on. There is no schema evolution here on purpose: the store is
//! a cache of recomputable state, so an incompatible format bump changes
//! the magic. A file of another format is refused with
//! [`StoreError::BadMagic`], and deleting it starts cold.

use crate::error::StoreError;

/// What an encoder writes into: a [`ByteWriter`] keeps the bytes, a
/// [`ByteCounter`] only counts them. An encoder written once over
/// `impl Encoder` both states the exact length of what it writes and
/// writes it, so no length formula sits beside it to drift.
pub trait Encoder {
    /// Appends one byte.
    fn put_u8(&mut self, v: u8);

    /// Appends raw bytes.
    fn put_bytes(&mut self, v: &[u8]);

    /// Appends an unsigned integer as a canonical varint (1–10 bytes).
    fn put_varint(&mut self, v: u64);

    /// Appends a `bool` as one byte (0 or 1).
    fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends a signed integer zigzagged into a canonical varint.
    #[inline]
    fn put_zigzag(&mut self, v: i64) {
        self.put_varint(((v << 1) ^ (v >> 63)) as u64);
    }

    /// Appends a varint-length-prefixed UTF-8 string.
    fn put_str(&mut self, v: &str) {
        self.put_varint(v.len() as u64);
        self.put_bytes(v.as_bytes());
    }
}

/// Append-only byte sink: single bytes and canonical varints.
#[derive(Debug, Default, Clone)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty writer with room for `bytes` bytes: a caller that knows
    /// the length of what it writes — a [`ByteCounter`] over the same
    /// encoder states it — allocates once.
    pub fn with_capacity(bytes: usize) -> Self {
        Self {
            buf: Vec::with_capacity(bytes),
        }
    }

    /// Consumes the writer, yielding the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Drops the bytes written so far and keeps their room: one writer
    /// encodes value after value into one buffer.
    pub fn clear(&mut self) {
        self.buf.clear();
    }
}

impl Encoder for ByteWriter {
    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn put_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    #[inline]
    fn put_varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }
}

/// An [`Encoder`] that writes nothing and counts the bytes a
/// [`ByteWriter`] would hold after the same calls.
#[derive(Debug, Default, Clone, Copy)]
pub struct ByteCounter {
    bytes: usize,
}

impl ByteCounter {
    /// A counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bytes counted so far.
    pub fn bytes(&self) -> usize {
        self.bytes
    }
}

impl Encoder for ByteCounter {
    #[inline]
    fn put_u8(&mut self, _: u8) {
        self.bytes += 1;
    }

    fn put_bytes(&mut self, v: &[u8]) {
        self.bytes += v.len();
    }

    #[inline]
    fn put_varint(&mut self, v: u64) {
        // one byte per started group of seven bits; most values (register
        // indices, tags, small immediates) are one byte
        self.bytes += if v < 0x80 {
            1
        } else {
            (64 - v.leading_zeros() as usize).div_ceil(7)
        };
    }
}

/// Cursor over encoded bytes; every read is bounds-checked and yields
/// [`StoreError::Codec`] on underrun or malformed data.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails unless the reader consumed the whole buffer — trailing bytes
    /// mean the payload was written by a different codec.
    pub fn expect_exhausted(&self, what: &str) -> Result<(), StoreError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(StoreError::codec(format!(
                "{what}: {} trailing bytes",
                self.remaining()
            )))
        }
    }

    #[cold]
    fn underrun(&self, n: usize) -> StoreError {
        StoreError::codec(format!("need {n} bytes, {} remain", self.remaining()))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        if self.remaining() < n {
            return Err(self.underrun(n));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, StoreError> {
        let byte = *self.buf.get(self.pos).ok_or_else(|| self.underrun(1))?;
        self.pos += 1;
        Ok(byte)
    }

    /// Reads a `bool`; any byte other than 0 or 1 is corrupt.
    pub fn bool(&mut self) -> Result<bool, StoreError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(StoreError::codec(format!("invalid bool byte {other}"))),
        }
    }

    /// Reads a canonical varint. A truncated one, one whose last group is
    /// a redundant zero (an overlong form of a shorter encoding) and one
    /// carrying bits past the 64th are refused.
    #[inline]
    pub fn varint(&mut self) -> Result<u64, StoreError> {
        match self.buf.get(self.pos) {
            Some(&byte) if byte < 0x80 => {
                self.pos += 1;
                Ok(u64::from(byte))
            }
            _ => self.long_varint(),
        }
    }

    fn long_varint(&mut self) -> Result<u64, StoreError> {
        let mut value = 0;
        let mut shift = 0;
        loop {
            let byte = self.u8()?;
            // the tenth group holds bit 63 alone, and is the last
            if shift == 63 && byte > 1 {
                return Err(StoreError::codec("varint wider than 64 bits"));
            }
            value |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                if byte == 0 && shift > 0 {
                    return Err(StoreError::codec("varint is not in its shortest form"));
                }
                return Ok(value);
            }
            shift += 7;
        }
    }

    /// Reads a canonical varint that must fit in `T` (a register index, a
    /// count): a wider value could not have been written from a `T`.
    #[inline]
    pub fn varint_to<T: TryFrom<u64>>(&mut self) -> Result<T, StoreError> {
        let value = self.varint()?;
        T::try_from(value).map_err(|_| too_wide(value, std::any::type_name::<T>()))
    }

    /// Reads a zigzagged signed varint.
    #[inline]
    pub fn zigzag(&mut self) -> Result<i64, StoreError> {
        let v = self.varint()?;
        Ok((v >> 1) as i64 ^ -((v & 1) as i64))
    }

    /// Reads a varint-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, StoreError> {
        let len = self.varint_to::<usize>()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| StoreError::codec("string payload is not UTF-8"))
    }
}

#[cold]
fn too_wide(value: u64, ty: &str) -> StoreError {
    StoreError::codec(format!("varint {value} exceeds {ty}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn varint_bytes(v: u64) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_varint(v);
        w.finish()
    }

    fn codec_detail(result: Result<impl std::fmt::Debug, StoreError>) -> String {
        match result {
            Err(StoreError::Codec { detail }) => detail,
            other => panic!("expected a codec error, got {other:?}"),
        }
    }

    #[test]
    fn round_trips_primitives() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_varint(0xDEAD_BEEF);
        w.put_varint(u64::MAX - 1);
        w.put_zigzag(-42);
        w.put_zigzag(i64::MIN);
        w.put_zigzag(i64::MAX);
        w.put_bool(true);
        w.put_varint(123);
        w.put_str("gemmini");
        let bytes = w.finish();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.varint_to::<u32>().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.varint().unwrap(), u64::MAX - 1);
        assert_eq!(r.zigzag().unwrap(), -42);
        assert_eq!(r.zigzag().unwrap(), i64::MIN);
        assert_eq!(r.zigzag().unwrap(), i64::MAX);
        assert!(r.bool().unwrap());
        assert_eq!(r.varint_to::<usize>().unwrap(), 123);
        assert_eq!(r.str().unwrap(), "gemmini");
        assert!(r.expect_exhausted("primitives").is_ok());
    }

    #[test]
    fn a_counter_counts_what_the_writer_writes() {
        let mut values: Vec<u64> = (0..64)
            .flat_map(|bit| [1u64 << bit, (1 << bit) - 1])
            .collect();
        values.extend([u64::MAX, 0x7f, 0x80, 0x3fff, 0x4000]);
        let counted = |put: &dyn Fn(&mut dyn Encoder)| {
            let (mut w, mut n) = (ByteWriter::new(), ByteCounter::new());
            put(&mut w);
            put(&mut n);
            (w.finish().len(), n.bytes())
        };
        for v in values {
            let (written, counted_bytes) = counted(&|w| w.put_varint(v));
            assert_eq!(counted_bytes, written, "varint {v}");
            for signed in [v as i64, (v as i64).wrapping_neg()] {
                let (written, counted_bytes) = counted(&|w| w.put_zigzag(signed));
                assert_eq!(counted_bytes, written, "zigzag {signed}");
            }
        }
        for text in ["", "gemmini", &"x".repeat(200)] {
            let (written, counted_bytes) = counted(&|w| {
                w.put_str(text);
                w.put_bool(true);
                w.put_u8(9);
            });
            assert_eq!(counted_bytes, written, "{text:?}");
        }
    }

    #[test]
    fn varints_take_seven_bits_a_byte_up_to_ten_bytes() {
        for (value, bytes) in [
            (0, &[0x00][..]),
            (1, &[0x01]),
            (0x7F, &[0x7F]),
            (0x80, &[0x80, 0x01]),
            (300, &[0xAC, 0x02]),
            (0x3FFF, &[0xFF, 0x7F]),
            (0x4000, &[0x80, 0x80, 0x01]),
            (
                1 << 63,
                &[0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01],
            ),
            (
                u64::MAX,
                &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01],
            ),
        ] {
            assert_eq!(varint_bytes(value), bytes, "{value:#x}");
            let mut r = ByteReader::new(bytes);
            assert_eq!(r.varint().unwrap(), value);
            assert!(r.expect_exhausted("varint").is_ok());
        }
        // zigzag: small magnitudes of either sign are one byte
        for (value, zigzagged) in [(0, 0), (-1, 1), (1, 2), (-2, 3), (-64, 127), (64, 128)] {
            let mut w = ByteWriter::new();
            w.put_zigzag(value);
            assert_eq!(w.finish(), varint_bytes(zigzagged), "{value}");
        }
        let mut w = ByteWriter::new();
        w.put_zigzag(i64::MIN);
        assert_eq!(w.finish(), varint_bytes(u64::MAX));
    }

    #[test]
    fn overlong_varints_are_codec_errors() {
        // a redundant zero group after each shorter encoding, up to the
        // ten-byte form of zero
        for value in [0u64, 1, 0x7F, 300, u64::MAX >> 1] {
            let mut bytes = varint_bytes(value);
            let last = bytes.len() - 1;
            bytes[last] |= 0x80;
            bytes.push(0x00);
            let detail = codec_detail(ByteReader::new(&bytes).varint());
            assert!(detail.contains("shortest form"), "{value:#x}: {detail}");
        }
        let mut zero = vec![0x80; 9];
        zero.push(0x00);
        assert!(codec_detail(ByteReader::new(&zero).varint()).contains("shortest form"));
    }

    #[test]
    fn varints_past_64_bits_are_codec_errors() {
        // bit 64 set in the tenth group, and an eleventh group
        let mut wide = vec![0xFF; 9];
        wide.push(0x02);
        let mut eleven = vec![0xFF; 10];
        eleven.push(0x01);
        let mut continued = vec![0x80; 9];
        continued.push(0x81);
        for bytes in [wide, eleven, continued] {
            let detail = codec_detail(ByteReader::new(&bytes).varint());
            assert!(detail.contains("wider than 64 bits"), "{bytes:?}: {detail}");
        }
        // and a value the target type cannot hold
        let bytes = varint_bytes(u64::from(u32::MAX) + 1);
        assert!(codec_detail(ByteReader::new(&bytes).varint_to::<u32>()).contains("exceeds u32"));
    }

    #[test]
    fn truncated_varints_are_codec_errors() {
        for value in [0x80, 300, u64::MAX] {
            let bytes = varint_bytes(value);
            for cut in 0..bytes.len() {
                let detail = codec_detail(ByteReader::new(&bytes[..cut]).varint());
                assert!(
                    detail.contains("remain"),
                    "{value:#x} cut at {cut}: {detail}"
                );
            }
        }
    }

    #[test]
    fn underrun_and_bad_bool_are_codec_errors() {
        let mut r = ByteReader::new(&[]);
        assert!(r.u8().is_err());
        let mut r = ByteReader::new(&[9]);
        assert!(r.bool().is_err());
        let r = ByteReader::new(&[0]);
        assert!(r.expect_exhausted("x").is_err());
    }

    #[test]
    fn string_length_is_bounds_checked() {
        // claims 100 bytes, provides none; claims more than a usize holds
        for len in [100, u64::MAX] {
            assert!(ByteReader::new(&varint_bytes(len)).str().is_err());
        }
    }
}
