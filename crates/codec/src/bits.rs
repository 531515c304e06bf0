//! Bit-level I/O for the entropy coder.

/// Accumulates bits MSB-first into a byte buffer.
///
/// Works on a 64-bit word: each write shifts its bits in at once and
/// every 32 pending bits go out as four bytes. The bytes match the
/// per-bit [`BitWriterRef`].
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Pending output in the low `filled` bits (higher bits are stale).
    acc: u64,
    /// Pending bit count, below 32 between calls.
    filled: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> BitWriter {
        BitWriter::default()
    }

    /// Writes the low `count` bits of `value`, MSB first.
    ///
    /// # Panics
    ///
    /// Panics if `count > 32`.
    #[inline]
    pub fn write_bits(&mut self, value: u32, count: u8) {
        assert!(count <= 32, "cannot write more than 32 bits at once");
        let count = u32::from(count);
        let low = u64::from(value) & ((1u64 << count) - 1);
        self.acc = (self.acc << count) | low;
        self.filled += count;
        if self.filled >= 32 {
            self.filled -= 32;
            let word = (self.acc >> self.filled) as u32;
            self.bytes.extend_from_slice(&word.to_be_bytes());
        }
    }

    /// Number of bits written so far.
    #[must_use]
    pub fn bit_len(&self) -> usize {
        self.bytes.len() * 8 + self.filled as usize
    }

    /// Flushes any partial byte (zero-padded) and returns the buffer.
    #[must_use]
    pub fn finish(mut self) -> Vec<u8> {
        while self.filled >= 8 {
            self.filled -= 8;
            self.bytes.push((self.acc >> self.filled) as u8);
        }
        if self.filled > 0 {
            self.bytes.push((self.acc << (8 - self.filled)) as u8);
        }
        self.bytes
    }
}

/// Reads bits MSB-first from a byte slice.
///
/// Each read loads the big-endian 64-bit word at the current byte and
/// shifts the requested bits out of it. The values match the per-bit
/// [`BitReaderRef`].
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    pos_bits: usize,
}

/// Error returned when a [`BitReader`] runs out of input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitstreamExhausted;

impl std::fmt::Display for BitstreamExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("bitstream exhausted")
    }
}

impl std::error::Error for BitstreamExhausted {}

impl<'a> BitReader<'a> {
    /// Creates a reader over `bytes`.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> BitReader<'a> {
        BitReader { bytes, pos_bits: 0 }
    }

    /// Reads `count` bits, MSB first.
    ///
    /// # Errors
    ///
    /// Returns [`BitstreamExhausted`] if fewer than `count` bits remain.
    ///
    /// # Panics
    ///
    /// Panics if `count > 32`.
    #[inline]
    pub fn read_bits(&mut self, count: u8) -> Result<u32, BitstreamExhausted> {
        assert!(count <= 32, "cannot read more than 32 bits at once");
        if usize::from(count) > self.remaining_bits() {
            return Err(BitstreamExhausted);
        }
        let word = self.peek_word();
        self.pos_bits += usize::from(count);
        Ok(word.checked_shr(64 - u32::from(count)).unwrap_or(0) as u32)
    }

    /// At least the next 57 bits, MSB-aligned, zero past the end.
    #[inline]
    fn peek_word(&self) -> u64 {
        let byte = self.pos_bits / 8;
        let word = match self.bytes.get(byte..byte + 8) {
            Some(eight) => u64::from_be_bytes(eight.try_into().expect("eight bytes")),
            None => {
                let mut buf = [0u8; 8];
                let tail = &self.bytes[byte..];
                buf[..tail.len()].copy_from_slice(tail);
                u64::from_be_bytes(buf)
            }
        };
        word << (self.pos_bits % 8)
    }

    /// Bits consumed so far.
    #[must_use]
    pub fn bits_read(&self) -> usize {
        self.pos_bits
    }

    /// Bits not yet consumed.
    #[must_use]
    pub fn remaining_bits(&self) -> usize {
        self.bytes.len() * 8 - self.pos_bits
    }
}

/// The bit-by-bit writer [`BitWriter`] is tested (and benchmarked)
/// against.
#[derive(Debug, Default, Clone)]
pub struct BitWriterRef {
    bytes: Vec<u8>,
    current: u8,
    filled: u8,
}

impl BitWriterRef {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> BitWriterRef {
        BitWriterRef::default()
    }

    /// Writes the low `count` bits of `value`, MSB first, one at a time.
    ///
    /// # Panics
    ///
    /// Panics if `count > 32`.
    pub fn write_bits(&mut self, value: u32, count: u8) {
        assert!(count <= 32, "cannot write more than 32 bits at once");
        for i in (0..count).rev() {
            let bit = (value >> i) & 1;
            self.current = (self.current << 1) | bit as u8;
            self.filled += 1;
            if self.filled == 8 {
                self.bytes.push(self.current);
                self.current = 0;
                self.filled = 0;
            }
        }
    }

    /// Number of bits written so far.
    #[must_use]
    pub fn bit_len(&self) -> usize {
        self.bytes.len() * 8 + self.filled as usize
    }

    /// Flushes any partial byte (zero-padded) and returns the buffer.
    #[must_use]
    pub fn finish(mut self) -> Vec<u8> {
        if self.filled > 0 {
            self.current <<= 8 - self.filled;
            self.bytes.push(self.current);
        }
        self.bytes
    }
}

/// The bit-by-bit reader [`BitReader`] is tested (and benchmarked)
/// against.
#[derive(Debug, Clone)]
pub struct BitReaderRef<'a> {
    bytes: &'a [u8],
    pos_bits: usize,
}

impl<'a> BitReaderRef<'a> {
    /// Creates a reader over `bytes`.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> BitReaderRef<'a> {
        BitReaderRef { bytes, pos_bits: 0 }
    }

    /// Reads `count` bits, MSB first, one at a time.
    ///
    /// # Errors
    ///
    /// Returns [`BitstreamExhausted`] if fewer than `count` bits remain.
    ///
    /// # Panics
    ///
    /// Panics if `count > 32`.
    pub fn read_bits(&mut self, count: u8) -> Result<u32, BitstreamExhausted> {
        assert!(count <= 32, "cannot read more than 32 bits at once");
        if self.pos_bits + count as usize > self.bytes.len() * 8 {
            return Err(BitstreamExhausted);
        }
        let mut value = 0u32;
        for _ in 0..count {
            let byte = self.bytes[self.pos_bits / 8];
            let bit = (byte >> (7 - self.pos_bits % 8)) & 1;
            value = (value << 1) | u32::from(bit);
            self.pos_bits += 1;
        }
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_various_widths() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0xFFFF, 16);
        w.write_bits(0, 1);
        w.write_bits(0b1101_0110, 8);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert_eq!(r.read_bits(16).unwrap(), 0xFFFF);
        assert_eq!(r.read_bits(1).unwrap(), 0);
        assert_eq!(r.read_bits(8).unwrap(), 0b1101_0110);
    }

    #[test]
    fn exhaustion_is_an_error() {
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        // The flush pads to 8 bits; reading 9 must fail.
        assert!(r.read_bits(8).is_ok());
        assert_eq!(r.read_bits(1), Err(BitstreamExhausted));
    }

    #[test]
    fn bit_len_counts_partial_bytes() {
        let mut w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        w.write_bits(0b11, 2);
        assert_eq!(w.bit_len(), 2);
        w.write_bits(0, 7);
        assert_eq!(w.bit_len(), 9);
    }

    #[test]
    fn zero_width_writes_are_noops() {
        let mut w = BitWriter::new();
        w.write_bits(123, 0);
        assert_eq!(w.bit_len(), 0);
        assert!(w.finish().is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn arbitrary_sequences_round_trip(values in prop::collection::vec((0u32..=u32::MAX, 1u8..=32), 0..200)) {
            let mut w = BitWriter::new();
            for &(v, c) in &values {
                let masked = if c == 32 { v } else { v & ((1 << c) - 1) };
                w.write_bits(masked, c);
            }
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            for &(v, c) in &values {
                let masked = if c == 32 { v } else { v & ((1 << c) - 1) };
                prop_assert_eq!(r.read_bits(c).unwrap(), masked);
            }
        }

        #[test]
        fn word_io_matches_the_per_bit_reference(
            values in prop::collection::vec((0u32..=u32::MAX, 0u8..=32), 0..300),
            reads in prop::collection::vec(0u8..=32, 0..300),
        ) {
            // Unmasked values: both writers must ignore bits above `count`.
            let mut fast = BitWriter::new();
            let mut slow = BitWriterRef::new();
            for &(v, c) in &values {
                fast.write_bits(v, c);
                slow.write_bits(v, c);
                prop_assert_eq!(fast.bit_len(), slow.bit_len());
            }
            let bytes = fast.finish();
            prop_assert_eq!(&bytes, &slow.finish());
            // Replay the write widths, then arbitrary widths past the end.
            let mut r = BitReader::new(&bytes);
            let mut r_ref = BitReaderRef::new(&bytes);
            for c in values.iter().map(|&(_, c)| c).chain(reads.iter().copied()) {
                prop_assert_eq!(r.read_bits(c), r_ref.read_bits(c));
                prop_assert_eq!(r.bits_read(), r_ref.pos_bits);
            }
        }
    }
}
