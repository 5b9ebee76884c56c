//! CRC32 (IEEE 802.3 polynomial), hand-rolled so the durability layer
//! stays dependency-free like the rest of the workspace.
//!
//! Slicing-by-8: eight 256-entry tables, built at compile time by a
//! `const fn`, fold eight input bytes per step. Table `k` holds the CRC
//! register after one byte followed by `k` zero bytes, so one step's
//! eight lookups XOR together to the same value the bitwise definition
//! reaches after eight bytes. The output is bit-for-bit the bitwise
//! CRC's; the tests pin it against a bitwise reference.

/// Reflected CRC32 polynomial (IEEE), as used by zlib, PNG, and
/// ethernet — torture tests pin known vectors below.
const POLY: u32 = 0xEDB8_8320;

/// One bit step of the reflected CRC register.
const fn step(crc: u32) -> u32 {
    (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg())
}

/// `TABLES[k][n]`: the register after byte `n` then `k` zero bytes,
/// i.e. `8 * (k + 1)` bit steps from `n`. Rows and cells are walked
/// with `split_first_mut`, so the builder needs no index expressions.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut rows: &mut [[u32; 256]] = &mut tables;
    let mut steps = 8;
    while let Some((row, rest)) = rows.split_first_mut() {
        let mut cells: &mut [u32] = row;
        let mut n = 0u32;
        while let Some((cell, more)) = cells.split_first_mut() {
            let mut crc = n;
            let mut s = 0;
            while s < steps {
                crc = step(crc);
                s += 1;
            }
            *cell = crc;
            cells = more;
            n += 1;
        }
        rows = rest;
        steps += 8;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// Table lookup by byte; every `u8` is in range, so the fallback is
/// dead and the compiler drops the bounds check.
#[inline(always)]
fn at(table: &[u32; 256], byte: u8) -> u32 {
    table.get(usize::from(byte)).copied().unwrap_or(0)
}

/// Streaming CRC32 state for multi-chunk inputs.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    /// A fresh accumulator.
    pub fn new() -> Self {
        Crc32 { state: !0 }
    }

    /// Fold `bytes` into the running checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let [t0, t1, t2, t3, t4, t5, t6, t7] = &TABLES;
        let mut crc = self.state;
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            if let [b0, b1, b2, b3, b4, b5, b6, b7] = *word {
                let [c0, c1, c2, c3] = (crc ^ u32::from_le_bytes([b0, b1, b2, b3])).to_le_bytes();
                crc = at(t7, c0)
                    ^ at(t6, c1)
                    ^ at(t5, c2)
                    ^ at(t4, c3)
                    ^ at(t3, b4)
                    ^ at(t2, b5)
                    ^ at(t1, b6)
                    ^ at(t0, b7);
            }
        }
        for &byte in words.remainder() {
            let [low, ..] = crc.to_le_bytes();
            crc = (crc >> 8) ^ at(t0, low ^ byte);
        }
        self.state = crc;
    }

    /// The checksum of everything folded in so far.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// One-shot CRC32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bitwise definition the tables replace: the reference the
    /// table-driven CRC must match byte for byte.
    fn bitwise_crc32(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = step(crc);
            }
        }
        !crc
    }

    /// Deterministic pseudo-random bytes (SplitMix64).
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)).to_le_bytes()[0]
            })
            .collect()
    }

    #[test]
    fn matches_known_vectors() {
        // Standard IEEE CRC32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn streaming_equals_one_shot() {
        let mut crc = Crc32::new();
        crc.update(b"The quick brown fox ");
        crc.update(b"jumps over the lazy dog");
        assert_eq!(crc.finish(), 0x414F_A339);
    }

    #[test]
    fn tables_match_the_bitwise_reference() {
        let data = noise(64);
        for len in 0..=data.len() {
            let prefix = &data[..len];
            assert_eq!(crc32(prefix), bitwise_crc32(prefix), "length {len}");
        }
        // Every pair of split points over a buffer longer than a few
        // words: the streaming state carries across unaligned chunks.
        let data = noise(41);
        let want = bitwise_crc32(&data);
        for i in 0..=data.len() {
            for j in i..=data.len() {
                let mut crc = Crc32::new();
                crc.update(&data[..i]);
                crc.update(&data[i..j]);
                crc.update(&data[j..]);
                assert_eq!(crc.finish(), want, "splits at {i} and {j}");
            }
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let base = crc32(b"wal record payload");
        let mut corrupted = b"wal record payload".to_vec();
        for i in 0..corrupted.len() * 8 {
            if let Some(byte) = corrupted.get_mut(i / 8) {
                *byte ^= 1 << (i % 8);
            }
            assert_ne!(crc32(&corrupted), base, "bit {i} flip went undetected");
            if let Some(byte) = corrupted.get_mut(i / 8) {
                *byte ^= 1 << (i % 8);
            }
        }
    }
}
