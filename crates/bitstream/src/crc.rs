//! CRC-32 (IEEE 802.3, reflected) over bitstream payloads.
//!
//! Also serves as the golden model for the algorithm bank's CRC-32
//! kernel. The host code is slicing-by-8: eight 256-entry tables,
//! generated at compile time by `const fn` from [`POLY`], absorb eight
//! bytes per step. The unit tests check it against the bitwise
//! definition on every length up to 2 KiB and every update split.

/// Reflected polynomial for CRC-32/ISO-HDLC.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0][b]` is the CRC register after shifting byte `b` through
/// eight bitwise steps; `TABLES[k][b]` is that byte followed by `k`
/// zero bytes, so eight lookups absorb eight bytes at once.
const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = crc_tables();

/// Computes CRC-32 (IEEE) of `data`.
///
/// # Examples
///
/// ```
/// use aaod_bitstream::crc::crc32;
///
/// assert_eq!(crc32(b"123456789"), 0xCBF43926); // standard check value
/// ```
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(data);
    crc.finish()
}

/// Incremental CRC-32 state.
///
/// # Examples
///
/// ```
/// use aaod_bitstream::crc::{crc32, Crc32};
///
/// let mut c = Crc32::new();
/// c.update(b"1234");
/// c.update(b"56789");
/// assert_eq!(c.finish(), crc32(b"123456789"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Fresh CRC state.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Absorbs bytes.
    pub fn update(&mut self, data: &[u8]) {
        let t = &TABLES;
        let mut crc = self.state;
        let mut chunks = data.chunks_exact(8);
        for chunk in &mut chunks {
            let lo = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
            let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in chunks.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// Final CRC value.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aaod_sim::SplitMix64;

    /// The bitwise definition: eight shift-and-conditional-XOR steps
    /// per byte, no tables.
    fn oracle_crc32(data: &[u8]) -> u32 {
        let mut state = 0xFFFF_FFFFu32;
        for &b in data {
            state ^= b as u32;
            for _ in 0..8 {
                let lsb = state & 1;
                state >>= 1;
                if lsb != 0 {
                    state ^= POLY;
                }
            }
        }
        !state
    }

    #[test]
    fn standard_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(oracle_crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..200u8).collect();
        for split in [0, 1, 99, 200] {
            let mut c = Crc32::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finish(), crc32(&data));
        }
    }

    #[test]
    fn detects_single_byte_change() {
        let a = crc32(b"hello world");
        let b = crc32(b"hello worle");
        assert_ne!(a, b);
    }

    /// Slicing-by-8 equals the bitwise oracle on every length from 0
    /// to 2048, so every chunk count and remainder is covered.
    #[test]
    fn sliced_matches_bitwise_oracle_on_every_length() {
        let mut data = vec![0u8; 2048];
        SplitMix64::new(0xC3C3_2002).fill(&mut data);
        for len in 0..=data.len() {
            assert_eq!(
                crc32(&data[..len]),
                oracle_crc32(&data[..len]),
                "length {len}"
            );
        }
    }

    /// Splitting `update` at any offset — including splits that leave
    /// a partial chunk on either side — gives the one-shot value.
    #[test]
    fn update_split_at_every_offset_matches_oracle() {
        let mut data = vec![0u8; 67];
        SplitMix64::new(67).fill(&mut data);
        let want = oracle_crc32(&data);
        for split in 0..=data.len() {
            let mut c = Crc32::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finish(), want, "split at {split}");
            for second in split..=data.len() {
                let mut c = Crc32::new();
                c.update(&data[..split]);
                c.update(&data[split..second]);
                c.update(&data[second..]);
                assert_eq!(c.finish(), want, "splits at {split}, {second}");
            }
        }
    }
}
