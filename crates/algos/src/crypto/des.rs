//! DES and Triple-DES (EDE) kernels.
//!
//! The paper's reference \[1\] is an "algorithm agile co-processor"
//! for DES-era ciphers, and reference \[2\] an IPSec crypto engine — in
//! 2005, ESP tunnels ran 3DES far more often than AES. 3DES is also
//! the bank's best offload case: on the *modelled* 2005 software host
//! ([`Kernel::software_cycles`]) 3DES is extremely slow
//! (~150 cycles/byte) while a pipelined FPGA core streams a block per
//! cycle. That modelled cost is independent of how fast this Rust code
//! runs.
//!
//! The host code is table-driven, because behavioural jobs run
//! [`Kernel::execute`] on the serving hot path. Each request schedules
//! its keys once; a round is eight S-box+P lookups (`SP`), IP and FP
//! are eight byte-table lookups each, and a 3DES block runs IP once,
//! 48 rounds and FP once, since each stage's FP cancels the next
//! stage's IP. Every derived table is generated at compile time by
//! `const fn` from the FIPS 46-3 tables below, which stay the single
//! source of truth.

use crate::filler::behavioral_image;
use crate::ids;
use crate::kernel::{AlgoError, Kernel};
use aaod_fabric::{DeviceGeometry, FunctionImage};

/// Initial permutation (bit numbers are 1-based positions of the
/// input bit placed at each output position, per FIPS 46-3).
const IP: [u8; 64] = [
    58, 50, 42, 34, 26, 18, 10, 2, 60, 52, 44, 36, 28, 20, 12, 4, 62, 54, 46, 38, 30, 22, 14, 6,
    64, 56, 48, 40, 32, 24, 16, 8, 57, 49, 41, 33, 25, 17, 9, 1, 59, 51, 43, 35, 27, 19, 11, 3, 61,
    53, 45, 37, 29, 21, 13, 5, 63, 55, 47, 39, 31, 23, 15, 7,
];

/// Final permutation (inverse of IP).
const FP: [u8; 64] = [
    40, 8, 48, 16, 56, 24, 64, 32, 39, 7, 47, 15, 55, 23, 63, 31, 38, 6, 46, 14, 54, 22, 62, 30,
    37, 5, 45, 13, 53, 21, 61, 29, 36, 4, 44, 12, 52, 20, 60, 28, 35, 3, 43, 11, 51, 19, 59, 27,
    34, 2, 42, 10, 50, 18, 58, 26, 33, 1, 41, 9, 49, 17, 57, 25,
];

/// Expansion of the 32-bit half to 48 bits.
const E: [u8; 48] = [
    32, 1, 2, 3, 4, 5, 4, 5, 6, 7, 8, 9, 8, 9, 10, 11, 12, 13, 12, 13, 14, 15, 16, 17, 16, 17, 18,
    19, 20, 21, 20, 21, 22, 23, 24, 25, 24, 25, 26, 27, 28, 29, 28, 29, 30, 31, 32, 1,
];

/// P permutation after the S-boxes.
const P: [u8; 32] = [
    16, 7, 20, 21, 29, 12, 28, 17, 1, 15, 23, 26, 5, 18, 31, 10, 2, 8, 24, 14, 32, 27, 3, 9, 19,
    13, 30, 6, 22, 11, 4, 25,
];

/// Key schedule permuted choice 1 (56 bits from the 64-bit key).
const PC1: [u8; 56] = [
    57, 49, 41, 33, 25, 17, 9, 1, 58, 50, 42, 34, 26, 18, 10, 2, 59, 51, 43, 35, 27, 19, 11, 3, 60,
    52, 44, 36, 63, 55, 47, 39, 31, 23, 15, 7, 62, 54, 46, 38, 30, 22, 14, 6, 61, 53, 45, 37, 29,
    21, 13, 5, 28, 20, 12, 4,
];

/// Key schedule permuted choice 2 (48 bits per round key).
const PC2: [u8; 48] = [
    14, 17, 11, 24, 1, 5, 3, 28, 15, 6, 21, 10, 23, 19, 12, 4, 26, 8, 16, 7, 27, 20, 13, 2, 41, 52,
    31, 37, 47, 55, 30, 40, 51, 45, 33, 48, 44, 49, 39, 56, 34, 53, 46, 42, 50, 36, 29, 32,
];

/// Left-shift counts per round.
const SHIFTS: [u8; 16] = [1, 1, 2, 2, 2, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 1];

/// The eight S-boxes.
const SBOXES: [[u8; 64]; 8] = [
    [
        14, 4, 13, 1, 2, 15, 11, 8, 3, 10, 6, 12, 5, 9, 0, 7, 0, 15, 7, 4, 14, 2, 13, 1, 10, 6, 12,
        11, 9, 5, 3, 8, 4, 1, 14, 8, 13, 6, 2, 11, 15, 12, 9, 7, 3, 10, 5, 0, 15, 12, 8, 2, 4, 9,
        1, 7, 5, 11, 3, 14, 10, 0, 6, 13,
    ],
    [
        15, 1, 8, 14, 6, 11, 3, 4, 9, 7, 2, 13, 12, 0, 5, 10, 3, 13, 4, 7, 15, 2, 8, 14, 12, 0, 1,
        10, 6, 9, 11, 5, 0, 14, 7, 11, 10, 4, 13, 1, 5, 8, 12, 6, 9, 3, 2, 15, 13, 8, 10, 1, 3, 15,
        4, 2, 11, 6, 7, 12, 0, 5, 14, 9,
    ],
    [
        10, 0, 9, 14, 6, 3, 15, 5, 1, 13, 12, 7, 11, 4, 2, 8, 13, 7, 0, 9, 3, 4, 6, 10, 2, 8, 5,
        14, 12, 11, 15, 1, 13, 6, 4, 9, 8, 15, 3, 0, 11, 1, 2, 12, 5, 10, 14, 7, 1, 10, 13, 0, 6,
        9, 8, 7, 4, 15, 14, 3, 11, 5, 2, 12,
    ],
    [
        7, 13, 14, 3, 0, 6, 9, 10, 1, 2, 8, 5, 11, 12, 4, 15, 13, 8, 11, 5, 6, 15, 0, 3, 4, 7, 2,
        12, 1, 10, 14, 9, 10, 6, 9, 0, 12, 11, 7, 13, 15, 1, 3, 14, 5, 2, 8, 4, 3, 15, 0, 6, 10, 1,
        13, 8, 9, 4, 5, 11, 12, 7, 2, 14,
    ],
    [
        2, 12, 4, 1, 7, 10, 11, 6, 8, 5, 3, 15, 13, 0, 14, 9, 14, 11, 2, 12, 4, 7, 13, 1, 5, 0, 15,
        10, 3, 9, 8, 6, 4, 2, 1, 11, 10, 13, 7, 8, 15, 9, 12, 5, 6, 3, 0, 14, 11, 8, 12, 7, 1, 14,
        2, 13, 6, 15, 0, 9, 10, 4, 5, 3,
    ],
    [
        12, 1, 10, 15, 9, 2, 6, 8, 0, 13, 3, 4, 14, 7, 5, 11, 10, 15, 4, 2, 7, 12, 9, 5, 6, 1, 13,
        14, 0, 11, 3, 8, 9, 14, 15, 5, 2, 8, 12, 3, 7, 0, 4, 10, 1, 13, 11, 6, 4, 3, 2, 12, 9, 5,
        15, 10, 11, 14, 1, 7, 6, 0, 8, 13,
    ],
    [
        4, 11, 2, 14, 15, 0, 8, 13, 3, 12, 9, 7, 5, 10, 6, 1, 13, 0, 11, 7, 4, 9, 1, 10, 14, 3, 5,
        12, 2, 15, 8, 6, 1, 4, 11, 13, 12, 3, 7, 14, 10, 15, 6, 8, 0, 5, 9, 2, 6, 11, 13, 8, 1, 4,
        10, 7, 9, 5, 0, 15, 14, 2, 3, 12,
    ],
    [
        13, 2, 8, 4, 6, 15, 11, 1, 10, 9, 3, 14, 5, 0, 12, 7, 1, 15, 13, 8, 10, 3, 7, 4, 12, 5, 6,
        11, 0, 14, 9, 2, 7, 11, 4, 1, 9, 12, 14, 2, 0, 6, 10, 13, 15, 3, 5, 8, 2, 1, 14, 7, 4, 10,
        8, 13, 15, 12, 9, 0, 3, 5, 6, 11,
    ],
];

/// Applies a 1-based bit permutation: output bit `i` (MSB-first) is
/// input bit `table[i]`.
const fn permute(input: u64, input_bits: u32, table: &[u8]) -> u64 {
    let mut out = 0u64;
    let mut i = 0;
    while i < table.len() {
        out = (out << 1) | ((input >> (input_bits - table[i] as u32)) & 1);
        i += 1;
    }
    out
}

/// Eight 256-entry tables for a 64-bit permutation: the permuted block
/// is the OR of `tables[j][byte j]` over the eight big-endian bytes.
const fn byte_tables(table: &[u8; 64]) -> [[u64; 256]; 8] {
    // where each input bit (0-based, MSB-first) lands
    let mut lands = [0u64; 64];
    let mut i = 0;
    while i < 64 {
        let from = table[i] as usize - 1;
        assert!(lands[from] == 0, "not a permutation");
        lands[from] = 1 << (63 - i);
        i += 1;
    }
    let mut out = [[0u64; 256]; 8];
    let mut j = 0;
    while j < 8 {
        let mut v = 1usize;
        while v < 256 {
            // the entry for `v` without its lowest set bit, plus that bit
            let low = v.trailing_zeros() as usize;
            out[j][v] = out[j][v & (v - 1)] | lands[8 * j + 7 - low];
            v += 1;
        }
        j += 1;
    }
    out
}

/// `SP[i][six]`: S-box `i` on the six bits of group `i` (FIPS bits
/// b1..b6 as bits 5..0), placed at its nibble of the S-box output and
/// passed through P.
const fn sp_tables() -> [[u32; 64]; 8] {
    let mut out = [[0u32; 64]; 8];
    let mut i = 0;
    while i < 8 {
        let mut six = 0;
        while six < 64 {
            let row = ((six & 0x20) >> 4) | (six & 1);
            let col = (six >> 1) & 0xF;
            let s = (SBOXES[i][row * 16 + col] as u64) << (28 - 4 * i);
            out[i][six] = permute(s, 32, &P) as u32;
            six += 1;
        }
        i += 1;
    }
    out
}

static IP_BYTES: [[u64; 256]; 8] = byte_tables(&IP);
static FP_BYTES: [[u64; 256]; 8] = byte_tables(&FP);
static SP: [[u32; 64]; 8] = sp_tables();

// `feistel` reads group `i` of E(r) as bits 4i..4i+5 of `r` (1-based,
// bit 0 meaning bit 32): check at compile time that this is the FIPS E.
const _: () = {
    let mut n = 0;
    while n < 48 {
        assert!(E[n] as usize == (4 * (n / 6) + n % 6 + 31) % 32 + 1);
        n += 1;
    }
};

/// Applies a permutation given as [`byte_tables`].
fn permute_bytes(block: u64, tables: &[[u64; 256]; 8]) -> u64 {
    tables
        .iter()
        .zip(block.to_be_bytes())
        .fold(0, |out, (table, byte)| out | table[byte as usize])
}

/// A 48-bit round key as its eight 6-bit S-box groups, in S-box order.
type RoundKey = [u8; 8];

/// Expands a 64-bit key into 16 round keys of 48 bits.
fn key_schedule(key: u64) -> [u64; 16] {
    let cd = permute(key, 64, &PC1); // 56 bits
    let mut c = (cd >> 28) as u32 & 0x0FFF_FFFF;
    let mut d = cd as u32 & 0x0FFF_FFFF;
    let mut keys = [0u64; 16];
    for (round, &shift) in SHIFTS.iter().enumerate() {
        c = ((c << shift) | (c >> (28 - shift as u32))) & 0x0FFF_FFFF;
        d = ((d << shift) | (d >> (28 - shift as u32))) & 0x0FFF_FFFF;
        let cd = ((c as u64) << 28) | d as u64;
        keys[round] = permute(cd, 56, &PC2);
    }
    keys
}

/// The 16 round keys of `key` in encryption order, split into groups.
fn round_keys(key: &[u8; 8]) -> [RoundKey; 16] {
    key_schedule(u64::from_be_bytes(*key))
        .map(|k| std::array::from_fn(|i| (k >> (42 - 6 * i)) as u8 & 0x3F))
}

/// The Feistel function as eight S-box+P lookups. A left rotation by
/// 4i+5 brings group `i` of E(r) to the low six bits of `r`.
fn feistel(r: u32, k: &RoundKey) -> u32 {
    let mut f = 0;
    for (i, (sp, &group)) in SP.iter().zip(k).enumerate() {
        f |= sp[((r.rotate_left(4 * i as u32 + 5) ^ group as u32) & 0x3F) as usize];
    }
    f
}

/// Runs 16 Feistel rounds on an IP-ordered block and returns R16‖L16,
/// the block FP applies to. Since IP undoes FP, that is also the
/// IP-ordered input of a following DES stage.
fn rounds(block: u64, keys: &[RoundKey; 16]) -> u64 {
    let (mut l, mut r) = ((block >> 32) as u32, block as u32);
    for k in keys {
        (l, r) = (r, l ^ feistel(r, k));
    }
    (u64::from(r) << 32) | u64::from(l)
}

/// Runs a block through chained DES stages: IP once, 16 rounds per
/// stage, FP once (each stage's FP would cancel the next one's IP).
fn des_stages(block: &[u8; 8], stages: &[[RoundKey; 16]]) -> [u8; 8] {
    let ip = permute_bytes(u64::from_be_bytes(*block), &IP_BYTES);
    permute_bytes(stages.iter().fold(ip, rounds), &FP_BYTES).to_be_bytes()
}

/// Encrypts one 8-byte block with single DES.
pub fn des_encrypt_block(block: &[u8; 8], key: &[u8; 8]) -> [u8; 8] {
    des_stages(block, &[round_keys(key)])
}

/// Decrypts one 8-byte block with single DES.
pub fn des_decrypt_block(block: &[u8; 8], key: &[u8; 8]) -> [u8; 8] {
    let mut keys = round_keys(key);
    keys.reverse();
    des_stages(block, &[keys])
}

/// The three stages of a 3DES EDE key, in the order a block runs them:
/// K1 and K3 in encryption order, K2 reversed for decryption.
fn tdes_stages(key: &[u8; 24]) -> [[RoundKey; 16]; 3] {
    let (keys, _) = key.as_chunks::<8>();
    let mut k2 = round_keys(&keys[1]);
    k2.reverse();
    [round_keys(&keys[0]), k2, round_keys(&keys[2])]
}

/// Encrypts one block with 3DES EDE (encrypt-K1, decrypt-K2,
/// encrypt-K3).
pub fn tdes_encrypt_block(block: &[u8; 8], key: &[u8; 24]) -> [u8; 8] {
    des_stages(block, &tdes_stages(key))
}

/// The Triple-DES (EDE, 3-key) kernel. Parameters: 24-byte key.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TripleDes;

impl Kernel for TripleDes {
    fn algo_id(&self) -> u16 {
        ids::TDES
    }

    fn name(&self) -> &'static str {
        "3des"
    }

    fn default_params(&self) -> Vec<u8> {
        (0u8..24)
            .map(|i| i.wrapping_mul(11).wrapping_add(1))
            .collect()
    }

    fn execute(&self, params: &[u8], input: &[u8]) -> Result<Vec<u8>, AlgoError> {
        let key: [u8; 24] = params.try_into().map_err(|_| AlgoError::BadParams {
            kernel: "3des",
            reason: format!("key must be 24 bytes, got {}", params.len()),
        })?;
        // schedule the keys once per request, not once per block
        let stages = tdes_stages(&key);
        let mut out = Vec::with_capacity(input.len().div_ceil(8) * 8);
        for chunk in input.chunks(8) {
            let mut block = [0u8; 8];
            block[..chunk.len()].copy_from_slice(chunk);
            out.extend_from_slice(&des_stages(&block, &stages));
        }
        Ok(out)
    }

    fn input_width(&self) -> u16 {
        8
    }

    fn output_width(&self) -> u16 {
        8
    }

    fn build_image(&self, params: &[u8], geom: DeviceGeometry) -> Result<FunctionImage, AlgoError> {
        if params.len() != 24 {
            return Err(AlgoError::BadParams {
                kernel: "3des",
                reason: format!("key must be 24 bytes, got {}", params.len()),
            });
        }
        // Three chained DES cores: ~18 frames.
        Ok(behavioral_image(
            self.algo_id(),
            params,
            self.input_width(),
            self.output_width(),
            18,
            geom,
        ))
    }

    fn fabric_cycles(&self, input_len: usize) -> u64 {
        // 48-stage pipeline (3 x 16 rounds), one block/cycle when full
        input_len.div_ceil(8) as u64 + 48
    }

    fn software_cycles(&self, input_len: usize) -> u64 {
        // the modelled 2005 software host: ~150 cycles/byte, whatever
        // the speed of `execute` itself
        150 * input_len as u64 + 300
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The classic worked DES example (key 133457799BBCDFF1).
    #[test]
    fn des_known_vector() {
        let key = 0x1334_5779_9BBC_DFF1u64.to_be_bytes();
        let pt = 0x0123_4567_89AB_CDEFu64.to_be_bytes();
        let ct = des_encrypt_block(&pt, &key);
        assert_eq!(u64::from_be_bytes(ct), 0x85E8_1354_0F0A_B405);
        assert_eq!(des_decrypt_block(&ct, &key), pt);
    }

    /// FIPS all-zero vector.
    #[test]
    fn des_zero_vector() {
        let key = [0u8; 8];
        let pt = [0u8; 8];
        let ct = des_encrypt_block(&pt, &key);
        assert_eq!(u64::from_be_bytes(ct), 0x8CA6_4DE9_C1B1_23A7);
    }

    /// 3DES with K1=K2=K3 degenerates to single DES.
    #[test]
    fn tdes_degenerates_to_des() {
        let k = 0x0123_4567_89AB_CDEFu64.to_be_bytes();
        let mut key = [0u8; 24];
        key[..8].copy_from_slice(&k);
        key[8..16].copy_from_slice(&k);
        key[16..].copy_from_slice(&k);
        let pt = *b"ABCDEFGH";
        assert_eq!(tdes_encrypt_block(&pt, &key), des_encrypt_block(&pt, &k));
    }

    /// The SP 800-67 Appendix B example: three-key TDEA in ECB mode.
    #[test]
    fn tdes_sp800_67_vector() {
        let mut key = Vec::new();
        for k in [
            0x0123_4567_89AB_CDEFu64,
            0x2345_6789_ABCD_EF01,
            0x4567_89AB_CDEF_0123,
        ] {
            key.extend_from_slice(&k.to_be_bytes());
        }
        let mut expected = Vec::new();
        for c in [
            0xA826_FD8C_E53B_855Fu64,
            0xCCE2_1C81_1225_6FE6,
            0x68D5_C05D_D9B6_B900,
        ] {
            expected.extend_from_slice(&c.to_be_bytes());
        }
        let out = TripleDes
            .execute(&key, b"The qufck brown fox jump")
            .unwrap();
        assert_eq!(out, expected);
    }

    /// The bit-serial DES this module used before it went table-driven:
    /// every permutation (IP, E, P, FP) is a walk over its FIPS table,
    /// and each 3DES stage runs its own IP and FP.
    mod oracle {
        use super::super::{key_schedule, permute, E, FP, IP, P, SBOXES};

        fn feistel(r: u32, k: u64) -> u32 {
            let x = permute(r as u64, 32, &E) ^ k; // 48 bits
            let mut out = 0u32;
            for (i, sbox) in SBOXES.iter().enumerate() {
                let six = ((x >> (42 - 6 * i)) & 0x3F) as usize;
                let row = ((six & 0x20) >> 4) | (six & 1);
                let col = (six >> 1) & 0xF;
                out = (out << 4) | sbox[row * 16 + col] as u32;
            }
            permute(out as u64, 32, &P) as u32
        }

        fn des(block: &[u8; 8], key: &[u8; 8], decrypt: bool) -> [u8; 8] {
            let keys = key_schedule(u64::from_be_bytes(*key));
            let ip = permute(u64::from_be_bytes(*block), 64, &IP);
            let mut l = (ip >> 32) as u32;
            let mut r = ip as u32;
            for i in 0..16 {
                let k = if decrypt { keys[15 - i] } else { keys[i] };
                let next_r = l ^ feistel(r, k);
                l = r;
                r = next_r;
            }
            permute(((r as u64) << 32) | l as u64, 64, &FP).to_be_bytes()
        }

        pub fn des_encrypt_block(block: &[u8; 8], key: &[u8; 8]) -> [u8; 8] {
            des(block, key, false)
        }

        pub fn des_decrypt_block(block: &[u8; 8], key: &[u8; 8]) -> [u8; 8] {
            des(block, key, true)
        }

        pub fn tdes_encrypt_block(block: &[u8; 8], key: &[u8; 24]) -> [u8; 8] {
            let k = |i: usize| -> [u8; 8] { key[8 * i..8 * i + 8].try_into().unwrap() };
            let a = des_encrypt_block(block, &k(0));
            let b = des_decrypt_block(&a, &k(1));
            des_encrypt_block(&b, &k(2))
        }
    }

    /// The table-driven DES and 3DES equal the bit-serial oracle on
    /// random keys and blocks, and `execute` equals the oracle block by
    /// block for every input length up to 100 bytes.
    #[test]
    fn table_driven_matches_bit_serial_oracle() {
        let mut rng = aaod_sim::SplitMix64::new(0xde5_0a11);
        for _ in 0..10_000 {
            let block = rng.next_u64().to_be_bytes();
            let key = rng.next_u64().to_be_bytes();
            let mut key3 = [0u8; 24];
            rng.fill(&mut key3);
            let ct = des_encrypt_block(&block, &key);
            assert_eq!(ct, oracle::des_encrypt_block(&block, &key));
            assert_eq!(
                des_decrypt_block(&block, &key),
                oracle::des_decrypt_block(&block, &key)
            );
            assert_eq!(des_decrypt_block(&ct, &key), block);
            assert_eq!(
                tdes_encrypt_block(&block, &key3),
                oracle::tdes_encrypt_block(&block, &key3)
            );
        }
        let mut key3 = [0u8; 24];
        rng.fill(&mut key3);
        let mut input = [0u8; 100];
        rng.fill(&mut input);
        for len in 0..=input.len() {
            let mut expected = Vec::new();
            for chunk in input[..len].chunks(8) {
                let mut block = [0u8; 8];
                block[..chunk.len()].copy_from_slice(chunk);
                expected.extend_from_slice(&oracle::tdes_encrypt_block(&block, &key3));
            }
            assert_eq!(TripleDes.execute(&key3, &input[..len]).unwrap(), expected);
        }
    }

    #[test]
    fn kernel_rejects_bad_key() {
        assert!(TripleDes.execute(&[0; 8], b"x").is_err());
        assert!(TripleDes
            .build_image(&[0; 8], DeviceGeometry::default())
            .is_err());
    }

    #[test]
    fn best_offload_ratio_in_bank() {
        // software/fabric cycle ratio should dwarf AES's
        use crate::crypto::aes::Aes128;
        let tdes_ratio =
            TripleDes.software_cycles(4096) as f64 / TripleDes.fabric_cycles(4096) as f64;
        let aes_ratio = Aes128.software_cycles(4096) as f64 / Aes128.fabric_cycles(4096) as f64;
        assert!(tdes_ratio > aes_ratio);
    }
}
