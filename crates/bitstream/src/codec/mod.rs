//! Compression codecs with windowed (streaming) decompression.
//!
//! The configuration module of the paper decompresses a bitstream
//! *window by window* so the on-card buffer stays small. Every codec
//! here therefore exposes a [`Decompressor`] that yields output
//! incrementally from bounded working memory (RLE run state, a 12 KiB
//! LZSS dictionary holding the last 4 KiB of history, one previous
//! frame for the frame-XOR codec).
//!
//! Codecs also carry a per-output-byte cycle cost used by the
//! microcontroller timing model, so experiment E2/E8 can trade ratio
//! against decompression speed.

pub mod deltav2;
pub mod framexor;
pub mod huffman;
pub mod lzss;
pub mod null;
pub mod rle;

use crate::error::BitstreamError;
use std::fmt;

/// Identifies a codec in bitstream headers and ROM records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum CodecId {
    /// Stored, no compression.
    Null = 0,
    /// Byte run-length encoding.
    Rle = 1,
    /// LZSS, 4 KiB window, 3–18 byte matches.
    Lzss = 2,
    /// Canonical Huffman over bytes.
    Huffman = 3,
    /// Frame-delta XOR + RLE (exploits inter-frame CLB symmetry).
    FrameXor = 4,
    /// Frame-dedup delta codec: exact/canonical frame references,
    /// XOR deltas and per-frame v1 fallback, with content-hash hints
    /// for the [`FrameStore`](crate::FrameStore) (compression v2).
    DeltaV2 = 5,
}

impl CodecId {
    /// All codec ids, in id order.
    pub const ALL: [CodecId; 6] = [
        CodecId::Null,
        CodecId::Rle,
        CodecId::Lzss,
        CodecId::Huffman,
        CodecId::FrameXor,
        CodecId::DeltaV2,
    ];

    /// The wire byte for this codec.
    pub fn to_byte(self) -> u8 {
        self as u8
    }

    /// Parses a wire byte.
    ///
    /// # Errors
    ///
    /// Returns [`BitstreamError::UnknownCodec`] for unassigned ids.
    pub fn from_byte(b: u8) -> Result<Self, BitstreamError> {
        match b {
            0 => Ok(CodecId::Null),
            1 => Ok(CodecId::Rle),
            2 => Ok(CodecId::Lzss),
            3 => Ok(CodecId::Huffman),
            4 => Ok(CodecId::FrameXor),
            5 => Ok(CodecId::DeltaV2),
            other => Err(BitstreamError::UnknownCodec(other)),
        }
    }
}

impl fmt::Display for CodecId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            CodecId::Null => "null",
            CodecId::Rle => "rle",
            CodecId::Lzss => "lzss",
            CodecId::Huffman => "huffman",
            CodecId::FrameXor => "frame-xor",
            CodecId::DeltaV2 => "delta-v2",
        };
        f.write_str(name)
    }
}

/// A compression codec.
///
/// Object-safe so the configuration module can be handed any codec at
/// run time (the ROM record names the codec per function).
pub trait Codec {
    /// This codec's identifier.
    fn id(&self) -> CodecId;

    /// Compresses `data` into a fresh buffer.
    fn compress(&self, data: &[u8]) -> Vec<u8>;

    /// Creates a streaming decompressor over compressed `data`.
    fn decompressor<'a>(&self, data: &'a [u8]) -> Box<dyn Decompressor + 'a>;

    /// Modelled microcontroller cycles consumed per *output* byte
    /// during decompression.
    fn cycles_per_output_byte(&self) -> u64;
}

/// Incremental decompression: repeatedly fill a caller-provided window.
pub trait Decompressor {
    /// Writes up to `out.len()` decompressed bytes into `out`,
    /// returning how many were produced. `Ok(0)` signals end of
    /// stream.
    ///
    /// # Errors
    ///
    /// Returns [`BitstreamError::CorruptPayload`] when the compressed
    /// data is inconsistent.
    fn read(&mut self, out: &mut [u8]) -> Result<usize, BitstreamError>;
}

/// Decompresses an entire payload through a codec's streaming
/// interface (testing / convenience; the configuration module streams
/// instead).
///
/// # Errors
///
/// Propagates decoder errors.
pub fn decompress_all(codec: &dyn Codec, data: &[u8]) -> Result<Vec<u8>, BitstreamError> {
    let mut d = codec.decompressor(data);
    let mut out = Vec::new();
    let mut window = [0u8; 1024];
    loop {
        let n = d.read(&mut window)?;
        if n == 0 {
            return Ok(out);
        }
        out.extend_from_slice(&window[..n]);
    }
}

/// Codec construction.
pub mod registry {
    use super::deltav2::DeltaV2;
    use super::framexor::FrameXor;
    use super::huffman::Huffman;
    use super::lzss::Lzss;
    use super::null::Null;
    use super::rle::Rle;
    use super::{Codec, CodecId};

    /// Instantiates the codec for `id`. `frame_bytes` parameterises
    /// the frame-level codecs (other codecs ignore it).
    pub fn codec(id: CodecId, frame_bytes: usize) -> Box<dyn Codec> {
        match id {
            CodecId::Null => Box::new(Null),
            CodecId::Rle => Box::new(Rle),
            CodecId::Lzss => Box::new(Lzss::new()),
            CodecId::Huffman => Box::new(Huffman),
            CodecId::FrameXor => Box::new(FrameXor::new(frame_bytes)),
            CodecId::DeltaV2 => Box::new(DeltaV2::new(frame_bytes)),
        }
    }

    /// Instantiates every codec (for the compression survey, E2).
    pub fn all(frame_bytes: usize) -> Vec<Box<dyn Codec>> {
        CodecId::ALL
            .iter()
            .map(|&id| codec(id, frame_bytes))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aaod_sim::SplitMix64;

    /// Sample inputs exercising edge cases for every codec.
    pub(crate) fn sample_inputs() -> Vec<Vec<u8>> {
        let mut rng = SplitMix64::new(0xC0DEC);
        let mut random = vec![0u8; 3000];
        rng.fill(&mut random);
        let mut runs = Vec::new();
        for i in 0..40 {
            runs.extend(std::iter::repeat_n((i * 7) as u8, 1 + (i % 300)));
        }
        let mut texty = Vec::new();
        for _ in 0..50 {
            texty.extend_from_slice(b"configuration frame CLB switch-block ");
        }
        vec![
            vec![],
            vec![0x42],
            vec![0u8; 5000],
            vec![0xFF; 257],
            (0..=255u8).collect(),
            random,
            runs,
            texty,
        ]
    }

    #[test]
    fn codec_id_roundtrip() {
        for id in CodecId::ALL {
            assert_eq!(CodecId::from_byte(id.to_byte()).unwrap(), id);
        }
        assert!(matches!(
            CodecId::from_byte(99),
            Err(BitstreamError::UnknownCodec(99))
        ));
    }

    #[test]
    fn every_codec_roundtrips_every_sample() {
        for codec in registry::all(128) {
            for (i, input) in sample_inputs().iter().enumerate() {
                let compressed = codec.compress(input);
                let back = decompress_all(codec.as_ref(), &compressed)
                    .unwrap_or_else(|e| panic!("{} failed on sample {i}: {e}", codec.id()));
                assert_eq!(&back, input, "{} mangled sample {i}", codec.id());
            }
        }
    }

    #[test]
    fn windowed_reads_match_bulk_for_all_codecs() {
        let input = sample_inputs().pop().unwrap();
        for codec in registry::all(128) {
            let compressed = codec.compress(&input);
            for window in [1usize, 3, 64, 1000] {
                let mut d = codec.decompressor(&compressed);
                let mut out = Vec::new();
                let mut buf = vec![0u8; window];
                loop {
                    let n = d.read(&mut buf).unwrap();
                    if n == 0 {
                        break;
                    }
                    out.extend_from_slice(&buf[..n]);
                }
                assert_eq!(out, input, "{} window {window}", codec.id());
            }
        }
    }

    #[test]
    fn cycle_costs_are_positive() {
        for codec in registry::all(64) {
            assert!(codec.cycles_per_output_byte() > 0, "{}", codec.id());
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(CodecId::Lzss.to_string(), "lzss");
        assert_eq!(CodecId::FrameXor.to_string(), "frame-xor");
    }
}
