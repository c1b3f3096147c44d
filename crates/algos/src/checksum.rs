//! CRC-32 checksum kernel.
//!
//! Computes with the CRC-32 from [`aaod_bitstream::crc`], the same
//! slicing-by-8 code that protects bitstream payloads, so there is one
//! implementation, not two. Its independent check is the bitwise
//! definition kept as a test oracle in that module: every length up to
//! 2 KiB and every split of an incremental update must agree with it.
//! The test below pins the standard check value. The hardware model is
//! a 32-bit-parallel LFSR absorbing four bytes per fabric cycle.

use crate::filler::behavioral_image;
use crate::ids;
use crate::kernel::{AlgoError, Kernel};
use aaod_bitstream::crc::crc32;
use aaod_fabric::{DeviceGeometry, FunctionImage};

/// The CRC-32 kernel. No parameters; output is the 4-byte CRC (LE).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Crc32Kernel;

impl Kernel for Crc32Kernel {
    fn algo_id(&self) -> u16 {
        ids::CRC32
    }

    fn name(&self) -> &'static str {
        "crc32"
    }

    fn default_params(&self) -> Vec<u8> {
        Vec::new()
    }

    fn execute(&self, params: &[u8], input: &[u8]) -> Result<Vec<u8>, AlgoError> {
        if !params.is_empty() {
            return Err(AlgoError::BadParams {
                kernel: "crc32",
                reason: "takes no parameters".into(),
            });
        }
        Ok(crc32(input).to_le_bytes().to_vec())
    }

    fn input_width(&self) -> u16 {
        4
    }

    fn output_width(&self) -> u16 {
        4
    }

    fn build_image(&self, params: &[u8], geom: DeviceGeometry) -> Result<FunctionImage, AlgoError> {
        if !params.is_empty() {
            return Err(AlgoError::BadParams {
                kernel: "crc32",
                reason: "takes no parameters".into(),
            });
        }
        // A parallel CRC-32 LFSR is tiny: 2 frames.
        Ok(behavioral_image(
            self.algo_id(),
            params,
            self.input_width(),
            self.output_width(),
            2,
            geom,
        ))
    }

    fn fabric_cycles(&self, input_len: usize) -> u64 {
        // 4 bytes per cycle through the parallel LFSR
        input_len.div_ceil(4) as u64 + 2
    }

    fn software_cycles(&self, input_len: usize) -> u64 {
        // table-driven software CRC: ~5 cycles/byte
        5 * input_len as u64 + 50
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_bitstream_crc() {
        let out = Crc32Kernel.execute(&[], b"123456789").unwrap();
        assert_eq!(out, 0xCBF4_3926u32.to_le_bytes().to_vec());
    }

    #[test]
    fn rejects_params() {
        assert!(Crc32Kernel.execute(&[1], b"").is_err());
    }

    #[test]
    fn is_smallest_behavioral_function() {
        let geom = DeviceGeometry::default();
        let img = Crc32Kernel.build_image(&[], geom).unwrap();
        assert_eq!(img.frames_needed(geom), 2);
    }
}
