//! The configurable device: a configuration plane of frames.
//!
//! [`Device`] stores the raw configuration bytes of every frame and
//! counts configuration traffic. It deliberately knows nothing about
//! which algorithm owns which frame — that bookkeeping (free-frame
//! list, replacement table) belongs to the microcontroller's mini-OS,
//! as in the paper.

use crate::error::FabricError;
use crate::geometry::{DeviceGeometry, FrameAddress};
use crate::image::FunctionImage;

/// A partially reconfigurable device's configuration plane.
///
/// # Examples
///
/// ```
/// use aaod_fabric::{Device, DeviceGeometry, FrameAddress};
///
/// let geom = DeviceGeometry::new(8, 2);
/// let mut dev = Device::new(geom);
/// let frame = vec![0xAB; geom.frame_bytes()];
/// dev.write_frame(FrameAddress(5), &frame).unwrap();
/// assert_eq!(dev.read_frame(FrameAddress(5)).unwrap(), &frame[..]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Device {
    geometry: DeviceGeometry,
    frames: Vec<Vec<u8>>,
    frame_writes: u64,
    full_configs: u64,
    epoch: u64,
}

impl Device {
    /// Creates a blank (all-zero) device.
    pub fn new(geometry: DeviceGeometry) -> Self {
        let fb = geometry.frame_bytes();
        Device {
            geometry,
            frames: vec![vec![0u8; fb]; geometry.frames()],
            frame_writes: 0,
            full_configs: 0,
            epoch: 0,
        }
    }

    /// The device's geometry.
    pub fn geometry(&self) -> DeviceGeometry {
        self.geometry
    }

    /// Writes one frame (partial reconfiguration). Only the addressed
    /// frame changes; all others are untouched (paper §2.4).
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::FrameOutOfRange`] or
    /// [`FabricError::FrameSizeMismatch`].
    pub fn write_frame(&mut self, addr: FrameAddress, bytes: &[u8]) -> Result<(), FabricError> {
        self.geometry.check(addr)?;
        if bytes.len() != self.geometry.frame_bytes() {
            return Err(FabricError::FrameSizeMismatch {
                got: bytes.len(),
                expected: self.geometry.frame_bytes(),
            });
        }
        self.frames[addr.index()].copy_from_slice(bytes);
        self.frame_writes += 1;
        self.epoch += 1;
        Ok(())
    }

    /// Reads one frame's configuration bytes.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::FrameOutOfRange`].
    pub fn read_frame(&self, addr: FrameAddress) -> Result<&[u8], FabricError> {
        self.geometry.check(addr)?;
        Ok(&self.frames[addr.index()])
    }

    /// Zeroes one frame (the mini-OS erases evicted functions).
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::FrameOutOfRange`].
    pub fn clear_frame(&mut self, addr: FrameAddress) -> Result<(), FabricError> {
        self.geometry.check(addr)?;
        self.frames[addr.index()].fill(0);
        self.frame_writes += 1;
        self.epoch += 1;
        Ok(())
    }

    /// Full (non-partial) reconfiguration: every frame is erased before
    /// the new frames are written starting at frame 0. This is the
    /// baseline behaviour of a device *without* partial
    /// reconfigurability.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::CapacityExceeded`] if more frames are
    /// supplied than the device has, or
    /// [`FabricError::FrameSizeMismatch`] for wrong-sized frames.
    pub fn full_configure(&mut self, frames: &[Vec<u8>]) -> Result<(), FabricError> {
        if frames.len() > self.geometry.frames() {
            return Err(FabricError::CapacityExceeded {
                what: "frames",
                needed: frames.len(),
                available: self.geometry.frames(),
            });
        }
        for frame in frames {
            if frame.len() != self.geometry.frame_bytes() {
                return Err(FabricError::FrameSizeMismatch {
                    got: frame.len(),
                    expected: self.geometry.frame_bytes(),
                });
            }
        }
        for f in &mut self.frames {
            f.fill(0);
        }
        for (i, frame) in frames.iter().enumerate() {
            self.frames[i].copy_from_slice(frame);
        }
        self.full_configs += 1;
        self.epoch += 1;
        Ok(())
    }

    /// Copies the frames at `addrs` (in order) — the readback path used
    /// to decode a configured function.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::FrameOutOfRange`].
    pub fn read_region(&self, addrs: &[FrameAddress]) -> Result<Vec<Vec<u8>>, FabricError> {
        addrs
            .iter()
            .map(|&a| self.read_frame(a).map(<[u8]>::to_vec))
            .collect()
    }

    /// Decodes the function image configured at `addrs`.
    ///
    /// This is the bit-faithful execution entry point: whatever bytes
    /// are in the frames — including corrupted or half-written ones —
    /// determine the result.
    ///
    /// # Errors
    ///
    /// Propagates address errors and all
    /// [`FunctionImage`] decode errors (bad magic, digest mismatch…).
    pub fn decode_function(&self, addrs: &[FrameAddress]) -> Result<FunctionImage, FabricError> {
        let mut flat = Vec::new();
        self.decode_function_with(addrs, &mut flat)
    }

    /// As [`Device::decode_function`], but concatenates the frame bytes
    /// into the caller-supplied `flat` buffer instead of allocating a
    /// `Vec` per frame — the execution hot path hands the same buffer
    /// back on every decode so readback stays off the allocator.
    ///
    /// # Errors
    ///
    /// As [`Device::decode_function`].
    pub fn decode_function_with(
        &self,
        addrs: &[FrameAddress],
        flat: &mut Vec<u8>,
    ) -> Result<FunctionImage, FabricError> {
        self.read_frames_into(addrs, flat)?;
        FunctionImage::from_bytes(flat)
    }

    /// Reads the frames at `addrs`, in order, into `flat` (replacing
    /// its contents): the bytes [`Device::decode_function_with`]
    /// decodes.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::FrameOutOfRange`] for a bad address.
    pub fn read_frames_into(
        &self,
        addrs: &[FrameAddress],
        flat: &mut Vec<u8>,
    ) -> Result<(), FabricError> {
        flat.clear();
        flat.reserve(addrs.len() * self.geometry.frame_bytes());
        for &addr in addrs {
            flat.extend_from_slice(self.read_frame(addr)?);
        }
        Ok(())
    }

    /// Flips one configuration bit in place — the single-event-upset
    /// injection point used by the fault campaigns. Unlike
    /// [`Device::write_frame`] this does not count as configuration
    /// traffic: an SEU is radiation, not a port transaction.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::FrameOutOfRange`] for a bad address.
    ///
    /// # Panics
    ///
    /// Panics if `byte` is outside the frame or `bit` is not 0–7.
    pub fn flip_bit(
        &mut self,
        addr: FrameAddress,
        byte: usize,
        bit: u8,
    ) -> Result<(), FabricError> {
        self.geometry.check(addr)?;
        assert!(byte < self.geometry.frame_bytes(), "byte offset {byte}");
        assert!(bit < 8, "bit index {bit}");
        self.frames[addr.index()][byte] ^= 1 << bit;
        self.epoch += 1;
        Ok(())
    }

    /// Number of single-frame writes performed so far.
    pub fn frame_writes(&self) -> u64 {
        self.frame_writes
    }

    /// Number of full reconfigurations performed so far.
    pub fn full_configs(&self) -> u64 {
        self.full_configs
    }

    /// The configuration epoch: a counter every frame mutation
    /// advances ([`Device::write_frame`], [`Device::clear_frame`],
    /// [`Device::full_configure`] and [`Device::flip_bit`] alike). While
    /// it is unchanged no configuration bit has changed, so anything
    /// decoded from the frames at that epoch is still exactly what the
    /// frames say. Epochs compare only within one `Device` value; a
    /// fresh device starts again at zero.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::NetlistMode;
    use crate::netlist::NetlistBuilder;

    fn geom() -> DeviceGeometry {
        DeviceGeometry::new(8, 2)
    }

    #[test]
    fn starts_blank() {
        let dev = Device::new(geom());
        for i in 0..8 {
            assert!(dev
                .read_frame(FrameAddress(i))
                .unwrap()
                .iter()
                .all(|&b| b == 0));
        }
        assert_eq!(dev.frame_writes(), 0);
    }

    #[test]
    fn write_only_touches_addressed_frame() {
        let g = geom();
        let mut dev = Device::new(g);
        let marked = vec![0x5A; g.frame_bytes()];
        dev.write_frame(FrameAddress(3), &marked).unwrap();
        for i in 0..8u16 {
            let frame = dev.read_frame(FrameAddress(i)).unwrap();
            if i == 3 {
                assert_eq!(frame, &marked[..]);
            } else {
                assert!(frame.iter().all(|&b| b == 0), "frame {i} perturbed");
            }
        }
    }

    #[test]
    fn wrong_size_rejected() {
        let mut dev = Device::new(geom());
        assert!(matches!(
            dev.write_frame(FrameAddress(0), &[1, 2, 3]),
            Err(FabricError::FrameSizeMismatch { .. })
        ));
    }

    #[test]
    fn out_of_range_rejected() {
        let g = geom();
        let mut dev = Device::new(g);
        let frame = vec![0; g.frame_bytes()];
        assert!(matches!(
            dev.write_frame(FrameAddress(8), &frame),
            Err(FabricError::FrameOutOfRange { .. })
        ));
        assert!(dev.read_frame(FrameAddress(100)).is_err());
    }

    #[test]
    fn clear_frame_zeroes() {
        let g = geom();
        let mut dev = Device::new(g);
        dev.write_frame(FrameAddress(1), &vec![0xFF; g.frame_bytes()])
            .unwrap();
        dev.clear_frame(FrameAddress(1)).unwrap();
        assert!(dev
            .read_frame(FrameAddress(1))
            .unwrap()
            .iter()
            .all(|&b| b == 0));
    }

    #[test]
    fn full_configure_erases_everything_first() {
        let g = geom();
        let mut dev = Device::new(g);
        dev.write_frame(FrameAddress(7), &vec![0xEE; g.frame_bytes()])
            .unwrap();
        dev.full_configure(&[vec![0x11; g.frame_bytes()]]).unwrap();
        assert!(dev
            .read_frame(FrameAddress(7))
            .unwrap()
            .iter()
            .all(|&b| b == 0));
        assert_eq!(dev.read_frame(FrameAddress(0)).unwrap()[0], 0x11);
        assert_eq!(dev.full_configs(), 1);
    }

    #[test]
    fn full_configure_capacity_check() {
        let g = geom();
        let mut dev = Device::new(g);
        let frames = vec![vec![0u8; g.frame_bytes()]; 9];
        assert!(matches!(
            dev.full_configure(&frames),
            Err(FabricError::CapacityExceeded { .. })
        ));
    }

    #[test]
    fn configured_function_roundtrips_through_device() {
        let g = DeviceGeometry::new(16, 2);
        let mut dev = Device::new(g);
        let mut b = NetlistBuilder::new();
        let ins = b.inputs(8);
        let one = b.one();
        let flipped = b.xor2(ins[7], one);
        b.output_vec(&ins[..7]);
        b.output(flipped);
        let img =
            FunctionImage::from_netlist(5, b.finish().unwrap(), NetlistMode::Combinational, 1, 1);
        let frames = img.encode(g);
        // place non-contiguously: frames 2, 9, 4, ...
        let addrs: Vec<FrameAddress> = [2u16, 9, 4, 11, 6, 13, 0, 15]
            .into_iter()
            .take(frames.len())
            .map(FrameAddress)
            .collect();
        assert!(addrs.len() >= frames.len(), "test geometry too small");
        for (addr, frame) in addrs.iter().zip(&frames) {
            dev.write_frame(*addr, frame).unwrap();
        }
        let decoded = dev.decode_function(&addrs[..frames.len()]).unwrap();
        assert_eq!(decoded.algo_id(), 5);
        let out = decoded.run_netlist(&[0x00]).unwrap();
        assert_eq!(out, vec![0x80]); // bit 7 flipped
    }

    #[test]
    fn flip_bit_is_a_seu_not_a_write() {
        let g = geom();
        let mut dev = Device::new(g);
        dev.flip_bit(FrameAddress(2), 10, 3).unwrap();
        assert_eq!(dev.read_frame(FrameAddress(2)).unwrap()[10], 1 << 3);
        assert_eq!(dev.frame_writes(), 0, "SEU must not count as a write");
        dev.flip_bit(FrameAddress(2), 10, 3).unwrap();
        assert!(dev
            .read_frame(FrameAddress(2))
            .unwrap()
            .iter()
            .all(|&b| b == 0));
        assert!(dev.flip_bit(FrameAddress(99), 0, 0).is_err());
    }

    #[test]
    fn every_frame_mutator_advances_the_epoch() {
        let g = geom();
        let mut dev = Device::new(g);
        assert_eq!(dev.epoch(), 0);
        let frame = vec![0x5A; g.frame_bytes()];
        dev.write_frame(FrameAddress(1), &frame).unwrap();
        assert_eq!(dev.epoch(), 1);
        dev.clear_frame(FrameAddress(1)).unwrap();
        assert_eq!(dev.epoch(), 2);
        dev.full_configure(&[frame]).unwrap();
        assert_eq!(dev.epoch(), 3);
        dev.flip_bit(FrameAddress(0), 0, 0).unwrap();
        assert_eq!(dev.epoch(), 4);
        // reads and rejected mutations leave it alone
        dev.read_frame(FrameAddress(0)).unwrap();
        dev.decode_function(&[FrameAddress(0)]).unwrap_err();
        assert!(dev.write_frame(FrameAddress(0), &[1]).is_err());
        assert!(dev.clear_frame(FrameAddress(99)).is_err());
        assert_eq!(dev.epoch(), 4);
    }

    #[test]
    fn decode_of_blank_region_fails_cleanly() {
        let dev = Device::new(geom());
        let err = dev.decode_function(&[FrameAddress(0)]).unwrap_err();
        assert!(matches!(err, FabricError::ImageDecode(_)));
    }
}
