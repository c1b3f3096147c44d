//! The controller decodes a resident function once per configuration
//! and reuses the compiled form while the device's configuration epoch
//! is unchanged. These tests populate that form with one batch, change
//! the configuration through every mutation path, and check that the
//! next batch answers exactly what a fresh readback decode of the
//! frames would: the same output, or the same error.
//!
//! Past eviction, the controller keeps per algorithm the image bytes
//! that last passed the full decode. Frames read back byte-equal to
//! them reuse that compiled function; the tests below check that any
//! other bytes still take the full decode.

use aaod_algos::{ids, netlists};
use aaod_fabric::netlist::Lut;
use aaod_fabric::{
    run_decoded_netlist, CompiledFunction, FrameAddress, FunctionImage, FunctionKind, Netlist,
    NetlistMode,
};
use aaod_mcu::{McuError, MiniOs, MiniOsConfig, ReconfigMode};
use aaod_sim::SplitMix64;
use std::sync::Arc;

const INPUT: &[u8] = b"the quick brown fox jumps over the lazy dog";

fn os(mode: ReconfigMode, algos: &[u16]) -> MiniOs {
    let mut os = MiniOs::new(MiniOsConfig {
        mode,
        ..MiniOsConfig::default()
    });
    for &id in algos {
        os.install(id).unwrap();
    }
    os
}

/// What a fresh decode of `algo`'s frames computes on `input`: the
/// readback, digest, algorithm-id and payload checks of the full path,
/// then the payload itself.
fn fresh(os: &MiniOs, algo: u16, input: &[u8]) -> Result<Vec<u8>, McuError> {
    let frames = &os.table().get(algo).expect("resident").frames;
    let image = os
        .device()
        .decode_function(frames)
        .map_err(McuError::Fabric)?;
    if image.algo_id() != algo {
        return Err(McuError::RecordMismatch(format!(
            "frames decode to algorithm {}, record says {algo}",
            image.algo_id()
        )));
    }
    match image.kind().map_err(McuError::Fabric)? {
        FunctionKind::Netlist { netlist, mode } => {
            run_decoded_netlist(&netlist, mode, input).map_err(McuError::Fabric)
        }
        FunctionKind::Behavioral { params } => os
            .bank()
            .kernel(algo)
            .expect("bank kernel")
            .execute(&params, input)
            .map_err(McuError::Algo),
    }
}

/// Runs one batch of `input` and returns its single output or error.
fn run(os: &mut MiniOs, algo: u16, input: &[u8]) -> Result<Vec<u8>, McuError> {
    let out = os.invoke_batch(algo, &[input]).map(|mut r| r.remove(0).0);
    assert!(
        os.table().compiled_count() <= os.resident().len(),
        "{} compiled forms for {} resident functions",
        os.table().compiled_count(),
        os.resident().len()
    );
    out
}

/// Populates the compiled form, then checks the next batch after
/// `mutate` against a fresh decode taken at that point.
fn check_after(
    os: &mut MiniOs,
    algo: u16,
    mutate: impl FnOnce(&mut MiniOs),
) -> Result<Vec<u8>, McuError> {
    let first = run(os, algo, INPUT);
    assert!(first.is_ok(), "healthy first batch");
    assert_eq!(first, fresh(os, algo, INPUT));
    assert_eq!(os.table().compiled_count(), os.resident().len());
    let epoch = os.device().epoch();
    mutate(os);
    assert_ne!(
        os.device().epoch(),
        epoch,
        "mutation must advance the epoch"
    );
    let want = fresh(os, algo, INPUT);
    let got = run(os, algo, INPUT);
    assert_eq!(got, want, "next batch diverged from a fresh decode");
    got
}

/// The CRC-8 netlist with one truth-table bit flipped: the first LUT
/// (data bit 0 xor state bit 0) also fires on the all-zero pattern.
fn mutated_crc8() -> Netlist {
    let nl = netlists::crc8_netlist();
    let mut luts: Vec<Lut> = nl.luts().to_vec();
    luts[0].truth ^= 1;
    Netlist::from_parts(nl.n_inputs() as u16, luts, nl.outputs().to_vec()).unwrap()
}

/// Frames of a valid CRC-8 image whose netlist is [`mutated_crc8`]:
/// the digest checks out, so only the epoch notices the change.
fn mutated_crc8_frames(os: &MiniOs) -> Vec<Vec<u8>> {
    let frames = &os.table().get(ids::CRC8).expect("resident").frames;
    let current = os.device().decode_function(frames).unwrap();
    let image = FunctionImage::from_netlist(
        ids::CRC8,
        mutated_crc8(),
        NetlistMode::Streaming,
        current.input_width(),
        current.output_width(),
    );
    let encoded = image.encode(os.geometry());
    assert_eq!(encoded.len(), frames.len(), "same footprint");
    encoded
}

/// Rewrites CRC-8's resident frames with the mutated image.
fn write_mutated_crc8(os: &mut MiniOs) {
    let frames = os.table().get(ids::CRC8).unwrap().frames.clone();
    let encoded = mutated_crc8_frames(os);
    for (addr, bytes) in frames.iter().zip(&encoded) {
        os.device_mut().write_frame(*addr, bytes).unwrap();
    }
}

fn reference_crc8() -> Vec<u8> {
    vec![netlists::crc8_reference(INPUT)]
}

#[test]
fn seu_is_seen_on_the_next_batch() {
    for algo in [ids::CRC8, ids::ADDER8, ids::SHA1] {
        let mut os = os(ReconfigMode::Partial, &[algo]);
        let got = check_after(&mut os, algo, |os| {
            assert!(os.inject_seu(algo, &mut SplitMix64::new(u64::from(algo))));
        });
        assert!(got.is_err(), "header SEU on {algo} must fail the decode");
    }
}

#[test]
fn torn_configuration_is_seen_on_the_next_batch() {
    for algo in [ids::CRC8, ids::SHA1] {
        let mut os = os(ReconfigMode::Partial, &[algo]);
        let got = check_after(&mut os, algo, |os| {
            assert!(os.inject_torn(algo));
        });
        assert!(got.is_err(), "torn {algo} must fail the decode");
    }
}

/// The compiled form `algo`'s frames last passed the full decode with.
fn compiled(os: &MiniOs, algo: u16) -> Arc<CompiledFunction> {
    Arc::clone(os.verified_function(algo).expect("compiled"))
}

#[test]
fn rewritten_frames_recompile_the_table() {
    let mut os = os(ReconfigMode::Partial, &[ids::CRC8]);
    run(&mut os, ids::CRC8, INPUT).unwrap();
    let original = compiled(&os, ids::CRC8);
    assert!(original.is_tabulated());
    let got = check_after(&mut os, ids::CRC8, write_mutated_crc8).unwrap();
    assert!(!Arc::ptr_eq(&original, &compiled(&os, ids::CRC8)));
    let scalar = run_decoded_netlist(&mutated_crc8(), NetlistMode::Streaming, INPUT).unwrap();
    assert_eq!(got, scalar);
    assert_ne!(got, reference_crc8(), "the flipped truth bit must show");
}

#[test]
fn full_mode_full_configure_recompiles() {
    let mut os = os(ReconfigMode::Full, &[ids::CRC8]);
    let got = check_after(&mut os, ids::CRC8, |os| {
        let frames = &os.table().get(ids::CRC8).unwrap().frames;
        let from_zero: Vec<FrameAddress> = (0..frames.len() as u16).map(FrameAddress).collect();
        assert_eq!(*frames, from_zero, "full mode places from frame 0");
        let encoded = mutated_crc8_frames(os);
        os.device_mut().full_configure(&encoded).unwrap();
    })
    .unwrap();
    assert_ne!(got, reference_crc8());
}

#[test]
fn scrub_repair_restores_the_rom_function() {
    let mut os = os(ReconfigMode::Partial, &[ids::CRC8]);
    // compile the mutated (digest-valid) function, then upset it
    run(&mut os, ids::CRC8, INPUT).unwrap();
    write_mutated_crc8(&mut os);
    let got = check_after(&mut os, ids::CRC8, |os| {
        assert!(os.inject_seu(ids::CRC8, &mut SplitMix64::new(8)));
        let report = os.scrub().unwrap();
        assert_eq!(report.repaired, vec![ids::CRC8]);
    })
    .unwrap();
    assert_eq!(got, reference_crc8(), "repair reloads the ROM image");
}

#[test]
fn eviction_then_reconfiguration_elsewhere_recompiles() {
    let mut os = os(ReconfigMode::Partial, &[ids::CRC8, ids::CRC32]);
    run(&mut os, ids::CRC8, INPUT).unwrap();
    write_mutated_crc8(&mut os);
    assert_ne!(run(&mut os, ids::CRC8, INPUT).unwrap(), reference_crc8());
    let old_frames = os.table().get(ids::CRC8).unwrap().frames.clone();
    os.evict(ids::CRC8).unwrap();
    assert_eq!(os.table().compiled_count(), 0);
    // CRC-32 takes the freed frames, so CRC-8 lands somewhere else
    run(&mut os, ids::CRC32, INPUT).unwrap();
    let got = run(&mut os, ids::CRC8, INPUT);
    let new_frames = &os.table().get(ids::CRC8).unwrap().frames;
    assert_ne!(*new_frames, old_frames);
    assert_eq!(got, fresh(&os, ids::CRC8, INPUT));
    assert_eq!(got.unwrap(), reference_crc8());
}

#[test]
fn reset_drops_every_compiled_form() {
    let mut os = os(ReconfigMode::Partial, &[ids::CRC8, ids::SHA1]);
    run(&mut os, ids::CRC8, INPUT).unwrap();
    write_mutated_crc8(&mut os);
    run(&mut os, ids::CRC8, INPUT).unwrap();
    run(&mut os, ids::SHA1, INPUT).unwrap();
    assert_eq!(os.table().compiled_count(), 2);
    os.reset();
    assert_eq!(os.table().compiled_count(), 0);
    let got = run(&mut os, ids::CRC8, INPUT);
    assert_eq!(got, fresh(&os, ids::CRC8, INPUT));
    assert_eq!(got.unwrap(), reference_crc8());
}

#[test]
fn other_functions_configuring_keep_the_compiled_form() {
    // A miss elsewhere advances the shared epoch; the hit that follows
    // re-decodes, finds the same payload and keeps its compiled form.
    let mut os = os(ReconfigMode::Partial, &[ids::CRC8, ids::CRC32, ids::XTEA]);
    run(&mut os, ids::CRC8, INPUT).unwrap();
    let first = compiled(&os, ids::CRC8);
    for (i, algo) in [ids::CRC32, ids::CRC8, ids::XTEA, ids::CRC8]
        .into_iter()
        .enumerate()
    {
        let got = run(&mut os, algo, &INPUT[i..]);
        assert_eq!(got, fresh(&os, algo, &INPUT[i..]));
    }
    assert!(Arc::ptr_eq(&first, &compiled(&os, ids::CRC8)));
    assert_eq!(os.table().compiled_count(), os.resident().len());
}

/// Evicts `algo` and configures it again from ROM (another function
/// takes the freed frames first when `other` is given).
fn evict_and_reconfigure(os: &mut MiniOs, algo: u16, other: Option<u16>) {
    os.evict(algo).unwrap();
    if let Some(other) = other {
        run(os, other, INPUT).unwrap();
    }
    let got = run(os, algo, INPUT);
    assert_eq!(got, fresh(os, algo, INPUT));
    assert!(got.is_ok(), "re-configured {algo} from ROM");
}

#[test]
fn evict_then_reconfigure_reuses_the_verified_function() {
    for algo in [ids::CRC8, ids::SHA1] {
        for other in [None, Some(ids::CRC32)] {
            let mut os = os(ReconfigMode::Partial, &[algo, ids::CRC32]);
            run(&mut os, algo, INPUT).unwrap();
            let first = compiled(&os, algo);
            let frames = os.table().get(algo).unwrap().frames.clone();
            evict_and_reconfigure(&mut os, algo, other);
            if other.is_some() {
                assert_ne!(os.table().get(algo).unwrap().frames, frames);
            }
            assert!(
                Arc::ptr_eq(&first, &compiled(&os, algo)),
                "{algo} after {other:?}: same bytes, same compiled function"
            );
        }
    }
}

#[test]
fn seu_or_torn_write_after_reconfiguration_fails_like_a_fresh_decode() {
    for algo in [ids::CRC8, ids::ADDER8, ids::SHA1] {
        for torn in [false, true] {
            let mut os = os(ReconfigMode::Partial, &[algo]);
            run(&mut os, algo, INPUT).unwrap();
            evict_and_reconfigure(&mut os, algo, None);
            let got = check_after(&mut os, algo, |os| {
                if torn {
                    assert!(os.inject_torn(algo));
                } else {
                    assert!(os.inject_seu(algo, &mut SplitMix64::new(u64::from(algo) + 1)));
                }
            });
            assert!(
                got.is_err(),
                "{algo} (torn: {torn}) must fail after re-configuration"
            );
        }
    }
}

#[test]
fn padding_flip_past_the_body_keeps_the_compiled_function() {
    let mut os = os(ReconfigMode::Partial, &[ids::CRC8, ids::CRC32]);
    run(&mut os, ids::CRC8, INPUT).unwrap();
    let first = compiled(&os, ids::CRC8);
    let frames = os.table().get(ids::CRC8).unwrap().frames.clone();
    let image = os.device().decode_function(&frames).unwrap();
    let frame_bytes = os.geometry().frame_bytes();
    let used_in_last = image.total_bytes() - (frames.len() - 1) * frame_bytes;
    assert!(used_in_last < frame_bytes, "the last frame has padding");
    let last = *frames.last().unwrap();
    let got = check_after(&mut os, ids::CRC8, |os| {
        os.device_mut().flip_bit(last, frame_bytes - 1, 3).unwrap();
    });
    assert_eq!(got.unwrap(), reference_crc8());
    assert!(Arc::ptr_eq(&first, &compiled(&os, ids::CRC8)));
    // a miss elsewhere and the next batch keep the same function
    run(&mut os, ids::CRC32, INPUT).unwrap();
    assert_eq!(run(&mut os, ids::CRC8, INPUT), Ok(reference_crc8()));
    assert!(Arc::ptr_eq(&first, &compiled(&os, ids::CRC8)));
}

#[test]
fn reset_empties_the_verified_images() {
    let mut os = os(ReconfigMode::Partial, &[ids::CRC8, ids::SHA1]);
    run(&mut os, ids::CRC8, INPUT).unwrap();
    run(&mut os, ids::SHA1, INPUT).unwrap();
    let before = compiled(&os, ids::CRC8);
    os.evict(ids::SHA1).unwrap();
    assert_eq!(os.verified_count(), 2, "eviction keeps the verified image");
    os.reset();
    assert_eq!(os.verified_count(), 0);
    assert!(os.verified_function(ids::CRC8).is_none());
    let got = run(&mut os, ids::CRC8, INPUT);
    assert_eq!(got, fresh(&os, ids::CRC8, INPUT));
    assert!(!Arc::ptr_eq(&before, &compiled(&os, ids::CRC8)));
    assert_eq!(os.verified_count(), 1);
}
