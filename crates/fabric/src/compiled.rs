//! Compiled function payloads: a decode kept for reuse.
//!
//! Reading a configured function back (frame readback, digest check,
//! netlist parse) yields the same [`FunctionKind`] for as long as its
//! frames stay untouched, so a controller can decode once per
//! configuration and hold the result as a [`CompiledFunction`]. For a
//! small streaming netlist the compiled form also carries the
//! netlist's next-state table ([`StreamTable`]), which turns the
//! per-byte netlist walk into one table lookup.
//!
//! Both are built *from the decoded netlist*, never from a golden
//! model, so they are exactly the configured function: a flipped
//! truth-table bit that still decodes changes the table too.

use crate::error::FabricError;
use crate::image::{
    netlist_io_bytes, run_decoded_netlist_batch, BatchScratch, FunctionKind, NetlistMode,
};
use crate::netlist::Netlist;
use std::fmt;

/// Largest streaming netlist (data byte + state bits) that is
/// tabulated: 16 inputs, i.e. up to 8 state bits and a 64 KiB table.
pub const MAX_TABLE_INPUTS: usize = 16;

/// Input-word patterns of the first six netlist inputs when lane `L`
/// of a 64-lane walk evaluates table index `64 * w + L`: word `j`
/// holds bit `j` of every lane number.
const LANE_INDEX_BITS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// The next-state table of a streaming netlist with at most
/// [`MAX_TABLE_INPUTS`] inputs.
///
/// Entry `byte | state << 8` is the state after the netlist consumes
/// `byte` in `state`, so running an input is one lookup per byte.
/// Outputs are byte-identical to [`crate::run_decoded_netlist`] on the
/// same netlist.
///
/// # Examples
///
/// ```
/// use aaod_fabric::{run_decoded_netlist, NetlistBuilder, NetlistMode, StreamTable};
///
/// // running XOR over the input bytes: state' = byte ^ state
/// let mut b = NetlistBuilder::new();
/// let data = b.inputs(8);
/// let state = b.inputs(8);
/// let next = b.xor_vec(&data, &state);
/// b.output_vec(&next);
/// let netlist = b.finish().unwrap();
/// let table = StreamTable::compile(&netlist, NetlistMode::Streaming).unwrap();
/// let input = [0xA5, 0x5A, 0xFF];
/// assert_eq!(table.run(&input), vec![0xA5 ^ 0x5A ^ 0xFF]);
/// assert_eq!(
///     table.run(&input),
///     run_decoded_netlist(&netlist, NetlistMode::Streaming, &input).unwrap()
/// );
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct StreamTable {
    next: Vec<u8>,
}

impl StreamTable {
    /// Tabulates `netlist` by evaluating it bit-sliced over all
    /// `2^n_inputs` input patterns, 64 per netlist walk.
    ///
    /// Returns `None` — leaving the netlist to the bit-sliced path —
    /// unless `mode` is [`NetlistMode::Streaming`], the netlist meets
    /// the streaming width contract (`8 + state` inputs) and it has at
    /// most [`MAX_TABLE_INPUTS`] inputs.
    pub fn compile(netlist: &Netlist, mode: NetlistMode) -> Option<StreamTable> {
        if mode != NetlistMode::Streaming
            || netlist_io_bytes(netlist, mode).is_err()
            || netlist.n_inputs() > MAX_TABLE_INPUTS
        {
            return None;
        }
        // 8 + state inputs with state >= 1, so at least 2^9 entries:
        // every walk fills all 64 lanes.
        let n_inputs = netlist.n_inputs();
        let mut next = vec![0u8; 1 << n_inputs];
        let mut in_words = vec![0u64; n_inputs];
        in_words[..6].copy_from_slice(&LANE_INDEX_BITS);
        let mut out_words = vec![0u64; netlist.n_outputs()];
        let mut nets = Vec::new();
        for (walk, entries) in next.chunks_mut(64).enumerate() {
            for (j, word) in in_words.iter_mut().enumerate().skip(6) {
                *word = 0u64.wrapping_sub(((walk >> (j - 6)) & 1) as u64);
            }
            netlist.eval_words(&in_words, &mut out_words, &mut nets);
            for (k, word) in out_words.iter().enumerate() {
                let mut set = *word;
                while set != 0 {
                    entries[set.trailing_zeros() as usize] |= 1 << k;
                    set &= set - 1;
                }
            }
        }
        Some(StreamTable { next })
    }

    /// Runs one input from the zero state and returns the final state
    /// as one byte, exactly as [`crate::run_decoded_netlist`] does.
    pub fn run(&self, input: &[u8]) -> Vec<u8> {
        let mut state = 0usize;
        for &byte in input {
            state = usize::from(self.next[usize::from(byte) | state << 8]);
        }
        vec![state as u8]
    }
}

impl fmt::Debug for StreamTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StreamTable")
            .field("entries", &self.next.len())
            .finish()
    }
}

/// A decoded function payload held for reuse, with the next-state
/// table of a small streaming netlist.
///
/// # Examples
///
/// ```
/// use aaod_fabric::{BatchScratch, CompiledFunction, FunctionKind};
///
/// let compiled = CompiledFunction::new(FunctionKind::Behavioral { params: vec![1, 2] });
/// assert!(!compiled.is_tabulated());
/// // behavioural payloads are the caller's to dispatch
/// let mut scratch = BatchScratch::default();
/// assert_eq!(compiled.run_netlist_batch(&[&[0u8][..]], &mut scratch).unwrap(), None);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledFunction {
    kind: FunctionKind,
    table: Option<StreamTable>,
}

impl CompiledFunction {
    /// Compiles a decoded payload, tabulating it when
    /// [`StreamTable::compile`] accepts it.
    pub fn new(kind: FunctionKind) -> Self {
        let table = match &kind {
            FunctionKind::Netlist { netlist, mode } => StreamTable::compile(netlist, *mode),
            FunctionKind::Behavioral { .. } => None,
        };
        CompiledFunction { kind, table }
    }

    /// The decoded payload.
    pub fn kind(&self) -> &FunctionKind {
        &self.kind
    }

    /// Whether a next-state table runs this function.
    pub fn is_tabulated(&self) -> bool {
        self.table.is_some()
    }

    /// Runs a netlist payload on every input: through the table when
    /// there is one, otherwise bit-sliced
    /// ([`run_decoded_netlist_batch`]). Returns `Ok(None)` for a
    /// behavioural payload.
    ///
    /// # Errors
    ///
    /// As [`run_decoded_netlist_batch`] (the width contract).
    pub fn run_netlist_batch(
        &self,
        inputs: &[&[u8]],
        scratch: &mut BatchScratch,
    ) -> Result<Option<Vec<Vec<u8>>>, FabricError> {
        match (&self.table, &self.kind) {
            (Some(table), _) => Ok(Some(inputs.iter().map(|i| table.run(i)).collect())),
            (None, FunctionKind::Netlist { netlist, mode }) => {
                run_decoded_netlist_batch(netlist, *mode, inputs, scratch).map(Some)
            }
            (None, FunctionKind::Behavioral { .. }) => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::run_decoded_netlist;
    use crate::netlist::{Lut, NetId, NetlistBuilder};
    use aaod_sim::SplitMix64;

    /// A random streaming netlist: `8 + state_bits` inputs, random
    /// LUTs over every net defined so far, `state_bits` outputs.
    fn random_streaming(rng: &mut SplitMix64, state_bits: usize) -> Netlist {
        let mut b = NetlistBuilder::new();
        let inputs = b.inputs(8 + state_bits);
        let mut nets: Vec<NetId> = vec![b.zero(), b.one()];
        nets.extend(&inputs);
        for _ in 0..1 + rng.index(40) {
            let ins = [(); 4].map(|_| nets[rng.index(nets.len())]);
            let out = b.lut4(rng.next_u64() as u16, ins);
            nets.push(out);
        }
        for _ in 0..state_bits {
            b.output(nets[rng.index(nets.len())]);
        }
        b.finish().unwrap()
    }

    fn random_inputs(rng: &mut SplitMix64) -> Vec<Vec<u8>> {
        let mut lens = vec![0, 1, 2048];
        lens.extend((0..3).map(|_| rng.index(2049)));
        lens.into_iter()
            .map(|len| {
                let mut v = vec![0u8; len];
                rng.fill(&mut v);
                v
            })
            .collect()
    }

    /// The table, the scalar walk and the bit-sliced batch agree on
    /// every input, and the compiled form takes the table.
    fn assert_paths_agree(netlist: &Netlist, inputs: &[Vec<u8>], what: &str) {
        let mode = NetlistMode::Streaming;
        let table = StreamTable::compile(netlist, mode).expect("small streaming netlist");
        let refs: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
        let sliced =
            run_decoded_netlist_batch(netlist, mode, &refs, &mut BatchScratch::default()).unwrap();
        let compiled = CompiledFunction::new(FunctionKind::Netlist {
            netlist: netlist.clone(),
            mode,
        });
        assert!(compiled.is_tabulated(), "{what}");
        let via_compiled = compiled
            .run_netlist_batch(&refs, &mut BatchScratch::default())
            .unwrap()
            .unwrap();
        for (i, input) in refs.iter().enumerate() {
            let scalar = run_decoded_netlist(netlist, mode, input).unwrap();
            let got = table.run(input);
            assert!(
                usize::from(got[0]) < 1 << netlist.n_outputs(),
                "{what}: state escaped its {} bits",
                netlist.n_outputs()
            );
            assert_eq!(got, scalar, "{what}: table vs scalar, {} B", input.len());
            assert_eq!(got, sliced[i], "{what}: table vs sliced, {} B", input.len());
            assert_eq!(
                via_compiled[i],
                scalar,
                "{what}: compiled, {} B",
                input.len()
            );
        }
    }

    #[test]
    fn table_matches_scalar_and_sliced_on_random_streaming_netlists() {
        // Deterministic randomized sweep in the style of the netlist
        // evaluator's: every state width 1-8, inputs 0-2048 bytes.
        for seed in 0..32u64 {
            let mut rng = SplitMix64::new(0x7ab1_e000 + seed);
            let state_bits = 1 + (seed as usize % 8);
            let netlist = random_streaming(&mut rng, state_bits);
            let inputs = random_inputs(&mut rng);
            assert_paths_agree(&netlist, &inputs, &format!("seed {seed}"));
        }
    }

    #[test]
    fn one_flipped_truth_bit_changes_the_table() {
        let mut b = NetlistBuilder::new();
        let data = b.inputs(8);
        let state = b.inputs(8);
        let next = b.xor_vec(&data, &state);
        b.output_vec(&next);
        let netlist = b.finish().unwrap();
        let mut luts: Vec<Lut> = netlist.luts().to_vec();
        // state bit 3 now also fires when data and state bit 3 are both 0
        luts[3].truth ^= 1;
        let mutated =
            Netlist::from_parts(16, luts, netlist.outputs().to_vec()).expect("still valid");
        let mut rng = SplitMix64::new(0xf11b);
        let inputs = random_inputs(&mut rng);
        assert_paths_agree(&mutated, &inputs, "mutated");
        let mode = NetlistMode::Streaming;
        let original = StreamTable::compile(&netlist, mode).unwrap();
        let flipped = StreamTable::compile(&mutated, mode).unwrap();
        assert_ne!(original, flipped);
        assert_eq!(original.run(&[0x00]), vec![0x00]);
        assert_eq!(flipped.run(&[0x00]), vec![0x08]);
    }

    #[test]
    fn wide_or_combinational_netlists_keep_the_sliced_path() {
        let mut rng = SplitMix64::new(0x51_1ced);
        let mode = NetlistMode::Streaming;
        for state_bits in [9, 12] {
            let netlist = random_streaming(&mut rng, state_bits);
            assert!(netlist.n_inputs() > MAX_TABLE_INPUTS);
            assert!(StreamTable::compile(&netlist, mode).is_none());
            let inputs = random_inputs(&mut rng);
            let refs: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
            let compiled = CompiledFunction::new(FunctionKind::Netlist {
                netlist: netlist.clone(),
                mode,
            });
            assert!(!compiled.is_tabulated());
            let mut scratch = BatchScratch::default();
            assert_eq!(
                compiled.run_netlist_batch(&refs, &mut scratch).unwrap(),
                Some(run_decoded_netlist_batch(&netlist, mode, &refs, &mut scratch).unwrap())
            );
        }
        // a 16-input combinational netlist is not a stream
        let combinational = random_streaming(&mut rng, 8);
        assert!(StreamTable::compile(&combinational, NetlistMode::Combinational).is_none());
    }

    #[test]
    fn width_contract_errors_are_the_sliced_paths() {
        // 8 inputs but one output: not 8 + state, so no table, and the
        // compiled form reports the batch path's error.
        let mut b = NetlistBuilder::new();
        let ins = b.inputs(8);
        b.output(ins[0]);
        let netlist = b.finish().unwrap();
        let mode = NetlistMode::Streaming;
        assert!(StreamTable::compile(&netlist, mode).is_none());
        let compiled = CompiledFunction::new(FunctionKind::Netlist {
            netlist: netlist.clone(),
            mode,
        });
        let mut scratch = BatchScratch::default();
        let inputs: [&[u8]; 1] = [&[1, 2]];
        assert_eq!(
            compiled.run_netlist_batch(&inputs, &mut scratch),
            Err(run_decoded_netlist_batch(&netlist, mode, &inputs, &mut scratch).unwrap_err())
        );
    }
}
