//! LUT-level netlist intermediate representation and evaluator.
//!
//! Small co-processor functions are represented as genuine technology-
//! mapped netlists of 4-input LUTs. A [`NetlistBuilder`] provides gate
//! primitives (built on [`NetlistBuilder::lut4`]); the finished
//! [`Netlist`] is serialised into configuration frames by
//! [`crate::image::FunctionImage`] and — crucially — *decoded from
//! those frame bytes*, again after any configuration change, so the
//! fabric really computes from its configured bits.
//!
//! # Net numbering
//!
//! Nets are assigned densely:
//!
//! * net 0 — constant 0
//! * net 1 — constant 1
//! * nets `2 .. 2+n_inputs` — primary inputs
//! * net `2 + n_inputs + i` — output of LUT `i`
//!
//! Because a LUT may only read nets that already exist, LUT order is a
//! topological order and evaluation is a single forward pass.

use crate::error::FabricError;
use std::fmt;

/// Identifier of a net (wire) in a netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NetId(pub u16);

impl NetId {
    /// The constant-0 net.
    pub const ZERO: NetId = NetId(0);
    /// The constant-1 net.
    pub const ONE: NetId = NetId(1);

    /// Numeric index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A 4-input lookup table.
///
/// `truth` bit `i` gives the output for input pattern `i`, where the
/// pattern packs inputs as `a | b<<1 | c<<2 | d<<3`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Lut {
    /// The four input nets (unused inputs are tied to [`NetId::ZERO`]).
    pub inputs: [NetId; 4],
    /// 16-bit truth table.
    pub truth: u16,
}

/// A validated, evaluable LUT netlist.
///
/// Construct with [`NetlistBuilder`]; obtain from configured frames via
/// [`crate::image::FunctionImage`]. The structure is immutable after
/// construction so the evaluation order stays valid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Netlist {
    n_inputs: u16,
    luts: Vec<Lut>,
    outputs: Vec<NetId>,
}

impl Netlist {
    /// Assembles and validates a netlist from raw parts (used by the
    /// frame decoder; library users should prefer [`NetlistBuilder`]).
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::NetlistInvalid`] if any LUT reads a net
    /// at or beyond its own output net (which would break topological
    /// evaluation), or an output references a non-existent net.
    pub fn from_parts(
        n_inputs: u16,
        luts: Vec<Lut>,
        outputs: Vec<NetId>,
    ) -> Result<Self, FabricError> {
        let first_lut_net = 2 + n_inputs as usize;
        for (i, lut) in luts.iter().enumerate() {
            let own = first_lut_net + i;
            for inp in lut.inputs {
                if inp.index() >= own {
                    return Err(FabricError::NetlistInvalid(format!(
                        "LUT {i} reads net {inp} which is not defined before it"
                    )));
                }
            }
        }
        let n_nets = first_lut_net + luts.len();
        for out in &outputs {
            if out.index() >= n_nets {
                return Err(FabricError::NetlistInvalid(format!(
                    "output references undefined net {out}"
                )));
            }
        }
        if outputs.is_empty() {
            return Err(FabricError::NetlistInvalid("netlist has no outputs".into()));
        }
        Ok(Netlist {
            n_inputs,
            luts,
            outputs,
        })
    }

    /// Number of primary inputs.
    pub fn n_inputs(&self) -> usize {
        self.n_inputs as usize
    }

    /// Number of primary outputs.
    pub fn n_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Number of LUTs (the area cost in logic cells).
    pub fn n_luts(&self) -> usize {
        self.luts.len()
    }

    /// The LUTs in topological order.
    pub fn luts(&self) -> &[Lut] {
        &self.luts
    }

    /// The output nets in order.
    pub fn outputs(&self) -> &[NetId] {
        &self.outputs
    }

    /// Combinational logic depth: the longest LUT chain from any input
    /// to any output. Used by the timing model for the fabric clock.
    pub fn depth(&self) -> usize {
        let first_lut_net = 2 + self.n_inputs as usize;
        let mut level = vec![0usize; first_lut_net + self.luts.len()];
        for (i, lut) in self.luts.iter().enumerate() {
            let l = lut
                .inputs
                .iter()
                .map(|n| level[n.index()])
                .max()
                .unwrap_or(0);
            level[first_lut_net + i] = l + 1;
        }
        self.outputs
            .iter()
            .map(|n| level[n.index()])
            .max()
            .unwrap_or(0)
    }

    /// Evaluates the netlist combinationally.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.n_inputs()` — the caller (the
    /// data-input module) is responsible for width framing.
    pub fn eval(&self, inputs: &[bool]) -> Vec<bool> {
        assert_eq!(
            inputs.len(),
            self.n_inputs(),
            "input width mismatch: netlist has {} inputs",
            self.n_inputs()
        );
        let first_lut_net = 2 + self.n_inputs as usize;
        let mut nets = vec![false; first_lut_net + self.luts.len()];
        nets[1] = true;
        nets[2..first_lut_net].copy_from_slice(inputs);
        for (i, lut) in self.luts.iter().enumerate() {
            let idx = (nets[lut.inputs[0].index()] as usize)
                | (nets[lut.inputs[1].index()] as usize) << 1
                | (nets[lut.inputs[2].index()] as usize) << 2
                | (nets[lut.inputs[3].index()] as usize) << 3;
            nets[first_lut_net + i] = (lut.truth >> idx) & 1 == 1;
        }
        self.outputs.iter().map(|n| nets[n.index()]).collect()
    }

    /// Evaluates up to 64 independent input vectors in one bit-parallel
    /// pass ("bit slicing"): word `i` of `input_words` carries bit `i`
    /// of every lane (lane `L` in bit position `L`), and the netlist is
    /// walked once with each net holding a `u64` of 64 lane values.
    /// Each LUT costs one Shannon mux-tree reduction of its 16-bit
    /// truth table instead of 64 separate table lookups.
    ///
    /// `scratch` is a reusable net buffer; it is resized as needed so a
    /// caller evaluating many batches allocates only once.
    ///
    /// # Panics
    ///
    /// Panics if `input_words.len() != self.n_inputs()` or
    /// `out_words.len() != self.n_outputs()`.
    pub fn eval_words(&self, input_words: &[u64], out_words: &mut [u64], scratch: &mut Vec<u64>) {
        assert_eq!(
            input_words.len(),
            self.n_inputs(),
            "input width mismatch: netlist has {} inputs",
            self.n_inputs()
        );
        assert_eq!(
            out_words.len(),
            self.n_outputs(),
            "output width mismatch: netlist has {} outputs",
            self.n_outputs()
        );
        let first_lut_net = 2 + self.n_inputs as usize;
        let total = first_lut_net + self.luts.len();
        // Every cell below is written before it is read (constants,
        // inputs, then LUTs in topological order), so the buffer is
        // resized without re-zeroing stale contents on reuse.
        if scratch.len() != total {
            scratch.clear();
            scratch.resize(total, 0);
        }
        scratch[0] = 0;
        scratch[1] = !0u64;
        scratch[2..first_lut_net].copy_from_slice(input_words);
        for (i, lut) in self.luts.iter().enumerate() {
            let a = scratch[lut.inputs[0].index()];
            let b = scratch[lut.inputs[1].index()];
            let c = scratch[lut.inputs[2].index()];
            let d = scratch[lut.inputs[3].index()];
            scratch[first_lut_net + i] = lut_word(lut.truth, a, b, c, d);
        }
        for (o, out) in self.outputs.iter().enumerate() {
            out_words[o] = scratch[out.index()];
        }
    }

    /// Evaluates a batch of input vectors bit-sliced, 64 lanes at a
    /// time, returning one output vector per input in order.
    /// Byte-for-byte identical to calling [`Netlist::eval`] on each
    /// input (property-tested).
    ///
    /// # Panics
    ///
    /// Panics if any input's width differs from [`Netlist::n_inputs`].
    pub fn eval_batch(&self, inputs: &[&[bool]]) -> Vec<Vec<bool>> {
        let n_in = self.n_inputs();
        let n_out = self.n_outputs();
        let mut results = vec![Vec::new(); inputs.len()];
        let mut in_words = vec![0u64; n_in];
        let mut out_words = vec![0u64; n_out];
        let mut scratch = Vec::new();
        for (group_idx, group) in inputs.chunks(64).enumerate() {
            in_words.fill(0);
            for (lane, inp) in group.iter().enumerate() {
                assert_eq!(
                    inp.len(),
                    n_in,
                    "input width mismatch: netlist has {n_in} inputs"
                );
                for (i, &bit) in inp.iter().enumerate() {
                    if bit {
                        in_words[i] |= 1u64 << lane;
                    }
                }
            }
            self.eval_words(&in_words, &mut out_words, &mut scratch);
            for lane in 0..group.len() {
                let out = &mut results[group_idx * 64 + lane];
                out.reserve_exact(n_out);
                for w in out_words.iter() {
                    out.push((w >> lane) & 1 == 1);
                }
            }
        }
        results
    }
}

/// Evaluates one 4-input LUT over 64 lanes at once: a Shannon
/// mux-tree reduction of the 16-bit truth table using bitwise word
/// operations (7 muxes + 8 leaf selections instead of 64 scalar
/// table lookups).
#[inline]
fn lut_word(truth: u16, a: u64, b: u64, c: u64, d: u64) -> u64 {
    #[inline]
    fn t2(t: u16, a: u64) -> u64 {
        // 2-bit truth over `a`: bit 0 = value at a=0, bit 1 = at a=1.
        // Branchless: each truth bit broadcasts to a full lane mask so
        // the evaluator never mispredicts on data-dependent truths.
        let at0 = 0u64.wrapping_sub((t & 1) as u64);
        let at1 = 0u64.wrapping_sub(((t >> 1) & 1) as u64);
        (at1 & a) | (at0 & !a)
    }
    #[inline]
    fn t4(t: u16, a: u64, b: u64) -> u64 {
        let lo = t2(t, a);
        let hi = t2(t >> 2, a);
        (hi & b) | (lo & !b)
    }
    let f0 = t4(truth, a, b); // c=0, d=0
    let f1 = t4(truth >> 4, a, b); // c=1, d=0
    let f2 = t4(truth >> 8, a, b); // c=0, d=1
    let f3 = t4(truth >> 12, a, b); // c=1, d=1
    let g0 = (f1 & c) | (f0 & !c);
    let g1 = (f3 & c) | (f2 & !c);
    (g1 & d) | (g0 & !d)
}

/// Incremental netlist construction with gate-level helpers.
///
/// # Examples
///
/// A 1-bit full adder:
///
/// ```
/// use aaod_fabric::NetlistBuilder;
///
/// let mut b = NetlistBuilder::new();
/// let a = b.input();
/// let c = b.input();
/// let cin = b.input();
/// let (sum, cout) = b.full_adder(a, c, cin);
/// b.output(sum);
/// b.output(cout);
/// let nl = b.finish().unwrap();
/// assert_eq!(nl.eval(&[true, true, false]), vec![false, true]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct NetlistBuilder {
    n_inputs: u16,
    inputs_frozen: bool,
    luts: Vec<Lut>,
    outputs: Vec<NetId>,
}

impl NetlistBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        NetlistBuilder::default()
    }

    /// Declares the next primary input and returns its net.
    ///
    /// # Panics
    ///
    /// Panics if called after the first LUT has been placed (inputs
    /// must be declared first so net numbering stays dense) or if more
    /// than 4094 inputs are declared.
    pub fn input(&mut self) -> NetId {
        assert!(
            !self.inputs_frozen,
            "all inputs must be declared before any logic"
        );
        assert!(self.n_inputs < 4094, "too many inputs");
        let id = NetId(2 + self.n_inputs);
        self.n_inputs += 1;
        id
    }

    /// Declares `n` inputs at once.
    pub fn inputs(&mut self, n: usize) -> Vec<NetId> {
        (0..n).map(|_| self.input()).collect()
    }

    /// The constant-0 net.
    pub fn zero(&self) -> NetId {
        NetId::ZERO
    }

    /// The constant-1 net.
    pub fn one(&self) -> NetId {
        NetId::ONE
    }

    /// Places a 4-input LUT and returns its output net.
    ///
    /// # Panics
    ///
    /// Panics if any input net is not yet defined, or the design
    /// exceeds the 16-bit net space.
    pub fn lut4(&mut self, truth: u16, inputs: [NetId; 4]) -> NetId {
        self.inputs_frozen = true;
        let own = 2 + self.n_inputs as usize + self.luts.len();
        for inp in inputs {
            assert!(
                inp.index() < own,
                "LUT input {inp} is not defined before the LUT"
            );
        }
        assert!(own < u16::MAX as usize, "net space exhausted");
        self.luts.push(Lut { inputs, truth });
        NetId(own as u16)
    }

    /// NOT gate.
    pub fn not(&mut self, a: NetId) -> NetId {
        // Output 1 when input pattern has bit a = 0: patterns 0,2,4,..
        self.lut4(0x5555, [a, NetId::ZERO, NetId::ZERO, NetId::ZERO])
    }

    /// 2-input AND.
    pub fn and2(&mut self, a: NetId, b: NetId) -> NetId {
        self.lut4(0x8888, [a, b, NetId::ZERO, NetId::ZERO])
    }

    /// 2-input OR.
    pub fn or2(&mut self, a: NetId, b: NetId) -> NetId {
        self.lut4(0xEEEE, [a, b, NetId::ZERO, NetId::ZERO])
    }

    /// 2-input XOR.
    pub fn xor2(&mut self, a: NetId, b: NetId) -> NetId {
        self.lut4(0x6666, [a, b, NetId::ZERO, NetId::ZERO])
    }

    /// 3-input XOR (single LUT).
    pub fn xor3(&mut self, a: NetId, b: NetId, c: NetId) -> NetId {
        self.lut4(0x9696, [a, b, c, NetId::ZERO])
    }

    /// 2:1 multiplexer: returns `a` when `sel` is 0, else `b`.
    pub fn mux2(&mut self, sel: NetId, a: NetId, b: NetId) -> NetId {
        // inputs [sel, a, b, -]; out = sel ? b : a
        // pattern bits: sel=bit0, a=bit1, b=bit2
        let mut truth = 0u16;
        for p in 0..16u16 {
            let sel_v = p & 1 != 0;
            let a_v = p & 2 != 0;
            let b_v = p & 4 != 0;
            if if sel_v { b_v } else { a_v } {
                truth |= 1 << p;
            }
        }
        self.lut4(truth, [sel, a, b, NetId::ZERO])
    }

    /// Majority of three (carry function).
    pub fn maj3(&mut self, a: NetId, b: NetId, c: NetId) -> NetId {
        self.lut4(0xE8E8, [a, b, c, NetId::ZERO])
    }

    /// Full adder: returns `(sum, carry_out)`.
    pub fn full_adder(&mut self, a: NetId, b: NetId, cin: NetId) -> (NetId, NetId) {
        let sum = self.xor3(a, b, cin);
        let carry = self.maj3(a, b, cin);
        (sum, carry)
    }

    /// Ripple-carry adder over little-endian bit vectors; returns the
    /// sum bits (same width) and the final carry.
    ///
    /// # Panics
    ///
    /// Panics if the operand widths differ.
    pub fn ripple_add(&mut self, a: &[NetId], b: &[NetId]) -> (Vec<NetId>, NetId) {
        assert_eq!(a.len(), b.len(), "adder operands must have equal width");
        let mut carry = NetId::ZERO;
        let mut sum = Vec::with_capacity(a.len());
        for (&x, &y) in a.iter().zip(b) {
            let (s, c) = self.full_adder(x, y, carry);
            sum.push(s);
            carry = c;
        }
        (sum, carry)
    }

    /// XOR of two equal-width bit vectors.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn xor_vec(&mut self, a: &[NetId], b: &[NetId]) -> Vec<NetId> {
        assert_eq!(a.len(), b.len(), "xor operands must have equal width");
        a.iter().zip(b).map(|(&x, &y)| self.xor2(x, y)).collect()
    }

    /// Reduces a set of nets with XOR (balanced tree of 3-input XORs).
    ///
    /// # Panics
    ///
    /// Panics if `nets` is empty.
    pub fn xor_reduce(&mut self, nets: &[NetId]) -> NetId {
        assert!(!nets.is_empty(), "cannot reduce an empty net set");
        let mut layer: Vec<NetId> = nets.to_vec();
        while layer.len() > 1 {
            let mut next = Vec::with_capacity(layer.len().div_ceil(3));
            for chunk in layer.chunks(3) {
                next.push(match *chunk {
                    [a] => a,
                    [a, b] => self.xor2(a, b),
                    [a, b, c] => self.xor3(a, b, c),
                    _ => unreachable!(),
                });
            }
            layer = next;
        }
        layer[0]
    }

    /// Marks a net as the next primary output.
    pub fn output(&mut self, net: NetId) {
        self.outputs.push(net);
    }

    /// Marks each net of a vector as an output, in order.
    pub fn output_vec(&mut self, nets: &[NetId]) {
        self.outputs.extend_from_slice(nets);
    }

    /// Finalises and validates the netlist.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::NetlistInvalid`] if no outputs were
    /// declared (validation of net ordering is enforced during
    /// construction).
    pub fn finish(self) -> Result<Netlist, FabricError> {
        Netlist::from_parts(self.n_inputs, self.luts, self.outputs)
    }
}

/// Converts a byte slice to little-endian-bit booleans (bit 0 of byte 0
/// first), the wire framing the data-input module uses.
pub fn bytes_to_bits(bytes: &[u8]) -> Vec<bool> {
    let mut bits = Vec::with_capacity(bytes.len() * 8);
    for &b in bytes {
        for i in 0..8 {
            bits.push((b >> i) & 1 == 1);
        }
    }
    bits
}

/// Packs booleans back into bytes (inverse of [`bytes_to_bits`]); a
/// trailing partial byte is zero-padded in its high bits.
pub fn bits_to_bytes(bits: &[bool]) -> Vec<u8> {
    let mut bytes = vec![0u8; bits.len().div_ceil(8)];
    for (i, &bit) in bits.iter().enumerate() {
        if bit {
            bytes[i / 8] |= 1 << (i % 8);
        }
    }
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval1(nl: &Netlist, inputs: &[bool]) -> bool {
        nl.eval(inputs)[0]
    }

    #[test]
    fn basic_gates_truth_tables() {
        for (build, table) in [
            (
                Box::new(|b: &mut NetlistBuilder, x, y| b.and2(x, y))
                    as Box<dyn Fn(&mut NetlistBuilder, NetId, NetId) -> NetId>,
                [false, false, false, true],
            ),
            (
                Box::new(|b: &mut NetlistBuilder, x, y| b.or2(x, y)),
                [false, true, true, true],
            ),
            (
                Box::new(|b: &mut NetlistBuilder, x, y| b.xor2(x, y)),
                [false, true, true, false],
            ),
        ] {
            let mut b = NetlistBuilder::new();
            let x = b.input();
            let y = b.input();
            let o = build(&mut b, x, y);
            b.output(o);
            let nl = b.finish().unwrap();
            for (i, &want) in table.iter().enumerate() {
                let a = i & 1 == 1;
                let c = i & 2 == 2;
                assert_eq!(eval1(&nl, &[a, c]), want, "pattern {i}");
            }
        }
    }

    #[test]
    fn not_gate() {
        let mut b = NetlistBuilder::new();
        let x = b.input();
        let o = b.not(x);
        b.output(o);
        let nl = b.finish().unwrap();
        assert!(eval1(&nl, &[false]));
        assert!(!eval1(&nl, &[true]));
    }

    #[test]
    fn mux2_selects() {
        let mut b = NetlistBuilder::new();
        let sel = b.input();
        let x = b.input();
        let y = b.input();
        let o = b.mux2(sel, x, y);
        b.output(o);
        let nl = b.finish().unwrap();
        assert!(eval1(&nl, &[false, true, false])); // sel=0 -> x
        assert!(!eval1(&nl, &[true, true, false])); // sel=1 -> y
    }

    #[test]
    fn full_adder_all_patterns() {
        let mut b = NetlistBuilder::new();
        let x = b.input();
        let y = b.input();
        let cin = b.input();
        let (s, c) = b.full_adder(x, y, cin);
        b.output(s);
        b.output(c);
        let nl = b.finish().unwrap();
        for p in 0..8 {
            let a = p & 1;
            let bb = (p >> 1) & 1;
            let ci = (p >> 2) & 1;
            let out = nl.eval(&[a == 1, bb == 1, ci == 1]);
            let total = a + bb + ci;
            assert_eq!(out[0], total & 1 == 1, "sum for {p}");
            assert_eq!(out[1], total >= 2, "carry for {p}");
        }
    }

    #[test]
    fn ripple_add_8bit_exhaustive_sample() {
        let mut b = NetlistBuilder::new();
        let a = b.inputs(8);
        let c = b.inputs(8);
        let (sum, carry) = b.ripple_add(&a, &c);
        b.output_vec(&sum);
        b.output(carry);
        let nl = b.finish().unwrap();
        for (x, y) in [(0u16, 0u16), (1, 1), (255, 1), (200, 100), (255, 255)] {
            let mut inp = bytes_to_bits(&[x as u8]);
            inp.extend(bytes_to_bits(&[y as u8]));
            let out = nl.eval(&inp);
            let got = bits_to_bytes(&out[..8])[0] as u16 + ((out[8] as u16) << 8);
            assert_eq!(got, x + y, "{x}+{y}");
        }
    }

    #[test]
    fn xor_reduce_parity() {
        let mut b = NetlistBuilder::new();
        let ins = b.inputs(8);
        let p = b.xor_reduce(&ins);
        b.output(p);
        let nl = b.finish().unwrap();
        for byte in [0u8, 1, 3, 0xFF, 0xA5] {
            let bits = bytes_to_bits(&[byte]);
            assert_eq!(
                eval1(&nl, &bits),
                byte.count_ones() % 2 == 1,
                "byte {byte:#x}"
            );
        }
    }

    #[test]
    fn depth_counts_longest_chain() {
        let mut b = NetlistBuilder::new();
        let x = b.input();
        let y = b.input();
        let n1 = b.and2(x, y);
        let n2 = b.or2(n1, y);
        let n3 = b.xor2(n2, n1);
        b.output(n3);
        let nl = b.finish().unwrap();
        assert_eq!(nl.depth(), 3);
        assert_eq!(nl.n_luts(), 3);
    }

    #[test]
    fn from_parts_rejects_forward_reference() {
        // A LUT that reads its own output net.
        let lut = Lut {
            inputs: [NetId(2), NetId::ZERO, NetId::ZERO, NetId::ZERO],
            truth: 0xFFFF,
        };
        let err = Netlist::from_parts(0, vec![lut], vec![NetId(2)]).unwrap_err();
        assert!(matches!(err, FabricError::NetlistInvalid(_)));
    }

    #[test]
    fn from_parts_rejects_dangling_output() {
        let err = Netlist::from_parts(1, vec![], vec![NetId(99)]).unwrap_err();
        assert!(matches!(err, FabricError::NetlistInvalid(_)));
    }

    #[test]
    fn from_parts_rejects_empty_outputs() {
        let err = Netlist::from_parts(1, vec![], vec![]).unwrap_err();
        assert!(matches!(err, FabricError::NetlistInvalid(_)));
    }

    #[test]
    #[should_panic(expected = "before any logic")]
    fn input_after_logic_panics() {
        let mut b = NetlistBuilder::new();
        let x = b.input();
        let _ = b.not(x);
        let _ = b.input();
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn eval_wrong_width_panics() {
        let mut b = NetlistBuilder::new();
        let x = b.input();
        b.output(x);
        let nl = b.finish().unwrap();
        let _ = nl.eval(&[]);
    }

    #[test]
    fn bits_bytes_roundtrip() {
        let data = [0x00u8, 0xFF, 0xA5, 0x3C, 0x01];
        assert_eq!(bits_to_bytes(&bytes_to_bits(&data)), data);
    }

    #[test]
    fn lut_word_matches_scalar_for_all_truths() {
        // Every truth table, every input pattern, via lane broadcast.
        for truth in [
            0u16, 0xFFFF, 0x5555, 0x8888, 0x6666, 0x9696, 0xE8E8, 0xCA35, 0x1234,
        ] {
            for p in 0..16u32 {
                let a = if p & 1 != 0 { !0u64 } else { 0 };
                let b = if p & 2 != 0 { !0u64 } else { 0 };
                let c = if p & 4 != 0 { !0u64 } else { 0 };
                let d = if p & 8 != 0 { !0u64 } else { 0 };
                let want = if (truth >> p) & 1 == 1 { !0u64 } else { 0 };
                assert_eq!(
                    lut_word(truth, a, b, c, d),
                    want,
                    "truth {truth:#06x} pattern {p}"
                );
            }
        }
    }

    #[test]
    fn eval_batch_matches_scalar_full_adder() {
        let mut b = NetlistBuilder::new();
        let x = b.input();
        let y = b.input();
        let cin = b.input();
        let (s, c) = b.full_adder(x, y, cin);
        b.output(s);
        b.output(c);
        let nl = b.finish().unwrap();
        let patterns: Vec<Vec<bool>> = (0..8u8)
            .map(|p| vec![p & 1 != 0, p & 2 != 0, p & 4 != 0])
            .collect();
        let refs: Vec<&[bool]> = patterns.iter().map(|p| p.as_slice()).collect();
        let batch = nl.eval_batch(&refs);
        for (inp, got) in patterns.iter().zip(&batch) {
            assert_eq!(*got, nl.eval(inp));
        }
    }

    #[test]
    fn eval_batch_spans_multiple_lane_groups() {
        // More than 64 lanes so the second word group is exercised.
        let mut b = NetlistBuilder::new();
        let ins = b.inputs(8);
        let p = b.xor_reduce(&ins);
        b.output(p);
        let nl = b.finish().unwrap();
        let patterns: Vec<Vec<bool>> = (0..150u8).map(|v| bytes_to_bits(&[v])).collect();
        let refs: Vec<&[bool]> = patterns.iter().map(|p| p.as_slice()).collect();
        let batch = nl.eval_batch(&refs);
        assert_eq!(batch.len(), 150);
        for (inp, got) in patterns.iter().zip(&batch) {
            assert_eq!(*got, nl.eval(inp));
        }
    }

    #[test]
    fn eval_batch_matches_scalar_on_random_netlists() {
        // Deterministic randomized sweep (the tier-1 stand-in for the
        // feature-gated proptest suite): random topologies, widths and
        // lane counts, including counts that do not divide 64.
        for seed in 0..24u64 {
            let mut rng = aaod_sim::SplitMix64::new(0x5eed_0000 + seed);
            let n_inputs = 1 + rng.index(12);
            let mut b = NetlistBuilder::new();
            let inputs = b.inputs(n_inputs);
            let mut nets: Vec<NetId> = vec![b.zero(), b.one()];
            nets.extend(&inputs);
            for _ in 0..1 + rng.index(50) {
                let truth = rng.next_u64() as u16;
                let ins = [
                    nets[rng.index(nets.len())],
                    nets[rng.index(nets.len())],
                    nets[rng.index(nets.len())],
                    nets[rng.index(nets.len())],
                ];
                let out = b.lut4(truth, ins);
                nets.push(out);
            }
            for _ in 0..1 + rng.index(4) {
                let net = nets[rng.index(nets.len())];
                b.output(net);
            }
            let nl = b.finish().unwrap();
            let n_lanes = [1, 63, 64, 65, 130][rng.index(5)];
            let lanes: Vec<Vec<bool>> = (0..n_lanes)
                .map(|_| (0..n_inputs).map(|_| rng.chance(0.5)).collect())
                .collect();
            let refs: Vec<&[bool]> = lanes.iter().map(Vec::as_slice).collect();
            let batch = nl.eval_batch(&refs);
            assert_eq!(batch.len(), n_lanes);
            for (inp, got) in lanes.iter().zip(&batch) {
                assert_eq!(*got, nl.eval(inp), "seed {seed} diverged");
            }
        }
    }

    #[test]
    fn eval_batch_empty_is_empty() {
        let mut b = NetlistBuilder::new();
        let x = b.input();
        b.output(x);
        let nl = b.finish().unwrap();
        assert!(nl.eval_batch(&[]).is_empty());
    }

    #[test]
    fn constants_available() {
        let mut b = NetlistBuilder::new();
        let one = b.one();
        let zero = b.zero();
        let o = b.or2(one, zero);
        b.output(o);
        let nl = b.finish().unwrap();
        assert!(nl.eval(&[])[0]);
    }
}
