//! LZSS with a 4 KiB sliding window.
//!
//! Configuration bitstreams repeat identical CLB columns and routing
//! motifs at distances well within a few KiB, which back-references
//! capture better than pure run-length coding.
//!
//! Wire format: groups of up to eight tokens preceded by a flag byte
//! (LSB first; 1 = literal byte, 0 = match). A match is two bytes:
//! `offset[7:0]`, then `offset[11:8] << 4 | (len - MIN_MATCH)`, with
//! `offset` counting back from the current output position
//! (`1..=4095`) and `len` in `3..=18`.
//!
//! The decompressor works in bounded memory, as the windowed
//! configuration module requires: a linear dictionary of the last
//! 4 KiB of output plus an 8 KiB span it decodes whole tokens into,
//! sliding the history back to the front when the span is used up.
//! Matches copy as one fixed 18-byte slice when the source cannot
//! overlap the output, and in 8-byte chunks when it can.

use super::{Codec, CodecId, Decompressor};
use crate::error::BitstreamError;

const WINDOW: usize = 4096;
const MIN_MATCH: usize = 3;
const MAX_MATCH: usize = 18;
const CHAIN_LIMIT: usize = 64;

/// LZSS codec (4 KiB window, 3–18 byte matches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lzss {
    _private: (),
}

impl Lzss {
    /// Creates the codec.
    pub fn new() -> Self {
        Lzss { _private: () }
    }
}

impl Default for Lzss {
    fn default() -> Self {
        Lzss::new()
    }
}

fn hash3(data: &[u8], pos: usize) -> usize {
    let h = (data[pos] as u32)
        .wrapping_mul(0x9E37)
        .wrapping_add((data[pos + 1] as u32).wrapping_mul(0x79B9))
        .wrapping_add((data[pos + 2] as u32).wrapping_mul(0x7F4A));
    (h as usize) & (WINDOW - 1)
}

impl Codec for Lzss {
    fn id(&self) -> CodecId {
        CodecId::Lzss
    }

    fn compress(&self, data: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        let mut head = vec![usize::MAX; WINDOW];
        let mut prev = vec![usize::MAX; data.len()];

        let mut tokens: Vec<(bool, u8, u16, u8)> = Vec::with_capacity(8); // (is_literal, lit, offset, len)
        let flush = |out: &mut Vec<u8>, tokens: &mut Vec<(bool, u8, u16, u8)>| {
            if tokens.is_empty() {
                return;
            }
            let mut flags = 0u8;
            for (i, t) in tokens.iter().enumerate() {
                if t.0 {
                    flags |= 1 << i;
                }
            }
            out.push(flags);
            for &(is_lit, lit, offset, len) in tokens.iter() {
                if is_lit {
                    out.push(lit);
                } else {
                    out.push((offset & 0xFF) as u8);
                    out.push((((offset >> 8) as u8) << 4) | (len - MIN_MATCH as u8));
                }
            }
            tokens.clear();
        };

        let mut i = 0;
        while i < data.len() {
            let mut best_len = 0usize;
            let mut best_off = 0usize;
            if i + MIN_MATCH <= data.len() {
                let h = hash3(data, i);
                let mut cand = head[h];
                let mut steps = 0;
                while cand != usize::MAX && steps < CHAIN_LIMIT {
                    // offset must fit the 12-bit field, so strictly < WINDOW
                    if i - cand < WINDOW {
                        let max = MAX_MATCH.min(data.len() - i);
                        let mut l = 0;
                        while l < max && data[cand + l] == data[i + l] {
                            l += 1;
                        }
                        if l > best_len {
                            best_len = l;
                            best_off = i - cand;
                            if l == MAX_MATCH {
                                break;
                            }
                        }
                    } else {
                        break; // chain is ordered by recency; older = farther
                    }
                    cand = prev[cand];
                    steps += 1;
                }
            }
            if best_len >= MIN_MATCH {
                tokens.push((false, 0, best_off as u16, best_len as u8));
                // insert all covered positions into the hash chains
                #[allow(clippy::needless_range_loop)] // p is a position, not an element index
                for p in i..i + best_len {
                    if p + MIN_MATCH <= data.len() {
                        let h = hash3(data, p);
                        prev[p] = head[h];
                        head[h] = p;
                    }
                }
                i += best_len;
            } else {
                tokens.push((true, data[i], 0, 0));
                if i + MIN_MATCH <= data.len() {
                    let h = hash3(data, i);
                    prev[i] = head[h];
                    head[h] = i;
                }
                i += 1;
            }
            if tokens.len() == 8 {
                flush(&mut out, &mut tokens);
            }
        }
        flush(&mut out, &mut tokens);
        out
    }

    fn decompressor<'a>(&self, data: &'a [u8]) -> Box<dyn Decompressor + 'a> {
        Box::new(LzssDecompressor {
            data,
            pos: 0,
            flags: 0,
            flags_left: 0,
            dict: vec![0u8; WINDOW + SPAN + SLACK],
            end: WINDOW,
            next: WINDOW,
        })
    }

    fn cycles_per_output_byte(&self) -> u64 {
        2
    }
}

/// Decoded bytes the dictionary takes past its history before it
/// slides the last [`WINDOW`] bytes back to the front.
const SPAN: usize = 8 * 1024;

/// Room past the span for a match's wide copy: the fixed 18-byte copy
/// and the 8-byte-chunked overlap copy write up to 24 bytes from the
/// match start, beyond its length.
const SLACK: usize = MAX_MATCH.next_multiple_of(8);

/// Streaming LZSS decoder over a bounded linear dictionary.
///
/// `dict[..end]` is decoded output, preceded at the start by a
/// [`WINDOW`]-byte zero prefix so matches reaching before the first
/// byte read zeros. `dict[next..end]` is decoded but not yet returned:
/// a match spilling past one `read` waits there for the next. Once
/// everything is returned and `end` passes `WINDOW + SPAN`, the last
/// `WINDOW` bytes slide to the front.
struct LzssDecompressor<'a> {
    data: &'a [u8],
    pos: usize,
    flags: u8,
    flags_left: u8,
    dict: Vec<u8>,
    end: usize,
    next: usize,
}

/// Appends the `len`-byte match at `offset` back from `end`. Both wide
/// copies may write up to [`SLACK`] bytes from `end`; the bytes past
/// `len` are overwritten by the following tokens.
#[inline(always)]
fn copy_match(dict: &mut [u8], end: usize, offset: usize, len: usize) {
    let src = end - offset;
    if offset >= MAX_MATCH {
        // the source lies wholly before `end`: one fixed-size copy
        let (history, tail) = dict.split_at_mut(end);
        tail[..MAX_MATCH].copy_from_slice(&history[src..src + MAX_MATCH]);
    } else if offset >= 8 {
        // each 8-byte chunk's source ends at or before the chunk
        let mut i = 0;
        while i < len {
            let chunk: [u8; 8] = dict[src + i..src + i + 8].try_into().expect("8-byte slice");
            dict[end + i..end + i + 8].copy_from_slice(&chunk);
            i += 8;
        }
    } else {
        for i in 0..len {
            dict[end + i] = dict[src + i];
        }
    }
}

impl LzssDecompressor<'_> {
    /// Decodes whole tokens while `self.end < limit` and input remains.
    fn decode_until(&mut self, limit: usize) -> Result<(), BitstreamError> {
        let data = self.data;
        let dict = &mut self.dict[..];
        let (mut pos, mut flags, mut flags_left, mut end) =
            (self.pos, self.flags, self.flags_left, self.end);
        let result = loop {
            if end >= limit {
                break Ok(());
            }
            if flags_left == 0 {
                if pos == data.len() {
                    break Ok(());
                }
                flags = data[pos];
                pos += 1;
                flags_left = 8;
            }
            // A flag byte may cover fewer than 8 tokens at stream end.
            if pos == data.len() {
                break Ok(());
            }
            let is_literal = flags & 1 == 1;
            flags >>= 1;
            flags_left -= 1;
            if is_literal {
                dict[end] = data[pos];
                pos += 1;
                end += 1;
                continue;
            }
            if pos + 2 > data.len() {
                break Err(BitstreamError::CorruptPayload(
                    "lzss match token truncated".into(),
                ));
            }
            let lo = data[pos] as usize;
            let second = data[pos + 1] as usize;
            pos += 2;
            let offset = lo | ((second >> 4) << 8);
            let len = (second & 0x0F) + MIN_MATCH;
            if offset == 0 {
                break Err(BitstreamError::CorruptPayload("lzss zero offset".into()));
            }
            copy_match(dict, end, offset, len);
            end += len;
        };
        (self.pos, self.flags, self.flags_left, self.end) = (pos, flags, flags_left, end);
        result
    }
}

impl Decompressor for LzssDecompressor<'_> {
    fn read(&mut self, out: &mut [u8]) -> Result<usize, BitstreamError> {
        let mut produced = 0;
        while produced < out.len() {
            if self.next == self.end && self.end >= WINDOW + SPAN {
                self.dict.copy_within(self.end - WINDOW..self.end, 0);
                (self.next, self.end) = (WINDOW, WINDOW);
            }
            let want = out.len() - produced;
            let limit = (self.next + want).min(WINDOW + SPAN);
            if let Err(e) = self.decode_until(limit) {
                // The bytes decoded before the bad token count as
                // returned with the error, as a byte-at-a-time decoder
                // would have written them into `out`.
                let n = self.end - self.next;
                out[produced..produced + n].copy_from_slice(&self.dict[self.next..self.end]);
                self.next = self.end;
                return Err(e);
            }
            let n = (self.end - self.next).min(want);
            if n == 0 {
                break;
            }
            out[produced..produced + n].copy_from_slice(&self.dict[self.next..self.next + n]);
            self.next += n;
            produced += n;
        }
        Ok(produced)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::decompress_all;
    use aaod_sim::SplitMix64;

    #[test]
    fn roundtrip_repetitive() {
        let mut data = Vec::new();
        for _ in 0..100 {
            data.extend_from_slice(b"frame-config-pattern-0123456789");
        }
        let c = Lzss::new();
        let compressed = c.compress(&data);
        assert!(
            compressed.len() < data.len() / 4,
            "only {} -> {}",
            data.len(),
            compressed.len()
        );
        assert_eq!(decompress_all(&c, &compressed).unwrap(), data);
    }

    #[test]
    fn roundtrip_random() {
        let mut rng = SplitMix64::new(42);
        let mut data = vec![0u8; 8192];
        rng.fill(&mut data);
        let c = Lzss::new();
        assert_eq!(decompress_all(&c, &c.compress(&data)).unwrap(), data);
    }

    #[test]
    fn roundtrip_overlapping_match() {
        // "aaaa..." forces matches whose source overlaps the output.
        let data = vec![b'a'; 1000];
        let c = Lzss::new();
        let compressed = c.compress(&data);
        assert!(compressed.len() < 200);
        assert_eq!(decompress_all(&c, &compressed).unwrap(), data);
    }

    #[test]
    fn roundtrip_long_distance() {
        // Repeat separated by nearly the full window.
        let mut data = vec![0x11u8; 64];
        data.extend(vec![0xEEu8; 4000]);
        data.extend(vec![0x11u8; 64]);
        let c = Lzss::new();
        assert_eq!(decompress_all(&c, &c.compress(&data)).unwrap(), data);
    }

    #[test]
    fn truncated_match_is_corrupt() {
        // flags byte says "match", then only one byte follows.
        let err = decompress_all(&Lzss::new(), &[0x00, 0x05]).unwrap_err();
        assert!(matches!(err, BitstreamError::CorruptPayload(_)));
    }

    #[test]
    fn zero_offset_is_corrupt() {
        let err = decompress_all(&Lzss::new(), &[0x00, 0x00, 0x00]).unwrap_err();
        assert!(matches!(err, BitstreamError::CorruptPayload(_)));
    }

    #[test]
    fn empty_input() {
        let c = Lzss::new();
        assert!(c.compress(&[]).is_empty());
        assert!(decompress_all(&c, &[]).unwrap().is_empty());
    }

    /// The reference decoder: one byte per loop trip through a 4 KiB
    /// history ring, one token at a time.
    struct RingDecoder<'a> {
        data: &'a [u8],
        pos: usize,
        flags: u8,
        flags_left: u8,
        history: Vec<u8>,
        hist_pos: usize,
        match_off: usize,
        match_left: usize,
    }

    impl<'a> RingDecoder<'a> {
        fn new(data: &'a [u8]) -> Self {
            RingDecoder {
                data,
                pos: 0,
                flags: 0,
                flags_left: 0,
                history: vec![0u8; WINDOW],
                hist_pos: 0,
                match_off: 0,
                match_left: 0,
            }
        }

        fn emit(&mut self, byte: u8, out: &mut [u8], produced: &mut usize) {
            out[*produced] = byte;
            *produced += 1;
            self.history[self.hist_pos] = byte;
            self.hist_pos = (self.hist_pos + 1) & (WINDOW - 1);
        }
    }

    impl Decompressor for RingDecoder<'_> {
        fn read(&mut self, out: &mut [u8]) -> Result<usize, BitstreamError> {
            let mut produced = 0;
            while produced < out.len() {
                if self.match_left > 0 {
                    let src = (self.hist_pos + WINDOW - self.match_off) & (WINDOW - 1);
                    let byte = self.history[src];
                    self.emit(byte, out, &mut produced);
                    self.match_left -= 1;
                    continue;
                }
                if self.flags_left == 0 {
                    if self.pos == self.data.len() {
                        break;
                    }
                    self.flags = self.data[self.pos];
                    self.pos += 1;
                    self.flags_left = 8;
                }
                if self.pos == self.data.len() {
                    break;
                }
                let is_literal = self.flags & 1 == 1;
                self.flags >>= 1;
                self.flags_left -= 1;
                if is_literal {
                    let byte = self.data[self.pos];
                    self.pos += 1;
                    self.emit(byte, out, &mut produced);
                } else {
                    if self.pos + 2 > self.data.len() {
                        return Err(BitstreamError::CorruptPayload(
                            "lzss match token truncated".into(),
                        ));
                    }
                    let lo = self.data[self.pos] as usize;
                    let second = self.data[self.pos + 1] as usize;
                    self.pos += 2;
                    let offset = lo | ((second >> 4) << 8);
                    let len = (second & 0x0F) + MIN_MATCH;
                    if offset == 0 {
                        return Err(BitstreamError::CorruptPayload("lzss zero offset".into()));
                    }
                    self.match_off = offset;
                    self.match_left = len;
                }
            }
            Ok(produced)
        }
    }

    const WINDOWS: [usize; 5] = [1, 7, 256, 4096, 10_000];

    /// Reads `payload` through both decoders with `window`-byte reads
    /// and asserts every call agrees: the same `Ok(n)` and bytes, or
    /// the same error with the same bytes written. Decoding continues
    /// past the first error, up to a second one.
    fn assert_matches_ring(payload: &[u8], window: usize, what: &str) {
        let mut fast = Lzss::new().decompressor(payload);
        let mut ring = RingDecoder::new(payload);
        let mut got_buf = vec![0u8; window];
        let mut want_buf = vec![0u8; window];
        let mut errors = 0;
        for call in 0.. {
            let got = fast.read(&mut got_buf);
            let want = ring.read(&mut want_buf);
            assert_eq!(got, want, "{what}, window {window}, call {call}");
            assert!(
                got_buf == want_buf,
                "{what}, window {window}, call {call}: bytes differ"
            );
            match got {
                Ok(0) => break,
                Err(_) if errors == 1 => break,
                Err(_) => errors += 1,
                Ok(_) => {}
            }
        }
    }

    /// Configuration-like bytes: columns of one sparse motif with rare
    /// point mutations, and some blank columns.
    fn bitstream_like(rng: &mut SplitMix64, len: usize) -> Vec<u8> {
        let column = 16 + rng.index(880);
        let mut motif = vec![0u8; column];
        for byte in motif.iter_mut() {
            if rng.chance(0.3) {
                *byte = rng.next_u8();
            }
        }
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            let blank = rng.chance(0.1);
            for &b in motif.iter().take(len - out.len()) {
                out.push(match (blank, rng.below(29)) {
                    (true, _) => 0,
                    (false, 0) => rng.next_u8(),
                    _ => b,
                });
            }
        }
        out
    }

    /// The LZSS payload of a behavioural function image's frames, as
    /// the ROM stores it.
    fn real_payload(seed: u64, body: usize) -> Vec<u8> {
        let mut rng = SplitMix64::new(seed);
        let filler = bitstream_like(&mut rng, body);
        let image = aaod_fabric::FunctionImage::from_behavioral(7, &[1, 2], &filler, 8, 8);
        let geom = aaod_fabric::DeviceGeometry::new(96, 16);
        let bitstream = crate::Bitstream::from_image(&image, geom);
        bitstream.encode(&Lzss::new())[crate::HEADER_BYTES..].to_vec()
    }

    #[test]
    fn linear_decoder_matches_ring_oracle_on_random_and_bitstream_inputs() {
        let mut rng = SplitMix64::new(0x4C5A_5353);
        for case in 0..40 {
            let len = match case {
                0 => 0,
                1 => 1,
                2 => 20_000,
                _ => rng.index(20_001),
            };
            let data = if case % 2 == 0 {
                bitstream_like(&mut rng, len)
            } else {
                let mut random = vec![0u8; len];
                rng.fill(&mut random);
                // short periodic stretches make overlapping matches of
                // every offset below the 18-byte copy
                for _ in 0..len / 64 {
                    let at = rng.index(len);
                    let period = 1 + rng.index(MAX_MATCH);
                    let run = (period + rng.index(60)).min(len - at);
                    for i in at + period..at + run {
                        random[i] = random[i - period];
                    }
                }
                random
            };
            let payload = Lzss::new().compress(&data);
            for window in WINDOWS {
                assert_matches_ring(&payload, window, &format!("case {case} ({len} B)"));
            }
        }
    }

    #[test]
    fn linear_decoder_matches_ring_oracle_on_corrupt_payloads() {
        let mut rng = SplitMix64::new(0xBAD_5EED);
        for seed in 0..3 {
            let payload = real_payload(seed, 4_000 + 6_000 * seed as usize);
            // truncations, including mid-token and mid-flag-group cuts
            for cut in (0..payload.len()).step_by(1 + payload.len() / 24) {
                for window in WINDOWS {
                    assert_matches_ring(&payload[..cut], window, &format!("seed {seed} cut {cut}"));
                }
            }
            // single-byte mutations, flag bytes and offsets alike
            for _ in 0..24 {
                let mut mutated = payload.clone();
                let at = rng.index(mutated.len());
                mutated[at] ^= 1 + rng.index(255) as u8;
                for window in WINDOWS {
                    assert_matches_ring(&mutated, window, &format!("seed {seed} byte {at}"));
                }
            }
        }
        // hand-made streams: zero offsets, a match before any output,
        // a trailing flag byte, truncated tokens
        for stream in [
            &[0x00, 0x00, 0x00, 0x41][..],
            &[0xFE, 0x41, 0x00, 0x00, 0x01, 0x10],
            &[0x00, 0xFF, 0xFF],
            &[0x01, 0x41, 0x00],
            &[0x01, 0x41],
            &[0x00, 0x05],
        ] {
            for window in WINDOWS {
                assert_matches_ring(stream, window, &format!("stream {stream:?}"));
            }
        }
    }
}
