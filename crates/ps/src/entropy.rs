//! The lossless stage under the Int8 token stream: a canonical Huffman
//! code per blob, over four interleaved bitstreams.
//!
//! Int8 deltas carry about 6 bits of information per code (an order-0
//! entropy of 4.5–7.7 bits on `mlp_transfer` deltas), and only 0.2–2.5 %
//! of the codes are zero, so a byte per token wastes a fifth of the wire.
//! This stage codes the token bytes as they stand — zero-run escapes
//! included — and gives back exactly those bytes; the token format, the
//! codes and every decoded value are untouched by it.
//!
//! ## Layout (little-endian fields)
//!
//! `[tokens u32][lengths 128 B][size0 u32][size1 u32][size2 u32][s0][s1][s2][s3]`
//!
//! * `tokens` — the token-byte count `T`; the caller bounds it before
//!   anything is sized by it.
//! * `lengths` — the code length of every byte value, 4 bits each (value
//!   `2i` in the low nibble of byte `i`), 0 for a value the code lacks and
//!   at most [`MAX_BITS`]. The code must be complete: the Kraft sum
//!   `Σ 2^-len` is exactly 1, so every [`MAX_BITS`]-bit window names one
//!   value and a decode needs no invalid-slot check. A stream of one value
//!   carries a second, unused one, so that it too is complete.
//! * four streams (zstd's layout): stream `k` codes tokens
//!   `[k·⌈T/4⌉, (k+1)·⌈T/4⌉)` (clamped to `T`); `size0..size2` are the byte
//!   lengths of the first three, the fourth runs to the end of the blob.
//!   Codes are canonical (shorter first, then by value) and packed
//!   most-significant bit first; a stream ends at its last code, padded to
//!   a byte with zero bits.
//!
//! Four streams let the decoder keep four independent table walks in
//! flight. The encoder falls back to the flat 8-bit code (every length 8)
//! wherever Huffman's would cost more, so `T` tokens never take more than
//! [`coded_len_max`]`(T)` bytes.

/// Longest code in bits: a decode looks [`MAX_BITS`] bits up at once.
const MAX_BITS: u32 = 12;
/// Decode table slots.
const SLOTS: usize = 1 << MAX_BITS;
/// Interleaved bitstreams per blob.
const STREAMS: usize = 4;
/// Bytes of the packed length table.
const TABLE_LEN: usize = 128;
/// Bytes before the first stream: token count, lengths, three stream sizes.
pub(crate) const HEADER_LEN: usize = 4 + TABLE_LEN + 4 * (STREAMS - 1);

/// Largest coded size of `tokens` token bytes: the header, one byte per
/// token (the flat code's cost, which a chosen code never exceeds), and
/// each of the first three streams' last partial byte.
pub(crate) const fn coded_len_max(tokens: usize) -> usize {
    HEADER_LEN + tokens + STREAMS - 1
}

/// The token range stream `k` of `t` tokens codes.
fn segment(t: usize, k: usize) -> std::ops::Range<usize> {
    let seg = t.div_ceil(STREAMS);
    (k * seg).min(t)..((k + 1) * seg).min(t)
}

/// Appends the coded form of `tokens` to `out`.
pub(crate) fn encode(tokens: &[u8], out: &mut Vec<u8>) {
    encode_with(tokens, &code_lengths(&histogram(tokens)), out);
}

/// How often each byte value occurs in `tokens`.
fn histogram(tokens: &[u8]) -> [u64; 256] {
    let mut counts = [0u64; 256];
    for &t in tokens {
        counts[t as usize] += 1;
    }
    counts
}

/// Code lengths for symbol counts `counts`: Huffman's, limited to
/// [`MAX_BITS`] the way miniz limits Deflate's, or the flat 8-bit code
/// where that costs no more. Always a complete code.
fn code_lengths(counts: &[u64; 256]) -> [u8; 256] {
    const FLAT: [u8; 256] = [8; 256];
    // Leaves by ascending count, ties by value; a lone value gets a
    // partner so that its code, too, is complete.
    let mut leaves = [(0u64, 0u8); 256];
    let mut m = 0;
    for (s, &c) in counts.iter().enumerate() {
        if c > 0 {
            leaves[m] = (c, s as u8);
            m += 1;
        }
    }
    match m {
        0 => return FLAT,
        1 => {
            leaves[1] = (0, u8::from(leaves[0].1 == 0));
            m = 2;
        }
        _ => {}
    }
    let leaves = &mut leaves[..m];
    leaves.sort_unstable();

    // Two-queue Huffman: nodes 0..m are the leaves, m.. the merged nodes
    // in creation order (their weights never decrease).
    let mut weight = [0u64; 2 * 256 - 1];
    let mut parent = [0usize; 2 * 256 - 1];
    for (w, &(c, _)) in weight.iter_mut().zip(leaves.iter()) {
        *w = c;
    }
    let (mut leaf, mut merged) = (0, m);
    for next in m..2 * m - 1 {
        let mut lightest = || {
            let take_leaf = leaf < m && (merged >= next || weight[leaf] <= weight[merged]);
            let i = if take_leaf { leaf } else { merged };
            if take_leaf {
                leaf += 1;
            } else {
                merged += 1;
            }
            i
        };
        let (a, b) = (lightest(), lightest());
        weight[next] = weight[a] + weight[b];
        parent[a] = next;
        parent[b] = next;
    }
    let mut depth = [0u32; 2 * 256 - 1];
    for i in (0..2 * m - 2).rev() {
        depth[i] = depth[parent[i]] + 1;
    }

    // Clamp to MAX_BITS, then restore the Kraft sum: each step retires one
    // longest code and splits a shorter leaf into two one level down.
    let mut per_len = [0u32; MAX_BITS as usize + 1];
    for &d in &depth[..m] {
        per_len[d.min(MAX_BITS) as usize] += 1;
    }
    let mut kraft: u32 = (1..=MAX_BITS)
        .map(|l| per_len[l as usize] << (MAX_BITS - l))
        .sum();
    while kraft > 1 << MAX_BITS {
        per_len[MAX_BITS as usize] -= 1;
        let l = (1..MAX_BITS as usize)
            .rev()
            .find(|&l| per_len[l] > 0)
            .expect("an over-full code has a leaf above the limit");
        per_len[l] -= 1;
        per_len[l + 1] += 2;
        kraft -= 1;
    }
    // The longest codes go to the rarest values.
    let mut lengths = [0u8; 256];
    let mut rarest = leaves.iter();
    for l in (1..=MAX_BITS as usize).rev() {
        for &(_, s) in rarest.by_ref().take(per_len[l] as usize) {
            lengths[s as usize] = l as u8;
        }
    }
    let cost = |lengths: &[u8; 256]| -> u64 {
        counts
            .iter()
            .zip(lengths)
            .map(|(&c, &l)| c * u64::from(l))
            .sum()
    };
    if cost(&lengths) > cost(&FLAT) {
        FLAT
    } else {
        lengths
    }
}

/// Each value's canonical code under the complete code `lengths`,
/// right-aligned, in the order the decode table lays them out.
fn canonical_codes(lengths: &[u8; 256]) -> [u16; 256] {
    let mut codes = [0u16; 256];
    let mut slot = 0u32;
    for l in 1..=MAX_BITS {
        for (s, _) in lengths
            .iter()
            .enumerate()
            .filter(|&(_, &len)| u32::from(len) == l)
        {
            codes[s] = (slot >> (MAX_BITS - l)) as u16;
            slot += 1 << (MAX_BITS - l);
        }
    }
    codes
}

/// Appends `tokens` coded under the complete code `lengths` to `out`.
fn encode_with(tokens: &[u8], lengths: &[u8; 256], out: &mut Vec<u8>) {
    let t = tokens.len();
    assert!(
        t <= u32::MAX as usize,
        "token stream too long for its header"
    );
    let codes = canonical_codes(lengths);
    // Code and length in one entry: one load per token.
    let mut entry = [0u32; 256];
    for (e, (&c, &l)) in entry.iter_mut().zip(codes.iter().zip(lengths)) {
        *e = u32::from(c) << 8 | u32::from(l);
    }
    // Exact: a publish sizes its delta buffer with `Codec::blob_len`, and
    // a doubling here would outgrow it.
    out.reserve_exact(coded_len_max(t) + 8);
    out.extend_from_slice(&(t as u32).to_le_bytes());
    out.extend(lengths.chunks_exact(2).map(|p| p[0] | p[1] << 4));
    let sizes_at = out.len();
    out.extend_from_slice(&[0; 4 * (STREAMS - 1)]);
    for k in 0..STREAMS {
        let start = out.len();
        write_stream(&tokens[segment(t, k)], &entry, out);
        if k + 1 < STREAMS {
            let size = (out.len() - start) as u32;
            out[sizes_at + 4 * k..sizes_at + 4 * k + 4].copy_from_slice(&size.to_le_bytes());
        }
    }
}

/// Packs the codes of `tokens` most-significant bit first and pads the
/// last byte with zeros. Four codes (48 bits at most) join the unstored
/// bits at a time, all eight bytes of the accumulator are stored and the
/// whole ones kept, so `out` needs 8 bytes of room past the stream.
fn write_stream(tokens: &[u8], entry: &[u32; 256], out: &mut Vec<u8>) {
    // The top `bits` bits of `acc` are the ones not yet a whole byte.
    let (mut acc, mut bits) = (0u64, 0u32);
    for quad in tokens.chunks(4) {
        for &t in quad {
            let e = entry[t as usize];
            let len = e & 0xff;
            acc |= u64::from(e >> 8) << (64 - bits - len);
            bits += len;
        }
        let whole = bits / 8;
        out.extend_from_slice(&acc.to_be_bytes());
        out.truncate(out.len() - 8 + whole as usize);
        acc <<= 8 * whole;
        bits -= 8 * whole;
    }
    if bits > 0 {
        out.push((acc >> 56) as u8);
    }
}

/// A coded token stream whose header has been checked: the token count is
/// within the caller's bound, the code is complete and no longer than
/// [`MAX_BITS`], and the streams lie inside the blob.
pub(crate) struct Coded<'a> {
    tokens: usize,
    lengths: [u8; 256],
    streams: [&'a [u8]; STREAMS],
}

/// Checks the header of the coded stream `body`, whose token count may be
/// at most `max_tokens`. Reads only the header; nothing is sized by a
/// field it holds.
pub(crate) fn parse(body: &[u8], max_tokens: usize) -> Result<Coded<'_>, &'static str> {
    let Some((count, rest)) = body.split_first_chunk::<4>() else {
        return Err("int8 entropy header truncated");
    };
    let tokens = u32::from_le_bytes(*count) as usize;
    if tokens > max_tokens {
        return Err("int8 token count exceeds the shard");
    }
    let Some((table, rest)) = rest.split_first_chunk::<TABLE_LEN>() else {
        return Err("int8 entropy header truncated");
    };
    let mut lengths = [0u8; 256];
    for (pair, &b) in lengths.chunks_exact_mut(2).zip(table) {
        pair.copy_from_slice(&[b & 0xf, b >> 4]);
    }
    let mut kraft = 0u32;
    for &l in &lengths {
        if u32::from(l) > MAX_BITS {
            return Err("int8 code length over 12 bits");
        }
        if l > 0 {
            kraft += 1 << (MAX_BITS - u32::from(l));
        }
    }
    if kraft != SLOTS as u32 {
        return Err("int8 code table not complete");
    }
    let Some((sizes, mut rest)) = rest.split_first_chunk::<{ 4 * (STREAMS - 1) }>() else {
        return Err("int8 entropy header truncated");
    };
    let mut streams = [&[][..]; STREAMS];
    for (k, size) in sizes.chunks_exact(4).enumerate() {
        let size = u32::from_le_bytes(size.try_into().expect("4 bytes")) as usize;
        if size > rest.len() {
            return Err("int8 stream sizes overrun the blob");
        }
        (streams[k], rest) = rest.split_at(size);
    }
    streams[STREAMS - 1] = rest;
    Ok(Coded {
        tokens,
        lengths,
        streams,
    })
}

impl Coded<'_> {
    /// The token-byte count the blob declares (at most the bound it was
    /// parsed against).
    pub(crate) fn tokens(&self) -> usize {
        self.tokens
    }

    /// Decodes the tokens into `out[..self.tokens()]`. An error — a stream
    /// that runs out before its last code, or holds bytes or non-zero
    /// bits past it — leaves `out` holding garbage and touches nothing
    /// else.
    pub(crate) fn decode(&self, out: &mut [u8]) -> Result<(), &'static str> {
        let t = self.tokens;
        let out = &mut out[..t];
        let table = self.decode_table();
        let mut outs: [&mut [u8]; STREAMS] = Default::default();
        let mut rest = out;
        for (k, o) in outs.iter_mut().enumerate() {
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(segment(t, k).len());
            (*o, rest) = (head, tail);
        }
        let mut readers = self.streams.map(BitReader::new);
        // All four walks at once while every stream has a word to read and
        // the shortest segment four tokens to fill.
        let mut done = 0;
        while done + 4 <= outs[STREAMS - 1].len() && readers.iter().all(BitReader::has_word) {
            for (r, o) in readers.iter_mut().zip(outs.iter_mut()) {
                r.refill_word();
                for o in &mut o[done..done + 4] {
                    *o = r.decode_buffered(&table);
                }
            }
            done += 4;
        }
        for (r, o) in readers.iter_mut().zip(outs) {
            r.finish(&table, &mut o[done..])?;
        }
        Ok(())
    }

    /// Slot `w` of the table is the value, and the length in bits, of the
    /// code that the [`MAX_BITS`]-bit window `w` starts with.
    fn decode_table(&self) -> [u16; SLOTS] {
        let mut table = [0u16; SLOTS];
        let mut at = 0;
        for l in 1..=MAX_BITS {
            let span = 1 << (MAX_BITS - l);
            for (s, _) in self
                .lengths
                .iter()
                .enumerate()
                .filter(|&(_, &len)| u32::from(len) == l)
            {
                table[at..at + span].fill(s as u16 | (l as u16) << 8);
                at += span;
            }
        }
        debug_assert_eq!(at, SLOTS, "parse admits complete codes only");
        table
    }
}

/// Reads one stream most-significant bit first: `buf`'s top `count` bits
/// are the next unread ones, and every byte before `pos` is in them or
/// consumed.
struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    buf: u64,
    count: u32,
}

impl<'a> BitReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        BitReader {
            bytes,
            pos: 0,
            buf: 0,
            count: 0,
        }
    }

    /// Whether a whole 8-byte word can be read at `pos`.
    fn has_word(&self) -> bool {
        self.pos + 8 <= self.bytes.len()
    }

    /// Tops `buf` up to at least 56 bits with one unaligned load
    /// (needs [`has_word`](Self::has_word)). The bits below `count` then
    /// hold the next bytes of the stream too; the next refill ORs the same
    /// bits over them, and [`finish`](Self::finish) clears them.
    #[inline(always)]
    fn refill_word(&mut self) {
        let word = &self.bytes[self.pos..self.pos + 8];
        self.buf |= u64::from_be_bytes(word.try_into().expect("8 bytes")) >> self.count;
        self.pos += (63 - self.count as usize) >> 3;
        self.count |= 56;
    }

    /// Decodes one code from `buf`, which holds at least [`MAX_BITS`] bits.
    #[inline(always)]
    fn decode_buffered(&mut self, table: &[u16; SLOTS]) -> u8 {
        let e = table[(self.buf >> (64 - MAX_BITS)) as usize];
        let len = u32::from(e >> 8);
        self.buf <<= len;
        self.count -= len;
        e as u8
    }

    /// Decodes the codes of `out`, checking each against the bits the
    /// stream has left, then holds the stream to ending right there: no
    /// byte left over and only zero bits after the last code.
    fn finish(&mut self, table: &[u16; SLOTS], out: &mut [u8]) -> Result<(), &'static str> {
        // A word at a time while one is there.
        let mut done = 0;
        while done + 4 <= out.len() && self.has_word() {
            self.refill_word();
            for o in &mut out[done..done + 4] {
                *o = self.decode_buffered(table);
            }
            done += 4;
        }
        // Drop the read-ahead bits below `count`: from here on `buf` holds
        // exactly the unread ones.
        self.buf &= !(u64::MAX >> self.count);
        for o in &mut out[done..] {
            self.refill_bytes();
            let e = table[(self.buf >> (64 - MAX_BITS)) as usize];
            let len = u32::from(e >> 8);
            if len > self.count {
                return Err("int8 entropy stream overrun");
            }
            self.buf <<= len;
            self.count -= len;
            *o = e as u8;
        }
        self.refill_bytes();
        if self.pos != self.bytes.len() || self.count >= 8 {
            return Err("int8 entropy stream has trailing bytes");
        }
        if self.buf != 0 {
            return Err("int8 entropy padding not zero");
        }
        Ok(())
    }

    /// Tops `buf` up a byte at a time, as far as the stream goes.
    fn refill_bytes(&mut self) {
        while self.count <= 56 {
            let Some(&b) = self.bytes.get(self.pos) else {
                return;
            };
            self.buf |= u64::from(b) << (56 - self.count);
            self.pos += 1;
            self.count += 8;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn kraft(lengths: &[u8; 256]) -> u32 {
        lengths
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 1 << (MAX_BITS - u32::from(l)))
            .sum()
    }

    /// Encodes `tokens` under `lengths` (the chosen code when `None`, held
    /// to the size bound then), and decodes it back.
    fn roundtrip(tokens: &[u8], lengths: Option<&[u8; 256]>) -> Vec<u8> {
        let mut blob = Vec::new();
        match lengths {
            Some(lengths) => encode_with(tokens, lengths, &mut blob),
            None => {
                encode(tokens, &mut blob);
                assert!(
                    blob.len() <= coded_len_max(tokens.len()),
                    "{} B",
                    blob.len()
                );
            }
        }
        let coded = parse(&blob, tokens.len()).expect("own header parses");
        assert_eq!(coded.tokens(), tokens.len());
        let mut out = vec![0xAA; tokens.len()];
        coded.decode(&mut out).expect("own streams decode");
        out
    }

    /// Counts that make Huffman's tree 30 levels deep (Fibonacci weights),
    /// so the 12-bit limit has to rebuild it.
    #[test]
    fn deep_trees_are_limited_to_a_complete_12_bit_code() {
        let mut counts = [0u64; 256];
        let (mut a, mut b) = (1u64, 1u64);
        for c in counts.iter_mut().take(30) {
            *c = a;
            (a, b) = (b, a + b);
        }
        let lengths = code_lengths(&counts);
        assert_eq!(kraft(&lengths), SLOTS as u32);
        assert!(lengths[..30].iter().all(|&l| (1..=12).contains(&l)));
        assert!(lengths[30..].iter().all(|&l| l == 0));
        assert_eq!(
            lengths[29], 1,
            "the commonest value keeps the shortest code"
        );
        let tokens: Vec<u8> = (0..30u8)
            .flat_map(|s| std::iter::repeat_n(s, counts[s as usize].min(500) as usize))
            .collect();
        assert_eq!(roundtrip(&tokens, Some(&lengths)), tokens);
    }

    /// A stream of one value codes it in one bit beside an unused partner,
    /// and the empty stream takes the flat code.
    #[test]
    fn single_value_and_empty_streams_roundtrip() {
        for value in [0u8, 1, 0x80, 255] {
            for len in [1usize, 2, 3, 4, 5, 7, 8, 9, 31, 32, 33, 100, 4097] {
                let tokens = vec![value; len];
                assert_eq!(roundtrip(&tokens, None), tokens, "{value} x {len}");
                let mut counts = [0u64; 256];
                counts[value as usize] = len as u64;
                let lengths = code_lengths(&counts);
                assert_eq!(lengths[value as usize], 1);
                assert_eq!(kraft(&lengths), SLOTS as u32);
            }
        }
        assert_eq!(code_lengths(&[0; 256]), [8; 256]);
        assert!(roundtrip(&[], None).is_empty());
    }

    /// Under the flat code each value is its own 8-bit code: the streams
    /// are the token bytes themselves.
    #[test]
    fn the_flat_code_stores_the_tokens_as_they_are() {
        let tokens: Vec<u8> = (0..1000u32).map(|i| (i * 37 % 256) as u8).collect();
        let mut blob = Vec::new();
        encode_with(&tokens, &[8; 256], &mut blob);
        assert_eq!(blob.len(), HEADER_LEN + tokens.len());
        assert_eq!(blob[HEADER_LEN..], tokens[..]);
        assert_eq!(roundtrip(&tokens, Some(&[8; 256])), tokens);
    }

    fn arb_counts() -> impl Strategy<Value = [u64; 256]> {
        (
            proptest::collection::vec(0u64..1 << 20, 256),
            1usize..257,
            0u32..40,
        )
            .prop_map(|(raw, used, skew)| {
                let mut counts = [0u64; 256];
                for (s, (c, r)) in counts.iter_mut().zip(raw).enumerate().take(used) {
                    // Geometric skew pushes the tree past 12 levels.
                    *c = (r >> (s as u32 * skew / 40).min(20)) + u64::from(s % 3 == 0);
                }
                counts
            })
    }

    proptest! {
        /// Whatever the counts, the code is complete, at most 12 bits
        /// long, gives every occurring value a code, and costs no more
        /// than the flat code.
        #[test]
        fn chosen_codes_are_complete_bounded_and_no_costlier_than_flat(counts in arb_counts()) {
            let lengths = code_lengths(&counts);
            prop_assert_eq!(kraft(&lengths), SLOTS as u32);
            prop_assert!(lengths.iter().all(|&l| u32::from(l) <= MAX_BITS));
            for (&c, &l) in counts.iter().zip(&lengths) {
                prop_assert!(c == 0 || l > 0);
            }
            let cost: u64 = counts.iter().zip(&lengths).map(|(&c, &l)| c * u64::from(l)).sum();
            prop_assert!(cost <= 8 * counts.iter().sum::<u64>());
        }

        /// Decoding an encoded token stream gives it back unchanged: any
        /// bytes, alphabets of one value to all 256, under the chosen code
        /// and under the flat one.
        #[test]
        fn decode_undoes_encode(
            raw in proptest::collection::vec(any::<u8>(), 0..6000),
            alphabet in 1u16..257,
            base in any::<u8>(),
        ) {
            let tokens: Vec<u8> = raw
                .iter()
                .map(|&b| base.wrapping_add((u16::from(b) % alphabet) as u8))
                .collect();
            prop_assert_eq!(roundtrip(&tokens, None), tokens.clone());
            prop_assert_eq!(roundtrip(&tokens, Some(&[8; 256])), tokens);
        }
    }
}
