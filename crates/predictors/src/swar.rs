//! Bit-sliced SWAR tier for the fused sweep hot path: packed-word counter
//! updates, a derived counter-step lookup table, and the column-stream block
//! replay the engine's SWAR tier runs on. Stable Rust, no `unsafe`.
//!
//! # Word geometry
//!
//! The fused arena packs 2-bit saturating counters four per byte; a `u64`
//! word therefore holds [`COUNTER_LANES`] = 32 counters, one per 2-bit
//! *lane*. [`train_word`] advances **all 32 lanes at once, branchlessly**,
//! with the classic SWAR add/saturate masks:
//!
//! ```text
//! lane value   00   01   10   11          (bit 2i = low, bit 2i+1 = high)
//! increment    +1   +1   +1   hold        inc = word + (¬saturated ∧ LO)
//! decrement    hold -1   -1   -1          dec = word − (nonzero    ∧ LO)
//! ```
//!
//! Masking the addend to non-saturated lanes (and the subtrahend to non-zero
//! lanes) confines every carry/borrow to its own lane, so one 64-bit add
//! steps 32 independent state machines. Per-lane outcome and update masks
//! (low bit per lane, widened by [`expand_lanes`]) select between the two directions, and
//! ragged groups — a tail of fewer than 32 live counters — are handled by
//! passing a partial select mask to [`train_word_select`] rather than by a
//! scalar remainder loop.
//!
//! # The derived counter-step table
//!
//! The replay hot loop touches one *random* counter per slot per record, so
//! whole-word updates do not apply there — but the SWAR primitives still pay
//! off indirectly: [`CounterLut`] tabulates `(arena byte, sub-counter,
//! outcome) → (new byte, hit)` by running [`train_word_select`] over all 2048
//! byte states once at construction. The table is 4 KB — permanently
//! L1-resident next to the slot's PHT — and replaces the shift/mask/
//! select/merge dance of a scalar counter step with a single load whose
//! result carries both the updated byte and the hit bit. The scalar state
//! machine ([`crate::counter::two_bit_step`]) remains the semantic anchor:
//! the table is *derived* from the SWAR word walk and pinned against the
//! scalar step exhaustively, so all three tiers are bit-identical by
//! construction.
//!
//! # Column blocks and the two-phase replay
//!
//! [`SwarBlock`] is the SWAR tier's record block: instead of one packed `u64`
//! per (record, group) it carries *column* streams — address words, packed
//! `(outcome, dense id)` metadata, and one pre-push pattern row per
//! history-source group. Columns are `u32`, so the per-slot index
//! precompute phase is a pure widening-free vector loop over sequential
//! streams; the compiler autovectorizes it without `std::arch`. Replay then
//! runs in two passes per (slot, block): a *pack* pass folds each record's
//! address, pattern row and metadata into one packed scratch word
//! (PHT index, sub-counter, outcome, id — layout below), and a *counter*
//! pass walks the scratch sequentially, stepping one random byte of the
//! slot's PHT region per word through the [`CounterLut`]. The counter pass
//! touches only the slot's own 8–32 KB region, the 4 KB table and two
//! sequential streams, so the random accesses stay L1-resident; it is
//! manually unrolled four-wide to give the out-of-order window independent
//! load→table→store chains, and the scored variant fuses the hit-lane OR
//! into the same loop (split forms re-measured slower — see the comments in
//! `replay_columns`). Slots replay one after another, so only one slot's
//! region competes with the table for L1 at a time.
//!
//! Scored replays accumulate per-record hit bits into a `u64` *hit-lane*
//! column (bit = slot), which [`drain_hit_lanes`] expands into id-major
//! `u16` staging via an 8-bit → 8-lane constant table; drivers widen the
//! staging into their final per-id accumulators between blocks.
//!
//! The streams are shared by every history slot of one fused predictor:
//! [`FusedSweepPredictor::load_swar_block`] advances the predictor's own
//! first-level state (the global register, or one per-address table per BHT
//! geometry group) once per record, and each slot masks its group's row down
//! to its own history length. Masking makes this exact — the low `h` bits of
//! a wider register are precisely what a width-`h` register would hold — so
//! the SWAR tier stays bit-identical to the scalar blocked replay (pinned by
//! the equivalence suites).
//!
//! # Scratch word layout
//!
//! The pack pass folds everything the counter pass needs into one `u32`:
//!
//! ```text
//! bit 31..18   dense branch id          (≤ MAX_SWAR_IDS)
//! bit 17..16   index & 3                (sub-counter within the byte)
//! bit 15       outcome                  (1 = taken)
//! bit 14..0    index >> 2               (byte offset in the slot region)
//! ```
//!
//! Bits 17..15 are exactly the [`CounterLut`] key's low bits, so the counter
//! pass extracts them with one shift-and-mask. The layout is why the tier
//! has geometry bounds: PHT index width ≤ [`MAX_SWAR_INDEX_BITS`] and dense
//! id < [`MAX_SWAR_IDS`] ([`FusedSweepPredictor::swar_ready`] checks both;
//! the engine falls back to the scalar blocked replay otherwise).
//!
//! [`FusedSweepPredictor::swar_ready`]: crate::fused::FusedSweepPredictor::swar_ready
//! [`FusedSweepPredictor::load_swar_block`]: crate::fused::FusedSweepPredictor::load_swar_block

use btr_trace::{BranchAddr, Outcome};

/// 2-bit counter lanes per `u64` word.
pub const COUNTER_LANES: usize = 32;

/// Low bit of every 2-bit lane.
const LANE_LOW: u64 = 0x5555_5555_5555_5555;

/// Widest PHT index (in bits) the packed scratch word can address.
pub const MAX_SWAR_INDEX_BITS: u32 = 17;

/// Dense-id bound of the packed scratch word (14 id bits).
pub const MAX_SWAR_IDS: usize = 1 << 14;

/// Most scored records the `u16` hit staging can absorb between flushes:
/// in the worst case one id hits on every scored record, so drivers flush
/// staging into their wide accumulators before the staged total reaches
/// this bound (see [`drain_hit_lanes`]).
pub const MAX_STAGED_RECORDS: usize = u16::MAX as usize;

/// Most history slots one predictor may replay through the SWAR tier: each
/// slot's hit bit occupies one bit of the per-record `u64` hit-lane mask
/// (see [`drain_hit_lanes`]).
pub const MAX_SWAR_SLOTS: usize = 64;

/// Expands a per-lane low-bit mask to cover both bits of each selected lane
/// (`01` per lane → `11` per lane).
#[inline]
#[must_use]
pub fn expand_lanes(low_mask: u64) -> u64 {
    let low = low_mask & LANE_LOW;
    low | (low << 1)
}

/// The direction each lane of a packed counter word predicts: bit `2i` of
/// the result is set iff lane `i` predicts taken (counter value ≥ 2).
#[inline]
#[must_use]
pub fn predict_word(word: u64) -> u64 {
    (word >> 1) & LANE_LOW
}

/// Which lanes of a packed counter word predicted their outcome correctly:
/// bit `2i` of the result is set iff lane `i`'s prediction matches bit `2i`
/// of `taken_lanes`.
#[inline]
#[must_use]
pub fn hit_word(word: u64, taken_lanes: u64) -> u64 {
    !(predict_word(word) ^ taken_lanes) & LANE_LOW
}

/// One branchless saturating-counter step of **all 32 lanes** of a packed
/// word: lane `i` counts up if bit `2i` of `taken_lanes` is set, down
/// otherwise, saturating at `[0, 3]`. Bit-identical per lane to
/// [`crate::counter::two_bit_step`] (pinned exhaustively and by proptest).
#[inline]
#[must_use]
pub fn train_word(word: u64, taken_lanes: u64) -> u64 {
    // Lanes already at 11 must not take the +1 (it would carry into the
    // neighbour); masking the addend to unsaturated lanes both saturates
    // and confines every carry to its own lane. Symmetrically for -1.
    let saturated_up = word & (word >> 1) & LANE_LOW;
    let incremented = word + ((saturated_up ^ LANE_LOW) & LANE_LOW);
    let nonzero = (word | (word >> 1)) & LANE_LOW;
    let decremented = word - nonzero;
    let taken = expand_lanes(taken_lanes);
    (incremented & taken) | (decremented & !taken)
}

/// [`train_word`] restricted to the lanes selected by `select_lanes` (a
/// per-lane low-bit mask); unselected lanes keep their value. This is the
/// ragged-tail form: a group with fewer than 32 live counters passes a
/// partial mask instead of falling back to scalar steps.
#[inline]
#[must_use]
pub fn train_word_select(word: u64, taken_lanes: u64, select_lanes: u64) -> u64 {
    let select = expand_lanes(select_lanes);
    (train_word(word, taken_lanes) & select) | (word & !select)
}

/// The derived counter-step table: `(arena byte, sub-counter, outcome) →
/// (updated byte, hit)`, tabulated once from [`train_word_select`] and
/// [`hit_word`].
///
/// Entry layout: bits 7..0 carry the updated arena byte, bit 8 the hit.
/// The key is `(byte << 3) | (sub_counter << 1) | taken` — exactly bits
/// 17..15 of the replay scratch word next to the arena byte, so the hot
/// loop forms it with one shift-or.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterLut {
    /// Fixed-size so the hot loop's key (`byte << 3 | low3`, provably
    /// < 2048) indexes without a bounds check.
    table: Box<[u16; LUT_ENTRIES]>,
}

/// Number of entries in a [`CounterLut`] (256 byte states × 4 sub-counters
/// × 2 outcomes).
const LUT_ENTRIES: usize = 2048;

impl CounterLut {
    /// Tabulates the counter step by driving the SWAR word primitives over
    /// every (byte, sub-counter, outcome) state.
    #[must_use]
    pub fn new() -> Self {
        let mut table = Box::new([0u16; LUT_ENTRIES]);
        for byte in 0..=255u16 {
            for sub in 0..4u16 {
                for taken in 0..2u16 {
                    let word = u64::from(byte);
                    let select = 1u64 << (2 * sub);
                    let taken_lanes = if taken == 1 { select } else { 0 };
                    let updated = train_word_select(word, taken_lanes, select) & 0xff;
                    let hit = (hit_word(word, taken_lanes) >> (2 * sub)) & 1;
                    table[usize::from((byte << 3) | (sub << 1) | taken)] =
                        (updated as u16) | ((hit as u16) << 8);
                }
            }
        }
        CounterLut { table }
    }
}

impl Default for CounterLut {
    fn default() -> Self {
        CounterLut::new()
    }
}

/// A SWAR-tier record block: the column streams one first-level pass
/// produces and every slot's replay phase consumes.
///
/// Built by [`crate::fused::FusedSweepPredictor::new_swar_block`], filled by
/// [`crate::fused::FusedSweepPredictor::load_swar_block`] and replayed by
/// [`crate::fused::FusedSweepPredictor::replay_swar`] on the same predictor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwarBlock {
    capacity: usize,
    len: usize,
    /// Low 32 address bits per record.
    addrs: Vec<u32>,
    /// `(id << 18) | (taken << 15)` per record — the scratch-word bits that
    /// do not depend on the slot.
    meta: Vec<u32>,
    /// Pre-push pattern rows, `patterns[row * capacity + i]`, one per
    /// history-source group; a row the loader never writes stays zero.
    patterns: Vec<u32>,
    rows: usize,
}

impl SwarBlock {
    /// An empty, zeroed block holding up to `capacity` records across
    /// `rows` pattern rows.
    #[must_use]
    pub fn new(capacity: usize, rows: usize) -> Self {
        let capacity = capacity.max(1);
        let rows = rows.max(1);
        SwarBlock {
            capacity,
            len: 0,
            addrs: vec![0; capacity],
            meta: vec![0; capacity],
            patterns: vec![0; capacity * rows],
            rows,
        }
    }

    /// Number of records currently loaded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the block holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Maximum records one load can hold.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of pattern rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The loaded prefix of pattern row `row`.
    #[inline]
    pub(crate) fn pattern_row(&self, row: usize) -> &[u32] {
        let base = row * self.capacity;
        &self.patterns[base..base + self.len]
    }

    /// Begins a load: clears the length and returns it for the loader to
    /// advance.
    pub(crate) fn reset(&mut self) {
        self.len = 0;
    }

    /// Appends one record's shared columns; pattern rows are written by the
    /// loader separately. Callers must not exceed `capacity`.
    #[inline]
    pub(crate) fn push_record(&mut self, addr: BranchAddr, outcome: Outcome, id: u32) {
        debug_assert!(self.len < self.capacity, "SWAR block overfilled");
        debug_assert!((id as usize) < MAX_SWAR_IDS, "dense id out of SWAR range");
        self.addrs[self.len] = addr.low_bits(32) as u32;
        self.meta[self.len] = (id << 18) | ((outcome.as_bit() as u32) << 15);
        self.len += 1;
    }

    /// Writes pattern row `row` at the current record position (call after
    /// [`SwarBlock::push_record`] advanced `len`).
    #[inline]
    pub(crate) fn set_pattern(&mut self, row: usize, pattern: u32) {
        self.patterns[row * self.capacity + self.len - 1] = pattern;
    }

    /// The loaded prefix of the address column.
    #[inline]
    pub(crate) fn addr_column(&self) -> &[u32] {
        &self.addrs[..self.len]
    }

    /// The loaded prefix of the metadata column.
    #[inline]
    pub(crate) fn meta_column(&self) -> &[u32] {
        &self.meta[..self.len]
    }
}

/// Packs one record's scratch word: PHT index (concatenated or XOR-folded),
/// sub-counter, outcome and id — see the module docs for the layout.
#[inline]
fn pack_scratch<const XOR: bool>(addr: u32, pattern: u32, meta: u32, hm: u32, ab: u32) -> u32 {
    let index = if XOR {
        // `ab` is the full index mask width for the XOR form.
        (addr & ((1u32 << ab) - 1)) ^ (pattern & hm)
    } else {
        ((pattern & hm) << ab) | (addr & ((1u32 << ab) - 1))
    };
    (index >> 2) | ((index & 3) << 16) | meta
}

/// One slot's loop-invariant replay parameters: pattern-source row,
/// history mask, address-bit count, and the hit-lane bit the slot scores
/// into. Built by the [`crate::fused`] callers from slot geometry.
pub(crate) struct SlotPass {
    pub row: usize,
    pub hm: u32,
    pub ab: u32,
    pub slot_bit: u32,
}

/// The reusable packed-word column of the replay kernel. Contents are
/// overwritten per call, capacity is kept, so one value serves every
/// (block, slot) replay of a run.
#[derive(Default)]
pub struct SwarScratch {
    pub(crate) words: Vec<u32>,
}

impl SwarScratch {
    /// Empty scratch; columns grow to block size on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// Validates a slot region for the counter pass and returns the index
/// mask. The region is a power-of-two slot (`1 << (index_bits - 2)`
/// bytes) and every packed byte offset is below it by construction, so
/// masking is a semantic no-op — it exists to let the compiler drop the
/// bounds check on the two region accesses in the counter pass.
/// `at_mask ≤ 0x7fff` also subsumes the byte-offset field extraction
/// (bits 14..0), so the counter pass needs no second mask. Both facts
/// must dominate the hot loop (checked here, `None` on violation —
/// vacuously unreachable by the callers' contracts): without the
/// non-empty fact the compiler treats `len - 1` as a possible all-ones
/// mask, and without the `< 1 << 15` bound its value tracking loses
/// `x & mask < len` through the counter pass's 32-bit narrowing — either
/// way the bounds checks come back.
#[inline]
fn region_mask(region: &[u8]) -> Option<usize> {
    let at_mask = region.len().checked_sub(1)?;
    debug_assert!(at_mask < 1 << 15);
    if at_mask >= 1 << 15 {
        return None;
    }
    Some(at_mask)
}

/// One counter step against a region through the lookup table: returns
/// the raw table entry (updated byte in bits 7..0, hit bit in bit 8)
/// after storing the updated byte back. `at_mask` must satisfy the
/// [`region_mask`] contract for the checks to fold away.
#[inline(always)]
fn counter_step(region: &mut [u8], table: &[u16; LUT_ENTRIES], word: u32, at_mask: usize) -> u16 {
    let at = word as usize & at_mask;
    let byte = usize::from(region[at]);
    let entry = table[(byte << 3) | ((word >> 15) & 7) as usize];
    region[at] = entry as u8;
    entry
}

/// Pass 1 of the replay kernels — packs every record's scratch word into
/// `scratch`: three sequential u32 streams in, one out, loop-invariant
/// masks, no bounds checks — autovectorizes on the baseline target.
#[inline]
fn pack_column<const XOR: bool>(block: &SwarBlock, pass: &SlotPass, scratch: &mut Vec<u32>) {
    scratch.clear();
    scratch.extend(
        block
            .addr_column()
            .iter()
            .zip(block.pattern_row(pass.row))
            .zip(block.meta_column())
            .map(|((&a, &p), &m)| pack_scratch::<XOR>(a, p, m, pass.hm, pass.ab)),
    );
}

/// The two-pass replay kernel: a vector pass packs the whole block's
/// scratch words into `scratch.words` (≤ 8 KB, L1-resident), then the scalar
/// counter pass drains it through `lut` against the slot's arena region.
/// With `SCORED`, each record's hit bit is OR-ed into `hit_lanes[i]` at
/// bit `pass.slot_bit` — a *sequential* store stream, so the counter pass
/// carries no random id-indexed read-modify-write at all;
/// [`drain_hit_lanes`] folds the accumulated per-record masks into
/// id-indexed counts once per block. Without `SCORED`, counters train and
/// nothing is recorded (warmup).
///
/// `region` must be exactly the slot's byte region (`1 << (index_bits -
/// 2)` bytes) and, with `SCORED`, `hit_lanes` must cover the block
/// (`len() >= block.len()`) and hold zeros at this `slot_bit` — both
/// guaranteed by the callers in [`crate::fused`].
pub(crate) fn replay_columns<const XOR: bool, const SCORED: bool>(
    region: &mut [u8],
    lut: &CounterLut,
    block: &SwarBlock,
    pass: &SlotPass,
    hit_lanes: &mut [u64],
    scratch: &mut SwarScratch,
) {
    let table: &[u16; LUT_ENTRIES] = &lut.table;
    let Some(at_mask) = region_mask(region) else {
        return;
    };
    debug_assert!(
        !SCORED || hit_lanes.len() >= block.len(),
        "hit-lane column must cover the block"
    );
    pack_column::<XOR>(block, pass, &mut scratch.words);
    let words = &scratch.words;
    // Pass 2 — the scalar counter pass: one L1 load from the region, one
    // from the 4 KB table, one store back — the counter step itself is the
    // table lookup. Scoring adds only a sequential OR into the hit-lane
    // column (`slot_bit` is loop-invariant), keeping the loop free of
    // random-address read-modify-writes.
    if SCORED {
        // Scoring stays fused into the counter loop: a sequential OR into
        // the hit-lane column at a loop-invariant bit. (A split form —
        // byte-stream stores widened by a second pass — re-measured
        // ~20% slower here: the extra stream round-trip costs more than
        // the in-loop OR, and the widening pass does not vectorize on the
        // baseline target.) Manually unrolled: the compiler leaves this
        // loop rolled on its own, and the explicit quad amortizes the
        // loop-carried overhead across four independent counter steps
        // (an 8-wide unroll re-measured no faster).
        let slot_bit = pass.slot_bit;
        let lanes = &mut hit_lanes[..words.len()];
        let mut quads = words.chunks_exact(4);
        let mut masks = lanes.chunks_exact_mut(4);
        for (quad, out) in (&mut quads).zip(&mut masks) {
            for (&word, lane) in quad.iter().zip(out.iter_mut()) {
                let entry = counter_step(region, table, word, at_mask);
                *lane |= u64::from(entry >> 8) << slot_bit;
            }
        }
        for (&word, lane) in quads.remainder().iter().zip(masks.into_remainder()) {
            let entry = counter_step(region, table, word, at_mask);
            *lane |= u64::from(entry >> 8) << slot_bit;
        }
    } else {
        for &word in words.iter() {
            counter_step(region, table, word, at_mask);
        }
    }
}

/// Lane width of the id-major hit staging a [`drain_hit_lanes`] caller
/// allocates per id: slot count rounded up to the drain's 8-lane adds.
#[must_use]
pub fn hit_stage_stride(slot_count: usize) -> usize {
    slot_count.div_ceil(8) * 8
}

/// Expands a byte's bits into eight 0/1 `u16` lanes — the drain's
/// bit-to-count step, one 16-byte row per possible byte (4 KB total,
/// L1-resident).
const EXPAND_BITS: [[u16; 8]; 256] = {
    let mut table = [[0u16; 8]; 256];
    let mut mask = 0;
    while mask < 256 {
        let mut bit = 0;
        while bit < 8 {
            table[mask][bit] = ((mask >> bit) & 1) as u16;
            bit += 1;
        }
        mask += 1;
    }
    table
};

/// Folds one block's per-record hit-lane masks into id-major `u16` staging
/// counts, clearing the masks for the next block.
///
/// After every slot of a predictor OR-ed its hits into `hit_lanes` (bit `s`
/// of word `i` = record `i` hit in slot `s`), this walks the block **once**,
/// adding each mask's bits into `staged[id * stride ..]` eight `u16` lanes
/// at a time through the `EXPAND_BITS` table — the only id-indexed (random)
/// writes of the whole scored path, amortized over all slots. `stride` must be
/// [`hit_stage_stride`]`(slot_count)` and `staged` must span
/// `(max_id + 1) * stride` lanes; slot `s` of id `d` accumulates at
/// `staged[d * stride + s]`.
///
/// Staging is `u16`: callers flush into wide accumulators before
/// [`MAX_STAGED_RECORDS`] scored records accumulate, which keeps every
/// count in range.
///
/// # Panics
///
/// Panics if `staged` is too short for an id the block carries or
/// `hit_lanes` does not cover the block.
pub fn drain_hit_lanes(
    block: &SwarBlock,
    hit_lanes: &mut [u64],
    stride: usize,
    staged: &mut [u16],
) {
    let chunks = stride / 8;
    for (&meta, lanes) in block.meta_column().iter().zip(hit_lanes.iter_mut()) {
        let mask = *lanes;
        *lanes = 0;
        let id = (meta >> 18) as usize;
        let row = &mut staged[id * stride..(id + 1) * stride];
        for (chunk, part) in row.chunks_exact_mut(8).take(chunks).enumerate() {
            let expand = &EXPAND_BITS[(mask >> (8 * chunk)) as usize & 0xff];
            for (lane, &add) in part.iter_mut().zip(expand) {
                *lane += add;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::{two_bit_step, SaturatingCounter};

    /// Every lane of a packed word must follow the scalar 2-bit state
    /// machine, for all 4 states × both outcomes, independently per lane.
    #[test]
    fn train_word_matches_scalar_step_in_every_lane() {
        for value in 0u8..4 {
            for taken in [false, true] {
                for lane in [0usize, 1, 7, 31] {
                    let word = u64::from(value) << (2 * lane);
                    let taken_lanes = if taken { 1u64 << (2 * lane) } else { 0 };
                    let updated = train_word(word, taken_lanes);
                    let lane_value = ((updated >> (2 * lane)) & 3) as u8;
                    assert_eq!(
                        lane_value,
                        two_bit_step(value, taken),
                        "lane {lane} diverged at value {value}, taken {taken}"
                    );
                }
            }
        }
    }

    #[test]
    fn train_word_confines_carries_to_their_lane() {
        // Saturated lane next to a zero lane: +1 on the saturated lane must
        // not spill, -1 on the zero lane must not borrow.
        let word = 0b00_11u64; // lane 0 = 3, lane 1 = 0
        let up = train_word(word, LANE_LOW); // all lanes taken
        assert_eq!(up & 3, 3, "saturated lane holds");
        assert_eq!((up >> 2) & 3, 1, "zero lane increments");
        let down = train_word(word, 0); // all lanes not-taken
        assert_eq!(down & 3, 2, "saturated lane decrements");
        assert_eq!((down >> 2) & 3, 0, "zero lane holds");
    }

    #[test]
    fn select_mask_freezes_unselected_lanes() {
        let word = 0b01_10_01u64; // lanes 0..3 = 1, 2, 1
        let select = 1 << 2; // lane 1's low bit
        let updated = train_word_select(word, LANE_LOW, select);
        assert_eq!(updated & 3, 1, "lane 0 frozen");
        assert_eq!((updated >> 2) & 3, 3, "lane 1 increments");
        assert_eq!((updated >> 4) & 3, 1, "lane 2 frozen");
    }

    #[test]
    fn expand_lanes_covers_both_bits_of_each_lane() {
        assert_eq!(expand_lanes(0b01_00_01), 0b11_00_11);
    }

    #[test]
    fn predict_and_hit_words_follow_the_threshold() {
        // lanes: 0 → 0 (NT), 1 → 1 (NT), 2 → 2 (T), 3 → 3 (T)
        let word = 0b11_10_01_00u64;
        assert_eq!(predict_word(word), 0b01_01_00_00);
        // All outcomes taken: lanes 2 and 3 hit.
        assert_eq!(hit_word(word, LANE_LOW) & 0xff, 0b01_01_00_00);
        // All outcomes not-taken: lanes 0 and 1 hit.
        assert_eq!(hit_word(word, 0) & 0xff, 0b00_00_01_01);
    }

    /// The derived table must agree with the canonical scalar counter on
    /// every (byte, sub-counter, outcome) — all 2048 states.
    #[test]
    fn counter_lut_matches_saturating_counter_exhaustively() {
        let lut = CounterLut::new();
        for byte in 0..=255u8 {
            for sub in 0..4u8 {
                for taken in [false, true] {
                    let value = (byte >> (2 * sub)) & 3;
                    let mut reference = SaturatingCounter::with_value(2, value);
                    let outcome = Outcome::from_bool(taken);
                    let expected_hit = reference.predict() == outcome;
                    reference.train(outcome);
                    let key =
                        (usize::from(byte) << 3) | (usize::from(sub) << 1) | usize::from(taken);
                    let entry = lut.table[key];
                    let updated = (entry & 0xff) as u8;
                    assert_eq!(
                        (updated >> (2 * sub)) & 3,
                        reference.value(),
                        "updated counter diverged at byte {byte:#04x} sub {sub} taken {taken}"
                    );
                    let untouched = byte & !(3 << (2 * sub));
                    assert_eq!(
                        updated & !(3 << (2 * sub)),
                        untouched,
                        "neighbouring counters must not move"
                    );
                    assert_eq!(
                        entry >> 8 == 1,
                        expected_hit,
                        "hit bit diverged at byte {byte:#04x} sub {sub} taken {taken}"
                    );
                }
            }
        }
    }

    #[test]
    fn swar_block_columns_round_trip() {
        let mut block = SwarBlock::new(4, 2);
        assert!(block.is_empty());
        block.push_record(BranchAddr::new(0x40_0004), Outcome::Taken, 3);
        block.set_pattern(1, 0b101);
        block.push_record(BranchAddr::new(0x40_0008), Outcome::NotTaken, 9);
        block.set_pattern(1, 0b011);
        assert_eq!(block.len(), 2);
        assert_eq!(block.capacity(), 4);
        assert_eq!(block.rows(), 2);
        // Address columns carry the low word-address bits (byte addr >> 2).
        assert_eq!(block.addr_column(), &[0x10_0001, 0x10_0002]);
        assert_eq!(block.meta_column(), &[(3 << 18) | (1 << 15), 9 << 18]);
        assert_eq!(block.pattern_row(1), &[0b101, 0b011]);
        // Row 0 stays the constant-zero row.
        assert_eq!(block.pattern_row(0), &[0, 0]);
        block.reset();
        assert!(block.is_empty());
    }
}
