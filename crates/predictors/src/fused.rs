//! Fused multi-history sweep predictors: every history length of a sweep
//! simulated from **one** pass over the trace.
//!
//! The paper's central experiments sweep one predictor family over history
//! lengths 0–16 — seventeen full decode-and-simulate passes per benchmark if
//! each length gets its own predictor. But the per-history predictors are
//! almost entirely *shared state driven by the same input stream*:
//!
//! * Every history register of the family sees the same outcome sequence, and
//!   shift-and-mask commute: the low `h` bits of a width-`K` shift register
//!   are, after every push, exactly the value a standalone width-`h` register
//!   would hold. So one max-width register (global, or per-address entry)
//!   serves every history length at once — each slot just masks it.
//! * The pattern history tables are *independent* state (each slot trains its
//!   own counters), so driving all of them from the shared register in one
//!   record loop changes nothing observable: results are **bit-identical** to
//!   per-history runs (pinned by `crates/sim/tests/fused_equivalence.rs`).
//!
//! # Counter-arena layout
//!
//! All per-history PHTs live in a single contiguous arena of 2-bit counters
//! (cold value 1 = weakly not-taken, exactly
//! [`crate::counter::SaturatingCounter::two_bit`]'s state machine), indexed
//! `[history_slot][masked_pattern]`:
//!
//! ```text
//! counters: | slot 0: 2^pht_bits(h0) counters | slot 1: 2^pht_bits(h1) | ...
//!             ^ pht_offset(0) = 0               ^ pht_offset(1)
//! ```
//!
//! Counters are packed four per byte (`arena[c >> 2]`, sub-counter
//! `(c & 3) * 2` bits in): a dense GAs 0..=16 sweep owns 17 × 2^17 counters,
//! which packed is ~0.5 MB instead of the ~2.2 MB a byte-per-counter arena
//! would occupy — the difference between an L2-resident slot loop and one
//! that misses to L3 on every slot. The few extra shift/mask ALU ops per
//! access are noise next to that; the 2-bit state machine itself is
//! untouched, so results stay bit-identical.
//!
//! Per record the fused `access_all` resolves the shared history source once,
//! then touches one counter per slot — the accesses are independent, so they
//! pipeline instead of paying a full pass each. The per-slot PHT index is
//! formed exactly as the standalone predictor forms it (history bits
//! concatenated with address bits for the two-level family, XOR-folded for
//! gshare) from the *pre-push* pattern.
//!
//! # Blocked replay
//!
//! Even packed, interleaving every slot's PHT per record keeps the whole
//! arena live at once. The blocked API interchanges the loops: the shared
//! first level is advanced over a small batch of records first
//! ([`FusedSweepPredictor::load_block`] captures each record's pre-push
//! patterns into a [`FusedBlock`]), then each slot replays the whole batch
//! against *its own* 16–32 KB PHT in a dedicated phase
//! ([`FusedSweepPredictor::replay_slot`]) — an L1-resident inner loop with
//! loop-invariant masks. Interchange is sound because slots only share the
//! history registers (advanced once, in record order, during the load) and
//! each slot's counters still observe exactly its record sequence in order;
//! results stay bit-identical to the record-major `access_all` and to the
//! standalone per-history predictors. This is what the simulation engine's
//! `run_fused` paths use; `access_all` remains as the one-record form and
//! the equivalence anchor.
//!
//! # Per-address history and BHT geometry groups
//!
//! One subtlety keeps PAs honest: the paper sizes the branch history table
//! per history length (`2^17 / k` entries rounded down to a power of two), so
//! different lengths index *different-sized* BHTs — their address aliasing
//! differs, and a single shared register table would not be bit-identical.
//! The fused predictor therefore groups slots by BHT entry count and keeps
//! one shared max-width BHT per geometry group; within a group the aliasing
//! is identical, so the masked-register argument applies. The paper's dense
//! 0..=16 sweep needs just 5 physical BHTs ({1}, {2}, {3,4}, {5..8}, {9..16})
//! plus the BHT-less zero-history slot — 5 first-level resolutions per record
//! instead of 16. Group registers are at most 16 bits wide, so the shared
//! BHTs store `u16` patterns (~0.5 MB for the dense sweep, against ~2 MB as
//! `u64`s) — cache residency again.

use crate::counter::two_bit_step;
use crate::history::HistoryRegister;
use crate::swar::{self, CounterLut, SwarBlock, SwarScratch, MAX_SWAR_IDS, MAX_SWAR_INDEX_BITS};
use crate::twolevel::TwoLevelConfig;
use btr_trace::{BranchAddr, Outcome};
use core::ops::Range;

/// Maximum number of history slots one fused predictor can drive
/// ([`FusedSweepPredictor::access_all`] reports hits as a `u64` bitmask).
pub const MAX_FUSED_SLOTS: usize = 64;

/// One byte of four cold 2-bit counters: each weakly not-taken, matching
/// [`crate::counter::SaturatingCounter::two_bit`].
const COLD_COUNTER_BYTE: u8 = 0b01_01_01_01;

/// 2-bit counter values at or above this predict taken.
const TAKEN_THRESHOLD: u8 = 2;

/// Predicts, checks and trains the 2-bit counter at position `counter_index`
/// of the packed arena, returning the hit. The counter step is the canonical
/// [`crate::counter::two_bit_step`] — the same anchor the SWAR tier's word
/// primitives and derived table are pinned against.
#[inline]
fn access_packed(arena: &mut [u8], counter_index: usize, taken: bool) -> bool {
    let byte = &mut arena[counter_index >> 2];
    let shift = ((counter_index & 3) * 2) as u32;
    let counter = (*byte >> shift) & 3;
    let hit = (counter >= TAKEN_THRESHOLD) == taken;
    *byte = (*byte & !(3 << shift)) | (two_bit_step(counter, taken) << shift);
    hit
}

/// A geometry group's shared per-address history registers: the first level
/// of every PAs slot whose paper BHT has this entry count.
///
/// Semantically a [`crate::history::BranchHistoryTable`] whose register width
/// is the group's widest member — each slot masks the shared pattern down to
/// its own length. Patterns are stored as `u16` (PAs history is at most 16
/// bits) to keep all groups cache-resident at once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PackedBht {
    index_bits: u32,
    /// `(1 << width) - 1` for the group's maximum history width.
    mask: u16,
    /// Register width in bits (the group's widest member).
    width: u32,
    patterns: Vec<u16>,
}

impl PackedBht {
    pub(crate) fn new(index_bits: u32, width: u32) -> Self {
        assert!((1..=16).contains(&width), "packed BHT width must be 1..=16");
        PackedBht {
            index_bits,
            mask: (((1u32 << width) - 1) & 0xffff) as u16,
            width,
            patterns: vec![0; 1usize << index_bits],
        }
    }

    /// Returns the pattern for `addr`, then shifts `outcome` in — exactly
    /// [`crate::history::BranchHistoryTable::pattern_and_push`].
    #[inline]
    pub(crate) fn pattern_and_push(&mut self, addr: BranchAddr, outcome: Outcome) -> u64 {
        let idx = addr.low_bits(self.index_bits) as usize;
        let pattern = self.patterns[idx];
        self.patterns[idx] = ((pattern << 1) | outcome.as_bit() as u16) & self.mask;
        u64::from(pattern)
    }

    fn storage_bits(&self) -> u64 {
        self.patterns.len() as u64 * u64::from(self.width)
    }
}

/// Bit offset of the direction flag in a packed [`FusedBlock`] entry.
const PACKED_TAKEN_SHIFT: u32 = 32;
/// Bit offset of the pre-push history pattern in a packed entry.
const PACKED_PATTERN_SHIFT: u32 = 33;

/// A reusable batch of records prepared by
/// [`FusedSweepPredictor::load_block`] for per-slot replay.
///
/// Each record is one packed `u64` per history-source group — address word
/// in the low 32 bits, direction at bit 32, the group's pre-push pattern
/// (≤ 17 bits) above — laid out in group-major rows, so a slot's replay
/// phase reads exactly one sequential stream. Global-history families have a
/// single row (the shared register); for PAs, row 0 carries the
/// constant-zero pattern of zero-history slots and rows 1.. one BHT geometry
/// group each.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FusedBlock {
    capacity: usize,
    len: usize,
    /// Packed records, `packed[group * capacity + i]`.
    packed: Vec<u64>,
}

impl FusedBlock {
    /// Number of records currently loaded.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the block holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Maximum records one load can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// How a family turns (history pattern, address) into a PHT index, and where
/// its first level lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FusedCore {
    /// GAs: one global register; index = history ++ address bits.
    GlobalTwoLevel,
    /// PAs: per-address registers in geometry-grouped BHTs;
    /// index = history ++ address bits.
    PerAddressTwoLevel,
    /// gshare: one global register; index = address bits XOR history.
    Gshare,
}

/// Per-history-slot geometry: which counters it owns and how it forms its
/// index from the shared history source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FusedSlot {
    /// `(1 << h) - 1`, the mask extracting this slot's history from the
    /// shared register (0 for a zero-history slot).
    history_mask: u64,
    /// Two-level: number of address bits below the history in the index.
    /// Gshare: full index width (address bits are XORed, not concatenated).
    addr_bits: u32,
    /// Base of this slot's PHT within the shared counter arena.
    pht_offset: usize,
    /// Index into the pattern scratch: 0 is the constant-zero pattern
    /// (zero-history slots), `g + 1` is BHT geometry group `g` for PAs or the
    /// single global register for GAs/gshare.
    group: u32,
}

/// Intermediate slot description used during construction.
struct SlotGeometry {
    history_bits: u32,
    pht_index_bits: u32,
    bht_index_bits: u32,
}

/// A whole history sweep's worth of predictors of one family, driven from a
/// single trace pass.
///
/// Construct with the paper-sized family constructors
/// ([`FusedSweepPredictor::pas_paper`], [`FusedSweepPredictor::gas_paper`],
/// [`FusedSweepPredictor::gshare_paper`]), then call
/// [`FusedSweepPredictor::access_all`] once per dynamic conditional branch;
/// bit `i` of the returned mask is the hit/miss of the standalone predictor
/// at `histories[i]`.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedSweepPredictor {
    core: FusedCore,
    family: &'static str,
    histories: Vec<u32>,
    slots: Vec<FusedSlot>,
    /// All per-slot PHTs as 2-bit counters packed four per byte, laid out
    /// `[history_slot][masked_pattern]` (`FusedSlot::pht_offset` is in
    /// counters, not bytes).
    arena: Vec<u8>,
    /// Shared max-width global register (GAs / gshare; width 0 for PAs).
    global: HistoryRegister,
    /// Shared max-width per-address registers, one table per BHT geometry
    /// group (PAs only).
    bhts: Vec<PackedBht>,
    /// Per-record pattern scratch: `scratch[0]` is always 0, `scratch[g + 1]`
    /// holds group `g`'s pre-push pattern.
    scratch: Vec<u64>,
}

impl FusedSweepPredictor {
    /// The paper's PAs configurations at every requested history length
    /// (each 0 ..= 16), fused into one predictor.
    ///
    /// # Panics
    ///
    /// Panics if `histories` is empty, longer than [`MAX_FUSED_SLOTS`], or
    /// contains a length the 32 KB budget rejects.
    pub fn pas_paper(histories: &[u32]) -> Self {
        let geometry: Vec<SlotGeometry> = histories
            .iter()
            .map(|&h| {
                let config = TwoLevelConfig::pas_paper(h);
                SlotGeometry {
                    history_bits: config.history_bits,
                    pht_index_bits: config.pht_index_bits,
                    bht_index_bits: config.bht_index_bits,
                }
            })
            .collect();
        Self::build(FusedCore::PerAddressTwoLevel, "PAs", histories, &geometry)
    }

    /// The paper's GAs configurations at every requested history length
    /// (each 0 ..= 17), fused into one predictor.
    ///
    /// # Panics
    ///
    /// Panics if `histories` is empty, longer than [`MAX_FUSED_SLOTS`], or
    /// contains a length the 32 KB budget rejects.
    pub fn gas_paper(histories: &[u32]) -> Self {
        let geometry: Vec<SlotGeometry> = histories
            .iter()
            .map(|&h| {
                let config = TwoLevelConfig::gas_paper(h);
                SlotGeometry {
                    history_bits: config.history_bits,
                    pht_index_bits: config.pht_index_bits,
                    bht_index_bits: 0,
                }
            })
            .collect();
        Self::build(FusedCore::GlobalTwoLevel, "GAs", histories, &geometry)
    }

    /// Paper-sized (2^17-counter) gshare at every requested history length
    /// (each 0 ..= 17), fused into one predictor.
    ///
    /// # Panics
    ///
    /// Panics if `histories` is empty, longer than [`MAX_FUSED_SLOTS`], or
    /// contains a length above the 17-bit index width.
    pub fn gshare_paper(histories: &[u32]) -> Self {
        const GSHARE_INDEX_BITS: u32 = 17;
        let geometry: Vec<SlotGeometry> = histories
            .iter()
            .map(|&h| {
                assert!(
                    h <= GSHARE_INDEX_BITS,
                    "gshare history ({h}) must not exceed index width ({GSHARE_INDEX_BITS})"
                );
                SlotGeometry {
                    history_bits: h,
                    pht_index_bits: GSHARE_INDEX_BITS,
                    bht_index_bits: 0,
                }
            })
            .collect();
        Self::build(FusedCore::Gshare, "gshare", histories, &geometry)
    }

    fn build(
        core: FusedCore,
        family: &'static str,
        histories: &[u32],
        geometry: &[SlotGeometry],
    ) -> Self {
        assert!(
            !histories.is_empty(),
            "fused sweep needs at least one history length"
        );
        assert!(
            histories.len() <= MAX_FUSED_SLOTS,
            "fused sweep is limited to {MAX_FUSED_SLOTS} history slots"
        );
        // BHT geometry groups (PAs): (bht_index_bits, max history width).
        let mut groups: Vec<(u32, u32)> = Vec::new();
        let mut slots = Vec::with_capacity(geometry.len());
        let mut arena_len = 0usize;
        for slot in geometry {
            let group = match core {
                FusedCore::PerAddressTwoLevel if slot.history_bits > 0 => {
                    let g = groups
                        .iter()
                        .position(|&(bits, _)| bits == slot.bht_index_bits)
                        .unwrap_or_else(|| {
                            groups.push((slot.bht_index_bits, 0));
                            groups.len() - 1
                        });
                    groups[g].1 = groups[g].1.max(slot.history_bits);
                    (g + 1) as u32
                }
                FusedCore::PerAddressTwoLevel => 0,
                // Global-history families have exactly one pattern source, so
                // every slot reads row 0 (zero-history slots mask it away).
                FusedCore::GlobalTwoLevel | FusedCore::Gshare => 0,
            };
            slots.push(FusedSlot {
                history_mask: if slot.history_bits == 0 {
                    0
                } else {
                    (1u64 << slot.history_bits) - 1
                },
                addr_bits: match core {
                    FusedCore::Gshare => slot.pht_index_bits,
                    _ => slot.pht_index_bits - slot.history_bits,
                },
                pht_offset: arena_len,
                group,
            });
            arena_len += 1usize << slot.pht_index_bits;
        }
        let bhts: Vec<PackedBht> = groups
            .iter()
            .map(|&(index_bits, width)| PackedBht::new(index_bits, width))
            .collect();
        let global_bits = match core {
            FusedCore::PerAddressTwoLevel => 0,
            _ => histories.iter().copied().max().unwrap_or(0),
        };
        let scratch_len = match core {
            FusedCore::PerAddressTwoLevel => bhts.len() + 1,
            _ => 1,
        };
        debug_assert_eq!(arena_len % 4, 0, "PHT sizes are powers of two >= 4");
        FusedSweepPredictor {
            core,
            family,
            histories: histories.to_vec(),
            slots,
            arena: vec![COLD_COUNTER_BYTE; arena_len / 4],
            global: HistoryRegister::new(global_bits),
            bhts,
            scratch: vec![0u64; scratch_len],
        }
    }

    /// The history lengths this predictor drives, in slot order (bit `i` of
    /// the [`FusedSweepPredictor::access_all`] mask corresponds to
    /// `histories()[i]`).
    pub fn histories(&self) -> &[u32] {
        &self.histories
    }

    /// Number of history slots (= `histories().len()`).
    pub fn slot_count(&self) -> usize {
        self.histories.len()
    }

    /// The family label (`"PAs"`, `"GAs"` or `"gshare"`).
    pub fn family_label(&self) -> &'static str {
        self.family
    }

    /// A descriptive name such as `"fused-PAs[17 slots]"`.
    pub fn name(&self) -> String {
        format!("fused-{}[{} slots]", self.family, self.histories.len())
    }

    /// Total predictor state across all slots, in bits (each arena byte holds
    /// four 2-bit counters; shared first-level state is counted once).
    pub fn storage_bits(&self) -> u64 {
        let counters = self.arena.len() as u64 * 8;
        let bhts: u64 = self.bhts.iter().map(PackedBht::storage_bits).sum();
        counters + bhts + u64::from(self.global.bits())
    }

    /// Simulates one dynamic conditional branch through **every** history
    /// slot: predicts and trains each slot's counter from the shared pre-push
    /// history, then shifts `outcome` into the shared register(s) once.
    ///
    /// Bit `i` of the returned mask is set iff the slot at `histories()[i]`
    /// predicted `outcome` correctly — bit-identical to calling the
    /// standalone predictor's fused `access` at that history length.
    #[inline]
    pub fn access_all(&mut self, addr: BranchAddr, outcome: Outcome) -> u64 {
        let taken = outcome.as_bit() != 0;
        match self.core {
            FusedCore::GlobalTwoLevel => {
                self.scratch[0] = self.global.pattern_and_push(outcome);
                self.drive_concat(addr, taken)
            }
            FusedCore::PerAddressTwoLevel => {
                for (g, bht) in self.bhts.iter_mut().enumerate() {
                    self.scratch[g + 1] = bht.pattern_and_push(addr, outcome);
                }
                self.drive_concat(addr, taken)
            }
            FusedCore::Gshare => {
                self.scratch[0] = self.global.pattern_and_push(outcome);
                self.drive_xor(addr, taken)
            }
        }
    }

    /// Creates a reusable record batch for the blocked replay path, sized
    /// for this predictor's history-source groups.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new_block(&self, capacity: usize) -> FusedBlock {
        assert!(capacity > 0, "fused block needs a non-zero capacity");
        FusedBlock {
            capacity,
            len: 0,
            packed: vec![0; capacity * self.scratch.len()],
        }
    }

    /// Loads up to `block.capacity()` records into `block`, advancing every
    /// shared history register and capturing each record's *pre-push*
    /// patterns (one row per history-source group).
    ///
    /// Feed the records afterwards to [`FusedSweepPredictor::replay_slot`]
    /// for every slot, in any slot order; blocks must be loaded in stream
    /// order and fully replayed before the next load.
    ///
    /// # Panics
    ///
    /// Panics if `records` yields more than `block.capacity()` items.
    pub fn load_block<I>(&mut self, records: I, block: &mut FusedBlock)
    where
        I: IntoIterator<Item = (BranchAddr, Outcome)>,
    {
        let capacity = block.capacity;
        let mut len = 0usize;
        match self.core {
            FusedCore::GlobalTwoLevel | FusedCore::Gshare => {
                for (addr, outcome) in records {
                    assert!(len < capacity, "fused block overfilled");
                    let base = addr.low_bits(32) | (outcome.as_bit() << PACKED_TAKEN_SHIFT);
                    let pattern = self.global.pattern_and_push(outcome);
                    block.packed[len] = base | (pattern << PACKED_PATTERN_SHIFT);
                    len += 1;
                }
            }
            FusedCore::PerAddressTwoLevel => {
                for (addr, outcome) in records {
                    assert!(len < capacity, "fused block overfilled");
                    let base = addr.low_bits(32) | (outcome.as_bit() << PACKED_TAKEN_SHIFT);
                    // Row 0 feeds zero-history slots: address and direction
                    // with the constant-zero pattern.
                    block.packed[len] = base;
                    for (g, bht) in self.bhts.iter_mut().enumerate() {
                        let pattern = bht.pattern_and_push(addr, outcome);
                        block.packed[(g + 1) * capacity + len] =
                            base | (pattern << PACKED_PATTERN_SHIFT);
                    }
                    len += 1;
                }
            }
        }
        block.len = len;
    }

    /// Replays a loaded block against one slot's PHT, adding each record's
    /// hit (0/1) into `hits[ids[record_index]]` — the scored form of
    /// [`FusedSweepPredictor::replay_slot`], with the per-record id stream
    /// zipped straight into the replay loop so the hot path carries no
    /// closure indirection or extra index arithmetic. Counter state and hits
    /// are bit-identical to [`FusedSweepPredictor::replay_slot`] with an
    /// accumulating sink.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= self.slot_count()`, if `ids.len() != block.len()`,
    /// or if an id is outside `hits`.
    #[inline]
    pub fn replay_slot_scored(
        &mut self,
        slot: usize,
        block: &FusedBlock,
        ids: &[u32],
        hits: &mut [u64],
    ) {
        assert_eq!(ids.len(), block.len(), "one id per block record");
        let geometry = self.slots[slot];
        let row = geometry.group as usize * block.capacity;
        let packed = &block.packed[row..row + block.len];
        let addr_mask = if geometry.addr_bits == 0 {
            0
        } else {
            u64::MAX >> (64 - geometry.addr_bits)
        };
        let history_mask = geometry.history_mask;
        // The two index forms are duplicated rather than branched on so each
        // loop body stays minimal; `replay_slot` pins their equivalence to
        // the record-major path.
        match self.core {
            FusedCore::Gshare => {
                for (&entry, &id) in packed.iter().zip(ids) {
                    let pattern = entry >> PACKED_PATTERN_SHIFT;
                    let taken = entry & (1 << PACKED_TAKEN_SHIFT) != 0;
                    let index = (entry & addr_mask) ^ (pattern & history_mask);
                    let hit =
                        access_packed(&mut self.arena, geometry.pht_offset + index as usize, taken);
                    hits[id as usize] += u64::from(hit);
                }
            }
            FusedCore::GlobalTwoLevel | FusedCore::PerAddressTwoLevel => {
                for (&entry, &id) in packed.iter().zip(ids) {
                    let pattern = entry >> PACKED_PATTERN_SHIFT;
                    let taken = entry & (1 << PACKED_TAKEN_SHIFT) != 0;
                    let index =
                        ((pattern & history_mask) << geometry.addr_bits) | (entry & addr_mask);
                    let hit =
                        access_packed(&mut self.arena, geometry.pht_offset + index as usize, taken);
                    hits[id as usize] += u64::from(hit);
                }
            }
        }
    }

    /// Replays a loaded block against one slot's PHT, calling
    /// `sink(record_index, hit)` for every record in block order.
    ///
    /// Counter state after the replay — and every reported hit — is
    /// bit-identical to having driven the slot record-by-record through
    /// [`FusedSweepPredictor::access_all`].
    ///
    /// # Panics
    ///
    /// Panics if `slot >= self.slot_count()`.
    #[inline]
    pub fn replay_slot<F: FnMut(usize, bool)>(
        &mut self,
        slot: usize,
        block: &FusedBlock,
        mut sink: F,
    ) {
        let geometry = self.slots[slot];
        let row = geometry.group as usize * block.capacity;
        let packed = &block.packed[row..row + block.len];
        let addr_mask = if geometry.addr_bits == 0 {
            0
        } else {
            u64::MAX >> (64 - geometry.addr_bits)
        };
        let history_mask = geometry.history_mask;
        let xor_index = self.core == FusedCore::Gshare;
        for (i, &entry) in packed.iter().enumerate() {
            let pattern = entry >> PACKED_PATTERN_SHIFT;
            let taken = entry & (1 << PACKED_TAKEN_SHIFT) != 0;
            let index = if xor_index {
                (entry & addr_mask) ^ (pattern & history_mask)
            } else {
                ((pattern & history_mask) << geometry.addr_bits) | (entry & addr_mask)
            };
            let hit = access_packed(&mut self.arena, geometry.pht_offset + index as usize, taken);
            sink(i, hit);
        }
    }

    /// The PHT index width of one slot: concatenated history + address bits
    /// for the two-level families, the full (XOR-folded) index width for
    /// gshare.
    fn slot_index_bits(&self, slot: &FusedSlot) -> u32 {
        match self.core {
            FusedCore::Gshare => slot.addr_bits,
            _ => slot.addr_bits + slot.history_mask.count_ones(),
        }
    }

    /// Whether every slot's geometry fits the SWAR replay tier's packed
    /// scratch word (see [`crate::swar`] module docs): index width within
    /// `2..=`[`MAX_SWAR_INDEX_BITS`].
    pub(crate) fn swar_geometry_ok(&self) -> bool {
        self.slots.len() <= swar::MAX_SWAR_SLOTS
            && self
                .slots
                .iter()
                .all(|slot| (2..=MAX_SWAR_INDEX_BITS).contains(&self.slot_index_bits(slot)))
    }

    /// Whether the SWAR replay tier can run this predictor against a trace
    /// with `static_count` distinct (dense-interned) branch sites: every
    /// slot's index must fit the packed scratch word and every id must fit
    /// its 14-bit field. Callers fall back to the scalar blocked replay when
    /// this is `false` — the two paths are bit-identical, so the choice is
    /// purely a performance decision.
    pub fn swar_ready(&self, static_count: usize) -> bool {
        static_count <= MAX_SWAR_IDS && self.swar_geometry_ok()
    }

    /// Number of pattern-source rows this predictor reads (row 0 plus one
    /// per shared BHT for PAs; a single row for global-history families).
    pub(crate) fn pattern_sources(&self) -> usize {
        self.scratch.len()
    }

    /// Whether the family's first level is the shared global register.
    pub(crate) fn uses_global(&self) -> bool {
        self.core != FusedCore::PerAddressTwoLevel
    }

    /// Width of the shared global register (0 for PAs).
    pub(crate) fn global_bits(&self) -> u32 {
        self.global.bits()
    }

    /// `(index_bits, register width)` of each shared BHT geometry group, in
    /// group order (PAs only; empty for global-history families).
    pub(crate) fn bht_geometries(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.bhts.iter().map(|bht| (bht.index_bits, bht.width))
    }

    /// Replays a loaded SWAR block against every slot's PHT through the
    /// two-phase kernel — the SWAR tier's counterpart of
    /// [`FusedSweepPredictor::replay_slot_scored`] over all slots, one
    /// after another, bit-identical to it (pinned by the equivalence suites).
    ///
    /// `row_map` translates this predictor's history-source groups to the
    /// block's pattern rows (from [`crate::swar::BatchLoader::for_lanes`])
    /// and `lut` is the derived counter-step table (shareable across slots,
    /// lanes and calls). `scratch` is the kernel's packed-word buffer —
    /// contents are transient, callers just reuse one allocation across
    /// calls.
    ///
    /// With `hit_lanes`, each record's hit bit for slot `s` is OR-ed into
    /// `hit_lanes[i]` at bit `s`: the column must cover the block and hold
    /// zeros on entry. After the call, fold the masks into id-indexed counts
    /// with [`crate::swar::drain_hit_lanes`] (which also re-zeroes the
    /// column) — scoring in the counter pass itself is a sequential OR, so
    /// the random id-indexed accumulation is paid once per block instead of
    /// once per (record, slot). Without it, counters train exactly the same
    /// and nothing is recorded: the warmup form.
    ///
    /// # Panics
    ///
    /// Panics if `row_map` does not cover this predictor's groups or the
    /// block's rows do not cover a mapped row.
    pub fn replay_swar(
        &mut self,
        block: &SwarBlock,
        row_map: &[usize],
        lut: &CounterLut,
        hit_lanes: Option<&mut [u64]>,
        scratch: &mut SwarScratch,
    ) {
        match hit_lanes {
            Some(hit_lanes) => {
                for slot in 0..self.slots.len() {
                    self.replay_swar_slot::<true>(slot, block, row_map, lut, hit_lanes, scratch);
                }
            }
            None => {
                for slot in 0..self.slots.len() {
                    self.replay_swar_slot::<false>(slot, block, row_map, lut, &mut [], scratch);
                }
            }
        }
    }

    /// One slot's SWAR replay ([`swar::replay_columns`]).
    #[inline]
    fn replay_swar_slot<const SCORED: bool>(
        &mut self,
        slot: usize,
        block: &SwarBlock,
        row_map: &[usize],
        lut: &CounterLut,
        hit_lanes: &mut [u64],
        scratch: &mut SwarScratch,
    ) {
        let (range, pass) = self.swar_slot_pass(slot, row_map);
        let region = &mut self.arena[range];
        match self.core {
            FusedCore::Gshare => {
                swar::replay_columns::<true, SCORED>(region, lut, block, &pass, hit_lanes, scratch)
            }
            FusedCore::GlobalTwoLevel | FusedCore::PerAddressTwoLevel => {
                swar::replay_columns::<false, SCORED>(region, lut, block, &pass, hit_lanes, scratch)
            }
        }
    }

    /// One slot's arena byte range and loop-invariant kernel parameters.
    #[inline]
    fn swar_slot_pass(&self, slot: usize, row_map: &[usize]) -> (Range<usize>, swar::SlotPass) {
        let geometry = self.slots[slot];
        let index_bits = self.slot_index_bits(&geometry);
        debug_assert!(
            (2..=MAX_SWAR_INDEX_BITS).contains(&index_bits),
            "slot outside the SWAR tier; callers must check swar_ready first"
        );
        let base = geometry.pht_offset >> 2;
        let pass = swar::SlotPass {
            row: row_map[geometry.group as usize],
            hm: geometry.history_mask as u32,
            ab: geometry.addr_bits,
            slot_bit: slot as u32,
        };
        (base..base + (1usize << (index_bits - 2)), pass)
    }

    /// Slot loop for the two-level index form `history ++ address bits`.
    #[inline]
    fn drive_concat(&mut self, addr: BranchAddr, taken: bool) -> u64 {
        let word = addr.low_bits(64);
        let mut hits = 0u64;
        for (i, slot) in self.slots.iter().enumerate() {
            let history = self.scratch[slot.group as usize] & slot.history_mask;
            let addr_low = word & ((1u64 << slot.addr_bits) - 1);
            let index = (history << slot.addr_bits) | addr_low;
            let hit = access_packed(&mut self.arena, slot.pht_offset + index as usize, taken);
            hits |= u64::from(hit) << i;
        }
        hits
    }

    /// Slot loop for the gshare index form `address bits XOR history`.
    #[inline]
    fn drive_xor(&mut self, addr: BranchAddr, taken: bool) -> u64 {
        let word = addr.low_bits(64);
        let mut hits = 0u64;
        for (i, slot) in self.slots.iter().enumerate() {
            let history = self.scratch[slot.group as usize] & slot.history_mask;
            let index = (word & ((1u64 << slot.addr_bits) - 1)) ^ history;
            let hit = access_packed(&mut self.arena, slot.pht_offset + index as usize, taken);
            hits |= u64::from(hit) << i;
        }
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gshare::GsharePredictor;
    use crate::predictor::BranchPredictor;
    use crate::twolevel::TwoLevelPredictor;

    /// A deterministic stream mixing biased, alternating and pseudo-random
    /// branches over enough addresses to exercise BHT/PHT aliasing.
    fn stream(n: u64, seed: u64) -> Vec<(BranchAddr, Outcome)> {
        let mut state = seed | 1;
        (0..n)
            .map(|i| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let addr = BranchAddr::new(0x40_0000 + ((state >> 45) & 0x1ff) * 4);
                let taken = match i % 3 {
                    0 => i % 2 == 0,
                    1 => true,
                    _ => (state >> 33) & 1 == 1,
                };
                (addr, Outcome::from_bool(taken))
            })
            .collect()
    }

    fn assert_bit_identical(
        mut fused: FusedSweepPredictor,
        mut standalone: Vec<Box<dyn BranchPredictor>>,
        n: u64,
        seed: u64,
    ) {
        for (step, (addr, outcome)) in stream(n, seed).into_iter().enumerate() {
            let mask = fused.access_all(addr, outcome);
            for (slot, predictor) in standalone.iter_mut().enumerate() {
                let expected = predictor.access(addr, outcome);
                let got = (mask >> slot) & 1 == 1;
                assert_eq!(
                    got,
                    expected,
                    "{} slot {slot} (h={}) diverged at record {step}",
                    fused.name(),
                    fused.histories()[slot]
                );
            }
        }
    }

    #[test]
    fn pas_dense_sweep_matches_standalone_predictors_bit_for_bit() {
        let histories: Vec<u32> = (0..=16).collect();
        let standalone: Vec<Box<dyn BranchPredictor>> = histories
            .iter()
            .map(|&h| Box::new(TwoLevelPredictor::pas_paper(h)) as Box<dyn BranchPredictor>)
            .collect();
        assert_bit_identical(
            FusedSweepPredictor::pas_paper(&histories),
            standalone,
            6000,
            0xfeed,
        );
    }

    #[test]
    fn gas_dense_sweep_matches_standalone_predictors_bit_for_bit() {
        let histories: Vec<u32> = (0..=16).collect();
        let standalone: Vec<Box<dyn BranchPredictor>> = histories
            .iter()
            .map(|&h| Box::new(TwoLevelPredictor::gas_paper(h)) as Box<dyn BranchPredictor>)
            .collect();
        assert_bit_identical(
            FusedSweepPredictor::gas_paper(&histories),
            standalone,
            6000,
            0xbeef,
        );
    }

    #[test]
    fn gshare_sweep_matches_standalone_predictors_bit_for_bit() {
        let histories = [0u32, 3, 8, 12, 17];
        let standalone: Vec<Box<dyn BranchPredictor>> = histories
            .iter()
            .map(|&h| Box::new(GsharePredictor::paper_sized(h)) as Box<dyn BranchPredictor>)
            .collect();
        assert_bit_identical(
            FusedSweepPredictor::gshare_paper(&histories),
            standalone,
            6000,
            0xcafe,
        );
    }

    #[test]
    fn sparse_and_unsorted_history_sets_keep_slot_order() {
        let histories = [16u32, 0, 3];
        let fused = FusedSweepPredictor::pas_paper(&histories);
        assert_eq!(fused.histories(), &histories);
        assert_eq!(fused.slot_count(), 3);
        let standalone: Vec<Box<dyn BranchPredictor>> = histories
            .iter()
            .map(|&h| Box::new(TwoLevelPredictor::pas_paper(h)) as Box<dyn BranchPredictor>)
            .collect();
        assert_bit_identical(fused, standalone, 3000, 0x5eed);
    }

    #[test]
    fn pas_geometry_groups_share_bhts() {
        // Dense 0..=16 needs one BHT per distinct paper BHT size:
        // {1}, {2}, {3,4}, {5..8}, {9..16} — five groups, not sixteen.
        let fused = FusedSweepPredictor::pas_paper(&(0..=16).collect::<Vec<u32>>());
        assert_eq!(fused.bhts.len(), 5);
        // Each group register is as wide as its widest member.
        let widths: Vec<u32> = fused.bhts.iter().map(|b| b.width).collect();
        assert_eq!(widths, vec![1, 2, 4, 8, 16]);
        // Global-history families never allocate BHTs.
        assert!(FusedSweepPredictor::gas_paper(&[0, 8, 16]).bhts.is_empty());
    }

    #[test]
    fn arena_is_contiguous_and_correctly_sized() {
        // PAs: h=0 slot is the 2^17 address-indexed table, h>=1 slots 2^16;
        // four 2-bit counters pack into each arena byte.
        let fused = FusedSweepPredictor::pas_paper(&[0, 4, 8]);
        assert_eq!(fused.arena.len(), ((1 << 17) + 2 * (1 << 16)) / 4);
        assert_eq!(fused.slots[0].pht_offset, 0);
        assert_eq!(fused.slots[1].pht_offset, 1 << 17);
        assert_eq!(fused.slots[2].pht_offset, (1 << 17) + (1 << 16));
        // GAs: every slot owns a full 2^17 table of 2-bit counters — each
        // slot is exactly the paper's 32 KB PHT budget.
        let gas = FusedSweepPredictor::gas_paper(&[0, 8]);
        assert_eq!(gas.arena.len(), (2 << 17) / 4);
        assert!(gas.storage_bits() >= 2 * 32 * 1024 * 8);
        assert_eq!(gas.family_label(), "GAs");
    }

    #[test]
    fn zero_history_singleton_works_for_every_family() {
        for fused in [
            FusedSweepPredictor::pas_paper(&[0]),
            FusedSweepPredictor::gas_paper(&[0]),
            FusedSweepPredictor::gshare_paper(&[0]),
        ] {
            let mut fused = fused;
            let addr = BranchAddr::new(0x40_0100);
            // Cold counters predict not-taken; train to taken and re-check.
            assert_eq!(fused.access_all(addr, Outcome::Taken), 0);
            fused.access_all(addr, Outcome::Taken);
            assert_eq!(fused.access_all(addr, Outcome::Taken), 1);
        }
    }

    #[test]
    #[should_panic(expected = "at least one history")]
    fn empty_history_set_rejected() {
        let _ = FusedSweepPredictor::pas_paper(&[]);
    }

    #[test]
    #[should_panic(expected = "at most 16")]
    fn overlong_pas_history_rejected() {
        let _ = FusedSweepPredictor::pas_paper(&[17]);
    }

    #[test]
    #[should_panic(expected = "must not exceed")]
    fn overlong_gshare_history_rejected() {
        let _ = FusedSweepPredictor::gshare_paper(&[18]);
    }

    #[test]
    #[should_panic(expected = "limited to")]
    fn too_many_slots_rejected() {
        let histories: Vec<u32> = (0..65).map(|i| i % 17).collect();
        let _ = FusedSweepPredictor::gas_paper(&histories);
    }

    #[test]
    fn blocked_replay_is_bit_identical_to_access_all() {
        let records = stream(5000, 0x1dea);
        for (make, label) in [
            (
                FusedSweepPredictor::pas_paper as fn(&[u32]) -> FusedSweepPredictor,
                "PAs",
            ),
            (FusedSweepPredictor::gas_paper, "GAs"),
            (FusedSweepPredictor::gshare_paper, "gshare"),
        ] {
            let histories: Vec<u32> = (0..=16).collect();
            let mut reference = make(&histories);
            let mut blocked = make(&histories);
            // Uneven capacity so block boundaries fall mid-stream.
            let mut block = blocked.new_block(193);
            for batch in records.chunks(block.capacity()) {
                let expected: Vec<u64> = batch
                    .iter()
                    .map(|&(addr, outcome)| reference.access_all(addr, outcome))
                    .collect();
                blocked.load_block(batch.iter().copied(), &mut block);
                assert_eq!(block.len(), batch.len());
                assert!(!block.is_empty());
                let mut masks = vec![0u64; batch.len()];
                for slot in 0..blocked.slot_count() {
                    blocked.replay_slot(slot, &block, |i, hit| {
                        masks[i] |= u64::from(hit) << slot;
                    });
                }
                assert_eq!(masks, expected, "{label} blocked replay diverged");
            }
            // All persistent predictor state must match; `scratch` is a
            // per-record temporary only the record-major path writes.
            assert_eq!(blocked.arena, reference.arena, "{label} arena diverged");
            assert_eq!(blocked.bhts, reference.bhts, "{label} BHTs diverged");
            assert_eq!(
                blocked.global, reference.global,
                "{label} register diverged"
            );
        }
    }

    #[test]
    #[should_panic(expected = "overfilled")]
    fn overfilled_block_rejected() {
        let mut fused = FusedSweepPredictor::gas_paper(&[4]);
        let mut block = fused.new_block(2);
        fused.load_block(stream(3, 1), &mut block);
    }

    #[test]
    fn counter_step_matches_saturating_counter() {
        use crate::counter::SaturatingCounter;
        for value in 0u8..=3 {
            for taken in [false, true] {
                let mut reference = SaturatingCounter::with_value(2, value);
                let outcome = Outcome::from_bool(taken);
                let expected_hit = reference.predict() == outcome;
                reference.train(outcome);
                let hit = (value >= TAKEN_THRESHOLD) == taken;
                assert_eq!(hit, expected_hit, "predict diverged at {value}/{taken}");
                assert_eq!(
                    two_bit_step(value, taken),
                    reference.value(),
                    "train diverged at {value}/{taken}"
                );
            }
        }
    }

    /// Dense branch ids for the test stream: its addresses span 512 words,
    /// so the low 9 word bits are already a perfect dense interning.
    fn stream_id(addr: BranchAddr) -> u32 {
        addr.low_bits(9) as u32
    }

    /// Widens one lane's id-major `u16` hit staging into per-slot `u64`
    /// rows shaped like the scalar reference accumulators.
    fn widen_staged(staged: &[u16], stride: usize, slots: usize, ids: usize) -> Vec<Vec<u64>> {
        (0..slots)
            .map(|slot| {
                (0..ids)
                    .map(|id| u64::from(staged[id * stride + slot]))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn swar_replay_is_bit_identical_to_scalar_scored_replay() {
        use crate::swar::{drain_hit_lanes, hit_stage_stride, BatchLoader, CounterLut};
        let records = stream(5000, 0x51ab);
        let lut = CounterLut::new();
        for (make, label) in [
            (
                FusedSweepPredictor::pas_paper as fn(&[u32]) -> FusedSweepPredictor,
                "PAs",
            ),
            (FusedSweepPredictor::gas_paper, "GAs"),
            (FusedSweepPredictor::gshare_paper, "gshare"),
        ] {
            let histories: Vec<u32> = (0..=16).collect();
            let mut scalar = make(&histories);
            let mut swar_side = make(&histories);
            assert!(swar_side.swar_ready(512), "{label} must fit the SWAR tier");
            let (mut loader, maps) =
                BatchLoader::for_lanes(&[&swar_side]).expect("single lane fits the SWAR tier");
            // Uneven capacity so block boundaries fall mid-stream and the
            // last block is a ragged tail for the chunked kernel.
            let mut scalar_block = scalar.new_block(193);
            let mut block = loader.new_block(193);
            let slots = scalar.slot_count();
            let mut scalar_hits = vec![vec![0u64; 512]; slots];
            // SWAR scores via the per-record hit-lane column, drained into
            // id-major u16 staging per block; 5000 records stay far below
            // the `MAX_STAGED_RECORDS` flush bound, so one widening at the
            // end is enough for the comparison.
            let stride = hit_stage_stride(slots);
            let mut staged = vec![0u16; 512 * stride];
            let mut hit_lanes = vec![0u64; 193];
            let mut scratch = SwarScratch::new();
            for (chunk_index, batch) in records.chunks(193).enumerate() {
                let ids: Vec<u32> = batch.iter().map(|&(addr, _)| stream_id(addr)).collect();
                scalar.load_block(batch.iter().copied(), &mut scalar_block);
                loader.load_block(
                    batch.iter().zip(&ids).map(|(&(a, o), &id)| (a, o, id)),
                    &mut block,
                );
                // Treat the first block as warmup: both sides must train
                // without scoring and still agree afterwards.
                if chunk_index == 0 {
                    for slot in 0..slots {
                        scalar.replay_slot(slot, &scalar_block, |_, _| {});
                    }
                    swar_side.replay_swar(&block, &maps[0], &lut, None, &mut scratch);
                } else {
                    for (slot, hits) in scalar_hits.iter_mut().enumerate().take(slots) {
                        scalar.replay_slot_scored(slot, &scalar_block, &ids, hits);
                    }
                    swar_side.replay_swar(
                        &block,
                        &maps[0],
                        &lut,
                        Some(&mut hit_lanes),
                        &mut scratch,
                    );
                    drain_hit_lanes(&block, &mut hit_lanes, stride, &mut staged);
                }
            }
            let widened = widen_staged(&staged, stride, slots, 512);
            assert_eq!(widened, scalar_hits, "{label} SWAR hits diverged");
            assert_eq!(swar_side.arena, scalar.arena, "{label} SWAR arena diverged");
        }
    }

    #[test]
    fn shared_batch_loader_matches_per_lane_scalar_runs() {
        use crate::swar::{drain_hit_lanes, hit_stage_stride, BatchLoader, CounterLut};
        let records = stream(4000, 0x77aa);
        let lut = CounterLut::new();
        // Three lanes of different families and history sets over one trace:
        // the loader must carry the union of their first-level state.
        let pas_h: Vec<u32> = (0..=16).collect();
        let gas_h = [0u32, 5, 9, 16];
        let gshare_h = [2u32, 11, 17];
        let mut lanes = [
            FusedSweepPredictor::pas_paper(&pas_h),
            FusedSweepPredictor::gas_paper(&gas_h),
            FusedSweepPredictor::gshare_paper(&gshare_h),
        ];
        let (mut loader, maps) = {
            let refs: Vec<&FusedSweepPredictor> = lanes.iter().collect();
            BatchLoader::for_lanes(&refs).expect("lanes fit the SWAR tier")
        };
        let mut block = loader.new_block(157);
        let strides: Vec<usize> = lanes
            .iter()
            .map(|lane| hit_stage_stride(lane.slot_count()))
            .collect();
        let mut staged: Vec<Vec<u16>> = strides.iter().map(|&s| vec![0u16; 512 * s]).collect();
        let mut hit_lanes = vec![0u64; 157];
        let mut scratch = SwarScratch::new();
        for batch in records.chunks(157) {
            loader.load_block(batch.iter().map(|&(a, o)| (a, o, stream_id(a))), &mut block);
            for (lane_index, lane) in lanes.iter_mut().enumerate() {
                lane.replay_swar(
                    &block,
                    &maps[lane_index],
                    &lut,
                    Some(&mut hit_lanes),
                    &mut scratch,
                );
                drain_hit_lanes(
                    &block,
                    &mut hit_lanes,
                    strides[lane_index],
                    &mut staged[lane_index],
                );
            }
        }
        // Reference: each lane alone, scalar blocked replay.
        let references = [
            FusedSweepPredictor::pas_paper(&pas_h),
            FusedSweepPredictor::gas_paper(&gas_h),
            FusedSweepPredictor::gshare_paper(&gshare_h),
        ];
        for (lane_index, mut reference) in references.into_iter().enumerate() {
            let mut scalar_block = reference.new_block(157);
            let mut scalar_hits = vec![vec![0u64; 512]; reference.slot_count()];
            for batch in records.chunks(157) {
                let ids: Vec<u32> = batch.iter().map(|&(addr, _)| stream_id(addr)).collect();
                reference.load_block(batch.iter().copied(), &mut scalar_block);
                for (slot, hits) in scalar_hits.iter_mut().enumerate() {
                    reference.replay_slot_scored(slot, &scalar_block, &ids, hits);
                }
            }
            let widened = widen_staged(
                &staged[lane_index],
                strides[lane_index],
                reference.slot_count(),
                512,
            );
            assert_eq!(
                widened, scalar_hits,
                "lane {lane_index} hits diverged under the shared loader"
            );
            assert_eq!(
                lanes[lane_index].arena, reference.arena,
                "lane {lane_index} arena diverged under the shared loader"
            );
        }
    }

    #[test]
    fn swar_arena_region_matches_standalone_pht_packed_export() {
        use crate::pht::PatternHistoryTable;
        use crate::swar::{BatchLoader, CounterLut};
        // A zero-history gshare slot indexes its PHT by address bits alone,
        // so a standalone table driven at the same indices must land on the
        // byte-identical packed arena — a direct check of the arena layout
        // `packed_two_bit` documents.
        let records = stream(3000, 0xabcd);
        let mut fused = FusedSweepPredictor::gshare_paper(&[0]);
        let lut = CounterLut::new();
        let (mut loader, maps) = BatchLoader::for_lanes(&[&fused]).expect("fits the SWAR tier");
        let mut block = loader.new_block(256);
        let mut pht = PatternHistoryTable::two_bit(17);
        let mut hit_lanes = vec![0u64; 256];
        let mut scratch = SwarScratch::new();
        for batch in records.chunks(256) {
            loader.load_block(batch.iter().map(|&(a, o)| (a, o, stream_id(a))), &mut block);
            fused.replay_swar(&block, &maps[0], &lut, Some(&mut hit_lanes), &mut scratch);
            for &(addr, outcome) in batch {
                pht.predict_and_train(addr.low_bits(17), outcome);
            }
        }
        assert_eq!(
            fused.arena,
            pht.packed_two_bit().expect("2-bit table exports packed")
        );
    }

    #[test]
    fn swar_readiness_reflects_geometry_and_id_bounds() {
        let fused = FusedSweepPredictor::gas_paper(&(0..=16).collect::<Vec<u32>>());
        assert!(fused.swar_geometry_ok());
        assert!(fused.swar_ready(crate::swar::MAX_SWAR_IDS));
        assert!(
            !fused.swar_ready(crate::swar::MAX_SWAR_IDS + 1),
            "id field overflow must disqualify the tier"
        );
    }
}
