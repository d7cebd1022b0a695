//! Primitive types describing a single dynamic branch execution.

use std::fmt;

/// The (virtual) address of a static branch instruction.
///
/// Addresses are opaque identifiers as far as the analysis is concerned; the
/// paper indexes predictor tables with the low-order bits of the address, so
/// the type exposes [`BranchAddr::low_bits`] for that purpose.
///
/// ```
/// use btr_trace::BranchAddr;
/// // 0x40 is a 4-byte aligned address; the alignment bits are dropped first.
/// let a = BranchAddr::new(0x40);
/// assert_eq!(a.low_bits(8), 0x10);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BranchAddr(u64);

impl BranchAddr {
    /// Creates a branch address from a raw value.
    pub fn new(raw: u64) -> Self {
        BranchAddr(raw)
    }

    /// Returns the raw address value.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Returns the `n` low-order bits of the address (word-aligned view).
    ///
    /// Branch instructions on the simulated target are 4-byte aligned, so the
    /// two least-significant bits carry no information; they are shifted out
    /// before extracting bits, matching `sim-bpred`'s indexing convention.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    #[inline]
    pub fn low_bits(self, n: u32) -> u64 {
        assert!(n <= 64, "cannot take more than 64 low bits");
        let word = self.0 >> 2;
        if n == 64 {
            word
        } else if n == 0 {
            0
        } else {
            word & ((1u64 << n) - 1)
        }
    }
}

impl fmt::Display for BranchAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#010x}", self.0)
    }
}

impl From<u64> for BranchAddr {
    fn from(raw: u64) -> Self {
        BranchAddr::new(raw)
    }
}

/// The resolved direction of a branch execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// The branch was not taken (fell through).
    NotTaken,
    /// The branch was taken.
    Taken,
}

impl Outcome {
    /// Converts a boolean (`true` = taken) into an outcome.
    #[inline]
    pub fn from_bool(taken: bool) -> Self {
        if taken {
            Outcome::Taken
        } else {
            Outcome::NotTaken
        }
    }

    /// Returns `true` if the branch was taken.
    #[inline]
    pub fn is_taken(self) -> bool {
        matches!(self, Outcome::Taken)
    }

    /// Returns the opposite direction.
    #[must_use]
    pub fn flipped(self) -> Self {
        match self {
            Outcome::Taken => Outcome::NotTaken,
            Outcome::NotTaken => Outcome::Taken,
        }
    }

    /// Returns 1 for taken and 0 for not taken, convenient for history shifts.
    #[inline]
    pub fn as_bit(self) -> u64 {
        match self {
            Outcome::Taken => 1,
            Outcome::NotTaken => 0,
        }
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Outcome::Taken => write!(f, "T"),
            Outcome::NotTaken => write!(f, "N"),
        }
    }
}

impl From<bool> for Outcome {
    fn from(taken: bool) -> Self {
        Outcome::from_bool(taken)
    }
}

/// The kind of a control transfer appearing in a trace.
///
/// The paper analyses conditional branches only, but real traces also contain
/// unconditional jumps, calls and returns; keeping them in the data model lets
/// the filtering adapters reproduce the "only conditional branches were
/// measured" rule of the paper explicitly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchKind {
    /// A conditional direct branch.
    Conditional,
    /// An unconditional direct jump.
    Unconditional,
    /// A function call.
    Call,
    /// A function return.
    Return,
    /// An indirect jump through a register or memory operand.
    Indirect,
}

impl BranchKind {
    /// Returns `true` for [`BranchKind::Conditional`].
    pub fn is_conditional(self) -> bool {
        matches!(self, BranchKind::Conditional)
    }

    /// All kinds, useful for exhaustive iteration in tests and tools.
    pub const ALL: [BranchKind; 5] = [
        BranchKind::Conditional,
        BranchKind::Unconditional,
        BranchKind::Call,
        BranchKind::Return,
        BranchKind::Indirect,
    ];

    /// A compact single-character mnemonic used by the text trace format.
    pub fn mnemonic(self) -> char {
        match self {
            BranchKind::Conditional => 'C',
            BranchKind::Unconditional => 'J',
            BranchKind::Call => 'L',
            BranchKind::Return => 'R',
            BranchKind::Indirect => 'I',
        }
    }

    /// Parses the mnemonic produced by [`BranchKind::mnemonic`].
    pub fn from_mnemonic(c: char) -> Option<Self> {
        Some(match c {
            'C' => BranchKind::Conditional,
            'J' => BranchKind::Unconditional,
            'L' => BranchKind::Call,
            'R' => BranchKind::Return,
            'I' => BranchKind::Indirect,
            _ => return None,
        })
    }
}

impl fmt::Display for BranchKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            BranchKind::Conditional => "conditional",
            BranchKind::Unconditional => "unconditional",
            BranchKind::Call => "call",
            BranchKind::Return => "return",
            BranchKind::Indirect => "indirect",
        };
        write!(f, "{name}")
    }
}

/// One dynamic execution of a branch instruction.
///
/// ```
/// use btr_trace::{BranchAddr, BranchRecord, Outcome};
/// let r = BranchRecord::conditional(BranchAddr::new(0x400100), Outcome::Taken);
/// assert!(r.kind().is_conditional());
/// assert!(r.outcome().is_taken());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BranchRecord {
    addr: BranchAddr,
    kind: BranchKind,
    outcome: Outcome,
    target: Option<BranchAddr>,
}

impl BranchRecord {
    /// Creates a record with an explicit kind and no target information.
    pub fn new(addr: BranchAddr, kind: BranchKind, outcome: Outcome) -> Self {
        BranchRecord {
            addr,
            kind,
            outcome,
            target: None,
        }
    }

    /// Creates a conditional-branch record (the common case for this study).
    pub fn conditional(addr: BranchAddr, outcome: Outcome) -> Self {
        BranchRecord::new(addr, BranchKind::Conditional, outcome)
    }

    /// Attaches the branch target address, returning the modified record.
    #[must_use]
    pub fn with_target(mut self, target: BranchAddr) -> Self {
        self.target = Some(target);
        self
    }

    /// The static branch address.
    #[inline]
    pub fn addr(&self) -> BranchAddr {
        self.addr
    }

    /// The control-transfer kind.
    #[inline]
    pub fn kind(&self) -> BranchKind {
        self.kind
    }

    /// The resolved direction.
    #[inline]
    pub fn outcome(&self) -> Outcome {
        self.outcome
    }

    /// The branch target, if recorded.
    pub fn target(&self) -> Option<BranchAddr> {
        self.target
    }
}

impl fmt::Display for BranchRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.kind.mnemonic(), self.addr, self.outcome)?;
        if let Some(t) = self.target {
            write!(f, " -> {t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_low_bits_strip_alignment() {
        let a = BranchAddr::new(0b10_11_00);
        // The two alignment bits are shifted out first.
        assert_eq!(a.low_bits(4), 0b1011);
        assert_eq!(a.low_bits(2), 0b11);
        assert_eq!(a.low_bits(0), 0);
    }

    #[test]
    fn addr_low_bits_full_width() {
        let a = BranchAddr::new(u64::MAX);
        assert_eq!(a.low_bits(64), u64::MAX >> 2);
    }

    #[test]
    #[should_panic(expected = "more than 64")]
    fn addr_low_bits_rejects_overwide_request() {
        BranchAddr::new(0).low_bits(65);
    }

    #[test]
    fn outcome_roundtrips_bool_and_bit() {
        assert!(Outcome::from_bool(true).is_taken());
        assert!(!Outcome::from_bool(false).is_taken());
        assert_eq!(Outcome::Taken.as_bit(), 1);
        assert_eq!(Outcome::NotTaken.as_bit(), 0);
        assert_eq!(Outcome::Taken.flipped(), Outcome::NotTaken);
        assert_eq!(Outcome::NotTaken.flipped(), Outcome::Taken);
    }

    #[test]
    fn kind_mnemonics_roundtrip() {
        for kind in BranchKind::ALL {
            assert_eq!(BranchKind::from_mnemonic(kind.mnemonic()), Some(kind));
        }
        assert_eq!(BranchKind::from_mnemonic('x'), None);
    }

    #[test]
    fn record_accessors_and_direction() {
        let r = BranchRecord::conditional(BranchAddr::new(0x1000), Outcome::Taken)
            .with_target(BranchAddr::new(0x0800));
        assert_eq!(r.addr().raw(), 0x1000);
        assert_eq!(r.target(), Some(BranchAddr::new(0x0800)));

        let fwd = BranchRecord::conditional(BranchAddr::new(0x1000), Outcome::NotTaken)
            .with_target(BranchAddr::new(0x2000));
        assert_eq!(fwd.target(), Some(BranchAddr::new(0x2000)));

        let untargeted =
            BranchRecord::new(BranchAddr::new(0x1000), BranchKind::Return, Outcome::Taken);
        assert_eq!(untargeted.target(), None);
    }

    #[test]
    fn display_formats_are_compact() {
        let r = BranchRecord::conditional(BranchAddr::new(0x400100), Outcome::Taken);
        let s = format!("{r}");
        assert!(s.starts_with('C'));
        assert!(s.contains("0x00400100"));
        assert!(s.ends_with('T'));
    }
}
