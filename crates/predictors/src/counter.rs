//! Saturating up/down counters, the workhorse state element of dynamic
//! branch predictors.

use btr_trace::Outcome;

/// One step of the canonical 2-bit saturating counter state machine:
/// count toward the outcome, saturating at `[0, 3]`. Bit-identical to
/// [`SaturatingCounter::train`] at width 2 (pinned by tests here and in
/// `fused`/`swar`); this free function is the semantic anchor the packed
/// fused arena and the SWAR word/table tiers are all checked against.
///
/// Both directions are computed and selected between so the compiler emits a
/// conditional move: `taken` is the branch outcome stream itself, the one
/// data-dependent value in a replay loop a branch predictor *cannot* learn
/// (hard branches are the interesting ones), so an actual branch here would
/// pay a misprediction per hard record per slot.
#[inline]
#[must_use]
pub fn two_bit_step(value: u8, taken: bool) -> u8 {
    let up = (value + 1).min(3);
    let down = value.saturating_sub(1);
    if taken {
        up
    } else {
        down
    }
}

/// An `n`-bit saturating counter in the range `[0, 2^n - 1]`.
///
/// Values in the upper half predict *taken*, values in the lower half predict
/// *not taken*. The canonical 2-bit counter of Smith predictors and pattern
/// history tables is `SaturatingCounter::two_bit()`.
///
/// ```
/// use btr_predictors::counter::SaturatingCounter;
/// use btr_trace::Outcome;
///
/// let mut c = SaturatingCounter::two_bit();
/// assert_eq!(c.predict(), Outcome::NotTaken); // initialised weakly not-taken
/// c.train(Outcome::Taken);
/// c.train(Outcome::Taken);
/// assert_eq!(c.predict(), Outcome::Taken);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SaturatingCounter {
    bits: u8,
    value: u8,
}

impl SaturatingCounter {
    /// Creates an `n`-bit counter initialised to the weakly-not-taken value
    /// (just below the midpoint), the conventional cold state.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero or greater than 7.
    pub fn new(bits: u8) -> Self {
        assert!((1..=7).contains(&bits), "counter width must be 1..=7 bits");
        let mid = 1u8 << (bits - 1);
        SaturatingCounter {
            bits,
            value: mid - 1,
        }
    }

    /// Creates an `n`-bit counter with an explicit initial value.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `1..=7` or `value` does not fit in `bits`.
    pub fn with_value(bits: u8, value: u8) -> Self {
        assert!((1..=7).contains(&bits), "counter width must be 1..=7 bits");
        assert!(value <= Self::max_for(bits), "initial value out of range");
        SaturatingCounter { bits, value }
    }

    /// The standard 2-bit counter used by the paper's pattern history tables.
    pub fn two_bit() -> Self {
        SaturatingCounter::new(2)
    }

    fn max_for(bits: u8) -> u8 {
        (1u8 << bits) - 1
    }

    /// The number of state bits this counter occupies.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// The current raw counter value.
    pub fn value(&self) -> u8 {
        self.value
    }

    /// The maximum representable value.
    fn max_value(&self) -> u8 {
        Self::max_for(self.bits)
    }

    /// The direction this counter currently predicts.
    #[inline]
    pub fn predict(&self) -> Outcome {
        Outcome::from_bool(self.value >= (1u8 << (self.bits - 1)))
    }

    /// Updates the counter towards the observed outcome.
    #[inline]
    pub fn train(&mut self, outcome: Outcome) {
        match outcome {
            Outcome::Taken => {
                if self.value < self.max_value() {
                    self.value += 1;
                }
            }
            Outcome::NotTaken => {
                if self.value > 0 {
                    self.value -= 1;
                }
            }
        }
    }

    /// Resets the counter to the weakly-not-taken cold state.
    pub fn reset(&mut self) {
        self.value = (1u8 << (self.bits - 1)) - 1;
    }
}

impl Default for SaturatingCounter {
    fn default() -> Self {
        SaturatingCounter::two_bit()
    }
}

/// A resettable up counter with a fixed cap, used by the confidence
/// estimators to count consecutive events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CappedCounter {
    value: u32,
    cap: u32,
}

impl CappedCounter {
    /// Creates a counter that saturates at `cap`.
    pub fn new(cap: u32) -> Self {
        CappedCounter { value: 0, cap }
    }

    /// Current value.
    pub fn value(&self) -> u32 {
        self.value
    }

    /// Whether the counter has reached its cap.
    pub fn is_saturated(&self) -> bool {
        self.value >= self.cap
    }

    /// Increments, saturating at the cap.
    pub fn increment(&mut self) {
        if self.value < self.cap {
            self.value += 1;
        }
    }

    /// Resets to zero.
    pub fn reset(&mut self) {
        self.value = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_bit_step_matches_saturating_counter_everywhere() {
        for value in 0u8..=3 {
            for taken in [false, true] {
                let mut reference = SaturatingCounter::with_value(2, value);
                reference.train(Outcome::from_bool(taken));
                assert_eq!(
                    two_bit_step(value, taken),
                    reference.value(),
                    "diverged at value {value}, taken {taken}"
                );
            }
        }
    }

    #[test]
    fn two_bit_counter_follows_classic_state_machine() {
        let mut c = SaturatingCounter::two_bit();
        assert_eq!(c.value(), 1); // weakly not taken
        assert_eq!(c.predict(), Outcome::NotTaken);
        c.train(Outcome::Taken);
        assert_eq!(c.predict(), Outcome::Taken); // weakly taken
        c.train(Outcome::Taken);
        assert_eq!(c.value(), 3); // strongly taken
        c.train(Outcome::Taken);
        assert_eq!(c.value(), 3); // saturates
        c.train(Outcome::NotTaken);
        assert_eq!(c.predict(), Outcome::Taken); // hysteresis: still predicts taken
        c.train(Outcome::NotTaken);
        assert_eq!(c.predict(), Outcome::NotTaken);
    }

    #[test]
    fn one_bit_counter_tracks_last_outcome() {
        let mut c = SaturatingCounter::new(1);
        c.train(Outcome::Taken);
        assert_eq!(c.predict(), Outcome::Taken);
        c.train(Outcome::NotTaken);
        assert_eq!(c.predict(), Outcome::NotTaken);
    }

    #[test]
    fn counter_never_leaves_its_range() {
        let mut c = SaturatingCounter::new(3);
        for _ in 0..20 {
            c.train(Outcome::NotTaken);
        }
        assert_eq!(c.value(), 0);
        for _ in 0..20 {
            c.train(Outcome::Taken);
        }
        assert_eq!(c.value(), 7);
    }

    #[test]
    fn reset_returns_to_cold_state() {
        let mut c = SaturatingCounter::two_bit();
        c.train(Outcome::Taken);
        c.train(Outcome::Taken);
        c.reset();
        assert_eq!(c.value(), 1);
    }

    #[test]
    fn with_value_validates_range() {
        let c = SaturatingCounter::with_value(2, 3);
        assert_eq!(c.predict(), Outcome::Taken);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn with_value_rejects_overflow() {
        let _ = SaturatingCounter::with_value(2, 4);
    }

    #[test]
    #[should_panic(expected = "1..=7")]
    fn zero_width_counter_is_rejected() {
        let _ = SaturatingCounter::new(0);
    }

    #[test]
    fn capped_counter_saturates_and_resets() {
        let mut c = CappedCounter::new(3);
        assert!(!c.is_saturated());
        for _ in 0..5 {
            c.increment();
        }
        assert_eq!(c.value(), 3);
        assert!(c.is_saturated());
        c.reset();
        assert_eq!(c.value(), 0);
    }
}
