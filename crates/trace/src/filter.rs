//! Iterator adapters over branch-record streams.
//!
//! The paper measures *conditional branches only* ([`ConditionalOnly`]),
//! sometimes over sub-windows of execution ([`Windowed`]), and large traces
//! are commonly thinned by deterministic sampling for quick experiments
//! ([`Sampled`]). These adapters work over any `Iterator<Item = BranchRecord>`
//! so they compose with both in-memory traces and streaming readers.

use crate::record::BranchRecord;

/// Yields only conditional-branch records from the underlying stream.
#[derive(Debug, Clone)]
pub struct ConditionalOnly<I> {
    inner: I,
}

impl<I> ConditionalOnly<I> {
    /// Wraps an iterator of records.
    pub fn new(inner: I) -> Self {
        ConditionalOnly { inner }
    }
}

impl<I: Iterator<Item = BranchRecord>> Iterator for ConditionalOnly<I> {
    type Item = BranchRecord;

    fn next(&mut self) -> Option<BranchRecord> {
        self.inner.by_ref().find(|r| r.kind().is_conditional())
    }
}

/// Deterministically samples one record in every `period` records.
///
/// Sampling is positional (record index modulo `period`), so it is
/// reproducible and does not need a random source.
#[derive(Debug, Clone)]
pub struct Sampled<I> {
    inner: I,
    period: usize,
    index: usize,
}

impl<I> Sampled<I> {
    /// Wraps an iterator, keeping one record in every `period`.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn new(inner: I, period: usize) -> Self {
        assert!(period > 0, "sampling period must be non-zero");
        Sampled {
            inner,
            period,
            index: 0,
        }
    }
}

impl<I: Iterator<Item = BranchRecord>> Iterator for Sampled<I> {
    type Item = BranchRecord;

    fn next(&mut self) -> Option<BranchRecord> {
        for r in self.inner.by_ref() {
            let keep = self.index.is_multiple_of(self.period);
            self.index += 1;
            if keep {
                return Some(r);
            }
        }
        None
    }
}

/// Restricts the stream to the half-open index window `[start, end)`.
#[derive(Debug, Clone)]
pub struct Windowed<I> {
    inner: I,
    start: usize,
    end: usize,
    index: usize,
}

impl<I> Windowed<I> {
    /// Wraps an iterator, keeping records with index in `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if `start > end`.
    pub fn new(inner: I, start: usize, end: usize) -> Self {
        assert!(start <= end, "window start must not exceed end");
        Windowed {
            inner,
            start,
            end,
            index: 0,
        }
    }
}

impl<I: Iterator<Item = BranchRecord>> Iterator for Windowed<I> {
    type Item = BranchRecord;

    fn next(&mut self) -> Option<BranchRecord> {
        while self.index < self.end {
            let r = self.inner.next()?;
            let i = self.index;
            self.index += 1;
            if i >= self.start {
                return Some(r);
            }
        }
        None
    }
}

/// Extension trait adding the adapters to any record iterator.
pub trait RecordStreamExt: Iterator<Item = BranchRecord> + Sized {
    /// Keeps only conditional branches.
    fn conditional_only(self) -> ConditionalOnly<Self> {
        ConditionalOnly::new(self)
    }

    /// Keeps one record per `period` records.
    fn sampled(self, period: usize) -> Sampled<Self> {
        Sampled::new(self, period)
    }

    /// Keeps records with index in `[start, end)`.
    fn windowed(self, start: usize, end: usize) -> Windowed<Self> {
        Windowed::new(self, start, end)
    }
}

impl<I: Iterator<Item = BranchRecord>> RecordStreamExt for I {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{BranchAddr, BranchKind, Outcome};

    fn cond(addr: u64, taken: bool) -> BranchRecord {
        BranchRecord::conditional(BranchAddr::new(addr), Outcome::from_bool(taken))
    }

    fn call(addr: u64) -> BranchRecord {
        BranchRecord::new(BranchAddr::new(addr), BranchKind::Call, Outcome::Taken)
    }

    #[test]
    fn conditional_only_drops_other_kinds() {
        let stream = vec![cond(0x10, true), call(0x14), cond(0x18, false), call(0x1c)];
        let kept: Vec<_> = stream.into_iter().conditional_only().collect();
        assert_eq!(kept.len(), 2);
        assert!(kept.iter().all(|r| r.kind().is_conditional()));
    }

    #[test]
    fn sampling_keeps_every_nth_record() {
        let stream: Vec<_> = (0..10).map(|i| cond(0x100 + i * 4, true)).collect();
        let kept: Vec<_> = stream.into_iter().sampled(3).collect();
        // indices 0, 3, 6, 9
        assert_eq!(kept.len(), 4);
        assert_eq!(kept[0].addr().raw(), 0x100);
        assert_eq!(kept[1].addr().raw(), 0x100 + 3 * 4);
    }

    #[test]
    fn sampling_period_one_is_identity() {
        let stream: Vec<_> = (0..5).map(|i| cond(0x100 + i, true)).collect();
        let kept: Vec<_> = stream.clone().into_iter().sampled(1).collect();
        assert_eq!(kept, stream);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn sampling_rejects_zero_period() {
        let _ = Sampled::new(std::iter::empty::<BranchRecord>(), 0);
    }

    #[test]
    fn window_selects_index_range() {
        let stream: Vec<_> = (0..10).map(|i| cond(i, true)).collect();
        let kept: Vec<_> = stream.into_iter().windowed(2, 5).collect();
        assert_eq!(kept.len(), 3);
        assert_eq!(kept[0].addr().raw(), 2);
        assert_eq!(kept[2].addr().raw(), 4);
    }

    #[test]
    fn window_empty_and_out_of_range() {
        let stream: Vec<_> = (0..3).map(|i| cond(i, true)).collect();
        assert_eq!(stream.clone().into_iter().windowed(1, 1).count(), 0);
        assert_eq!(stream.into_iter().windowed(2, 100).count(), 1);
    }

    #[test]
    #[should_panic(expected = "start must not exceed end")]
    fn window_rejects_inverted_range() {
        let _ = Windowed::new(std::iter::empty::<BranchRecord>(), 5, 2);
    }

    #[test]
    fn adapters_compose() {
        let stream: Vec<_> = (0..20)
            .map(|i| {
                if i % 5 == 0 {
                    call(i)
                } else {
                    cond(i, i % 2 == 0)
                }
            })
            .collect();
        let kept: Vec<_> = stream
            .into_iter()
            .conditional_only()
            .windowed(0, 10)
            .sampled(2)
            .collect();
        assert_eq!(kept.len(), 5);
        assert!(kept.iter().all(|r| r.kind().is_conditional()));
    }
}
