//! The reference statistics fold: one address-keyed map update per trace
//! record, kept as the oracle the production fold
//! ([`btr_trace::DenseTraceStats`], behind [`btr_trace::TraceStats`]) is
//! checked against.
//!
//! It reads [`Trace`] rows, not interned columns, and counts with its own
//! per-branch update, so it shares no code with the path it checks.
//! [`ReferenceStats::of`] lowers a production [`TraceStats`] through its
//! public getters, so one `assert_eq!` compares every per-address count,
//! every last outcome and both totals.
//!
//! Test files load it with `mod support;`; suites in other crates include
//! this file directly with `#[path]`.

// Every includer uses a different subset of this module.
#![allow(dead_code)]

use btr_trace::{BranchAddr, BranchRecord, Outcome, Trace, TraceStats};
use std::collections::BTreeMap;

/// One static branch's counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BranchCounts {
    pub executions: u64,
    pub taken: u64,
    pub transitions: u64,
    pub last_outcome: Option<Outcome>,
}

impl BranchCounts {
    /// Records one dynamic execution with the given outcome.
    pub fn observe(&mut self, outcome: Outcome) {
        self.executions += 1;
        if outcome.is_taken() {
            self.taken += 1;
        }
        if let Some(prev) = self.last_outcome {
            if prev != outcome {
                self.transitions += 1;
            }
        }
        self.last_outcome = Some(outcome);
    }
}

/// A whole trace's counts, keyed by static branch address.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReferenceStats {
    pub per_addr: BTreeMap<BranchAddr, BranchCounts>,
    pub total_conditional: u64,
    pub total_other: u64,
}

impl ReferenceStats {
    /// Records one trace record: conditionals per address, every other kind
    /// as an aggregate count.
    pub fn observe(&mut self, record: &BranchRecord) {
        if record.kind().is_conditional() {
            self.total_conditional += 1;
            self.per_addr
                .entry(record.addr())
                .or_default()
                .observe(record.outcome());
        } else {
            self.total_other += 1;
        }
    }

    /// Folds every row of `trace`.
    pub fn of_trace(trace: &Trace) -> Self {
        let mut stats = ReferenceStats::default();
        for record in trace {
            stats.observe(record);
        }
        stats
    }

    /// The same facts read from a production [`TraceStats`].
    pub fn of(stats: &TraceStats) -> Self {
        let per_addr = stats
            .iter()
            .map(|(addr, s)| {
                let counts = BranchCounts {
                    executions: s.executions(),
                    taken: s.taken(),
                    transitions: s.transitions(),
                    last_outcome: s.last_outcome(),
                };
                (addr, counts)
            })
            .collect();
        ReferenceStats {
            per_addr,
            total_conditional: stats.total_conditional(),
            total_other: stats.total_other(),
        }
    }

    /// The same counts without the non-conditional total, which a fold over
    /// interned columns never sees.
    pub fn conditional_only(mut self) -> Self {
        self.total_other = 0;
        self
    }
}
