//! A small synthetic control-flow-graph (CFG) program model.
//!
//! Where [`crate::spec`] calibrates branch *statistics* directly, this module
//! provides a more literal substitute for executing a program under
//! SimpleScalar: a program is a graph of basic blocks whose conditional
//! branches are driven by loop counters, periodic conditions and
//! pseudo-random data tests. Interpreting the graph produces a branch trace
//! with the natural nesting and interleaving structure of real control flow
//! (loop exits next to body guards, correlated branches, and so on).
//!
//! ```
//! use btr_workloads::cfg::{CfgBuilder, Condition};
//!
//! let mut b = CfgBuilder::new(0x40_0000);
//! b.counted_loop(100, |body| {
//!     body.if_else(Condition::Modulo { period: 3, phase: 0 }, 2, 1);
//! });
//! let program = b.build();
//! let trace = program.interpret(10_000, 7);
//! assert!(trace.conditional_count() > 0);
//! ```

use btr_trace::{
    BranchAddr, BranchKind, BranchRecord, Outcome, Trace, TraceBuilder, TraceMetadata,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The condition controlling a synthetic conditional branch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Condition {
    /// Taken while the enclosing loop's iteration counter is below
    /// `trip_count - 1` (a classic backward loop branch).
    LoopBackEdge {
        /// Loop trip count.
        trip_count: u32,
    },
    /// Taken when the interpreter's global step counter modulo `period`
    /// equals `phase` (periodic data-like behaviour).
    Modulo {
        /// Period of the condition.
        period: u32,
        /// Phase at which the branch is taken.
        phase: u32,
    },
    /// Taken with probability `p_taken`, independent of history
    /// (data-dependent, hard-to-predict behaviour).
    Random {
        /// Probability of being taken.
        p_taken: f64,
    },
    /// Taken exactly when the previous conditional branch in program order
    /// was taken (models correlated guards).
    SameAsPrevious,
}

/// One structural element of a synthetic program.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Element {
    /// A conditional branch with `skip` elements jumped over when taken.
    Branch {
        addr: u64,
        condition: Condition,
        skip: usize,
    },
    /// The head of a counted loop whose body is the next `body_len` elements.
    LoopHead {
        addr: u64,
        trip_count: u32,
        body_len: usize,
    },
    /// Straight-line work (no trace records, consumes one step).
    Work,
}

/// A synthetic program: a flat list of structural elements produced by
/// [`CfgBuilder`].
#[derive(Debug, Clone, PartialEq)]
pub struct CfgProgram {
    elements: Vec<Element>,
    base_addr: u64,
}

/// Builder for [`CfgProgram`]s using structured-programming combinators.
#[derive(Debug, Clone)]
pub struct CfgBuilder {
    elements: Vec<Element>,
    next_addr: u64,
    base_addr: u64,
}

impl CfgBuilder {
    /// Creates a builder placing branch addresses from `base_addr` upwards.
    pub fn new(base_addr: u64) -> Self {
        CfgBuilder {
            elements: Vec::new(),
            next_addr: base_addr,
            base_addr,
        }
    }

    fn alloc_addr(&mut self) -> u64 {
        let a = self.next_addr;
        self.next_addr += 8;
        a
    }

    /// Appends an `if`/`else` guarded by `condition`; the then-arm contains
    /// `then_work` work elements and the else-arm `else_work`.
    pub fn if_else(
        &mut self,
        condition: Condition,
        then_work: usize,
        else_work: usize,
    ) -> &mut Self {
        let addr = self.alloc_addr();
        // Branch taken = skip the then-arm (like a real `beq` guarding a block).
        self.elements.push(Element::Branch {
            addr,
            condition,
            skip: then_work,
        });
        self.elements
            .extend(std::iter::repeat_n(Element::Work, then_work));
        self.elements
            .extend(std::iter::repeat_n(Element::Work, else_work));
        self
    }

    /// Appends a counted loop executing `body` `trip_count` times.
    pub fn counted_loop<F: FnOnce(&mut CfgBuilder)>(
        &mut self,
        trip_count: u32,
        body: F,
    ) -> &mut Self {
        let addr = self.alloc_addr();
        let mut inner = CfgBuilder {
            elements: Vec::new(),
            next_addr: self.next_addr,
            base_addr: self.base_addr,
        };
        body(&mut inner);
        self.next_addr = inner.next_addr;
        let body_len = inner.elements.len();
        self.elements.push(Element::LoopHead {
            addr,
            trip_count,
            body_len,
        });
        self.elements.extend(inner.elements);
        self
    }

    /// Finalises the program.
    pub fn build(&self) -> CfgProgram {
        CfgProgram {
            elements: self.elements.clone(),
            base_addr: self.base_addr,
        }
    }
}

impl CfgProgram {
    /// Number of structural elements (a rough proxy for program size).
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// Number of distinct static conditional branches in the program.
    pub fn static_branches(&self) -> usize {
        self.elements
            .iter()
            .filter(|e| matches!(e, Element::Branch { .. } | Element::LoopHead { .. }))
            .count()
    }

    /// Interprets the program repeatedly (restarting from the top when it
    /// finishes) until `max_branches` conditional branches have been emitted.
    pub fn interpret(&self, max_branches: u64, seed: u64) -> Trace {
        let metadata = TraceMetadata::named("cfg-program")
            .with_input_set(format!("{} elements", self.elements.len()))
            .with_seed(seed);
        let mut builder = TraceBuilder::with_metadata(metadata);
        if self.elements.is_empty() || max_branches == 0 {
            return builder.build();
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut emitted = 0u64;
        let mut step = 0u64;
        let mut prev_taken = false;
        'outer: loop {
            let mut pc = 0usize;
            // Loop iteration counters indexed by element position, plus a
            // stack of (head_pc, end_pc) for loops currently being executed so
            // that finishing a body returns control to its loop head.
            let mut counters = vec![0u32; self.elements.len()];
            let mut loop_stack: Vec<(usize, usize)> = Vec::new();
            loop {
                if emitted >= max_branches {
                    break 'outer;
                }
                // Returning from a loop body (including one that ends the
                // element list) goes back to its loop head.
                if let Some(&(head, end)) = loop_stack.last() {
                    if pc == end {
                        pc = head;
                        continue;
                    }
                }
                if pc >= self.elements.len() {
                    break;
                }
                step += 1;
                match self.elements[pc] {
                    Element::Work => pc += 1,
                    Element::Branch {
                        addr,
                        condition,
                        skip,
                    } => {
                        let taken = self.evaluate(condition, step, 0, &mut rng, prev_taken);
                        prev_taken = taken;
                        builder.push(
                            BranchRecord::conditional(
                                BranchAddr::new(addr),
                                Outcome::from_bool(taken),
                            )
                            .with_target(BranchAddr::new(addr + 8 * (skip as u64 + 1))),
                        );
                        emitted += 1;
                        pc += if taken { skip + 1 } else { 1 };
                    }
                    Element::LoopHead {
                        addr,
                        trip_count,
                        body_len,
                    } => {
                        let iteration = counters[pc];
                        let taken = iteration + 1 < trip_count; // back edge taken while more iterations remain
                        prev_taken = taken;
                        builder.push(
                            BranchRecord::conditional(
                                BranchAddr::new(addr),
                                Outcome::from_bool(taken),
                            )
                            .with_target(BranchAddr::new(addr)),
                        );
                        emitted += 1;
                        let end = pc + body_len + 1;
                        if taken {
                            counters[pc] = iteration + 1;
                            if loop_stack.last() != Some(&(pc, end)) {
                                loop_stack.push((pc, end));
                            }
                            pc += 1; // enter / continue the body
                        } else {
                            counters[pc] = 0;
                            if loop_stack.last() == Some(&(pc, end)) {
                                loop_stack.pop();
                            }
                            pc = end; // exit past the body
                        }
                    }
                }
            }
            // Emit an unconditional jump back to the top, as a real program's
            // outer driver loop would.
            builder.push(BranchRecord::new(
                BranchAddr::new(self.base_addr.saturating_sub(8)),
                BranchKind::Unconditional,
                Outcome::Taken,
            ));
        }
        builder.build()
    }

    fn evaluate(
        &self,
        condition: Condition,
        step: u64,
        loop_iteration: u32,
        rng: &mut StdRng,
        prev_taken: bool,
    ) -> bool {
        match condition {
            Condition::LoopBackEdge { trip_count } => loop_iteration + 1 < trip_count,
            Condition::Modulo { period, phase } => {
                let period = period.max(1);
                (step % u64::from(period)) as u32 == phase % period
            }
            Condition::Random { p_taken } => rng.gen::<f64>() < p_taken,
            Condition::SameAsPrevious => prev_taken,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btr_trace::TraceStats;

    /// The trace's per-branch statistics.
    fn stats_of(trace: &Trace) -> TraceStats {
        TraceStats::from_interned(&trace.intern())
    }

    impl CfgBuilder {
        /// Appends straight-line (branch-free) work; unit tests use it to give
        /// a loop a body.
        fn work(&mut self) -> &mut Self {
            self.elements.push(Element::Work);
            self
        }
    }

    #[test]
    fn counted_loop_produces_loop_exit_pattern() {
        let mut b = CfgBuilder::new(0x1000);
        b.counted_loop(8, |body| {
            body.work();
        });
        let program = b.build();
        assert_eq!(program.static_branches(), 1);
        let trace = program.interpret(8_000, 1);
        let stats = stats_of(&trace);
        let (addr, stats) = stats.hottest_branch().unwrap();
        assert_eq!(addr, BranchAddr::new(0x1000));
        // Back edge taken 7 of 8 times; transitions twice per 8 iterations.
        assert!((stats.taken_fraction().unwrap() - 7.0 / 8.0).abs() < 0.01);
        assert!((stats.transition_fraction().unwrap() - 2.0 / 8.0).abs() < 0.01);
    }

    #[test]
    fn if_else_with_random_condition_is_unbiased() {
        let mut b = CfgBuilder::new(0x2000);
        b.if_else(Condition::Random { p_taken: 0.5 }, 1, 1);
        let trace = b.build().interpret(20_000, 3);
        let stats = stats_of(&trace);
        let stats = stats.addr(BranchAddr::new(0x2000)).unwrap();
        assert!((stats.taken_fraction().unwrap() - 0.5).abs() < 0.02);
        assert!((stats.transition_fraction().unwrap() - 0.5).abs() < 0.02);
    }

    #[test]
    fn modulo_condition_creates_periodic_branch() {
        let mut b = CfgBuilder::new(0x3000);
        b.counted_loop(1000, |body| {
            body.if_else(
                Condition::Modulo {
                    period: 4,
                    phase: 0,
                },
                1,
                0,
            );
        });
        let trace = b.build().interpret(30_000, 5);
        let stats = stats_of(&trace);
        let stats = stats.addr(BranchAddr::new(0x3008)).unwrap();
        // The condition fires once per period of interpreter steps; the exact
        // rate depends on how many steps one loop iteration consumes, so just
        // check the branch is neither static nor unbiased-random: it must be
        // periodic (moderate taken rate, regular transitions).
        let taken = stats.taken_fraction().unwrap();
        let transition = stats.transition_fraction().unwrap();
        assert!(
            (0.1..=0.6).contains(&taken),
            "periodic branch taken rate {taken}"
        );
        assert!(
            transition > 0.15,
            "periodic branch transition rate {transition}"
        );
    }

    #[test]
    fn nested_loops_interleave_branches() {
        let mut b = CfgBuilder::new(0x4000);
        b.counted_loop(10, |outer| {
            outer.counted_loop(5, |inner| {
                inner.work();
            });
        });
        let program = b.build();
        assert_eq!(program.static_branches(), 2);
        assert!(!program.is_empty());
        let trace = program.interpret(5_000, 2);
        assert_eq!(trace.static_conditional_count(), 2);
        // Inner back edge executes roughly 5x as often as the outer one.
        let stats = stats_of(&trace);
        let outer = stats.addr(BranchAddr::new(0x4000)).unwrap().executions();
        let inner = stats.addr(BranchAddr::new(0x4008)).unwrap().executions();
        assert!(inner > outer * 3, "inner {inner} outer {outer}");
    }

    #[test]
    fn correlated_condition_follows_previous_branch() {
        let mut b = CfgBuilder::new(0x5000);
        b.if_else(Condition::Random { p_taken: 0.5 }, 0, 0);
        b.if_else(Condition::SameAsPrevious, 0, 0);
        let trace = b.build().interpret(10_000, 9);
        // Every time the first branch is taken, the second must be taken too.
        let records: Vec<_> = trace
            .records()
            .iter()
            .filter(|r| r.kind().is_conditional())
            .collect();
        let mut agreements = 0;
        let mut pairs = 0;
        for pair in records.chunks(2) {
            if pair.len() == 2 && pair[0].addr() != pair[1].addr() {
                pairs += 1;
                if pair[0].outcome() == pair[1].outcome() {
                    agreements += 1;
                }
            }
        }
        assert!(pairs > 0);
        assert_eq!(agreements, pairs);
    }

    #[test]
    fn interpretation_is_deterministic_and_bounded() {
        let mut b = CfgBuilder::new(0x6000);
        b.counted_loop(17, |body| {
            body.if_else(Condition::Random { p_taken: 0.3 }, 1, 2);
        });
        let program = b.build();
        let a = program.interpret(1_234, 42);
        let c = program.interpret(1_234, 42);
        assert_eq!(a.records(), c.records());
        assert_eq!(a.conditional_count(), 1_234);
        let different = program.interpret(1_234, 43);
        assert_ne!(a.records(), different.records());
    }

    #[test]
    fn empty_program_or_zero_budget_is_empty() {
        let empty = CfgBuilder::new(0x7000).build();
        assert!(empty.interpret(100, 1).is_empty());
        let mut b = CfgBuilder::new(0x7000);
        b.work();
        assert!(b.build().interpret(0, 1).is_empty());
    }
}
