//! Assembling populations of synthetic static branches into dynamic traces.

use crate::cell::{CellTarget, JointCell};
use crate::process::{BranchProcess, MarkovProcess, OutcomeProcess, PeriodicPattern};
use btr_trace::{BranchAddr, BranchRecord, Outcome, Trace, TraceBuilder, TraceMetadata};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The plan for one synthetic static branch.
#[derive(Debug, Clone, PartialEq)]
pub struct StaticBranchSpec {
    /// The branch address.
    pub addr: BranchAddr,
    /// The joint class this branch belongs to.
    pub cell: JointCell,
    /// Concrete taken/transition rate targets within the cell.
    pub target: CellTarget,
    /// Number of dynamic executions to emit.
    pub executions: u64,
    /// Whether the branch follows a deterministic periodic pattern
    /// (history-predictable) rather than a memoryless Markov process.
    pub predictable: bool,
}

impl StaticBranchSpec {
    /// Builds the outcome process realising this branch's targets.
    ///
    /// Pattern periods are sized so the rate granularity is comfortably finer
    /// than a class width, and never longer than the branch's execution count
    /// (a branch that only runs through part of its period would otherwise
    /// sample a biased prefix of it).
    fn build_process(&self) -> BranchProcess {
        if self.predictable {
            let period = self.executions.clamp(12, 120) as usize;
            BranchProcess::Pattern(PeriodicPattern::from_rates(
                self.target.taken_rate,
                self.target.transition_rate,
                period,
            ))
        } else {
            match MarkovProcess::from_rates(self.target.taken_rate, self.target.transition_rate) {
                Some(markov) => BranchProcess::Markov(markov),
                // Infeasible pairs cannot be constructed by callers that go
                // through `CellTarget`, but fall back gracefully anyway.
                None => BranchProcess::Pattern(PeriodicPattern::from_rates(
                    self.target.taken_rate,
                    self.target.transition_rate,
                    120,
                )),
            }
        }
    }

    /// Whether this branch belongs to the hard-to-predict centre of the joint
    /// table (taken and transition classes 4–6), the set Figure 15 studies.
    pub(crate) fn is_hard(&self) -> bool {
        (4..=6).contains(&self.cell.taken_class) && (4..=6).contains(&self.cell.transition_class)
    }
}

/// Generates a [`Trace`] from a population of [`StaticBranchSpec`]s.
///
/// Dynamic executions are interleaved with *loop-like locality*: branches are
/// grouped into small regions (an inner-loop body's worth of branches), and
/// the generator repeatedly picks a region and iterates over it several times
/// before moving on, the way real programs revisit the same branch sequence
/// inside loops. This preserves the global-history repetition that GAs-style
/// predictors exploit, while per-branch outcome statistics are governed
/// entirely by each branch's own process. An optional clustering pass then
/// moves a fraction of the hard-branch occurrences next to each other (used
/// to model ijpeg's tightly clustered hard branches in Figure 15).
#[derive(Debug, Clone)]
pub struct WorkloadGenerator {
    metadata: TraceMetadata,
    seed: u64,
    hard_clustering: f64,
    region_size: usize,
    branches: Vec<StaticBranchSpec>,
}

impl WorkloadGenerator {
    /// Creates an empty generator for a named benchmark.
    pub fn new(benchmark: impl Into<String>, seed: u64) -> Self {
        WorkloadGenerator {
            metadata: TraceMetadata::named(benchmark).with_seed(seed),
            seed,
            hard_clustering: 0.0,
            region_size: 12,
            branches: Vec::new(),
        }
    }

    /// Sets the input-set label recorded in the trace metadata.
    #[must_use]
    pub fn with_input_set(mut self, input: impl Into<String>) -> Self {
        self.metadata.input_set = input.into();
        self
    }

    /// Sets the fraction (0–1) of hard-branch occurrences that are clustered
    /// immediately after another hard-branch occurrence.
    ///
    /// # Panics
    ///
    /// Panics if the fraction is outside `[0, 1]`.
    #[must_use]
    pub fn with_hard_clustering(mut self, fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "clustering fraction out of range"
        );
        self.hard_clustering = fraction;
        self
    }

    /// Adds one static branch to the population.
    pub fn add_branch(&mut self, spec: StaticBranchSpec) -> &mut Self {
        self.branches.push(spec);
        self
    }

    /// The branch population assembled so far.
    pub fn branches(&self) -> &[StaticBranchSpec] {
        &self.branches
    }

    /// Total number of dynamic executions that will be generated.
    fn total_executions(&self) -> u64 {
        self.branches.iter().map(|b| b.executions).sum()
    }

    /// Generates the trace.
    ///
    /// The same generator (same specs, same seed) always produces the same
    /// trace.
    pub fn generate(&self) -> Trace {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut schedule = self.build_schedule(&mut rng);
        if self.hard_clustering > 0.0 {
            self.cluster_hard_occurrences(&mut schedule, &mut rng);
        }

        // Instantiate processes and walk the schedule.
        let mut processes: Vec<BranchProcess> =
            self.branches.iter().map(|b| b.build_process()).collect();
        let mut builder = TraceBuilder::with_metadata(self.metadata.clone());
        builder.reserve(schedule.len());
        for branch_idx in schedule {
            let spec = &self.branches[branch_idx as usize];
            let outcome: Outcome = processes[branch_idx as usize].next_outcome(&mut rng);
            builder.push(BranchRecord::conditional(spec.addr, outcome));
        }
        builder.build()
    }

    /// Builds the loop-structured interleaving schedule: repeatedly choose a
    /// region (weighted by how much work it has left) and iterate over its
    /// branches in order for a handful of iterations, as an inner loop would.
    fn build_schedule(&self, rng: &mut StdRng) -> Vec<u32> {
        let total = self.total_executions();
        let mut schedule: Vec<u32> = Vec::with_capacity(total as usize);
        if self.branches.is_empty() || total == 0 {
            return schedule;
        }
        let mut remaining: Vec<u64> = self.branches.iter().map(|b| b.executions).collect();
        // Branches are assigned to regions in a seeded random order so that
        // branches of the same class (which the planner lays out
        // consecutively) spread across different loop bodies.
        let mut order: Vec<usize> = (0..self.branches.len()).collect();
        order.shuffle(rng);
        let region_count = self.branches.len().div_ceil(self.region_size);
        let region_members = |region: usize| {
            let start = region * self.region_size;
            let end = (start + self.region_size).min(order.len());
            &order[start..end]
        };
        let mut region_remaining: Vec<u64> = (0..region_count)
            .map(|r| region_members(r).iter().map(|idx| remaining[*idx]).sum())
            .collect();
        let mut left = total;
        while left > 0 {
            // Weighted pick of a region with work left.
            let target = rng.gen_range(0..left);
            let mut acc = 0u64;
            let mut region = region_count - 1;
            for (idx, r) in region_remaining.iter().enumerate() {
                acc += *r;
                if target < acc {
                    region = idx;
                    break;
                }
            }
            // Burst of loop iterations over this region's branches.
            let iterations = rng.gen_range(4..=24);
            'burst: for _ in 0..iterations {
                let mut emitted = false;
                for &idx in region_members(region) {
                    if remaining[idx] > 0 {
                        schedule.push(idx as u32);
                        remaining[idx] -= 1;
                        region_remaining[region] -= 1;
                        left -= 1;
                        emitted = true;
                    }
                }
                if !emitted {
                    break 'burst;
                }
            }
        }
        schedule
    }

    /// Moves a fraction of hard-branch schedule slots so they directly follow
    /// another hard-branch slot, creating the short inter-occurrence distances
    /// seen for ijpeg in Figure 15.
    fn cluster_hard_occurrences(&self, schedule: &mut [u32], rng: &mut StdRng) {
        let hard: Vec<bool> = self.branches.iter().map(|b| b.is_hard()).collect();
        let positions: Vec<usize> = schedule
            .iter()
            .enumerate()
            .filter(|(_, idx)| hard[**idx as usize])
            .map(|(pos, _)| pos)
            .collect();
        if positions.len() < 2 {
            return;
        }
        let to_cluster = (positions.len() as f64 * self.hard_clustering) as usize;
        for _ in 0..to_cluster {
            // Pick an anchor hard occurrence and pull a random other hard
            // occurrence into the slot right after it.
            let anchor = positions[rng.gen_range(0..positions.len())];
            let donor = positions[rng.gen_range(0..positions.len())];
            let neighbour = anchor + 1;
            if neighbour < schedule.len() && donor != neighbour && donor != anchor {
                schedule.swap(neighbour, donor);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(
        addr: u64,
        taken: f64,
        transition: f64,
        execs: u64,
        predictable: bool,
    ) -> StaticBranchSpec {
        let taken_class = crate::cell::class_of(taken);
        let transition_class = crate::cell::class_of(transition);
        StaticBranchSpec {
            addr: BranchAddr::new(addr),
            cell: JointCell::new(taken_class, transition_class),
            target: CellTarget {
                taken_rate: taken,
                transition_rate: transition,
            },
            executions: execs,
            predictable,
        }
    }

    #[test]
    fn generator_emits_the_requested_number_of_records() {
        let mut g = WorkloadGenerator::new("unit", 1);
        g.add_branch(spec(0x1000, 0.9, 0.1, 500, true));
        g.add_branch(spec(0x2000, 0.5, 0.5, 300, false));
        assert_eq!(g.total_executions(), 800);
        let trace = g.generate();
        assert_eq!(trace.conditional_count(), 800);
        assert_eq!(trace.static_conditional_count(), 2);
        assert_eq!(trace.metadata().benchmark, "unit");
    }

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        let build = || {
            let mut g = WorkloadGenerator::new("det", 99).with_input_set("x");
            g.add_branch(spec(0x1000, 0.7, 0.3, 400, false));
            g.add_branch(spec(0x2000, 0.3, 0.4, 400, true));
            g.generate()
        };
        let a = build();
        let b = build();
        assert_eq!(a.records(), b.records());
    }

    #[test]
    fn different_seeds_give_different_interleavings() {
        let build = |seed| {
            let mut g = WorkloadGenerator::new("seeded", seed);
            g.add_branch(spec(0x1000, 0.6, 0.4, 500, false));
            g.add_branch(spec(0x2000, 0.4, 0.4, 500, false));
            g.generate()
        };
        assert_ne!(build(1).records(), build(2).records());
    }

    #[test]
    fn per_branch_rates_land_near_their_targets() {
        let mut g = WorkloadGenerator::new("rates", 7);
        g.add_branch(spec(0x1000, 0.9, 0.1, 4000, true));
        g.add_branch(spec(0x2000, 0.5, 0.5, 4000, false));
        g.add_branch(spec(0x3000, 0.5, 0.97, 4000, true));
        let stats = btr_trace::TraceStats::from_interned(&g.generate().intern());
        let s1 = stats.addr(BranchAddr::new(0x1000)).unwrap();
        assert!((s1.taken_fraction().unwrap() - 0.9).abs() < 0.03);
        assert!((s1.transition_fraction().unwrap() - 0.1).abs() < 0.03);
        let s2 = stats.addr(BranchAddr::new(0x2000)).unwrap();
        assert!((s2.taken_fraction().unwrap() - 0.5).abs() < 0.05);
        assert!((s2.transition_fraction().unwrap() - 0.5).abs() < 0.05);
        let s3 = stats.addr(BranchAddr::new(0x3000)).unwrap();
        assert!(s3.transition_fraction().unwrap() > 0.9);
    }

    #[test]
    fn hard_clustering_reduces_interoccurrence_distances() {
        let build = |clustering: f64| {
            let mut g = WorkloadGenerator::new("cluster", 5).with_hard_clustering(clustering);
            // One hard-centre branch among a sea of easy branches, so that an
            // unclustered schedule leaves wide gaps between hard occurrences.
            g.add_branch(spec(0x9000, 0.5, 0.5, 300, false));
            for i in 0..40u64 {
                g.add_branch(spec(0x1000 + i * 8, 0.95, 0.04, 300, true));
            }
            let trace = g.generate();
            // Measure how often consecutive hard occurrences are within a
            // small window of each other (the quantity Figure 15 plots).
            let hard_addr = BranchAddr::new(0x9000);
            let mut last: Option<usize> = None;
            let mut close = 0usize;
            let mut total = 0usize;
            for (i, r) in trace.records().iter().enumerate() {
                if r.addr() == hard_addr {
                    if let Some(prev) = last {
                        total += 1;
                        if i - prev <= 4 {
                            close += 1;
                        }
                    }
                    last = Some(i);
                }
            }
            close as f64 / total.max(1) as f64
        };
        let unclustered = build(0.0);
        let clustered = build(0.9);
        assert!(
            clustered > unclustered + 0.05,
            "clustering should raise the close-pair fraction ({clustered} vs {unclustered})"
        );
    }

    #[test]
    fn hard_branch_detection_uses_the_cell() {
        assert!(spec(0x1, 0.5, 0.5, 10, false).is_hard());
        assert!(spec(0x1, 0.42, 0.6, 10, false).is_hard());
        assert!(!spec(0x1, 0.95, 0.05, 10, true).is_hard());
        assert!(!spec(0x1, 0.5, 0.97, 10, true).is_hard());
    }

    #[test]
    fn empty_generator_produces_empty_trace() {
        let g = WorkloadGenerator::new("empty", 3);
        let trace = g.generate();
        assert!(trace.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn clustering_fraction_validated() {
        let _ = WorkloadGenerator::new("bad", 1).with_hard_clustering(1.5);
    }
}
