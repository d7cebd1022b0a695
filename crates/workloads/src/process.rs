//! Outcome processes: per-branch generators of taken / not-taken streams
//! with controlled taken and transition rates.

use btr_trace::Outcome;
use rand::Rng;

/// A source of branch outcomes for one static branch.
///
/// Implementations must be deterministic given the same RNG stream, so that a
/// workload regenerated from the same seed is bit-identical.
pub trait OutcomeProcess {
    /// Produces the next outcome of the branch.
    fn next_outcome<R: Rng>(&mut self, rng: &mut R) -> Outcome;
}

/// A two-state Markov chain over {taken, not-taken} with exactly the
/// requested stationary taken rate and transition rate.
///
/// For a chain that leaves the taken state with probability `a` and leaves
/// the not-taken state with probability `b`, the stationary probability of
/// taken is `b / (a + b)` and the per-step probability of changing state is
/// `2ab / (a + b)`. Solving for a target taken rate `p` and transition rate
/// `t` gives `a = t / (2p)` and `b = t / (2(1 - p))`, which is feasible
/// whenever `t <= 2·min(p, 1 - p)` — precisely the region of joint classes
/// that can exist at all (each transition needs both a taken and a not-taken
/// execution nearby).
///
/// A Markov branch is memoryless beyond its previous outcome, so one bit of
/// the branch's own history captures everything about it that can be
/// predicted: the best possible accuracy is
/// `p·max(a, 1 - a) + (1 - p)·max(b, 1 - b)`, and more history adds nothing.
/// That bound is 1/2 only at `p = t = 1/2`; these are the paper's
/// data-dependent, hard branches when `p ≈ t ≈ 0.5`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MarkovProcess {
    taken_rate: f64,
    transition_rate: f64,
    leave_taken: f64,
    leave_not_taken: f64,
    state: Outcome,
}

impl MarkovProcess {
    /// Creates a Markov process with the given stationary rates.
    ///
    /// # Errors
    ///
    /// Returns `None` if the pair is infeasible (`transition_rate >
    /// 2·min(taken_rate, 1 - taken_rate)`), or any rate is outside `[0, 1]`.
    pub fn from_rates(taken_rate: f64, transition_rate: f64) -> Option<Self> {
        if !(0.0..=1.0).contains(&taken_rate) || !(0.0..=1.0).contains(&transition_rate) {
            return None;
        }
        let limit = 2.0 * taken_rate.min(1.0 - taken_rate);
        if transition_rate > limit + 1e-12 {
            return None;
        }
        let leave_taken = if taken_rate <= f64::EPSILON {
            1.0 // never in the taken state anyway
        } else {
            (transition_rate / (2.0 * taken_rate)).min(1.0)
        };
        let leave_not_taken = if 1.0 - taken_rate <= f64::EPSILON {
            1.0
        } else {
            (transition_rate / (2.0 * (1.0 - taken_rate))).min(1.0)
        };
        Some(MarkovProcess {
            taken_rate,
            transition_rate,
            leave_taken,
            leave_not_taken,
            state: if taken_rate >= 0.5 {
                Outcome::Taken
            } else {
                Outcome::NotTaken
            },
        })
    }
}

impl OutcomeProcess for MarkovProcess {
    fn next_outcome<R: Rng>(&mut self, rng: &mut R) -> Outcome {
        let leave = match self.state {
            Outcome::Taken => self.leave_taken,
            Outcome::NotTaken => self.leave_not_taken,
        };
        if rng.gen::<f64>() < leave {
            self.state = self.state.flipped();
        }
        self.state
    }
}

/// A deterministic periodic pattern of outcomes.
///
/// The pattern is structured as alternating runs of taken and not-taken whose
/// lengths are chosen so one period has exactly the requested number of taken
/// outcomes and transitions. Because the sequence is strictly periodic it is
/// learnable by a two-level predictor given enough history (roughly the
/// longest run length), which is what produces the paper's "longer history
/// helps mid-bias classes" behaviour.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeriodicPattern {
    pattern: Vec<bool>,
    position: usize,
}

impl PeriodicPattern {
    /// Builds a pattern of `length` outcomes approximating the target rates.
    ///
    /// The achieved rates are exact up to the granularity `1/length`.
    /// Infeasible combinations are clamped to the nearest feasible point
    /// (`transitions <= 2·min(taken, length - taken)`).
    ///
    /// # Panics
    ///
    /// Panics if `length` is zero or the rates are outside `[0, 1]`.
    pub fn from_rates(taken_rate: f64, transition_rate: f64, length: usize) -> Self {
        assert!(length > 0, "pattern length must be positive");
        assert!((0.0..=1.0).contains(&taken_rate), "taken rate out of range");
        assert!(
            (0.0..=1.0).contains(&transition_rate),
            "transition rate out of range"
        );
        let taken = ((taken_rate * length as f64).round() as usize).min(length);
        let not_taken = length - taken;
        // A periodic sequence alternates runs of T and N; with r runs of each
        // the wrap-around produces 2r transitions per period, so aim for
        // transitions/2 runs (at least 1 if both directions are present).
        let max_runs = taken.min(not_taken);
        let desired_transitions = (transition_rate * length as f64).round() as usize;
        let runs = if max_runs == 0 {
            0
        } else {
            (desired_transitions / 2).clamp(1, max_runs)
        };
        let mut pattern = Vec::with_capacity(length);
        if runs == 0 {
            pattern.extend(std::iter::repeat_n(taken > 0, length));
        } else {
            // Distribute the taken and not-taken outcomes across `runs` runs
            // each, interleaved T-run then N-run.
            for r in 0..runs {
                let t_len = taken / runs + usize::from(r < taken % runs);
                let n_len = not_taken / runs + usize::from(r < not_taken % runs);
                pattern.extend(std::iter::repeat_n(true, t_len));
                pattern.extend(std::iter::repeat_n(false, n_len));
            }
        }
        debug_assert_eq!(pattern.len(), length);
        PeriodicPattern {
            pattern,
            position: 0,
        }
    }

    /// The period of the pattern.
    pub fn period(&self) -> usize {
        self.pattern.len()
    }
}

impl OutcomeProcess for PeriodicPattern {
    fn next_outcome<R: Rng>(&mut self, _rng: &mut R) -> Outcome {
        let outcome = Outcome::from_bool(self.pattern[self.position]);
        self.position = (self.position + 1) % self.pattern.len();
        outcome
    }
}

/// Either of the two process kinds, chosen per branch by the generator.
#[derive(Debug, Clone)]
pub enum BranchProcess {
    /// Deterministic periodic pattern (predictable with enough history).
    Pattern(PeriodicPattern),
    /// Two-state Markov chain (unpredictable beyond its bias / last outcome).
    Markov(MarkovProcess),
}

impl OutcomeProcess for BranchProcess {
    fn next_outcome<R: Rng>(&mut self, rng: &mut R) -> Outcome {
        match self {
            BranchProcess::Pattern(p) => p.next_outcome(rng),
            BranchProcess::Markov(p) => p.next_outcome(rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn measure<P: OutcomeProcess>(process: &mut P, n: usize, seed: u64) -> (f64, f64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut taken = 0usize;
        let mut transitions = 0usize;
        let mut prev: Option<Outcome> = None;
        for _ in 0..n {
            let o = process.next_outcome(&mut rng);
            if o.is_taken() {
                taken += 1;
            }
            if let Some(p) = prev {
                if p != o {
                    transitions += 1;
                }
            }
            prev = Some(o);
        }
        (taken as f64 / n as f64, transitions as f64 / n as f64)
    }

    /// One period's exact (taken, transition) rates, counting the
    /// wrap-around transition the long-run rate converges to.
    fn exact_rates(p: &PeriodicPattern) -> (f64, f64) {
        let len = p.pattern.len();
        let taken = p.pattern.iter().filter(|&&t| t).count();
        let transitions = (0..len)
            .filter(|&i| p.pattern[i] != p.pattern[(i + len - 1) % len])
            .count();
        (taken as f64 / len as f64, transitions as f64 / len as f64)
    }

    #[test]
    fn markov_process_hits_its_target_rates() {
        for (p, t) in [
            (0.5, 0.5),
            (0.9, 0.1),
            (0.5, 0.95),
            (0.2, 0.3),
            (0.975, 0.04),
        ] {
            let mut m = MarkovProcess::from_rates(p, t).unwrap();
            let (taken, trans) = measure(&mut m, 200_000, 42);
            assert!((taken - p).abs() < 0.02, "taken {taken} vs target {p}");
            assert!((trans - t).abs() < 0.02, "transition {trans} vs target {t}");
        }
    }

    #[test]
    fn markov_rejects_infeasible_rates() {
        // Transition rate can never exceed twice the minority direction rate.
        assert!(MarkovProcess::from_rates(0.025, 0.10).is_none());
        assert!(MarkovProcess::from_rates(0.98, 0.20).is_none());
        assert!(MarkovProcess::from_rates(1.2, 0.1).is_none());
        assert!(MarkovProcess::from_rates(0.5, 1.5).is_none());
        // The boundary itself is allowed.
        assert!(MarkovProcess::from_rates(0.5, 1.0).is_some());
    }

    #[test]
    fn markov_boundary_cases_behave() {
        let mut always = MarkovProcess::from_rates(1.0, 0.0).unwrap();
        let (taken, trans) = measure(&mut always, 10_000, 7);
        assert_eq!(taken, 1.0);
        assert_eq!(trans, 0.0);

        let mut never = MarkovProcess::from_rates(0.0, 0.0).unwrap();
        let (taken, trans) = measure(&mut never, 10_000, 7);
        assert_eq!(taken, 0.0);
        assert_eq!(trans, 0.0);

        let mut alternator = MarkovProcess::from_rates(0.5, 1.0).unwrap();
        let (taken, trans) = measure(&mut alternator, 10_000, 7);
        assert!((taken - 0.5).abs() < 0.01);
        assert!(trans > 0.999);
    }

    #[test]
    fn periodic_pattern_achieves_exact_rates() {
        let mut p = PeriodicPattern::from_rates(0.6, 0.4, 40);
        let (taken, trans) = measure(&mut p, 40_000, 3);
        assert!((taken - 0.6).abs() < 0.01, "taken {taken}");
        assert!((trans - 0.4).abs() < 0.02, "transitions {trans}");
        let (exact_taken, exact_trans) = exact_rates(&p);
        assert!((exact_taken - 0.6).abs() < 0.026);
        assert!((exact_trans - 0.4).abs() < 0.051);
    }

    #[test]
    fn loop_exit_pattern_has_expected_rates() {
        let mut p = PeriodicPattern::from_rates(0.9, 0.2, 10);
        assert_eq!(p.period(), 10);
        assert_eq!(exact_rates(&p), (0.9, 0.2));
        let (taken, trans) = measure(&mut p, 10_000, 5);
        assert!((taken - 0.9).abs() < 0.01);
        assert!((trans - 0.2).abs() < 0.01);
    }

    #[test]
    fn alternating_pattern_transitions_every_time() {
        let mut p = PeriodicPattern::from_rates(0.5, 1.0, 2);
        let (taken, trans) = measure(&mut p, 1000, 1);
        assert!((taken - 0.5).abs() < 0.01);
        assert!(trans > 0.99);
        assert_eq!(exact_rates(&p), (0.5, 1.0));
    }

    #[test]
    fn extreme_patterns_are_constant() {
        let always = PeriodicPattern::from_rates(1.0, 0.0, 16);
        assert_eq!(exact_rates(&always), (1.0, 0.0));
        let never = PeriodicPattern::from_rates(0.0, 0.0, 16);
        assert_eq!(exact_rates(&never), (0.0, 0.0));
    }

    #[test]
    fn branch_process_dispatches_to_inner_kind() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut pattern = BranchProcess::Pattern(PeriodicPattern::from_rates(0.5, 1.0, 2));
        let a = pattern.next_outcome(&mut rng);
        let b = pattern.next_outcome(&mut rng);
        assert_ne!(a, b);

        let mut markov = BranchProcess::Markov(MarkovProcess::from_rates(0.9, 0.1).unwrap());
        let (taken, trans) = measure(&mut markov, 100_000, 9);
        assert!((taken - 0.9).abs() < 0.02, "taken {taken}");
        assert!((trans - 0.1).abs() < 0.02, "transitions {trans}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_length_pattern_rejected() {
        let _ = PeriodicPattern::from_rates(0.5, 0.5, 0);
    }
}
