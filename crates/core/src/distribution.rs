//! Dynamic-weighted class distributions (the paper's Figures 1 and 2).

use crate::class::{BinningScheme, ClassId};
use crate::profile::ProgramProfile;
use btr_wire::{MapBuilder, Value, Wire, WireError};

/// Which of the two metrics a distribution or matrix is over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Metric {
    /// Chang et al.'s taken rate (bias).
    TakenRate,
    /// The paper's transition rate.
    TransitionRate,
}

impl Metric {
    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Metric::TakenRate => "taken rate",
            Metric::TransitionRate => "transition rate",
        }
    }
}

/// The percentage of dynamic branch executions falling in each class of one
/// metric.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassDistribution {
    metric: Metric,
    scheme: BinningScheme,
    /// Dynamic execution counts per class.
    counts: Vec<u64>,
    total: u64,
}

impl ClassDistribution {
    /// Computes the distribution of `metric` over `profile` under `scheme`,
    /// weighting each static branch by its dynamic execution count (as the
    /// paper's figures do).
    pub fn from_profile(profile: &ProgramProfile, metric: Metric, scheme: BinningScheme) -> Self {
        let mut counts = vec![0u64; scheme.class_count()];
        let mut total = 0u64;
        for branch in profile.iter() {
            let class = match metric {
                Metric::TakenRate => branch.taken_class(scheme),
                Metric::TransitionRate => branch.transition_class(scheme),
            };
            if let Some(class) = class {
                counts[class.index()] += branch.executions();
                total += branch.executions();
            }
        }
        ClassDistribution {
            metric,
            scheme,
            counts,
            total,
        }
    }

    /// The metric this distribution is over.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// The binning scheme used.
    pub fn scheme(&self) -> BinningScheme {
        self.scheme
    }

    /// Total dynamic executions counted.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Dynamic execution count in one class.
    pub fn count(&self, class: ClassId) -> u64 {
        self.counts.get(class.index()).copied().unwrap_or(0)
    }

    /// Percentage of dynamic executions in one class.
    pub fn percent(&self, class: ClassId) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.count(class) as f64 / self.total as f64 * 100.0
        }
    }

    /// All class percentages in order (the bars of Figure 1 / Figure 2).
    pub fn percentages(&self) -> Vec<f64> {
        self.scheme.classes().map(|c| self.percent(c)).collect()
    }
}

/// [`Metric`] encodes as a snake-case tag (`"taken_rate"` /
/// `"transition_rate"`).
impl Wire for Metric {
    fn to_value(&self) -> Value {
        Value::Str(
            match self {
                Metric::TakenRate => "taken_rate",
                Metric::TransitionRate => "transition_rate",
            }
            .to_string(),
        )
    }

    fn from_value(value: &Value) -> Result<Self, WireError> {
        match value.as_str()? {
            "taken_rate" => Ok(Metric::TakenRate),
            "transition_rate" => Ok(Metric::TransitionRate),
            other => Err(WireError::schema(format!("unknown metric {other:?}"))),
        }
    }
}

/// [`ClassDistribution`] encodes its per-class dynamic counts as a dense
/// unsigned column; the stored total must equal the column sum, which decode
/// re-validates rather than trusts.
impl Wire for ClassDistribution {
    fn to_value(&self) -> Value {
        MapBuilder::new()
            .field("metric", self.metric.to_value())
            .field("scheme", self.scheme.to_value())
            .field("counts", self.counts.clone())
            .field("total", self.total)
            .build()
    }

    fn from_value(value: &Value) -> Result<Self, WireError> {
        let metric = Metric::from_value(value.get("metric")?)?;
        let scheme = BinningScheme::from_value(value.get("scheme")?)?;
        let counts = value.get("counts")?.as_u64_seq()?;
        let total = value.get("total")?.as_u64()?;
        if counts.len() != scheme.class_count() {
            return Err(WireError::schema(format!(
                "distribution has {} counts for a {}-class scheme",
                counts.len(),
                scheme.class_count()
            )));
        }
        let sum: u64 = counts
            .iter()
            .try_fold(0u64, |acc, c| acc.checked_add(*c))
            .ok_or_else(|| WireError::schema("distribution counts overflow u64"))?;
        if sum != total {
            return Err(WireError::schema(format!(
                "distribution total {total} does not match count sum {sum}"
            )));
        }
        Ok(ClassDistribution {
            metric,
            scheme,
            counts,
            total,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::BranchProfile;
    use btr_trace::BranchAddr;

    fn profile_with(branches: &[(u64, u64, u64, u64)]) -> ProgramProfile {
        branches
            .iter()
            .map(|(addr, execs, taken, trans)| {
                BranchProfile::new(BranchAddr::new(*addr), *execs, *taken, *trans)
            })
            .collect()
    }

    #[test]
    fn distribution_weights_by_dynamic_count() {
        // One heavily executed always-taken branch and one lightly executed
        // 50/50 branch.
        let profile = profile_with(&[(0x10, 900, 900, 0), (0x20, 100, 50, 50)]);
        let scheme = BinningScheme::Paper11;
        let taken = ClassDistribution::from_profile(&profile, Metric::TakenRate, scheme);
        assert_eq!(taken.total(), 1000);
        assert!((taken.percent(ClassId(10)) - 90.0).abs() < 1e-9);
        assert!((taken.percent(ClassId(5)) - 10.0).abs() < 1e-9);

        let transition = ClassDistribution::from_profile(&profile, Metric::TransitionRate, scheme);
        assert!((transition.percent(ClassId(0)) - 90.0).abs() < 1e-9);
        assert!((transition.percent(ClassId(5)) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn percentages_sum_to_100_for_nonempty_profiles() {
        let profile = profile_with(&[(0x10, 10, 1, 1), (0x20, 30, 29, 1), (0x30, 60, 30, 59)]);
        for metric in [Metric::TakenRate, Metric::TransitionRate] {
            let d = ClassDistribution::from_profile(&profile, metric, BinningScheme::Paper11);
            let sum: f64 = d.percentages().iter().sum();
            assert!((sum - 100.0).abs() < 1e-9, "{metric:?} sums to {sum}");
        }
    }

    #[test]
    fn distributions_roundtrip_on_the_wire() {
        let profile = profile_with(&[(0x10, 900, 900, 0), (0x20, 100, 50, 50)]);
        for metric in [Metric::TakenRate, Metric::TransitionRate] {
            let d = ClassDistribution::from_profile(&profile, metric, BinningScheme::Paper11);
            assert_eq!(
                ClassDistribution::from_json(&d.to_json().unwrap()).unwrap(),
                d
            );
            assert_eq!(ClassDistribution::from_btrw(&d.to_btrw()).unwrap(), d);
        }
        // A tampered total is rejected instead of trusted.
        let d =
            ClassDistribution::from_profile(&profile, Metric::TakenRate, BinningScheme::Paper11);
        let mut v = d.to_value();
        if let Value::Map(entries) = &mut v {
            for (k, field) in entries.iter_mut() {
                if k == "total" {
                    *field = Value::U64(1);
                }
            }
        }
        assert!(ClassDistribution::from_value(&v).is_err());
        assert!(Metric::from_value(&Value::Str("florp".into())).is_err());
    }

    #[test]
    fn empty_profile_yields_zero_distribution() {
        let d = ClassDistribution::from_profile(
            &ProgramProfile::new(),
            Metric::TakenRate,
            BinningScheme::Paper11,
        );
        assert_eq!(d.total(), 0);
        assert_eq!(d.percent(ClassId(0)), 0.0);
        assert_eq!(d.metric().label(), "taken rate");
        assert_eq!(d.scheme(), BinningScheme::Paper11);
    }
}
