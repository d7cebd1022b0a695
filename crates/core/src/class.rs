//! Branch classes and binning schemes.
//!
//! The paper bins each metric into 11 classes. Its prose ("0-5%, 5-10%,
//! 10-15%, etc.") cannot tile the unit interval with 11 classes, so — as
//! documented in `DESIGN.md` — the canonical [`BinningScheme::Paper11`]
//! follows the reading consistent with Table 2 and with Chang et al.'s
//! emphasis on the 5% tails: class 0 is `[0, 5%)`, classes 1–9 are 10% wide
//! and class 10 is `[95%, 100%]`. The alternative [`BinningScheme::Uniform`]
//! and Chang et al.'s original six classes are provided for ablations.

use btr_wire::{Value, Wire, WireError};
use std::fmt;

/// A class index under some binning scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClassId(pub usize);

impl ClassId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for ClassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// How a rate in `[0, 1]` is mapped to a class.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinningScheme {
    /// The paper's 11 classes: `[0,5%)`, nine 10%-wide classes, `[95%,100%]`.
    #[default]
    Paper11,
    /// `n` equal-width classes.
    Uniform(usize),
    /// Chang et al.'s six profiling classes: 0-5%, 5-10%, 10-50%, 50-90%,
    /// 90-95%, 95-100%.
    Chang6,
}

impl BinningScheme {
    /// Number of classes under this scheme.
    pub fn class_count(&self) -> usize {
        match self {
            BinningScheme::Paper11 => 11,
            BinningScheme::Uniform(n) => *n,
            BinningScheme::Chang6 => 6,
        }
    }

    /// Maps a rate to its class.
    ///
    /// # Panics
    ///
    /// Panics if the rate is outside `[0, 1]`, or if a `Uniform` scheme was
    /// constructed with zero classes.
    pub fn classify(&self, rate: f64) -> ClassId {
        assert!(
            rate.is_finite() && (0.0..=1.0).contains(&rate),
            "rate {rate} outside [0, 1]"
        );
        let idx = match self {
            BinningScheme::Paper11 => {
                let permille = (rate * 1000.0).round() as i64;
                if permille < 50 {
                    0
                } else if permille >= 950 {
                    10
                } else {
                    ((permille - 50) / 100) as usize + 1
                }
            }
            BinningScheme::Uniform(n) => {
                assert!(*n > 0, "uniform binning needs at least one class");
                ((rate * *n as f64) as usize).min(n - 1)
            }
            BinningScheme::Chang6 => {
                let permille = (rate * 1000.0).round() as i64;
                match permille {
                    p if p < 50 => 0,
                    p if p < 100 => 1,
                    p if p < 500 => 2,
                    p if p < 900 => 3,
                    p if p < 950 => 4,
                    _ => 5,
                }
            }
        };
        ClassId(idx)
    }

    /// The `[lo, hi)` rate bounds of a class (the last class is closed at 1).
    ///
    /// # Panics
    ///
    /// Panics if the class index is out of range for this scheme.
    fn bounds(&self, class: ClassId) -> (f64, f64) {
        let c = class.index();
        assert!(c < self.class_count(), "class {c} out of range");
        match self {
            BinningScheme::Paper11 => match c {
                0 => (0.0, 0.05),
                10 => (0.95, 1.0),
                c => (0.05 + 0.10 * (c as f64 - 1.0), 0.05 + 0.10 * c as f64),
            },
            BinningScheme::Uniform(n) => {
                let w = 1.0 / *n as f64;
                (c as f64 * w, (c as f64 + 1.0) * w)
            }
            BinningScheme::Chang6 => match c {
                0 => (0.0, 0.05),
                1 => (0.05, 0.10),
                2 => (0.10, 0.50),
                3 => (0.50, 0.90),
                4 => (0.90, 0.95),
                _ => (0.95, 1.0),
            },
        }
    }

    /// The midpoint rate of a class, convenient for plotting.
    pub fn midpoint(&self, class: ClassId) -> f64 {
        let (lo, hi) = self.bounds(class);
        (lo + hi) / 2.0
    }

    /// Iterates over all classes of this scheme.
    pub fn classes(&self) -> impl Iterator<Item = ClassId> {
        (0..self.class_count()).map(ClassId)
    }

    /// The classes the paper treats as "easy" under the taken-rate metric
    /// (the strongly biased extremes used by Chang et al.).
    pub fn taken_easy_classes(&self) -> Vec<ClassId> {
        match self {
            BinningScheme::Chang6 => vec![ClassId(0), ClassId(5)],
            _ => vec![ClassId(0), ClassId(self.class_count() - 1)],
        }
    }

    /// The classes the paper treats as "easy" under the transition-rate
    /// metric for a global-history (GAs) predictor: the two lowest
    /// transition classes.
    pub fn transition_easy_classes_gas(&self) -> Vec<ClassId> {
        vec![ClassId(0), ClassId(1.min(self.class_count() - 1))]
    }

    /// The classes treated as "easy" for a per-address (PAs) predictor: low
    /// transition classes plus the highest (alternating) classes, which PAs
    /// captures with one or two history bits.
    pub fn transition_easy_classes_pas(&self) -> Vec<ClassId> {
        let n = self.class_count();
        let mut v = vec![ClassId(0), ClassId(1.min(n - 1))];
        if n >= 4 {
            v.push(ClassId(n - 2));
            v.push(ClassId(n - 1));
        }
        v.sort_unstable();
        v.dedup();
        v
    }
}

impl fmt::Display for BinningScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BinningScheme::Paper11 => write!(f, "paper-11"),
            BinningScheme::Uniform(n) => write!(f, "uniform-{n}"),
            BinningScheme::Chang6 => write!(f, "chang-6"),
        }
    }
}

/// [`ClassId`] encodes as its raw index.
impl Wire for ClassId {
    fn to_value(&self) -> Value {
        Value::U64(self.0 as u64)
    }

    fn from_value(value: &Value) -> Result<Self, WireError> {
        Ok(ClassId(value.as_u64()? as usize))
    }
}

/// [`BinningScheme`] encodes as its display string (`"paper-11"`,
/// `"uniform-<n>"` or `"chang-6"`), keeping scheme fields self-describing in
/// JSON artifacts.
impl Wire for BinningScheme {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }

    fn from_value(value: &Value) -> Result<Self, WireError> {
        let label = value.as_str()?;
        if let Some(classes) = label.strip_prefix("uniform-") {
            let n: usize = classes
                .parse()
                .map_err(|_| WireError::schema(format!("bad uniform class count in {label:?}")))?;
            if n == 0 {
                return Err(WireError::schema(
                    "uniform binning needs at least one class",
                ));
            }
            return Ok(BinningScheme::Uniform(n));
        }
        match label {
            "paper-11" => Ok(BinningScheme::Paper11),
            "chang-6" => Ok(BinningScheme::Chang6),
            other => Err(WireError::schema(format!(
                "unknown binning scheme {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper11_classification_matches_bin_edges() {
        let s = BinningScheme::Paper11;
        assert_eq!(s.class_count(), 11);
        assert_eq!(s.classify(0.0), ClassId(0));
        assert_eq!(s.classify(0.049), ClassId(0));
        assert_eq!(s.classify(0.05), ClassId(1));
        assert_eq!(s.classify(0.149), ClassId(1));
        assert_eq!(s.classify(0.15), ClassId(2));
        assert_eq!(s.classify(0.5), ClassId(5));
        assert_eq!(s.classify(0.949), ClassId(9));
        assert_eq!(s.classify(0.95), ClassId(10));
        assert_eq!(s.classify(1.0), ClassId(10));
    }

    #[test]
    fn paper11_bounds_tile_the_unit_interval() {
        let s = BinningScheme::Paper11;
        let mut upper = 0.0;
        for class in s.classes() {
            let (lo, hi) = s.bounds(class);
            assert!((lo - upper).abs() < 1e-9);
            assert!(hi > lo);
            upper = hi;
        }
        assert!((upper - 1.0).abs() < 1e-9);
    }

    #[test]
    fn every_scheme_classifies_consistently_with_its_bounds() {
        for scheme in [
            BinningScheme::Paper11,
            BinningScheme::Uniform(5),
            BinningScheme::Uniform(20),
            BinningScheme::Chang6,
        ] {
            for class in scheme.classes() {
                let mid = scheme.midpoint(class);
                assert_eq!(
                    scheme.classify(mid),
                    class,
                    "{scheme} midpoint of class {class} reclassifies wrongly"
                );
            }
            // Rates at 0 and 1 always classify into the first / last class.
            assert_eq!(scheme.classify(0.0), ClassId(0));
            assert_eq!(scheme.classify(1.0), ClassId(scheme.class_count() - 1));
        }
    }

    #[test]
    fn chang6_matches_the_published_class_edges() {
        let s = BinningScheme::Chang6;
        assert_eq!(s.class_count(), 6);
        assert_eq!(s.classify(0.03), ClassId(0));
        assert_eq!(s.classify(0.07), ClassId(1));
        assert_eq!(s.classify(0.3), ClassId(2));
        assert_eq!(s.classify(0.7), ClassId(3));
        assert_eq!(s.classify(0.92), ClassId(4));
        assert_eq!(s.classify(0.99), ClassId(5));
        assert_eq!(s.bounds(ClassId(2)), (0.10, 0.50));
    }

    #[test]
    fn easy_class_sets() {
        let s = BinningScheme::Paper11;
        assert_eq!(s.taken_easy_classes(), vec![ClassId(0), ClassId(10)]);
        assert_eq!(
            s.transition_easy_classes_gas(),
            vec![ClassId(0), ClassId(1)]
        );
        assert_eq!(
            s.transition_easy_classes_pas(),
            vec![ClassId(0), ClassId(1), ClassId(9), ClassId(10)]
        );
        let c = BinningScheme::Chang6;
        assert_eq!(c.taken_easy_classes(), vec![ClassId(0), ClassId(5)]);
    }

    #[test]
    fn schemes_and_class_ids_roundtrip_on_the_wire() {
        for scheme in [
            BinningScheme::Paper11,
            BinningScheme::Uniform(7),
            BinningScheme::Chang6,
        ] {
            assert_eq!(
                BinningScheme::from_json(&scheme.to_json().unwrap()).unwrap(),
                scheme
            );
            assert_eq!(BinningScheme::from_btrw(&scheme.to_btrw()).unwrap(), scheme);
        }
        assert_eq!(
            ClassId::from_json(&ClassId(5).to_json().unwrap()).unwrap(),
            ClassId(5)
        );
        assert!(BinningScheme::from_value(&Value::Str("florp".into())).is_err());
        assert!(BinningScheme::from_value(&Value::Str("uniform-x".into())).is_err());
        assert!(BinningScheme::from_value(&Value::Str("uniform-0".into())).is_err());
    }

    #[test]
    fn display_labels() {
        assert_eq!(BinningScheme::Paper11.to_string(), "paper-11");
        assert_eq!(BinningScheme::Uniform(7).to_string(), "uniform-7");
        assert_eq!(BinningScheme::Chang6.to_string(), "chang-6");
        assert_eq!(ClassId(4).to_string(), "4");
        assert_eq!(BinningScheme::default(), BinningScheme::Paper11);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn classify_rejects_out_of_range() {
        let _ = BinningScheme::Paper11.classify(-0.1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bounds_reject_bad_class() {
        let _ = BinningScheme::Paper11.bounds(ClassId(11));
    }
}
