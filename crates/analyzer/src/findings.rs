//! Findings: what a pass reports, and the canonical-JSON report CI diffs.
//!
//! Every finding carries the pass that produced it, a `category` (the
//! ratchet/allowlist key suffix), the file and line, and whether it is
//! *ratcheted* — already covered by the checked-in baseline or allowlist.
//! Ratcheted findings are informational; any unratcheted finding fails the
//! run. The report serializes through `btr-wire`'s canonical JSON writer, so
//! two runs over the same tree produce byte-identical artifacts.

use btr_wire::{MapBuilder, Value, Wire, WireError};
use std::collections::BTreeMap;

/// One lint or structural finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The pass that produced the finding (`panic-path`, `determinism`, …).
    pub pass: String,
    /// The ratchet/allowlist category within the pass (`unwrap`, `HashMap`…).
    pub category: String,
    /// Workspace-relative file, or a pseudo-path for structural findings.
    pub file: String,
    /// 1-based line, or 0 when the finding is file- or project-level.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
    /// Whether the baseline or an allowlist covers this finding.
    pub ratcheted: bool,
}

impl Finding {
    /// The `file#category` key this finding counts under.
    pub fn key(&self) -> String {
        format!("{}#{}", self.file, self.category)
    }
}

impl Wire for Finding {
    fn to_value(&self) -> Value {
        MapBuilder::new()
            .field("pass", self.pass.as_str())
            .field("category", self.category.as_str())
            .field("file", self.file.as_str())
            .field("line", u64::from(self.line))
            .field("message", self.message.as_str())
            .field("ratcheted", self.ratcheted)
            .build()
    }

    fn from_value(value: &Value) -> Result<Self, WireError> {
        Ok(Finding {
            pass: value.get("pass")?.as_str()?.to_string(),
            category: value.get("category")?.as_str()?.to_string(),
            file: value.get("file")?.as_str()?.to_string(),
            line: u32::try_from(value.get("line")?.as_u64()?)
                .map_err(|_| WireError::schema("finding line exceeds u32"))?,
            message: value.get("message")?.as_str()?.to_string(),
            ratcheted: value.get("ratcheted")?.as_bool()?,
        })
    }
}

/// The result of one full `check` run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    /// Every finding, sorted by (pass, file, line, category).
    pub findings: Vec<Finding>,
    /// Current per-`file#category` counts for the ratcheted pass — what
    /// `scripts/ratchet_gate.py` compares against the checked-in baseline.
    pub ratchet_counts: BTreeMap<String, u64>,
}

impl Report {
    /// Sorts findings into the canonical report order.
    pub fn finalize(&mut self) {
        self.findings.sort_by(|a, b| {
            (&a.pass, &a.file, a.line, &a.category).cmp(&(&b.pass, &b.file, b.line, &b.category))
        });
    }

    /// The findings not covered by the baseline or an allowlist.
    pub(crate) fn unratcheted(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| !f.ratcheted)
    }

    /// Number of unratcheted findings (the run fails when nonzero).
    pub fn unratcheted_count(&self) -> usize {
        self.unratcheted().count()
    }
}

impl Wire for Report {
    fn to_value(&self) -> Value {
        let findings: Vec<Value> = self.findings.iter().map(Wire::to_value).collect();
        let mut counts = MapBuilder::new();
        for (key, count) in &self.ratchet_counts {
            counts = counts.field(key.as_str(), *count);
        }
        MapBuilder::new()
            .field("version", 1u64)
            .field("total", self.findings.len() as u64)
            .field("unratcheted", self.unratcheted_count() as u64)
            .field("findings", Value::List(findings))
            .field("ratchet_counts", counts.build())
            .build()
    }

    fn from_value(value: &Value) -> Result<Self, WireError> {
        let version = value.get("version")?.as_u64()?;
        if version != 1 {
            return Err(WireError::schema(format!(
                "unsupported findings report version {version}"
            )));
        }
        let findings = value
            .get("findings")?
            .as_list()?
            .iter()
            .map(Finding::from_value)
            .collect::<Result<Vec<Finding>, WireError>>()?;
        let entries = value.get("ratchet_counts")?.as_map()?;
        let mut ratchet_counts = BTreeMap::new();
        for (key, count) in entries {
            ratchet_counts.insert(key.clone(), count.as_u64()?);
        }
        let report = Report {
            findings,
            ratchet_counts,
        };
        if value.get("total")?.as_u64()? != report.findings.len() as u64
            || value.get("unratcheted")?.as_u64()? != report.unratcheted_count() as u64
        {
            return Err(WireError::schema(
                "report totals disagree with the findings list",
            ));
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut report = Report::default();
        report.findings.push(Finding {
            pass: "panic-path".to_string(),
            category: "unwrap".to_string(),
            file: "crates/a/src/x.rs".to_string(),
            line: 7,
            message: "`unwrap()` in library code".to_string(),
            ratcheted: true,
        });
        report.findings.push(Finding {
            pass: "determinism".to_string(),
            category: "HashMap".to_string(),
            file: "crates/a/src/x.rs".to_string(),
            line: 3,
            message: "HashMap in result-feeding crate".to_string(),
            ratcheted: false,
        });
        report
            .ratchet_counts
            .insert("crates/a/src/x.rs#unwrap".to_string(), 1);
        report.finalize();
        report
    }

    #[test]
    fn report_sorts_counts_and_roundtrips() {
        let report = sample();
        assert_eq!(report.findings[0].pass, "determinism");
        assert_eq!(report.unratcheted_count(), 1);
        let json = report.to_json().expect("report encodes to JSON");
        assert_eq!(Report::from_json(&json).expect("report decodes"), report);
        assert_eq!(
            Report::from_btrw(&report.to_btrw()).expect("report decodes from BTRW"),
            report
        );
    }

    #[test]
    fn tampered_totals_are_rejected() {
        let report = sample();
        let json = report
            .to_json()
            .expect("report encodes to JSON")
            .replace("\"unratcheted\":1", "\"unratcheted\":0");
        assert!(Report::from_json(&json).is_err());
    }
}
