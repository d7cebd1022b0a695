//! Per-branch and whole-program profiles: the raw material of
//! classification.

use crate::class::{BinningScheme, ClassId};
use crate::rates::{TakenRate, TransitionRate};
use btr_trace::{BranchAddr, Trace, TraceStats};
use btr_wire::{MapBuilder, Value, Wire, WireError};
use std::collections::BTreeMap;

/// The profile of one static conditional branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchProfile {
    addr: BranchAddr,
    executions: u64,
    taken: u64,
    transitions: u64,
}

impl BranchProfile {
    /// Creates a profile from raw counts.
    ///
    /// # Panics
    ///
    /// Panics if `taken > executions`, or `transitions >= executions` for an
    /// executed branch (the first execution can never be a transition).
    pub fn new(addr: BranchAddr, executions: u64, taken: u64, transitions: u64) -> Self {
        assert!(taken <= executions, "taken count exceeds executions");
        assert!(
            executions == 0 || transitions < executions,
            "transition count exceeds executions - 1"
        );
        BranchProfile {
            addr,
            executions,
            taken,
            transitions,
        }
    }

    /// The branch address.
    pub fn addr(&self) -> BranchAddr {
        self.addr
    }

    /// Dynamic execution count.
    pub fn executions(&self) -> u64 {
        self.executions
    }

    /// Taken count.
    pub fn taken(&self) -> u64 {
        self.taken
    }

    /// Transition count.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// The branch's taken rate, or `None` if it never executed.
    pub fn taken_rate(&self) -> Option<TakenRate> {
        TakenRate::from_counts(self.taken, self.executions)
    }

    /// The branch's transition rate, or `None` if it never executed.
    pub fn transition_rate(&self) -> Option<TransitionRate> {
        TransitionRate::from_counts(self.transitions, self.executions)
    }

    /// The branch's taken-rate class under `scheme`.
    pub fn taken_class(&self, scheme: BinningScheme) -> Option<ClassId> {
        self.taken_rate().map(|r| scheme.classify(r.value()))
    }

    /// The branch's transition-rate class under `scheme`.
    pub fn transition_class(&self, scheme: BinningScheme) -> Option<ClassId> {
        self.transition_rate().map(|r| scheme.classify(r.value()))
    }

    /// Both classes at once, or `None` for a never-executed branch.
    pub fn joint_class(&self, scheme: BinningScheme) -> Option<(ClassId, ClassId)> {
        Some((self.taken_class(scheme)?, self.transition_class(scheme)?))
    }
}

/// The profile of a whole program (or benchmark suite): one
/// [`BranchProfile`] per static conditional branch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProgramProfile {
    branches: BTreeMap<BranchAddr, BranchProfile>,
    total_dynamic: u64,
}

impl ProgramProfile {
    /// Creates an empty profile.
    pub fn new() -> Self {
        ProgramProfile::default()
    }

    /// Profiles a trace (conditional branches only).
    pub fn from_trace(trace: &Trace) -> Self {
        Self::from_stats(trace.stats())
    }

    /// Profiles pre-accumulated trace statistics.
    ///
    /// The statistics iterate in address order, so the map is bulk-built
    /// from one sorted pass rather than by an insert per branch.
    pub fn from_stats(stats: &TraceStats) -> Self {
        let mut total_dynamic = 0;
        let branches = stats
            .iter()
            .map(|(addr, s)| {
                total_dynamic += s.executions();
                let branch = BranchProfile::new(addr, s.executions(), s.taken(), s.transitions());
                (addr, branch)
            })
            .collect();
        ProgramProfile {
            branches,
            total_dynamic,
        }
    }

    /// Inserts (or replaces) one branch profile.
    pub fn insert(&mut self, branch: BranchProfile) {
        if let Some(old) = self.branches.insert(branch.addr(), branch) {
            self.total_dynamic -= old.executions();
        }
        self.total_dynamic += branch.executions();
    }

    /// Merges another profile into this one, summing counts of branches that
    /// appear in both. Transition counts are summed too, which undercounts by
    /// at most one per merged branch: the transition between the last outcome
    /// of one profile and the first of the other is not recoverable.
    pub fn merge(&mut self, other: &ProgramProfile) {
        for branch in other.iter() {
            match self.branches.get(&branch.addr()).copied() {
                None => self.insert(*branch),
                Some(existing) => {
                    let merged = BranchProfile::new(
                        branch.addr(),
                        existing.executions() + branch.executions(),
                        existing.taken() + branch.taken(),
                        existing.transitions() + branch.transitions(),
                    );
                    self.insert(merged);
                }
            }
        }
    }

    /// Number of static branches profiled.
    pub fn static_count(&self) -> usize {
        self.branches.len()
    }

    /// Total dynamic executions across all branches.
    pub fn total_dynamic(&self) -> u64 {
        self.total_dynamic
    }

    /// Looks up one branch.
    pub fn branch(&self, addr: BranchAddr) -> Option<&BranchProfile> {
        self.branches.get(&addr)
    }

    /// Iterates over branch profiles in address order.
    pub fn iter(&self) -> impl Iterator<Item = &BranchProfile> {
        self.branches.values()
    }

    /// The dynamic weight (fraction of all executions) of one branch.
    pub fn dynamic_weight(&self, addr: BranchAddr) -> f64 {
        match (self.branches.get(&addr), self.total_dynamic) {
            (Some(b), total) if total > 0 => b.executions() as f64 / total as f64,
            _ => 0.0,
        }
    }
}

impl<'a> IntoIterator for &'a ProgramProfile {
    type Item = &'a BranchProfile;
    type IntoIter = std::collections::btree_map::Values<'a, BranchAddr, BranchProfile>;

    fn into_iter(self) -> Self::IntoIter {
        self.branches.values()
    }
}

/// Checks the [`BranchProfile`] count invariants, returning a schema error
/// (instead of the constructor's panic) so wire decoding never trusts bytes.
fn checked_branch_profile(
    addr: BranchAddr,
    executions: u64,
    taken: u64,
    transitions: u64,
) -> Result<BranchProfile, WireError> {
    if taken > executions {
        return Err(WireError::schema(format!(
            "branch {addr}: taken count {taken} exceeds executions {executions}"
        )));
    }
    if executions > 0 && transitions >= executions {
        return Err(WireError::schema(format!(
            "branch {addr}: transition count {transitions} exceeds executions - 1"
        )));
    }
    Ok(BranchProfile::new(addr, executions, taken, transitions))
}

/// [`BranchProfile`] encodes its four raw counts; decode re-validates the
/// count invariants.
impl Wire for BranchProfile {
    fn to_value(&self) -> Value {
        MapBuilder::new()
            .field("addr", self.addr.raw())
            .field("executions", self.executions)
            .field("taken", self.taken)
            .field("transitions", self.transitions)
            .build()
    }

    fn from_value(value: &Value) -> Result<Self, WireError> {
        checked_branch_profile(
            BranchAddr::new(value.get("addr")?.as_u64()?),
            value.get("executions")?.as_u64()?,
            value.get("taken")?.as_u64()?,
            value.get("transitions")?.as_u64()?,
        )
    }
}

/// [`ProgramProfile`] encodes columnar: four equal-length dense unsigned
/// sequences (`addrs` sorted ascending, plus the three count columns in the
/// same order). Sorted address columns delta-encode to a few bytes per
/// branch in `BTRW`; the derived `total_dynamic` is recomputed on decode
/// rather than carried on the wire.
impl Wire for ProgramProfile {
    fn to_value(&self) -> Value {
        let mut addrs = Vec::with_capacity(self.branches.len());
        let mut executions = Vec::with_capacity(self.branches.len());
        let mut taken = Vec::with_capacity(self.branches.len());
        let mut transitions = Vec::with_capacity(self.branches.len());
        for branch in self.iter() {
            addrs.push(branch.addr().raw());
            executions.push(branch.executions());
            taken.push(branch.taken());
            transitions.push(branch.transitions());
        }
        MapBuilder::new()
            .field("addrs", addrs)
            .field("executions", executions)
            .field("taken", taken)
            .field("transitions", transitions)
            .build()
    }

    fn from_value(value: &Value) -> Result<Self, WireError> {
        let addrs = value.get("addrs")?.as_u64_seq()?;
        let executions = value.get("executions")?.as_u64_seq()?;
        let taken = value.get("taken")?.as_u64_seq()?;
        let transitions = value.get("transitions")?.as_u64_seq()?;
        if executions.len() != addrs.len()
            || taken.len() != addrs.len()
            || transitions.len() != addrs.len()
        {
            return Err(WireError::schema(format!(
                "profile columns disagree on length: {} addrs, {} executions, {} taken, {} transitions",
                addrs.len(),
                executions.len(),
                taken.len(),
                transitions.len()
            )));
        }
        let mut profile = ProgramProfile::new();
        for (i, &addr) in addrs.iter().enumerate() {
            let branch = checked_branch_profile(
                BranchAddr::new(addr),
                executions[i],
                taken[i],
                transitions[i],
            )?;
            if profile.branches.contains_key(&branch.addr()) {
                return Err(WireError::schema(format!(
                    "profile lists branch {} twice",
                    branch.addr()
                )));
            }
            profile.insert(branch);
        }
        Ok(profile)
    }
}

impl FromIterator<BranchProfile> for ProgramProfile {
    fn from_iter<T: IntoIterator<Item = BranchProfile>>(iter: T) -> Self {
        let mut p = ProgramProfile::new();
        for b in iter {
            p.insert(b);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btr_trace::{BranchRecord, Outcome, TraceBuilder};

    fn profile(addr: u64, execs: u64, taken: u64, transitions: u64) -> BranchProfile {
        BranchProfile::new(BranchAddr::new(addr), execs, taken, transitions)
    }

    #[test]
    fn branch_profile_rates_and_classes() {
        let b = profile(0x10, 100, 97, 4);
        assert_eq!(b.taken_rate().unwrap().value(), 0.97);
        assert_eq!(b.transition_rate().unwrap().value(), 0.04);
        let scheme = BinningScheme::Paper11;
        assert_eq!(b.taken_class(scheme), Some(ClassId(10)));
        assert_eq!(b.transition_class(scheme), Some(ClassId(0)));
        assert_eq!(b.joint_class(scheme), Some((ClassId(10), ClassId(0))));
    }

    #[test]
    fn unexecuted_branch_has_no_rates() {
        let b = profile(0x10, 0, 0, 0);
        assert_eq!(b.taken_rate(), None);
        assert_eq!(b.joint_class(BinningScheme::Paper11), None);
    }

    #[test]
    #[should_panic(expected = "exceeds executions")]
    fn taken_above_executions_rejected() {
        let _ = profile(0x10, 5, 6, 0);
    }

    #[test]
    #[should_panic(expected = "executions - 1")]
    fn transitions_above_limit_rejected() {
        let _ = profile(0x10, 5, 3, 5);
    }

    #[test]
    fn program_profile_from_trace_counts_correctly() {
        let mut builder = TraceBuilder::new("p");
        let a = BranchAddr::new(0x100);
        let b = BranchAddr::new(0x200);
        // a: T N T N  (taken 2/4, transitions 3/4)
        for i in 0..4u32 {
            builder.push(BranchRecord::conditional(a, Outcome::from_bool(i % 2 == 0)));
        }
        // b: T T T (taken 3/3, transitions 0)
        for _ in 0..3 {
            builder.push(BranchRecord::conditional(b, Outcome::Taken));
        }
        let trace = builder.build();
        let profile = ProgramProfile::from_trace(&trace);
        assert_eq!(profile.static_count(), 2);
        assert_eq!(profile.total_dynamic(), 7);
        let pa = profile.branch(a).unwrap();
        assert_eq!(pa.taken(), 2);
        assert_eq!(pa.transitions(), 3);
        let pb = profile.branch(b).unwrap();
        assert_eq!(pb.taken_rate().unwrap().value(), 1.0);
        assert!((profile.dynamic_weight(a) - 4.0 / 7.0).abs() < 1e-12);
        assert_eq!(profile.dynamic_weight(BranchAddr::new(0x999)), 0.0);
    }

    #[test]
    fn insert_replaces_and_updates_totals() {
        let mut p = ProgramProfile::new();
        p.insert(profile(0x10, 10, 5, 2));
        p.insert(profile(0x10, 20, 10, 4));
        assert_eq!(p.static_count(), 1);
        assert_eq!(p.total_dynamic(), 20);
    }

    #[test]
    fn merge_sums_counts() {
        let mut a: ProgramProfile = vec![profile(0x10, 10, 5, 2), profile(0x20, 4, 4, 0)]
            .into_iter()
            .collect();
        let b: ProgramProfile = vec![profile(0x10, 10, 5, 2), profile(0x30, 6, 0, 0)]
            .into_iter()
            .collect();
        a.merge(&b);
        assert_eq!(a.static_count(), 3);
        assert_eq!(a.total_dynamic(), 30);
        assert_eq!(a.branch(BranchAddr::new(0x10)).unwrap().executions(), 20);
    }

    #[test]
    fn profiles_roundtrip_on_the_wire() {
        let p: ProgramProfile = vec![
            profile(0x30, 10, 5, 2),
            profile(0x10, 100, 97, 4),
            profile(u64::MAX, 3, 0, 2),
        ]
        .into_iter()
        .collect();
        let via_json = ProgramProfile::from_json(&p.to_json().unwrap()).unwrap();
        assert_eq!(via_json, p);
        assert_eq!(via_json.total_dynamic(), p.total_dynamic());
        assert_eq!(ProgramProfile::from_btrw(&p.to_btrw()).unwrap(), p);
        let b = profile(0x40, 7, 3, 2);
        assert_eq!(BranchProfile::from_json(&b.to_json().unwrap()).unwrap(), b);
    }

    #[test]
    fn wire_decode_rejects_invalid_profiles() {
        // taken > executions must fail as a schema error, not a panic.
        let bad = "{\"addr\":16,\"executions\":5,\"taken\":6,\"transitions\":0}";
        assert!(BranchProfile::from_json(bad).is_err());
        // Mismatched column lengths.
        let bad = "{\"addrs\":[1,2],\"executions\":[3],\"taken\":[0],\"transitions\":[0]}";
        assert!(ProgramProfile::from_json(bad).is_err());
        // Duplicate addresses.
        let bad = "{\"addrs\":[1,1],\"executions\":[3,3],\"taken\":[0,0],\"transitions\":[0,0]}";
        assert!(ProgramProfile::from_json(bad).is_err());
    }

    #[test]
    fn iteration_is_in_address_order() {
        let p: ProgramProfile = vec![profile(0x30, 1, 1, 0), profile(0x10, 1, 0, 0)]
            .into_iter()
            .collect();
        let addrs: Vec<u64> = p.iter().map(|b| b.addr().raw()).collect();
        assert_eq!(addrs, vec![0x10, 0x30]);
        assert_eq!((&p).into_iter().count(), 2);
    }
}
