//! SPECint95-like benchmark descriptors calibrated to the paper's Table 1
//! (dynamic branch counts per benchmark/input) and Table 2 (joint class
//! distribution).

use crate::cell::{CellTarget, JointCell};
use crate::generator::{StaticBranchSpec, WorkloadGenerator};
use crate::table2;
use btr_trace::{BranchAddr, Trace};
use btr_wire::{MapBuilder, Value, Wire, WireError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Global configuration for generating the synthetic suite.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuiteConfig {
    /// Scale factor applied to the paper's dynamic branch counts. The paper
    /// analysed tens of billions of branches; the default of `2e-5` keeps a
    /// full-suite run around one million dynamic branches.
    pub scale: f64,
    /// Base RNG seed; each benchmark derives its own stream from this.
    pub seed: u64,
    /// Minimum dynamic executions per synthetic static branch. Branch
    /// populations are shrunk for small scales so that per-branch rates stay
    /// statistically meaningful.
    pub min_executions_per_branch: u64,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        SuiteConfig {
            scale: 2e-5,
            seed: 0xB7A2_2000,
            min_executions_per_branch: 400,
        }
    }
}

impl SuiteConfig {
    /// Whether `scale` is a usable scale factor: `0 < scale <= 1`, where 1 is
    /// the paper's own trace length. A larger scale would ask the generator
    /// for more records than the paper traced, and a huge or infinite one
    /// saturates the record count at `u64::MAX`.
    pub fn is_valid_scale(scale: f64) -> bool {
        scale > 0.0 && scale <= 1.0
    }

    /// Sets the scale factor.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < scale <= 1` (see [`SuiteConfig::is_valid_scale`]).
    #[must_use]
    pub fn with_scale(mut self, scale: f64) -> Self {
        assert!(
            Self::is_valid_scale(scale),
            "scale must be positive and finite, got {scale}"
        );
        self.scale = scale;
        self
    }

    /// Sets the base seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the minimum executions kept per synthetic static branch.
    #[must_use]
    pub fn with_min_executions_per_branch(mut self, min: u64) -> Self {
        self.min_executions_per_branch = min.max(1);
        self
    }
}

/// [`SuiteConfig`] encodes its three generation parameters verbatim, so a
/// shard work unit can ship the exact configuration a worker must regenerate
/// traces from (generation is deterministic per configuration, pinned by
/// `generation_is_deterministic_per_config`).
impl Wire for SuiteConfig {
    fn to_value(&self) -> Value {
        MapBuilder::new()
            .field("scale", self.scale)
            .field("seed", self.seed)
            .field("min_executions_per_branch", self.min_executions_per_branch)
            .build()
    }

    fn from_value(value: &Value) -> Result<Self, WireError> {
        let scale = value.get("scale")?.as_f64()?;
        if !SuiteConfig::is_valid_scale(scale) {
            return Err(WireError::schema(format!(
                "suite scale must be positive and finite, got {scale}"
            )));
        }
        Ok(SuiteConfig {
            scale,
            seed: value.get("seed")?.as_u64()?,
            min_executions_per_branch: value.get("min_executions_per_branch")?.as_u64()?.max(1),
        })
    }
}

/// A synthetic stand-in for one row of the paper's Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Benchmark {
    /// Benchmark name (`"gcc"`, `"compress"`, …).
    pub name: String,
    /// Input set label (`"cccp.i"`, `"bigtest.in"`, …).
    pub input_set: String,
    /// Dynamic conditional branch count reported in Table 1.
    pub paper_dynamic_branches: u64,
    /// Approximate number of hot static conditional branches to synthesise at
    /// full scale.
    pub static_branches: usize,
    /// Fraction of hard-branch occurrences to cluster back-to-back (models
    /// ijpeg's behaviour in Figure 15).
    pub hard_clustering: f64,
    /// Base address of the benchmark's text segment (keeps different
    /// benchmarks in distinct address ranges).
    pub text_base: u64,
}

impl Benchmark {
    fn new(
        name: &str,
        input_set: &str,
        paper_dynamic_branches: u64,
        static_branches: usize,
        hard_clustering: f64,
        text_base: u64,
    ) -> Self {
        Benchmark {
            name: name.to_string(),
            input_set: input_set.to_string(),
            paper_dynamic_branches,
            static_branches,
            hard_clustering,
            text_base,
        }
    }

    /// 129.compress with the `bigtest.in` input.
    pub fn compress() -> Self {
        Benchmark::new(
            "compress",
            "bigtest.in",
            5_641_834_221,
            260,
            0.0,
            0x0040_0000,
        )
    }

    /// 126.gcc with one of its 24 input files.
    pub fn gcc(input_set: &str, paper_dynamic_branches: u64) -> Self {
        Benchmark::new(
            "gcc",
            input_set,
            paper_dynamic_branches,
            7_000,
            0.0,
            0x0080_0000,
        )
    }

    /// 099.go with the `9stone21.in` input.
    pub fn go() -> Self {
        Benchmark::new("go", "9stone21.in", 3_838_574_925, 4_500, 0.05, 0x00c0_0000)
    }

    /// 132.ijpeg with one of its image inputs. ijpeg's hard branches occur in
    /// tight clusters (Figure 15), which the clustering fraction models.
    pub fn ijpeg(input_set: &str, paper_dynamic_branches: u64) -> Self {
        Benchmark::new(
            "ijpeg",
            input_set,
            paper_dynamic_branches,
            1_300,
            0.75,
            0x0100_0000,
        )
    }

    /// 130.li with the reference Lisp workload.
    pub fn li() -> Self {
        Benchmark::new("li", "ref/*.lsp", 8_493_447_845, 750, 0.0, 0x0140_0000)
    }

    /// 124.m88ksim with the `ctl.lit` input.
    pub fn m88ksim() -> Self {
        Benchmark::new("m88ksim", "ctl.lit", 9_086_543_174, 1_050, 0.0, 0x0180_0000)
    }

    /// 134.perl with one of its script inputs.
    pub fn perl(input_set: &str, paper_dynamic_branches: u64) -> Self {
        Benchmark::new(
            "perl",
            input_set,
            paper_dynamic_branches,
            2_300,
            0.0,
            0x01c0_0000,
        )
    }

    /// 147.vortex with the `vortex.lit` input.
    pub fn vortex() -> Self {
        Benchmark::new(
            "vortex",
            "vortex.lit",
            9_897_766_691,
            5_600,
            0.0,
            0x0200_0000,
        )
    }

    /// All 34 rows of the paper's Table 1, in the paper's order.
    pub fn suite() -> Vec<Benchmark> {
        let mut rows = vec![Benchmark::compress()];
        for (input, count) in GCC_INPUTS {
            rows.push(Benchmark::gcc(input, *count));
        }
        rows.push(Benchmark::go());
        rows.push(Benchmark::ijpeg("penguin.ppm", 1_548_835_517));
        rows.push(Benchmark::ijpeg("specmun.ppm", 1_392_275_287));
        rows.push(Benchmark::ijpeg("vigo.ppm", 1_627_642_253));
        rows.push(Benchmark::li());
        rows.push(Benchmark::m88ksim());
        rows.push(Benchmark::perl("primes.pl", 1_738_514_158));
        rows.push(Benchmark::perl("scrabbl.pl", 3_150_939_854));
        rows.push(Benchmark::vortex());
        rows
    }

    /// A short label of the form `name(input)`.
    pub fn label(&self) -> String {
        format!("{}({})", self.name, self.input_set)
    }

    /// The dynamic branch count this benchmark will generate under `config`.
    pub fn scaled_dynamic_branches(&self, config: &SuiteConfig) -> u64 {
        ((self.paper_dynamic_branches as f64) * config.scale)
            .round()
            .max(1.0) as u64
    }

    /// Deterministic per-benchmark seed derived from the suite seed.
    fn derived_seed(&self, config: &SuiteConfig) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ config.seed;
        for b in self.label().bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h
    }

    /// Builds the static-branch population plan for this benchmark.
    pub fn plan(&self, config: &SuiteConfig) -> Vec<StaticBranchSpec> {
        let total_dynamic = self.scaled_dynamic_branches(config);
        let mut rng = StdRng::seed_from_u64(self.derived_seed(config) ^ 0x5eed);
        // Cap the static population so every branch executes enough times for
        // its realised rates to be statistically stable.
        let max_static = (total_dynamic / config.min_executions_per_branch).max(1) as usize;
        let static_budget = self.static_branches.min(max_static);

        let mut specs = Vec::new();
        // Different inputs of the same benchmark (e.g. the 24 gcc runs) get
        // distinct sub-ranges of the text segment so that suite-wide profiles
        // can be merged per-address without unrelated branches colliding.
        let mut input_hash: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.input_set.bytes() {
            input_hash ^= u64::from(b);
            input_hash = input_hash.wrapping_mul(0x1000_0000_01b3);
        }
        let mut next_addr = self.text_base + (input_hash % 0x38) * 0x1_0000;
        let total_weight: f64 = table2::total_percent();
        for cell in JointCell::all() {
            let weight = table2::cell_percent(cell.taken_class, cell.transition_class);
            if weight <= 0.0 {
                continue;
            }
            let share = weight / total_weight;
            let cell_dynamic = (share * total_dynamic as f64).round() as u64;
            if cell_dynamic == 0 {
                continue;
            }
            let cell_static = ((share * static_budget as f64).round() as usize)
                .clamp(1, cell_dynamic.max(1) as usize);
            let base_execs = cell_dynamic / cell_static as u64;
            let remainder = (cell_dynamic % cell_static as u64) as usize;
            for i in 0..cell_static {
                let Some(target) = CellTarget::sample_within(cell, &mut rng) else {
                    continue;
                };
                let executions = base_execs + u64::from(i < remainder);
                if executions == 0 {
                    continue;
                }
                let predictable = rng.gen::<f64>() < target.predictable_fraction();
                specs.push(StaticBranchSpec {
                    addr: BranchAddr::new(next_addr),
                    cell,
                    target,
                    executions,
                    predictable,
                });
                // Space branches 8 bytes apart, like straight-line MIPS code
                // with a couple of instructions between branches.
                next_addr += 8;
            }
        }
        specs
    }

    /// Generates this benchmark's synthetic trace under `config`.
    pub fn generate(&self, config: &SuiteConfig) -> Trace {
        let mut generator = WorkloadGenerator::new(&self.name, self.derived_seed(config))
            .with_input_set(&self.input_set)
            .with_hard_clustering(self.hard_clustering);
        for spec in self.plan(config) {
            generator.add_branch(spec);
        }
        generator.generate()
    }
}

/// [`Benchmark`] encodes every descriptor field verbatim. Together with a
/// [`SuiteConfig`] this fully determines the generated trace, so shard
/// coordinators dispatch benchmark descriptors instead of trace bytes.
impl Wire for Benchmark {
    fn to_value(&self) -> Value {
        MapBuilder::new()
            .field("name", self.name.as_str())
            .field("input_set", self.input_set.as_str())
            .field("paper_dynamic_branches", self.paper_dynamic_branches)
            .field("static_branches", self.static_branches as u64)
            .field("hard_clustering", self.hard_clustering)
            .field("text_base", self.text_base)
            .build()
    }

    fn from_value(value: &Value) -> Result<Self, WireError> {
        let hard_clustering = value.get("hard_clustering")?.as_f64()?;
        if !(0.0..=1.0).contains(&hard_clustering) {
            return Err(WireError::schema(format!(
                "hard_clustering must be a fraction in [0, 1], got {hard_clustering}"
            )));
        }
        Ok(Benchmark {
            name: value.get("name")?.as_str()?.to_string(),
            input_set: value.get("input_set")?.as_str()?.to_string(),
            paper_dynamic_branches: value.get("paper_dynamic_branches")?.as_u64()?,
            static_branches: usize::try_from(value.get("static_branches")?.as_u64()?)
                .map_err(|_| WireError::schema("static branch count exceeds usize"))?,
            hard_clustering,
            text_base: value.get("text_base")?.as_u64()?,
        })
    }
}

/// The 24 gcc inputs of Table 1 with their dynamic conditional branch counts.
pub const GCC_INPUTS: &[(&str, u64)] = &[
    ("amptjp.i", 194_467_495),
    ("c-decl-s.i", 194_487_972),
    ("cccp.i", 190_138_561),
    ("cp-decl.i", 217_997_360),
    ("dbxout.i", 24_944_893),
    ("emit-rtl.i", 25_378_207),
    ("explow.i", 36_513_202),
    ("expr.i", 153_982_215),
    ("gcc.i", 30_394_247),
    ("genoutput.i", 12_971_324),
    ("genrecog.i", 18_202_207),
    ("insn-emit.i", 20_774_453),
    ("insn-recog.i", 85_446_679),
    ("integrate.i", 33_397_714),
    ("jump.i", 23_141_650),
    ("print-tree.i", 25_996_412),
    ("protoize.i", 76_482_161),
    ("recog.i", 43_591_736),
    ("regclass.i", 18_259_839),
    ("reload1.i", 138_706_109),
    ("stmt-protoize.i", 153_772_060),
    ("stmt.i", 82_470_825),
    ("toplev.i", 65_824_567),
    ("varasm.i", 37_656_353),
];

/// Sum of the paper's Table 1 dynamic branch counts over the whole suite.
pub fn paper_suite_dynamic_branches() -> u64 {
    Benchmark::suite()
        .iter()
        .map(|b| b.paper_dynamic_branches)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> SuiteConfig {
        SuiteConfig::default()
            .with_scale(2e-7)
            .with_seed(11)
            .with_min_executions_per_branch(200)
    }

    #[test]
    fn suite_has_all_34_table1_rows() {
        let suite = Benchmark::suite();
        assert_eq!(suite.len(), 34);
        assert_eq!(suite.iter().filter(|b| b.name == "gcc").count(), 24);
        assert_eq!(suite.iter().filter(|b| b.name == "ijpeg").count(), 3);
        assert_eq!(suite.iter().filter(|b| b.name == "perl").count(), 2);
        // Spot-check a few counts against the paper.
        assert_eq!(Benchmark::compress().paper_dynamic_branches, 5_641_834_221);
        assert_eq!(Benchmark::vortex().paper_dynamic_branches, 9_897_766_691);
        assert_eq!(suite[3].input_set, "cccp.i");
        assert_eq!(suite[3].paper_dynamic_branches, 190_138_561);
    }

    #[test]
    fn suite_total_matches_sum_of_rows() {
        let total = paper_suite_dynamic_branches();
        // ~47.5 billion dynamic conditional branches across the suite.
        assert!(
            total > 45_000_000_000 && total < 50_000_000_000,
            "total {total}"
        );
    }

    #[test]
    fn scaling_controls_trace_size() {
        let cfg = SuiteConfig::default().with_scale(1e-6);
        let n = Benchmark::compress().scaled_dynamic_branches(&cfg);
        assert!((n as i64 - 5_642).abs() < 10, "scaled count {n}");
    }

    #[test]
    fn generated_trace_matches_requested_size_and_metadata() {
        let cfg = small_config();
        let bench = Benchmark::compress();
        let trace = bench.generate(&cfg);
        let requested = bench.scaled_dynamic_branches(&cfg);
        let actual = trace.conditional_count();
        // Rounding when splitting counts across cells loses at most a few
        // executions per cell.
        assert!(
            (actual as i64 - requested as i64).abs() < 200,
            "requested {requested}, generated {actual}"
        );
        assert_eq!(trace.metadata().benchmark, "compress");
        assert_eq!(trace.metadata().input_set, "bigtest.in");
    }

    #[test]
    fn generation_is_deterministic_per_config() {
        let cfg = small_config();
        let a = Benchmark::li().generate(&cfg);
        let b = Benchmark::li().generate(&cfg);
        assert_eq!(a.records(), b.records());
        let other_seed = Benchmark::li().generate(&small_config().with_seed(99));
        assert_ne!(a.records(), other_seed.records());
    }

    #[test]
    fn static_population_respects_min_executions() {
        let cfg = small_config();
        let bench = Benchmark::gcc("cccp.i", 190_138_561);
        let plan = bench.plan(&cfg);
        let dynamic: u64 = plan.iter().map(|s| s.executions).sum();
        assert!(plan.len() as u64 <= dynamic / cfg.min_executions_per_branch + 121);
        // All addresses are unique and inside the benchmark's text segment.
        let mut addrs: Vec<u64> = plan.iter().map(|s| s.addr.raw()).collect();
        addrs.sort_unstable();
        addrs.dedup();
        assert_eq!(addrs.len(), plan.len());
        assert!(addrs.iter().all(|a| *a >= bench.text_base));
    }

    #[test]
    fn plan_covers_both_easy_and_hard_cells() {
        let cfg = SuiteConfig::default().with_scale(1e-6);
        let plan = Benchmark::vortex().plan(&cfg);
        assert!(plan
            .iter()
            .any(|s| s.cell.taken_class == 0 && s.cell.transition_class == 0));
        assert!(plan.iter().any(|s| s.cell.taken_class == 10));
        assert!(plan.iter().any(|s| s.is_hard()));
        // Dynamic weight of the always-taken corner should dominate, as in Table 2.
        let total: u64 = plan.iter().map(|s| s.executions).sum();
        let corner: u64 = plan
            .iter()
            .filter(|s| s.cell.taken_class == 10 && s.cell.transition_class == 0)
            .map(|s| s.executions)
            .sum();
        let share = corner as f64 / total as f64 * 100.0;
        assert!((share - 32.73).abs() < 2.0, "class (10,0) share {share}");
    }

    #[test]
    fn labels_and_constructor_metadata() {
        assert_eq!(Benchmark::compress().label(), "compress(bigtest.in)");
        assert!(Benchmark::ijpeg("vigo.ppm", 1).hard_clustering > 0.0);
        assert_eq!(Benchmark::go().name, "go");
        assert_eq!(GCC_INPUTS.len(), 24);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_scale_rejected() {
        let _ = SuiteConfig::default().with_scale(0.0);
    }
}
