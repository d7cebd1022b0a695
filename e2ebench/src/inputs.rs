//! Seeded input generation. Every input the program sees is derived here
//! from the `--seed` argument and fully built before any timing starts.
//!
//! Uploads come from the workloads crate's eight SPECint95 archetypes. The
//! per-branch execution floor is lowered from the generator's default of
//! 400 to [`MIN_EXECUTIONS_PER_BRANCH`]: at 400, `Benchmark::plan` caps a
//! 100k-record trace at 250 static branches and every predictor table fits
//! in L1; at 40 the uploads span about 280 to 7000 static branches.
//!
//! Request cost clusters by archetype, so the latency distribution is a
//! mixture of one narrow peak per upload. With an even number of equally
//! frequent uploads the median falls in the gap between the two middle
//! peaks and jumps between them from run to run; perl therefore appears
//! with both of its Table 1 inputs, making nine uploads, so the median falls
//! inside the middle peak.

use btr_shard::SweepSpec;
use btr_sim::config::PredictorFamily;
use btr_trace::io::binary;
use btr_trace::Trace;
use btr_workloads::{Benchmark, SuiteConfig};

/// Minimum dynamic executions per synthetic static branch.
pub const MIN_EXECUTIONS_PER_BRANCH: u64 = 40;

/// The fixed upload rotation, as (benchmark, input set) rows of Table 1.
pub const ROTATION: [(&str, &str); 9] = [
    ("compress", "bigtest.in"),
    ("go", "9stone21.in"),
    ("li", "ref/*.lsp"),
    ("m88ksim", "ctl.lit"),
    ("vortex", "vortex.lit"),
    ("perl", "primes.pl"),
    ("perl", "scrabbl.pl"),
    ("ijpeg", "penguin.ppm"),
    ("gcc", "amptjp.i"),
];

/// The benchmark set every `shard` job sweeps.
pub const SHARD_BENCHMARKS: [&str; 4] = ["compress", "go", "li", "vortex"];

/// Dynamic branches per `shard` job, across its four benchmarks.
pub const SHARD_JOB_RECORDS: f64 = 1.2e5;

/// One encoded upload.
#[derive(Debug, Clone)]
pub struct Upload {
    /// `name(input)` of the archetype it was generated from.
    pub label: String,
    /// The `BTRT` body.
    pub body: Vec<u8>,
    /// Trace records in the body.
    pub records: u64,
    /// Distinct static conditional branches in the body.
    pub static_branches: usize,
}

/// SplitMix64: one well-mixed 64-bit value per input, so neighbouring
/// seeds give unrelated variants.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The suite row for `name` with input set `input`, or its first input
/// when `input` is `None`.
fn archetype(name: &str, input: Option<&str>) -> Benchmark {
    Benchmark::suite()
        .into_iter()
        .find(|b| b.name == name && input.is_none_or(|i| b.input_set == i))
        .unwrap_or_else(|| panic!("{name} {input:?} is a suite row"))
}

/// Generation parameters giving `benchmark` about `records` dynamic
/// branches.
fn sized(benchmark: &Benchmark, records: f64, seed: u64) -> SuiteConfig {
    SuiteConfig::default()
        .with_scale(records / benchmark.paper_dynamic_branches as f64)
        .with_seed(seed)
        .with_min_executions_per_branch(MIN_EXECUTIONS_PER_BRANCH)
}

fn encode(label: String, trace: &Trace) -> Upload {
    let mut body = Vec::new();
    binary::write_trace(&mut body, trace).expect("encoding into memory cannot fail");
    Upload {
        label,
        body,
        records: trace.len() as u64,
        static_branches: trace.static_conditional_count(),
    }
}

/// One upload per rotation row, each of about `records` records, in
/// rotation order. The seed picks the variant: same archetypes and sizes,
/// different generated branch behaviour, so every seed costs about the same
/// to serve.
pub fn uploads(seed: u64, records: f64) -> Vec<Upload> {
    ROTATION
        .iter()
        .enumerate()
        .map(|(i, (name, input))| {
            let benchmark = archetype(name, Some(input));
            let config = sized(&benchmark, records, mix(seed, i as u64));
            encode(benchmark.label(), &benchmark.generate(&config))
        })
        .collect()
}

/// The `shard` job for job seed `job_seed`: PAs histories 0..=8 in groups
/// of 3, four windows per trace, over [`SHARD_BENCHMARKS`] at one shared
/// scale that gives the job about [`SHARD_JOB_RECORDS`] records.
pub fn shard_spec(job_seed: u64) -> SweepSpec {
    let benchmarks: Vec<Benchmark> = SHARD_BENCHMARKS
        .iter()
        .map(|n| archetype(n, None))
        .collect();
    let paper_total: u64 = benchmarks.iter().map(|b| b.paper_dynamic_branches).sum();
    let config = SuiteConfig::default()
        .with_scale(SHARD_JOB_RECORDS / paper_total as f64)
        .with_seed(job_seed)
        .with_min_executions_per_branch(MIN_EXECUTIONS_PER_BRANCH);
    SweepSpec {
        family: PredictorFamily::PAs,
        histories: (0..=8).collect(),
        benchmarks,
        config,
        history_group: 3,
        window_count: 4,
        trace_file: None,
    }
}

/// Trace records one `shard` job covers: each benchmark's trace once, not
/// once per history or window.
pub fn shard_job_records(spec: &SweepSpec) -> u64 {
    spec.benchmarks
        .iter()
        .map(|b| b.generate(&spec.config).len() as u64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_bytes() {
        let a = uploads(7, 2e3);
        let b = uploads(7, 2e3);
        let c = uploads(8, 2e3);
        assert_eq!(a.len(), ROTATION.len());
        for ((a, b), c) in a.iter().zip(&b).zip(&c) {
            assert_eq!(a.body, b.body);
            assert_eq!(a.label, c.label);
        }
        assert!(a.iter().zip(&c).any(|(a, c)| a.body != c.body));
    }

    #[test]
    fn uploads_have_about_the_requested_size() {
        for upload in uploads(1, 5e3) {
            assert!(
                (4_500..=5_500).contains(&upload.records),
                "{}: {}",
                upload.label,
                upload.records
            );
        }
    }

    #[test]
    fn shard_jobs_keep_their_composition_across_seeds() {
        let a = shard_spec(1);
        let b = shard_spec(2);
        assert_eq!(a.benchmarks, b.benchmarks);
        assert_eq!(a.histories, b.histories);
        assert_ne!(a.config.seed, b.config.seed);
        assert_eq!(a.plan_units().expect("valid spec").len(), 3 * 4 * 4);
    }
}
