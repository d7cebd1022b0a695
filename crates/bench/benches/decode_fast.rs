//! Slice-based fast `BTRT` decode versus the per-record reference decoder.
//!
//! Both variants decode the *same* in-memory byte stream into interned
//! columnar chunks, so the comparison isolates exactly what the fast path
//! changes: block refills into a reusable buffer, inlined slice varints, a
//! direct-mapped intern cache and recycled chunk buffers, against the
//! per-byte `Read` calls of the test oracle in
//! `crates/trace/tests/support/btrt_reference.rs` (included below), chunked
//! by `ChunkedTraceReader::from_records`. The trace generator is
//! the same as `streaming_throughput`, so the `slow/` row here is directly
//! comparable to the `streaming_pipeline/decode_only/chunked64k` baselines
//! recorded in earlier `BENCH_pr*.json` files.
//!
//! The `fast_stats/` row times the same fast decode plus the classify
//! stats fold (`DenseTraceStats::observe_chunk` per chunk, then one
//! `into_trace_stats`), so CI's records/s gate catches a slower fold too.
//!
//! The `≥ 2×` acceptance target for the fast decoder is declared as a
//! `min_ratio` row appended to `$CRITERION_JSON` and enforced by
//! `scripts/bench_gate.py` within the *current* run.

#[path = "../../trace/tests/support/btrt_reference.rs"]
mod btrt_reference;

use btr_trace::io::binary;
use btr_trace::{
    BranchAddr, BranchRecord, ChunkStream, DenseTraceStats, FastBtrtReader, Outcome, Trace,
    TraceBuilder, DEFAULT_CHUNK_RECORDS,
};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::io::Write;

/// A trace shaped like the generated suite: a few thousand static branches
/// with mixed behaviours (same generator as `streaming_throughput`, so the
/// decode rates are comparable across benches and PR baselines).
fn synthetic_trace(n: usize) -> Trace {
    let mut b = TraceBuilder::new("decode-fast");
    b.reserve(n);
    let mut state = 0x0f0f_1234_cafe_f00du64;
    for i in 0..n {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let addr = BranchAddr::new(0x40_0000 + ((state >> 21) & 0xfff) * 4);
        let taken = match (state >> 18) & 3 {
            0 => i % 2 == 0,
            1 => true,
            _ => (state >> 41) & 1 == 1,
        };
        b.push(BranchRecord::conditional(addr, Outcome::from_bool(taken)));
    }
    b.build()
}

/// Appends a `min_ratio` constraint row to `$CRITERION_JSON` for
/// `scripts/bench_gate.py`: in the same run, `id`'s rate must be at least
/// `min_ratio ×` the rate of `reference`.
fn declare_ratio_floor(id: &str, reference: &str, min_ratio: f64) {
    let Ok(path) = std::env::var("CRITERION_JSON") else {
        return;
    };
    if path.is_empty() {
        return;
    }
    let line = format!("{{\"id\":{id:?},\"ref\":{reference:?},\"min_ratio\":{min_ratio}}}\n");
    let written = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut file| file.write_all(line.as_bytes()));
    if let Err(err) = written {
        eprintln!("decode_fast: cannot append ratio floor to {path}: {err}");
    }
}

fn bench_decode_fast(c: &mut Criterion) {
    let n = 2_000_000usize;
    let trace = synthetic_trace(n);
    let mut encoded = Vec::new();
    binary::write_trace(&mut encoded, &trace).unwrap();

    let mut group = c.benchmark_group("decode_fast");
    group.sample_size(10);
    group.throughput(Throughput::Elements(n as u64));
    // The per-record reference: one `Read` call per byte, row chunks
    // interned on the way past.
    group.bench_function("slow/chunk64k", |b| {
        b.iter(|| {
            btrt_reference::chunked(encoded.as_slice(), DEFAULT_CHUNK_RECORDS)
                .unwrap()
                .map(|c| c.unwrap().len())
                .sum::<usize>()
        })
    });
    // The slice fast path, drained through pull/recycle so steady state
    // reuses one pair of chunk buffers — the shape `serve` and `shard` run.
    group.bench_function("fast/chunk64k", |b| {
        b.iter(|| {
            let mut reader =
                FastBtrtReader::new(encoded.as_slice(), DEFAULT_CHUNK_RECORDS).unwrap();
            let mut total = 0usize;
            while let Some(chunk) = reader.pull() {
                let chunk = chunk.unwrap();
                total += chunk.len();
                reader.recycle(chunk);
            }
            total
        })
    });
    // The fast path feeding `btrd`'s `/classify` stats fold, chunk by chunk.
    group.bench_function("fast_stats/chunk64k", |b| {
        b.iter(|| {
            let mut reader =
                FastBtrtReader::new(encoded.as_slice(), DEFAULT_CHUNK_RECORDS).unwrap();
            let mut stats = DenseTraceStats::new();
            while let Some(chunk) = reader.pull() {
                let chunk = chunk.unwrap();
                stats.observe_chunk(&chunk);
                reader.recycle(chunk);
            }
            stats.into_trace_stats()
        })
    });
    group.finish();

    // The fast path must beat the reference by 2× in the same run — the
    // machine-independent floor under the ≥ 2.5× cross-PR target.
    declare_ratio_floor(
        "decode_fast/fast/chunk64k",
        "decode_fast/slow/chunk64k",
        2.0,
    );
}

criterion_group!(benches, bench_decode_fast);
criterion_main!(benches);
