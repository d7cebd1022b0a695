//! A trace truncated mid-record must surface as a clean typed error from the
//! streamed sweep path — and nothing from the torn tail may leak into
//! statistics. This is the simulation-side half of the shard runner's
//! torn-checkpoint story: a worker reading a half-written trace capture has
//! to fail loudly, not score garbage.

use btr_sim::engine::SimEngine;
use btr_trace::io::binary;
use btr_trace::{
    BranchAddr, BranchRecord, ConditionalColumns, FastBtrtReader, Outcome, Trace, TraceBuilder,
    TraceError,
};

fn mixed_trace(n: u64) -> Trace {
    let mut b = TraceBuilder::new("torn").with_seed(3);
    let mut state = 0x2545_f491_4f6c_dd1du64;
    for i in 0..n {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let addr = BranchAddr::new(0x40_0000 + ((state >> 45) & 0x3f) * 4);
        b.push(BranchRecord::conditional(
            addr,
            Outcome::from_bool(i % 2 == 0 || (state >> 33) & 1 == 1),
        ));
    }
    b.build()
}

fn encoded(trace: &Trace) -> Vec<u8> {
    let mut buf = Vec::new();
    binary::write_trace(&mut buf, trace).expect("trace encodes");
    buf
}

#[test]
fn run_fused_streamed_over_a_torn_trace_errors_too() {
    let trace = mixed_trace(150);
    let buf = encoded(&trace);
    let torn = &buf[..buf.len() - 3];
    let reader = FastBtrtReader::new(torn, 8).expect("header is intact");
    let mut fused = btr_sim::config::PredictorFamily::PAs.fused_paper(&[0, 2, 4]);
    let err = SimEngine::new()
        .run_fused_streamed(reader, &mut fused)
        .expect_err("torn stream must not produce a sweep");
    assert!(matches!(err, TraceError::TruncatedRecord { .. }), "{err:?}");
}

#[test]
fn complete_records_before_the_tear_decode_exactly_and_nothing_more() {
    let trace = mixed_trace(64);
    let buf = encoded(&trace);
    let torn = &buf[..buf.len() - 2];
    let mut reader = FastBtrtReader::new(torn, 10).expect("header is intact");
    let mut decoded = ConditionalColumns::new();
    let mut errors = 0;
    for chunk in &mut reader {
        match chunk {
            Ok(c) => {
                assert_eq!(c.first_record(), decoded.view().len() as u64);
                assert_eq!(
                    c.len(),
                    c.conditional().len(),
                    "the trace is all-conditional"
                );
                decoded.extend_from(c.conditional());
            }
            Err(_) => errors += 1,
        }
    }
    assert_eq!(errors, 1, "exactly one typed error, then the stream fuses");
    assert!(reader.next().is_none(), "the reader fuses after the error");
    // Every decoded record is a verbatim prefix of the original trace: the
    // torn tail contributed nothing — no phantom or garbled record.
    let decoded = decoded.view();
    let eager = trace.intern();
    assert!(decoded.len() < eager.len());
    assert_eq!(decoded, eager.records().slice(0..decoded.len()));
}

#[test]
fn a_header_only_truncation_fails_at_open_time() {
    let trace = mixed_trace(16);
    let buf = encoded(&trace);
    for cut in [1usize, 4, 8] {
        let torn = &buf[..cut.min(buf.len())];
        assert!(
            FastBtrtReader::new(torn, 8).is_err(),
            "cut to {cut} bytes must fail header validation"
        );
    }
}
