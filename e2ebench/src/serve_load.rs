//! The `classify` and `sweep` workloads: one client in a closed loop
//! against a `btrd` child process over loopback, each response checked
//! byte for byte against its in-process oracle.

use crate::daemon::{Daemon, TIMEOUT};
use crate::inputs::{self, Upload};
use crate::oracle;
use crate::report::Outcome;
use crate::stats::{self, Latencies, Segment};
use btr_serve::client::{send, ClientRequest};
use btr_serve::metrics::MetricsSnapshot;
use btr_wire::Wire;
use std::path::Path;
use std::time::{Duration, Instant};

/// `btrd` cold starts timed before each segment; `setup_s` is the median
/// of all of them.
pub const STARTS_PER_SEGMENT: usize = 7;

/// Daemons the timed phase is split across; odd, so the median over
/// segments is one segment's figure.
pub const SEGMENTS: usize = 9;

/// `/metrics` fetches to wait for the last reply's accounting to land.
const METRICS_SETTLE_TRIES: u64 = 100;

/// Every request takes the full path: the response cache is off.
pub const BTRD_ARGS: [&str; 2] = ["--cache-entries", "0"];

/// Which endpoint a serve workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /classify`.
    Classify,
    /// `POST /sweep` over histories 0..=16.
    Sweep,
}

impl Endpoint {
    /// Records per upload. A `/classify` request is cheap per record, so its
    /// uploads are large enough (about 15 ms of work) that a few
    /// milliseconds of host preemption cannot double a request's latency.
    /// Sweep uploads stay below `batch_upload_bytes`, so they take the
    /// default batch path.
    fn upload_records(self) -> f64 {
        match self {
            Endpoint::Classify => 3.0e5,
            Endpoint::Sweep => 1.5e5,
        }
    }

    fn target(self) -> String {
        match self {
            Endpoint::Classify => "/classify".into(),
            Endpoint::Sweep => oracle::sweep_target(),
        }
    }
}

/// A workload's inputs, encoded and paired with their expected responses.
pub struct Prepared {
    /// The uploads, in rotation order.
    pub uploads: Vec<Upload>,
    /// One ready-to-send request per upload.
    pub requests: Vec<ClientRequest>,
    /// The body each request must come back with.
    pub expected: Vec<Vec<u8>>,
    /// The endpoint.
    pub endpoint: Endpoint,
}

impl Prepared {
    /// Generates the uploads for `seed` and renders their expected bodies.
    pub fn new(endpoint: Endpoint, seed: u64, tamper: bool) -> Result<Prepared, String> {
        let uploads = inputs::uploads(seed, endpoint.upload_records());
        let pool = oracle::server_pool();
        let mut expected = Vec::with_capacity(uploads.len());
        for upload in &uploads {
            let mut doc = match endpoint {
                Endpoint::Classify => oracle::classify_expected(upload)?,
                Endpoint::Sweep => oracle::sweep_expected(upload, &pool)?,
            };
            if tamper {
                oracle::tamper(&mut doc);
            }
            expected.push(doc);
        }
        let target = endpoint.target();
        let requests = uploads
            .iter()
            .map(|u| ClientRequest::post(&target, u.body.clone()))
            .collect();
        Ok(Prepared {
            uploads,
            requests,
            expected,
            endpoint,
        })
    }
}

/// What one closed-loop phase observed.
#[derive(Debug, Default)]
pub struct LoopStats {
    /// Latency of every verified request.
    pub latencies: Latencies,
    /// The same latencies, split by upload.
    pub per_upload: Vec<Latencies>,
    /// Records covered by verified responses.
    pub records: u64,
    /// Requests sent.
    pub sent: u64,
    /// Records the daemon decoded, verified or not.
    pub records_sent: u64,
    /// Wall time of the phase.
    pub wall: Duration,
}

/// Sends the rotation's requests one at a time, each after the previous
/// reply, until `budget` has elapsed (at least `min_requests` are sent).
/// Every reply is checked against its expected body; failures go to `out`.
pub fn closed_loop(
    daemon: &Daemon,
    prepared: &Prepared,
    budget: Duration,
    min_requests: u64,
    out: &mut Outcome,
) -> LoopStats {
    let n = prepared.requests.len();
    let mut stats = LoopStats {
        per_upload: vec![Latencies::default(); n],
        ..LoopStats::default()
    };
    let started = Instant::now();
    while stats.sent < min_requests || started.elapsed() < budget {
        let i = stats.sent as usize % n;
        let t0 = Instant::now();
        let reply = send(daemon.addr(), &prepared.requests[i], TIMEOUT);
        let latency = t0.elapsed();
        stats.sent += 1;
        stats.records_sent += prepared.uploads[i].records;
        match reply {
            Ok(resp) if resp.status == 200 && resp.body == prepared.expected[i] => {
                stats.latencies.push(latency);
                stats.per_upload[i].push(latency);
                stats.records += prepared.uploads[i].records;
            }
            Ok(resp) if resp.status == 200 => out.fail(format!(
                "{}: response body differs from the in-process oracle",
                prepared.uploads[i].label
            )),
            Ok(resp) => out.fail(format!(
                "{}: status {}: {}",
                prepared.uploads[i].label,
                resp.status,
                resp.text()
            )),
            Err(e) => out.fail(format!("{}: {e}", prepared.uploads[i].label)),
        }
    }
    stats.wall = started.elapsed();
    out.attempted += stats.sent;
    stats
}

/// Fetches `/metrics` and checks its counters against the traffic this
/// instance was sent: every request counted and answered 200, no 503s, one
/// cache miss per analysis, one batched lane per sweep. One attempted
/// operation; a mismatch fails it. Returns the snapshot.
pub fn check_metrics(
    daemon: &Daemon,
    endpoint: Endpoint,
    analyses: u64,
    records: u64,
    out: &mut Outcome,
) -> Option<MetricsSnapshot> {
    out.attempted += 1;
    // A connection thread books its reply after writing it, so the last
    // reply may not be counted yet: fetch until everything but the fetch
    // itself is answered.
    let mut fetches = 0u64;
    let snap = loop {
        fetches += 1;
        let snap = match send(daemon.addr(), &ClientRequest::get("/metrics"), TIMEOUT)
            .map_err(|e| e.to_string())
            .and_then(|resp| MetricsSnapshot::from_json(&resp.text()).map_err(|e| e.to_string()))
        {
            Ok(snap) => snap,
            Err(e) => {
                out.fail(format!("/metrics: {e}"));
                return None;
            }
        };
        let answered = snap.responses_2xx + snap.responses_4xx + snap.responses_5xx;
        if answered + 1 >= snap.requests || fetches >= METRICS_SETTLE_TRIES {
            break snap;
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    // The snapshot counts the last fetch as received but not yet answered.
    let requests = daemon.probes() + analyses + fetches;
    let lanes = if endpoint == Endpoint::Sweep {
        analyses
    } else {
        0
    };
    let checks = [
        ("requests", snap.requests, requests),
        ("responses_2xx", snap.responses_2xx, requests - 1),
        ("responses_4xx", snap.responses_4xx, 0),
        ("responses_5xx", snap.responses_5xx, 0),
        ("rejected_busy", snap.rejected_busy, 0),
        ("cache_misses", snap.cache_misses, analyses),
        ("cache_hits", snap.cache_hits, 0),
        ("batched_lanes", snap.batched_lanes, lanes),
        ("records_decoded", snap.records_decoded, records),
    ];
    let wrong: Vec<String> = checks
        .iter()
        .filter(|(_, got, want)| got != want)
        .map(|(name, got, want)| format!("{name}={got} (sent traffic implies {want})"))
        .collect();
    if !wrong.is_empty() {
        out.fail(format!("/metrics disagrees: {}", wrong.join(", ")));
    }
    Some(snap)
}

/// One daemon's share of a run: a warm-up pass over the rotation, a timed
/// closed loop of `budget`, then the `/metrics` check. Returns the timed
/// loop's figures and the daemon's counters.
pub fn measure(
    daemon: &Daemon,
    prepared: &Prepared,
    budget: Duration,
    out: &mut Outcome,
) -> (LoopStats, Option<MetricsSnapshot>) {
    let rotation = prepared.requests.len() as u64;
    let warm = closed_loop(daemon, prepared, Duration::ZERO, rotation, out);
    let timed = closed_loop(daemon, prepared, budget, 1, out);
    let snap = check_metrics(
        daemon,
        prepared.endpoint,
        warm.sent + timed.sent,
        warm.records_sent + timed.records_sent,
        out,
    );
    (timed, snap)
}

/// One untraced run of a serve workload. The timed phase is split into
/// [`SEGMENTS`] equal closed loops, each against a fresh `btrd` (warm-up
/// rotation first, `/metrics` check after); pooling several daemons keeps
/// one process's memory layout from setting the run's figures. Before each
/// segment a burst of [`STARTS_PER_SEGMENT`] cold starts is timed, the last
/// of which serves the segment, so the set-up samples span the run.
pub fn run(
    endpoint: Endpoint,
    btrd: &Path,
    seed: u64,
    seconds: f64,
    tamper: bool,
) -> Result<Outcome, String> {
    let prepared = Prepared::new(endpoint, seed, tamper)?;
    let mut out = Outcome::default();
    let budget = Duration::from_secs_f64(seconds / SEGMENTS as f64);
    let mut starts = Vec::with_capacity(SEGMENTS * STARTS_PER_SEGMENT);
    let mut segments = Vec::with_capacity(SEGMENTS);
    let mut per_upload = vec![Latencies::default(); prepared.requests.len()];
    let mut rss = Vec::with_capacity(SEGMENTS);
    for _ in 0..SEGMENTS {
        let (daemon, took) = Daemon::cold_starts(btrd, &BTRD_ARGS, STARTS_PER_SEGMENT)?;
        starts.extend(took);
        let (timed, _) = measure(&daemon, &prepared, budget, &mut out);
        rss.extend(daemon.peak_rss_mib());
        for (all, seg) in per_upload.iter_mut().zip(&timed.per_upload) {
            all.extend(seg);
        }
        segments.push(Segment {
            latencies: timed.latencies,
            records: timed.records,
            wall: timed.wall,
        });
    }
    // The median daemon's peak resident set.
    out.end_to_end(&segments, stats::nearest_rank(&rss, 50.0), &starts);
    for (upload, lat) in prepared.uploads.iter().zip(&per_upload) {
        out.note(format!(
            "  {:<24} {:>7} records {:>5} static branches  p50 {:>9.3} ms  ({} samples)",
            upload.label,
            upload.records,
            upload.static_branches,
            lat.percentile(50.0).unwrap_or(f64::NAN),
            lat.len()
        ));
    }
    Ok(out)
}
