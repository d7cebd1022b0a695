//! The `btrd` child process: cold starts, health probes, teardown and its
//! peak resident set.

use btr_serve::client::{send, ClientRequest};
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Per-request socket timeout; a request that takes longer is a failure.
pub const TIMEOUT: Duration = Duration::from_secs(30);

/// Health probes a cold start may need before it counts as failed.
const MAX_PROBES: u32 = 2_000;

/// A running `btrd`, killed and reaped on drop.
pub struct Daemon {
    child: Child,
    /// Kept open so the daemon never writes to a closed pipe.
    _stdout: BufReader<ChildStdout>,
    addr: String,
    probes: u64,
}

impl Daemon {
    /// Spawns `btrd` on an ephemeral loopback port and waits for the first
    /// 200 from `/healthz`. Returns the daemon and how long that took.
    pub fn start(btrd: &Path, extra_args: &[&str]) -> Result<(Daemon, Duration), String> {
        let started = Instant::now();
        let mut child = Command::new(btrd)
            .args(["--addr", "127.0.0.1:0"])
            .args(extra_args)
            .env("MALLOC_ARENA_MAX", "1")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", btrd.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("btrd listening on ")
            .map(str::to_string);
        let Some(addr) = addr.filter(|_| read.is_ok()) else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("btrd did not announce its address: {line:?}"));
        };
        let mut daemon = Daemon {
            child,
            _stdout: stdout,
            addr,
            probes: 0,
        };
        while daemon.probes < u64::from(MAX_PROBES) {
            daemon.probes += 1;
            if let Ok(resp) = send(&daemon.addr, &ClientRequest::get("/healthz"), TIMEOUT) {
                if resp.status == 200 {
                    return Ok((daemon, started.elapsed()));
                }
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Err("btrd never answered /healthz".into())
    }

    /// Starts `btrd` `starts` times, one after another, keeping only the
    /// last instance running. Returns it with every start's duration.
    pub fn cold_starts(
        btrd: &Path,
        extra_args: &[&str],
        starts: usize,
    ) -> Result<(Daemon, Vec<Duration>), String> {
        let mut durations = Vec::with_capacity(starts);
        let mut last = None;
        for _ in 0..starts.max(1) {
            // Reap the previous instance before timing the next start.
            drop(last.take());
            let (daemon, took) = Daemon::start(btrd, extra_args)?;
            durations.push(took);
            last = Some(daemon);
        }
        Ok((last.expect("at least one start"), durations))
    }

    /// `host:port` the daemon listens on.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// `/healthz` requests this instance has been sent.
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// The daemon's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mib(&self) -> Option<f64> {
        peak_rss_mib(&format!("/proc/{}/status", self.child.id()))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, in MiB.
pub fn peak_rss_mib(status_path: &str) -> Option<f64> {
    let status = std::fs::read_to_string(status_path).ok()?;
    parse_vm_hwm_mib(&status)
}

fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_parses_from_proc_status() {
        let status = "Name:\tbtrd\nVmPeak:\t  99999 kB\nVmHWM:\t   36864 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(36.0));
        assert_eq!(parse_vm_hwm_mib("Name:\tx\n"), None);
        let own = peak_rss_mib("/proc/self/status").expect("Linux exposes VmHWM");
        assert!(own > 0.0);
    }
}
