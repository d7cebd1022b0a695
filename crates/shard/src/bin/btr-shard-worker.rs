//! The `btr-shard-worker` process: executes exactly one work unit.
//!
//! Usage:
//!
//! ```text
//! btr-shard-worker <out-dir> <unit-id> <attempt>
//! ```
//!
//! Loads `<out-dir>/manifest.btrw`, plans unit `<unit-id>` from its spec,
//! decodes the unit's trace file, simulates its history group over its
//! window, and commits `<out-dir>/partial-<unit-id>.btrw` under the
//! first-committed-wins protocol. A `BTR_FAULT` plan in the environment may
//! make this attempt crash, stall, or tear its checkpoint on purpose (see
//! `btr_shard::fault`).
//!
//! Exit codes: 0 committed (or yielded to an earlier commit), 2 usage
//! error, 10 injected crash, 11 real failure (including a unit id outside
//! the plan), 12 injected stall expired.
//! The coordinator ignores these and trusts only the checkpoint on disk.

#![forbid(unsafe_code)]

use btr_shard::worker;
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [out_dir, unit_id, attempt] = &args[..] else {
        eprintln!("usage: btr-shard-worker <out-dir> <unit-id> <attempt>");
        return ExitCode::from(2);
    };
    let (Ok(unit_id), Ok(attempt)) = (unit_id.parse::<u32>(), attempt.parse::<u32>()) else {
        eprintln!("btr-shard-worker: unit id and attempt must be unsigned integers");
        return ExitCode::from(2);
    };
    match worker::run_worker(Path::new(out_dir), unit_id, attempt) {
        Ok(code) => ExitCode::from(code as u8),
        Err(e) => {
            eprintln!("btr-shard-worker: {e}");
            ExitCode::from(worker::EXIT_ERROR as u8)
        }
    }
}
