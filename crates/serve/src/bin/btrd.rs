//! `btrd` — the trace-classification daemon.
//!
//! ```text
//! btrd [--addr HOST:PORT] [--threads N] [--max-concurrent N]
//!      [--max-upload-bytes N] [--chunk-records N] [--max-static-branches N]
//!      [--timeout-ms N] [--cache-entries N]
//! ```
//!
//! Prints `btrd listening on HOST:PORT` on stdout once the listener is
//! bound (the smoke harness scrapes that line for the ephemeral port), then
//! serves until killed.

use btr_serve::{Server, ServerConfig};
use std::time::Duration;

fn main() {
    let mut config = ServerConfig::default();
    if let Err(reason) = apply_args(&mut config, std::env::args().skip(1)) {
        eprintln!("btrd: {reason}");
        eprintln!("usage: btrd [--addr HOST:PORT] [--threads N] [--max-concurrent N] [--max-upload-bytes N] [--chunk-records N] [--max-static-branches N] [--timeout-ms N] [--cache-entries N]");
        std::process::exit(2);
    }
    let server = match Server::bind(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("btrd: bind failed: {e}");
            std::process::exit(1);
        }
    };
    println!("btrd listening on {}", server.local_addr());
    if let Err(e) = server.run() {
        eprintln!("btrd: listener failed: {e}");
        std::process::exit(1);
    }
}

/// Folds command-line flags into the config; returns a reason on bad usage.
fn apply_args(
    config: &mut ServerConfig,
    mut args: impl Iterator<Item = String>,
) -> Result<(), String> {
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--addr" => config.addr = value("--addr")?,
            "--threads" => config.analysis_threads = parse(&flag, &value("--threads")?)?,
            "--max-concurrent" => {
                config.max_concurrent = parse(&flag, &value("--max-concurrent")?)?;
            }
            "--max-upload-bytes" => {
                config.max_upload_bytes = parse(&flag, &value("--max-upload-bytes")?)?;
            }
            "--chunk-records" => config.chunk_records = parse(&flag, &value("--chunk-records")?)?,
            "--max-static-branches" => {
                config.max_static_branches = parse(&flag, &value("--max-static-branches")?)?;
            }
            "--timeout-ms" => {
                config.request_timeout =
                    Duration::from_millis(parse(&flag, &value("--timeout-ms")?)?);
            }
            "--cache-entries" => config.cache_entries = parse(&flag, &value("--cache-entries")?)?,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(())
}

/// Parses one unsigned flag value.
fn parse<T: std::str::FromStr>(flag: &str, raw: &str) -> Result<T, String> {
    raw.parse()
        .map_err(|_| format!("{flag} wants an unsigned integer, got {raw:?}"))
}
