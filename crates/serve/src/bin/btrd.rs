//! `btrd` — the trace-classification daemon.
//!
//! ```text
//! btrd [--addr HOST:PORT] [--threads N] [--max-concurrent N]
//!      [--max-upload-bytes N] [--chunk-records N] [--max-static-branches N]
//!      [--timeout-ms N] [--cache-entries N]
//! ```
//!
//! Prints `btrd listening on HOST:PORT` on stdout once the listener is
//! bound (the end-to-end benchmark scrapes that line for the ephemeral
//! port), then serves until killed.

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

#[cfg(test)]
mod tests {
    use super::*;

    fn apply(args: &[&str]) -> Result<ServerConfig, String> {
        let mut config = ServerConfig::default();
        apply_args(&mut config, args.iter().map(|a| a.to_string()))?;
        Ok(config)
    }

    #[test]
    fn every_flag_sets_its_config_field() {
        let config = apply(&[
            "--addr",
            "0.0.0.0:7070",
            "--threads",
            "3",
            "--max-concurrent",
            "5",
            "--max-upload-bytes",
            "1048576",
            "--chunk-records",
            "512",
            "--max-static-branches",
            "77",
            "--timeout-ms",
            "1500",
            "--cache-entries",
            "9",
        ])
        .expect("valid flags");
        assert_eq!(config.addr, "0.0.0.0:7070");
        assert_eq!(config.analysis_threads, 3);
        assert_eq!(config.max_concurrent, 5);
        assert_eq!(config.max_upload_bytes, 1 << 20);
        assert_eq!(config.chunk_records, 512);
        assert_eq!(config.max_static_branches, 77);
        assert_eq!(config.request_timeout, Duration::from_millis(1500));
        assert_eq!(config.cache_entries, 9);
    }

    #[test]
    fn bad_usage_is_an_error() {
        let unknown = apply(&["--port", "80"]).expect_err("unknown flag");
        assert!(unknown.contains("unknown flag"), "{unknown}");
        let missing = apply(&["--timeout-ms"]).expect_err("missing value");
        assert!(missing.contains("--timeout-ms needs a value"), "{missing}");
        let not_a_number = apply(&["--max-upload-bytes", "1MiB"]).expect_err("non-integer value");
        assert!(
            not_a_number.contains("--max-upload-bytes wants an unsigned integer"),
            "{not_a_number}"
        );
        let negative = apply(&["--threads", "-1"]).expect_err("negative value");
        assert!(negative.contains("unsigned integer"), "{negative}");
    }
}
