//! The `acso-serve` daemon binary: JSONL protocol on stdin/stdout.
//!
//! ```text
//! acso-serve [--lanes N] [--threads N] [--events PATH] [--fixed-time]
//! ```
//!
//! Requests are one JSON object per line on stdin; responses are one JSON
//! object per line on stdout (see `docs/PROTOCOL.md`). The process exits
//! when stdin closes or a `shutdown` request is handled.

use acso_serve::events::{Clock, EventSink};
use acso_serve::server::serve;
use acso_serve::service::{EvalService, ServiceConfig};
use acso_serve::transport::StdioTransport;
use std::io::Write as _;

const USAGE: &str =
    "usage: acso-serve [--lanes N] [--threads N] [--events PATH] [--state-dir DIR] [--fixed-time]

Persistent ACSO evaluation daemon: line-delimited JSON requests on stdin,
one JSON response per line on stdout. See docs/PROTOCOL.md.

options:
  --lanes N       lockstep lanes per inference batch
                  (default: ACSO_BATCH, else detected cores clamped to [8, 16])
  --threads N     worker threads for episode fan-out
                  (default: ACSO_THREADS or available parallelism)
  --events PATH   append a structured JSONL event stream to PATH
  --state-dir DIR crash recovery: `snapshot` requests write the policy table
                  to DIR atomically, and startup reloads it (a corrupt or
                  torn snapshot degrades to a cold start)
  --fixed-time    pin timestamps/durations to zero for deterministic output
  --help          show this help
";

/// Flags that need wiring beyond the [`ServiceConfig`] itself.
#[derive(Debug, Default, PartialEq, Eq)]
struct CliPaths {
    events: Option<String>,
    state_dir: Option<String>,
}

fn parse_args(args: &[String]) -> Result<(ServiceConfig, CliPaths), String> {
    let mut config = ServiceConfig::from_env();
    let mut paths = CliPaths::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--lanes" => {
                config.lanes = iter
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .filter(|n| *n > 0)
                    .ok_or("--lanes needs a positive integer")?;
            }
            "--threads" => {
                config.threads = iter
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .filter(|n| *n > 0)
                    .ok_or("--threads needs a positive integer")?;
            }
            "--events" => {
                paths.events = Some(
                    iter.next()
                        .filter(|p| !p.is_empty())
                        .ok_or("--events needs a file path")?
                        .clone(),
                );
            }
            "--state-dir" => {
                paths.state_dir = Some(
                    iter.next()
                        .filter(|p| !p.is_empty())
                        .ok_or("--state-dir needs a directory path")?
                        .clone(),
                );
            }
            "--fixed-time" => config.fixed_time = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok((config, paths))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (config, paths) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(message) => {
            if message.is_empty() {
                print!("{USAGE}");
                return;
            }
            eprintln!("acso-serve: {message}");
            eprint!("{USAGE}");
            std::process::exit(2);
        }
    };

    let clock = if config.fixed_time {
        Clock::Fixed
    } else {
        Clock::System
    };
    let events = match &paths.events {
        None => EventSink::disabled(),
        Some(path) => match std::fs::File::create(path) {
            Ok(file) => EventSink::to_writer(Box::new(file), clock),
            Err(e) => {
                eprintln!("acso-serve: cannot open events file `{path}`: {e}");
                std::process::exit(2);
            }
        },
    };

    let mut service = EvalService::new(config).with_events(events);
    if let Some(dir) = &paths.state_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("acso-serve: cannot create state dir `{dir}`: {e}");
            std::process::exit(2);
        }
        service = service.with_state_dir(dir);
        service.restore_on_start();
    }
    let mut transport = StdioTransport::new();
    let served = serve(&mut service, &mut transport);
    let _ = writeln!(std::io::stderr(), "acso-serve: served {served} requests");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn args_override_the_environment_defaults() {
        let (config, paths) = parse_args(&strings(&[
            "--lanes",
            "4",
            "--threads",
            "2",
            "--events",
            "/tmp/ev.jsonl",
            "--state-dir",
            "/tmp/acso-state",
            "--fixed-time",
        ]))
        .unwrap();
        assert_eq!(config.lanes, 4);
        assert_eq!(config.threads, 2);
        assert!(config.fixed_time);
        assert_eq!(paths.events.as_deref(), Some("/tmp/ev.jsonl"));
        assert_eq!(paths.state_dir.as_deref(), Some("/tmp/acso-state"));
    }

    #[test]
    fn bad_args_are_rejected() {
        assert!(parse_args(&strings(&["--lanes"])).is_err());
        assert!(parse_args(&strings(&["--lanes", "0"])).is_err());
        assert!(parse_args(&strings(&["--threads", "x"])).is_err());
        assert!(parse_args(&strings(&["--events"])).is_err());
        assert!(parse_args(&strings(&["--state-dir"])).is_err());
        assert!(parse_args(&strings(&["--wat"])).is_err());
        assert_eq!(parse_args(&strings(&["--help"])).unwrap_err(), "");
    }
}
