//! `acso-serve`: the persistent evaluation daemon.
//!
//! The offline binaries (`scenario_sweep`, the experiment runners) pay the
//! full startup bill — building the scenario registry, training or loading
//! policies — on every invocation. This crate keeps all of that warm in one
//! long-lived process and answers evaluation requests over a line-delimited
//! JSON protocol (one request object in, one response object out, newline
//! framed). `docs/PROTOCOL.md` is the complete wire reference; its worked
//! transcript is replayed byte-for-byte by `tests/serve_protocol.rs`.
//!
//! The layers, bottom to top:
//!
//! * [`json`] — a hand-rolled JSON value/parser/writer (the workspace's
//!   serde is a vendored no-op stand-in) with insertion-ordered objects and
//!   shortest-round-trip numbers, so responses are byte-deterministic;
//! * [`transport`] — the [`transport::Transport`] trait over line streams:
//!   stdio for the daemon binary, an in-process channel pair for tests,
//!   benchmarks and embedded clients; TCP/HTTP can slot in later;
//! * [`metrics`] — counters, gauges and a latency histogram, rendered in the
//!   Prometheus text exposition format;
//! * [`events`] — the optional JSONL event stream (`--events`) and the
//!   [`events::Clock`] that `--fixed-time` pins for deterministic output;
//! * [`state`] — crash-recoverable serving state: the policy table written
//!   as a digest-sealed `ACSOSNAP` snapshot (`--state-dir`), reloaded on
//!   startup with graceful fallback to a cold start;
//! * [`service`] — [`service::EvalService`]: request parsing, the policy
//!   handle table, and evaluate-request coalescing through
//!   [`acso_core::rollout::SyncBatchEngine::rollout_many`];
//! * [`server`] — the drain-then-handle serve loop that turns pipelined
//!   client requests into coalesced batches.
//!
//! # In-process quick start
//!
//! The daemon's whole protocol works without a subprocess — hand the serve
//! loop a channel transport and write JSON lines at it:
//!
//! ```
//! use acso_serve::service::{EvalService, ServiceConfig};
//!
//! let mut service = EvalService::new(ServiceConfig::fixed());
//! let response = service.handle_line(r#"{"id":1,"method":"list_scenarios"}"#);
//! assert!(response.starts_with(r#"{"id":1,"ok":true,"#));
//! assert!(response.contains(r#""name":"paper-full""#));
//! ```

#![warn(missing_docs)]

pub mod events;
pub mod json;
pub mod metrics;
pub mod server;
pub mod service;
pub mod state;
pub mod transport;

pub use events::{Clock, EventSink};
pub use json::JsonValue;
pub use metrics::ServeMetrics;
pub use server::serve;
pub use service::{BatchOutcome, EvalService, ServiceConfig, DEFAULT_LANES};
pub use transport::{ChannelTransport, ClientEnd, StdioTransport, Transport};
