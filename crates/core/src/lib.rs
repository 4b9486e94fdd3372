//! The Autonomous Cyber Security Orchestrator (ACSO).
//!
//! This crate is the paper's primary contribution: a deep-reinforcement-
//! learning defender for industrial control networks, together with the
//! baseline policies it is compared against and the evaluation harness that
//! regenerates the paper's tables and figures.
//!
//! The pieces fit together like this:
//!
//! * [`features`] — turns the simulator's observations and the DBN filter's
//!   beliefs into fixed-width per-node feature vectors;
//! * [`actions`] — the flat defender action space (no-action + per-node
//!   investigations/mitigations + per-PLC recoveries) indexed for Q-learning;
//! * [`agent`] — the attention-based Q-network of Fig. 5, the baseline
//!   1-D-convolutional Q-network of Table 7, and the ACSO agent that wraps a
//!   network, the DBN filter and an ε-greedy policy;
//! * [`baselines`] — the semi-random, playbook, and DBN-expert defenders of
//!   §5.1;
//! * [`train`] — the augmented-DQN training loop of §4.2 (double DQN,
//!   prioritized replay, n-step returns, shaping reward);
//! * [`eval`] — the 100-episode evaluation protocol and its metrics;
//! * [`rollout`] — the rollout engine: the step-synchronized
//!   [`rollout::SyncBatchEngine`], which fans batches of episodes out over
//!   `ACSO_THREADS` workers with deterministic per-episode seeding and
//!   batches policy inference across each batch's `ACSO_BATCH` lockstep
//!   lanes, bit-identical to the serial oracle
//!   [`rollout::rollout_serial`];
//! * [`experiments`] — one entry point per table/figure of the paper
//!   (Table 2, Fig. 6, Fig. 10, the grid search, the DBN validation) plus
//!   the registry-wide scenario sweep;
//! * [`scenario`] — the scenario registry: the paper presets, attacker /
//!   IDS / topology variants, TOML-loaded and seed-generated scenarios;
//! * [`snapshot`] — versioned `ACSOSNAP` checkpoints: the full learning
//!   state (networks, optimizer, replay, schedules, RNG positions) written
//!   atomically, restored bit-identically.
//!
//! # Quick start
//!
//! ```
//! use acso_core::baselines::PlaybookPolicy;
//! use acso_core::eval::{evaluate_policy, EvalConfig};
//! use ics_sim::SimConfig;
//!
//! // Evaluate the playbook baseline on a small network for two short episodes.
//! let eval = EvalConfig {
//!     sim: SimConfig::tiny().with_max_time(150),
//!     episodes: 2,
//!     seed: 7,
//! };
//! let summary = evaluate_policy(&mut PlaybookPolicy::new(), &eval);
//! assert_eq!(summary.episodes, 2);
//! ```

#![warn(missing_docs)]

pub mod actions;
pub mod agent;
pub mod baselines;
pub mod eval;
pub mod experiments;
pub mod features;
pub mod policy;
pub mod rollout;
pub mod scenario;
pub mod snapshot;
pub mod train;

pub use actions::ActionSpace;
pub use agent::{AcsoAgent, AttentionQNet, BaselineConvQNet};
pub use eval::{evaluate_policy, EvalConfig};
pub use features::{NodeFeatureEncoder, StateFeatures};
pub use policy::DefenderPolicy;
pub use rollout::{RolloutPlan, SyncBatchEngine};
pub use scenario::{RegistryError, ScenarioRegistry};
pub use snapshot::SnapshotError;
pub use train::CheckpointConfig;
