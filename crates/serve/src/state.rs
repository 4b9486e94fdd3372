//! Crash-recoverable serving state: `ACSOSNAP` snapshots of the policy table.
//!
//! A running daemon accumulates state a restart would otherwise lose: every
//! loaded policy handle, the trained weights behind `acso` handles, and the
//! handle counter that keeps names stable. This module serializes that table
//! into the same versioned, digest-sealed `ACSOSNAP` container the training
//! checkpoints use ([`acso_core::snapshot`]), written atomically into the
//! `--state-dir` directory.
//!
//! What is stored per handle is deliberately small: the reconstruction
//! parameters (scenario, horizon override, DBN fit size, seed) plus — for
//! `acso` — the exact `ACSOWTS` weight bytes. Everything else the daemon
//! derives deterministically: the DBN refit, the topology, the encoder and
//! the network architecture are all functions of those parameters, so a
//! restored handle serves **bit-identical** `evaluate` responses
//! (`crates/serve/tests` pin this). A torn or truncated snapshot fails the
//! container digest and the daemon falls back to a cold start.

use acso_core::snapshot::{
    push_bytes, push_string, push_u64, SectionReader, Snapshot, SnapshotBuilder, SnapshotError,
};

/// File name of the daemon state snapshot inside `--state-dir`.
pub const STATE_FILE: &str = "serve_state.acsosnap";

/// Everything needed to rebuild one policy handle after a restart.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyRecord {
    /// The versioned handle clients hold (`kind@N`).
    pub handle: String,
    /// Policy kind (`acso`, `dbn_expert`, `playbook`, `semi_random`, `null`).
    pub kind: String,
    /// Display name (matches the offline experiment tables).
    pub name: String,
    /// Artefact format version echoed to clients.
    pub version: u32,
    /// Scenario the policy was loaded against.
    pub scenario: String,
    /// Horizon override from the original `load_policy`, if any.
    pub max_time: Option<u64>,
    /// Random-defender episodes of the DBN fit (refit deterministically).
    pub dbn_episodes: u64,
    /// Seed of the original load (DBN fit, network init).
    pub seed: u64,
    /// `ACSOWTS` weight bytes for `acso` handles; `None` for baselines.
    pub weights: Option<Vec<u8>>,
}

/// The durable slice of an [`crate::service::EvalService`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServeState {
    /// Handle counter: restored so new handles never collide with old ones.
    pub next_policy_id: u64,
    /// One record per loaded policy, in load order.
    pub policies: Vec<PolicyRecord>,
}

/// Serializes the state into a digest-sealed `ACSOSNAP` container.
pub fn encode(state: &ServeState) -> Vec<u8> {
    let mut meta = Vec::new();
    push_u64(&mut meta, state.next_policy_id);

    let mut policies = Vec::new();
    push_u64(&mut policies, state.policies.len() as u64);
    for p in &state.policies {
        push_string(&mut policies, &p.handle);
        push_string(&mut policies, &p.kind);
        push_string(&mut policies, &p.name);
        policies.extend_from_slice(&p.version.to_le_bytes());
        push_string(&mut policies, &p.scenario);
        match p.max_time {
            Some(t) => {
                policies.push(1);
                push_u64(&mut policies, t);
            }
            None => policies.push(0),
        }
        push_u64(&mut policies, p.dbn_episodes);
        push_u64(&mut policies, p.seed);
        match &p.weights {
            Some(bytes) => {
                policies.push(1);
                push_bytes(&mut policies, bytes);
            }
            None => policies.push(0),
        }
    }

    let mut builder = SnapshotBuilder::new();
    builder.section("meta", meta);
    builder.section("policies", policies);
    builder.finish()
}

/// Parses a container written by [`encode`]. The digest is verified before
/// any field is decoded, so torn writes surface as one typed error.
pub fn decode(bytes: &[u8]) -> Result<ServeState, SnapshotError> {
    let snapshot = Snapshot::parse(bytes)?;

    let mut meta = SectionReader::new(snapshot.section("meta")?);
    let next_policy_id = meta.u64()?;
    meta.finish()?;

    let mut r = SectionReader::new(snapshot.section("policies")?);
    // Pushed as they decode: the count must not size an allocation.
    let count = r.u64()? as usize;
    let mut policies = Vec::new();
    for _ in 0..count {
        let handle = r.string()?;
        let kind = r.string()?;
        let name = r.string()?;
        let version = r.u32()?;
        let scenario = r.string()?;
        let max_time = match r.u8()? {
            0 => None,
            1 => Some(r.u64()?),
            other => return Err(SnapshotError::Corrupt(format!("max_time marker {other}"))),
        };
        let dbn_episodes = r.u64()?;
        let seed = r.u64()?;
        let weights = match r.u8()? {
            0 => None,
            1 => Some(r.bytes()?.to_vec()),
            other => return Err(SnapshotError::Corrupt(format!("weights marker {other}"))),
        };
        policies.push(PolicyRecord {
            handle,
            kind,
            name,
            version,
            scenario,
            max_time,
            dbn_episodes,
            seed,
            weights,
        });
    }
    r.finish()?;

    Ok(ServeState {
        next_policy_id,
        policies,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ServeState {
        ServeState {
            next_policy_id: 7,
            policies: vec![
                PolicyRecord {
                    handle: "acso@3".into(),
                    kind: "acso".into(),
                    name: "ACSO".into(),
                    version: 1,
                    scenario: "tiny".into(),
                    max_time: Some(120),
                    dbn_episodes: 2,
                    seed: 11,
                    weights: Some(vec![1, 2, 3, 4, 5]),
                },
                PolicyRecord {
                    handle: "playbook@7".into(),
                    kind: "playbook".into(),
                    name: "Playbook".into(),
                    version: 1,
                    scenario: "small".into(),
                    max_time: None,
                    dbn_episodes: 0,
                    seed: 0,
                    weights: None,
                },
            ],
        }
    }

    #[test]
    fn state_round_trips_exactly() {
        let state = sample();
        assert_eq!(decode(&encode(&state)).unwrap(), state);
        let empty = ServeState::default();
        assert_eq!(decode(&encode(&empty)).unwrap(), empty);
    }

    #[test]
    fn a_policy_count_past_the_section_is_a_typed_error() {
        let mut policies = Vec::new();
        push_u64(&mut policies, u64::MAX);
        let mut builder = SnapshotBuilder::new();
        builder.section("meta", 7u64.to_le_bytes().to_vec());
        builder.section("policies", policies);
        let err = decode(&builder.finish()).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt(_)), "{err}");
    }

    #[test]
    fn truncation_anywhere_is_detected() {
        let bytes = encode(&sample());
        for keep in [0, 10, 24, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                decode(&bytes[..keep]).is_err(),
                "truncation to {keep} bytes must not decode"
            );
        }
    }
}
