//! Versioned checkpoint/restore: the `ACSOSNAP` container.
//!
//! A checkpoint captures *everything* a training run needs to resume
//! bit-identically: both Q-networks (the target lags the online net), the
//! Adam moment vectors, the replay ring with its sum-tree leaf priorities,
//! the feature arena (contents, reference counts and free list — slot order
//! is load-bearing because transitions hold arena indices), the pending
//! n-step window, the schedule positions and step counters, and the exact
//! exploration-RNG stream position. `tests/resume_determinism.rs` pins the
//! contract: *train 2N episodes* and *train N, checkpoint, kill, restore,
//! train N* produce byte-identical weights and transcripts.
//!
//! The container extends the `ACSOWTS` idiom of [`crate::agent::io`]: a
//! magic, a format version, then a table of tagged sections, and — new here —
//! a trailing FNV-1a digest of everything before it, so a torn write (power
//! loss mid-`rename`, truncated copy) is detected up front and reported as
//! [`SnapshotError::DigestMismatch`] rather than decoded into garbage.
//!
//! Writers never update a snapshot in place: [`write_atomic`] writes a
//! sibling temporary file and `rename`s it over the destination, so readers
//! observe either the old snapshot or the new one, never a mix.

use crate::agent::{io as weights_io, AcsoAgent, QNetwork};
use crate::features::StateFeatures;
use crate::train::TrainReport;
use neural::Matrix;
use rl::{FeatureArena, FeatureId, NStepTransition, PrioritizedReplay, Transition};
use std::path::Path;

/// Magic bytes opening every snapshot container.
pub const MAGIC: &[u8; 8] = b"ACSOSNAP";

/// Version of the container format this build reads and writes.
pub const FORMAT_VERSION: u32 = 1;

/// FNV-1a 64-bit hash — the digest sealing a snapshot, and the fingerprint
/// primitive the determinism harnesses (golden tests, the soak bin) use to
/// compare run outcomes.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Why a snapshot could not be parsed or applied.
#[derive(Debug)]
pub enum SnapshotError {
    /// The file does not start with [`MAGIC`]; both found and expected bytes
    /// are reported.
    BadMagic {
        /// The first eight bytes actually present.
        found: [u8; 8],
    },
    /// The container version is not one this build reads.
    UnsupportedVersion {
        /// The version field actually present.
        found: u32,
    },
    /// The file is shorter than the fixed header + digest.
    Truncated {
        /// Bytes actually present.
        len: usize,
    },
    /// The trailing digest does not match the contents — a torn or corrupted
    /// write.
    DigestMismatch {
        /// Digest recomputed over the contents.
        computed: u64,
        /// Digest stored in the trailer.
        stored: u64,
    },
    /// A section the decoder needs is absent.
    MissingSection(&'static str),
    /// A section decoded inconsistently (shapes, counts or invariants).
    Corrupt(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic { found } => write!(
                f,
                "not an ACSOSNAP snapshot: magic bytes {found:02x?}, expected {MAGIC:02x?}"
            ),
            SnapshotError::UnsupportedVersion { found } => write!(
                f,
                "unsupported snapshot version {found}, expected {FORMAT_VERSION}"
            ),
            SnapshotError::Truncated { len } => {
                write!(f, "snapshot truncated: {len} bytes is too short")
            }
            SnapshotError::DigestMismatch { computed, stored } => write!(
                f,
                "snapshot digest mismatch: contents hash to {computed:016x} \
                 but the trailer says {stored:016x} (torn or corrupt write)"
            ),
            SnapshotError::MissingSection(tag) => {
                write!(f, "snapshot is missing its `{tag}` section")
            }
            SnapshotError::Corrupt(why) => write!(f, "snapshot is corrupt: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<SnapshotError> for std::io::Error {
    fn from(e: SnapshotError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
    }
}

fn corrupt<T>(why: impl Into<String>) -> Result<T, SnapshotError> {
    Err(SnapshotError::Corrupt(why.into()))
}

fn tag_bytes(tag: &str) -> [u8; 8] {
    let mut out = [0u8; 8];
    assert!(tag.len() <= 8, "section tag `{tag}` longer than 8 bytes");
    out[..tag.len()].copy_from_slice(tag.as_bytes());
    out
}

/// Assembles an `ACSOSNAP` container: tagged sections in insertion order,
/// sealed by the trailing digest.
#[derive(Debug, Default)]
pub struct SnapshotBuilder {
    sections: Vec<([u8; 8], Vec<u8>)>,
}

impl SnapshotBuilder {
    /// An empty container.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one section. Tags are at most 8 bytes (zero-padded on disk).
    pub fn section(&mut self, tag: &str, payload: Vec<u8>) -> &mut Self {
        self.sections.push((tag_bytes(tag), payload));
        self
    }

    /// Serializes the container: magic, version, section count, sections
    /// (`tag[8] len[u64 LE] payload`), then the FNV-1a digest of everything
    /// preceding it.
    pub fn finish(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        for (tag, payload) in &self.sections {
            out.extend_from_slice(tag);
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(payload);
        }
        let digest = fnv1a64(&out);
        out.extend_from_slice(&digest.to_le_bytes());
        out
    }
}

/// A parsed `ACSOSNAP` container: the digest has been verified and the
/// section table indexed.
#[derive(Debug)]
pub struct Snapshot<'a> {
    sections: Vec<([u8; 8], &'a [u8])>,
}

impl<'a> Snapshot<'a> {
    /// Parses and verifies a container. The digest check runs first, so any
    /// torn or truncated write surfaces as one typed error before section
    /// decoding begins.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, SnapshotError> {
        if bytes.len() < 24 {
            return Err(SnapshotError::Truncated { len: bytes.len() });
        }
        let (contents, trailer) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(trailer.try_into().unwrap());
        let computed = fnv1a64(contents);
        if computed != stored {
            return Err(SnapshotError::DigestMismatch { computed, stored });
        }
        if &contents[..8] != MAGIC {
            return Err(SnapshotError::BadMagic {
                found: contents[..8].try_into().unwrap(),
            });
        }
        let version = u32::from_le_bytes(contents[8..12].try_into().unwrap());
        if version != FORMAT_VERSION {
            return Err(SnapshotError::UnsupportedVersion { found: version });
        }
        // Sections are pushed as they decode: the count comes from the
        // input, so it must not size an allocation.
        let count = u32::from_le_bytes(contents[12..16].try_into().unwrap()) as usize;
        let mut sections = Vec::new();
        let mut at = 16;
        for _ in 0..count {
            if contents.len() - at < 16 {
                return corrupt("section header overruns the container");
            }
            let tag: [u8; 8] = contents[at..at + 8].try_into().unwrap();
            let len = u64::from_le_bytes(contents[at + 8..at + 16].try_into().unwrap()) as usize;
            at += 16;
            if contents.len() - at < len {
                return corrupt("section payload overruns the container");
            }
            sections.push((tag, &contents[at..at + len]));
            at += len;
        }
        if at != contents.len() {
            return corrupt("trailing bytes after the last section");
        }
        Ok(Self { sections })
    }

    /// The payload of the section with `tag`.
    pub fn section(&self, tag: &'static str) -> Result<&'a [u8], SnapshotError> {
        let wanted = tag_bytes(tag);
        self.sections
            .iter()
            .find(|(t, _)| *t == wanted)
            .map(|(_, payload)| *payload)
            .ok_or(SnapshotError::MissingSection(tag))
    }
}

/// Writes `bytes` to `path` atomically: the contents land in a sibling
/// `.tmp` file first and are `rename`d over the destination, so a reader (or
/// a crash) never observes a half-written snapshot.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

// ---------------------------------------------------------------------------
// Payload codec primitives. Public: other layers (the serve daemon's state
// snapshots, the soak harness) encode their own sections with the same
// little-endian conventions.

/// Bounds-checked cursor over a section payload. Every read names the offset
/// in its error so a truncated or mis-versioned section is diagnosable.
///
/// A count read from a section says how many elements follow, not how much
/// memory the input backs: decoders push elements as they decode them and
/// never pre-allocate from a count, so a corrupt count fails as a truncated
/// section instead of an allocation the process cannot survive.
pub struct SectionReader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> SectionReader<'a> {
    /// Starts reading at the beginning of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, at: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    /// Consumes exactly `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.bytes.len() - self.at < n {
            return corrupt(format!(
                "section truncated: wanted {n} bytes at offset {}, have {}",
                self.at,
                self.bytes.len() - self.at
            ));
        }
        let out = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an `f32` stored as its raw bits (bit-exact round trip).
    pub fn f32(&mut self) -> Result<f32, SnapshotError> {
        Ok(f32::from_bits(self.u32()?))
    }

    /// Reads an `f64` stored as its raw bits (bit-exact round trip).
    pub fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed byte string (see [`push_bytes`]).
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let len = self.u64()? as usize;
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string (see [`push_string`]).
    pub fn string(&mut self) -> Result<String, SnapshotError> {
        let bytes = self.bytes()?;
        String::from_utf8(bytes.to_vec()).map_err(|e| SnapshotError::Corrupt(e.to_string()))
    }

    /// Asserts the payload was consumed exactly.
    pub fn finish(self) -> Result<(), SnapshotError> {
        if self.at != self.bytes.len() {
            return corrupt(format!(
                "{} trailing bytes after section contents",
                self.bytes.len() - self.at
            ));
        }
        Ok(())
    }
}

/// Appends a little-endian `u32`.
pub fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as its raw bits (bit-exact round trip).
pub fn push_f64(out: &mut Vec<u8>, v: f64) {
    push_u64(out, v.to_bits());
}

/// Appends a length-prefixed byte string.
pub fn push_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    push_u64(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// Appends a length-prefixed UTF-8 string.
pub fn push_string(out: &mut Vec<u8>, s: &str) {
    push_bytes(out, s.as_bytes());
}

fn push_matrix(out: &mut Vec<u8>, m: &Matrix) {
    push_u32(out, m.rows() as u32);
    push_u32(out, m.cols() as u32);
    for &x in m.data() {
        push_u32(out, x.to_bits());
    }
}

fn read_matrix(c: &mut SectionReader<'_>) -> Result<Matrix, SnapshotError> {
    let rows = c.u32()? as usize;
    let cols = c.u32()? as usize;
    // The shape must fit in the bytes left before anything is allocated.
    let len = rows
        .checked_mul(cols)
        .filter(|&len| len <= c.remaining() / 4)
        .ok_or_else(|| {
            SnapshotError::Corrupt(format!(
                "a {rows}x{cols} matrix overruns the {} bytes left in its section",
                c.remaining()
            ))
        })?;
    let mut data = vec![0.0f32; len];
    for x in &mut data {
        *x = c.f32()?;
    }
    Ok(Matrix::from_vec(rows, cols, data))
}

fn push_index_list(out: &mut Vec<u8>, list: &[usize]) {
    push_u32(out, list.len() as u32);
    for &i in list {
        push_u32(out, i as u32);
    }
}

fn read_index_list(c: &mut SectionReader<'_>) -> Result<Vec<usize>, SnapshotError> {
    let count = c.u32()? as usize;
    let mut out = Vec::new();
    for _ in 0..count {
        out.push(c.u32()? as usize);
    }
    Ok(out)
}

fn push_features(out: &mut Vec<u8>, f: &StateFeatures) {
    push_matrix(out, &f.nodes);
    push_matrix(out, &f.plcs);
    push_matrix(out, &f.plc_summary);
    push_index_list(out, &f.host_rows);
    push_index_list(out, &f.server_rows);
}

fn read_features(c: &mut SectionReader<'_>) -> Result<StateFeatures, SnapshotError> {
    Ok(StateFeatures {
        nodes: read_matrix(c)?,
        plcs: read_matrix(c)?,
        plc_summary: read_matrix(c)?,
        host_rows: read_index_list(c)?,
        server_rows: read_index_list(c)?,
    })
}

// ---------------------------------------------------------------------------
// Training checkpoint.

/// Section tags of a training checkpoint (one place, so the encoder, the
/// decoder and the docs cannot drift apart).
mod tags {
    pub const ONLINE: &str = "online";
    pub const TARGET: &str = "target";
    pub const OPTIM: &str = "optim";
    pub const TRAINER: &str = "trainer";
    pub const RNG: &str = "rng";
    pub const ARENA: &str = "arena";
    pub const REPLAY: &str = "replay";
    pub const NSTEP: &str = "nstep";
    pub const PROGRESS: &str = "progress";
}

/// Serializes a full training checkpoint of `agent` (both networks, Adam
/// state, replay ring + arena, schedules, RNG position) plus the partial
/// training `report` accumulated so far. Call at an episode boundary (after
/// [`AcsoAgent::end_episode`]): the environment itself is *not* captured —
/// each episode rebuilds it from `episode_seed(seed, index)`, and the belief
/// filter resets at `begin_episode` — so the boundary is the point where the
/// remaining state is exactly what this snapshot holds.
pub fn encode_train_checkpoint<N: QNetwork + Clone>(
    agent: &mut AcsoAgent<N>,
    report: &TrainReport,
) -> Vec<u8> {
    let mut builder = SnapshotBuilder::new();

    let mut online = Vec::new();
    weights_io::save_weights_to(agent.network_mut(), &mut online)
        .expect("writing weights to a Vec cannot fail");
    builder.section(tags::ONLINE, online);

    let mut target = Vec::new();
    agent.save_target_weights(&mut target);
    builder.section(tags::TARGET, target);

    builder.section(tags::OPTIM, agent.optimizer().state_bytes());

    let counters = agent.trainer().counters();
    let mut buf = Vec::new();
    push_f64(&mut buf, counters.epsilon_current);
    push_u64(&mut buf, counters.beta_current_step);
    push_u64(&mut buf, counters.env_steps);
    push_u64(&mut buf, counters.updates);
    push_u64(&mut buf, counters.updates_since_sync);
    builder.section(tags::TRAINER, buf);

    let mut buf = Vec::new();
    for word in agent.rng_state() {
        push_u64(&mut buf, word);
    }
    builder.section(tags::RNG, buf);

    let (slots, refs, free) = agent.trainer().arena().parts();
    let mut buf = Vec::new();
    push_u32(&mut buf, slots.len() as u32);
    for slot in slots {
        match slot {
            Some(features) => {
                buf.push(1);
                push_features(&mut buf, features);
            }
            None => buf.push(0),
        }
    }
    for &r in refs {
        push_u32(&mut buf, r);
    }
    push_u32(&mut buf, free.len() as u32);
    for &f in free {
        push_u32(&mut buf, f);
    }
    builder.section(tags::ARENA, buf);

    let replay = agent.trainer().replay();
    let mut buf = Vec::new();
    push_f64(&mut buf, replay.alpha());
    push_u32(&mut buf, replay.capacity() as u32);
    push_u32(&mut buf, replay.next_slot() as u32);
    push_u32(&mut buf, replay.len() as u32);
    push_f64(&mut buf, replay.max_priority());
    for index in 0..replay.capacity() {
        push_f64(&mut buf, replay.leaf_priority(index));
        match replay.slot(index) {
            Some(t) => {
                buf.push(1);
                push_u32(&mut buf, t.state.index() as u32);
                push_u32(&mut buf, t.action as u32);
                push_f64(&mut buf, t.return_n);
                push_u32(&mut buf, t.final_state.index() as u32);
                buf.push(u8::from(t.done));
                push_u32(&mut buf, t.steps as u32);
            }
            None => buf.push(0),
        }
    }
    builder.section(tags::REPLAY, buf);

    let window: Vec<&Transition<FeatureId>> = agent.trainer().nstep_window().collect();
    let mut buf = Vec::new();
    push_u32(&mut buf, window.len() as u32);
    for t in window {
        push_u32(&mut buf, t.state.index() as u32);
        push_u32(&mut buf, t.action as u32);
        push_f64(&mut buf, t.reward);
        push_u32(&mut buf, t.next_state.index() as u32);
        buf.push(u8::from(t.done));
    }
    builder.section(tags::NSTEP, buf);

    let mut buf = Vec::new();
    push_u32(&mut buf, report.episode_returns.len() as u32);
    for &r in &report.episode_returns {
        push_f64(&mut buf, r);
    }
    push_u32(&mut buf, report.episode_losses.len() as u32);
    for &l in &report.episode_losses {
        push_u32(&mut buf, l.to_bits());
    }
    builder.section(tags::PROGRESS, buf);

    builder.finish()
}

/// Applies a training checkpoint to an agent freshly constructed with the
/// *same* configuration, network architecture and topology as the saved run,
/// and returns the partial [`TrainReport`] the checkpoint carried. On error
/// the agent is left untouched (all sections decode into locals before
/// anything is applied), so a corrupt checkpoint can degrade to a cold start.
pub fn decode_train_checkpoint<N: QNetwork + Clone>(
    agent: &mut AcsoAgent<N>,
    bytes: &[u8],
) -> Result<TrainReport, SnapshotError> {
    let snapshot = Snapshot::parse(bytes)?;

    // Decode every section into locals first.
    let mut online = agent.network_mut().clone();
    weights_io::load_weights_from(&mut online, &mut snapshot.section(tags::ONLINE)?)
        .map_err(|e| SnapshotError::Corrupt(format!("online weights: {e}")))?;
    let mut target = agent.network_mut().clone();
    weights_io::load_weights_from(&mut target, &mut snapshot.section(tags::TARGET)?)
        .map_err(|e| SnapshotError::Corrupt(format!("target weights: {e}")))?;

    let mut optimizer = agent.optimizer().clone();
    optimizer
        .restore_state(snapshot.section(tags::OPTIM)?)
        .map_err(|e| SnapshotError::Corrupt(e.to_string()))?;

    let mut c = SectionReader::new(snapshot.section(tags::TRAINER)?);
    let counters = rl::TrainerCounters {
        epsilon_current: c.f64()?,
        beta_current_step: c.u64()?,
        env_steps: c.u64()?,
        updates: c.u64()?,
        updates_since_sync: c.u64()?,
    };
    c.finish()?;
    if !(0.0..=1.0).contains(&counters.epsilon_current) {
        return corrupt(format!(
            "epsilon {} outside [0, 1]",
            counters.epsilon_current
        ));
    }

    let mut c = SectionReader::new(snapshot.section(tags::RNG)?);
    let rng_state = [c.u64()?, c.u64()?, c.u64()?, c.u64()?];
    c.finish()?;

    let mut c = SectionReader::new(snapshot.section(tags::ARENA)?);
    let slot_count = c.u32()? as usize;
    let mut slots = Vec::new();
    for _ in 0..slot_count {
        slots.push(match c.u8()? {
            0 => None,
            1 => Some(read_features(&mut c)?),
            other => return corrupt(format!("arena slot marker {other}")),
        });
    }
    let mut refs = Vec::new();
    for _ in 0..slot_count {
        refs.push(c.u32()?);
    }
    let free_count = c.u32()? as usize;
    let mut free = Vec::new();
    for _ in 0..free_count {
        free.push(c.u32()?);
    }
    c.finish()?;
    let arena = FeatureArena::from_parts(slots, refs, free).map_err(SnapshotError::Corrupt)?;

    let mut c = SectionReader::new(snapshot.section(tags::REPLAY)?);
    let alpha = c.f64()?;
    let capacity = c.u32()? as usize;
    let next_slot = c.u32()? as usize;
    let len = c.u32()? as usize;
    let max_priority = c.f64()?;
    let mut items = Vec::new();
    let mut leaves = Vec::new();
    for _ in 0..capacity {
        leaves.push(c.f64()?);
        items.push(match c.u8()? {
            0 => None,
            1 => {
                let state = FeatureId::from_index(c.u32()? as usize);
                let action = c.u32()? as usize;
                let return_n = c.f64()?;
                let final_state = FeatureId::from_index(c.u32()? as usize);
                let done = c.u8()? != 0;
                let steps = c.u32()? as usize;
                Some(NStepTransition {
                    state,
                    action,
                    return_n,
                    final_state,
                    done,
                    steps,
                })
            }
            other => return corrupt(format!("replay slot marker {other}")),
        });
    }
    c.finish()?;
    let replay = PrioritizedReplay::from_parts(alpha, items, &leaves, next_slot, len, max_priority)
        .map_err(SnapshotError::Corrupt)?;

    let mut c = SectionReader::new(snapshot.section(tags::NSTEP)?);
    let window_len = c.u32()? as usize;
    let mut window = Vec::new();
    for _ in 0..window_len {
        window.push(Transition {
            state: FeatureId::from_index(c.u32()? as usize),
            action: c.u32()? as usize,
            reward: c.f64()?,
            next_state: FeatureId::from_index(c.u32()? as usize),
            done: c.u8()? != 0,
        });
    }
    c.finish()?;

    let mut c = SectionReader::new(snapshot.section(tags::PROGRESS)?);
    let returns_len = c.u32()? as usize;
    let mut episode_returns = Vec::new();
    for _ in 0..returns_len {
        episode_returns.push(c.f64()?);
    }
    let losses_len = c.u32()? as usize;
    let mut episode_losses = Vec::new();
    for _ in 0..losses_len {
        episode_losses.push(f32::from_bits(c.u32()?));
    }
    c.finish()?;

    // Everything decoded — apply.
    agent
        .trainer_mut()
        .restore(arena, replay, window, counters)
        .map_err(SnapshotError::Corrupt)?;
    *agent.network_mut() = online;
    agent.replace_target(target);
    *agent.optimizer_mut() = optimizer;
    agent.restore_rng_state(rng_state);

    Ok(TrainReport {
        episode_returns,
        episode_losses,
        env_steps: counters.env_steps,
        updates: counters.updates,
    })
}

/// Run-progress counters read straight out of a checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrainProgress {
    /// Environment steps the checkpointed run had consumed.
    pub env_steps: u64,
    /// Gradient updates the checkpointed run had applied.
    pub updates: u64,
    /// Training episodes the checkpoint covers.
    pub episodes: usize,
}

/// Reads a checkpoint's progress counters without constructing an agent.
///
/// Schedulers (the soak harness, a resume planner) often only need to know
/// *how far* a checkpoint got — decoding the full replay ring and both
/// networks for that would cost a DBN fit and megabytes of copying. This
/// verifies the container digest and decodes just the counter and progress
/// sections.
pub fn peek_train_progress(bytes: &[u8]) -> Result<TrainProgress, SnapshotError> {
    let snapshot = Snapshot::parse(bytes)?;
    let mut c = SectionReader::new(snapshot.section(tags::TRAINER)?);
    let _epsilon = c.f64()?;
    let _beta = c.u64()?;
    let env_steps = c.u64()?;
    let updates = c.u64()?;
    let _sync = c.u64()?;
    c.finish()?;
    let mut c = SectionReader::new(snapshot.section(tags::PROGRESS)?);
    let episodes = c.u32()? as usize;
    Ok(TrainProgress {
        env_steps,
        updates,
        episodes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn container_round_trips_sections_in_order() {
        let mut builder = SnapshotBuilder::new();
        builder.section("alpha", vec![1, 2, 3]);
        builder.section("beta", Vec::new());
        let bytes = builder.finish();
        let snapshot = Snapshot::parse(&bytes).unwrap();
        assert_eq!(snapshot.section("alpha").unwrap(), &[1, 2, 3]);
        assert_eq!(snapshot.section("beta").unwrap(), &[] as &[u8]);
        assert!(matches!(
            snapshot.section("gamma").unwrap_err(),
            SnapshotError::MissingSection("gamma")
        ));
    }

    #[test]
    fn torn_writes_fail_the_digest_check_not_the_decoder() {
        let mut builder = SnapshotBuilder::new();
        builder.section("alpha", vec![7; 100]);
        let bytes = builder.finish();
        // Any truncation — even one that leaves a structurally plausible
        // prefix — must surface as a digest mismatch or truncation error.
        for keep in [bytes.len() - 1, bytes.len() - 50, 30, 24] {
            let err = Snapshot::parse(&bytes[..keep]).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::DigestMismatch { .. } | SnapshotError::Truncated { .. }
                ),
                "truncation to {keep} gave {err}"
            );
        }
        // Too short for even the header.
        assert!(matches!(
            Snapshot::parse(&bytes[..10]).unwrap_err(),
            SnapshotError::Truncated { len: 10 }
        ));
        // A flipped content byte is caught by the digest too.
        let mut flipped = bytes.clone();
        flipped[20] ^= 0xFF;
        assert!(matches!(
            Snapshot::parse(&flipped).unwrap_err(),
            SnapshotError::DigestMismatch { .. }
        ));
    }

    #[test]
    fn bad_magic_and_version_are_reported_with_found_and_expected() {
        let mut builder = SnapshotBuilder::new();
        builder.section("alpha", vec![1]);
        let mut bytes = builder.finish();

        // Corrupt the magic, re-seal the digest so the magic check is what
        // fires.
        bytes[0..8].copy_from_slice(b"WRONGMAG");
        reseal(&mut bytes);
        let err = Snapshot::parse(&bytes).unwrap_err();
        assert!(
            err.to_string().contains("57, 52, 4f, 4e, 47, 4d, 41, 47")
                && err.to_string().contains("41, 43, 53, 4f, 53, 4e, 41, 50"),
            "magic error must show found and expected bytes: {err}"
        );

        bytes[0..8].copy_from_slice(MAGIC);
        bytes[8..12].copy_from_slice(&9u32.to_le_bytes());
        reseal(&mut bytes);
        let err = Snapshot::parse(&bytes).unwrap_err();
        assert_eq!(
            err.to_string(),
            "unsupported snapshot version 9, expected 1"
        );
    }

    /// Re-seals a container whose contents were edited, as anyone can: FNV
    /// is a checksum, not a MAC.
    fn reseal(bytes: &mut [u8]) {
        let len = bytes.len();
        let digest = fnv1a64(&bytes[..len - 8]);
        bytes[len - 8..].copy_from_slice(&digest.to_le_bytes());
    }

    #[test]
    fn a_section_count_past_the_input_is_a_typed_error() {
        // Magic, version, a section count of u32::MAX and a valid digest.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0; 8]);
        reseal(&mut bytes);
        assert_eq!(bytes.len(), 24);
        let err = Snapshot::parse(&bytes).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt(_)), "{err}");
    }

    #[test]
    fn a_matrix_shape_past_the_section_is_a_typed_error() {
        for (rows, cols) in [(u32::MAX, u32::MAX), (1 << 31, 2), (3, 1)] {
            let mut bytes = Vec::new();
            push_u32(&mut bytes, rows);
            push_u32(&mut bytes, cols);
            push_u32(&mut bytes, 0);
            let err = read_matrix(&mut SectionReader::new(&bytes)).unwrap_err();
            assert!(matches!(err, SnapshotError::Corrupt(_)), "{err}");
        }
    }

    #[test]
    fn an_arena_slot_count_past_the_section_is_a_typed_error() {
        let config = crate::train::TrainConfig::smoke(1).with_seed(5);
        let mut trained = crate::train::train_attention_acso(&config);
        let bytes = encode_train_checkpoint(&mut trained.agent, &trained.report);
        let cold = || {
            let config = crate::train::TrainConfig::smoke(0).with_seed(5);
            crate::train::train_attention_acso(&config).agent
        };

        // A valid checkpoint still round-trips byte for byte.
        let mut restored = cold();
        let report = decode_train_checkpoint(&mut restored, &bytes).unwrap();
        assert_eq!(encode_train_checkpoint(&mut restored, &report), bytes);

        let mut hostile = bytes.clone();
        let snapshot = Snapshot::parse(&bytes).unwrap();
        let arena = snapshot.section(tags::ARENA).unwrap();
        let at = arena.as_ptr() as usize - bytes.as_ptr() as usize;
        assert!(u32::from_le_bytes(arena[..4].try_into().unwrap()) > 0);
        hostile[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        reseal(&mut hostile);
        let err = decode_train_checkpoint(&mut cold(), &hostile).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt(_)), "{err}");
    }

    #[test]
    fn write_atomic_replaces_the_destination() {
        let dir = std::env::temp_dir().join("acso_snapshot_write_atomic_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.acsosnap");
        write_atomic(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        write_atomic(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        // The temporary never lingers.
        assert!(!dir.join("state.acsosnap.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
