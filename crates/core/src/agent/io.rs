//! Saving and loading trained network weights.
//!
//! A trained defender is only useful if it can be deployed without retraining,
//! so the agent's parameters can be written to a small self-describing binary
//! file (magic, version, per-parameter shapes, little-endian `f32` data) and
//! read back into any network of the same architecture.

use crate::agent::QNetwork;
use neural::Matrix;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"ACSOWTS\0";

/// Version of the on-disk weights format this build reads and writes.
///
/// Serving-layer policy handles echo this number so clients can tell which
/// artefact format a loaded policy round-trips through; bump it only with a
/// migration path for existing weight files.
pub const FORMAT_VERSION: u32 = 1;

const VERSION: u32 = FORMAT_VERSION;

fn write_u32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

/// Serialises every parameter of a network to a writer.
///
/// # Errors
///
/// Returns any I/O error from the underlying writer.
pub fn save_weights_to<W: Write>(network: &mut dyn QNetwork, writer: &mut W) -> io::Result<()> {
    let params = network.params_mut();
    writer.write_all(MAGIC)?;
    write_u32(writer, VERSION)?;
    write_u32(writer, params.len() as u32)?;
    for p in params {
        write_u32(writer, p.value.rows() as u32)?;
        write_u32(writer, p.value.cols() as u32)?;
        for v in p.value.data() {
            writer.write_all(&v.to_le_bytes())?;
        }
    }
    Ok(())
}

/// Restores every parameter of a network from a reader produced by
/// [`save_weights_to`]. The network must have the same architecture (same
/// number of parameters with the same shapes, in the same order).
///
/// # Errors
///
/// Returns an error if the header is unrecognised, the parameter count or any
/// shape differs from the target network, or the underlying reader fails.
pub fn load_weights_from<R: Read>(network: &mut dyn QNetwork, reader: &mut R) -> io::Result<()> {
    let mut magic = [0u8; 8];
    reader.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("not an ACSO weights file: magic bytes {magic:02x?}, expected {MAGIC:02x?}"),
        ));
    }
    let version = read_u32(reader)?;
    if version != VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unsupported weights version {version}, expected {VERSION}"),
        ));
    }
    let count = read_u32(reader)? as usize;
    let mut params = network.params_mut();
    if count != params.len() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "weights file has {count} parameters but the network has {}",
                params.len()
            ),
        ));
    }
    for p in params.iter_mut() {
        let rows = read_u32(reader)? as usize;
        let cols = read_u32(reader)? as usize;
        if (rows, cols) != p.value.shape() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "parameter shape mismatch: file has {rows}x{cols}, network expects {}x{}",
                    p.value.rows(),
                    p.value.cols()
                ),
            ));
        }
        let mut data = vec![0.0f32; rows * cols];
        let mut buf = [0u8; 4];
        for v in &mut data {
            reader.read_exact(&mut buf)?;
            *v = f32::from_le_bytes(buf);
        }
        p.value = Matrix::from_vec(rows, cols, data);
    }
    Ok(())
}

/// Saves a network's weights to a file through a buffered writer, flushed
/// before returning so that a failed write is reported.
///
/// # Errors
///
/// Returns any error from creating or writing the file.
pub fn save_weights<P: AsRef<Path>>(network: &mut dyn QNetwork, path: P) -> io::Result<()> {
    let mut file = BufWriter::new(File::create(path)?);
    save_weights_to(network, &mut file)?;
    file.flush()
}

/// Loads a network's weights from a file written by [`save_weights`],
/// through a buffered reader: the decoder reads only the bytes the
/// network's shapes ask for, so an oversized file is never read whole.
///
/// # Errors
///
/// Returns any error from opening or parsing the file (see
/// [`load_weights_from`]).
pub fn load_weights<P: AsRef<Path>>(network: &mut dyn QNetwork, path: P) -> io::Result<()> {
    let mut file = BufReader::new(File::open(path)?);
    load_weights_from(network, &mut file)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::{AttentionQNet, BaselineConvQNet, SoloQNetwork};
    use crate::features::{NodeFeatureEncoder, StateFeatures};
    use crate::ActionSpace;
    use dbn::learn::{learn_model, LearnConfig};
    use dbn::DbnFilter;
    use ics_sim::{IcsEnvironment, SimConfig};

    fn features() -> (StateFeatures, ActionSpace) {
        let sim = SimConfig::tiny().with_max_time(50);
        let model = learn_model(&LearnConfig {
            episodes: 1,
            seed: 0,
            sim: sim.clone(),
        });
        let mut env = IcsEnvironment::new(sim);
        let obs = env.reset();
        let encoder = NodeFeatureEncoder::new(env.topology());
        let filter = DbnFilter::new(model, env.topology().node_count());
        (
            encoder.encode(&obs, &filter),
            ActionSpace::new(env.topology()),
        )
    }

    #[test]
    fn weights_round_trip_through_a_buffer() {
        let (features, space) = features();
        let mut original = AttentionQNet::new(space.clone(), 13);
        let mut restored = AttentionQNet::new(space, 99);
        let q_original = original.q_values(&features);
        assert_ne!(q_original, restored.q_values(&features));

        let mut buffer = Vec::new();
        save_weights_to(&mut original, &mut buffer).unwrap();
        load_weights_from(&mut restored, &mut buffer.as_slice()).unwrap();

        let q_restored = restored.q_values(&features);
        for (a, b) in q_original.iter().zip(&q_restored) {
            assert!((a - b).abs() < 1e-7);
        }
    }

    #[test]
    fn weights_round_trip_through_a_file() {
        let (features, space) = features();
        let mut original = AttentionQNet::new(space.clone(), 5);
        let path = std::env::temp_dir().join("acso_weights_round_trip_test.bin");
        save_weights(&mut original, &path).unwrap();
        let mut restored = AttentionQNet::new(space, 6);
        load_weights(&mut restored, &path).unwrap();
        assert_eq!(original.q_values(&features), restored.q_values(&features));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn baseline_weights_round_trip_through_buffer_and_file() {
        let (features, space) = features();
        let mut original = BaselineConvQNet::new(space.clone(), 21);
        let q_original = original.q_values(&features);

        // Buffer round trip.
        let mut buffer = Vec::new();
        save_weights_to(&mut original, &mut buffer).unwrap();
        let mut restored = BaselineConvQNet::new(space.clone(), 22);
        assert_ne!(q_original, restored.q_values(&features));
        load_weights_from(&mut restored, &mut buffer.as_slice()).unwrap();
        assert_eq!(q_original, restored.q_values(&features));

        // File round trip.
        let path = std::env::temp_dir().join("acso_baseline_weights_round_trip_test.bin");
        save_weights(&mut original, &path).unwrap();
        let mut from_file = BaselineConvQNet::new(space, 23);
        load_weights(&mut from_file, &path).unwrap();
        assert_eq!(q_original, from_file.q_values(&features));
        let _ = std::fs::remove_file(path);
    }

    /// A write that fails part-way (here: a device with no space left) is
    /// reported, not dropped.
    #[cfg(target_os = "linux")]
    #[test]
    fn save_weights_reports_a_failed_write() {
        let (_, space) = features();
        let mut net = AttentionQNet::new(space, 1);
        assert!(save_weights(&mut net, "/dev/full").is_err());
    }

    /// Golden header test: the on-disk prefix (magic, version, parameter
    /// count) is a compatibility contract — deployed weight files must stay
    /// loadable — so its exact bytes are pinned here for both architectures.
    #[test]
    fn serialized_header_bytes_are_pinned() {
        let (_, space) = features();
        let golden = |count: u32| {
            let mut expected = b"ACSOWTS\0".to_vec();
            expected.extend_from_slice(&1u32.to_le_bytes()); // version
            expected.extend_from_slice(&count.to_le_bytes()); // parameter count
            expected
        };

        // The attention net's 13 weight/bias-carrying stages yield 30
        // parameter tensors; the baseline MLP's 3 dense layers yield 6. The
        // body is the shape table plus the values: 8 bytes of shape and 4
        // bytes per scalar for every parameter.
        let body_len = |net: &mut dyn QNetwork| -> usize {
            net.params_mut().iter().map(|p| 8 + 4 * p.value.len()).sum()
        };

        let mut attention = AttentionQNet::new(space.clone(), 1);
        let mut buffer = Vec::new();
        save_weights_to(&mut attention, &mut buffer).unwrap();
        assert_eq!(&buffer[..16], &golden(30)[..], "attention header changed");
        assert_eq!(buffer.len(), 16 + body_len(&mut attention));

        let mut baseline = BaselineConvQNet::new(space, 1);
        let mut buffer = Vec::new();
        save_weights_to(&mut baseline, &mut buffer).unwrap();
        assert_eq!(&buffer[..16], &golden(6)[..], "baseline header changed");
        assert_eq!(buffer.len(), 16 + body_len(&mut baseline));
    }

    /// The version error names both the found and the expected version: a
    /// node running older code against a newer artefact should be
    /// diagnosable from the message alone. The exact string is pinned.
    #[test]
    fn unsupported_version_is_rejected() {
        let (_, space) = features();
        let mut net = AttentionQNet::new(space, 1);
        let mut buffer = Vec::new();
        save_weights_to(&mut net, &mut buffer).unwrap();
        // Bump the version field (bytes 8..12).
        buffer[8] = 9;
        let err = load_weights_from(&mut net, &mut buffer.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(err.to_string(), "unsupported weights version 9, expected 1");
    }

    #[test]
    fn corrupt_or_mismatched_files_are_rejected() {
        let (_, space) = features();
        let mut net = AttentionQNet::new(space.clone(), 1);

        // Wrong magic: the message shows the bytes found and the bytes
        // expected (pinned — operators diagnose mixed-up artefacts from it).
        let err = load_weights_from(&mut net, &mut &b"NOTRIGHT........"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(
            err.to_string(),
            "not an ACSO weights file: magic bytes [4e, 4f, 54, 52, 49, 47, 48, 54], \
             expected [41, 43, 53, 4f, 57, 54, 53, 00]"
        );

        // Architecture mismatch: weights from the baseline network cannot be
        // loaded into the attention network.
        let mut baseline = BaselineConvQNet::new(space, 2);
        let mut buffer = Vec::new();
        save_weights_to(&mut baseline, &mut buffer).unwrap();
        let err = load_weights_from(&mut net, &mut buffer.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // Truncated file.
        let mut ok_buffer = Vec::new();
        save_weights_to(&mut net, &mut ok_buffer).unwrap();
        ok_buffer.truncate(ok_buffer.len() / 2);
        assert!(load_weights_from(&mut net, &mut ok_buffer.as_slice()).is_err());
    }
}
