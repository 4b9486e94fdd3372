//! Process and machine readings (`/proc`, `/sys`) and sample statistics.

use std::fs;

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").map_or(f64::NAN, |kb| kb / 1024.0)
}

fn status_kb(key: &str) -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// User plus system CPU seconds consumed by every thread of this process.
/// `/proc/self/stat` counts in `USER_HZ` ticks, which Linux fixes at 100.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return f64::NAN;
    };
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok());
    match (tick(11), tick(12)) {
        (Some(u), Some(s)) => (u + s) / 100.0,
        _ => f64::NAN,
    }
}

/// The CPU model string of the first processor.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Size of CPU 0's unified level-2 cache in bytes.
pub fn l2_bytes() -> Option<u64> {
    let base = "/sys/devices/system/cpu/cpu0/cache";
    for entry in fs::read_dir(base).ok()?.flatten() {
        let dir = entry.path();
        let read = |f: &str| {
            fs::read_to_string(dir.join(f))
                .ok()
                .map(|s| s.trim().to_string())
        };
        if read("level").as_deref() == Some("2") {
            let size = read("size")?;
            let (digits, unit) = size.split_at(size.trim_end_matches(char::is_alphabetic).len());
            let n: u64 = digits.parse().ok()?;
            return Some(match unit {
                "K" => n << 10,
                "M" => n << 20,
                _ => n,
            });
        }
    }
    None
}

/// Median of a sample (NaN when empty).
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Mean of a sample (0 when empty: a layer the workload never called).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Highest percentile [`tail`] reports. On a shared 2-core VM the p97–p99 of
/// a run's decisions or updates is set by how many short stalls the run
/// happened to meet (ten-run spreads of 0.35–0.40), while p90 follows the
/// code.
const TAIL_CAP: f64 = 0.90;

/// The tail of a sample: the highest percentile that still has at least ten
/// samples beyond it, capped at [`TAIL_CAP`]. Returns `(value, percentile)`;
/// `None` when fewer than eleven samples exist.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n < 11 {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let k = (n - 11).min((n as f64 * TAIL_CAP).ceil() as usize - 1);
    Some((v[k], 100.0 * (k + 1) as f64 / n as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let (value, pct) = tail(&samples).unwrap();
        assert_eq!(value, 90.0);
        assert_eq!(samples.iter().filter(|s| **s > value).count(), 10);
        assert!((pct - 90.0).abs() < 1e-12);
        assert!(tail(&samples[..10]).is_none());
        let long: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&long), Some((9_000.0, 90.0)));
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn process_readings_are_positive() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
    }
}
