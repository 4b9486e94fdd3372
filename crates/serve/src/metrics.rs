//! The daemon's observability registry: counters, gauges and one latency
//! histogram, rendered in the Prometheus text exposition format.
//!
//! The service handles requests on a single thread, so the registry is plain
//! data behind `&mut self` — no atomics, no locks. Everything the `metrics`
//! request returns comes from here, and the same numbers drive the
//! coalescing test's assertion (batch-fill ratio) and the engine
//! utilization gauge.

use crate::json::fmt_num;

/// Histogram bucket upper bounds (seconds) for request latency.
const LATENCY_BUCKETS: [f64; 6] = [0.001, 0.01, 0.1, 1.0, 10.0, f64::INFINITY];

/// A fixed-bucket histogram in Prometheus cumulative form.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    counts: [u64; LATENCY_BUCKETS.len()],
    sum: f64,
    count: u64,
}

impl Histogram {
    /// Records one observation (seconds).
    pub fn observe(&mut self, value: f64) {
        for (i, bound) in LATENCY_BUCKETS.iter().enumerate() {
            if value <= *bound {
                self.counts[i] += 1;
            }
        }
        self.sum += value;
        self.count += 1;
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    fn render(&self, out: &mut String, name: &str) {
        for (i, bound) in LATENCY_BUCKETS.iter().enumerate() {
            let le = if bound.is_infinite() {
                "+Inf".to_string()
            } else {
                fmt_num(*bound)
            };
            out.push_str(&format!(
                "{name}_bucket{{le=\"{le}\"}} {}\n",
                self.counts[i]
            ));
        }
        out.push_str(&format!("{name}_sum {}\n", fmt_num(self.sum)));
        out.push_str(&format!("{name}_count {}\n", self.count));
    }
}

/// A labelled counter family: one monotonically increasing value per label,
/// in first-seen order (so the rendering is deterministic).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CounterFamily {
    entries: Vec<(String, u64)>,
}

impl CounterFamily {
    /// Adds `by` to the counter for `label`, creating it at zero first.
    pub fn add(&mut self, label: &str, by: u64) {
        if let Some((_, v)) = self.entries.iter_mut().find(|(l, _)| l == label) {
            *v += by;
        } else {
            self.entries.push((label.to_string(), by));
        }
    }

    /// Current value for `label` (0 when never incremented).
    pub fn get(&self, label: &str) -> u64 {
        self.entries
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Sum over every label.
    pub fn total(&self) -> u64 {
        self.entries.iter().map(|(_, v)| v).sum()
    }

    fn render(&self, out: &mut String, name: &str, label_key: &str) {
        for (label, value) in &self.entries {
            out.push_str(&format!("{name}{{{label_key}=\"{label}\"}} {value}\n"));
        }
    }
}

/// Every metric the daemon exposes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeMetrics {
    /// Requests handled, by method (parse failures count under `invalid`).
    pub requests: CounterFamily,
    /// Error responses sent, by error code.
    pub errors: CounterFamily,
    /// Evaluation episodes completed.
    pub episodes_total: u64,
    /// Simulation steps consumed by completed episodes.
    pub steps_total: u64,
    /// Lockstep decision rounds run by the batch engine.
    pub batch_rounds_total: u64,
    /// Lane-slots that carried a live episode across all rounds.
    pub batch_filled_slots_total: u64,
    /// Lane-slots available across all rounds (lanes × rounds).
    pub batch_capacity_slots_total: u64,
    /// Per-request wall-clock latency (seconds).
    pub request_latency: Histogram,
    /// Policies currently loaded.
    pub policies_loaded: u64,
    /// Episodes per second of the most recent evaluate batch.
    pub last_episodes_per_sec: f64,
    /// Batch-fill ratio of the most recent evaluate batch.
    pub last_batch_fill_ratio: f64,
    /// Worker-pool utilization of the most recent evaluate batch.
    pub last_engine_utilization: f64,
}

impl ServeMetrics {
    /// A fresh, all-zero registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lifetime batch-fill ratio (filled slots / capacity slots; 1.0 before
    /// any batch has run).
    pub fn batch_fill_ratio(&self) -> f64 {
        if self.batch_capacity_slots_total == 0 {
            1.0
        } else {
            self.batch_filled_slots_total as f64 / self.batch_capacity_slots_total as f64
        }
    }

    /// Renders the whole registry in the Prometheus text exposition format
    /// (version 0.0.4): `# HELP` / `# TYPE` headers followed by samples.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let header = |out: &mut String, name: &str, kind: &str, help: &str| {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
        };

        header(
            &mut out,
            "acso_serve_requests_total",
            "counter",
            "Requests handled, by method.",
        );
        self.requests
            .render(&mut out, "acso_serve_requests_total", "method");

        header(
            &mut out,
            "acso_serve_errors_total",
            "counter",
            "Error responses sent, by code.",
        );
        self.errors
            .render(&mut out, "acso_serve_errors_total", "code");

        header(
            &mut out,
            "acso_serve_episodes_total",
            "counter",
            "Evaluation episodes completed.",
        );
        out.push_str(&format!(
            "acso_serve_episodes_total {}\n",
            self.episodes_total
        ));

        header(
            &mut out,
            "acso_serve_steps_total",
            "counter",
            "Simulation steps consumed by completed episodes.",
        );
        out.push_str(&format!("acso_serve_steps_total {}\n", self.steps_total));

        header(
            &mut out,
            "acso_serve_batch_rounds_total",
            "counter",
            "Lockstep decision rounds run by the batch engine.",
        );
        out.push_str(&format!(
            "acso_serve_batch_rounds_total {}\n",
            self.batch_rounds_total
        ));

        header(
            &mut out,
            "acso_serve_batch_filled_slots_total",
            "counter",
            "Lane-slots that carried a live episode.",
        );
        out.push_str(&format!(
            "acso_serve_batch_filled_slots_total {}\n",
            self.batch_filled_slots_total
        ));

        header(
            &mut out,
            "acso_serve_batch_capacity_slots_total",
            "counter",
            "Lane-slots available (lanes x rounds).",
        );
        out.push_str(&format!(
            "acso_serve_batch_capacity_slots_total {}\n",
            self.batch_capacity_slots_total
        ));

        header(
            &mut out,
            "acso_serve_request_duration_seconds",
            "histogram",
            "Per-request wall-clock latency.",
        );
        self.request_latency
            .render(&mut out, "acso_serve_request_duration_seconds");

        header(
            &mut out,
            "acso_serve_policies_loaded",
            "gauge",
            "Policies currently loaded.",
        );
        out.push_str(&format!(
            "acso_serve_policies_loaded {}\n",
            self.policies_loaded
        ));

        header(
            &mut out,
            "acso_serve_last_episodes_per_sec",
            "gauge",
            "Episode throughput of the most recent evaluate batch.",
        );
        out.push_str(&format!(
            "acso_serve_last_episodes_per_sec {}\n",
            fmt_num(self.last_episodes_per_sec)
        ));

        header(
            &mut out,
            "acso_serve_last_batch_fill_ratio",
            "gauge",
            "Batch-fill ratio of the most recent evaluate batch.",
        );
        out.push_str(&format!(
            "acso_serve_last_batch_fill_ratio {}\n",
            fmt_num(self.last_batch_fill_ratio)
        ));

        header(
            &mut out,
            "acso_serve_last_engine_utilization",
            "gauge",
            "Worker-pool utilization of the most recent evaluate batch.",
        );
        out.push_str(&format!(
            "acso_serve_last_engine_utilization {}\n",
            fmt_num(self.last_engine_utilization)
        ));

        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_cumulative() {
        let mut h = Histogram::default();
        for v in [0.0005, 0.05, 0.05, 2.0, 100.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert!((h.sum() - 102.1005).abs() < 1e-9);
        let mut out = String::new();
        h.render(&mut out, "m");
        assert!(out.contains("m_bucket{le=\"0.001\"} 1\n"));
        assert!(out.contains("m_bucket{le=\"0.1\"} 3\n"));
        assert!(out.contains("m_bucket{le=\"10\"} 4\n"));
        assert!(out.contains("m_bucket{le=\"+Inf\"} 5\n"));
        assert!(out.contains("m_count 5\n"));
    }

    #[test]
    fn counter_families_keep_first_seen_order() {
        let mut c = CounterFamily::default();
        c.add("evaluate", 1);
        c.add("metrics", 1);
        c.add("evaluate", 2);
        assert_eq!(c.get("evaluate"), 3);
        assert_eq!(c.get("unknown"), 0);
        assert_eq!(c.total(), 4);
        let mut out = String::new();
        c.render(&mut out, "reqs", "method");
        assert_eq!(
            out,
            "reqs{method=\"evaluate\"} 3\nreqs{method=\"metrics\"} 1\n"
        );
    }

    #[test]
    fn prometheus_exposition_covers_every_metric() {
        let mut m = ServeMetrics::new();
        m.requests.add("evaluate", 2);
        m.errors.add("unknown_method", 1);
        m.episodes_total = 8;
        m.steps_total = 1200;
        m.batch_rounds_total = 150;
        m.batch_filled_slots_total = 900;
        m.batch_capacity_slots_total = 1200;
        m.request_latency.observe(0.02);
        m.policies_loaded = 1;
        m.last_episodes_per_sec = 42.5;
        m.last_batch_fill_ratio = 0.75;
        m.last_engine_utilization = 1.0;

        assert_eq!(m.batch_fill_ratio(), 0.75);
        let text = m.render_prometheus();
        for needle in [
            "# TYPE acso_serve_requests_total counter",
            "acso_serve_requests_total{method=\"evaluate\"} 2",
            "acso_serve_errors_total{code=\"unknown_method\"} 1",
            "acso_serve_episodes_total 8",
            "acso_serve_steps_total 1200",
            "acso_serve_batch_rounds_total 150",
            "acso_serve_batch_filled_slots_total 900",
            "acso_serve_batch_capacity_slots_total 1200",
            "# TYPE acso_serve_request_duration_seconds histogram",
            "acso_serve_request_duration_seconds_count 1",
            "acso_serve_policies_loaded 1",
            "acso_serve_last_episodes_per_sec 42.5",
            "acso_serve_last_batch_fill_ratio 0.75",
            "acso_serve_last_engine_utilization 1",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
    }

    #[test]
    fn fill_ratio_defaults_to_one_before_any_batch() {
        assert_eq!(ServeMetrics::new().batch_fill_ratio(), 1.0);
    }
}
