//! The ACSO-defended step, benchmarked end to end and per crate.
//!
//! ```text
//! cargo run --release --offline --locked --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload eval-paper --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Each workload calls the crates' public entry points for `--seconds`,
//! checks their outputs, and prints one JSON line last on stdout:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer ones from a traced replay
//! of the same seeds. See `perfbench/README.md` for the workloads, the
//! metric definitions and the predictions they are meant to test.

mod eval;
mod layers;
mod serve;
mod setup;
mod sys;
mod trace;
mod train;

use acso_serve::json::JsonValue;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// The benchmark's definition: workloads and metric tables.
const SPEC: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every end-to-end metric (untraced runs) or per-layer
/// metric (traced runs), in `BENCHMARK.json` order. A per-layer metric of a
/// layer the workload never calls reads 0.
fn metric_table(trace: bool) -> Vec<(String, String)> {
    let spec = JsonValue::parse(SPEC).expect("BENCHMARK.json is valid JSON");
    let field = |m: &JsonValue, key: &str| {
        m.get(key)
            .and_then(JsonValue::as_str)
            .expect("every BENCHMARK.json metric has a name and a unit")
            .to_string()
    };
    spec.get(if trace { "per_layer" } else { "end_to_end" })
        .and_then(JsonValue::as_arr)
        .expect("BENCHMARK.json lists both metric tables")
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

/// Stage spans must cover at least this share of each traced step, update
/// and request.
pub const MIN_COVERAGE: f64 = 0.95;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed; every input derives from it.
    pub seed: u64,
    /// Length of the timed region.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (episodes, updates, requests, checks).
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Metric values by name (end-to-end or per-layer, by run kind).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Everything else worth keeping: plan, sample counts, percentiles.
    pub details: Vec<(String, JsonValue)>,
    /// The merged spans of the traced run.
    pub trace: Option<trace::Trace>,
}

impl Report {
    /// Records a detail for the run record.
    pub fn detail(&mut self, key: &str, value: JsonValue) {
        self.details.push((key.to_string(), value));
    }

    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// A JSON object from pairs.
pub fn obj(pairs: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Kernel backend of each workload. Training runs on `simd` too: on the
/// `reference` backend its update time swung by up to 1.7× between
/// consecutive runs of the same seed (README, "Run-to-run spread").
fn backend_of(workload: &str) -> Option<&'static str> {
    match workload {
        "eval-paper" | "eval-xl" | "train-small" => Some("simd"),
        "serve-mixed" => Some("reference"),
        _ => None,
    }
}

fn fingerprint(backend: &str) -> JsonValue {
    let simd = neural::backend::SimdBackend::new();
    let feature = |f: bool| JsonValue::Bool(f);
    obj(vec![
        (
            "cores",
            JsonValue::num(acso_runtime::detected_cores() as f64),
        ),
        ("cpu_model", JsonValue::str(sys::cpu_model())),
        ("avx2", feature(std::arch::is_x86_feature_detected!("avx2"))),
        ("fma", feature(std::arch::is_x86_feature_detected!("fma"))),
        ("simd_avx2_active", feature(simd.avx2_active())),
        (
            "l2_bytes",
            sys::l2_bytes().map_or(JsonValue::Null, |b| JsonValue::num(b as f64)),
        ),
        ("backend", JsonValue::str(backend)),
        ("toolchain", JsonValue::str(env!("PERFBENCH_RUSTC"))),
        ("commit", JsonValue::str(env!("PERFBENCH_COMMIT"))),
        (
            "source_digest",
            JsonValue::str(env!("PERFBENCH_SOURCE_DIGEST")),
        ),
    ])
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(backend) = backend_of(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload `{}` (eval-paper, eval-xl, train-small, serve-mixed)",
            args.workload
        );
        return ExitCode::from(2);
    };
    // Overrides change plans and backends; a number measured under one must
    // never be compared with one measured without it.
    let overrides: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("ACSO_"))
        .collect();
    if !overrides.is_empty() {
        eprintln!(
            "perfbench: refusing to run with overrides set: {}",
            overrides.join(", ")
        );
        return ExitCode::from(2);
    }
    if backend == "simd" && !neural::backend::SimdBackend::new().avx2_active() {
        eprintln!(
            "perfbench: {} needs AVX2/FMA; the SIMD backend would fall back to scalar code",
            args.workload
        );
        return ExitCode::from(2);
    }
    neural::backend::set_default_backend(
        neural::backend::backend_by_name(backend).expect("the simd backend is compiled in"),
    );

    let report = match args.workload.as_str() {
        "eval-paper" => eval::run(&eval::PAPER, &args),
        "eval-xl" => eval::run(&eval::XL, &args),
        "train-small" => train::run(&args),
        _ => serve::run(&args),
    };

    if let Some(&coverage) = report.metrics.get("perfbench.coverage") {
        if coverage < MIN_COVERAGE {
            eprintln!(
                "perfbench: stage spans cover {:.1}% of {}'s traced time, below {:.0}%; no partial breakdown is printed",
                coverage * 100.0,
                args.workload,
                MIN_COVERAGE * 100.0
            );
            return ExitCode::from(3);
        }
    }

    let known: Vec<String> = metric_table(false)
        .into_iter()
        .chain(metric_table(true))
        .map(|(n, _)| n)
        .collect();
    if let Some(stray) = report
        .metrics
        .keys()
        .find(|k| !known.iter().any(|n| n == *k))
    {
        eprintln!("perfbench: metric `{stray}` is not defined in BENCHMARK.json");
        return ExitCode::from(1);
    }
    let table = metric_table(args.trace);
    let mut metrics = Vec::with_capacity(table.len());
    let mut finite = true;
    for (name, unit) in table {
        let value = report.metrics.get(name.as_str()).copied().unwrap_or(0.0);
        finite &= value.is_finite();
        metrics.push((
            name,
            obj(vec![
                ("value", JsonValue::num(value)),
                ("unit", JsonValue::str(unit)),
            ]),
        ));
    }
    let correct = finite && report.failed == 0;
    let result = obj(vec![
        ("correct", JsonValue::Bool(correct)),
        ("attempted", JsonValue::num(report.attempted as f64)),
        ("failed", JsonValue::num(report.failed as f64)),
        ("metrics", JsonValue::Obj(metrics)),
    ]);

    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let out = setup::out_dir();
    let mut record = vec![
        ("workload", JsonValue::str(&args.workload)),
        ("seed", JsonValue::num(args.seed as f64)),
        ("seconds", JsonValue::num(args.seconds)),
        ("fingerprint", fingerprint(backend)),
        ("result", result.clone()),
    ];
    let details = JsonValue::Obj(report.details);
    record.push(("details", details));
    if let Some(trace) = &report.trace {
        let path = out.join(format!("{stem}.spans.tsv"));
        if let Err(e) = trace.write_tsv(&path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::from(1);
        }
    }
    let path = out.join(format!("{stem}.json"));
    if let Err(e) = std::fs::write(&path, format!("{}\n", obj(record))) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
        return ExitCode::from(1);
    }
    eprintln!("perfbench: run record written to {}", path.display());
    println!("{result}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_tables_come_from_benchmark_json() {
        let end_to_end = metric_table(false);
        let per_layer = metric_table(true);
        assert!(end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));
        assert!(per_layer.iter().any(|(n, _)| n == "perfbench.coverage"));
        let mut names: Vec<&String> = end_to_end
            .iter()
            .chain(&per_layer)
            .map(|(n, _)| n)
            .collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), end_to_end.len() + per_layer.len());
    }
}
