//! Shared plumbing for the experiment binaries.
//!
//! Every table and figure of the paper has a corresponding binary in
//! `src/bin/` (see DESIGN.md's per-experiment index); this library holds the
//! command-line scale selection and output formatting they share, plus the
//! [`soak`] invariant-sweep harness behind the `soak` binary.

#![warn(missing_docs)]

pub mod soak;

use acso_core::experiments::ExperimentScale;

/// Which scale an experiment binary should run at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny smoke run (seconds) — sanity check only.
    Smoke,
    /// Reduced run (minutes on a laptop) — the default.
    Quick,
    /// Paper-scale run (full topology, 100 evaluation episodes).
    Paper,
}

impl Scale {
    /// Parses the scale from command-line arguments: `--smoke`, `--quick`
    /// (default) or `--paper` / `--full`.
    pub fn from_args<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut scale = Scale::Quick;
        for arg in args {
            match arg.as_str() {
                "--smoke" => scale = Scale::Smoke,
                "--quick" => scale = Scale::Quick,
                "--paper" | "--full" => scale = Scale::Paper,
                _ => {}
            }
        }
        scale
    }

    /// The experiment scale configuration for this setting.
    pub fn experiment_scale(&self) -> ExperimentScale {
        match self {
            Scale::Smoke => ExperimentScale::smoke(),
            Scale::Quick => ExperimentScale::quick(),
            Scale::Paper => ExperimentScale::paper(),
        }
    }

    /// Human-readable label used in output headers.
    pub fn label(&self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Quick => "quick (reduced)",
            Scale::Paper => "paper",
        }
    }
}

/// Applies the `--batch N` command-line flag: sets the `ACSO_BATCH`
/// environment variable (the switch the evaluation pipeline reads) before
/// any worker threads exist. Returns the lane count now in effect, if any.
pub fn apply_batch_flag<I: IntoIterator<Item = String>>(args: I) -> Option<usize> {
    let args: Vec<String> = args.into_iter().collect();
    if let Some(i) = args.iter().position(|a| a == "--batch") {
        let lanes = args
            .get(i + 1)
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|n| *n > 0)
            .expect("--batch needs a positive lane count");
        std::env::set_var(acso_runtime::BATCH_ENV_VAR, lanes.to_string());
    }
    acso_runtime::batch_lanes()
}

/// Prints the standard experiment header: what is being reproduced, at which
/// scale, over how many rollout worker threads, and at which lane width.
pub fn print_header(artefact: &str, scale: Scale) {
    println!("==========================================================");
    println!("Reproducing {artefact}");
    println!("Scale: {}", scale.label());
    println!(
        "Rollout threads: {} (override with {})",
        acso_runtime::available_threads(),
        acso_runtime::THREADS_ENV_VAR
    );
    match acso_runtime::batch_lanes() {
        Some(lanes) => println!(
            "Lockstep lanes: {lanes} per worker ({}=N / --batch N)",
            acso_runtime::BATCH_ENV_VAR
        ),
        None => println!(
            "Lockstep lanes: autoscaled (several per worker at >= {} nodes or >= {} actions, \
             one below; pin with {}=N or --batch N)",
            acso_runtime::LOCKSTEP_NODE_THRESHOLD,
            acso_runtime::LOCKSTEP_ACTION_THRESHOLD,
            acso_runtime::BATCH_ENV_VAR
        ),
    }
    println!("(Use --smoke / --quick / --paper to change; see EXPERIMENTS.md)");
    println!("==========================================================");
}

/// Formats a mean ± standard-error pair the way the paper's tables do.
pub fn fmt_mean(mean_std: &ics_sim::metrics::MeanStdErr) -> String {
    format!("{:.2} ± {:.2}", mean_std.mean, mean_std.std_err)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing_defaults_to_quick() {
        assert_eq!(Scale::from_args(Vec::<String>::new()), Scale::Quick);
        assert_eq!(Scale::from_args(vec!["--smoke".to_string()]), Scale::Smoke);
        assert_eq!(
            Scale::from_args(vec!["prog".to_string(), "--paper".to_string()]),
            Scale::Paper
        );
        assert_eq!(Scale::from_args(vec!["--full".to_string()]), Scale::Paper);
        assert_eq!(
            Scale::from_args(vec!["--unknown".to_string()]),
            Scale::Quick
        );
    }

    #[test]
    fn scales_map_to_experiment_configurations() {
        assert_eq!(Scale::Smoke.experiment_scale().eval_episodes, 2);
        assert_eq!(Scale::Paper.experiment_scale().eval_episodes, 100);
        assert!(Scale::Quick.experiment_scale().eval_episodes < 100);
        assert_eq!(Scale::Paper.label(), "paper");
    }

    #[test]
    fn mean_formatting() {
        let m = ics_sim::metrics::MeanStdErr {
            mean: 2149.9,
            std_err: 0.2,
        };
        assert_eq!(fmt_mean(&m), "2149.90 ± 0.20");
    }
}
