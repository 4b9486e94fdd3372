//! Evaluates the trained ACSO and the three baselines across the whole
//! scenario registry and prints a per-scenario results table.
//!
//! Usage:
//!
//! ```sh
//! cargo run --release -p acso-bench --bin scenario_sweep -- \
//!     [--smoke|--quick|--paper] [--scenario NAME]... [--toml FILE]... \
//!     [--gen-seed N]... [--out RESULTS.json] [--list]
//! ```
//!
//! * `--scenario NAME` restricts the sweep to the named scenarios;
//! * `--toml FILE` registers an extra scenario from a TOML file;
//! * `--gen-seed N` registers the procedurally generated scenario `seed-N`
//!   (Mersenne-prime hash seed streams — reproducible from the id alone);
//! * `--out FILE` additionally writes the results as JSON;
//! * `--batch N` evaluates with `N` lockstep lanes per worker (same as
//!   setting `ACSO_BATCH=N`);
//! * `--list` prints the registry catalog and exits.
//!
//! At `--smoke` scale the sweep is run once on one thread and then re-run
//! across a (threads, lanes) matrix — (4, planned), (2, 3) and (4, 16) —
//! and the binary fails unless every transcript is bit-identical, which is
//! the determinism contract CI enforces.

use acso_bench::{apply_batch_flag, print_header, Scale};
use acso_core::experiments::{scenario_sweep, ScenarioSweepResult, ScenarioSweepScale};
use acso_core::scenario::ScenarioRegistry;
use ics_sim::Scenario;
use std::fmt::Write as _;

fn sweep_scale(scale: Scale) -> ScenarioSweepScale {
    match scale {
        Scale::Smoke => ScenarioSweepScale::smoke(),
        Scale::Quick => ScenarioSweepScale::quick(),
        Scale::Paper => ScenarioSweepScale::paper(),
    }
}

/// Escapes a string for inclusion in a JSON string literal (names and tags
/// may come from user TOML files).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn results_json(result: &ScenarioSweepResult, threads: usize) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"acso-scenario-sweep/v1\",\n");
    let _ = writeln!(out, "  \"threads\": {threads},");
    out.push_str("  \"scenarios\": [\n");
    for (i, row) in result.rows.iter().enumerate() {
        let tags: Vec<String> = row.tags.iter().map(|t| json_str(t)).collect();
        let _ = writeln!(
            out,
            "    {{\n      \"scenario\": {},\n      \"tags\": [{}],\n      \"policies\": [",
            json_str(&row.scenario),
            tags.join(", ")
        );
        for (j, eval) in row.evaluations.iter().enumerate() {
            let s = &eval.summary;
            let _ = write!(
                out,
                "        {{\"policy\": {}, \"episodes\": {}, \
                 \"discounted_return\": {:.3}, \"discounted_return_stderr\": {:.3}, \
                 \"final_plcs_offline\": {:.3}, \"avg_it_cost\": {:.4}, \
                 \"avg_nodes_compromised\": {:.3}}}",
                json_str(&eval.policy),
                s.episodes,
                s.discounted_return.mean,
                s.discounted_return.std_err,
                s.final_plcs_offline.mean,
                s.average_it_cost.mean,
                s.average_nodes_compromised.mean,
            );
            out.push_str(if j + 1 < row.evaluations.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("      ]\n    }");
        out.push_str(if i + 1 < result.rows.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = Scale::from_args(args.iter().cloned());
    apply_batch_flag(args.iter().cloned());

    let mut registry = ScenarioRegistry::builtin();
    let mut wanted: Vec<String> = Vec::new();
    let mut out_path: Option<String> = None;
    let mut list_only = false;
    let mut i = 0;
    while i < args.len() {
        let next = |i: usize| {
            args.get(i + 1)
                .unwrap_or_else(|| panic!("{} needs a value", args[i]))
                .clone()
        };
        match args[i].as_str() {
            "--scenario" => {
                wanted.push(next(i));
                i += 1;
            }
            "--toml" => {
                let path = next(i);
                let text = std::fs::read_to_string(&path)
                    .unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
                let scenario = Scenario::from_toml(&text)
                    .unwrap_or_else(|e| panic!("cannot parse {path}: {e}"));
                registry
                    .register(scenario)
                    .unwrap_or_else(|e| panic!("cannot register {path}: {e}"));
                i += 1;
            }
            "--gen-seed" => {
                let seed: u64 = next(i).parse().expect("--gen-seed needs a u64");
                registry
                    .register_seeded(seed)
                    .unwrap_or_else(|e| panic!("cannot register seed {seed}: {e}"));
                i += 1;
            }
            "--out" => {
                out_path = Some(next(i));
                i += 1;
            }
            "--list" => list_only = true,
            _ => {}
        }
        i += 1;
    }
    if !wanted.is_empty() {
        registry.retain_named(&wanted);
        assert!(
            !registry.is_empty(),
            "no scenario matched --scenario filters {wanted:?}"
        );
    } else {
        // Extra-large scenarios (tag "xl", ~1000 hosts) only sweep when
        // named explicitly: at default scales they would dominate the
        // sweep's wall-clock many times over.
        registry.retain_standard();
    }

    if list_only {
        println!("{} scenarios registered:", registry.len());
        for s in &registry {
            println!("  {:<16} [{}] {}", s.name, s.tags.join(", "), s.description);
        }
        return;
    }

    print_header("Scenario sweep — registry-wide robustness", scale);
    println!(
        "Sweeping {} scenarios: {}",
        registry.len(),
        registry.names().join(", ")
    );

    let start = std::time::Instant::now();
    let scale_cfg = sweep_scale(scale);
    let result = if scale == Scale::Smoke {
        // The determinism contract: the whole sweep (training included) must
        // be bit-identical for any worker-thread count and any lane width.
        // Run the reference (one thread, planned lanes: one per worker on
        // standard scenarios), then the matrix — 4 workers at planned
        // lanes, ragged 3-lane batches on 2 workers, and 16 lanes on 4
        // workers — and fail on any transcript divergence.
        let prev_threads = std::env::var(acso_runtime::THREADS_ENV_VAR).ok();
        let prev_batch = std::env::var(acso_runtime::BATCH_ENV_VAR).ok();
        let run_with = |threads: &str, batch: Option<&str>| {
            std::env::set_var(acso_runtime::THREADS_ENV_VAR, threads);
            match batch {
                Some(lanes) => std::env::set_var(acso_runtime::BATCH_ENV_VAR, lanes),
                None => std::env::remove_var(acso_runtime::BATCH_ENV_VAR),
            }
            scenario_sweep(&registry, &scale_cfg)
        };
        let serial = run_with("1", None);
        for (threads, batch) in [("4", None), ("2", Some("3")), ("4", Some("16"))] {
            let other = run_with(threads, batch);
            assert_eq!(
                serial,
                other,
                "scenario sweep must be bit-identical for ACSO_THREADS={threads}, ACSO_BATCH={}",
                batch.unwrap_or("unset")
            );
        }
        let restore = |var: &str, value: Option<String>| match value {
            Some(value) => std::env::set_var(var, value),
            None => std::env::remove_var(var),
        };
        restore(acso_runtime::THREADS_ENV_VAR, prev_threads);
        restore(acso_runtime::BATCH_ENV_VAR, prev_batch);
        println!(
            "determinism: (threads, lanes) (1, planned) = (4, planned) = (2, 3) = (4, 16) \
             bit-identical ✓"
        );
        serial
    } else {
        scenario_sweep(&registry, &scale_cfg)
    };

    println!();
    println!("{}", result.format_table());
    println!("Total wall-clock: {:.1?}", start.elapsed());

    if let Some(path) = out_path {
        let json = results_json(&result, acso_runtime::available_threads());
        std::fs::write(&path, &json).expect("failed to write results JSON");
        println!("wrote {path}");
    }
}
