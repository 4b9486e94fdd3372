//! Reproduces Table 2: nominal evaluation of the ACSO agent and the three
//! baseline policies (DBN expert, playbook, semi-random) under APT1.
//!
//! Run with `--smoke`, `--quick` (default) or `--paper` to choose the scale;
//! `--batch N` (or `ACSO_BATCH=N`) evaluates with `N` lockstep lanes per
//! worker — same transcripts, batched inference.

use acso_bench::{apply_batch_flag, print_header, Scale};
use acso_core::eval::format_table;
use acso_core::experiments::{prepare, table2};

fn main() {
    let scale = Scale::from_args(std::env::args().skip(1));
    apply_batch_flag(std::env::args().skip(1));
    print_header("Table 2 — Nominal Evaluation Results", scale);

    let start = std::time::Instant::now();
    println!("Training ACSO defender (DBN fit + augmented DQN)...");
    let mut ctx = prepare(scale.experiment_scale());
    println!(
        "  trained for {} episodes / {} env steps / {} gradient updates in {:.1?}",
        ctx.trained.report.episode_returns.len(),
        ctx.trained.report.env_steps,
        ctx.trained.report.updates,
        start.elapsed()
    );

    println!(
        "Evaluating policies ({} episodes each)...",
        ctx.scale.eval_episodes
    );
    let result = table2(&mut ctx);
    println!();
    println!("{}", format_table(&result.evaluations));
    println!(
        "Paper reference (Table 2): ACSO 2149.9 return / 0.0 PLCs / 0.15 IT cost / 0.56 nodes;"
    );
    println!("  Playbook 2142.6 / 0.0 / 0.21 / 0.63; DBN Expert 1970.5 / 5.6 / 0.40 / 0.62;");
    println!("  Semi Random 2071.9 / 0.0 / 0.60 / 0.88.");
    println!("Total wall-clock: {:.1?}", start.elapsed());
}
