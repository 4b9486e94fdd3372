//! Ablations of the design choices called out in DESIGN.md:
//!
//! 1. shaping reward on vs off (the paper reports shaping was critical);
//! 2. attention architecture vs the flattened baseline network (Table 6 vs 7);
//! 3. prioritized vs uniform experience replay (α = 0 disables prioritisation).
//!
//! Each variant is trained briefly at the selected scale and its mean
//! training return over the last half of episodes is reported.
//!
//! Run with `--smoke`, `--quick` (default) or `--paper` to choose the scale.

use acso_bench::{print_header, Scale};
use acso_core::agent::{AcsoAgent, AgentConfig, AttentionQNet, BaselineConvQNet, QNetwork};
use acso_core::train::{train_agent, TrainConfig};
use acso_core::ActionSpace;
use dbn::learn::{learn_model, LearnConfig};
use ics_sim::reward::ShapingConfig;
use ics_sim::{IcsEnvironment, SimConfig};
use rl::DqnConfig;

struct Variant {
    name: &'static str,
    shaping: bool,
    attention: bool,
    priority_alpha: f64,
}

fn run_variant(variant: &Variant, base: &TrainConfig) -> f64 {
    let sim: SimConfig = if variant.shaping {
        base.sim.clone()
    } else {
        base.sim.clone().with_shaping(ShapingConfig::disabled())
    };
    let dbn_model = learn_model(&LearnConfig {
        episodes: base.dbn_episodes,
        seed: base.seed,
        sim: sim.clone(),
    });
    let env = IcsEnvironment::new(sim.clone().with_seed(base.seed));
    let space = ActionSpace::new(env.topology());
    let mut agent_config = base.agent.clone();
    agent_config.dqn = DqnConfig {
        priority_alpha: variant.priority_alpha,
        ..agent_config.dqn
    };

    let report = if variant.attention {
        let net = AttentionQNet::new(space, base.seed);
        let mut agent = AcsoAgent::new(env.topology(), dbn_model, net, agent_config);
        train_agent(&mut agent, &sim, base.episodes, base.seed)
    } else {
        let net = BaselineConvQNet::new(space, base.seed);
        let mut agent = AcsoAgent::new(env.topology(), dbn_model, net, agent_config);
        train_agent(&mut agent, &sim, base.episodes, base.seed)
    };
    let n = report.episode_returns.len().max(1);
    report.recent_mean_return(n / 2 + 1)
}

fn main() {
    let scale = Scale::from_args(std::env::args().skip(1));
    print_header(
        "Design-choice ablations (shaping, architecture, replay)",
        scale,
    );
    let experiment = scale.experiment_scale();
    let base = TrainConfig {
        sim: experiment.train_sim.clone(),
        agent: AgentConfig {
            dqn: DqnConfig::smoke(),
            learning_rate: 1e-4,
            seed: experiment.seed,
        },
        episodes: experiment.train_episodes,
        dbn_episodes: experiment.dbn_episodes,
        seed: experiment.seed,
    };

    let variants = [
        Variant {
            name: "full ACSO (attention + shaping + prioritized)",
            shaping: true,
            attention: true,
            priority_alpha: 0.6,
        },
        Variant {
            name: "no shaping reward",
            shaping: false,
            attention: true,
            priority_alpha: 0.6,
        },
        Variant {
            name: "baseline flattened network",
            shaping: true,
            attention: false,
            priority_alpha: 0.6,
        },
        Variant {
            name: "uniform replay (alpha = 0)",
            shaping: true,
            attention: true,
            priority_alpha: 0.0,
        },
    ];

    let start = std::time::Instant::now();
    println!();
    println!("{:<48} {:>16}", "variant", "mean return");
    for variant in &variants {
        let mean_return = run_variant(variant, &base);
        println!("{:<48} {:>16.1}", variant.name, mean_return);
    }

    // Parameter-count side of the architecture ablation (Table 6 vs Table 7).
    let small_space = ActionSpace::from_counts(16, 30);
    let full_space = ActionSpace::from_counts(33, 50);
    let mut attn_small = AttentionQNet::new(small_space.clone(), 0);
    let mut attn_full = AttentionQNet::new(full_space.clone(), 0);
    let mut base_small = BaselineConvQNet::new(small_space, 0);
    let mut base_full = BaselineConvQNet::new(full_space, 0);
    println!();
    println!("Parameter growth when the network grows from the tuning topology to the full one:");
    println!(
        "  attention: {} -> {} parameters (constant)",
        attn_small.parameter_count(),
        attn_full.parameter_count()
    );
    println!(
        "  baseline:  {} -> {} parameters (grows with topology)",
        base_small.parameter_count(),
        base_full.parameter_count()
    );
    println!();
    println!("Total wall-clock: {:.1?}", start.elapsed());
}
