//! Benchmark: the batched DQN update (one stacked forward + one stacked
//! backward over the whole minibatch) across minibatch sizes 1/8/32 for both
//! architectures.

use acso_bench::prefilled_update_agent;
use acso_core::agent::{AttentionQNet, BaselineConvQNet};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_batched_training(c: &mut Criterion) {
    let mut group = c.benchmark_group("batched_training");
    group.sample_size(10);
    for batch in [1usize, 8, 32] {
        let mut attention = prefilled_update_agent(|s| AttentionQNet::new(s, 0), batch);
        let mut baseline = prefilled_update_agent(|s| BaselineConvQNet::new(s, 0), batch);

        group.bench_with_input(
            BenchmarkId::new("attention_batched_update", batch),
            &batch,
            |b, _| b.iter(|| attention.maybe_train().expect("one update per call")),
        );
        group.bench_with_input(
            BenchmarkId::new("baseline_batched_update", batch),
            &batch,
            |b, _| b.iter(|| baseline.maybe_train().expect("one update per call")),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_batched_training);
criterion_main!(benches);
