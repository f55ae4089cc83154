"""Workloads of the pipeline benchmark.

Each workload turns a seed into a batch of planpack instances.  The
program under test only ever sees the generated instance files.  The
three workloads stress different layers (see README.md for the full
layer-to-metric mapping):

- dense-random: weight comparisons, the non-plan sort and the offline
  augmenting search, with windows that reach the horizon;
- short-window: horizon-bound refreshes with a small pending set, and
  the richest mix of proof cases and leap chains;
- big-weights: operands thousands of digits long, no leaps, and traces
  of megabytes.

Instances have the shapes the workloads are about: a few hundred
steps with over a hundred packets pending for dense-random, thousands
of steps for short-window.  dense-random batches three instances, since
its per-instance cost varies by about 15 percent from seed to seed.  One
pass over the dense-random batch takes 13 to 20 seconds on a 2-vCPU
host, the other batches 3 to 12 seconds; a run always makes at least
two passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    family: str              # a planpack generator kind
    full: dict               # generator parameters of the benchmark
    tiny: dict               # the same, shrunk for the smoke test


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "dense-random",
            "uniform-random, 300 steps, 0-5 pkts/step, weights 1..10^6, 3 instances: windows "
            "reach the horizon, ~130 pending; cost is weight comparisons, sort, offline search",
            "uniform-random",
            dict(instances=3, steps=300, packets_per_step=5, weight_max=10**6),
            dict(instances=2, steps=12, packets_per_step=5, weight_max=10**6),
        ),
        Workload(
            "short-window",
            "s-bounded span 8, 2000 steps, 0-5 pkts/step, 1 instance: small pending set, "
            "O(horizon) refresh; richest mix of proof cases and leap chains",
            "s-bounded",
            dict(instances=1, steps=2000, packets_per_step=5, weight_max=10**6, span=8),
            dict(instances=2, steps=40, packets_per_step=5, weight_max=10**6, span=8),
        ),
        Workload(
            "big-weights",
            "phi-adversarial, 440 epochs (seed-independent): weights are powers of 987/610 "
            "thousands of digits long, no leaps, MB traces",
            "phi-adversarial",
            dict(instances=1, steps=440),
            dict(instances=1, steps=12),
        ),
    )
}

SCALES = ("full", "tiny")


def build(workload: Workload, scale: str, seed: int, pp: SimpleNamespace) -> list:
    """The workload's instances for this seed, built with the planpack
    generators in ``pp``."""
    params = dict(getattr(workload, scale))
    count = params.pop("instances")
    # distinct instance seeds per benchmark seed; 64 > any batch size
    seeds = [seed * 64 + i for i in range(count)]
    config = pp.generators.GeneratorConfig
    return [pp.generators.generate(config(workload.family, seed=s, **params)) for s in seeds]

