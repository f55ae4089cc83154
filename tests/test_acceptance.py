"""Acceptance gate.

Eight checks, one test each, all on exact arithmetic:

1. phi-competitiveness of the plan-following scheduler over a five
   family corpus (1000 instances each, up to 200 steps).
2. The replay audit passes on every corpus trace and rejects 100
   tampered traces.
3. Incremental plan maintenance agrees with a from-scratch recompute
   across at least ten thousand random events.
4. Per-slot admission floors never decrease over time on any trace.
5. The greedy baseline is 2-competitive on every corpus instance.
6. The adversarial family separates greedy from the plan scheduler at
   frozen exact ratios.
7. The worked fixtures reproduce exactly.
8. The offline optimum matches a brute-force search on 500 small
   instances inside ten seconds.
"""

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

import pytest

from conftest import mk
from test_plan import check_against_oracles, state_from
from test_verifier import mutate_trace

from planpack.generators import GeneratorConfig, generate
from planpack.golden import (
    PHI,
    TaggedWeight,
    TiebreakSource,
    golden,
    golden_sign,
)
from planpack.model import validate
from planpack.offline import brute_force_opt, optimal_schedule
from planpack.plan import ZERO_WEIGHT, PlanState
from planpack.schedulers import LeapRecord, run
from planpack.verifier import VerifierError, verify_trace

FAMILIES = (
    ("uniform", GeneratorConfig("uniform-random", 0)),
    ("2-bounded", GeneratorConfig("s-bounded", 0, span=2)),
    ("4-bounded", GeneratorConfig("s-bounded", 0, span=4)),
    ("agreeable", GeneratorConfig("agreeable", 0)),
    ("phi-adversarial", GeneratorConfig("phi-adversarial", 0)),
)
PER_FAMILY = 1000


def family_steps(kind: str) -> list[int]:
    """Mostly small instances, a tail of large ones, always one with
    the full 200 steps."""
    rng = random.Random(f"corpus-{kind}")
    sizes = [rng.randint(2, 15) for _ in range(870)]
    sizes += [rng.randint(16, 60) for _ in range(100)]
    sizes += [rng.randint(61, 150) for _ in range(25)]
    sizes += [rng.randint(151, 199) for _ in range(4)]
    sizes.append(200)
    return sizes


@dataclass
class CorpusStats:
    instances: int = 0
    bound_seconds: float = 0.0
    audit_seconds: float = 0.0
    events_audited: int = 0
    monotone_traces: int = 0
    phi_failures: list[str] = field(default_factory=list)
    greedy_failures: list[str] = field(default_factory=list)
    audit_failures: list[str] = field(default_factory=list)
    mutation_pool: list = field(default_factory=list)


@pytest.fixture(scope="module")
def corpus() -> CorpusStats:
    stats = CorpusStats()
    for name, base in FAMILIES:
        for index, steps in enumerate(family_steps(name)):
            label = f"{name}-{index}"
            cfg = GeneratorConfig(
                base.kind, steps, seed=10_000 + index,
                packets_per_step=base.packets_per_step,
                weight_max=base.weight_max, span=base.span,
            )
            started = time.perf_counter()
            inst = generate(cfg)
            result, trace = run("planm", inst, check_monotonicity=True)
            opt = optimal_schedule(inst)
            if golden_sign(PHI * result.gain0 - opt.weight0) < 0:
                stats.phi_failures.append(label)
            stats.bound_seconds += time.perf_counter() - started
            stats.monotone_traces += 1

            greedy, _ = run("greedy", inst)
            if golden_sign(golden(2 * greedy.gain0 - opt.weight0)) < 0:
                stats.greedy_failures.append(label)

            started = time.perf_counter()
            try:
                audited = verify_trace(inst, trace, opt)
            except VerifierError as exc:
                stats.audit_failures.append(f"{label}: {exc}")
            else:
                stats.events_audited += audited.summary.events
            stats.audit_seconds += time.perf_counter() - started

            if len(stats.mutation_pool) < 150 and trace.events and len(inst.packets) <= 40:
                stats.mutation_pool.append((inst, trace))
            stats.instances += 1
    return stats


def test_phi_competitive_bound_across_corpus(corpus):
    assert corpus.instances == len(FAMILIES) * PER_FAMILY
    assert corpus.phi_failures == []
    assert corpus.bound_seconds < 120.0


def test_audit_clean_on_corpus_and_mutations_rejected(corpus):
    assert corpus.audit_failures == []
    assert corpus.events_audited > corpus.instances
    rng = random.Random(2718281)
    rejected = 0
    while rejected < 100:
        inst, trace = rng.choice(corpus.mutation_pool)
        _, mutant = mutate_trace(trace, inst, rng)
        if mutant == trace:
            continue
        with pytest.raises(VerifierError):
            verify_trace(inst, mutant, optimal_schedule(inst))
        rejected += 1
    assert rejected == 100


def test_incremental_plan_matches_scratch_recompute():
    """Random arrivals and transmissions; after every event the live
    structure must agree with a recompute from the raw pending set."""
    events = 0
    horizon = 30
    for seed in range(1, 200):
        rng = random.Random(seed)
        src = TiebreakSource()
        state = PlanState(0, horizon, src)
        next_id = 1
        for _ in range(120):
            if state.t >= horizon - 1:
                break
            plan = sorted(state.plan_ids())
            if rng.random() < 0.6 or not plan:
                d = min(state.t + rng.randint(0, 7), horizon - 1)
                w = Fraction(rng.randint(0, 12), rng.choice([1, 2, 3]))
                state.apply_arrival(next_id, d, TaggedWeight(w, src.sub_zero()))
                next_id += 1
            else:
                pid = rng.choice(plan)
                if state.tights[0] < state.packets[pid].deadline <= state.tights[1]:
                    state.apply_schedule_initseg(pid)
                else:
                    state.apply_schedule_later(pid)
            check_against_oracles(state, exhaustive=False)
            events += 1
        if events >= 10_000:
            break
    assert events >= 10_000


def test_admission_floor_monotone_on_every_trace(corpus):
    assert corpus.monotone_traces == corpus.instances


def test_greedy_two_competitive_across_corpus(corpus):
    assert corpus.greedy_failures == []


def test_adversarial_family_separates_the_schedulers():
    """Directional check on a fixed 16-gadget chain.  A matching
    adaptive lower bound needs an adversary that reacts to the run, so
    a frozen instance can only approach it; the exact ratios below
    were computed by the offline oracle and frozen."""
    inst = generate(GeneratorConfig("phi-adversarial", 16))
    opt = optimal_schedule(inst).weight0
    planm_gain = run("planm", inst)[0].gain0
    greedy_gain = run("greedy", inst)[0].gain0
    assert opt / greedy_gain == Fraction(1597, 987)
    assert opt / greedy_gain >= Fraction(8, 5)
    assert opt / planm_gain == Fraction(1)
    assert opt / planm_gain <= Fraction(16181, 10000)


def test_worked_fixtures_reproduce(w1, w2, fig1):
    state = state_from(fig1, t=1)
    assert state.plan_ids() == {1, 2, 3, 4, 5, 6, 7}
    for tau in (1, 2, 3, 4):
        assert fig1.scale.rational(state.minwt(tau).value) == Fraction(1, 2)
    for tau in (5, 6, 7):
        assert fig1.scale.rational(state.minwt(tau).value) == Fraction(1, 10)
    assert state.minwt(8) == ZERO_WEIGHT

    r1, trace1 = run("planm", w1)
    assert r1.transmitted == ((0, 1), (1, 2), (2, 4))
    assert r1.gain0 == 12
    assert run("greedy", w1)[0].gain0 == 9

    r2, trace2 = run("planm", w2)
    assert r2.transmitted == ((0, 2), (1, 3))
    assert (r2.gain0, r2.gain_current) == (14, 15)
    leap = trace2.events[3].leap
    assert isinstance(leap, LeapRecord)
    assert (leap.p_id, leap.rho_id, leap.ell_id) == (2, 3, 1)
    assert (leap.rho_old_weight.value, leap.rho_new_weight.value) == (4, 5)

    audit1 = verify_trace(w1, trace1, optimal_schedule(w1))
    assert audit1.summary.bound_margin == golden(-12, 12)
    audit2 = verify_trace(w2, trace2, optimal_schedule(w2))
    assert audit2.summary.advgain_total == 15
    assert audit2.summary.bound_margin == golden(-15, 14)
    assert audit2.summary.psi_final == golden(0, 0)


def test_offline_optimum_matches_brute_force():
    rng = random.Random(161803)
    started = time.perf_counter()
    for _ in range(500):
        n = rng.randint(0, 12)
        packets = []
        for i in range(1, n + 1):
            r = rng.randint(0, 8)
            d = r + rng.randint(0, 5)
            packets.append(mk(i, r, d, rng.randint(1, 30)))
        inst = validate(packets)
        exact = optimal_schedule(inst)
        brute = brute_force_opt(inst)
        assert exact.weight0 == brute.weight0
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
