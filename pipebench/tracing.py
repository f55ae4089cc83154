"""Spans and counters around planpack's public functions.

The program itself carries no instrumentation.  ``Tracer.install``
replaces each traced name in the module that calls it (for example
``planpack.cli.run`` or ``planpack.verifier.planm_step``) or on its
class (``PlanState.refresh``) with a wrapper that records a span:
name, start, end and the index of the enclosing span.  Spans stay in
memory; the caller writes them out when the run ends.  A layer's self
time is its spans' duration minus the time covered by their direct
child spans, so the self times of all spans sum to the duration of
the root spans, which are the CLI commands.  ``check_spans`` checks
the nesting that this rests on.

``golden.golden_sign`` is counted, not spanned: it is wrapped in every
module that calls it (``golden``, whose ``GoldenNumber.sign`` and
comparisons call it, ``verifier`` and ``cli``).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from types import SimpleNamespace

# (module attribute or class, name, span) for every traced call site
CALL_SITES = (
    ("cli", "run", "schedulers.run"),
    ("cli", "optimal_schedule", "offline.optimal_schedule"),
    ("cli", "parse_schedule", "offline.schedule_io"),
    ("cli", "format_schedule", "offline.schedule_io"),
    ("cli", "verify_trace", "verifier.verify_trace"),
    ("schedulers", "planm_step", "schedulers.planm_step"),
    ("schedulers", "greedy_step", "schedulers.greedy_step"),
    ("verifier", "planm_step", "schedulers.planm_step"),
    ("offline", "canonical_assignment", "offline.canonical_assignment"),
    ("model", "parse_instance", "model.parse_instance"),
    ("trace_io", "parse_trace", "trace_io.parse"),
    ("trace_io", "format_trace", "trace_io.format"),
    ("PlanState", "refresh", "plan.refresh"),
    ("PlanState", "clone", "plan.clone"),
    ("Verifier", "on_arrival", "verifier.on_arrival"),
    ("Verifier", "on_ordinary_step", "verifier.on_ordinary_step"),
    ("Verifier", "on_leap_step", "verifier.on_leap_step"),
    ("Verifier", "on_idle", "verifier.on_idle"),
    ("Verifier", "finalize", "verifier.finalize"),
)

# modules that call golden.golden_sign through a name of their own
SIGN_CALLERS = ("golden", "verifier", "cli")

# span name -> per-layer self-time metric; every span name has one, so
# these metrics partition the traced pipeline time
SELF_TIME_METRICS = {
    "cli.simulate": "cli.self_s",
    "cli.opt": "cli.self_s",
    "cli.verify": "cli.self_s",
    "model.parse_instance": "model.parse_instance_s",
    "plan.refresh": "plan.refresh_s",
    "plan.clone": "plan.clone_s",
    "schedulers.run": "schedulers.run_s",
    "schedulers.planm_step": "schedulers.planm_step_s",
    "schedulers.greedy_step": "schedulers.greedy_step_s",
    "offline.optimal_schedule": "offline.optimal_schedule_s",
    "offline.canonical_assignment": "offline.canonical_assignment_s",
    "offline.schedule_io": "offline.schedule_io_s",
    "trace_io.format": "trace_io.format_s",
    "trace_io.parse": "trace_io.parse_s",
    "verifier.verify_trace": "verifier.replay_s",
    "verifier.on_arrival": "verifier.on_arrival_s",
    "verifier.on_ordinary_step": "verifier.on_ordinary_step_s",
    "verifier.on_leap_step": "verifier.on_leap_step_s",
    "verifier.on_idle": "verifier.on_idle_s",
    "verifier.finalize": "verifier.finalize_s",
}


class Tracer:
    """Records spans and counters while installed on the modules in ``pp``."""

    def __init__(self, pp: SimpleNamespace, clock) -> None:
        self.pp = pp
        self.clock = clock
        self.spans: list = []           # (name, start, end, parent index)
        self.counts: Counter = Counter()
        self.run_traces: list = []      # RunTrace objects the CLI produced
        self.verifications: list = []   # VerificationResult objects
        self._stack: list[int] = []
        self._saved: list = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent)

    def _wrapped(self, name: str, fn):
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        span = self.span

        def traced(*args, **kwargs):
            if before is not None:
                before(*args)
            result = span(name, fn, *args, **kwargs)
            if after is not None:
                after(result)
            return result

        return traced

    # counters, recorded outside the span they describe

    def _before_plan_refresh(self, state) -> None:
        self.counts["refresh_calls"] += 1
        self.counts["refresh_slots"] += state.sentinel - state.t + 2
        self.counts["refresh_pending"] += len(state.packets)

    def _before_plan_clone(self, state) -> None:
        self.counts["clone_calls"] += 1

    def _before_model_parse_instance(self, text: str) -> None:
        self.counts["instance_bytes"] += len(text.encode("utf-8"))

    def _before_trace_io_parse(self, text: str) -> None:
        self.counts["trace_bytes"] += len(text.encode("utf-8"))

    def _after_trace_io_format(self, text: str) -> None:
        self.counts["trace_bytes"] += len(text.encode("utf-8"))

    def _after_schedulers_run(self, result) -> None:
        self.run_traces.append(result[1])

    def _after_verifier_verify_trace(self, result) -> None:
        self.verifications.append(result)

    def install(self) -> None:
        pp = self.pp
        owners = {
            "PlanState": pp.plan.PlanState,
            "Verifier": pp.verifier.Verifier,
        }
        for owner_name, attr, name in CALL_SITES:
            owner = owners.get(owner_name) or getattr(pp, owner_name)
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrapped(name, original))
        sign = pp.golden.golden_sign
        counts = self.counts

        def counted_sign(x):
            counts["sign_calls"] += 1
            return sign(x)

        for module in SIGN_CALLERS:
            owner = getattr(pp, module)
            self._saved.append((owner, "golden_sign", vars(owner)["golden_sign"]))
            owner.golden_sign = counted_sign

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def check_spans(spans: list) -> list[str]:
    """Problems with the nesting of ``spans``: a span that ends before
    it starts, lies outside its parent, or overlaps an earlier span with
    the same parent.  Without these, self times can be wrong."""
    problems = []
    last_end: dict[int, float] = {}     # parent index -> end of its latest child
    for i, (name, start, end, parent) in enumerate(spans):
        if end < start:
            problems.append(f"span {i} ({name}) ends before it starts")
        if parent >= 0:
            _, p_start, p_end, _ = spans[parent]
            if not p_start <= start <= end <= p_end:
                problems.append(f"span {i} ({name}) lies outside its parent span {parent}")
        if start < last_end.get(parent, start):
            problems.append(f"span {i} ({name}) overlaps an earlier sibling")
        last_end[parent] = end
    return problems


def self_times(spans: list) -> tuple[dict[str, float], float]:
    """Self time per metric, and the total duration of the root spans."""
    covered = [0.0] * len(spans)
    roots = 0.0
    for name, start, end, parent in spans:
        if parent < 0:
            roots += end - start
        else:
            covered[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        out[SELF_TIME_METRICS[name]] += (end - start) - covered[i]
    return out, roots
