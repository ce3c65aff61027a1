"""In-memory span recorder for the traced benchmark run.

Public functions are wrapped at the names their callers bound, because a
module that did `from .optimizer import run` keeps its own reference and
never sees a patch of `optimizer.run`. Each span records its name, layer,
start, end and parent; spans stay in memory until the child summarises
them. A span's self time is its duration minus the durations of its direct
children, so the layer self times of one call add up to the root span.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

# verify binds these closed forms at import time; analytic's internal calls
# to one another stay unwrapped and count in the caller's self time.
ANALYTIC_NAMES = (
    "effective_eta",
    "expected_loss",
    "expected_loss_radial",
    "gradient",
    "gradient_scale",
    "hessian_at_optimum",
    "pred_error_sigma",
)


class Recorder:
    """Collects spans and counts; `wrap` replaces a module attribute."""

    def __init__(self) -> None:
        self.spans: List[list] = []  # [name, layer, start, end, parent index]
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack: List[int] = []

    def clear(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def parent_name(self) -> Optional[str]:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def wrap(
        self,
        module,
        attr: str,
        layer: str,
        name: Callable[[Optional[inspect.BoundArguments]], str],
        count: Optional[Callable[[inspect.BoundArguments], Dict[str, int]]] = None,
    ) -> None:
        """Wrap `module.attr`; an absent attribute is left alone.

        `name` gets the bound arguments (None when no `count` is given, so
        hot closed forms skip argument binding) and returns the span name.
        `count` returns the count increments this call contributes.
        """
        original = getattr(module, attr, None)
        if original is None:
            return
        signature = inspect.signature(original) if count is not None else None
        spans, counts, stack = self.spans, self.counts, self._stack

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs) if signature is not None else None
            span = [name(bound), layer, 0.0, 0.0, stack[-1] if stack else -1]
            if count is not None:
                for key, amount in count(bound).items():
                    counts[key] += amount
            stack.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()

        wrapper.__wrapped__ = original
        setattr(module, attr, wrapper)

    def summary(self) -> dict:
        """Self seconds by layer and by span name, counts, and spans per layer."""
        child_time = [0.0] * len(self.spans)
        for name, layer, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        by_layer: Dict[str, float] = defaultdict(float)
        by_name: Dict[str, float] = defaultdict(float)
        spans_by_layer: Dict[str, int] = defaultdict(int)
        for (name, layer, start, end, parent), inner in zip(self.spans, child_time):
            own = end - start - inner
            by_layer[layer] += own
            by_name[name] += own
            spans_by_layer[layer] += 1
        return {
            "self_by_layer": dict(by_layer),
            "self_by_name": dict(by_name),
            "counts": dict(self.counts),
            "spans_by_layer": dict(spans_by_layer),
        }


def _estimator(loss, huber_tau: float) -> str:
    kind = type(loss).__name__
    if kind == "Huber":
        return "huber_x30" if loss.tau == 30.0 * huber_tau else "huber"
    return kind.lower()


def install(recorder: Recorder, huber_tau: float) -> None:
    """Wrap every layer boundary of the streamrobust package."""
    from streamrobust import bench, cli, datagen, optimizer, verify

    def fixed(span_name):
        return lambda bound: span_name

    recorder.wrap(cli, "main", "cli", fixed("cli.main"))
    recorder.wrap(cli, "convergence_experiment", "bench", fixed("bench.experiment"))
    recorder.wrap(cli, "breakdown_experiment", "bench", fixed("bench.experiment"))
    recorder.wrap(cli, "run_suite", "verify", fixed("verify.run_suite"))

    def rows(param):
        return lambda bound: {"datagen.rows": bound.arguments[param]}

    recorder.wrap(bench, "sample_stream", "datagen", fixed("datagen.sample_stream"), rows("n"))
    recorder.wrap(datagen, "sample_arrays", "datagen", fixed("datagen.sample_arrays"), rows("n"))
    for attr in ("inject_outliers", "multi_pass_stream", "tiered_contamination"):
        recorder.wrap(bench, attr, "datagen", fixed(f"datagen.{attr}"))

    def engine_name(bound):
        # the oracle's inner engine call is labelled with its caller
        if recorder.parent_name() == "optimizer.oracle":
            return "optimizer.oracle"
        return f"optimizer.{_estimator(bound.arguments['loss'], huber_tau)}"

    def updates(bound):
        return {f"{engine_name(bound)}.updates": bound.arguments["n_steps"]}

    def offered(bound):
        return {"optimizer.oracle.offered": len(bound.arguments["samples"])}

    recorder.wrap(bench, "run", "optimizer", engine_name, updates)
    recorder.wrap(optimizer, "run", "optimizer", engine_name, updates)
    recorder.wrap(bench, "oracle_ls_run", "optimizer", fixed("optimizer.oracle"), offered)

    def mc_samples(bound):
        return {"verify.mc_samples": bound.arguments["n_samples"]}

    recorder.wrap(verify, "mc_expected_loss", "verify", fixed("verify.mc_expected_loss"), mc_samples)
    for attr in ANALYTIC_NAMES:
        recorder.wrap(verify, attr, "analytic", fixed(f"analytic.{attr}"))
