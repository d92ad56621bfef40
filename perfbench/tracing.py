"""In-memory spans around the pcimpute layers, installed from outside the package.

``Tracer.install`` replaces every public function of each loaded
``pcimpute`` module (plus the two private pre-pass helpers the per-layer
table names) with a wrapper that records one span per call: name,
parent span, start and end on the ``perf_counter`` clock, and a few
probe attributes.  The wrapper is bound wherever the original function
is bound, because the modules call each other through names imported
with ``from .x import y``.  ``uninstall`` puts every original back.

Spans stay in a list in memory; ``layer_metrics`` turns one run's spans
into the per-layer numbers, one value per operation, then the median
over operations.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import statistics
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

LAYERS = ("data", "pca", "imputers", "engine", "pooling", "simulation", "cli")
# Private helpers named by the per-layer table: the quickpred correlation
# screen (used by both the quickpred strategy and the pre-pass) and the
# pre-pass completion itself.
PRIVATE_TRACED = {"engine": ("_pairwise_select", "_prepass_complete")}

OP_SPAN = "bench.op"


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    op: int = -1
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _predictor_count(bound) -> dict:
    return {"predictors": int(np.shape(bound.arguments["x_obs"])[1])}


def _file_bytes(bound) -> dict:
    return {"bytes": os.path.getsize(bound.arguments["path"])}


# Attributes read from a call's bound arguments after it returns.
PROBES = {
    "imputers.draw_linear_params": _predictor_count,
    "data.load_csv": _file_bytes,
    "data.write_csv": _file_bytes,
}


class Tracer:
    """Records spans for the calls into pcimpute while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.op = -1

    def _record(self, name: str, fn, probe):
        signature = inspect.signature(fn) if probe else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else None, 0.0, op=self.op)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if probe is not None:
                span.attrs = probe(signature.bind(*args, **kwargs))
            return result

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules.get(f"pcimpute.{layer}")
            if module is None:
                continue
            extra = PRIVATE_TRACED.get(layer, ())
            for attr, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and (not attr.startswith("_") or attr in extra)
                ):
                    name = f"{layer}.{attr}"
                    wrappers[id(value)] = self._record(name, value, PROBES.get(name))
        namespaces = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "pcimpute"]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def operation(self, index: int):
        """The benchmark's own root span for one operation; yields its index."""
        root = len(self.spans)
        self.op = index
        self._stack.append(root)
        self.spans.append(Span(OP_SPAN, None, time.perf_counter(), op=index))
        try:
            yield root
        finally:
            self.spans[root].end = time.perf_counter()
            self._stack.pop()
            self.op = -1

    def extend(self, spans: list[dict], op: int, parent: int | None) -> None:
        """Append spans recorded in another process, re-rooted under ``parent``."""
        offset = len(self.spans)
        for raw in spans:
            span = Span(**raw)
            span.op = op
            span.parent = parent if span.parent is None else span.parent + offset
            self.spans.append(span)

    def dump(self) -> list[dict]:
        return [asdict(span) for span in self.spans]


# Per-layer metrics.  Inclusive time, summed per operation over the
# outermost spans of the named functions:
TIME_METRICS = {
    "pca.pca_s": ("pca.pca",),
    "pca.standardize_s": ("pca.standardize",),
    "imputers.draw_linear_params_s": ("imputers.draw_linear_params",),
    "imputers.draw_predictive_s": ("imputers.draw_predictive",),
    "imputers.pmm_impute_s": ("imputers.pmm_impute",),
    "imputers.nearest_donors_s": ("imputers.nearest_donors",),
    "engine.quickpred_select_s": ("engine._pairwise_select",),
    "engine.prepass_s": ("engine._prepass_complete",),
    "engine.build_predictors_s": ("engine.build_predictors",),
    "pooling.analyze_set_s": ("pooling.analyze_set",),
    "simulation.generate_s": (
        "simulation.generate_complete",
        "simulation.coarsen",
        "simulation.ampute",
    ),
    "data.load_csv_s": ("data.load_csv",),
    "data.write_csv_s": ("data.write_csv",),
    "cli.import_s": ("cli.import",),
}
# Calls per operation:
COUNT_METRICS = {
    "pca.pca_calls": "pca.pca",
    "imputers.draw_linear_params_calls": "imputers.draw_linear_params",
    "imputers.nearest_donors_calls": "imputers.nearest_donors",
    "pooling.rubin_pool_calls": "pooling.rubin_pool",
}
# Layer self time: the span minus the parts covered by calls into other
# layers (so run_study's self time includes data generation).
SELF_METRICS = {
    "engine.run_impute_self_s": "engine.run_impute",
    "simulation.run_study_self_s": "simulation.run_study",
}
# cli.process_self_s: the CLI process minus its imputation run and CSV I/O.
CLI_WORK = ("engine.run_impute", "data.load_csv", "data.write_csv")
# Each of these is also reported as its share of the operation.
SHARED = (*TIME_METRICS, *SELF_METRICS, "cli.process_self_s")

UNITS = {
    **{name: "s" for name in (*SHARED, "trace.overhead_s")},
    **{name[: -len("_s")] + "_share": "ratio" for name in SHARED},
    **{name: "count" for name in COUNT_METRICS},
    "imputers.predictors_per_draw": "count",
    "data.csv_bytes": "bytes",
    "trace.uncovered_share": "ratio",
}

# What the result line carries.  A time that is zero on every workload
# that does not reach its layer goes in as its share of the operation;
# the seconds are printed on the report lines.
PER_LAYER = (
    "pca.pca_s",
    "pca.pca_calls",
    "pca.standardize_s",
    "pca.pca_share",
    "imputers.draw_linear_params_s",
    "imputers.draw_linear_params_calls",
    "imputers.predictors_per_draw",
    "imputers.draw_predictive_share",
    "imputers.pmm_impute_share",
    "imputers.nearest_donors_share",
    "imputers.nearest_donors_calls",
    "engine.quickpred_select_share",
    "engine.prepass_share",
    "engine.build_predictors_s",
    "engine.run_impute_self_s",
    "pooling.analyze_set_share",
    "pooling.rubin_pool_calls",
    "simulation.generate_share",
    "simulation.run_study_self_share",
    "data.load_csv_share",
    "data.write_csv_share",
    "data.csv_bytes",
    "cli.import_share",
    "cli.process_self_share",
    "trace.overhead_s",
    "trace.uncovered_share",
)


def _foreign_time(span_index: int, layer: str, children: dict[int, list[int]], spans) -> float:
    total = 0.0
    for child in children.get(span_index, ()):
        if spans[child].layer != layer:
            total += spans[child].duration
        else:
            total += _foreign_time(child, layer, children, spans)
    return total


def _outermost(spans: list[Span], index: int, names) -> bool:
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].name in names:
            return False
        parent = spans[parent].parent
    return True


def _one_operation(spans: list[Span], root: int, members: list[int]) -> dict[str, float]:
    children: dict[int, list[int]] = {}
    for i in members:
        children.setdefault(spans[i].parent, []).append(i)
    wall = spans[root].duration

    def total(names) -> float:
        return sum(
            (spans[i].duration for i in members if spans[i].name in names and _outermost(spans, i, names)),
            0.0,
        )

    out = {metric: total(names) for metric, names in TIME_METRICS.items()}
    for metric, name in SELF_METRICS.items():
        out[metric] = sum(
            (
                spans[i].duration - _foreign_time(i, spans[i].layer, children, spans)
                for i in members
                if spans[i].name == name and _outermost(spans, i, (name,))
            ),
            0.0,
        )
    is_cli = any(spans[i].name == "cli.main" for i in members)
    out["cli.process_self_s"] = wall - total(CLI_WORK) if is_cli else 0.0
    for name in SHARED:
        out[name[: -len("_s")] + "_share"] = out[name] / wall
    for metric, name in COUNT_METRICS.items():
        out[metric] = sum(1 for i in members if spans[i].name == name)
    draws = [spans[i].attrs["predictors"] for i in members if spans[i].name == "imputers.draw_linear_params"]
    out["imputers.predictors_per_draw"] = statistics.fmean(draws) if draws else 0.0
    out["data.csv_bytes"] = sum(spans[i].attrs.get("bytes", 0) for i in members if spans[i].layer == "data")
    covered = sum((spans[i].duration for i in children.get(root, ())), 0.0)
    out["trace.uncovered_share"] = max(wall - covered, 0.0) / wall
    return out


def layer_metrics(spans: list[Span], untraced_walls: list[float]) -> dict[str, float]:
    """Every per-layer metric in ``UNITS``: the median over traced operations.

    ``trace.overhead_s`` is the median traced operation minus the median
    of ``untraced_walls``, the same operations run without tracing.
    """
    members: dict[int, list[int]] = {}
    roots: dict[int, int] = {}
    for i, span in enumerate(spans):
        if span.name == OP_SPAN:
            roots[span.op] = i
        else:
            members.setdefault(span.op, []).append(i)
    per_op = [_one_operation(spans, roots[op], members.get(op, [])) for op in sorted(roots)]
    out = {name: statistics.median(row[name] for row in per_op) for name in per_op[0]}
    traced = statistics.median(spans[i].duration for i in roots.values())
    out["trace.overhead_s"] = traced - statistics.median(untraced_walls)
    return {name: out[name] for name in UNITS}
