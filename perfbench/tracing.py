"""Spans and counts recorded at the program's layer boundaries.

The tracer wraps public functions at the module attributes their callers
look them up by, so nothing in the program changes. A timed install records
one span per call (name, start, end, parent span, pass id) and the counts
that the call's arguments and return value give. An untimed install wraps
only the functions that give counts and reads no clock; the end-to-end
passes use it for the outcome checks. Spans stay in memory until the run
ends. A wrapped attribute that no longer exists is reported as absent.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Target:
    module: str
    attr: str
    span: str  # "<layer>.<function>"; the layer is the defining module


TARGETS = (
    Target("arglogic.cli", "load_dataset", "model.load_dataset"),
    Target("arglogic.cli", "run_inference", "infer.run_inference"),
    Target("arglogic.cli", "predictions_to_records", "infer.predictions_to_records"),
    Target("arglogic.cli", "dump_jsonl", "model.dump_jsonl"),
    Target("arglogic.cli", "sweep", "rules.sweep"),
    # rules.sweep looks run_inference up here at call time
    Target("arglogic.infer", "run_inference", "infer.run_inference"),
    Target("arglogic.infer", "build_indirect", "chains.build_indirect"),
    Target("arglogic.infer", "evaluate_all", "predicates.evaluate_all"),
    Target("arglogic.infer", "connected_components", "model.connected_components"),
    Target("arglogic.infer", "ground", "grounding.ground"),
    Target("arglogic.infer", "solve_map_admm", "solver.solve_map_admm"),
    Target("arglogic.solver", "energy", "grounding.energy"),
    Target("arglogic.solver", "energy_by_pair", "grounding.energy_by_pair"),
    Target("arglogic.kernels", "solve_admm", "kernels.solve_admm"),
)


def _kernel_counts(args, result):
    copies = len(args[0])  # copy_atom
    atoms = len(args[8])  # z0
    iterations = int(result[1])
    # Computed, not measured: each iteration reads every array argument once
    # and reads and writes the iterates u and y (one float per copy) and z
    # (one float per atom) once.
    per_iter = sum(getattr(a, "nbytes", 0) for a in args) + 16 * (2 * copies + atoms)
    return {"iterations": iterations, "copy_updates": iterations * copies,
            "bytes_computed": iterations * per_iter}


# span name -> function of (args, return value) giving what the run records
COUNTERS = {
    "model.connected_components": lambda a, r: {"components": len(r)},
    "chains.build_indirect": lambda a, r: {"triples": len(r[1])},
    "grounding.ground": lambda a, r: {"potentials": len(r.potentials),
                                      "atoms": int(r.n_atoms)},
    "solver.solve_map_admm": lambda a, r: {"nonconverged": int(not r.converged)},
    "kernels.solve_admm": _kernel_counts,
    "infer.run_inference": lambda a, r: {"result": r},
    "rules.sweep": lambda a, r: {"grid_points": len(r[1])},
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    pass_id: int


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.outcomes: list[tuple[int, str, dict]] = []  # (pass id, span, counts)
        self.absent: set[str] = set()  # "module:attr" that could not be wrapped
        self.count_errors: set[str] = set()  # spans whose counter no longer fits
        self.pass_id = 0
        self._stack: list[int] = []
        self._installed: list = []

    def install(self, timed: bool):
        """Wrap every target (timed) or only the targets that give counts."""
        for t in self.targets:
            if not timed and t.span not in COUNTERS:
                continue
            try:
                module = importlib.import_module(t.module)
            except ImportError:
                module = None
            original = getattr(module, t.attr, None)
            if original is None:
                self.absent.add(f"{t.module}:{t.attr}")
                continue
            setattr(module, t.attr, self._wrap(t.span, original, timed))
            self._installed.append((module, t.attr, original))

    def uninstall(self):
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def absent_layers(self) -> list[str]:
        """Layers none of whose targets could be wrapped."""
        present = defaultdict(bool)
        for t in self.targets:
            present[layer_of(t.span)] |= f"{t.module}:{t.attr}" not in self.absent
        return sorted(layer for layer, ok in present.items() if not ok)

    def _count(self, name, args, result):
        counter = COUNTERS.get(name)
        if counter is None:
            return
        try:
            counts = counter(args, result)
        except (AttributeError, TypeError, IndexError, KeyError):
            self.count_errors.add(name)
            return
        self.outcomes.append((self.pass_id, name, counts))

    def _wrap(self, name, original, timed):
        if not timed:
            def probe(*args, **kwargs):
                result = original(*args, **kwargs)
                self._count(name, args, result)
                return result
            return probe

        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, time.perf_counter(), 0.0, parent, self.pass_id)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            self._count(name, args, result)
            return result
        return traced


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [(s.end - s.start) - covered(children[i]) for i, s in enumerate(spans)]


def pass_counts(outcomes, pass_id) -> dict:
    """Deterministic counts of one pass, summed over its calls."""
    sums = defaultdict(int)
    iterations_max = 0
    for pid, name, counts in outcomes:
        if pid != pass_id or name == "infer.run_inference":
            continue
        for key, value in counts.items():
            sums[f"{layer_of(name)}.{key}"] += value
        if name == "kernels.solve_admm":
            iterations_max = max(iterations_max, counts["iterations"])
        elif name == "solver.solve_map_admm":
            sums["solver.calls"] += 1
    sums["kernels.iterations_max"] = iterations_max
    return dict(sums)


def pass_layer_times(spans: list[Span], self_s: list[float], pass_id: int,
                     window: tuple[float, float]) -> dict:
    """Per-layer busy times of one traced pass, and the share no span covers."""
    busy = defaultdict(float)
    calls = defaultdict(int)
    solver_calls = []
    roots = []
    for i, s in enumerate(spans):
        if s.pass_id != pass_id:
            continue
        busy[s.name] += s.end - s.start
        calls[s.name] += 1
        busy[f"{s.name}:self"] += self_s[i]
        if s.name == "solver.solve_map_admm":
            solver_calls.append(s.end - s.start)
        if s.parent is None:
            roots.append((max(s.start, window[0]), min(s.end, window[1])))
    wall = window[1] - window[0]
    admm_s = busy["kernels.solve_admm"]
    return {
        "model.load_s": busy["model.load_dataset"],
        "model.write_s": busy["model.dump_jsonl"],
        "model.components_s": busy["model.connected_components"],
        "chains.build_s": busy["chains.build_indirect"],
        "predicates.eval_s": busy["predicates.evaluate_all"],
        "predicates.calls": calls["predicates.evaluate_all"],
        "grounding.ground_s": busy["grounding.ground"],
        "grounding.calls": calls["grounding.ground"],
        "grounding.energy_s": busy["grounding.energy"] + busy["grounding.energy_by_pair"],
        "solver.calls": calls["solver.solve_map_admm"],
        "solver.self_s": busy["solver.solve_map_admm:self"],
        "solver.component_s": solver_calls,
        "kernels.admm_s": admm_s,
        "kernels.calls": calls["kernels.solve_admm"],
        "infer.self_s": busy["infer.run_inference:self"],
        "infer.records_s": busy["infer.predictions_to_records"],
        "rules.sweep_s": busy["rules.sweep"],
        "trace.uncovered_frac": (wall - covered(roots)) / wall if wall > 0 else 0.0,
    }


def percentile(values, q: int) -> float:
    """The q-th percentile (1..99) of values, 0.0 when there are none."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer, windows: dict[int, tuple[float, float]]) -> dict:
    """Per-layer metrics over the traced passes: the median pass's times and
    the counts, which every pass must repeat."""
    self_s = self_times(tracer.spans)
    per_pass = [pass_layer_times(tracer.spans, self_s, pid, w)
                for pid, w in sorted(windows.items())]
    out = {}
    for key in per_pass[0]:
        if key == "solver.component_s":
            pooled = [d for p in per_pass for d in p[key]]
            out["solver.component_s.p50"] = percentile(pooled, 50)
            out["solver.component_s.p90"] = percentile(pooled, 90)
        elif key.endswith(".calls"):
            out[key] = per_pass[0][key]
        else:
            out[key] = statistics.median(p[key] for p in per_pass)
    counts = pass_counts(tracer.outcomes, min(windows))
    for key in ("model.components", "chains.triples", "grounding.potentials",
                "grounding.atoms", "kernels.iterations", "kernels.iterations_max",
                "kernels.copy_updates", "kernels.bytes_computed", "rules.grid_points"):
        out[key] = counts.get(key, 0)
    admm_s = out["kernels.admm_s"]
    out["kernels.updates_per_s"] = out["kernels.copy_updates"] / admm_s if admm_s else 0.0
    return out
