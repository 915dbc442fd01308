"""Run one workload's passes through the real CLI, in one process.

Usage: python3 perfbench/worker.py --root CHECKOUT --workload NAME
           --inputs DIR --seconds S --trace 0|1 --result FILE --spans FILE

A pass is one `arglogic.cli.main([...], standalone_mode=False)` call, from
loading the inputs to the written output. Passes repeat until S seconds
have gone by. Untraced passes are timed under a `speed.Speedometer`, which
also gives each one's time at the reference machine speed. With --trace 1,
untraced and traced passes alternate, so the tracing overhead is measured on
the same inputs. After each pass, and
outside its timing, the outputs are checked. The result file holds every
pass, the peak RSS of this process and, when traced, the per-layer metrics;
a traced run writes its spans to the --spans JSONL file when it ends.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback

import checks
import speed
import tracing
from workloads import SWEEP_GRID_POINTS, TASK_MODE, WORKLOADS

MIN_PASSES = 3  # in an untraced run
MIN_TRACED_UNTRACED = 2  # of each kind, in a traced run
HARD_CAP_FACTOR = 4  # stop starting passes after this many times --seconds

# counts that must repeat exactly between passes and between runs
REPEAT_KEYS = ("kernels.iterations", "kernels.copy_updates", "grounding.potentials",
               "model.components", "chains.triples", "energy_per_weight", "macro_f1")


def import_program(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import arglogic
    if not os.path.realpath(arglogic.__file__).startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"arglogic imported from {arglogic.__file__}, not {src}")
    from arglogic.cli import main
    return main


def call_cli(cli_main, argv) -> str | None:
    """Run one CLI command in-process; returns an error message or None."""
    try:
        cli_main(argv, standalone_mode=False)
    except SystemExit as exc:
        if exc.code not in (0, None):
            return f"exit code {exc.code}"
    except Exception:  # a failed pass is counted, and the run goes on
        return traceback.format_exc(limit=3)
    return None


def check_pass(workload, pass_id, out_path, error, tracer, truth) -> dict:
    """Output checks and quality figures of one finished pass."""
    results = [c["result"] for pid, name, c in tracer.outcomes
               if pid == pass_id and name == "infer.run_inference"]
    counts = tracing.pass_counts(tracer.outcomes, pass_id)
    record = {"failures": [error] if error else [], "counts": counts,
              "components": counts.get("solver.calls", 0),
              "nonconverged": counts.get("solver.nonconverged", 0)}
    if error:
        return record
    gold = truth["gold"]
    failures = record["failures"]
    try:
        if workload.is_sweep:
            with open(out_path) as fh:
                report = json.load(fh)
        else:
            quality_records = checks.read_records(out_path)
    except (OSError, ValueError) as exc:
        failures.append(f"unreadable output {out_path}: {exc}")
        return record
    if workload.is_sweep:
        failures += checks.check_sweep_report(report, SWEEP_GRID_POINTS)
        if len(results) != SWEEP_GRID_POINTS:
            failures.append(f"{len(results)} inference results, "
                            f"expected {SWEEP_GRID_POINTS}")
        if failures:
            return record
        val_ids = [pid for pid, split in truth["split"].items() if split == "val"]
        for result in results:
            failures += checks.check_predictions(
                checks.records_from_result(result, TASK_MODE), val_ids, TASK_MODE)
        best = checks.best_row(report["configs"])
        energy_per_weight = report["configs"][best]["normalized_objective"]
        quality_records = checks.records_from_result(results[best], TASK_MODE)
    else:
        failures += checks.check_predictions(quality_records, gold, TASK_MODE)
        if len(results) != 1:
            failures.append(f"{len(results)} inference results, expected 1")
            return record
        weight = results[0].total_weight
        energy_per_weight = results[0].total_energy / weight if weight else math.nan
    failures += checks.check_finite("energy_per_weight", energy_per_weight)
    record["energy_per_weight"] = energy_per_weight
    record["macro_f1"] = checks.macro_f1(quality_records, gold, TASK_MODE)
    return record


def repeat_counts(record: dict) -> dict:
    merged = dict(record["counts"])
    for key in ("energy_per_weight", "macro_f1"):
        if key in record:
            merged[key] = record[key]
    return {k: merged[k] for k in REPEAT_KEYS if k in merged}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", required=True, help="where traced runs write spans")
    args = ap.parse_args(argv)

    cli_main = import_program(args.root)
    workload = WORKLOADS[args.workload]
    inputs = args.inputs
    with open(os.path.join(inputs, "truth.json")) as fh:
        truth = json.load(fh)
    out_path = os.path.join(inputs, "out.json" if workload.is_sweep else "out.jsonl")
    cmd, opts = workload.command[0], list(workload.command[1:])
    argv_full = [cmd, os.path.join(inputs, "arguments.jsonl"),
                 os.path.join(inputs, "scores.jsonl"), *opts, "--out", out_path]
    argv_tiny = [cmd, os.path.join(inputs, "tiny_arguments.jsonl"),
                 os.path.join(inputs, "tiny_scores.jsonl"), *opts, "--out", out_path]

    error = call_cli(cli_main, argv_tiny)  # lazy imports and first-call paths
    if error:
        print(f"warm-up failed: {error}", file=sys.stderr)
        return 1

    tracer = tracing.Tracer()
    passes = []
    windows = {}
    start = time.perf_counter()
    while True:
        pass_id = len(passes)
        traced = bool(args.trace) and pass_id % 2 == 1
        gc.collect()  # each pass starts from a collected heap, as a fresh process would
        tracer.pass_id = pass_id
        tracer.install(timed=traced)
        meter = contextlib.nullcontext() if traced else speed.Speedometer()
        try:
            with meter:
                t0 = time.perf_counter()
                error = call_cli(cli_main, argv_full)
                t1 = time.perf_counter()
        finally:
            tracer.uninstall()
        record = check_pass(workload, pass_id, out_path, error, tracer, truth)
        record.update(wall_s=t1 - t0, traced=traced)
        if traced:
            windows[pass_id] = (t0, t1)
        else:
            record.update(busy_s=meter.busy_s, samples=len(meter.samples),
                          scaled_s=speed.scaled_time(t1 - t0, meter.busy_s, meter.samples))
        passes.append(record)
        for _, _, counts in tracer.outcomes:  # release the pass's results
            counts.pop("result", None)

        elapsed = time.perf_counter() - start
        n_traced = len(windows)
        n_untraced = len(passes) - n_traced
        if args.trace:
            enough = min(n_traced, n_untraced) >= MIN_TRACED_UNTRACED
        else:
            enough = n_untraced >= MIN_PASSES
        if (elapsed >= args.seconds and enough) or elapsed >= HARD_CAP_FACTOR * args.seconds:
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    try:
        import numba  # noqa: F401
        numba_imports = True
    except ImportError:
        numba_imports = False
    import numpy
    from arglogic import kernels

    for p in passes:
        p["repeat"] = repeat_counts(p)
    result = {
        "env": {"numpy": numpy.__version__, "backend": kernels.BACKEND,
                "numba_imports": numba_imports},
        "pairs_per_pass": (len([s for s in truth["split"].values() if s == "val"])
                           * SWEEP_GRID_POINTS if workload.is_sweep
                           else len(truth["gold"])),
        "peak_rss_mb": peak_rss_mb,
        "passes": [{k: v for k, v in p.items() if k != "counts"} for p in passes],
        "absent_layers": tracer.absent_layers(),
        "absent_targets": sorted(tracer.absent),
        "count_errors": sorted(tracer.count_errors),
    }
    if windows:
        result["layers"] = tracing.layer_metrics(tracer, windows)
        untraced = [p["wall_s"] - p["busy_s"] for p in passes if not p["traced"]]
        traced_walls = [p["wall_s"] for p in passes if p["traced"]]
        result["layers"]["trace.overhead_frac"] = (
            statistics.median(traced_walls) / statistics.median(untraced) - 1.0)
        with open(args.spans, "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(dataclasses.asdict(span)) + "\n")
    with open(args.result, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
