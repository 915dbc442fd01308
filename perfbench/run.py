#!/usr/bin/env python3
"""End-to-end benchmark of `arglogic infer` and `arglogic sweep`.

Usage: python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's `src/`. One run:

1. writes the workload's inputs from `--seed` in a separate process
   (gen.py), before any timing;
2. runs the passes in one single-threaded worker process (worker.py) and
   checks every pass's outputs;
3. around the passes, times SETUP_PROBES fresh interpreters that import
   arglogic and run one tiny inference (setup_probe.py), and keeps the median;
   pass and probe times are scaled to a fixed machine speed (speed.py);
4. compares the deterministic counts with earlier runs of the same source
   on the same workload and seed;
5. prints a table, then one JSON line: with --trace 0 the end-to-end
   metrics, with --trace 1 the per-layer metrics.

Everything it writes stays under `.perfbench/` in the checkout: a summary
per run and, for traced runs, the spans, in `.perfbench/results/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import speed
from metrics import END_TO_END, PER_LAYER
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
SETUP_PROBES = 6  # half before the passes and half after, to sample two moments
RUN_BUDGET_S = 170.0  # one workload's run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMBA_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_child(argv, deadline, what, stdout=None) -> float:
    """Run a Python child to its end and return its wall time.

    The wait blocks in waitpid rather than polling (as a wait with a timeout
    does, in steps of up to 50 ms), so the time is exact; a timer kills the
    child at the deadline.
    """
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"no time left for {what}")
    expired = threading.Event()
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], env=child_env(), stdout=stdout)

    def kill():
        expired.set()
        proc.kill()

    timer = threading.Timer(remaining, kill)
    timer.start()
    try:
        code = proc.wait()
        wall = time.perf_counter() - t0
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if expired.is_set():
        raise BenchError(f"{what} did not finish in time")
    if code != 0:
        raise BenchError(f"{what} exited with code {code}")
    return wall


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=30,
                             capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def source_sha256() -> str:
    """Hash of the program's source files: the commit, where git is absent."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def env_stamp(worker_env: dict) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": worker_env["numpy"],
        "kernels_backend": worker_env["backend"],
        "numba_imports": worker_env["numba_imports"],
        "commit": git_commit(),
        "source_sha256": source_sha256(),
        "threads": {var: child_env()[var] for var in THREAD_VARS},
    }


def repeat_check(workload: str, seed: int, source: str, passes: list[dict]) -> dict:
    """Deterministic counts must repeat between the passes of this run and
    every earlier run of the same source, workload definition and seed."""
    source = f"{source} {WORKLOADS[workload].synth} {WORKLOADS[workload].command}"
    good = [p["repeat"] for p in passes if not p["failures"]]
    if not good:
        return {"status": "no passed pass to compare"}
    counts = good[0]
    within = sorted({k for p in good[1:] for k in p if p[k] != counts.get(k)})
    store = WORK / "repeat" / f"{workload}-seed{seed}.json"
    earlier = None
    if store.exists():
        earlier = json.loads(store.read_text())
        if earlier.get("source") != source:
            earlier = None
    across = {}
    if earlier is not None:
        old = earlier["counts"]
        across = {k: [old[k], counts[k]] for k in old.keys() & counts.keys()
                  if old[k] != counts[k]}
        runs = earlier.get("runs", 1) + 1
    else:
        runs = 1
    store.parent.mkdir(parents=True, exist_ok=True)
    store.write_text(json.dumps({"source": source, "counts": counts, "runs": runs},
                                sort_keys=True))
    status = "mismatch" if within or across else (
        f"repeated exactly in {runs} runs" if runs > 1 else "first run of this source")
    return {"status": status, "within_run": within, "across_runs": across,
            "counts": counts}


def timed_passes(passes: list[dict]) -> list[dict]:
    """The untraced passes that passed their checks, or all untraced passes
    if none did (a failed pass may have stopped early)."""
    untraced = [p for p in passes if not p["traced"]]
    return [p for p in untraced if not p["failures"]] or untraced


def e2e_metrics(worker: dict, setup: list[dict]) -> dict:
    untraced = [p for p in worker["passes"] if not p["traced"]]
    ok = [p for p in untraced if not p["failures"]]
    first = ok[0] if ok else {}
    timed = timed_passes(worker["passes"])
    components = sum(p["components"] for p in untraced)
    nonconverged = sum(p["nonconverged"] for p in untraced)
    return {
        "setup_s": statistics.median(p["scaled_s"] for p in setup),
        "pairs_per_s": worker["pairs_per_pass"] / statistics.median(
            p["scaled_s"] for p in timed),
        "peak_rss_mb": worker["peak_rss_mb"],
        "energy_per_weight": first.get("energy_per_weight", 0.0),
        "macro_f1": first.get("macro_f1", 0.0),
        "converged_frac": 1.0 - nonconverged / components if components else 0.0,
    }


def probe_setup(run_dir: Path, deadline: float) -> list[dict]:
    probes = []
    record = run_dir / "probe.json"
    for _ in range(SETUP_PROBES // 2):
        wall = run_child([str(HERE / "setup_probe.py"), str(ROOT), str(run_dir), str(record)],
                         deadline, "set-up probe", stdout=subprocess.DEVNULL)
        meter = json.loads(record.read_text())
        probes.append({"wall_s": wall, "scaled_s": speed.scaled_time(
            wall, meter["busy_s"], meter["samples"])})
    return probes


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    run_dir = WORK / f"run-{name}-seed{seed}-{os.getpid()}"
    results_dir = WORK / "results"
    stem = f"{name}-seed{seed}-trace{trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    results_dir.mkdir(parents=True, exist_ok=True)
    try:
        run_child([str(HERE / "gen.py"), "--root", str(ROOT), "--workload", name,
                   "--seed", str(seed), "--out", str(run_dir)], deadline, "input generation")
        setup = probe_setup(run_dir, deadline)
        worker_file = run_dir / "worker.json"
        run_child([str(HERE / "worker.py"), "--root", str(ROOT), "--workload", name,
                   "--inputs", str(run_dir), "--seconds", str(seconds),
                   "--trace", str(trace), "--result", str(worker_file),
                   "--spans", str(results_dir / f"{stem}-spans.jsonl")],
                  deadline, "worker", stdout=sys.stderr)
        worker = json.loads(worker_file.read_text())
        setup += probe_setup(run_dir, deadline)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    env = env_stamp(worker["env"])
    passes = worker["passes"]
    failures = [f for p in passes for f in p["failures"]]
    repeat = repeat_check(name, seed, env["source_sha256"], passes)
    if trace:
        layers = worker.get("layers", {})  # none if no traced pass fit in time
        metrics = {k: layers.get(k, 0.0) for k, _, _ in PER_LAYER}
        units = PER_LAYER
    else:
        metrics = e2e_metrics(worker, setup)
        units = END_TO_END
    summary = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "env": env,
        "correct": not failures and repeat["status"] != "mismatch",
        "attempted": len(passes),
        "failed": sum(1 for p in passes if p["failures"] or p["nonconverged"]),
        "failures": failures[:10],
        "repeat": repeat,
        "pass_wall_s": [p["wall_s"] for p in passes if not p["traced"]],
        "pass_scaled_s": [p["scaled_s"] for p in passes if not p["traced"]],
        "traced_pass_wall_s": [p["wall_s"] for p in passes if p["traced"]],
        "pairs_per_pass": worker["pairs_per_pass"],
        "pairs_per_wall_s": worker["pairs_per_pass"] / statistics.median(
            p["wall_s"] for p in timed_passes(passes)),
        "setup_wall_s": [p["wall_s"] for p in setup],
        "setup_scaled_s": [p["scaled_s"] for p in setup],
        "absent_layers": worker["absent_layers"],
        "absent_targets": worker["absent_targets"],
        "count_errors": worker["count_errors"],
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit, _ in units},
    }
    (results_dir / f"{stem}.json").write_text(json.dumps(summary, indent=1, sort_keys=True))
    return summary


def print_summary(s: dict) -> None:
    env = s["env"]
    walls = s["pass_wall_s"]
    print(f"perfbench {s['workload']}  seed={s['seed']}  seconds={s['seconds']}  "
          f"trace={s['trace']}: {len(walls)} untraced and "
          f"{len(s['traced_pass_wall_s'])} traced passes, "
          f"{s['pairs_per_pass']} pairs per pass")
    for what, times in (("untraced pass wall", walls),
                        ("untraced pass scaled", s["pass_scaled_s"]),
                        ("set-up probe wall", s["setup_wall_s"]),
                        ("set-up probe scaled", s["setup_scaled_s"])):
        print(f"  {what + ' time:':<29} fastest {min(times):.4g} s, "
              f"median {statistics.median(times):.4g} s, slowest {max(times):.4g} s")
    print(f"  pairs per wall second (median pass): {s['pairs_per_wall_s']:.6g}")
    print(f"  env: {env['nproc']} cores ({env['cpu_model']}), python {env['python']}, "
          f"numpy {env['numpy']}, kernel backend {env['kernels_backend']}, numba "
          f"{'imports' if env['numba_imports'] else 'absent'}, commit {env['commit']}, "
          f"source {env['source_sha256'][:12]}")
    print("  threads: " + " ".join(f"{k}={v}" for k, v in env["threads"].items()))
    for name, m in s["metrics"].items():
        print(f"  {name:<26} {m['value']:>16.6g} {m['unit']}")
    if s["absent_layers"] or s["count_errors"]:
        print(f"  absent layers: {s['absent_layers']}; counters that no longer "
              f"fit: {s['count_errors']}")
    print(f"  checks: {s['attempted']} passes, {s['failed']} failed"
          + "".join(f"\n    {f.strip()}" for f in s["failures"]))
    print(f"  deterministic counts: {s['repeat']['status']}")
    for key, (old, new) in s["repeat"].get("across_runs", {}).items():
        print(f"    {key}: {old!r} earlier, {new!r} now")
    for key in s["repeat"].get("within_run", []):
        print(f"    {key}: differs between passes of this run")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "arglogic" / "__init__.py").is_file():
        print(f"error: no arglogic source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        summaries = [run_workload(n, args.seed, args.seconds, args.trace) for n in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for s in summaries:
        print_summary(s)
    if len(summaries) == 1:
        metrics = summaries[0]["metrics"]
    else:
        metrics = {f"{s['workload']}.{k}": m for s in summaries
                   for k, m in s["metrics"].items()}
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
