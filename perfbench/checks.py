"""Output checks on each pass, and the quality figures taken from it.

Every function returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import json
import math
from collections import Counter

TOL = 1e-9
MAX_MESSAGES = 5


def read_records(path) -> list[dict]:
    """The records of a JSONL predictions file."""
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def labels_for(task_mode: str) -> tuple[str, ...]:
    if task_mode == "ternary":
        return ("support", "attack", "neutral")
    return ("support", "attack")


def _is_prob(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value) and 0.0 <= value <= 1.0)


def check_predictions(records: list[dict], expected_ids, task_mode: str) -> list[str]:
    """Each expected pair appears exactly once with a valid label distribution.

    Scores lie in [0, 1] and sum to 1 within TOL, `neutral` is present if
    and only if the mode is ternary, and `predicted` is a label of the mode
    that holds the maximum score within TOL.
    """
    failures = []
    labels = labels_for(task_mode)
    seen = Counter(rec.get("pair_id") for rec in records)
    expected = set(expected_ids)
    missing = sorted(expected - seen.keys())
    extra = sorted(pid for pid in seen if pid not in expected)
    repeated = sorted(pid for pid, n in seen.items() if n > 1 and pid in expected)
    for what, pids in (("missing", missing), ("unexpected", extra),
                       ("repeated", repeated)):
        if pids:
            failures.append(f"{len(pids)} {what} pair(s), e.g. {pids[:3]}")

    bad = []
    for rec in records:
        pid = rec.get("pair_id")
        if ("neutral" in rec) != (task_mode == "ternary"):
            bad.append(f"{pid}: neutral score presence does not match {task_mode} mode")
            continue
        scores = [rec.get(label) for label in labels]
        if not all(_is_prob(s) for s in scores):
            bad.append(f"{pid}: score outside [0, 1] or not a number: {scores}")
            continue
        total = math.fsum(scores)
        if abs(total - 1.0) > TOL:
            bad.append(f"{pid}: scores sum to {total!r}")
        predicted = rec.get("predicted")
        if predicted not in labels:
            bad.append(f"{pid}: predicted {predicted!r} is not a {task_mode} label")
        elif rec[predicted] < max(scores) - TOL:
            bad.append(f"{pid}: predicted {predicted!r} does not hold the maximum score")
    if bad:
        failures.append(f"{len(bad)} bad record(s): " + "; ".join(bad[:MAX_MESSAGES]))
    return failures


def records_from_result(result, task_mode: str) -> list[dict]:
    """The in-memory predictions of an InferenceResult, in the written
    record shape (labels the solver did not report score 0)."""
    records = []
    for pid, pred in result.predictions.items():
        rec = {"pair_id": pid, "predicted": pred.predicted}
        for label in labels_for(task_mode):
            rec[label] = pred.scores.get(label, 0.0)
        records.append(rec)
    return records


def best_row(configs: list[dict]) -> int:
    """Index of the earliest row with the minimum normalized objective."""
    objectives = [row["normalized_objective"] for row in configs]
    return objectives.index(min(objectives))


def check_sweep_report(report: dict, grid_points: int) -> list[str]:
    """One row per grid point; `best` is the earliest minimum row."""
    configs = report.get("configs")
    if not isinstance(configs, list) or len(configs) != grid_points:
        n = len(configs) if isinstance(configs, list) else configs
        return [f"sweep report holds {n} config rows, expected {grid_points}"]
    keys = {(row.get("w_chain"), row.get("w_prior")) for row in configs}
    if len(keys) != grid_points:
        return ["sweep report repeats a grid point"]
    objectives = [row.get("normalized_objective") for row in configs]
    if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in objectives):
        return [f"non-finite normalized objective in {objectives}"]
    chosen = configs[best_row(configs)]
    best = report.get("best", {})
    if (best.get("w_chain"), best.get("w_prior")) != (chosen["w_chain"], chosen["w_prior"]):
        return [f"best {best} is not the earliest minimum row {chosen}"]
    return []


def check_finite(name: str, value) -> list[str]:
    if isinstance(value, (int, float)) and math.isfinite(value):
        return []
    return [f"{name} is not finite: {value!r}"]


def macro_f1(records: list[dict], golds: dict[str, str], task_mode: str) -> float:
    """Macro F1 over the labels of the mode, for records that have a gold."""
    tp, fp, fn = Counter(), Counter(), Counter()
    for rec in records:
        gold = golds.get(rec["pair_id"])
        if gold is None:
            continue
        pred = rec["predicted"]
        if pred == gold:
            tp[gold] += 1
        else:
            fp[pred] += 1
            fn[gold] += 1
    f1 = []
    for label in labels_for(task_mode):
        denom = 2 * tp[label] + fp[label] + fn[label]
        f1.append(2 * tp[label] / denom if denom else 0.0)
    return sum(f1) / len(f1)
