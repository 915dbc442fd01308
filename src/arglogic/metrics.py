"""Accuracy, per-class F1, macro one-vs-rest AUC, and paired bootstrap."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import ValidationError, labels_for_mode


@dataclass
class MetricsReport:
    task_mode: str
    accuracy: float
    macro_f1: float
    f1: dict[str, float]
    macro_auc: float
    support_counts: dict[str, int]
    n_pairs: int


def _accuracy_f1(gold: np.ndarray, pred: np.ndarray,
                 n_labels: int) -> tuple[float, float, list[float]]:
    """Accuracy, macro F1 and each label's F1 (0/0 read as 0) of two
    label-index arrays."""
    f1s = []
    for li in range(n_labels):
        is_gold, is_pred = gold == li, pred == li
        denom = int(np.count_nonzero(is_gold) + np.count_nonzero(is_pred))  # 2 tp + fp + fn
        f1s.append(2 * int(np.count_nonzero(is_gold & is_pred)) / denom if denom else 0.0)
    return float(np.mean(gold == pred)), float(np.mean(f1s)), f1s


def _rank_auc(scores: np.ndarray, positives: np.ndarray) -> float:
    """One-vs-rest AUC via the rank statistic, ties credited 0.5; NaN
    without both a positive and a negative."""
    n_pos = int(positives.sum())
    n_neg = len(scores) - n_pos
    if n_pos == 0 or n_neg == 0:
        return float("nan")
    _, value, ties = np.unique(scores, return_inverse=True, return_counts=True)
    # tied scores share the mean of their 1-based ranks, end - (ties - 1) / 2
    ranks = (np.cumsum(ties) - 0.5 * (ties - 1))[value]
    r_pos = ranks[positives].sum()
    return float((r_pos - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


def compute_metrics(predictions: dict, golds: dict[str, str],
                    task_mode: str) -> MetricsReport:
    """Metric suite over gold-labeled pairs.

    `predictions` maps pair_id to an object with .predicted and .scores
    (relation -> continuous value used for AUC).
    """
    if not golds:
        raise ValidationError("empty evaluation set")
    labels = labels_for_mode(task_mode)
    pair_ids = sorted(golds)
    for pid in pair_ids:
        if golds[pid] not in labels:
            raise ValidationError(f"gold label {golds[pid]!r} illegal for {task_mode}")
        if pid not in predictions:
            raise ValidationError(f"missing prediction for pair {pid!r}")

    gold_arr = np.array([labels.index(golds[pid]) for pid in pair_ids])
    pred_arr = np.array([labels.index(predictions[pid].predicted) for pid in pair_ids])
    accuracy, macro_f1, f1s = _accuracy_f1(gold_arr, pred_arr, len(labels))
    f1 = dict(zip(labels, f1s))
    counts = {label: int(np.count_nonzero(gold_arr == li)) for li, label in enumerate(labels)}

    aucs = []
    for li, label in enumerate(labels):
        scores = np.array([predictions[pid].scores.get(label, 0.0)
                           for pid in pair_ids])
        auc = _rank_auc(scores, gold_arr == li)
        if not np.isnan(auc):
            aucs.append(auc)
    macro_auc = float(np.mean(aucs)) if aucs else float("nan")

    return MetricsReport(task_mode, accuracy, macro_f1, f1, macro_auc,
                         counts, len(pair_ids))


def format_table(report: MetricsReport, name: str = "model") -> str:
    """Aligned plain-text row in ACC / AUC / F1 / per-class-F1 order."""
    labels = labels_for_mode(report.task_mode)
    headers = ["ACC", "AUC", "F1"] + [f"F1_{lbl[:3]}" for lbl in labels]
    values = [report.accuracy, report.macro_auc, report.macro_f1]
    values += [report.f1[lbl] for lbl in labels]
    head = f"{'':16s}" + "".join(f"{h:>8s}" for h in headers)
    row = f"{name:16s}" + "".join(f"{100 * v:8.1f}" for v in values)
    return head + "\n" + row


# ---------------------------------------------------------------------------
# paired bootstrap

BOOTSTRAP_METRICS = ("accuracy", "macro_f1")  # the first two results of _accuracy_f1
SIGNIFICANCE_LEVELS = {0.05: "*", 0.01: "+", 0.001: "++"}


def paired_bootstrap(pred_a: dict, pred_b: dict, golds: dict[str, str],
                     task_mode: str, n_resamples: int = 10_000,
                     seed: int = 0) -> dict[str, float]:
    """One-sided test: p = fraction of resamples where system A does not
    outperform system B on the metric.  Per-resample seeds are derived
    as seed + index, so the test is deterministic and parallelizable."""
    labels = labels_for_mode(task_mode)
    pair_ids = sorted(golds)
    if set(pair_ids) - set(pred_a) or set(pair_ids) - set(pred_b):
        raise ValidationError("prediction sets are not aligned on the gold pairs")
    n = len(pair_ids)
    gold = np.array([labels.index(golds[pid]) for pid in pair_ids])
    a = np.array([labels.index(pred_a[pid].predicted) for pid in pair_ids])
    b = np.array([labels.index(pred_b[pid].predicted) for pid in pair_ids])

    losses = np.zeros(len(BOOTSTRAP_METRICS), dtype=int)
    for i in range(n_resamples):
        idx = np.random.default_rng(seed + i).integers(0, n, size=n)
        ma = _accuracy_f1(gold[idx], a[idx], len(labels))[:2]
        mb = _accuracy_f1(gold[idx], b[idx], len(labels))[:2]
        losses += np.less_equal(ma, mb)
    return {m: int(lost) / n_resamples for m, lost in zip(BOOTSTRAP_METRICS, losses)}


def significance_marker(p: float) -> str:
    marker = ""
    for level in sorted(SIGNIFICANCE_LEVELS, reverse=True):
        if p < level:
            marker = SIGNIFICANCE_LEVELS[level]
    return marker
