"""Argument graph, relation labels, score bundles, and dataset I/O.

The dataset lives in two line-delimited JSON files: an arguments file
(one statement/claim pair per line) and a scores file (one bundle of
upstream probabilities per line).  See FORMATS.md for field names.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import dataclass, field
from typing import Iterable, Optional

log = logging.getLogger(__name__)

SUPPORT = "support"
ATTACK = "attack"
NEUTRAL = "neutral"

TERNARY_LABELS = (SUPPORT, ATTACK, NEUTRAL)
BINARY_LABELS = (SUPPORT, ATTACK)

DIST_TOL = 1e-3  # pairwise-sum slack (normative blocks)
DIST_RENORM_TOL = 1e-2 + 1e-9  # 3-way distributions further off are hard errors


class ValidationError(ValueError):
    """Raised for malformed or inconsistent input data."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def labels_for_mode(task_mode: str) -> tuple[str, ...]:
    if task_mode == "ternary":
        return TERNARY_LABELS
    if task_mode == "binary":
        return BINARY_LABELS
    raise ValidationError(f"unknown task_mode {task_mode!r}")


def default_label(task_mode: str) -> str:
    """The no-evidence relation: neutral (ternary) or attack (binary)."""
    return NEUTRAL if task_mode == "ternary" else ATTACK


@dataclass(frozen=True)
class ArgumentPair:
    pair_id: str
    statement_id: str
    claim_id: str
    kind: str = "direct"  # direct | indirect
    gold: Optional[str] = None
    split: str = "test"  # fit | val | test

    def __post_init__(self):
        if self.statement_id == self.claim_id:
            raise ValidationError(
                f"pair {self.pair_id!r}: statement_id equals claim_id"
            )
        if self.kind not in ("direct", "indirect"):
            raise ValidationError(f"pair {self.pair_id!r}: bad kind {self.kind!r}")
        if self.split not in ("fit", "val", "test"):
            raise ValidationError(f"pair {self.pair_id!r}: bad split {self.split!r}")
        if self.gold is not None and self.gold not in TERNARY_LABELS:
            raise ValidationError(f"pair {self.pair_id!r}: bad gold {self.gold!r}")


@dataclass(frozen=True)
class NliScores:
    p_ent: float
    p_con: float
    p_neu: float


@dataclass(frozen=True)
class SlotScore:
    p_ent: float
    p_con: float


@dataclass(frozen=True)
class TuplePairScores:
    slots: tuple[SlotScore, ...]


@dataclass(frozen=True)
class SentiDist:
    p_pos: float
    p_neg: float
    p_neu: float


@dataclass(frozen=True)
class SentiPairScores:
    p_match: float
    s_stmt: SentiDist
    s_claim: SentiDist


@dataclass(frozen=True)
class CausalScores:
    sc_cause: float
    sc_obstruct: float
    cs_cause: float
    cs_obstruct: float


@dataclass(frozen=True)
class NormativeScores:
    p_conseq: float
    p_norm: float
    q_pos: float
    q_neg: float
    p_adv: float
    p_opp: float
    r_consist: float
    r_contra: float


@dataclass(frozen=True)
class ScoreBundle:
    pair_id: str
    nli: Optional[NliScores] = None
    fact_pairs: Optional[tuple[TuplePairScores, ...]] = None
    senti_pairs: Optional[tuple[SentiPairScores, ...]] = None
    causal: Optional[CausalScores] = None
    normative: Optional[NormativeScores] = None


@dataclass
class ArgumentGraph:
    """Immutable-after-load collection of pairs with a node adjacency index."""

    task_mode: str = "ternary"
    pairs: dict[str, ArgumentPair] = field(default_factory=dict)
    adjacency: dict[str, list[str]] = field(default_factory=dict)

    def add_pair(self, pair: ArgumentPair, line=None):
        if pair.pair_id in self.pairs:
            raise ValidationError(f"duplicate pair_id {pair.pair_id!r}", line)
        if self.task_mode == "binary" and pair.gold == NEUTRAL:
            raise ValidationError(
                f"pair {pair.pair_id!r}: neutral gold is illegal in binary mode", line
            )
        self.pairs[pair.pair_id] = pair
        for node in (pair.statement_id, pair.claim_id):
            self.adjacency.setdefault(node, []).append(pair.pair_id)

    def __iter__(self):
        return iter(self.pairs.values())

    def __len__(self):
        return len(self.pairs)

    def direct_pairs(self) -> list[ArgumentPair]:
        return [p for p in self.pairs.values() if p.kind == "direct"]

    def indirect_pairs(self) -> list[ArgumentPair]:
        return [p for p in self.pairs.values() if p.kind == "indirect"]


def connected_components(graph: ArgumentGraph) -> list[list[ArgumentPair]]:
    """Partition pairs into components; pairs sharing a node are connected.

    Chain triples never bridge otherwise-disconnected pairs because every
    triple's three pairs already share nodes pairwise through S, I, C.
    """
    parent: dict[str, str] = {}

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for pid, pair in graph.pairs.items():
        parent.setdefault(pid, pid)
    for node, pids in graph.adjacency.items():
        for other in pids[1:]:
            union(pids[0], other)

    groups: dict[str, list[ArgumentPair]] = {}
    for pid in sorted(graph.pairs):
        groups.setdefault(find(pid), []).append(graph.pairs[pid])
    # deterministic order: by smallest pair_id in the component
    return [groups[k] for k in sorted(groups, key=lambda r: min(p.pair_id for p in groups[r]))]


# ---------------------------------------------------------------------------
# parsing helpers

def _check_prob(value, name, line):
    try:
        v = float(value)
    except (TypeError, ValueError):
        raise ValidationError(f"field {name!r} is not a number: {value!r}", line)
    if not (0.0 <= v <= 1.0):
        raise ValidationError(f"field {name!r} out of [0, 1]: {v}", line)
    return v


def _object(value, name, line) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"field {name!r} must be an object, got {value!r}", line)
    return value


def _array(value, name, line) -> list:
    if not isinstance(value, list):
        raise ValidationError(f"field {name!r} must be an array, got {value!r}", line)
    return value


def _normalize_dist(values, names, line, context):
    vals = [_check_prob(v, n, line) for v, n in zip(values, names)]
    total = sum(vals)
    deviation = abs(total - 1.0)
    if deviation > DIST_RENORM_TOL:
        raise ValidationError(
            f"{context}: distribution {dict(zip(names, vals))} sums to {total:.6f}", line
        )
    if deviation > 1e-12:
        if deviation > 1e-6:
            log.warning("%s: distribution sums to %.6f, renormalizing (line %s)",
                        context, total, line)
        vals = [v / total for v in vals]
    return vals


def _check_pair_sum(a, b, names, line, context):
    if a + b > 1.0 + DIST_TOL:
        raise ValidationError(
            f"{context}: {names[0]} + {names[1]} = {a + b:.6f} exceeds 1", line
        )


_PAIR_FIELDS = {"pair_id", "statement_id", "claim_id", "kind", "gold", "split"}
_BUNDLE_FIELDS = {"pair_id", "nli", "fact_pairs", "senti_pairs", "causal", "normative"}


def _warn_unknown(record, known, line, context):
    for key in record:
        if key not in known:
            log.warning("%s: ignoring unknown field %r (line %s)", context, key, line)


def parse_pair(record: dict, line=None) -> ArgumentPair:
    _warn_unknown(record, _PAIR_FIELDS, line, "arguments")
    try:
        return ArgumentPair(
            pair_id=str(record["pair_id"]),
            statement_id=str(record["statement_id"]),
            claim_id=str(record["claim_id"]),
            kind=record.get("kind", "direct"),
            gold=record.get("gold"),
            split=record.get("split", "test"),
        )
    except KeyError as exc:
        raise ValidationError(f"missing field {exc.args[0]!r}", line)
    except ValidationError as exc:
        raise ValidationError(str(exc), line) from None


def parse_bundle(record: dict, line=None) -> ScoreBundle:
    _warn_unknown(record, _BUNDLE_FIELDS, line, "scores")
    if "pair_id" not in record:
        raise ValidationError("missing field 'pair_id'", line)
    pair_id = str(record["pair_id"])

    nli = None
    if record.get("nli") is not None:
        r = _object(record["nli"], "nli", line)
        p_ent, p_con, p_neu = _normalize_dist(
            (r.get("p_ent", 0), r.get("p_con", 0), r.get("p_neu", 0)),
            ("nli.p_ent", "nli.p_con", "nli.p_neu"), line, f"bundle {pair_id!r}")
        nli = NliScores(p_ent, p_con, p_neu)

    fact_pairs = None
    if record.get("fact_pairs") is not None:
        pairs = []
        for i, tp in enumerate(_array(record["fact_pairs"], "fact_pairs", line)):
            tp = _object(tp, f"fact_pairs[{i}]", line)
            slots = _array(tp.get("slots", []), f"fact_pairs[{i}].slots", line)
            if not slots:
                raise ValidationError(
                    f"bundle {pair_id!r}: fact_pairs[{i}] has no slots", line)
            parsed = []
            for k, slot in enumerate(slots):
                name = f"fact_pairs[{i}].slots[{k}]"
                slot = _object(slot, name, line)
                parsed.append(SlotScore(_check_prob(slot.get("p_ent", 0), f"{name}.p_ent", line),
                                        _check_prob(slot.get("p_con", 0), f"{name}.p_con", line)))
            pairs.append(TuplePairScores(tuple(parsed)))
        fact_pairs = tuple(pairs)

    senti_pairs = None
    if record.get("senti_pairs") is not None:
        pairs = []
        for i, sp in enumerate(_array(record["senti_pairs"], "senti_pairs", line)):
            sp = _object(sp, f"senti_pairs[{i}]", line)
            p_match = _check_prob(sp.get("p_match", 0), f"senti_pairs[{i}].p_match", line)
            dists = []
            for side in ("s_stmt", "s_claim"):
                d = _object(sp.get(side, {}), f"senti_pairs[{i}].{side}", line)
                vals = _normalize_dist(
                    (d.get("p_pos", 0), d.get("p_neg", 0), d.get("p_neu", 0)),
                    (f"senti_pairs[{i}].{side}.p_pos",
                     f"senti_pairs[{i}].{side}.p_neg",
                     f"senti_pairs[{i}].{side}.p_neu"),
                    line, f"bundle {pair_id!r}")
                dists.append(SentiDist(*vals))
            pairs.append(SentiPairScores(p_match, dists[0], dists[1]))
        senti_pairs = tuple(pairs)

    causal = None
    if record.get("causal") is not None:
        r = _object(record["causal"], "causal", line)
        causal = CausalScores(
            _check_prob(r.get("sc_cause", 0), "causal.sc_cause", line),
            _check_prob(r.get("sc_obstruct", 0), "causal.sc_obstruct", line),
            _check_prob(r.get("cs_cause", 0), "causal.cs_cause", line),
            _check_prob(r.get("cs_obstruct", 0), "causal.cs_obstruct", line),
        )

    normative = None
    if record.get("normative") is not None:
        r = _object(record["normative"], "normative", line)
        vals = {
            name: _check_prob(r.get(name, 0), f"normative.{name}", line)
            for name in ("p_conseq", "p_norm", "q_pos", "q_neg",
                         "p_adv", "p_opp", "r_consist", "r_contra")
        }
        ctx = f"bundle {pair_id!r}"
        _check_pair_sum(vals["q_pos"], vals["q_neg"], ("q_pos", "q_neg"), line, ctx)
        _check_pair_sum(vals["p_adv"], vals["p_opp"], ("p_adv", "p_opp"), line, ctx)
        _check_pair_sum(vals["r_consist"], vals["r_contra"],
                        ("r_consist", "r_contra"), line, ctx)
        normative = NormativeScores(**vals)

    return ScoreBundle(pair_id, nli, fact_pairs, senti_pairs, causal, normative)


def _iter_jsonl(path):
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                record = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"malformed JSON: {exc}", lineno)
            if not isinstance(record, dict):
                raise ValidationError("record is not an object", lineno)
            yield lineno, record


def load_json_object(path, what: str) -> dict:
    """One JSON object from a file (a config); `what` names it in errors."""
    with open(path) as fh:
        try:
            record = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{what} {path}: invalid JSON: {exc}") from None
    if not isinstance(record, dict):
        raise ValidationError(f"{what} {path} must hold a JSON object")
    return record


def load_arguments(path, task_mode: str) -> ArgumentGraph:
    graph = ArgumentGraph(task_mode=task_mode)
    for lineno, record in _iter_jsonl(path):
        graph.add_pair(parse_pair(record, lineno), lineno)
    return graph


def load_scores(path, graph: ArgumentGraph) -> dict[str, ScoreBundle]:
    bundles: dict[str, ScoreBundle] = {}
    for lineno, record in _iter_jsonl(path):
        bundle = parse_bundle(record, lineno)
        if bundle.pair_id not in graph.pairs:
            raise ValidationError(
                f"bundle references unknown pair_id {bundle.pair_id!r}", lineno)
        if bundle.pair_id in bundles:
            raise ValidationError(f"duplicate bundle for pair {bundle.pair_id!r}", lineno)
        bundles[bundle.pair_id] = bundle
    return bundles


def load_dataset(arguments_path, scores_path, task_mode="ternary"):
    """Load and validate a dataset; returns (graph, pair_id -> ScoreBundle)."""
    graph = load_arguments(arguments_path, task_mode)
    bundles = load_scores(scores_path, graph)
    return graph, bundles


# ---------------------------------------------------------------------------
# serialization (round-trips through load_dataset)

def pair_to_record(pair: ArgumentPair) -> dict:
    rec = {
        "pair_id": pair.pair_id,
        "statement_id": pair.statement_id,
        "claim_id": pair.claim_id,
        "kind": pair.kind,
        "split": pair.split,
    }
    if pair.gold is not None:
        rec["gold"] = pair.gold
    return rec


def bundle_to_record(bundle: ScoreBundle) -> dict:
    rec: dict = {"pair_id": bundle.pair_id}
    if bundle.nli is not None:
        rec["nli"] = {"p_ent": bundle.nli.p_ent, "p_con": bundle.nli.p_con,
                      "p_neu": bundle.nli.p_neu}
    if bundle.fact_pairs is not None:
        rec["fact_pairs"] = [
            {"slots": [{"p_ent": s.p_ent, "p_con": s.p_con} for s in tp.slots]}
            for tp in bundle.fact_pairs
        ]
    if bundle.senti_pairs is not None:
        rec["senti_pairs"] = [
            {
                "p_match": sp.p_match,
                "s_stmt": {"p_pos": sp.s_stmt.p_pos, "p_neg": sp.s_stmt.p_neg,
                           "p_neu": sp.s_stmt.p_neu},
                "s_claim": {"p_pos": sp.s_claim.p_pos, "p_neg": sp.s_claim.p_neg,
                            "p_neu": sp.s_claim.p_neu},
            }
            for sp in bundle.senti_pairs
        ]
    if bundle.causal is not None:
        c = bundle.causal
        rec["causal"] = {"sc_cause": c.sc_cause, "sc_obstruct": c.sc_obstruct,
                         "cs_cause": c.cs_cause, "cs_obstruct": c.cs_obstruct}
    if bundle.normative is not None:
        n = bundle.normative
        rec["normative"] = {
            "p_conseq": n.p_conseq, "p_norm": n.p_norm,
            "q_pos": n.q_pos, "q_neg": n.q_neg,
            "p_adv": n.p_adv, "p_opp": n.p_opp,
            "r_consist": n.r_consist, "r_contra": n.r_contra,
        }
    return rec


def _write_atomic(path, text_lines: Iterable[str]):
    """Write through a temporary file, so readers never see a partial file."""
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.writelines(text_lines)
    os.replace(tmp, path)


def dump_jsonl(records: Iterable[dict], path):
    _write_atomic(path, (json.dumps(rec, sort_keys=True) + "\n" for rec in records))


def dump_json(payload: dict, path):
    """One indented JSON object (sweep and eval reports)."""
    _write_atomic(path, [json.dumps(payload, indent=2, sort_keys=True) + "\n"])
