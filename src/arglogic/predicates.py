"""Closed-form evaluation of the 13 rule-body predicate values.

Each evaluator turns one block of upstream probability scores into the
observed truth value(s) of the corresponding soft-logic rule bodies.
Absent blocks yield absent predicate values, which later suppresses
grounding of the corresponding rules; an *empty* list is evidence of
"nothing found" and evaluates to 0.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

from .model import (
    CausalScores,
    NliScores,
    NormativeScores,
    ScoreBundle,
    SentiPairScores,
    TuplePairScores,
)

# ablation mechanism names -> predicate fields they control
MECHANISMS = {
    "fact": ("fact_entail", "fact_contradict", "fact_conflict"),
    "sentiment": ("senti_conflict", "senti_coherent"),
    "causal": ("cause_sc", "obstruct_sc", "cause_cs", "obstruct_cs"),
    "normative": ("backing_conseq", "refuting_conseq",
                  "backing_norm", "refuting_norm"),
}


@dataclass(frozen=True)
class PredicateVector:
    fact_entail: Optional[float] = None
    fact_contradict: Optional[float] = None
    fact_conflict: Optional[float] = None
    senti_conflict: Optional[float] = None
    senti_coherent: Optional[float] = None
    cause_sc: Optional[float] = None
    obstruct_sc: Optional[float] = None
    cause_cs: Optional[float] = None
    obstruct_cs: Optional[float] = None
    backing_conseq: Optional[float] = None
    refuting_conseq: Optional[float] = None
    backing_norm: Optional[float] = None
    refuting_norm: Optional[float] = None

    def present(self) -> dict[str, float]:
        return {name: v for name in PREDICATE_NAMES
                if (v := getattr(self, name)) is not None}


PREDICATE_NAMES = tuple(f.name for f in fields(PredicateVector))


def eval_fact(nli: NliScores) -> tuple[float, float]:
    """Entailment and contradiction probabilities pass through directly."""
    return nli.p_ent, nli.p_con


def eval_fact_conflict(fact_pairs: tuple[TuplePairScores, ...]) -> float:
    """Best slot-level conflict: one slot contradicts while the rest entail."""
    best = 0.0
    for tp in fact_pairs:
        n = len(tp.slots)
        for k in range(n):
            value = tp.slots[k].p_con
            for k2 in range(n):
                if k2 != k:
                    value *= tp.slots[k2].p_ent
            if value > best:
                best = value
    return best


def eval_sentiment(senti_pairs: tuple[SentiPairScores, ...]) -> tuple[float, float]:
    """Max over target pairs of opposite-polarity and same-polarity mass.

    The two maxima may come from different target pairs.
    """
    conflict = 0.0
    coherent = 0.0
    for sp in senti_pairs:
        s, c = sp.s_stmt, sp.s_claim
        conflict = max(conflict, sp.p_match * (s.p_pos * c.p_neg + s.p_neg * c.p_pos))
        coherent = max(coherent, sp.p_match * (s.p_pos * c.p_pos + s.p_neg * c.p_neg))
    return conflict, coherent


def eval_causal(causal: CausalScores) -> tuple[float, float, float, float]:
    """Directional cause/obstruct probabilities pass through.

    The first two drive cause-to-effect reasoning, the last two the
    reversed effect-to-cause direction.
    """
    return causal.sc_cause, causal.sc_obstruct, causal.cs_cause, causal.cs_obstruct


def eval_normative(n: NormativeScores) -> tuple[float, float, float, float]:
    backing_conseq = n.p_conseq * (n.q_pos * n.r_consist + n.q_neg * n.r_contra)
    refuting_conseq = n.p_conseq * (n.q_neg * n.r_consist + n.q_pos * n.r_contra)
    backing_norm = n.p_norm * (n.p_adv * n.r_consist + n.p_opp * n.r_contra)
    refuting_norm = n.p_norm * (n.p_opp * n.r_consist + n.p_adv * n.r_contra)
    return backing_conseq, refuting_conseq, backing_norm, refuting_norm


def evaluate_all(bundle: ScoreBundle, ablate: frozenset[str] = frozenset()) -> PredicateVector:
    """Evaluate every predicate whose source block is present.

    `ablate` names mechanisms ("fact", "sentiment", "causal", "normative")
    whose blocks are treated as absent, mirroring rule-family ablations.
    """
    out: dict[str, float] = {}
    if bundle.nli is not None and "fact" not in ablate:
        out["fact_entail"], out["fact_contradict"] = eval_fact(bundle.nli)
    if bundle.fact_pairs is not None and "fact" not in ablate:
        out["fact_conflict"] = eval_fact_conflict(bundle.fact_pairs)
    if bundle.senti_pairs is not None and "sentiment" not in ablate:
        out["senti_conflict"], out["senti_coherent"] = eval_sentiment(bundle.senti_pairs)
    if bundle.causal is not None and "causal" not in ablate:
        (out["cause_sc"], out["obstruct_sc"],
         out["cause_cs"], out["obstruct_cs"]) = eval_causal(bundle.causal)
    if bundle.normative is not None and "normative" not in ablate:
        (out["backing_conseq"], out["refuting_conseq"],
         out["backing_norm"], out["refuting_norm"]) = eval_normative(bundle.normative)
    return PredicateVector(**out)
