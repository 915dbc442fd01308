"""Closed-form evaluation of the 13 rule-body predicate values.

Each evaluator turns one block of upstream probability scores into the
observed truth value(s) of the corresponding soft-logic rule bodies.  A
pair's evidence is one row of 13 floats (`PredicateVector`): an absent or
ablated block leaves its values NaN (`ABSENT`), which grounds no row of
its rules, while an *empty* list is evidence of "nothing found": 0.
"""

from __future__ import annotations

import math
from typing import NamedTuple

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


ABSENT = math.nan  # a predicate value whose source block is absent or ablated
_ABSENT2, _ABSENT4 = (ABSENT,) * 2, (ABSENT,) * 4


class PredicateVector(NamedTuple):
    fact_entail: float = ABSENT
    fact_contradict: float = ABSENT
    fact_conflict: float = ABSENT
    senti_conflict: float = ABSENT
    senti_coherent: float = ABSENT
    cause_sc: float = ABSENT
    obstruct_sc: float = ABSENT
    cause_cs: float = ABSENT
    obstruct_cs: float = ABSENT
    backing_conseq: float = ABSENT
    refuting_conseq: float = ABSENT
    backing_norm: float = ABSENT
    refuting_norm: float = ABSENT


PREDICATE_NAMES = PredicateVector._fields


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
    nli, fact_pairs = bundle.nli, bundle.fact_pairs
    if "fact" in ablate:
        nli = fact_pairs = None
    senti, causal, normative = bundle.senti_pairs, bundle.causal, bundle.normative
    return PredicateVector(
        *(_ABSENT2 if nli is None else eval_fact(nli)),
        ABSENT if fact_pairs is None else eval_fact_conflict(fact_pairs),
        *(_ABSENT2 if senti is None or "sentiment" in ablate else eval_sentiment(senti)),
        *(_ABSENT4 if causal is None or "causal" in ablate else eval_causal(causal)),
        *(_ABSENT4 if normative is None or "normative" in ablate
          else eval_normative(normative)))
