"""Synthetic argument datasets with planted logical mechanisms.

Per-topic trees supply the argument structure: every edge is a direct
(statement, claim) pair with a gold support/attack relation, and distant
same-topic node pairs are gold-neutral.  For each pair, one mechanism's
score block is sampled so the predicates backing the gold relation land
at the configured strength, then perturbed in logit space.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .chains import ChainTriple, build_indirect
from .model import (ATTACK, COUNT, NEUTRAL, NUMBER, PROB, SPLITS, SUPPORT, TASK_MODES,
                    TERNARY_LABELS, ArgumentGraph, ArgumentPair, CausalScores, NliScores,
                    NormativeScores, ScoreBundle, SentiDist, SentiPairScores, SlotScore, Table,
                    TuplePairScores, ValidationError, choice, nested)
from .predicates import MECHANISMS

log = logging.getLogger(__name__)

NEUTRAL_MIN_DISTANCE = 4  # tree hops; emulates pairing only distant statements
_EPS = 1e-6
# At this noise a planted 0.9 is near a coin flip, and math.exp in _noisy
# overflows only for a draw 70 standard deviations out (planted |logit| < 14).
MAX_NOISE_SIGMA = 10.0


@dataclass(frozen=True)
class SynthConfig:
    n_topics: int = 10
    tree_depth: int = 3
    branching: int = 3
    fractions: dict = field(default_factory=lambda: {
        SUPPORT: 0.35, ATTACK: 0.35, NEUTRAL: 0.30})
    mechanism_mix: dict = field(default_factory=lambda: {
        "fact": 1.0, "sentiment": 1.0, "causal": 1.0, "normative": 1.0})
    noise_sigma: float = 0.5
    informative_strength: float = 0.9
    task_mode: str = "ternary"
    seed: int = 0
    split_fractions: dict = field(default_factory=lambda: {
        "fit": 0.0, "val": 0.3, "test": 0.7})

    def __post_init__(self):
        if self.task_mode not in ("ternary", "binary"):
            raise ValidationError(f"unknown task_mode {self.task_mode!r}")
        if not 0 <= self.noise_sigma <= MAX_NOISE_SIGMA:
            raise ValidationError(f"noise_sigma must be in [0, {MAX_NOISE_SIGMA}]")
        if not (0 < self.informative_strength <= 1):
            raise ValidationError("informative_strength must be in (0, 1]")
        total = sum(self.fractions.values())
        if abs(total - 1.0) > 1e-6:
            raise ValidationError(f"label fractions sum to {total}, expected 1")
        if self.task_mode == "binary" and self.fractions.get(NEUTRAL, 0.0) > 0:
            raise ValidationError("binary mode cannot plant neutral pairs")
        for name in ("split_fractions", "mechanism_mix"):
            if not 0 < sum(getattr(self, name).values()) < math.inf:
                raise ValidationError(f"{name} must have a positive, finite total")

    @classmethod
    def from_record(cls, record: dict) -> "SynthConfig":
        """A config from a JSON object of overrides (FORMATS.md)."""
        return SYNTH_TABLE.read(record, what="synth config field")


def _weights(names) -> Table:
    """An object of non-negative weights; a name left out weighs nothing."""
    return Table(dict, [(name, NUMBER, None, None) for name in names])


SYNTH_TABLE = Table(SynthConfig, [
    ("n_topics", COUNT, None, None),
    ("tree_depth", COUNT, None, None),
    ("branching", COUNT, None, None),
    ("fractions", nested(_weights(TERNARY_LABELS)), None, None),
    ("mechanism_mix", nested(_weights(MECHANISMS)), None, None),
    ("noise_sigma", NUMBER, None, None),
    ("informative_strength", PROB, None, None),
    ("task_mode", choice(*TASK_MODES), None, None),
    ("seed", COUNT, None, None),
    ("split_fractions", nested(_weights(SPLITS)), None, None),
])


def _noisy(p: float, sigma: float, rng) -> float:
    if sigma == 0.0:
        return p
    q = min(max(p, _EPS), 1.0 - _EPS)
    logit = math.log(q / (1.0 - q)) + rng.normal(0.0, sigma)
    return 1.0 / (1.0 + math.exp(-logit))


def _noisy_dist(values, sigma, rng):
    noisy = [_noisy(v, sigma, rng) for v in values]
    total = sum(noisy)
    return [v / total for v in noisy]


def _plant_bundle(pair_id: str, gold: str, mechanism: str,
                  strength: float, sigma: float, rng) -> ScoreBundle:
    a = math.sqrt(strength)
    kwargs = {}
    if mechanism == "fact":
        if gold == SUPPORT:
            dist = (strength, 0.0, 1.0 - strength)
        elif gold == ATTACK:
            dist = (0.0, strength, 1.0 - strength)
        else:
            dist = (0.0, 0.0, 1.0)
        kwargs["nli"] = NliScores(*_noisy_dist(dist, sigma, rng))
        con = strength if gold == ATTACK else 0.0
        kwargs["fact_pairs"] = (TuplePairScores((
            SlotScore(_noisy(0.0, sigma, rng), _noisy(con, sigma, rng)),),),)
    elif mechanism == "sentiment":
        stmt = (a, 0.0, 1.0 - a)
        if gold == SUPPORT:
            claim = (a, 0.0, 1.0 - a)
        elif gold == ATTACK:
            claim = (0.0, a, 1.0 - a)
        else:
            stmt = (0.0, 0.0, 1.0)
            claim = (0.0, 0.0, 1.0)
        kwargs["senti_pairs"] = (SentiPairScores(
            _noisy(1.0, sigma, rng),
            SentiDist(*_noisy_dist(stmt, sigma, rng)),
            SentiDist(*_noisy_dist(claim, sigma, rng))),)
    elif mechanism == "causal":
        cause = strength if gold == SUPPORT else 0.0
        obstruct = strength if gold == ATTACK else 0.0
        kwargs["causal"] = CausalScores(
            _noisy(cause, sigma, rng), _noisy(obstruct, sigma, rng),
            _noisy(0.0, sigma, rng), _noisy(0.0, sigma, rng))
    elif mechanism == "normative":
        if gold == SUPPORT:
            vals = dict(p_conseq=1.0, p_norm=1.0, q_pos=a, q_neg=0.0,
                        p_adv=a, p_opp=0.0, r_consist=a, r_contra=0.0)
        elif gold == ATTACK:
            vals = dict(p_conseq=1.0, p_norm=1.0, q_pos=0.0, q_neg=a,
                        p_adv=0.0, p_opp=a, r_consist=a, r_contra=0.0)
        else:
            vals = dict(p_conseq=0.0, p_norm=0.0, q_pos=0.0, q_neg=0.0,
                        p_adv=0.0, p_opp=0.0, r_consist=0.0, r_contra=0.0)
        kwargs["normative"] = NormativeScores(
            **{k: _noisy(v, sigma, rng) for k, v in vals.items()})
    else:
        raise ValidationError(f"unknown mechanism {mechanism!r}")
    return ScoreBundle(pair_id, **kwargs)


def _topic_tree(topic: int, depth: int, branching: int):
    """Nodes by level plus parent links; node 0 is the root claim."""
    parents = {}
    levels = [[f"t{topic}n0"]]
    counter = 1
    for _ in range(depth):
        nxt = []
        for parent in levels[-1]:
            for _ in range(branching):
                node = f"t{topic}n{counter}"
                counter += 1
                parents[node] = parent
                nxt.append(node)
        levels.append(nxt)
    return levels, parents


def _tree_distance(parents, u, v):
    def ancestors(x):
        chain = [x]
        while x in parents:
            x = parents[x]
            chain.append(x)
        return chain

    au, av = ancestors(u), ancestors(v)
    sv = {node: i for i, node in enumerate(av)}
    for i, node in enumerate(au):
        if node in sv:
            return i + sv[node]
    return math.inf


def _pick_split(rng, split_fractions):
    names = sorted(split_fractions)
    probs = np.array([split_fractions[n] for n in names], dtype=float)
    probs = probs / probs.sum()
    return names[rng.choice(len(names), p=probs)]


def _mechanism_draw(config: SynthConfig):
    """A function of an rng that draws one mechanism by config.mechanism_mix."""
    mechanisms = sorted(config.mechanism_mix)
    probs = np.array([config.mechanism_mix[m] for m in mechanisms], dtype=float)
    probs = probs / probs.sum()
    return lambda rng: mechanisms[rng.choice(len(mechanisms), p=probs)]


def generate(config: SynthConfig):
    """Build (graph, bundles, golds) for one seeded synthetic dataset."""
    rng = np.random.default_rng(config.seed)
    graph = ArgumentGraph(task_mode=config.task_mode)
    golds: dict[str, str] = {}
    bundles: dict[str, ScoreBundle] = {}

    f_sup = config.fractions.get(SUPPORT, 0.0)
    f_att = config.fractions.get(ATTACK, 0.0)
    f_neu = config.fractions.get(NEUTRAL, 0.0)
    if f_sup + f_att <= 0:
        raise ValidationError("fractions must include support or attack mass")
    p_support = f_sup / (f_sup + f_att)
    draw_mechanism = _mechanism_draw(config)

    pair_no = 0
    for topic in range(config.n_topics):
        levels, parents = _topic_tree(topic, config.tree_depth, config.branching)
        edges = sorted(parents.items())  # (child, parent)
        edge_pairs = []
        for child, parent in edges:
            gold = SUPPORT if rng.random() < p_support else ATTACK
            pair = ArgumentPair(
                pair_id=f"t{topic}p{pair_no}", statement_id=child,
                claim_id=parent, kind="direct", gold=gold,
                split=_pick_split(rng, config.split_fractions))
            pair_no += 1
            graph.add_pair(pair)
            golds[pair.pair_id] = gold
            edge_pairs.append(pair)

        if f_neu > 0:
            n_neutral = int(round(len(edges) * f_neu / (1.0 - f_neu)))
            nodes = [n for level in levels for n in level]
            candidates = []
            for i, u in enumerate(nodes):
                for v in nodes[i + 1:]:
                    if _tree_distance(parents, u, v) >= NEUTRAL_MIN_DISTANCE:
                        candidates.append((u, v))
            if len(candidates) < n_neutral:
                raise ValidationError(
                    f"config infeasible: topic {topic} has only "
                    f"{len(candidates)} distant node pairs, {n_neutral} needed")
            chosen = rng.choice(len(candidates), size=n_neutral, replace=False)
            for ci in sorted(chosen):
                u, v = candidates[ci]
                pair = ArgumentPair(
                    pair_id=f"t{topic}p{pair_no}", statement_id=u, claim_id=v,
                    kind="direct", gold=NEUTRAL,
                    split=_pick_split(rng, config.split_fractions))
                pair_no += 1
                graph.add_pair(pair)
                golds[pair.pair_id] = NEUTRAL

    for pid in sorted(graph.pairs):
        bundles[pid] = _plant_bundle(pid, golds[pid], draw_mechanism(rng),
                                     config.informative_strength,
                                     config.noise_sigma, rng)
    return graph, bundles, golds


# ---------------------------------------------------------------------------
# chain recovery scenario

COMPOSE = {
    (SUPPORT, SUPPORT): SUPPORT,
    (ATTACK, ATTACK): SUPPORT,
    (SUPPORT, ATTACK): ATTACK,
    (ATTACK, SUPPORT): ATTACK,
}


@dataclass
class ChainScenario:
    graph: ArgumentGraph  # includes indirect pairs
    bundles: dict[str, ScoreBundle]
    golds: dict[str, str]  # direct pairs only
    masked: list[str]
    triples: list[ChainTriple]


def plant_chain_scenario(config: SynthConfig,
                         mask_fraction: float = 0.3) -> ChainScenario:
    """Dataset where masked direct pairs carry no informative evidence
    but their chain neighbors (sibling hop and indirect outer pair) do.

    Masking never hits two members of the same triple, so every masked
    pair stays recoverable through the chain rules alone.
    """
    if config.tree_depth < 3:
        raise ValidationError("chain scenario needs tree_depth >= 3")
    if not (0.0 <= mask_fraction <= 1.0):
        raise ValidationError("mask_fraction must be in [0, 1]")
    graph, bundles, golds = generate(config)
    rng = np.random.default_rng(config.seed + 1)
    graph, triples = build_indirect(graph)
    draw_mechanism = _mechanism_draw(config)

    # informative bundles for indirect pairs, from the composed relation
    for triple in triples:
        if triple.outer_pair in bundles:
            continue
        g1, g2 = golds.get(triple.first_hop), golds.get(triple.second_hop)
        composed = COMPOSE.get((g1, g2))
        if composed is None:
            continue  # a neutral hop: leave the outer pair unscored
        bundles[triple.outer_pair] = _plant_bundle(
            triple.outer_pair, composed, draw_mechanism(rng),
            config.informative_strength, config.noise_sigma, rng)

    hop_triples: dict[str, list[ChainTriple]] = {}
    for t in triples:
        hop_triples.setdefault(t.first_hop, []).append(t)
        hop_triples.setdefault(t.second_hop, []).append(t)

    candidates = sorted(pid for pid in hop_triples
                        if golds.get(pid) in (SUPPORT, ATTACK))
    rng.shuffle(candidates)
    target = int(round(mask_fraction * len(candidates)))
    masked: dict[str, None] = {}  # in the shuffled candidate order
    for pid in candidates:
        if len(masked) >= target:
            break
        partners = {t.first_hop for t in hop_triples[pid]}
        partners |= {t.second_hop for t in hop_triples[pid]}
        partners.discard(pid)
        if not partners.isdisjoint(masked):
            continue
        masked[pid] = None

    sigma = config.noise_sigma
    for pid in masked:
        # uninformative evidence: an all-neutral entailment distribution
        bundles[pid] = ScoreBundle(pid, nli=NliScores(
            *_noisy_dist((0.0, 0.0, 1.0), sigma, rng)))

    return ChainScenario(graph, bundles, golds, sorted(masked), triples)
