"""Rule declarations, weight configuration, and the validation-set sweep.

R1-R13 are single-body logic rules whose body is an observed predicate
value; R14-R17 chain two free relation atoms into a third; C1 is a soft
prior on the default relation and C2 a hard per-pair simplex constraint.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from itertools import product
from typing import Optional

from .model import (ATTACK, NEUTRAL, SUPPORT, ValidationError, default_label,
                    load_json_object)

log = logging.getLogger(__name__)

# rule id -> (body predicate field, head relation)
LOGIC_RULES: dict[str, tuple[str, str]] = {
    "R1": ("fact_entail", SUPPORT),
    "R2": ("fact_contradict", ATTACK),
    "R3": ("fact_conflict", ATTACK),
    "R4": ("senti_conflict", ATTACK),
    "R5": ("senti_coherent", SUPPORT),
    "R6": ("cause_sc", SUPPORT),
    "R7": ("obstruct_sc", ATTACK),
    "R8": ("cause_cs", SUPPORT),
    "R9": ("obstruct_cs", ATTACK),
    "R10": ("backing_conseq", SUPPORT),
    "R11": ("refuting_conseq", ATTACK),
    "R12": ("backing_norm", SUPPORT),
    "R13": ("refuting_norm", ATTACK),
}

# rule id -> (first-hop relation, second-hop relation, head relation)
CHAIN_RULES: dict[str, tuple[str, str, str]] = {
    "R14": (SUPPORT, SUPPORT, SUPPORT),
    "R15": (ATTACK, ATTACK, SUPPORT),
    "R16": (SUPPORT, ATTACK, ATTACK),
    "R17": (ATTACK, SUPPORT, ATTACK),
}


@dataclass(frozen=True)
class Rule:
    id: str
    body: tuple  # predicate field name for R1-R13; (rel, rel) for chains; () for C1/C2
    head: Optional[str]  # relation label; None for the hard constraint
    weight: float
    hard: bool = False


@dataclass(frozen=True)
class RuleSetConfig:
    task_mode: str = "ternary"
    w_logic: dict = field(default_factory=dict)  # per-rule overrides, default 1.0
    w_chain: float = 1.0
    w_prior: float = 0.2
    chains: bool = False
    hinge_power: str = "linear"  # linear | squared
    prior_on_indirect: bool = True

    def logic_weight(self, rule_id: str) -> float:
        return float(self.w_logic.get(rule_id, 1.0))

    @property
    def power(self) -> int:
        return 1 if self.hinge_power == "linear" else 2


def build_ruleset(config: RuleSetConfig) -> list[Rule]:
    """Instantiate the rule templates for one weight configuration."""
    if config.task_mode not in ("ternary", "binary"):
        raise ValidationError(f"unknown task_mode {config.task_mode!r}")
    if config.hinge_power not in ("linear", "squared"):
        raise ValidationError(f"unknown hinge_power {config.hinge_power!r}")
    rules: list[Rule] = []
    for rid, (pred, head) in LOGIC_RULES.items():
        w = config.logic_weight(rid)
        if w < 0:
            raise ValidationError(f"negative weight for {rid}: {w}")
        rules.append(Rule(rid, (pred,), head, w))
    if config.chains:
        if config.w_chain < 0:
            raise ValidationError(f"negative chain weight: {config.w_chain}")
        for rid, (b1, b2, head) in CHAIN_RULES.items():
            rules.append(Rule(rid, (b1, b2), head, config.w_chain))
    if config.w_prior < 0:
        raise ValidationError(f"negative prior weight: {config.w_prior}")
    rules.append(Rule("C1", (), default_label(config.task_mode), config.w_prior))
    rules.append(Rule("C2", (), None, 0.0, hard=True))
    return rules


# ---------------------------------------------------------------------------
# config files

DEFAULT_CHAIN_GRID = (1.0, 0.5, 0.1)
DEFAULT_PRIOR_GRID = (0.2, 0.3)


def _number(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"config field {name!r} must be a number, got {value!r}")
    return float(value)


def _flag(record: dict, name: str, default: bool) -> bool:
    value = record.get(name, default)
    if not isinstance(value, bool):
        raise ValidationError(f"config field {name!r} must be true or false, got {value!r}")
    return value


def config_from_record(record: dict) -> RuleSetConfig:
    known = {"task_mode", "w_logic", "w_chain", "w_prior", "chains",
             "hinge_power", "prior_on_indirect", "grids"}
    for key in record:
        if key not in known:
            log.warning("config: ignoring unknown field %r", key)
    w_logic = record.get("w_logic", {})
    if not isinstance(w_logic, dict):
        w_logic = dict.fromkeys(LOGIC_RULES, w_logic)
    for rid in w_logic:
        if rid not in LOGIC_RULES:
            raise ValidationError(
                f"config field 'w_logic' names unknown rule {rid!r} (expected R1-R13)")
    return RuleSetConfig(
        task_mode=record.get("task_mode", "ternary"),
        w_logic={rid: _number(w, f"w_logic.{rid}") for rid, w in w_logic.items()},
        w_chain=_number(record.get("w_chain", 1.0), "w_chain"),
        w_prior=_number(record.get("w_prior", 0.2), "w_prior"),
        chains=_flag(record, "chains", False),
        hinge_power=record.get("hinge_power", "linear"),
        prior_on_indirect=_flag(record, "prior_on_indirect", True),
    )


GRID_AXES = ("w_chain", "w_prior")

# The value the swept weights are grounded at when the programs are
# re-weighted per config: any non-zero value grounds every row.
SWEPT_PLACEHOLDER = 1.0


def structure(config: RuleSetConfig) -> RuleSetConfig:
    """The config with the swept weights (GRID_AXES) masked: configs of one
    structure ground the same rows, differing only in those rows' weights."""
    return replace(config, **dict.fromkeys(GRID_AXES, SWEPT_PLACEHOLDER))


def grids_from_record(value) -> dict[str, list[float]]:
    """The `grids` field: an object mapping sweep axes to non-empty lists
    of non-negative numbers."""
    if not isinstance(value, dict):
        raise ValidationError(f"config field 'grids' must be an object, got {value!r}")
    grids = {}
    for axis, points in value.items():
        name = f"grids.{axis}"
        if axis not in GRID_AXES:
            raise ValidationError(f"config field 'grids' names unknown axis {axis!r} "
                                  f"(expected one of {', '.join(GRID_AXES)})")
        if not isinstance(points, list) or not points:
            raise ValidationError(
                f"config field {name!r} must be a non-empty list of numbers, got {points!r}")
        grids[axis] = [_number(w, name) for w in points]
        if min(grids[axis]) < 0:
            raise ValidationError(f"config field {name!r} holds a negative weight: {points!r}")
    return grids


def load_config(path) -> tuple[RuleSetConfig, dict]:
    """Read a config file; returns (config, grids) where grids may be empty."""
    record = load_json_object(path, "config")
    return config_from_record(record), grids_from_record(record.get("grids", {}))


def expand_grid(base: RuleSetConfig, grids: dict) -> list[RuleSetConfig]:
    """Cartesian product over grid axes, in declaration order."""
    chain_grid = grids.get("w_chain", DEFAULT_CHAIN_GRID if base.chains else (base.w_chain,))
    prior_grid = grids.get("w_prior", DEFAULT_PRIOR_GRID)
    if not chain_grid or not prior_grid:
        raise ValidationError("empty sweep grid")
    return [replace(base, w_chain=float(wc), w_prior=float(wp))
            for wc, wp in product(chain_grid, prior_grid)]


# ---------------------------------------------------------------------------
# sweep

@dataclass
class SweepRow:
    config: RuleSetConfig
    raw_objective: float
    normalized_objective: float


def sweep(configs, graph, bundles, params=None):
    """Pick the config whose validation-split MAP energy, normalized by
    ground weight mass, is smallest.  Gold labels are never consulted.

    The split is grounded once per distinct structure and each config
    solves those programs with its own weights.

    Returns (best_config, [SweepRow...]); ties resolve to the earliest
    config in declaration order.
    """
    from . import infer  # local import to avoid a cycle

    if not configs:
        raise ValidationError("sweep requires at least one config")
    val_ids = {p.pair_id for p in graph if p.split == "val" and p.kind == "direct"}
    if not val_ids:
        raise ValidationError("validation split is empty")

    groundings = []  # one per distinct structure; RuleSetConfig holds a dict, so no hashing
    rows: list[SweepRow] = []
    for i, config in enumerate(configs):
        try:
            shape = structure(config)
            grounding = next((g for g in groundings if g.structure == shape), None)
            if grounding is None:
                grounding = infer.ground_graph(graph, bundles, config, restrict_split="val")
                grounding.programs = list(grounding.programs)
                groundings.append(grounding)
            result = infer.run_inference(graph, bundles, config, params=params,
                                         restrict_split="val", grounding=grounding)
        except ValidationError as exc:
            raise ValidationError(f"sweep config #{i} ({config}): {exc}") from exc
        except Exception as exc:
            raise RuntimeError(f"sweep config #{i} ({config}) failed: {exc}") from exc
        raw = result.total_energy
        mass = result.total_weight
        n_pairs = max(1, len(val_ids))
        norm = raw / mass if mass > 0 else raw / n_pairs
        rows.append(SweepRow(config, raw, norm))

    best = min(rows, key=lambda r: r.normalized_objective)
    return best.config, rows
