"""Rule declarations, weight configuration, and the validation-set sweep.

R1-R13 are single-body logic rules whose body is an observed predicate
value; R14-R17 chain two free relation atoms into a third; C1 is a soft
prior on the default relation.  The per-pair simplex is program
structure, not a rule.

A sweep ranks configs of one structure (`structure`: the config with the
swept weights masked), which ground the same rows: it grounds the
validation split once and solves it under every config together
(`infer.solve_configs`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import product

from .model import (ATTACK, BOOL, NEUTRAL, NUMBER, SUPPORT, UNCHECKED, Table,
                    ValidationError, array, default_label, load_json_object, nested)

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
    body: tuple  # predicate field name for R1-R13; (rel, rel) for chains; () for C1
    head: str  # relation label
    weight: float


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


# The largest rule weight: under it every hinge step (2·w·‖a‖² ≤ 6e6), row
# energy (≤ 4·w) and ground weight mass stays finite.
MAX_WEIGHT = 1e6


def _checked(weight: float, what: str) -> float:
    if weight < 0:
        raise ValidationError(f"negative {what}: {weight}")
    if not weight <= MAX_WEIGHT:  # NaN too
        raise ValidationError(f"{what} not finite or above {MAX_WEIGHT:g}: {weight}")
    return weight


def build_ruleset(config: RuleSetConfig) -> list[Rule]:
    """Instantiate the rule templates for one weight configuration."""
    if config.task_mode not in ("ternary", "binary"):
        raise ValidationError(f"unknown task_mode {config.task_mode!r}")
    if config.hinge_power not in ("linear", "squared"):
        raise ValidationError(f"unknown hinge_power {config.hinge_power!r}")
    rules = [Rule(rid, (pred,), head, _checked(config.logic_weight(rid), f"weight for {rid}"))
             for rid, (pred, head) in LOGIC_RULES.items()]
    if config.chains:
        w_chain = _checked(config.w_chain, "chain weight")
        rules += [Rule(rid, (b1, b2), head, w_chain)
                  for rid, (b1, b2, head) in CHAIN_RULES.items()]
    w_prior = _checked(config.w_prior, "prior weight")
    rules.append(Rule("C1", (), default_label(config.task_mode), w_prior))
    return rules


# ---------------------------------------------------------------------------
# config files

DEFAULT_CHAIN_GRID = (1.0, 0.5, 0.1)
DEFAULT_PRIOR_GRID = (0.2, 0.3)

GRID_AXES = ("w_chain", "w_prior")

# The value the swept weights are grounded at when the programs are
# re-weighted per config: any non-zero value grounds every row.
SWEPT_PLACEHOLDER = 1.0


def structure(config: RuleSetConfig) -> RuleSetConfig:
    """The config with the swept weights (GRID_AXES) masked: configs of one
    structure ground the same rows, differing only in those rows' weights."""
    return replace(config, **dict.fromkeys(GRID_AXES, SWEPT_PLACEHOLDER))


# weights of some of R1-R13, or one weight for all thirteen
_W_LOGIC = nested(Table(dict, [(rid, NUMBER, None, None) for rid in LOGIC_RULES]), spread=True)

_GRIDS = Table(dict, [(axis, array(NUMBER, non_empty=True), None, None) for axis in GRID_AXES])
# Reads as (config, grids).  task_mode and hinge_power are checked by build_ruleset,
# which also sees configs built in code and names the sweep config holding a bad value.
CONFIG_TABLE = Table(lambda grids=None, **fields: (RuleSetConfig(**fields), grids or {}), [
    ("task_mode", UNCHECKED, None, None),
    ("w_logic", _W_LOGIC, None, None),
    ("w_chain", NUMBER, None, None),
    ("w_prior", NUMBER, None, None),
    ("chains", BOOL, None, None),
    ("hinge_power", UNCHECKED, None, None),
    ("prior_on_indirect", BOOL, None, None),
    ("grids", nested(_GRIDS), None, None),
])


def load_config(path) -> tuple[RuleSetConfig, dict]:
    """Read a config file; returns (config, grids) where grids may be empty."""
    return CONFIG_TABLE.read(load_json_object(path, "config"), what="config field")


def expand_grid(base: RuleSetConfig, grids: dict) -> list[RuleSetConfig]:
    """Cartesian product over grid axes, in declaration order.  The base's
    prior weight, and its chain weight when chains are on, are checked
    first, as `infer` checks them, though the grid replaces them.  With
    chains off no chain row is grounded, so a w_chain axis is refused."""
    _checked(base.w_prior, "prior weight")
    if base.chains:
        _checked(base.w_chain, "chain weight")
    elif "w_chain" in grids:
        raise ValidationError("grids.w_chain: a chain weight axis needs chains on")
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


def sweep(configs, graph, bundles):
    """Pick the config whose validation-split MAP energy, normalized by
    ground weight mass, is smallest.  Gold labels are never consulted.

    The ranking is fair only between configs that ground the same rows, so
    every config must have the structure of the first: only w_chain and
    w_prior may differ.  The split is grounded once and each batch of its
    programs is solved under several configs per call
    (`infer.solve_configs`); then `infer.run_inference` gathers each
    config's result, in config order.  Only the energies and weights are
    read here, so no config's `predictions` are built
    (`InferenceResult.predictions` is built on first read).

    Returns (best_config, [SweepRow...]); ties resolve to the earliest
    config in declaration order.
    """
    from . import infer  # local import to avoid a cycle

    if not configs:
        raise ValidationError("sweep requires at least one config")
    if not any(p.split == "val" and p.kind == "direct" for p in graph):
        raise ValidationError("validation split is empty")
    for i, config in enumerate(configs):
        try:
            build_ruleset(config)
        except ValidationError as exc:
            raise ValidationError(f"{_named([i], configs)}: {exc}") from exc
        if structure(config) != structure(configs[0]):
            raise ValidationError(f"{_named([i], configs)}: only "
                                  f"{' and '.join(GRID_AXES)} may differ from sweep config #0")

    every = range(len(configs))
    try:
        grounding = infer.ground_graph(graph, bundles, configs[0], restrict_split="val")
        batches = list(infer.solve_configs(grounding, configs))
    except ValidationError as exc:
        raise ValidationError(f"{_named(every, configs)}: {exc}") from exc
    except Exception as exc:
        raise RuntimeError(f"{_named(every, configs)} failed: {exc}") from exc

    rows: list[SweepRow] = []
    for i, config in enumerate(configs):
        try:
            result = infer.run_inference(graph, bundles, config, restrict_split="val",
                                         grounding=grounding,
                                         solved=[results[i] for results in batches])
        except Exception as exc:
            raise RuntimeError(f"{_named([i], configs)} failed: {exc}") from exc
        raw = result.total_energy
        mass = result.total_weight
        # zero mass grounds no row (a row of weight 0 is dropped), so no energy
        rows.append(SweepRow(config, raw, raw / mass if mass > 0 else 0.0))

    best = min(rows, key=lambda r: r.normalized_objective)
    return best.config, rows


def _named(indices, configs) -> str:
    """The sweep configs at these indices, for an error message."""
    return "; ".join(f"sweep config #{i} ({configs[i]})" for i in indices)
