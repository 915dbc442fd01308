"""Soft-logic MAP inference for argumentative relation classification."""

from .model import (
    ArgumentGraph,
    ArgumentPair,
    ScoreBundle,
    ValidationError,
    connected_components,
    load_dataset,
)
from .predicates import PredicateVector, evaluate_all
from .rules import Rule, RuleSetConfig, build_ruleset, sweep
from .chains import ChainTriple, build_indirect, emit_pair_manifest
from .grounding import GroundProgram, energy, ground
from .solver import Assignment, solve_map_admm
from .infer import run_inference
from .metrics import MetricsReport, compute_metrics, paired_bootstrap
from .synth import SynthConfig, generate, plant_chain_scenario

__version__ = "0.1.0"

__all__ = [
    "ArgumentGraph", "ArgumentPair", "ScoreBundle", "ValidationError",
    "connected_components", "load_dataset", "PredicateVector", "evaluate_all",
    "Rule", "RuleSetConfig", "build_ruleset", "sweep", "ChainTriple",
    "build_indirect", "emit_pair_manifest", "GroundProgram",
    "energy", "ground", "Assignment", "solve_map_admm",
    "run_inference", "MetricsReport", "compute_metrics", "paired_bootstrap",
    "SynthConfig", "generate", "plant_chain_scenario",
]
