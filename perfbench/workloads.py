"""The benchmark's workloads: a synthetic dataset shape and one CLI command.

Each workload's inputs come from `arglogic.synth.generate` with the
benchmark seed; the command is what a user would type after `arglogic`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    synth: dict  # SynthConfig overrides; the seed is added per run
    command: tuple  # CLI command and options; inputs and --out are appended
    why: str

    @property
    def is_sweep(self) -> bool:
        return self.command[0] == "sweep"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "flat", {"n_topics": 100}, ("infer", "--chains", "off"),
            "default config: 5,600 pairs in 100 uncoupled components; "
            "kernel, grounding, load and write all show"),
        Workload(
            "deep-chains", {"n_topics": 8, "tree_depth": 5, "branching": 3},
            ("infer", "--chains", "on"),
            "8 coupled components of ~4k atoms: per-iteration kernel "
            "arithmetic and chain grounding dominate"),
        Workload(
            "sweep", {"n_topics": 20}, ("sweep", "--chains", "on"),
            "the same val split solved at 6 grid points: ground-once, "
            "batching and per-call kernel costs show"),
    )
}

# The synth generator's and the CLI's default mode.
TASK_MODE = "ternary"

# Rows of the default sweep grid with chains on: 3 chain x 2 prior weights.
SWEEP_GRID_POINTS = 6

# Tiny input that warms lazy imports and code paths before timing, and that
# the set-up probe runs in a fresh interpreter. It has a non-empty val split,
# so the sweep command can run on it too.
TINY_SYNTH = {"n_topics": 2, "tree_depth": 3, "branching": 2}
