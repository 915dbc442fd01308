"""The benchmark's metrics: name, unit and which direction is better.

BENCHMARK.json at the checkout root lists the same metrics with their
bounds; a test keeps the two in step.
"""

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("pairs_per_s", "pairs/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("energy_per_weight", "ratio", "lower"),
    ("macro_f1", "ratio", "higher"),
    ("converged_frac", "ratio", "higher"),
)

PER_LAYER = (
    ("model.load_s", "s", "lower"),
    ("model.write_s", "s", "lower"),
    ("model.components_s", "s", "lower"),
    ("model.components", "count", "higher"),
    ("chains.build_s", "s", "lower"),
    ("chains.triples", "count", "lower"),
    ("predicates.eval_s", "s", "lower"),
    ("predicates.calls", "count", "lower"),
    ("grounding.ground_s", "s", "lower"),
    ("grounding.calls", "count", "lower"),
    ("grounding.potentials", "count", "lower"),
    ("grounding.atoms", "count", "lower"),
    ("grounding.energy_s", "s", "lower"),
    ("solver.calls", "count", "lower"),
    ("solver.self_s", "s", "lower"),
    ("solver.component_s.p50", "s", "lower"),
    ("solver.component_s.p90", "s", "lower"),
    ("kernels.admm_s", "s", "lower"),
    ("kernels.calls", "count", "lower"),
    ("kernels.iterations", "count", "lower"),
    ("kernels.iterations_max", "count", "lower"),
    ("kernels.copy_updates", "count", "lower"),
    ("kernels.updates_per_s", "1/s", "higher"),
    ("kernels.bytes_computed", "bytes", "lower"),
    ("infer.self_s", "s", "lower"),
    ("infer.records_s", "s", "lower"),
    ("rules.sweep_s", "s", "lower"),
    ("rules.grid_points", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.uncovered_frac", "ratio", "lower"),
)
