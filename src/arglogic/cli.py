"""Batch command-line entry points.

Exit codes: 0 success, 1 internal error, 2 input validation error.
"""

from __future__ import annotations

import dataclasses
import functools
import logging
import math
import sys

import click

from . import baselines as baselines_mod
from . import metrics as metrics_mod
from .chains import build_indirect, emit_pair_manifest
from .infer import PREDICTION_TABLES, prediction_lines, predictions_to_records, run_inference
from .model import (ValidationError, check_writable, dump_json, dump_jsonl, load_arguments,
                    load_dataset, load_json_object, read_jsonl, write_atomic)
from .rules import RuleSetConfig, expand_grid, load_config, sweep
from .synth import SynthConfig, generate, plant_chain_scenario

log = logging.getLogger("arglogic")


def guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ValidationError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except (click.ClickException, click.exceptions.Exit, SystemExit):
            raise
        except Exception as exc:  # internal failure
            click.echo(f"internal error: {exc}", err=True)
            sys.exit(1)

    return wrapper


def _load_ruleset_config(config_path, mode, chains, hinge_power):
    if config_path:
        config, grids = load_config(config_path)
    else:
        config, grids = RuleSetConfig(), {}
    updates = {}
    if mode is not None:
        updates["task_mode"] = mode
    if chains is not None:
        updates["chains"] = chains == "on"
    if hinge_power is not None:
        updates["hinge_power"] = hinge_power
    if updates:
        config = dataclasses.replace(config, **updates)
    return config, grids


mode_option = click.option("--mode", type=click.Choice(["ternary", "binary"]),
                           default=None, help="Task mode (overrides config).")
chains_option = click.option("--chains", type=click.Choice(["on", "off"]),
                             default=None, help="Ground the chain rules.")
config_option = click.option("--config", "config_path",
                             type=click.Path(exists=True, dir_okay=False),
                             default=None, help="JSON rule-set config.")


@click.group()
@click.option("-v", "--verbose", is_flag=True, help="Debug logging.")
def main(verbose):
    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr)


@main.command("plan")
@click.argument("arguments_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--scores", "scores_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Existing scores file, if any.")
@click.option("--mode", type=click.Choice(["ternary", "binary"]), default="ternary")
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@guarded
def cmd_plan(arguments_path, scores_path, mode, out_path):
    """Build indirect pairs and list every pair still needing scores."""
    graph = load_arguments(arguments_path, mode)
    bundles = {}
    if scores_path:
        from .model import load_scores
        bundles = load_scores(scores_path, graph)
    graph, triples = build_indirect(graph)
    manifest = emit_pair_manifest(graph, bundles)
    dump_jsonl(manifest, out_path)
    click.echo(f"{len(triples)} chain triples; {len(manifest)} pairs need scores")


@main.command("infer")
@click.argument("arguments_path", type=click.Path(exists=True, dir_okay=False))
@click.argument("scores_path", type=click.Path(exists=True, dir_okay=False))
@config_option
@mode_option
@chains_option
@click.option("--hinge-power", type=click.Choice(["linear", "squared"]), default=None)
@click.option("--ablate", multiple=True,
              type=click.Choice(["fact", "sentiment", "causal", "normative"]),
              help="Force-absent a mechanism's score blocks.")
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@guarded
def cmd_infer(arguments_path, scores_path, config_path, mode, chains,
              hinge_power, ablate, out_path):
    """MAP inference; writes one prediction line per direct pair."""
    config, _ = _load_ruleset_config(config_path, mode, chains, hinge_power)
    check_writable(out_path)
    graph, bundles = load_dataset(arguments_path, scores_path, config.task_mode)
    result = run_inference(graph, bundles, config, ablate=frozenset(ablate))
    write_atomic(out_path, prediction_lines(result))
    log.info("solved %d components, %d potentials, energy %.4f%s",
             result.n_components, result.n_potentials, result.total_energy,
             "" if result.converged else " (non-converged components)")


@main.command("sweep")
@click.argument("arguments_path", type=click.Path(exists=True, dir_okay=False))
@click.argument("scores_path", type=click.Path(exists=True, dir_okay=False))
@config_option
@mode_option
@chains_option
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@guarded
def cmd_sweep(arguments_path, scores_path, config_path, mode, chains, out_path):
    """Grid-search chain/prior weights on the validation split."""
    base, grids = _load_ruleset_config(config_path, mode, chains, None)
    check_writable(out_path)
    graph, bundles = load_dataset(arguments_path, scores_path, base.task_mode)
    configs = expand_grid(base, grids)
    best, rows = sweep(configs, graph, bundles)
    report = {
        "best": {"w_chain": best.w_chain, "w_prior": best.w_prior},
        "configs": [
            {"w_chain": r.config.w_chain, "w_prior": r.config.w_prior,
             "raw_objective": r.raw_objective,
             "normalized_objective": r.normalized_objective}
            for r in rows
        ],
    }
    dump_json(report, out_path)
    click.echo(f"best config: w_chain={best.w_chain} w_prior={best.w_prior}")


def _read_predictions(path, task_mode):
    """Prediction records as written by `infer` or `baseline` (FORMATS.md)."""
    preds = {}
    for lineno, pred in read_jsonl(path, PREDICTION_TABLES[task_mode]):
        if pred.pair_id in preds:
            raise ValidationError(f"duplicate prediction for pair {pred.pair_id!r}", lineno)
        preds[pred.pair_id] = pred
    return preds


@main.command("eval")
@click.argument("predictions_path", type=click.Path(exists=True, dir_okay=False))
@click.argument("arguments_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--mode", type=click.Choice(["ternary", "binary"]), default="ternary")
@click.option("--baseline", "baseline_path", default=None,
              type=click.Path(exists=True, dir_okay=False),
              help="Second prediction set for paired-bootstrap comparison.")
@click.option("--split", default="test", show_default=True)
@click.option("--resamples", default=10_000, show_default=True, type=click.IntRange(min=1))
@click.option("--seed", default=0, show_default=True, type=click.IntRange(min=0))
@click.option("--out", "out_path", default=None, type=click.Path(dir_okay=False))
@guarded
def cmd_eval(predictions_path, arguments_path, mode, baseline_path, split,
             resamples, seed, out_path):
    """Metric suite over gold-labeled direct pairs of one split."""
    graph = load_arguments(arguments_path, mode)
    golds = {p.pair_id: p.gold for p in graph.direct_pairs()
             if p.gold is not None and p.split == split}
    preds = _read_predictions(predictions_path, mode)
    report = metrics_mod.compute_metrics(preds, golds, mode)
    click.echo(metrics_mod.format_table(report, "predictions"))

    payload = {
        "accuracy": report.accuracy,
        "macro_f1": report.macro_f1,
        "macro_auc": None if math.isnan(report.macro_auc) else report.macro_auc,
        "f1": report.f1,
        "support_counts": report.support_counts,
        "n_pairs": report.n_pairs,
    }
    if baseline_path:
        base_preds = _read_predictions(baseline_path, mode)
        p_values = metrics_mod.paired_bootstrap(
            preds, base_preds, golds, mode, n_resamples=resamples, seed=seed)
        payload["p_values"] = p_values
        for metric, p in p_values.items():
            marker = metrics_mod.significance_marker(p)
            click.echo(f"paired bootstrap {metric}: p = {p:.4f} {marker}")
    if out_path:
        dump_json(payload, out_path)


@main.command("baseline")
@click.argument("arguments_path", type=click.Path(exists=True, dir_okay=False))
@click.argument("scores_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--which", required=True,
              type=click.Choice(["random", "sentiment", "entailment"]))
@click.option("--mode", type=click.Choice(["ternary", "binary"]), default="ternary")
@click.option("--seed", default=0, show_default=True, type=click.IntRange(min=0))
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@guarded
def cmd_baseline(arguments_path, scores_path, which, mode, seed, out_path):
    """Run one unsupervised baseline; same output format as `infer`."""
    graph, bundles = load_dataset(arguments_path, scores_path, mode)
    preds = baselines_mod.BASELINES[which](graph, bundles, seed)
    dump_jsonl(predictions_to_records(preds, mode), out_path)


@main.command("synth")
@click.option("--config", "config_path", default=None,
              type=click.Path(exists=True, dir_okay=False),
              help="JSON SynthConfig overrides.")
@click.option("--seed", default=None, type=int)
@click.option("--mode", type=click.Choice(["ternary", "binary"]), default=None)
@click.option("--chain-scenario", is_flag=True,
              help="Plant the masked-pair chain recovery scenario.")
@click.option("--mask-fraction", default=0.3, show_default=True)
@click.option("--out-arguments", required=True, type=click.Path(dir_okay=False))
@click.option("--out-scores", required=True, type=click.Path(dir_okay=False))
@click.option("--out-mask", default=None, type=click.Path(dir_okay=False),
              help="Masked pair ids; needs --chain-scenario.")
@guarded
def cmd_synth(config_path, seed, mode, chain_scenario, mask_fraction,
              out_arguments, out_scores, out_mask):
    """Generate a synthetic dataset in the standard file formats."""
    from .model import bundle_to_record, pair_to_record

    if out_mask and not chain_scenario:
        raise ValidationError("--out-mask needs --chain-scenario")
    overrides = load_json_object(config_path, "synth config") if config_path else {}
    if seed is not None:
        overrides["seed"] = seed
    if mode is not None:
        overrides["task_mode"] = mode
        if mode == "binary":
            overrides.setdefault("fractions", {"support": 0.5, "attack": 0.5})
    config = SynthConfig.from_record(overrides)

    if chain_scenario:
        scenario = plant_chain_scenario(config, mask_fraction)
        graph, bundles = scenario.graph, scenario.bundles
        if out_mask:
            dump_jsonl(({"pair_id": pid} for pid in scenario.masked), out_mask)
    else:
        graph, bundles, _ = generate(config)

    dump_jsonl((pair_to_record(graph.pairs[pid]) for pid in sorted(graph.pairs)),
               out_arguments)
    dump_jsonl((bundle_to_record(bundles[pid]) for pid in sorted(bundles)),
               out_scores)
    click.echo(f"{len(graph)} pairs, {len(bundles)} score bundles")


if __name__ == "__main__":
    main()
