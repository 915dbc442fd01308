import copy
import json
import logging
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from arglogic import model
from arglogic.chains import _MANIFEST_TABLE as MANIFEST_TABLE
from arglogic.chains import emit_pair_manifest
from arglogic.cli import main
from arglogic.infer import PREDICTION_TABLES, PairPrediction
from arglogic.model import (
    BUNDLE_TABLE,
    DIST_TOL,
    NUMBER,
    PAIR_TABLE,
    REQUIRED,
    ArgumentGraph,
    ArgumentPair,
    CausalScores,
    NliScores,
    ScoreBundle,
    Table,
    ValidationError,
    bundle_to_record,
    connected_components,
    dump_jsonl,
    load_dataset,
    pair_to_record,
    parse_bundle,
)
from arglogic.rules import CONFIG_TABLE, LOGIC_RULES, RuleSetConfig
from arglogic.synth import SYNTH_TABLE, SynthConfig, generate
from reference import read_jsonl_by_json


def read_config(record):
    return CONFIG_TABLE.read(record, what="config field")[0]


def write_jsonl(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


ARGS = [
    {"pair_id": "p1", "statement_id": "s1", "claim_id": "c1",
     "kind": "direct", "gold": "support", "split": "test"},
    {"pair_id": "p2", "statement_id": "s2", "claim_id": "c1",
     "kind": "direct", "gold": "attack", "split": "test"},
    {"pair_id": "p3", "statement_id": "s3", "claim_id": "c3",
     "kind": "direct", "gold": "neutral", "split": "val"},
]
SCORES = [
    {"pair_id": "p1", "nli": {"p_ent": 0.7, "p_con": 0.2, "p_neu": 0.1}},
    {"pair_id": "p2", "causal": {"sc_cause": 0.1, "sc_obstruct": 0.8,
                                 "cs_cause": 0.0, "cs_obstruct": 0.0}},
    {"pair_id": "p3", "senti_pairs": [
        {"p_match": 0.5,
         "s_stmt": {"p_pos": 0.6, "p_neg": 0.2, "p_neu": 0.2},
         "s_claim": {"p_pos": 0.7, "p_neg": 0.1, "p_neu": 0.2}}]},
]


def test_load_round_trip(tmp_path):
    write_jsonl(tmp_path / "args.jsonl", ARGS)
    write_jsonl(tmp_path / "scores.jsonl", SCORES)
    graph, bundles = load_dataset(tmp_path / "args.jsonl",
                                  tmp_path / "scores.jsonl", "ternary")
    assert len(graph) == 3
    assert len(bundles) == 3
    assert bundles["p1"].nli.p_ent == pytest.approx(0.7)

    # serialize and reload
    dump_jsonl([pair_to_record(p) for p in graph], tmp_path / "args2.jsonl")
    dump_jsonl([bundle_to_record(b) for b in bundles.values()],
               tmp_path / "scores2.jsonl")
    graph2, bundles2 = load_dataset(tmp_path / "args2.jsonl",
                                    tmp_path / "scores2.jsonl", "ternary")
    assert graph2.pairs == graph.pairs
    assert bundles2 == bundles

    # `synth` output, loaded and written again, is the same bytes
    runner = CliRunner()
    for seed in range(1, 6):
        for mode, options in (("ternary", []), ("binary", ["--mode", "binary"]),
                              ("ternary", ["--chain-scenario"])):
            args, scores = tmp_path / "synth_args.jsonl", tmp_path / "synth_scores.jsonl"
            res = runner.invoke(main, ["synth", "--seed", str(seed), *options,
                                       "--out-arguments", str(args), "--out-scores", str(scores)])
            assert res.exit_code == 0, res.output
            graph, bundles = load_dataset(args, scores, mode)
            dump_jsonl([pair_to_record(graph.pairs[p]) for p in sorted(graph.pairs)],
                       tmp_path / "again_args.jsonl")
            dump_jsonl([bundle_to_record(bundles[p]) for p in sorted(bundles)],
                       tmp_path / "again_scores.jsonl")
            assert (tmp_path / "again_args.jsonl").read_bytes() == args.read_bytes()
            assert (tmp_path / "again_scores.jsonl").read_bytes() == scores.read_bytes()


def test_probability_out_of_bounds(tmp_path):
    write_jsonl(tmp_path / "args.jsonl", ARGS[:1])
    bad = [{"pair_id": "p1", "nli": {"p_ent": 1.2, "p_con": 0.0, "p_neu": 0.0}}]
    write_jsonl(tmp_path / "scores.jsonl", bad)
    with pytest.raises(ValidationError, match=r"line 1.*p_ent"):
        load_dataset(tmp_path / "args.jsonl", tmp_path / "scores.jsonl")


def test_normalization_with_warning(caplog):
    rec = {"pair_id": "p", "nli": {"p_ent": 0.50, "p_con": 0.30, "p_neu": 0.21}}
    with caplog.at_level("WARNING"):
        bundle = parse_bundle(rec)
    assert "renormalizing" in caplog.text
    total = bundle.nli.p_ent + bundle.nli.p_con + bundle.nli.p_neu
    assert total == pytest.approx(1.0, abs=1e-12)
    assert bundle.nli.p_ent == pytest.approx(0.50 / 1.01)


def test_distribution_far_off_is_error():
    rec = {"pair_id": "p", "nli": {"p_ent": 0.5, "p_con": 0.3, "p_neu": 0.1}}
    with pytest.raises(ValidationError):
        parse_bundle(rec)
    rec2 = {"pair_id": "p", "nli": {"p_ent": 0.6, "p_con": 0.3, "p_neu": 0.13}}
    with pytest.raises(ValidationError):
        parse_bundle(rec2)


def test_duplicate_pair_id(tmp_path):
    write_jsonl(tmp_path / "args.jsonl", [ARGS[0], ARGS[0]])
    write_jsonl(tmp_path / "scores.jsonl", [])
    with pytest.raises(ValidationError, match="duplicate"):
        load_dataset(tmp_path / "args.jsonl", tmp_path / "scores.jsonl")


def test_neutral_gold_illegal_in_binary(tmp_path):
    write_jsonl(tmp_path / "args.jsonl", ARGS)
    write_jsonl(tmp_path / "scores.jsonl", [])
    with pytest.raises(ValidationError, match="neutral"):
        load_dataset(tmp_path / "args.jsonl", tmp_path / "scores.jsonl", "binary")


def test_unknown_bundle_pair_rejected(tmp_path):
    write_jsonl(tmp_path / "args.jsonl", ARGS[:1])
    write_jsonl(tmp_path / "scores.jsonl", [{"pair_id": "nope"}])
    with pytest.raises(ValidationError, match="unknown pair_id"):
        load_dataset(tmp_path / "args.jsonl", tmp_path / "scores.jsonl")


def test_malformed_line_reports_number(tmp_path):
    (tmp_path / "args.jsonl").write_text(
        json.dumps(ARGS[0]) + "\n{not json\n")
    write_jsonl(tmp_path / "scores.jsonl", [])
    with pytest.raises(ValidationError, match="line 2"):
        load_dataset(tmp_path / "args.jsonl", tmp_path / "scores.jsonl")


def test_self_loop_rejected():
    with pytest.raises(ValidationError, match="line 3: pair 'p': statement_id equals claim_id"):
        ArgumentGraph().add_pair(ArgumentPair("p", "x", "x"), line=3)


def test_components_shared_node():
    g = ArgumentGraph()
    g.add_pair(ArgumentPair("p1", "Y", "X"))
    g.add_pair(ArgumentPair("p2", "X", "R"))
    comps = connected_components(g)
    assert len(comps) == 1 and len(comps[0]) == 2


def test_components_disjoint():
    g = ArgumentGraph()
    g.add_pair(ArgumentPair("p1", "A", "B"))
    g.add_pair(ArgumentPair("p2", "C", "D"))
    assert len(connected_components(g)) == 2


def test_components_chain_closure():
    g = ArgumentGraph()
    g.add_pair(ArgumentPair("p1", "S", "I"))
    g.add_pair(ArgumentPair("p2", "I", "C"))
    g.add_pair(ArgumentPair("p3", "S", "C", kind="indirect"))
    comps = connected_components(g)
    assert len(comps) == 1 and len(comps[0]) == 3


def brute_force_components(pairs):
    """Reference partition: repeated merging of node-sharing pair sets."""
    groups = [{p.pair_id} for p in pairs]
    nodes = {p.pair_id: {p.statement_id, p.claim_id} for p in pairs}
    changed = True
    while changed:
        changed = False
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                ni = set.union(*(nodes[p] for p in groups[i]))
                nj = set.union(*(nodes[p] for p in groups[j]))
                if ni & nj:
                    groups[i] |= groups[j]
                    del groups[j]
                    changed = True
                    break
            if changed:
                break
    return {frozenset(g) for g in groups}


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)).filter(
    lambda t: t[0] != t[1]), min_size=1, max_size=12, unique=True))
def test_components_match_brute_force(edges):
    g = ArgumentGraph()
    for i, (u, v) in reversed(list(enumerate(edges))):  # not in pair-id order
        g.add_pair(ArgumentPair(f"p{i}", f"n{u}", f"n{v}"))
    comps = connected_components(g)
    got = {frozenset(p.pair_id for p in comp) for comp in comps}
    assert got == brute_force_components(list(g))
    # partition: disjoint and covering
    all_ids = [p.pair_id for comp in comps for p in comp]
    assert sorted(all_ids) == sorted(g.pairs)
    # order, which grounding relies on: components by their first pair id,
    # and pairs in pair-id order within each component
    assert [comp[0].pair_id for comp in comps] == sorted(comp[0].pair_id for comp in comps)
    assert all(ids == sorted(ids) for ids in ([p.pair_id for p in comp] for comp in comps))


# One valid record of each kind, and the reader that checks it.
VALID_RECORDS = {
    "arguments": (ARGS[0], PAIR_TABLE.read),
    "scores": ({**SCORES[0], **SCORES[1], **SCORES[2], "pair_id": "p1",
                "fact_pairs": [{"slots": [{"p_ent": 0.9, "p_con": 0.05}]}],
                "normative": {"p_conseq": 0.9, "p_norm": 0.1, "q_pos": 0.6, "q_neg": 0.1,
                              "p_adv": 0.5, "p_opp": 0.2, "r_consist": 0.7, "r_contra": 0.1}},
               parse_bundle),
    "predictions": ({"pair_id": "p1", "support": 0.93, "attack": 0.05, "neutral": 0.02,
                     "predicted": "support", "energy_share": 0.143, "converged": True},
                    PREDICTION_TABLES["ternary"].read),
    "config": ({"task_mode": "ternary", "chains": True, "hinge_power": "linear",
                "w_logic": {"R4": 0.5}, "w_chain": 1.0, "w_prior": 0.2,
                "prior_on_indirect": False,
                "grids": {"w_chain": [1.0, 0.5, 0.1], "w_prior": [0.2, 0.3]}},
               read_config),
    "synth config": ({"n_topics": 3, "tree_depth": 3, "branching": 2, "noise_sigma": 0.3,
                      "fractions": {"support": 0.35, "attack": 0.35, "neutral": 0.3},
                      "mechanism_mix": {"fact": 1.0, "causal": 2.0}, "seed": 11,
                      "informative_strength": 0.9, "task_mode": "ternary",
                      "split_fractions": {"fit": 0.0, "val": 0.3, "test": 0.7}},
                     SynthConfig.from_record),
}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.sampled_from([10 ** 400, -0.0])
    | st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([1e308, 1e-320])
    | st.text(max_size=4) | st.sampled_from(["support", "ternary", "0.5", "p1"]),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4) | st.sampled_from(["p_ent", "slots", "R1"]),
                      children, max_size=3),
    max_leaves=6)


def containers(value, found):
    """Every dict and list inside `value`, `value` included."""
    if isinstance(value, (dict, list)):
        found.append(value)
        for child in (value.values() if isinstance(value, dict) else value):
            containers(child, found)
    return found


@st.composite
def mutated(draw, record):
    """A deep copy of `record` with a few keys set, dropped or added at any depth."""
    record = json.loads(json.dumps(record))
    for _ in range(draw(st.integers(1, 3))):
        target = draw(st.sampled_from(containers(record, [])))
        keys = list(target) if isinstance(target, dict) else list(range(len(target)))
        action = draw(st.sampled_from(["set", "drop", "add"]))
        if action == "add" or not keys:
            if isinstance(target, dict):
                target[draw(st.text(max_size=6))] = draw(JSON_VALUES)
            else:
                target.append(draw(JSON_VALUES))
        elif action == "drop":
            del target[draw(st.sampled_from(keys))]
        else:
            target[draw(st.sampled_from(keys))] = draw(JSON_VALUES)
    return record


@pytest.mark.parametrize("kind", VALID_RECORDS)
def test_reader_raises_only_validation_error(kind):
    """Every mutated record either reads or raises ValidationError, which the
    CLI reports with exit code 2; any other exception would exit 1."""
    record, read = VALID_RECORDS[kind]
    read(record)

    @settings(max_examples=150, deadline=None)
    @given(mutated(record) | JSON_VALUES)
    def check(value):
        try:
            read(value)
        except ValidationError:
            pass
    check()


def conversion_cases():
    """(reader, record, the value it reads as, compared by repr, or None
    for a ValidationError)."""
    config, pred = read_config, PREDICTION_TABLES["ternary"].read
    scored = {"pair_id": "p", "predicted": "support"}
    return [
        # a JSON integer is a number: it reads as a float where a
        # probability or a weight is expected
        (parse_bundle, {"pair_id": "p", "nli": {"p_ent": 1}},
         ScoreBundle("p", nli=NliScores(1.0, 0.0, 0.0))),
        (parse_bundle, {"pair_id": "p", "causal": {"sc_cause": 0, "cs_cause": 1}},
         ScoreBundle("p", causal=CausalScores(0.0, 0.0, 1.0, 0.0))),
        (pred, {**scored, "support": 1, "attack": 0, "neutral": 0, "energy_share": 0},
         PairPrediction("p", {"support": 1.0, "attack": 0.0, "neutral": 0.0}, "support",
                        0.0, True)),
        (config, {"w_chain": 2, "w_logic": {"R4": 3}},
         RuleSetConfig(w_chain=2.0, w_logic={"R4": 3.0})),
        (config, {"w_logic": 1}, RuleSetConfig(w_logic=dict.fromkeys(LOGIC_RULES, 1.0))),
        (lambda r: CONFIG_TABLE.read(r)[1], {"grids": {"w_prior": [0, 1]}},
         {"w_prior": (0.0, 1.0)}),
        (SynthConfig.from_record, {"noise_sigma": 1, "mechanism_mix": {"fact": 2}},
         SynthConfig(noise_sigma=1.0, mechanism_mix={"fact": 2.0})),
        # nothing else is converted: a bool, a string or null is no number,
        # a number is no flag, and a float is no count
        (parse_bundle, {"pair_id": "p", "nli": {"p_ent": True}}, None),
        (parse_bundle, {"pair_id": "p", "nli": {"p_ent": "1"}}, None),
        (parse_bundle, {"pair_id": "p", "nli": {"p_ent": None}}, None),
        (parse_bundle, {"pair_id": "p", "nli": None}, None),
        (parse_bundle, {"pair_id": 1}, None),
        (pred, {**scored, "support": True, "attack": False, "neutral": False}, None),
        (pred, {**scored, "support": 1.0, "attack": 0.0, "neutral": 0.0, "converged": 1}, None),
        (config, {"w_chain": False}, None),
        (config, {"chains": 1}, None),
        (config, {"w_logic": "1"}, None),
        (SynthConfig.from_record, {"n_topics": 3.0}, None),
        (SynthConfig.from_record, {"seed": True}, None),
        (SynthConfig.from_record, {"n_topics": "3"}, None),
    ]


def test_integers_read_as_floats_and_nothing_else_is_converted():
    for read, record, expected in conversion_cases():
        if expected is None:
            with pytest.raises(ValidationError):
                read(record)
        else:
            assert repr(read(record)) == repr(expected), record


# ---------------------------------------------------------------------------
# the compiled reader against the walker


def synth_records():
    """Each pair and bundle record that `synth --seed 1..3` writes, and some
    manifest records of the same pairs."""
    records = []
    for seed in (1, 2, 3):
        graph, bundles, _ = generate(SynthConfig(seed=seed))
        for pid in sorted(graph.pairs):
            records.append((PAIR_TABLE, pair_to_record(graph.pairs[pid])))
            records.append((BUNDLE_TABLE, bundle_to_record(bundles[pid])))
        records += [(MANIFEST_TABLE, r) for r in emit_pair_manifest(graph, {})[:50]]
    return records


SYNTH_RECORDS = synth_records()
HAND_WRITTEN = {
    "pair": (PAIR_TABLE, ARGS[1]),
    "pair, defaults": (PAIR_TABLE, {"pair_id": "p", "statement_id": "s", "claim_id": "c"}),
    "bundle": (BUNDLE_TABLE, VALID_RECORDS["scores"][0]),
    "ternary prediction": (PREDICTION_TABLES["ternary"], VALID_RECORDS["predictions"][0]),
    "binary prediction": (PREDICTION_TABLES["binary"], {
        "pair_id": "p", "support": 0.25, "attack": 0.75, "predicted": "attack"}),
    "config": (CONFIG_TABLE, VALID_RECORDS["config"][0]),
    "config, one weight": (CONFIG_TABLE, {"w_logic": 0.5, "grids": {"w_prior": [0.1]}}),
    "synth config": (SYNTH_TABLE, VALID_RECORDS["synth config"][0]),
    "synth config, integers": (SYNTH_TABLE, {"split_fractions": {"val": 1}, "seed": 3}),
}


def group_names(table, found):
    """The field names of every group in `table` and the tables under it."""
    found += [names for _, names in table.groups]
    for _, kind, _, _ in table.rows:
        if kind.table is not None:
            group_names(kind.table, found)
    return found


GROUPS = sorted({names for table, _ in HAND_WRITTEN.values() for names in group_names(table, [])})
ODD_VALUES = st.sampled_from([
    True, False, None, 0, 1, 2, -1, 10 ** 400, 0.5, -0.5, 1.5, 1e308, 1e-320, -0.0,
    math.inf, -math.inf, math.nan, "", "0.5", "support", "direct", [], [0.5], {},
    {"p_ent": 0.5}, {"slots": []}])
SUM_TARGETS = st.sampled_from([1 + 1e-13, 1 - 1e-13, 1 + 1e-10, 1 - 1e-10, 1 + 2e-6, 1 + 1e-4,
                               1 - 1e-4, 1 + 0.02, 1 - 0.02, 1 + DIST_TOL + 1e-9,
                               1 + DIST_TOL - 1e-9])


@st.composite
def mutant(draw, record):
    """A copy of `record` with one to three of: a field dropped, added or
    renamed, a value swapped for one of another JSON type or out of range,
    or a group's sum moved off 1 (or to just either side of 1 + DIST_TOL)."""
    record = json.loads(json.dumps(record))
    for _ in range(draw(st.integers(1, 3))):
        target = draw(st.sampled_from(containers(record, [])))
        keys = list(target) if isinstance(target, dict) else list(range(len(target)))
        action = draw(st.sampled_from(["drop", "add", "rename", "swap", "sum", "sum", "sum"]))
        if not keys or action == "add":
            value = copy.deepcopy(draw(ODD_VALUES))
            if isinstance(target, dict):
                target[draw(st.sampled_from(["p_ent", "slots", "R1", "scores"])
                            | st.text(max_size=3))] = value
            else:
                target.append(value)
            continue
        key = draw(st.sampled_from(keys))
        if action == "drop":
            del target[key]
        elif action == "rename" and isinstance(target, dict):
            target[key + draw(st.sampled_from(["_", "s"]))] = target.pop(key)
        elif action == "sum" and isinstance(target, dict):
            groups = [names for names in GROUPS if set(names) <= target.keys() and all(
                type(target[n]) in (int, float) and abs(target[n]) <= 1e300 for n in names)]
            if groups:
                first, *rest = draw(st.sampled_from(groups))
                target[first] = draw(SUM_TARGETS) - sum(target[n] for n in rest)
        else:
            target[key] = copy.deepcopy(draw(ODD_VALUES))
    return record


def outcome(read):
    """What one reader makes of a record: its value's repr or the exception
    it raised, and every message it logged."""
    messages = []
    handler = logging.Handler()
    handler.emit = lambda rec: messages.append(rec.getMessage())
    logger = logging.getLogger("arglogic")
    logger.addHandler(handler)
    try:
        result = ("value", repr(read()))
    except Exception as exc:  # any exception, so that a difference shows
        result = (type(exc).__name__, str(exc))
    finally:
        logger.removeHandler(handler)
    return result, messages


def test_compiled_reader_reads_valid_records_as_the_walker_does():
    for table, record in SYNTH_RECORDS + list(HAND_WRITTEN.values()):
        compiled = outcome(lambda: table.read(record, 5))
        assert compiled == outcome(lambda: model._walk(table, record, 5, "field"))
        assert compiled[0][0] == "value" and compiled[1] == []


@pytest.mark.parametrize("start", [*HAND_WRITTEN, "synth"])
def test_compiled_reader_agrees_with_the_walker_on_mutants(start):
    """A mutated record reads to the same value or raises the same error
    text, and logs the same renormalisation warnings, through either reader."""
    cases = SYNTH_RECORDS[::50] if start == "synth" else [HAND_WRITTEN[start]]

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(cases).flatmap(
        lambda case: st.tuples(st.just(case[0]), mutant(case[1]))))
    def check(case):
        table, record = case
        what = "config field" if table is CONFIG_TABLE else "field"
        compiled = outcome(lambda: table.read(record, 3, what))
        assert compiled == outcome(lambda: model._walk(table, record, 3, what))
    check()


# ---------------------------------------------------------------------------
# the orjson line reader against the json one

JSONL_TABLES = {"arguments": PAIR_TABLE, "scores": BUNDLE_TABLE,
                "predictions": PREDICTION_TABLES["ternary"]}


def jsonl_outcome(read, path, table):
    return outcome(lambda: list(read(path, table)))


@pytest.mark.parametrize("kind", sorted(JSONL_TABLES))
def test_jsonl_reader_reads_what_json_reads(kind, tmp_path):
    """Lines of mutated records, NaN, infinities and big integers included,
    read to the same (line, value) list, or raise the same error and log
    the same warnings, through `read_jsonl` and the `json` reader."""
    record, table = VALID_RECORDS[kind][0], JSONL_TABLES[kind]
    path = tmp_path / "in.jsonl"

    @settings(max_examples=150, deadline=None)
    @given(st.lists(mutated(record) | mutant(record) | st.just(record) | JSON_VALUES,
                    min_size=1, max_size=4), st.booleans())
    def check(records, ascii):
        text = "".join(json.dumps(r, ensure_ascii=ascii) + "\n" for r in records)
        # a lone surrogate written raw is no UTF-8: it goes as its JSON escape
        path.write_bytes(text.encode("utf-8", "backslashreplace"))
        expected = jsonl_outcome(read_jsonl_by_json, path, table)
        assert jsonl_outcome(model.read_jsonl, path, table) == expected
    check()


VALID_PAIR = '"statement_id": "s", "claim_id": "c"'
JSONL_CASES = {  # name: (table, the file's text, what its reading holds)
    "30-digit integer": (
        BUNDLE_TABLE, '{"pair_id": "p", "causal": {"sc_cause": 123456789012345678901234567890}}\n',
        "got 123456789012345678901234567890"),
    "NaN": (BUNDLE_TABLE, '{"pair_id": "p", "nli": {"p_ent": NaN}}\n', "got nan"),
    "Infinity": (BUNDLE_TABLE, '{"pair_id": "p", "nli": {"p_ent": Infinity}}\n', "got inf"),
    "1e400": (BUNDLE_TABLE, '{"pair_id": "p", "nli": {"p_ent": 1e400}}\n', "got inf"),
    "lone surrogate": (PAIR_TABLE, '{"pair_id": "\\ud800", %s}\n' % VALID_PAIR,
                       "pair_id='\\ud800'"),
    "duplicate keys": (PAIR_TABLE, '{"pair_id": "a", "pair_id": "b", %s}\n' % VALID_PAIR,
                       "pair_id='b'"),
    "extra data": (PAIR_TABLE, '{"pair_id": "a", %s} x\n' % VALID_PAIR,
                   "line 1: malformed JSON: Extra data"),
    "blank lines": (PAIR_TABLE, ' \t\n\x0c\n\x1c \n{"pair_id": "a", %s}\n\n' % VALID_PAIR,
                    "[(4, ArgumentPair(pair_id='a'"),
    "padded": (PAIR_TABLE, '\x0c{"pair_id": "a", %s}\x1c\n\x1c{"pair_id": "b", %s}\x0c\n' % (
        VALID_PAIR, VALID_PAIR), "(2, ArgumentPair(pair_id='b'"),
    "CR line ends": (PAIR_TABLE, '{"pair_id": "a", %s}\r{"pair_id": "b", %s}\r' % (
        VALID_PAIR, VALID_PAIR), "(2, ArgumentPair(pair_id='b'"),
}


@pytest.mark.parametrize("case", JSONL_CASES)
def test_jsonl_reader_reads_the_hand_cases_as_json_does(case, tmp_path):
    """The lines orjson refuses or reads otherwise (a big integer, NaN,
    1e400, a lone surrogate) read as `json` reads them, and so do duplicate
    keys, trailing data, blank or padded lines and `\\r` line ends."""
    table, text, holds = JSONL_CASES[case]
    path = tmp_path / "in.jsonl"
    path.write_text(text, encoding="utf-8", newline="")
    expected = jsonl_outcome(read_jsonl_by_json, path, table)
    assert jsonl_outcome(model.read_jsonl, path, table) == expected
    assert holds in expected[0][1]


def in_fresh_interpreter(code: str):
    """What `code` prints, read as JSON, run in a new interpreter (where no
    table has compiled anything yet)."""
    env = {**os.environ, "PYTHONPATH": str(Path(model.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


COMPILED = """
    def compiled(*tables):
        return [sorted(vars(t).keys() & {"check", "write", "line"}) for t in tables]
"""


def test_import_compiles_no_reader_or_writer():
    n_tables, compiled = in_fresh_interpreter(COMPILED + """
    import gc, json
    import arglogic.cli
    from arglogic.model import Table
    tables = [t for t in gc.get_objects() if isinstance(t, Table)]
    print(json.dumps([len(tables), compiled(*tables)]))
    """)
    assert n_tables >= 19  # every record kind, nested ones included
    assert compiled == [[]] * n_tables


def test_config_tables_read_without_building_writers():
    """Reading a rule-set config and a synth config compiles their readers,
    each nested table's `check` bound in the outer one's code, and no
    writer: theirs cannot be built, since they read into dicts."""
    config, synth = in_fresh_interpreter(COMPILED + """
    import json
    from arglogic.rules import CONFIG_TABLE
    from arglogic.synth import SYNTH_TABLE, SynthConfig
    CONFIG_TABLE.read({"w_logic": 2.0, "grids": {"w_prior": [0.2]}})
    SynthConfig.from_record({"fractions": {"support": 0.5, "attack": 0.5}})
    out = []
    for outer in (CONFIG_TABLE, SYNTH_TABLE):
        inner = [kind.table for _, kind, _, _ in outer.rows if kind.table is not None]
        bound = outer.check.__globals__.values()
        out.append([len(inner), all(any(v is t.check for v in bound) for t in inner),
                    compiled(outer, *inner)])
    print(json.dumps(out))
    """)
    assert config == [2, True, [["check"]] * 3]
    assert synth == [3, True, [["check"]] * 4]


def test_tables_read_into_a_dict_refuse_to_write():
    """A dict has no attributes for a writer to read: writing a table that
    reads into one, or nests one that does, raises TypeError naming it."""
    weights = Table(dict, [("a", NUMBER, None, None), ("b", NUMBER, None, None)])
    with pytest.raises(TypeError, match=r"fields \(a, b\) cannot be written"):
        weights.write({"a": 1.0})
    for table, value, field in ((CONFIG_TABLE, (RuleSetConfig(), {}), "w_logic"),
                                (SYNTH_TABLE, SynthConfig(), "fractions")):
        with pytest.raises(TypeError, match=f"field '{field}' cannot be written") as exc:
            table.write(value)
        assert str(exc.value).startswith(f"the table of fields ({table.rows[0][0]}, ")
        assert "into a dict" in str(exc.value.__cause__)


def test_dump_json_refuses_nan(tmp_path):
    with pytest.raises(ValueError):
        model.dump_json({"macro_auc": math.nan}, tmp_path / "report.json")
    assert list(tmp_path.iterdir()) == []


def test_dump_jsonl_refuses_nan_and_infinities(tmp_path):
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            dump_jsonl([{"a": 0.5}, {"a": bad}], tmp_path / "z.jsonl")
    assert list(tmp_path.iterdir()) == []


def test_failed_write_leaves_neither_the_file_nor_its_temporary(tmp_path):
    def records():
        yield {"a": 1}
        raise RuntimeError("no more records")

    with pytest.raises(RuntimeError, match="no more records"):
        dump_jsonl(records(), tmp_path / "z.jsonl")
    with pytest.raises(ValueError):
        dump_jsonl([{"a": 1}, {"a": math.nan}], tmp_path / "z.jsonl")
    assert list(tmp_path.iterdir()) == []
    # an existing file stays as it was
    dump_jsonl([{"a": 1}], tmp_path / "z.jsonl")
    with pytest.raises(RuntimeError):
        dump_jsonl(records(), tmp_path / "z.jsonl")
    assert [p.name for p in tmp_path.iterdir()] == ["z.jsonl"]
    assert (tmp_path / "z.jsonl").read_text() == '{"a": 1}\n'


# Floats in [0, 1], the extremes and exponent forms among them.
LINE_FLOATS = (st.sampled_from([0.0, 1.0, 5e-324, 1e-07, 2.5e-05, 0.1, 1 - 2 ** -53])
               | st.floats(0.0, 1.0) | st.floats(0.0, 1e-4))
# Quotes, backslashes, control characters, non-ASCII and astral-plane characters.
LINE_TEXT = st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f é€ \U0001f600ab%s{}'))


@settings(max_examples=300, deadline=None)
@given(mode=st.sampled_from(sorted(PREDICTION_TABLES)), pair_id=LINE_TEXT,
       scores=st.lists(LINE_FLOATS, min_size=3, max_size=3), share=LINE_FLOATS,
       predicted_at=st.integers(0, 2), converged=st.booleans())
def test_table_line_is_json_dumps_of_the_record(mode, pair_id, scores, share,
                                                predicted_at, converged):
    table = PREDICTION_TABLES[mode]
    labels = [row[0] for row in table.rows[1:-3]]
    scores = dict(zip(labels, scores))
    predicted = labels[predicted_at % len(labels)]
    record = table.write(PairPrediction(pair_id, scores, predicted, share, converged))
    line = table.line(pair_id, *scores.values(), predicted, share, converged)
    assert line == json.dumps(record, sort_keys=True) + "\n"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("at", [1, 2, 4])
def test_table_line_refuses_what_json_cannot_hold(bad, at):
    values = ["p", 0.5, 0.5, "support", 0.0, True]
    values[at] = bad
    with pytest.raises(ValueError, match="not a JSON number"):
        PREDICTION_TABLES["binary"].line(*values)


def test_table_line_refuses_tables_not_written_as_one_line():
    flat = [("a", NUMBER, REQUIRED, None)]
    nested = Table("Outer", [*flat, ("inner", model.nested(Table("Inner", flat)), REQUIRED, None)])
    many = Table("Many", [*flat, ("items", model.array(NUMBER), REQUIRED, None)])
    optional = Table("Optional", [*flat, ("gold", model.STRING, None, None)])
    for table, field in ((nested, "inner"), (many, "items"), (optional, "gold"),
                         (PAIR_TABLE, "gold"), (BUNDLE_TABLE, "nli")):
        with pytest.raises(TypeError, match=rf"fields \({table.rows[0][0]}, .*\) cannot be "
                                            rf"written as one line: .*'{field}'"):
            table.line
    assert Table("Flat", flat).line(0.25) == '{"a": 0.25}\n'
