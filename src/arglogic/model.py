"""Argument graph, relation labels, score bundles, and dataset I/O.

The dataset lives in two line-delimited JSON files: an arguments file
(one statement/claim pair per line) and a scores file (one bundle of
upstream probabilities per line).  See FORMATS.md for field names.

Every record read or written is declared once, as a `Table` of (field
name, kind, default, group) rows: `Table.read` checks a JSON object and
builds its value, `Table.write` turns the value back into the object.
Only the reader and `Table.line` are compiled, each once per table, on
first use.  The compiled reader inlines every field's check; the generic
walker `_read` only reads a record the compiled reader turns down, so it
alone words errors and renormalises distributions.  `read_jsonl` decodes
lines with orjson, and with `json` only a line that orjson or the compiled
reader refuses.  `Table.line` writes a flat record's values straight to
its JSONL line, without building the record.  `Table.write` is a plain
loop over the rows.
The pair and score block types are made from their tables.  The tables
of configs and predictions live next to the types they build
(`rules.py`, `synth.py`, `infer.py`).
"""

from __future__ import annotations

import contextlib
import json
import logging
import math
import os
import sys
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import takewhile
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, NamedTuple, Optional

import orjson

log = logging.getLogger(__name__)

SUPPORT = "support"
ATTACK = "attack"
NEUTRAL = "neutral"

TERNARY_LABELS = (SUPPORT, ATTACK, NEUTRAL)
BINARY_LABELS = (SUPPORT, ATTACK)
TASK_MODES = ("ternary", "binary")
SPLITS = ("fit", "val", "test")

DIST_TOL = 1e-3  # pairwise-sum slack (normative blocks)
DIST_RENORM_TOL = 1e-2 + 1e-9  # 3-way distributions further off are hard errors


class ValidationError(ValueError):
    """Raised for malformed or inconsistent input data."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def labels_for_mode(task_mode: str) -> tuple[str, ...]:
    if task_mode == "ternary":
        return TERNARY_LABELS
    if task_mode == "binary":
        return BINARY_LABELS
    raise ValidationError(f"unknown task_mode {task_mode!r}")


def default_label(task_mode: str) -> str:
    """The no-evidence relation: neutral (ternary) or attack (binary)."""
    return NEUTRAL if task_mode == "ternary" else ATTACK


@dataclass
class ArgumentGraph:
    """The pairs of one task mode, by pair id.  `add_pair` checks each pair
    it is given; `build_indirect` adds the chains' indirect pairs."""

    task_mode: str = "ternary"
    pairs: dict[str, ArgumentPair] = field(default_factory=dict)

    def add_pair(self, pair: ArgumentPair, line=None):
        if pair.statement_id == pair.claim_id:
            raise ValidationError(f"pair {pair.pair_id!r}: statement_id equals claim_id", line)
        if pair.pair_id in self.pairs:
            raise ValidationError(f"duplicate pair_id {pair.pair_id!r}", line)
        if self.task_mode == "binary" and pair.gold == NEUTRAL:
            raise ValidationError(
                f"pair {pair.pair_id!r}: neutral gold is illegal in binary mode", line
            )
        self.pairs[pair.pair_id] = pair

    def __iter__(self):
        return iter(self.pairs.values())

    def __len__(self):
        return len(self.pairs)

    def direct_pairs(self) -> list[ArgumentPair]:
        return [p for p in self.pairs.values() if p.kind == "direct"]

    def indirect_pairs(self) -> list[ArgumentPair]:
        return [p for p in self.pairs.values() if p.kind == "indirect"]


def connected_components(graph: ArgumentGraph) -> list[list[ArgumentPair]]:
    """Partition pairs into components; pairs sharing a node are connected.

    Components come in the order of their first pair id, and each holds
    its pairs in pair-id order; grounding relies on both.  Chain triples
    never bridge otherwise-disconnected pairs because every triple's three
    pairs already share nodes pairwise through S, I, C.
    """
    parent: dict[str, str] = {}  # node -> a node of its component, or itself at the root

    def find(x):
        root = parent.setdefault(x, x)
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for pair in graph.pairs.values():
        parent[find(pair.claim_id)] = find(pair.statement_id)
    groups: dict[str, list[ArgumentPair]] = {}
    for pid in sorted(graph.pairs):
        pair = graph.pairs[pid]
        groups.setdefault(find(pair.statement_id), []).append(pair)
    return list(groups.values())


# ---------------------------------------------------------------------------
# record schema

class _Invalid(Exception):
    """A value that does not fit its row.  `path` gathers field names and
    array indices outwards as the error unwinds; `fields` names a group's
    fields inside the object at `path`."""

    def __init__(self, problem, *path, fields=()):
        super().__init__(problem)
        self.problem, self.path, self.fields = problem, list(path), fields

    def message(self, what: str) -> str:
        def dotted(*parts):
            return "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in parts)[1:]
        outer = self.path[::-1]
        if self.fields:
            names = ", ".join(repr(dotted(*outer, name)) for name in self.fields)
            return f"{what}s {names} {self.problem}"
        return f"{what} {dotted(*outer)!r} {self.problem}" if outer else f"record {self.problem}"


class Kind(NamedTuple):
    """How one field is read.  `read(value, line)` is the walker's: it
    returns the field's value or raises _Invalid.  The compiled reader
    inlines `test`, a Python expression true of the JSON values `read`
    accepts, and `value`, the expression of what `read` returns for them; in
    both, `{0}` stands for the JSON value and `{1}` for `arg`, or for the
    `check` of `table`, a nested object's (each item's if `many`), bound
    when the outer table compiles.  A nested table's `test` is "True": its
    `value` calls that `check`, which raises _Reject instead.  The writer
    recurses into `table` too.  `text`, the expression of a value's JSON
    text (`{0}` the value, names from `_LINE_ENV`), is what `Table.line`
    inlines; a kind without one cannot be written on one line."""
    read: Callable
    test: str = "True"
    value: str = "{0}"
    arg: object = None
    table: Optional["Table"] = None
    many: bool = False
    text: Optional[str] = None


# The JSON text of a value of each type, as `json.dumps` writes it: a
# number by its repr (a float that is not finite raises ValueError, as
# JSON has no NaN or infinity), a string escaped to ASCII.
_TEXT = {float: "(_float({0}) if _finite({0}) else _not_finite({0}))", int: "_int({0})",
         str: "_str({0})", bool: '("true" if {0} else "false")'}


def _not_finite(value):
    raise ValueError(f"{value!r} is not a JSON number")


_LINE_ENV = {"_float": float.__repr__, "_int": int.__repr__, "_finite": math.isfinite,
             "_not_finite": _not_finite, "_str": encode_basestring_ascii}


def _number(name: str, high=sys.float_info.max, json_types=(float, int), convert=float,
            low=0) -> Kind:
    def read(value, line):
        if type(value) in json_types and low <= value <= high:
            return convert(value)
        raise _Invalid(f"must be {name}, got {value!r}")
    types = " or ".join(f"type({{0}}) is {t.__name__}" for t in json_types)
    bound = f" <= {high!r}" if high < math.inf else ""
    return Kind(read, f"({types}) and {low!r} <= {{0}}{bound}", f"{convert.__name__}({{0}})",
                text=_TEXT[convert])


def _of_type(json_type: type, name: str, values=None) -> Kind:
    def read(value, line):
        if type(value) is json_type and (values is None or value in values):
            return value
        raise _Invalid(f"must be {name}, got {value!r}")
    member = "" if values is None else " and {0} in {1}"
    return Kind(read, f"type({{0}}) is {json_type.__name__}{member}", arg=values,
                text=_TEXT[json_type])


def choice(*values: str) -> Kind:
    return _of_type(str, f"one of {list(values)}", values)


PROB = _number("a probability, a JSON number in [0, 1]", high=1)
NUMBER = _number("a finite non-negative JSON number")
COUNT = _number("a non-negative JSON integer", math.inf, (int,), int)
POSITIVE_COUNT = _number("a positive JSON integer", math.inf, (int,), int, low=1)
BOOL, STRING = _of_type(bool, "true or false"), _of_type(str, "a JSON string")
UNCHECKED = Kind(lambda value, line: value)  # for a field its receiver checks


def nested(table: "Table", spread: bool = False) -> Kind:
    """A JSON object read by `table`.  Given `spread`, a value that is not an
    object stands for each of the table's fields (`"w_logic": 1`)."""
    if not spread:
        return Kind(partial(_read, table), value="{1}({0})", table=table)
    names = tuple(row[0] for row in table.rows)

    def read(value, line):
        return _read(table, value if isinstance(value, dict) else dict.fromkeys(names, value), line)
    value = "{1}({0} if isinstance({0}, dict) else dict.fromkeys(%r, {0}))" % (names,)
    return Kind(read, value=value, table=table)


def array(item: Kind, non_empty: bool = False) -> Kind:
    """A JSON array of `item` values, read as a tuple."""
    def read(value, line):
        if type(value) is not list or (non_empty and not value):
            raise _Invalid(f"must be a {'non-empty ' * non_empty}JSON array, got {value!r}")
        items = []
        for i, entry in enumerate(value):
            try:
                items.append(item.read(entry, line))
            except _Invalid as exc:
                exc.path.append(i)
                raise
        return tuple(items)
    test = "type({0}) is list" + " and {0}" * non_empty
    if item.test != "True":
        test += f" and all({item.test.format('_e', '{1}')} for _e in {{0}})"
    if item.value == "{1}({0})":  # a nested table's reader
        value = "tuple(map({1}, {0}))"
    else:
        value = f"tuple([{item.value.format('_e', '{1}')} for _e in {{0}}])"
    return Kind(read, test, value, item.arg, item.table, many=True)


class Group:
    """Rows sharing one Group are checked together by the walker's
    `check(values, names, line)`.  The compiled reader passes them as they
    are when `accepts`, an expression over `{0}`, the tuple of their
    values, is true, and leaves the record to the walker otherwise.  A
    group `held_in` an attribute is one dict there, not one attribute per
    field."""

    def __init__(self, check: Callable, accepts: str, held_in: Optional[str] = None):
        self.check, self.accepts, self.held_in = check, accepts, held_in


def _renormalise(values, names, line):
    """A distribution; one off by at most DIST_RENORM_TOL is renormalised."""
    vals = list(map(values.__getitem__, names))
    total = sum(vals)
    if abs(total - 1.0) > DIST_RENORM_TOL:
        raise _Invalid(f"sum to {total:.6f}, not 1", fields=names)
    if abs(total - 1.0) > 1e-12:
        if abs(total - 1.0) > 1e-6:
            log.warning("line %s: %s sum to %.6f, renormalizing", line, " + ".join(names), total)
        values.update((name, v / total) for name, v in zip(names, vals))


def sums_to_one(held_in: Optional[str] = None) -> Group:
    return Group(_renormalise, "abs(sum({0}) - 1.0) <= 1e-12", held_in)


def _check_at_most_one(values, names, line):
    total = sum(map(values.__getitem__, names))
    if total > 1.0 + DIST_TOL:
        raise _Invalid(f"sum to {total:.6f}, more than 1", fields=names)


def at_most_one() -> Group:
    return Group(_check_at_most_one, f"sum({{0}}) <= {1.0 + DIST_TOL!r}")


REQUIRED = object()  # the default of a field that must be given


class Table:
    """One record kind: rows of (field name, Kind, default, Group or None)
    and `make(**fields)`, which builds the value read (given a class name,
    the table makes a named tuple of its fields).  A REQUIRED field must be
    given.  A field whose default is None may be left out, the value then
    taking its own default, and is not written while it is None.  Any other
    default is the value of a field left out.  Unknown fields are errors.
    `check`, compiled on first use, reads a record or raises _Reject;
    `line(*values)`, compiled on first use too, writes the record of field
    values given in row order as its JSONL line; `write`, built on first
    use and not compiled, turns the value back into the record."""

    def __init__(self, make, rows):
        self.rows = rows = tuple(rows)
        self.positional = positional = isinstance(make, str)
        if positional:
            trailing = takewhile(lambda d: d is not REQUIRED, (row[2] for row in rows[::-1]))
            make = namedtuple(make, [row[0] for row in rows], defaults=list(trailing)[::-1])
        self.make = make
        self.readers = {name: kind.read for name, kind, _, _ in rows}
        self.defaults = {name: d for name, _, d, _ in rows if d is not None and d is not REQUIRED}
        self.required = frozenset(name for name, _, d, _ in rows if d is REQUIRED)
        groups: dict[Group, list[str]] = {}
        for name, _, _, group in rows:
            if group is not None:
                groups.setdefault(group, []).append(name)
        self.groups = tuple((group, tuple(names)) for group, names in groups.items())

    check = cached_property(lambda self: _reader(self))
    write = cached_property(lambda self: _writer(self))
    line = cached_property(lambda self: _line(self))

    def read(self, record, line=None, what: str = "field"):
        """The value of one JSON object.  A ValidationError names the line
        and the field's dotted path, e.g. `fact_pairs[0].slots[1].p_con`;
        `what` is the word before the path."""
        try:
            return self.check(record)
        except (_Reject, ValidationError):
            return _walk(self, record, line, what)


class _Reject(Exception):
    """The compiled reader does not accept a record as it stands."""


_MISSING = object()  # a field the record leaves out


def _reader(table: Table) -> Callable:
    """`check(record)`, compiled once per table as `_line` is: each row's
    test and conversion inlined, a nested table's `check` called directly,
    each group's `accepts`, and the value built positionally if the table
    made its own named tuple.  Where it does not accept a record (an error,
    a missing field, a distribution to renormalise, a `make` that raises),
    it raises _Reject (or `make`'s error), and `Table.read` hands the
    record to the walker, which words the error or renormalises: the
    compiled code words no error of its own."""
    positional = table.positional
    env = {"_Reject": _Reject, "_MISSING": _MISSING, "_make": table.make,
           "_new": tuple.__new__, "_keys": frozenset(table.readers), "_defaults": table.defaults}
    local = {}  # field name -> the local variable holding its value
    loads, tests, converts = [], [], []
    for i, (name, kind, default, _) in enumerate(table.rows):
        v = local[name] = f"v{i}"
        env[f"_a{i}"] = kind.arg if kind.table is None else kind.table.check
        test, value = kind.test.format(v, f"_a{i}"), kind.value.format(v, f"_a{i}")
        loads.append(f"{v} = record.get({name!r}, _MISSING)")
        if default is REQUIRED:
            tests.append(f"({v} is not _MISSING" + (")" if test == "True" else f" and {test})"))
            if value != v:
                converts.append(f"{v} = {value}" if positional
                                else f"values[{name!r}] = {value}")
            continue
        if test != "True":
            tests.append(f"({v} is _MISSING or {test})")
        if positional:
            env[f"_d{i}"] = default
            converts.append(f"{v} = _d{i} if {v} is _MISSING else {value}")
        elif value != v:
            converts.append(f"if {v} is not _MISSING: values[{name!r}] = {value}")

    if positional:
        build = "return _new(_make, (%s,))" % ", ".join(local[name] for name, *_ in table.rows)
    else:
        converts.insert(0, "values = _defaults | record")
        build = "return _make(**values)"
    group_tests, moves = [], []
    for group, names in table.groups:
        members = [local[n] if positional else f"values[{n!r}]" for n in names]
        group_tests.append("(%s)" % group.accepts.format("(%s,)" % ", ".join(members)))
        if group.held_in is not None:
            moves.append(f"values[{group.held_in!r}] = {{%s}}" % ", ".join(
                f"{n!r}: values.pop({n!r})" for n in names))

    lines, depth = ["    if type(record) is dict and _keys.issuperset(record):"], 2
    for block, condition in ((loads, tests), (converts, group_tests)):
        lines += ["    " * depth + line for line in block]
        if condition:
            lines.append("    " * depth + f"if {' and '.join(condition)}:")
            depth += 1
    lines += ["    " * depth + line for line in (*moves, build)]
    exec("def check(record):\n%s\n    raise _Reject\n" % "\n".join(lines), env)
    return env["check"]


def _walk(table: Table, record, line, what: str):
    """The walker's reading of a record `check` did not accept: the value,
    renormalised, or the ValidationError that names the line and path."""
    try:
        return _read(table, record, line)
    except _Invalid as exc:
        raise ValidationError(exc.message(what), line) from None
    except ValidationError as exc:  # from `make`, which knows no line
        raise ValidationError(str(exc), line) from None


def _read(table: Table, value, line):
    if type(value) is not dict:
        raise _Invalid(f"must be a JSON object, got {value!r}")
    values = table.defaults.copy()
    readers = table.readers
    for name, field_value in value.items():
        try:
            values[name] = readers[name](field_value, line)
        except _Invalid as exc:
            exc.path.append(name)
            raise
        except KeyError:  # no reader raises KeyError
            raise _Invalid(f"is unknown (expected one of {', '.join(readers)})", name) from None
    if table.required and not value.keys() >= table.required:
        raise _Invalid("is missing", min(table.required - value.keys()))
    for group, names in table.groups:
        group.check(values, names, line)
        if group.held_in is not None:
            values[group.held_in] = {name: values.pop(name) for name in names}
    return table.make(**values)


def _writer(table: Table) -> Callable:
    """`write(obj)`: one loop over the rows.  A field of a group `held_in`
    a dict is read from that dict, a None optional field is left out and a
    nested value is written by its table's writer, built here too.  A
    table that reads records into a dict, or nests one that does, has no
    attributes to write from: building its writer raises TypeError."""
    if table.make is dict:
        raise _unwritable(table, "written", "it reads records into a dict")
    fields = []  # (name, the dict holding it or None, optional, nested writer or None, many)
    for name, kind, default, group in table.rows:
        try:
            sub = kind.table.write if kind.table is not None else None
        except TypeError as exc:
            raise _unwritable(table, "written", f"field {name!r} cannot be written") from exc
        fields.append((name, group and group.held_in, default is None, sub, kind.many))

    def write(obj) -> dict:
        record = {}
        for name, held_in, optional, sub, many in fields:
            value = getattr(obj, held_in)[name] if held_in else getattr(obj, name)
            if value is None and optional:
                continue
            if sub is not None:
                value = [sub(v) for v in value] if many else sub(value)
            record[name] = value
        return record
    return write


def _line(table: Table) -> Callable:
    """`line(*values)`, compiled once per table: one %-format string with
    the fields in sorted key order, the order `json.dumps(sort_keys=True)`
    writes them in, filled with each value's `Kind.text`, so the line is
    the one `dump_jsonl` writes for the record.
    Only a table of fields that are always written, each on one line, has
    one: a nested, array or optional (None default) field raises TypeError."""
    rows = table.rows
    lacking = [name for name, kind, default, _ in rows if kind.text is None or default is None]
    if lacking:
        raise _unwritable(table, "written as one line", "its fields %s are nested, arrays "
                          "or optional" % ", ".join(map(repr, lacking)))
    order = sorted(range(len(rows)), key=lambda i: rows[i][0])
    template = "{%s}\n" % ", ".join(json.dumps(rows[i][0]).replace("%", "%%") + ": %s"
                                    for i in order)
    args = ", ".join(f"v{i}" for i in range(len(rows)))
    texts = ", ".join(rows[i][1].text.format(f"v{i}") for i in order)
    return eval(f"lambda {args}: {template!r} % ({texts},)", dict(_LINE_ENV))


def _unwritable(table: Table, how: str, why: str) -> TypeError:
    names = ", ".join(row[0] for row in table.rows)
    return TypeError(f"the table of fields ({names}) cannot be {how}: {why}")


# ---------------------------------------------------------------------------
# argument and score records (FORMATS.md)

PAIR_TABLE = Table("ArgumentPair", [
    *((name, STRING, REQUIRED, None) for name in ("pair_id", "statement_id", "claim_id")),
    ("kind", choice("direct", "indirect"), "direct", None),
    ("gold", choice(*TERNARY_LABELS), None, None),
    ("split", choice(*SPLITS), "test", None),
])
ArgumentPair = PAIR_TABLE.make


def _probs(names: str, group: Optional[Group] = None) -> list:
    """Probability rows; a probability left out of its block reads as 0."""
    return [(name, PROB, 0.0, group) for name in names.split()]


_NLI = Table("NliScores", _probs("p_ent p_con p_neu", sums_to_one()))
_SLOT = Table("SlotScore", _probs("p_ent p_con"))
_TUPLE_PAIR = Table("TuplePairScores", [
    ("slots", array(nested(_SLOT), non_empty=True), REQUIRED, None)])
_SENTI_DIST = Table("SentiDist", _probs("p_pos p_neg p_neu", sums_to_one()))
_SENTI_PAIR = Table("SentiPairScores", [
    *_probs("p_match"),
    ("s_stmt", nested(_SENTI_DIST), REQUIRED, None),
    ("s_claim", nested(_SENTI_DIST), REQUIRED, None)])
_CAUSAL = Table("CausalScores", _probs("sc_cause sc_obstruct cs_cause cs_obstruct"))
_NORMATIVE = Table("NormativeScores", [
    *_probs("p_conseq p_norm"), *_probs("q_pos q_neg", at_most_one()),
    *_probs("p_adv p_opp", at_most_one()), *_probs("r_consist r_contra", at_most_one())])
BUNDLE_TABLE = Table("ScoreBundle", [
    ("pair_id", STRING, REQUIRED, None),
    ("nli", nested(_NLI), None, None),
    ("fact_pairs", array(nested(_TUPLE_PAIR)), None, None),
    ("senti_pairs", array(nested(_SENTI_PAIR)), None, None),
    ("causal", nested(_CAUSAL), None, None),
    ("normative", nested(_NORMATIVE), None, None)])

NliScores, SlotScore, TuplePairScores = _NLI.make, _SLOT.make, _TUPLE_PAIR.make
SentiDist, SentiPairScores = _SENTI_DIST.make, _SENTI_PAIR.make
CausalScores, NormativeScores, ScoreBundle = _CAUSAL.make, _NORMATIVE.make, BUNDLE_TABLE.make

parse_bundle = BUNDLE_TABLE.read


def pair_to_record(pair: ArgumentPair) -> dict:
    return PAIR_TABLE.write(pair)


def bundle_to_record(bundle: ScoreBundle) -> dict:
    return BUNDLE_TABLE.write(bundle)


_decode = json.JSONDecoder().raw_decode  # json.loads less its Python-level checks


def read_jsonl(path, table: Table):
    """(line number, value) for each non-blank line of a UTF-8 JSONL file.

    Each stripped line is decoded by `orjson` and read by the table's
    compiled `check`.  A line orjson refuses, or whose record `check` does
    not accept, is read again from its text by `json` (`_read_line`), so
    the walker reads, and every error words, `json`'s values: a big
    integer, `NaN` or `1e400` reads as `json` reads it.  A byte that is not
    UTF-8 is an error naming its line."""
    check = table.check
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                value = check(orjson.loads(raw))
            except (orjson.JSONDecodeError, _Reject, ValidationError):
                value = _read_line(table, raw, lineno)
            yield lineno, value


def _read_line(table: Table, raw: str, lineno: int):
    """One stripped line's value as `json` reads it, or the ValidationError
    naming the line.  A byte that is not UTF-8 was read as a lone
    surrogate (`surrogateescape`); decoding the line's bytes again names it."""
    try:
        raw.encode("utf-8", "surrogateescape").decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"not UTF-8: {exc}", lineno) from None
    try:
        record, end = _decode(raw)
        if end < len(raw):
            raise json.JSONDecodeError("Extra data", raw, end)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed JSON: {exc}", lineno)
    return table.read(record, lineno)


def load_json_object(path, what: str) -> dict:
    """One JSON object from a UTF-8 file (a config), read by `json`, which
    keeps a big count exact; `what` names it in errors."""
    with open(path, encoding="utf-8") as fh:
        try:
            record = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{what} {path}: invalid JSON: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{what} {path}: not UTF-8: {exc}") from None
    if not isinstance(record, dict):
        raise ValidationError(f"{what} {path} must hold a JSON object")
    return record


def load_arguments(path, task_mode: str) -> ArgumentGraph:
    graph = ArgumentGraph(task_mode=task_mode)
    for lineno, pair in read_jsonl(path, PAIR_TABLE):
        graph.add_pair(pair, lineno)
    return graph


def load_scores(path, graph: ArgumentGraph) -> dict[str, ScoreBundle]:
    bundles: dict[str, ScoreBundle] = {}
    for lineno, bundle in read_jsonl(path, BUNDLE_TABLE):
        if bundle.pair_id not in graph.pairs:
            raise ValidationError(
                f"bundle references unknown pair_id {bundle.pair_id!r}", lineno)
        if bundle.pair_id in bundles:
            raise ValidationError(f"duplicate bundle for pair {bundle.pair_id!r}", lineno)
        bundles[bundle.pair_id] = bundle
    return bundles


def load_dataset(arguments_path, scores_path, task_mode="ternary"):
    """Load and validate a dataset; returns (graph, pair_id -> ScoreBundle)."""
    graph = load_arguments(arguments_path, task_mode)
    bundles = load_scores(scores_path, graph)
    return graph, bundles


# ---------------------------------------------------------------------------
# writing

def _open_tmp(path):
    try:
        return open(f"{path}.tmp", "w")
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror}") from None


def check_writable(path):
    """Raise now the error that writing `path` would raise after the work."""
    with _open_tmp(path) as fh:
        pass
    os.remove(fh.name)


def write_atomic(path, text_lines: Iterable[str]):
    """Write through a temporary file, so readers never see a partial file;
    if writing fails, the temporary file is removed."""
    fh = _open_tmp(path)
    try:
        with fh:
            fh.writelines(text_lines)
        os.replace(fh.name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(fh.name)
        raise


# json.dumps(sort_keys=True, allow_nan=False) builds one per call
_JSONL_ENCODER = json.JSONEncoder(sort_keys=True, allow_nan=False)


def dump_jsonl(records: Iterable[dict], path):
    """One record per line; a NaN or an infinity in one is an error, as
    JSON has none."""
    write_atomic(path, (_JSONL_ENCODER.encode(rec) + "\n" for rec in records))


def dump_json(payload: dict, path):
    """One indented JSON object (sweep and eval reports); a NaN or an
    infinity in it is an error, as JSON has none."""
    write_atomic(path, [json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"])
