"""Indirect-argument construction from 2-hop chains of direct arguments."""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .model import PAIR_TABLE, ArgumentGraph, ArgumentPair, Table

log = logging.getLogger(__name__)

INDIRECT_PREFIX = "indirect::"


@dataclass(frozen=True)
class ChainTriple:
    outer_pair: str  # indirect (S, C)
    first_hop: str  # direct (S, I)
    second_hop: str  # direct (I, C)


def indirect_pair_id(statement_id: str, claim_id: str) -> str:
    return f"{INDIRECT_PREFIX}{statement_id}->{claim_id}"


def build_indirect(graph: ArgumentGraph) -> tuple[ArgumentGraph, list[ChainTriple]]:
    """Add one indirect pair per distinct 2-hop chain (S,I),(I,C), S != C.

    Idempotent: existing indirect pairs are reused.  Only depth-2 chains
    are combined; indirect pairs never seed further chains.  Indirect
    pairs carry no gold label and default to the test split.
    """
    direct = sorted(graph.direct_pairs(), key=lambda p: p.pair_id)
    by_statement: dict[str, list[ArgumentPair]] = {}
    for p in direct:
        by_statement.setdefault(p.statement_id, []).append(p)

    existing: dict[tuple[str, str], str] = {
        (p.statement_id, p.claim_id): p.pair_id for p in graph.indirect_pairs()
    }

    triples: list[ChainTriple] = []
    for first in direct:  # first: (S, I)
        for second in by_statement.get(first.claim_id, ()):  # second: (I, C)
            s, c = first.statement_id, second.claim_id
            if s == c:
                log.warning("skipping self-loop chain at node %r via %r",
                            s, first.claim_id)
                continue
            key = (s, c)
            outer_id = existing.get(key)
            if outer_id is None:
                outer_id = indirect_pair_id(s, c)
                graph.add_pair(ArgumentPair(outer_id, s, c, kind="indirect"))
                existing[key] = outer_id
            triples.append(ChainTriple(outer_id, first.pair_id, second.pair_id))

    return graph, triples


_MANIFEST_TABLE = Table(ArgumentPair, [row for row in PAIR_TABLE.rows
                                        if row[0] not in ("gold", "split")])


def emit_pair_manifest(graph: ArgumentGraph, bundles: dict) -> list[dict]:
    """List every pair still lacking a ScoreBundle, ordered by pair_id."""
    return [_MANIFEST_TABLE.write(graph.pairs[pid])
            for pid in sorted(graph.pairs) if pid not in bundles]
