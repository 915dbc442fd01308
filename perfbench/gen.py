"""Write one workload's inputs as JSONL, in a process of its own.

Usage: python3 perfbench/gen.py --root CHECKOUT --workload NAME --seed N --out DIR

Writes arguments.jsonl, scores.jsonl and truth.json (gold relation and
split of each direct pair) for the workload, and tiny_arguments.jsonl and
tiny_scores.jsonl for warm-up and the set-up probe. Running it apart from
the timed process keeps the generator's memory out of that process's peak
RSS.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from workloads import TINY_SYNTH, WORKLOADS


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(args.root, "src"))
    from arglogic.model import bundle_to_record, dump_jsonl, pair_to_record
    from arglogic.synth import SynthConfig, generate

    def write(prefix, synth):
        graph, bundles, golds = generate(SynthConfig(seed=args.seed, **synth))
        dump_jsonl((pair_to_record(graph.pairs[pid]) for pid in sorted(graph.pairs)),
                   os.path.join(args.out, f"{prefix}arguments.jsonl"))
        dump_jsonl((bundle_to_record(bundles[pid]) for pid in sorted(bundles)),
                   os.path.join(args.out, f"{prefix}scores.jsonl"))
        return graph, golds

    graph, golds = write("", WORKLOADS[args.workload].synth)
    truth = {"gold": golds,
             "split": {p.pair_id: p.split for p in graph.direct_pairs()}}
    with open(os.path.join(args.out, "truth.json"), "w") as fh:
        json.dump(truth, fh, sort_keys=True)
    write("tiny_", TINY_SYNTH)
    return 0


if __name__ == "__main__":
    sys.exit(main())
