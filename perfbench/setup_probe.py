"""Set-up probe: a fresh interpreter imports arglogic and runs one tiny
inference through the CLI, under a `speed.Speedometer`. The caller times the
whole process; the probe writes the speed samples it took to RECORD as JSON.

Usage: python3 perfbench/setup_probe.py CHECKOUT INPUTS_DIR RECORD
"""

import json
import os
import sys

import speed

root, inputs, record = sys.argv[1], sys.argv[2], sys.argv[3]
with speed.Speedometer() as meter:
    sys.path.insert(0, os.path.join(root, "src"))
    from arglogic.cli import main

    main(["infer", os.path.join(inputs, "tiny_arguments.jsonl"),
          os.path.join(inputs, "tiny_scores.jsonl"),
          "--out", os.path.join(inputs, "tiny_out.jsonl")], standalone_mode=False)
with open(record, "w") as fh:
    json.dump({"busy_s": meter.busy_s, "samples": meter.samples}, fh)
