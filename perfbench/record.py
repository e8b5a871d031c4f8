"""Record reference accuracies and folds.csv hashes for every instance.

    python3 perfbench/record.py [WORKLOAD ...]

Runs each instance once, untraced, and rewrites reference.json. A change
that moves any recorded cell or hash must say why in CHANGES.md.
"""

from __future__ import annotations

import json
import sys
import time

from run import DEADLINE_S, HERE, load_reference, run_instance
from workloads import WORKLOADS

TOLERANCE_PP = 5.0


def main(names: list[str]) -> int:
    path = HERE / "reference.json"
    reference = load_reference() if path.exists() else {"tolerance_pp": TOLERANCE_PP, "workloads": {}}
    for name in names or sorted(WORKLOADS):
        recorded = {}
        for seed in WORKLOADS[name].instances:
            result = run_instance(name, seed, False, time.monotonic() + DEADLINE_S)
            recorded[str(seed)] = {"cells": result["cells"], "folds_sha256": result["folds_sha256"]}
            print(f"{name}/{seed}: run_s {result['run_s']:.2f}", flush=True)
        reference["workloads"][name] = recorded
    path.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
