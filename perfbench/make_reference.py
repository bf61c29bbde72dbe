"""Write perfbench/reference.json: tau, x, y, z and r of the default seed's graphs.

    python3 perfbench/make_reference.py --seconds 15

Run from the root of a checkout, at the commit whose values become the
reference, with the same seconds as BENCHMARK.json's run_seconds so that
every graph of a default-seed run has a reference row.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import run
import workloads


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()
    run.pin_blas_threads()
    sys.path.insert(0, str(Path.cwd() / "src"))
    from taulab import TauLabError, cli, invariant_set

    out = {"seed": run.DEFAULT_SEED, "seconds": args.seconds, "workloads": {}}
    for workload in workloads.WORKLOADS:
        rows = []
        for item in workloads.make_items(workload, run.DEFAULT_SEED, args.seconds):
            try:
                inv = invariant_set(cli.parse_graph(item.text))
            except TauLabError:
                continue
            row = {"graph": run.graph_id(item.text)}
            row.update((key, getattr(inv, key)) for key in run.CHECKED_VALUES)
            rows.append(row)
        out["workloads"][workload] = rows
    run.REFERENCE.write_text(json.dumps(out, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
