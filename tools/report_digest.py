"""Digest every report byte of the benchmark's catalog passes, to show that a change moved none.

Usage: python tools/report_digest.py

For each catalog seed 0-2 at BENCHMARK.json's run_seconds, each graph of
perfbench's make_items is written to a file and run through
``taulab.cli.main(["verify", path, "--ids", "all"])`` and then
``main(["invariants", path])``.  Each call's exit code, stdout and stderr
feed one sha256 as f"{exit}\\0{stdout}\\0{stderr}\\0", in order.  One line
per seed gives the first 16 hex digits, the graph count and the pass's
``_profile_at`` misses and ``_bridge_ids`` passes.  The reports depend on
TAULAB_TOL, so run both sides under the same environment.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from taulab import cli, graphs, invariants  # noqa: E402
from workloads import make_items  # noqa: E402

SEEDS = (0, 1, 2)


def digest(items) -> tuple[str, int, int]:
    """(first 16 hex digits of the sha256, _profile_at misses, _bridge_ids passes) of one pass over items."""
    sha = hashlib.sha256()
    profiles = invariants._profile_at.cache_info().misses
    bridges = graphs._bridge_ids.cache_info().misses
    with tempfile.TemporaryDirectory() as directory:
        for item in items:
            path = str(Path(directory) / f"g{item.index:05d}.graph")
            Path(path).write_text(item.text, encoding="utf-8")
            for argv in (["verify", path, "--ids", "all"], ["invariants", path]):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
                sha.update(f"{code}\0{out.getvalue()}\0{err.getvalue()}\0".encode())
    return (sha.hexdigest()[:16], invariants._profile_at.cache_info().misses - profiles,
            graphs._bridge_ids.cache_info().misses - bridges)


def main() -> int:
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    for seed in SEEDS:
        items = make_items("catalog", seed, seconds)
        hexdigest, profiles, bridges = digest(items)
        print(f"seed {seed}: {hexdigest}  graphs {len(items)}  profile misses {profiles}  bridge passes {bridges}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
