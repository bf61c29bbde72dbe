"""Run alternated parent/change pairs of the benchmark and write BENCH_<name>.json.

Usage:
    python tools/bench_pairs.py --parent PARENT_TREE --change CHANGE_TREE --name NAME
        [--what TEXT] [--out DIR]

Each tree is a checkout of its own (``git archive`` or ``git clone``), and
every run is ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` from that tree's root, so each side imports its own package,
with T the benchmark's run_seconds.  Per workload of BENCHMARK.json: one
run of each side at each of DIGEST_SEEDS (parent first), then PAIRS
alternated pairs at SEED (even pairs parent first, odd pairs change
first).  The file keeps every run and, per workload, the
median, quartiles and change wins of each end-to-end metric of
BENCHMARK.json plus raw_setup_s, the output digests of each side per seed,
and the failed counts.  Quartiles are statistics.quantiles(method='inclusive');
a pair is a change win when the change reads strictly better.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
PAIRS = 10
SEED = 0
DIGEST_SEEDS = (1, 2)
RUN_TIMEOUT_S = 900
# The unscaled set-up time from each run's info line, beside the scaled setup_s.
RAW_METRICS = {"raw_setup_s": "lower"}


def end_to_end_directions() -> dict[str, str]:
    """Each end-to-end metric's better direction ("lower" or "higher"), raw_setup_s last."""
    return {**{metric["name"]: metric["better"] for metric in BENCHMARK["end_to_end"]}, **RAW_METRICS}


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """One untraced run.py run from the root of tree: its info line and its result line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=False)
    lines = [json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")]
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(argv)} in {tree} exited {done.returncode}: {done.stderr.strip()[-500:]}")
    return {"info": lines[-2], "result": lines[-1]}


def metric_value(run: dict, name: str) -> float:
    if name in RAW_METRICS:
        return run["info"]["perfbench"]["raw"][name.removeprefix("raw_")]
    return run["result"]["metrics"][name]["value"]


def _quartiles(values: list[float]) -> list[float]:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q1, 4), round(q3, 4)]


def summarize(runs: list[dict], directions: dict[str, str]) -> dict:
    """Per workload: the timed pairs' statistics, the digests per seed and the failed counts.

    ``runs`` are rows as run_pairs makes them: side, workload, seed, pair
    (-1 for a digest-only run), info and result.  Only rows with pair >= 0
    enter the metrics; every row enters the digests, failed (the largest
    count of any run of each side) and correct.
    """
    summary = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        rows = [run for run in runs if run["workload"] == workload]
        timed = {}
        for run in rows:
            if run["pair"] >= 0:
                timed.setdefault(run["pair"], {})[run["side"]] = run
        pairs = [pair for _, pair in sorted(timed.items()) if len(pair) == 2]
        digests = {}
        for run in rows:
            seen = digests.setdefault(str(run["seed"]), {"parent": [], "change": []})[run["side"]]
            digest = run["info"]["perfbench"]["output_digest"]
            if digest not in seen:
                seen.append(digest)
        metrics = {}
        for name, better in directions.items():
            parent = [metric_value(pair["parent"], name) for pair in pairs]
            change = [metric_value(pair["change"], name) for pair in pairs]
            sign = 1.0 if better == "higher" else -1.0
            parent_quartiles = _quartiles(parent)
            metrics[name] = {
                "parent_median": round(statistics.median(parent), 4),
                "change_median": round(statistics.median(change), 4),
                "ratio": round(statistics.median(change) / statistics.median(parent), 4),
                "parent_iqr": round(parent_quartiles[1] - parent_quartiles[0], 4),
                "parent_quartiles": parent_quartiles,
                "change_quartiles": _quartiles(change),
                "change_wins": sum(sign * (c - p) > 0.0 for p, c in zip(parent, change)),
            }
        summary[workload] = {
            "pairs": len(pairs),
            "seeds": sorted({pair["parent"]["seed"] for pair in pairs}),
            "digest_seeds": sorted({run["seed"] for run in rows if run["pair"] < 0}),
            "failed": {side: max(run["result"]["failed"] for run in rows if run["side"] == side)
                       for side in ("parent", "change")},
            "output_digests": digests,
            "output_digests_equal": all(len(d["parent"]) == 1 and d["parent"] == d["change"]
                                        for d in digests.values()),
            "correct": all(run["result"]["correct"] for run in rows),
            "reference_graphs_compared": sorted({run["info"]["perfbench"]["reference_graphs_compared"]
                                                 for run in rows}),
            "metrics": metrics,
        }
    return summary


def run_pairs(trees: dict[str, Path], workloads: list[str]) -> list[dict]:
    """Every run in the order the module docstring gives, as rows."""
    runs = []

    def run(side, workload, run_seed, pair):
        row = {"side": side, "workload": workload, "seed": run_seed, "pair": pair}
        row.update(run_once(trees[side], workload, run_seed))
        runs.append(row)
        print(f"{workload} seed {run_seed} pair {pair} {side}: "
              f"{row['result']['metrics']['graphs_per_s']['value']:.1f} graphs/s", file=sys.stderr)

    for workload in workloads:
        for digest_seed in DIGEST_SEEDS:
            for side in ("parent", "change"):
                run(side, workload, digest_seed, -1)
        for pair in range(PAIRS):
            for side in ("parent", "change") if pair % 2 == 0 else ("change", "parent"):
                run(side, workload, SEED, pair)
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="root of the parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="root of the change checkout")
    parser.add_argument("--name", required=True, help="the file is BENCH_<name>.json")
    parser.add_argument("--what", default="", help="what the change does and what the file records")
    parser.add_argument("--out", type=Path, default=Path.cwd(), help="directory to write the file in")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    workloads = [workload["name"] for workload in BENCHMARK["workloads"]]
    runs = run_pairs(trees, workloads)
    environment = runs[0]["info"]["perfbench"]["environment"]
    report = {
        "what": args.what,
        "command": ("python3 perfbench/run.py --workload <workload> --seed <seed> "
                    f"--seconds {BENCHMARK['run_seconds']} --trace 0"),
        "order": (f"per workload ({', '.join(workloads)}): one run of each side at seeds "
                  f"{list(DIGEST_SEEDS)} (parent first) for the digests, then {PAIRS} alternated pairs "
                  f"at seed {SEED} (even pairs parent first, odd pairs change first). Each side runs "
                  "from its own checkout; pair -1 marks the digest-only runs"),
        "parent": f"code {runs[0]['info']['perfbench']['code']}",
        "change": f"code {next(r for r in runs if r['side'] == 'change')['info']['perfbench']['code']}",
        "host": (f"{environment['nproc']} cores, Python {environment['python']}, numpy {environment['numpy']}, "
                 f"{environment['blas']} on {environment['blas_threads']} thread(s)"),
        "caveat": ("Quartiles are statistics.quantiles(method='inclusive'). setup_s is the raw median divided "
                   "by a host probe taken at another moment; raw_setup_s is given beside it."),
        "summary": summarize(runs, end_to_end_directions()),
        "runs": runs,
    }
    path = args.out / f"BENCH_{args.name}.json"
    path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
