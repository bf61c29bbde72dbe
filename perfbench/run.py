"""Run one taulab benchmark workload, check its outputs and print its metrics.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout: the package is imported from ./src, and
graph files, output digests, results and span dumps go under ./.perfbench.
With ``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run of the same
graphs, and the tracing overhead against an untraced run of the same code,
workload, seed and seconds (run first, in a child process, if none is on
record).  The lines
before it record the environment, the tail percentile and sample count, the
failed share and the digest of every output.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from speed import Speedometer

DEFAULT_SEED = 0
SETUP_REPEATS = 7
# Set-up is part interpreter work and part process start and file reads;
# its median followed the square root of the host slowdown best, on the box
# and runs that workloads.HOST_EXPONENT was fitted to.
SETUP_HOST_EXPONENT = 0.5
CHECK_TOL = 1e-9
CHECKED_VALUES = ("tau", "x", "y", "z", "r")
STATE = Path(".perfbench")
REFERENCE = Path(__file__).resolve().parent / "reference.json"
CHILD_TIMEOUT_S = 170
END_TO_END = {"setup_s": "s", "graphs_per_s": "1/s", "latency_p50_ms": "ms",
              "latency_tail_ms": "ms", "peak_rss_mb": "MB"}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    parser = argparse.ArgumentParser(description="taulab benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_blas_threads() -> None:
    """Run BLAS on one thread; must run before numpy is imported.

    One thread keeps timings from depending on what else runs on the other
    cores, and keeps output bytes comparable: tau on a 180-vertex graph came
    out with different last bits on one and on two OpenBLAS threads.
    """
    os.environ["OPENBLAS_NUM_THREADS"] = "1"


def blas_threads():
    """Threads of the OpenBLAS that numpy loaded, asked of the library itself."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.lower() and ".so" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def environment(nproc: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def code_digest(package: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        digest.update(path.relative_to(package).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def import_seconds(src: Path) -> float:
    """Time ``import taulab`` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import taulab; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return float(done.stdout.split()[-1])


def graph_path(directory: Path, item) -> Path:
    return directory / f"g{item.index:05d}.graph"


def load_graphs(items, directory: Path, parse_graph) -> float:
    start = time.perf_counter()
    for item in items:
        item.graph = parse_graph(graph_path(directory, item).read_text(encoding="utf-8"))
    return time.perf_counter() - start


def tail_latency(samples):
    """(value, percentile) of the highest percentile with 10 samples beyond it.

    With 20 samples or fewer no percentile above the median has 10 beyond
    it, and the median is reported at percentile 50.
    """
    n = len(samples)
    if n <= 20:
        return statistics.median(samples), 50.0
    return sorted(samples)[n - 11], 100.0 * (n - 10) / n


def by_vertices(items, latencies) -> dict[int, float]:
    groups: dict[int, list[float]] = {}
    for item, seconds in zip(items, latencies):
        groups.setdefault(item.vertices, []).append(seconds)
    return {n: statistics.median(group) * 1e3 for n, group in sorted(groups.items())}


def close(a: float, b: float, ell: float) -> bool:
    """a and b agree to CHECK_TOL relative; ell * CHECK_TOL floors the scale."""
    return abs(a - b) <= CHECK_TOL * max(abs(a), abs(b), CHECK_TOL * ell)


def graph_id(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_reference(workload: str) -> dict:
    if not REFERENCE.is_file():
        return {}
    data = json.loads(REFERENCE.read_text(encoding="utf-8"))
    return {row["graph"]: row for row in data["workloads"].get(workload, [])}


def check_outputs(args, items, outcomes, code: str):
    """Untimed checks.

    Returns (digests, failed indices, problems, graphs compared with the
    reference).  A graph fails when its command exited nonzero or a check
    on it failed; only the latter is a problem that makes the run incorrect.
    """
    import taulab

    reference = load_reference(args.workload) if args.seed == DEFAULT_SEED else {}
    failed, problems, digests = set(), [], []
    compared = 0
    for item, outcome in zip(items, outcomes):
        bad = []
        if outcome.error:
            bad.append(f"raised: {outcome.error.strip().splitlines()[-1]}")
        elif any(outcome.codes):
            failed.add(item.index)  # the program reported a failed check
        digests.append(hashlib.sha256("\0".join(outcome.stdout).encode()
                                      if outcome.stdout else repr(outcome.tau).encode()).hexdigest())
        values = None
        if not outcome.error and 2 not in outcome.codes:  # a typed refusal has no report
            if args.workload == "tau_sweep":
                inv = taulab.invariant_set(item.graph)
                values = {key: getattr(inv, key) for key in CHECKED_VALUES}
                if inv.tau != outcome.tau:
                    bad.append(f"invariant_set tau {inv.tau!r} != tau {outcome.tau!r}")
            else:
                try:
                    values = json.loads(outcome.stdout[-1])["invariants"]
                except (ValueError, KeyError) as exc:
                    bad.append(f"unreadable invariants report: {exc!r}")
        ell = sum(length for _, _, length in item.graph.edges)
        if values and args.workload == "catalog" and item.vertices <= 7:
            oracle = taulab.tau_oracle_contraction(item.graph)
            if not close(values["tau"], oracle, ell):
                bad.append(f"tau {values['tau']!r} vs contraction oracle {oracle!r}")
        row = reference.get(graph_id(item.text))
        if values and row is not None:
            compared += 1
            bad += [f"{key} {values[key]!r} vs reference {row[key]!r}"
                    for key in CHECKED_VALUES if not close(values[key], row[key], ell)]
        if bad:
            failed.add(item.index)
            problems += [f"graph {item.index}: {text}" for text in bad]
    problems += check_digests(args, items, digests, code, failed)
    return digests, failed, problems, compared


def check_digests(args, items, digests, code: str, failed: set) -> list[str]:
    """Compare output digests with earlier runs of the same code on the same graphs.

    ``code`` names the package source and the numeric libraries it ran on.
    """
    path = STATE / "digests" / f"{args.workload}-{code}.json"
    known = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    problems = []
    for item, digest in zip(items, digests):
        before = known.setdefault(graph_id(item.text), digest)
        if before != digest:
            failed.add(item.index)
            problems.append(f"graph {item.index}: output bytes differ from an earlier run of the same code")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(known, sort_keys=True), encoding="utf-8")
    return problems


def untraced_rate(args, result_path: Path):
    """graphs/s of an untraced run of the same graphs and code, run if needed."""
    if not result_path.is_file():
        subprocess.run([sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
                        "--seconds", str(args.seconds), "--trace", "0"],
                       capture_output=True, timeout=CHILD_TIMEOUT_S, check=False)
    if not result_path.is_file():
        return None
    return json.loads(result_path.read_text(encoding="utf-8"))["graphs_per_s"]


def measure_setup(src: Path, items, graph_dir: Path, parse_graph) -> float:
    """Median seconds to import taulab and load (parse) the graph files.

    The files are written once beforehand, untimed: writing 750 small files
    took from 0.02 to 0.2 s on the same box, which is the file system's
    noise rather than set-up work of taulab.
    """
    for item in items:
        graph_path(graph_dir, item).write_text(item.text, encoding="utf-8")
    return statistics.median(import_seconds(src) + load_graphs(items, graph_dir, parse_graph)
                             for _ in range(SETUP_REPEATS))


def timed_loop(args, items, graph_dir: Path, cli, tau, tracer):
    """Run every graph's operation in order; probe the host between them."""
    cli_main = tracer.span("cli.main", cli.main) if tracer else cli.main
    meter = Speedometer()
    outcomes = []
    for item in items:
        meter.maybe_take()
        if tracer:
            tracer.graph = item.index
        outcomes.append(workloads.run_op(args.workload, item, str(graph_path(graph_dir, item)), cli_main, tau))
    meter.take()
    return outcomes, meter.slowdown()


def latency_metrics(seconds: list[float]) -> dict[str, float]:
    tail, _ = tail_latency(seconds)
    return {
        "graphs_per_s": len(seconds) / sum(seconds),
        "latency_p50_ms": statistics.median(seconds) * 1e3,
        "latency_tail_ms": tail * 1e3,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if sys.flags.optimize:
        fail("refusing to run under python -O: it strips the cross-base tau check")
    src = Path.cwd() / "src"
    if not (src / "taulab" / "__init__.py").is_file():
        fail(f"no taulab package under {src}; run from the root of a taulab checkout")
    nproc = len(os.sched_getaffinity(0))
    pin_blas_threads()
    sys.path.insert(0, str(src))

    import taulab
    from taulab import cli

    if Path(taulab.__file__).resolve().parent != (src / "taulab").resolve():
        fail(f"imported taulab from {taulab.__file__}, not from {src}")
    env = environment(nproc)
    code = f"{code_digest(src / 'taulab')}-numpy{env['numpy']}-blas{env['blas_threads']}"
    items = workloads.make_items(args.workload, args.seed, args.seconds)
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    result_path = results / f"{args.workload}-seed{args.seed}-n{len(items)}-{code}.json"
    # Before this process grows: the child holds its own caches.
    base_rate = untraced_rate(args, result_path) if args.trace else None
    graph_dir = STATE / "graphs" / f"{args.workload}-seed{args.seed}"
    graph_dir.mkdir(parents=True, exist_ok=True)
    raw_setup_s = measure_setup(src, items, graph_dir, cli.parse_graph)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    # taulab.tau is read after install, so a traced run calls the wrapper.
    outcomes, slowdown = timed_loop(args, items, graph_dir, cli, taulab.tau, tracer)
    wall = time.perf_counter() - start
    if tracer:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    digests, failed, problems, compared = check_outputs(args, items, outcomes, code)
    raw = [o.seconds for o in outcomes]
    scale = slowdown ** workloads.HOST_EXPONENT[args.workload]
    timing = latency_metrics([seconds / scale for seconds in raw])
    setup_s = raw_setup_s / slowdown ** SETUP_HOST_EXPONENT
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "code": code, "environment": env,
        "graphs": len(items), "failed_frac": len(failed) / len(items),
        "latency_samples": len(raw), "latency_tail_percentile": tail_latency(raw)[1],
        "host_slowdown": slowdown,
        "raw": dict(latency_metrics(raw), setup_s=raw_setup_s, wall_s=wall),
        "latency_p50_ms_by_vertices": by_vertices(items, raw),
        "reference_graphs_compared": compared,
        "output_digest": hashlib.sha256("".join(digests).encode()).hexdigest(),
        "problems": problems[:20],
    }
    if tracer:
        spans_dir = STATE / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(spans_dir / f"{args.workload}-seed{args.seed}.tsv")
        layer = tracer.metrics(wall, taulab.identity_ids())
        layer["trace.graphs_per_s"] = timing["graphs_per_s"]
        if base_rate:
            layer["trace.overhead_frac"] = 1.0 - timing["graphs_per_s"] / base_rate
        metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in layer.items()}
    else:
        values = dict(timing, setup_s=setup_s, peak_rss_mb=peak_rss_mb)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        result_path.write_text(json.dumps({"graphs_per_s": timing["graphs_per_s"], "info": info,
                                           "metrics": metrics}, sort_keys=True), encoding="utf-8")
    print(json.dumps({"perfbench": info}, sort_keys=True))
    for problem in problems[:20]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": len(items),
                      "failed": len(failed), "metrics": metrics}))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_ratio") or name.endswith("_frac"):
        return "ratio"
    if name.endswith(".s") or name.endswith("_s"):
        return "1/s" if name.endswith("per_s") else "s"
    if name.endswith("_flops"):
        return "flop"
    if name.endswith("_bytes"):
        return "B"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
