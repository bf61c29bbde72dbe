import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def row(side, seed, pair, rate, rss, digest="d0", failed=0, correct=True):
    """A synthetic run row, in the layout run_pairs records."""
    metrics = {"graphs_per_s": {"value": rate, "unit": "1/s"}, "peak_rss_mb": {"value": rss, "unit": "MB"}}
    info = {"output_digest": digest, "raw": {"setup_s": 0.05}, "reference_graphs_compared": 3 if seed == 0 else 0}
    return {"side": side, "workload": "catalog", "seed": seed, "pair": pair, "info": {"perfbench": info},
            "result": {"correct": correct, "attempted": 9, "failed": failed, "metrics": metrics}}


def synthetic_runs():
    runs = [row("parent", 1, -1, 1.0, 1.0, "d1"), row("change", 1, -1, 9.0, 9.0, "d1")]
    # Pairs 0-3; the change is faster in pairs 0, 1 and 3, ties in pair 2,
    # and uses more memory in pair 3 only.
    rates = [(100.0, 120.0), (110.0, 130.0), (105.0, 105.0), (90.0, 140.0)]
    rss = [(50.0, 49.0), (50.0, 49.0), (50.0, 50.0), (50.0, 51.0)]
    for pair, ((p_rate, c_rate), (p_rss, c_rss)) in enumerate(zip(rates, rss)):
        sides = [("parent", p_rate, p_rss), ("change", c_rate, c_rss)]
        for side, rate, memory in sides if pair % 2 == 0 else sides[::-1]:
            runs.append(row(side, 0, pair, rate, memory, failed=int(side == "change" and pair == 1)))
    return runs


def test_summary_of_synthetic_pairs():
    directions = {"graphs_per_s": "higher", "peak_rss_mb": "lower", "raw_setup_s": "lower"}
    summary = bench_pairs.summarize(synthetic_runs(), directions)["catalog"]
    assert summary["pairs"] == 4 and summary["seeds"] == [0] and summary["digest_seeds"] == [1]
    rate = summary["metrics"]["graphs_per_s"]
    assert rate["parent_median"] == 102.5 and rate["change_median"] == 125.0
    assert rate["ratio"] == round(125.0 / 102.5, 4)
    # Inclusive quartiles of 90, 100, 105, 110 are 97.5 and 106.25.
    assert rate["parent_quartiles"] == [97.5, 106.25] and rate["parent_iqr"] == 8.75
    assert rate["change_wins"] == 3  # the tie counts for neither side
    assert summary["metrics"]["peak_rss_mb"]["change_wins"] == 2  # lower is better
    assert summary["metrics"]["raw_setup_s"]["change_wins"] == 0
    assert summary["failed"] == {"parent": 0, "change": 1}
    assert summary["output_digests"] == {"1": {"parent": ["d1"], "change": ["d1"]},
                                         "0": {"parent": ["d0"], "change": ["d0"]}}
    assert summary["output_digests_equal"] and summary["correct"]
    assert summary["reference_graphs_compared"] == [0, 3]


def test_summary_flags_moved_digests_and_incorrect_runs():
    runs = synthetic_runs()
    runs[1] = row("change", 1, -1, 9.0, 9.0, "other")
    runs[-1]["result"]["correct"] = False
    summary = bench_pairs.summarize(runs, {"graphs_per_s": "higher"})["catalog"]
    assert not summary["output_digests_equal"] and not summary["correct"]


def test_directions_come_from_the_benchmark_file():
    directions = bench_pairs.end_to_end_directions()
    assert directions["graphs_per_s"] == "higher" and directions["peak_rss_mb"] == "lower"
    assert list(directions)[-1] == "raw_setup_s"
