import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "report_digest.py"
spec = importlib.util.spec_from_file_location("report_digest", TOOL)
report_digest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(report_digest)


def test_the_digest_repeats_and_follows_the_tolerance(monkeypatch):
    items = report_digest.make_items("catalog", 0, 1)[:5]
    assert len(items) == 5
    monkeypatch.delenv("TAULAB_TOL", raising=False)
    first, profiles, bridges = report_digest.digest(items)
    assert len(first) == 16 and profiles > 0 and bridges > 0
    assert report_digest.digest(items)[0] == first
    monkeypatch.setenv("TAULAB_TOL", "1e-6")
    assert report_digest.digest(items)[0] != first
