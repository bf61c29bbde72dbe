"""Spans and counters around the taulab layers, for the traced run only.

The tracer rebinds each traced function under every module-level name that
callers look it up by (``all_edge_circuit_data`` lives in ``circuit`` but is
imported by name into ``invariants`` and ``identities``), records a span per
call in memory, and restores the original bindings afterwards.  Cache
counters are read through ``cache_info()`` on the original objects and never
patched; a cache or function a later version no longer has is skipped, and
the metrics that need it are left out of the report.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "connectivity", "cuts", "identities", "invariants", "transforms", "graphs", "circuit")

# (module, attribute, span name).  The span name's first part is the layer.
TARGETS = (
    ("taulab.cli", "parse_graph", "cli.parse"),
    ("taulab.connectivity", "lower_bounds", "connectivity.lower_bounds"),
    ("taulab.cuts", "vertex_connectivity", "cuts.vertex_connectivity"),
    ("taulab.cuts", "edge_connectivity", "cuts.edge_connectivity"),
    ("taulab.identities", "verify_all", "identities.verify_all"),
    ("taulab.identities", "verify", "identities.verify"),
    ("taulab.identities", "_contract", "transforms.contract_memo"),
    ("taulab.identities", "_delete", "transforms.delete_memo"),
    ("taulab.identities", "_loopify", "transforms.loopify_memo"),
    ("taulab.identities", "_da", "transforms.double_adjusted_memo"),
    ("taulab.identities", "_a_value", "invariants.A_pq_memo"),
    ("taulab.invariants", "tau", "invariants.tau"),
    ("taulab.invariants", "invariant_set", "invariants.invariant_set"),
    ("taulab.invariants", "graph_profile", "invariants.graph_profile"),
    ("taulab.invariants", "nested_weighted_sum", "invariants.nested_sum"),
    ("taulab.invariants", "contraction_lattice", "invariants.lattice"),
    ("taulab.invariants", "K_definition", "invariants.K_definition"),
    ("taulab.invariants", "K_contraction_form", "invariants.K_contraction_form"),
    ("taulab.invariants", "w_nested", "invariants.w_nested"),
    ("taulab.invariants", "A_pq", "invariants.A_pq"),
    ("taulab.transforms", "contract_edge", "transforms.contract_edge"),
    ("taulab.transforms", "delete_edge", "transforms.delete_edge"),
    ("taulab.transforms", "identify_endpoints", "transforms.identify_endpoints"),
    ("taulab.transforms", "identify_points", "transforms.identify_points"),
    ("taulab.transforms", "double_adjusted", "transforms.double_adjusted"),
    ("taulab.transforms", "subdivide", "transforms.subdivide"),
    ("taulab.graphs", "MetrizedGraph.__post_init__", "graphs.validate"),
    ("taulab.circuit", "all_edge_circuit_data", "circuit.edge_data"),
    ("taulab.circuit", "_deleted_edge_inverses", "circuit.factorize"),
    ("taulab.circuit", "_grounded_inverse", "circuit.grounded_inverse"),
    ("taulab.circuit", "effective_resistance", "circuit.effective_resistance"),
)

# Caches read through cache_info(): metric prefix -> (module, attribute).
CACHES = {
    "factor": ("taulab.circuit", "_deleted_edge_inverses"),
    "profile": ("taulab.invariants", "graph_profile"),
    "lattice": ("taulab.invariants", "contraction_lattice"),
    "bridges": ("taulab.graphs", "_bridge_ids"),
    "contract": ("taulab.identities", "_contract"),
    "delete": ("taulab.identities", "_delete"),
    "loopify": ("taulab.identities", "_loopify"),
    "da": ("taulab.identities", "_da"),
}
SURGERY_CACHES = ("contract", "delete", "loopify", "da")


def _resolve(module_name: str, dotted: str):
    """(owner, attribute name, current value) or None if it no longer exists."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if attr not in vars(owner):
        return None
    return owner, attr, vars(owner)[attr]


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover.

    ``spans`` are (name, label, start, end, parent, graph) tuples, parent
    being an index into the list or -1.
    """
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[4] >= 0:
            children[span[4]].append(i)
    out = []
    for i, (_, _, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted((spans[c][2], spans[c][3]) for c in children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


class Tracer:
    """Records spans around the traced taulab functions while installed."""

    def __init__(self):
        self.spans: list = []
        self.graph = -1
        self.present: set[str] = set()
        self.counts = defaultdict(int)
        self._stack: list[int] = []
        self._restore: list = []
        self._cache_start: dict = {}
        self._caches: dict = {}
        self._last_singular = None

    # -- wrapping ------------------------------------------------------------

    def span(self, name: str, fn, label_arg: int | None = None, after=None):
        """A wrapper of fn that records one span per call under name.

        ``after(args, result, missed)`` runs after a successful call; missed
        tells whether a cached fn missed its cache (None if fn has no cache).
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self
        cache_info = getattr(fn, "cache_info", None) if after is not None else None

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            label = args[label_arg] if label_arg is not None and len(args) > label_arg else None
            misses = cache_info().misses if cache_info is not None else None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._failed(name, exc)
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, label, start, end, parent, tracer.graph)
            if after is not None:
                missed = None if misses is None else cache_info().misses > misses
                after(args, result, missed)
            return result

        return traced

    def install(self) -> None:
        hooks = {
            "identities.verify": (1, self._after_verify),
            "circuit.factorize": (None, self._after_factorize),
            "invariants.lattice": (None, self._after_lattice),
            "cuts.vertex_connectivity": (None, self._after_vertex_connectivity),
            "cuts.edge_connectivity": (None, self._after_edge_connectivity),
        }
        # Caches first: wrapping hides them behind plain functions.
        for key, (module_name, attr) in CACHES.items():
            found = _resolve(module_name, attr)
            if found is not None and hasattr(found[2], "cache_info"):
                self._caches[key] = found[2]
                self._cache_start[key] = found[2].cache_info()
        modules = [m for name, m in list(sys.modules.items()) if name == "taulab" or name.startswith("taulab.")]
        for module_name, dotted, name in TARGETS:
            found = _resolve(module_name, dotted)
            if found is None:
                continue
            owner, attr, original = found
            self.present.add(name)
            label_arg, after = hooks.get(name, (None, None))
            wrapper = self.span(name, original, label_arg, after)
            # Rebind every module-level alias of the same object.
            bindings = [(owner, attr)]
            if "." not in dotted:
                bindings += [(m, key) for m in modules for key, value in vars(m).items()
                             if value is original and (m, key) != (owner, attr)]
            for holder, key in bindings:
                self._restore.append((holder, key, original))
                setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()
        for key, cache in self._caches.items():
            info, start = cache.cache_info(), self._cache_start[key]
            self.counts[f"{key}.hits"] = info.hits - start.hits
            self.counts[f"{key}.misses"] = info.misses - start.misses

    # -- hooks ---------------------------------------------------------------

    def _failed(self, name, exc) -> None:
        kind = type(exc).__name__
        # One SingularSystem passes through every enclosing span; count it once.
        if kind == "SingularSystem" and exc is not self._last_singular:
            self._last_singular = exc
            self.counts["circuit.singular"] += 1
        if name == "identities.verify" and kind == "NotApplicable":
            self.counts["identities.skipped"] += 1

    def _after_verify(self, args, report, missed) -> None:
        self.counts["identities.checks"] += report.checks
        if report.applicable and not report.passed:
            self.counts["identities.failed"] += 1

    def _after_factorize(self, args, result, missed) -> None:
        if not missed:
            return
        n1 = args[0].vertex_count - 1
        solved = sum(1 for inv in result[0] if inv is not None)
        self.counts["circuit.inverse_flops"] += solved * n1 ** 3
        self.counts["circuit.inverse_bytes"] += 8 * solved * n1 ** 2

    def _after_lattice(self, args, nodes, missed) -> None:
        if missed:
            self.counts["invariants.lattice.nodes"] += len(nodes)

    def _after_edge_connectivity(self, args, result, missed) -> None:
        # One max-flow per vertex other than vertex 0.
        self.counts["cuts.max_flow.calls"] += max(0, args[0].vertex_count - 1)

    def _after_vertex_connectivity(self, args, result, missed) -> None:
        # One max-flow per non-adjacent vertex pair.
        g = args[0]
        adjacent = {(min(a, b), max(a, b)) for a, b, _ in g.edges if a != b}
        n = g.vertex_count
        self.counts["cuts.max_flow.calls"] += n * (n - 1) // 2 - len(adjacent)

    # -- report ----------------------------------------------------------------

    def write(self, path) -> None:
        """Write the spans as tab-separated text, times in ns from the first."""
        origin = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as out:
            out.write("id\tparent\tgraph\tname\tlabel\tstart_ns\tend_ns\n")
            for i, (name, label, start, end, parent, graph) in enumerate(self.spans):
                out.write(f"{i}\t{parent}\t{graph}\t{name}\t{label or ''}\t"
                          f"{round((start - origin) * 1e9)}\t{round((end - origin) * 1e9)}\n")

    def metrics(self, wall_s: float, identity_ids) -> dict[str, float]:
        """The per-layer metrics; see README.md for which number each moves."""
        spans, counts = self.spans, self.counts
        own = self_times(spans)
        incl = defaultdict(float)
        self_by_name = defaultdict(float)
        calls = defaultdict(int)
        per_id = defaultdict(float)
        for span, self_s in zip(spans, own):
            name = span[0]
            incl[name] += span[3] - span[2]
            self_by_name[name] += self_s
            calls[name] += 1
            if name == "identities.verify":
                per_id[span[1]] += span[3] - span[2]

        def layer_self(layer):
            return sum(v for k, v in self_by_name.items() if k.split(".")[0] == layer)

        out: dict[str, float] = {}
        have = self.present.__contains__
        if have("circuit.edge_data"):
            out["circuit.edge_data.calls"] = calls["circuit.edge_data"]
            out["circuit.edge_data.self_s"] = self_by_name["circuit.edge_data"]
        if have("circuit.factorize"):
            out["circuit.factorize.s"] = incl["circuit.factorize"]
            out["circuit.inverse_flops"] = counts["circuit.inverse_flops"]
            out["circuit.inverse_bytes"] = counts["circuit.inverse_bytes"]
        self._cache_metrics(out, "circuit.factorizations", "circuit.factor_hit_ratio", ("factor",))
        out["circuit.singular"] = counts["circuit.singular"]
        if have("cuts.vertex_connectivity"):
            out["cuts.vertex_connectivity.s"] = incl["cuts.vertex_connectivity"]
        if have("cuts.edge_connectivity"):
            out["cuts.edge_connectivity.s"] = incl["cuts.edge_connectivity"]
        out["cuts.max_flow.calls"] = counts["cuts.max_flow.calls"]
        if have("identities.verify"):
            for ident in identity_ids:
                out[f"identities.{ident}.s"] = per_id[ident]
            for key in ("checks", "skipped", "failed"):
                out[f"identities.{key}"] = counts[f"identities.{key}"]
        if have("invariants.graph_profile"):
            out["invariants.profile.calls"] = calls["invariants.graph_profile"]
            out["invariants.profile.self_s"] = self_by_name["invariants.graph_profile"]
        self._cache_metrics(out, None, "invariants.profile.hit_ratio", ("profile",))
        if have("invariants.nested_sum"):
            out["invariants.nested_sum.calls"] = calls["invariants.nested_sum"]
            out["invariants.nested_sum.s"] = incl["invariants.nested_sum"]
        if have("invariants.lattice"):
            out["invariants.lattice.nodes"] = counts["invariants.lattice.nodes"]
        self._cache_metrics(out, None, "invariants.lattice.hit_ratio", ("lattice",))
        self._cache_metrics(out, "transforms.surgeries", "transforms.surgery_hit_ratio", SURGERY_CACHES)
        out["transforms.s"] = outermost_time(spans, lambda name: name.startswith("transforms."))
        if have("graphs.validate"):
            out["graphs.validate.calls"] = calls["graphs.validate"]
            out["graphs.validate.s"] = incl["graphs.validate"]
        self._cache_metrics(out, None, "graphs.bridges.hit_ratio", ("bridges",))
        if have("connectivity.lower_bounds"):
            out["connectivity.lower_bounds.self_s"] = self_by_name["connectivity.lower_bounds"]
        if have("cli.parse"):
            out["cli.parse.s"] = incl["cli.parse"]
        for layer in LAYERS:
            if layer != "connectivity":  # lower_bounds is its only span
                out[f"{layer}.self_s"] = layer_self(layer)
        out["trace.wall_s"] = wall_s
        out["trace.spans"] = len(spans)
        return out

    def _cache_metrics(self, out, misses_name, ratio_name, keys) -> None:
        if not all(key in self._caches for key in keys):
            return
        hits = sum(self.counts[f"{key}.hits"] for key in keys)
        misses = sum(self.counts[f"{key}.misses"] for key in keys)
        if misses_name:
            out[misses_name] = misses
        out[ratio_name] = hits / (hits + misses) if hits + misses else 0.0


def outermost_time(spans, selected) -> float:
    """Total duration of the selected spans that have no selected ancestor."""
    total = 0.0
    for span in spans:
        if not selected(span[0]):
            continue
        parent = span[4]
        while parent >= 0 and not selected(spans[parent][0]):
            parent = spans[parent][4]
        if parent < 0:
            total += span[3] - span[2]
    return total
