"""Outside-in span tracer for the closurelab layers.

``Tracer.install`` replaces each listed public function at every binding
in every loaded ``closurelab`` module, so the ``from .lp import solve_lp``
copies inside ``polyhedron`` and ``cone`` are wrapped as well.  A wrapper
records one span (name, start, end, parent span, job id) in memory and,
for some functions, adds deterministic work counts computed from the
call's arguments and result.  Spans are written once, after the run.
Nothing here is imported by an untraced run.

Self time is a span's duration minus the time its child spans cover;
calls to functions that are not wrapped count toward the nearest wrapped
caller.  ``by_<caller>`` stats group a function's spans by the name of
the parent span.
"""

from __future__ import annotations

import gzip
import sys
import time
from collections import defaultdict
from math import ceil, prod
from pathlib import Path

TRACED = {
    "cli": ("main",),
    "io": ("parse_instance",),
    "aggregation": ("closure_approx", "sample_multipliers", "classify_cuts"),
    "covering": ("minimal_integer_points", "integer_hull"),
    "cone": ("is_pointed", "extreme_rays", "closure_of", "check_theorem1"),
    "polyhedron": ("dd_cone", "v_to_h", "remove_redundant", "check_implication",
                   "same_point_set", "dimension", "is_facet_defining"),
    "lp": ("solve_lp", "cone_membership"),
    "linalg": ("rank",),
}


def _caller(spans, parent: int) -> str:
    """Function name of the parent span, or "root" for a top-level span."""
    return spans[parent][0].rsplit(".", 1)[1] if parent >= 0 else "root"


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _box_points(q) -> int:
    """Size of the documented enumeration box 0 <= x_j <= B_j with
    B_j = max over rows with M_ij > 0 of ceil(d_i / M_ij)."""
    bounds = []
    for j in range(len(q.M[0])):
        bounds.append(max((ceil(di / row[j]) for row, di in zip(q.M, q.d) if row[j] > 0),
                          default=0))
    return prod(b + 1 for b in bounds)


def _count_solve_lp(t, caller, args, kwargs, result):
    rows, cols = len(_arg(args, kwargs, 0, "a")), len(_arg(args, kwargs, 2, "c"))
    t.counts["lp.solve_lp.cells"] += rows * cols


def _count_dd_cone(t, caller, args, kwargs, result):
    lines, rays = result
    t.counts["polyhedron.dd_cone.rows_in"] += len(_arg(args, kwargs, 0, "rows"))
    t.counts["polyhedron.dd_cone.rays_out"] += len(lines) + len(rays)


def _count_remove_redundant(t, caller, args, kwargs, result):
    key = f"polyhedron.remove_redundant.by_{caller}"
    t.counts[key + ".rows_in"] += len(_arg(args, kwargs, 0, "p").inequalities)
    t.counts[key + ".rows_out"] += len(result.inequalities)


def _count_minimal_points(t, caller, args, kwargs, result):
    q = _arg(args, kwargs, 0, "q")
    key = "covering.minimal_integer_points"
    t.counts[key + ".box_points"] += _box_points(q)
    t.counts[key + ".kept"] += len(result.points)
    t.distinct[key].add((q.M, q.d))


def _count_integer_hull(t, caller, args, kwargs, result):
    q = _arg(args, kwargs, 0, "q")
    t.distinct["covering.integer_hull"].add((q.M, q.d))


def _count_samples(t, caller, args, kwargs, result):
    t.counts["aggregation.sample_multipliers.samples"] += len(result)


COUNTERS = {
    "lp.solve_lp": _count_solve_lp,
    "polyhedron.dd_cone": _count_dd_cone,
    "polyhedron.remove_redundant": _count_remove_redundant,
    "covering.minimal_integer_points": _count_minimal_points,
    "covering.integer_hull": _count_integer_hull,
    "aggregation.sample_multipliers": _count_samples,
}


class Tracer:
    """Spans and counts of one traced run; ``job`` is the index of the job
    now running, set by the caller."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, job]
        self.job = -1
        self.counts: dict[str, int] = defaultdict(int)
        self.distinct: dict[str, set] = defaultdict(set)
        self.missing: list[str] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, self.job]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                counter(self, _caller(spans, parent), args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every listed function at every closurelab module binding.
        Call after the closurelab modules are imported."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "closurelab" or name.startswith("closurelab."))]
        for layer, names in TRACED.items():
            home = sys.modules.get(f"closurelab.{layer}")
            for fname in names:
                original = getattr(home, fname, None)
                if original is None:
                    self.missing.append(f"{layer}.{fname}")
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def write_spans(self, path: Path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("job\tname\tstart\tend\tparent\n")
            for name, start, end, parent, job in self.spans:
                fh.write(f"{job}\t{name}\t{start!r}\t{end!r}\t{parent}\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def span_stats(spans) -> dict:
    """calls, incl and self seconds per span name and per (name, caller)."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    stats: dict[str, dict] = defaultdict(lambda: {"calls": 0, "incl": 0.0, "self": 0.0})
    for i, (name, start, end, parent, _) in enumerate(spans):
        for key in (name, f"{name}.by_{_caller(spans, parent)}"):
            s = stats[key]
            s["calls"] += 1
            s["incl"] += end - start
            s["self"] += end - start - covered[i]
    return stats


def layer_metrics(tracer: Tracer, traced_wall: float) -> dict[str, float]:
    """Every per-layer value the benchmark reports, except the ones that
    need the untraced pass; ``traced_wall`` is the sum of the traced jobs'
    wall times.  Times of functions that some workload never
    calls are shares of the traced wall in percent, so that no time reads
    a constant zero; the others are seconds."""
    st = span_stats(tracer.spans)
    c = tracer.counts

    def calls(key):
        return st[key]["calls"] if key in st else 0

    def secs(key, kind):
        return st[key][kind] if key in st else 0.0

    def pct(key, kind):
        return 100.0 * _ratio(secs(key, kind), traced_wall)

    out: dict[str, float] = {}
    out["lp.solve_lp.calls"] = calls("lp.solve_lp")
    out["lp.solve_lp.cells"] = c["lp.solve_lp.cells"]
    out["lp.solve_lp.self_s"] = secs("lp.solve_lp", "self")
    out["lp.solve_lp.by_remove_redundant.calls"] = calls("lp.solve_lp.by_remove_redundant")
    out["lp.solve_lp.by_remove_redundant.self_s"] = secs("lp.solve_lp.by_remove_redundant", "self")
    for caller in ("is_pointed", "check_implication", "dimension"):
        key = f"lp.solve_lp.by_{caller}"
        out[key + ".calls"] = calls(key)
        out[key + ".self_pct"] = pct(key, "self")
    out["lp.cone_membership.calls"] = calls("lp.cone_membership")
    out["lp.cone_membership.self_pct"] = pct("lp.cone_membership", "self")

    out["linalg.rank.calls"] = calls("linalg.rank")
    out["linalg.rank.self_s"] = secs("linalg.rank", "self")

    out["polyhedron.dd_cone.calls"] = calls("polyhedron.dd_cone")
    out["polyhedron.dd_cone.rows_in"] = c["polyhedron.dd_cone.rows_in"]
    out["polyhedron.dd_cone.rays_out"] = c["polyhedron.dd_cone.rays_out"]
    out["polyhedron.dd_cone.self_pct"] = pct("polyhedron.dd_cone", "self")
    for caller in ("v_to_h", "closure_approx", "closure_of"):
        key = f"polyhedron.remove_redundant.by_{caller}"
        rows_in = c[key + ".rows_in"]
        out[key + ".calls"] = calls(key)
        out[key + ".rows_in"] = rows_in
        out[key + ".drop_ratio"] = _ratio(rows_in - c[key + ".rows_out"], rows_in)
        out[key + ".incl_pct"] = pct(key, "incl")
    for fname in ("check_implication", "same_point_set", "dimension", "is_facet_defining"):
        key = f"polyhedron.{fname}"
        out[key + ".calls"] = calls(key)
        out[key + ".incl_pct"] = pct(key, "incl")

    key = "covering.minimal_integer_points"
    box = c[key + ".box_points"]
    out[key + ".calls"] = calls(key)
    out[key + ".distinct_ratio"] = _ratio(len(tracer.distinct[key]), calls(key))
    out[key + ".box_points"] = box
    out[key + ".kept_ratio"] = _ratio(c[key + ".kept"], box)
    out[key + ".self_pct"] = pct(key, "self")
    key = "covering.integer_hull"
    out[key + ".calls"] = calls(key)
    out[key + ".distinct_ratio"] = _ratio(len(tracer.distinct[key]), calls(key))
    out[key + ".incl_pct"] = pct(key, "incl")

    out["aggregation.closure_approx.calls"] = calls("aggregation.closure_approx")
    out["aggregation.closure_approx.self_pct"] = pct("aggregation.closure_approx", "self")
    out["aggregation.closure_approx.incl_pct"] = pct("aggregation.closure_approx", "incl")
    out["aggregation.sample_multipliers.samples"] = c["aggregation.sample_multipliers.samples"]
    out["aggregation.classify_cuts.incl_pct"] = pct("aggregation.classify_cuts", "incl")

    out["cone.is_pointed.calls"] = calls("cone.is_pointed")
    out["cone.is_pointed.incl_pct"] = pct("cone.is_pointed", "incl")
    out["cone.extreme_rays.incl_pct"] = pct("cone.extreme_rays", "incl")
    out["cone.closure_of.calls"] = calls("cone.closure_of")

    out["io.parse_instance.self_s"] = secs("io.parse_instance", "self")
    out["cli.main.calls"] = calls("cli.main")
    return out
