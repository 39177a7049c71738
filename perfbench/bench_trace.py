"""Spans around pegboard's public functions, recorded from outside.

``Tracer.install`` replaces each listed function in every ``pegboard.*``
module namespace that holds it (so ``differentials.arc_points`` and
``cli.surgery_report`` are wrapped as well as ``pairing.arc_points``), and
``uninstall`` puts the originals back.  No source file changes.

Spans live in memory as parallel arrays (name, start, end, parent span,
operation id) and are written out once, after the traced run.  A span's
self time is its duration minus the part of it that its child spans cover.
Work counts are taken at the same boundaries from arguments and results;
anything costly (hashing a diagram, the canonical offset) is derived after
the pass from references kept during it.
"""

from __future__ import annotations

import math
import sys
import time
from array import array
from collections import defaultdict
from fractions import Fraction

# Module -> public functions wrapped, in layer order.
TARGETS = (
    ("cli", ("main",)),
    ("textfmt", ("parse_curve_text",)),
    ("curves", ("validate", "extrema_census", "tau_epsilon")),
    ("pairing", ("surgery_report", "genus_of", "dual_hfk_dims", "arc_points",
                 "line_family", "raw_intersections", "cancel_bigons")),
    ("differentials", ("dually_simple_scan", "census_bounds", "differential_matrix", "gf2_rank")),
    ("geometry", ("winding_number",)),
)
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TARGETS for fn in fns)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


class Tracer:
    def __init__(self):
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.op_id = -1
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        # Raw per-call facts, turned into counts by layer_metrics().
        self.families: list = []  # (diagram, chosen delta) per line_family call
        self.raw_points = 0
        self.cancel_in = 0
        self.cancel_kept = 0
        self.cancelled = 0
        self.arc_keys: list = []  # (diagram, arc) per arc_points call
        self.nonzero_gradings = 0
        self.entries = 0
        self.bigons = 0

    # -- recording ---------------------------------------------------------

    def _wrap(self, code: int, fn, after):
        names, starts, ends, parents, ops = self.name, self.start, self.end, self.parent, self.op
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(code)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _after_line_family(self, args, kwargs, fam):
        self.families.append((_arg(args, kwargs, 0, "d"), fam.delta))

    def _after_raw(self, args, kwargs, pts):
        self.raw_points += len(pts)

    def _after_cancel(self, args, kwargs, result):
        live, audit = result
        self.cancel_in += len(_arg(args, kwargs, 0, "pts"))
        self.cancel_kept += len(live)
        self.cancelled += len(audit)

    def _after_arc_points(self, args, kwargs, live):
        self.arc_keys.append((_arg(args, kwargs, 0, "d"), _arg(args, kwargs, 1, "arc")))

    def _after_dual_dims(self, args, kwargs, dims):
        self.nonzero_gradings += len(dims)

    def _after_matrix(self, args, kwargs, m):
        self.entries += len(m.source_points) * len(m.target_points)
        self.bigons += len(m.bigons)

    def install(self) -> None:
        """Wrap every target in every loaded pegboard module that holds it."""
        after = {
            "pairing.line_family": self._after_line_family,
            "pairing.raw_intersections": self._after_raw,
            "pairing.cancel_bigons": self._after_cancel,
            "pairing.arc_points": self._after_arc_points,
            "pairing.dual_hfk_dims": self._after_dual_dims,
            "differentials.differential_matrix": self._after_matrix,
        }
        wrappers = {}  # id(original) -> wrapper; the modules keep the originals alive
        for code, span in enumerate(SPAN_NAMES):
            mod, fn_name = span.split(".")
            fn = getattr(sys.modules[f"pegboard.{mod}"], fn_name)
            wrappers[id(fn)] = self._wrap(code, fn, after.get(span))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "pegboard" and not mod_name.startswith("pegboard."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._originals.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._originals):
            setattr(module, attr, value)
        self._originals.clear()

    # -- reporting ---------------------------------------------------------

    def spans(self):
        """(name, start, end, parent, op) tuples in entry order."""
        return [
            (SPAN_NAMES[c], s, e, p, o)
            for c, s, e, p, o in zip(self.name, self.start, self.end, self.parent, self.op)
        ]

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for name, s, e, p, o in self.spans():
                fh.write(f"{name}\t{s:.9f}\t{e:.9f}\t{p}\t{o}\n")

    def layer_metrics(self) -> dict:
        """Per-layer counts and self times, named as in BENCHMARK.json."""
        spans = self.spans()
        calls = defaultdict(int)
        for name, *_ in spans:
            calls[name] += 1
        self_s = self_times(spans)
        arc_code = SPAN_NAMES.index("pairing.arc_points")
        dual_code = SPAN_NAMES.index("pairing.dual_hfk_dims")
        swept = sum(
            1 for c, p in zip(self.name, self.parent)
            if c == arc_code and p >= 0 and self.name[p] == dual_code
        )
        halvings = sum(_halvings(canonical_delta(d), delta) for d, delta in self.families)
        distinct = len({(d.components, arc.slope, arc.height) for d, arc in self.arc_keys})

        m = {}

        def put(name, value, unit):
            m[name] = {"value": value, "unit": unit}

        def layer(name, *fields):
            for f in fields:
                if f == "calls":
                    put(f"{name}.calls", calls[name], "count")
                elif f == "self_s":
                    put(f"{name}.self_s", self_s.get(name, 0.0), "s")

        lf = "pairing.line_family"
        layer(lf, "calls", "self_s")
        put(f"{lf}.halvings", halvings, "count")
        put(f"{lf}.clean_frac", _frac(calls[lf], calls[lf] + halvings), "ratio")
        layer("pairing.raw_intersections", "calls", "self_s")
        put("pairing.raw_intersections.points", self.raw_points, "count")
        layer("pairing.cancel_bigons", "calls", "self_s")
        put("pairing.cancel_bigons.cancelled", self.cancelled, "count")
        put("pairing.cancel_bigons.kept_frac", _frac(self.cancel_kept, self.cancel_in), "ratio")
        ap = "pairing.arc_points"
        layer(ap, "calls")
        put(f"{ap}.distinct", distinct, "count")
        put(f"{ap}.distinct_frac", _frac(distinct, calls[ap]), "ratio")
        dd = "pairing.dual_hfk_dims"
        layer(dd, "calls")
        put(f"{dd}.gradings_swept", swept, "count")
        put(f"{dd}.nonzero_frac", _frac(self.nonzero_gradings, swept), "ratio")
        layer("pairing.surgery_report", "calls")
        layer("pairing.genus_of", "calls")
        dm = "differentials.differential_matrix"
        layer(dm, "calls", "self_s")
        put(f"{dm}.entries", self.entries, "count")
        put(f"{dm}.bigons", self.bigons, "count")
        layer("differentials.gf2_rank", "calls", "self_s")
        layer("differentials.census_bounds", "self_s")
        layer("differentials.dually_simple_scan", "calls", "self_s")
        layer("geometry.winding_number", "calls", "self_s")
        layer("curves.validate", "calls", "self_s")
        layer("curves.extrema_census", "self_s")
        layer("curves.tau_epsilon", "self_s")
        layer("textfmt.parse_curve_text", "calls", "self_s")
        layer("cli.main", "self_s")
        return m


def _frac(num, den) -> float:
    return num / den if den else 0.0


def _halvings(canonical, chosen) -> int:
    """log2(canonical / chosen) for an offset halved a whole number of times."""
    ratio = canonical / chosen
    n = ratio.numerator.bit_length() - 1
    if ratio.denominator != 1 or ratio.numerator != 1 << n:
        raise ValueError(f"offset {chosen} is not the canonical {canonical} halved")
    return n


def self_times(spans) -> dict:
    """Total self time per span name.

    ``spans`` holds (name, start, end, parent, op) tuples with parent an
    index into the same sequence (-1 for a root).  Child intervals are
    clipped to their parent and merged before they are subtracted, so
    overlapping children are not counted twice.
    """
    children = defaultdict(list)
    for name, s, e, p, _ in spans:
        if p >= 0:
            children[p].append((s, e))
    out = defaultdict(float)
    for i, (name, s, e, _, _) in enumerate(spans):
        covered = 0.0
        lo = hi = None
        for cs, ce in sorted(children.get(i, ())):
            cs, ce = max(cs, s), min(ce, e)
            if ce <= cs:
                continue
            if hi is None or cs > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = cs, ce
            else:
                hi = max(hi, ce)
        if hi is not None:
            covered += hi - lo
        out[name] += (e - s) - covered
    return dict(out)


def canonical_delta(d) -> Fraction:
    """The documented canonical offset 1/(2*D*N): D the lcm of every
    coordinate denominator, N the vertex count."""
    lcm = 1
    n = 0
    for c in d.components:
        for p in c.vertices:
            n += 1
            lcm = math.lcm(lcm, p.x.denominator, p.y.denominator)
    return Fraction(1, 2 * lcm * max(n, 1))
