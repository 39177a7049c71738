"""Independent checks of CLI outputs.

None of this shares code with pegboard's geometry kernel: the expected
values come from closed forms in the knot's Alexander exponents (staircase
knots) or in the thin model's parameters, and from the exit-code contract.

* Staircase (L-space) knots of genus g at slope p/q > 0 have filling
  dimension p + 2*max(0, (2g - 1)q - p) (Ozsvath-Szabo, "Knot Floer
  homology and rational surgeries", arXiv:math/0504404).
* Their knot Floer homology (``hfk K 1/0``) has dimension 1 at each
  exponent of the Alexander polynomial, and the package reports
  genus = tau = g with epsilon = +1 for them (epsilon 0 for the unknot).
* Every dual-knot total dominates the filling dimension.
* A thin knot's knot Floer homology is a staircase of length 2|tau| + 1
  plus one 4-dimensional box per figure-eight component.

The negative-slope closed form is deliberately not used: see NOTES.md.
"""

from __future__ import annotations

import json
from fractions import Fraction


def staircase_filling_dim(genus: int, p: int, q: int) -> int:
    """Filling dimension of a genus-g staircase knot at slope p/q > 0."""
    if p <= 0 or q <= 0:
        raise ValueError("the closed form is used for positive slopes only")
    return p + 2 * max(0, (2 * genus - 1) * q - p)


def check_output(op, rc: int, text: str) -> list[str]:
    """Reasons why one command's result is wrong; empty when it is right."""
    if rc != 0:
        return [f"exit code {rc}, expected 0"]
    try:
        payload = json.loads(text)
    except ValueError as exc:
        return [f"output is not one JSON document: {exc}"]
    check = _CHECKS.get(op.command)
    return check(op, payload) if check else []


def _check_pair(op, payload) -> list[str]:
    p, q = op.slope
    if payload.get("slope") != f"{p}/{q}":
        return [f"report is for slope {payload.get('slope')}, asked {p}/{q}"]
    exps = op.spec.staircase
    if exps is None or p <= 0:
        return []
    want = staircase_filling_dim(exps[0], p, q)
    if payload["total"] != want:
        return [f"filling dimension {payload['total']}, closed form {want}"]
    return []


def _check_hfk(op, payload) -> list[str]:
    p, q = op.slope
    dims = payload["dims"]
    total = payload["total"]
    if total != sum(dims.values()):
        return [f"total {total} is not the sum of the graded dims"]
    exps = op.spec.staircase
    if q == 0:
        if exps is not None:
            want = {str(Fraction(e)): 1 for e in exps}
            if dims != want:
                return [f"knot homology {dims}, Alexander exponents give {want}"]
        elif op.spec.kind == "thin":
            want = 2 * abs(op.spec.tau) + 1 + 4 * op.spec.fig8
            if total != want:
                return [f"thin knot homology total {total}, expected {want}"]
        return []
    if exps is not None and p > 0:
        floor = staircase_filling_dim(exps[0], p, q)
        if total < floor:
            return [f"dual total {total} is below the filling dimension {floor}"]
    return []


def _check_diff(op, payload) -> list[str]:
    bad = [row["grading"] for row in payload["gradings"] if not row["ok"]]
    return [f"rank bound violated at gradings {bad}"] if bad else []


def _check_invariants(op, payload) -> list[str]:
    exps = op.spec.staircase
    if exps is None:
        return []
    g = exps[0]
    want = (g, g, 1 if g > 0 else 0)
    got = (payload["genus"], payload["tau"], payload["epsilon"])
    if got != want:
        return [f"(genus, tau, epsilon) = {got}, expected {want}"]
    return []


def _check_scan(op, payload) -> list[str]:
    out = []
    exps = op.spec.staircase
    for e in payload["entries"]:
        if e["verdict"] == "THEOREM VIOLATION":
            out.append(f"theorem violation at {e['slope']}")
        p, q = (int(t) for t in e["slope"].split("/"))
        if exps is not None and p > 0:
            want = staircase_filling_dim(exps[0], p, q)
            if e["filling_dim"] != want:
                out.append(f"filling dimension {e['filling_dim']} at {e['slope']}, closed form {want}")
    return out


_CHECKS = {
    "pair": _check_pair,
    "hfk": _check_hfk,
    "diff": _check_diff,
    "invariants": _check_invariants,
    "scan-simple": _check_scan,
}
