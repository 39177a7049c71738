"""Filling and dual-knot dimensions against oracles outside the kernel.

The filling dimensions of staircase knots are checked against two of them.

For a knot whose knot Floer complex is a staircase of genus g (an L-space
knot, such as a positive torus knot) and a slope p/q > 0,

    dim HF^(S^3_{p/q}(K)) = p + 2 * max(0, (2g - 1) * q - p)

(Ozsvath-Szabo, "Knot Floer homology and rational surgeries",
arXiv:math/0504404).  The same paper gives the rank at any p/q > 0 from
the complex CFK^oo itself:

    rank = p + 2 * max(0, (2 * nu - 1) * q - p) + q * sum_s (rank H(A^_s) - 1)

where A^_s = C{max(i, j - s) = 0}, B^ = C{i = 0}, and nu is the least s
at which the projection v^_s: A^_s -> B^ is nonzero on homology.  A slope
p/q < 0 is the mirror's rank at |p|/q, because S^3_{-r}(K) is
-S^3_r(mirror K) and the mirror's complex is the dual one.  `cone_rank`
builds the staircase complex over GF(2) from the exponents of the
Alexander polynomial and reads everything from it, so neither oracle
shares code with the geometry kernel, and the mapping cone checks both
slope signs.

`dually_simple_scan`'s dual totals and filling dims are checked against a
third oracle, a Stern-Brocot walk over cyclic words (its section below).
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pegboard.curves import build_zoo, lspace_staircase, staircase_exponents, thin
from pegboard.differentials import dually_simple_scan
from pegboard.pairing import SlopeSpec, dual_hfk_dims, surgery_dim


def closed_form_dim(genus: int, p: int, q: int) -> int:
    return p + 2 * max(0, (2 * genus - 1) * q - p)


# zoo staircases and the degree of their Alexander polynomials
ZOO_GENUS = {"unknot": 0, "trefoil": 1, "torus_2_5": 2, "torus_3_4": 3}
POSITIVE_SLOPES = [(p, q) for q in range(1, 5) for p in range(1, 13) if math.gcd(p, q) == 1]


@pytest.mark.parametrize("name", sorted(ZOO_GENUS))
def test_zoo_staircases_match_closed_form(name):
    d = build_zoo(name)
    genus = ZOO_GENUS[name]
    for p, q in POSITIVE_SLOPES + [(63, 31)]:
        assert surgery_dim(d, SlopeSpec(p, q)) == closed_form_dim(genus, p, q), f"{p}/{q}"


@st.composite
def staircase_polynomials(draw):
    upper = sorted(draw(st.lists(st.integers(1, 5), min_size=0, max_size=3, unique=True)), reverse=True)
    exps = upper + [0] + [-e for e in reversed(upper)]
    return {e: (1 if i % 2 == 0 else -1) for i, e in enumerate(exps)}


@settings(max_examples=40, deadline=None)
@given(staircase_polynomials(), st.sampled_from(POSITIVE_SLOPES))
def test_generated_staircases_match_closed_form(alexander, pq):
    genus = max(alexander)
    assert surgery_dim(lspace_staircase(alexander), SlopeSpec(*pq)) == closed_form_dim(genus, *pq)


# ---------------------------------------------------------------------------
# The mapping cone, from CFK^oo of the staircase


def staircase_complex(exps: list[int]) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """CFK^oo of the staircase with Alexander exponents exps (descending):
    one (i, j) filtration level per generator and the arrows (l, m) of the
    differential.  Generator 0 sits at (0, exps[0]); each odd generator
    lies exps[l-1] - exps[l] to the right of the one before it and each
    even one that far below, so generator l has Alexander grading
    j - i = exps[l].  Every odd generator maps to both neighbours."""
    pos = [(0, exps[0])]
    for l in range(1, len(exps)):
        i, j = pos[-1]
        step = exps[l - 1] - exps[l]
        pos.append((i + step, j) if l % 2 else (i, j - step))
    arrows = [(l, m) for l in range(1, len(exps), 2) for m in (l - 1, l + 1)]
    return pos, arrows


def gf2_row_reduce(rows: list[int]) -> tuple[int, list[int]]:
    """(rank, kernel) of the bit-mask rows: the kernel lists the
    combinations of rows, as bit masks over row indices, that sum to 0."""
    pivots: dict[int, tuple[int, int]] = {}
    kernel = []
    for l, row in enumerate(rows):
        comb = 1 << l
        while row:
            top = row.bit_length() - 1
            if top not in pivots:
                pivots[top] = (row, comb)
                break
            prow, pcomb = pivots[top]
            row, comb = row ^ prow, comb ^ pcomb
        if not row:
            kernel.append(comb)
    return len(pivots), kernel


def cone_rank(exps: list[int], p: int, q: int) -> int:
    """rank HF^ of the p/q surgery (p != 0, q >= 1) on the staircase knot
    with exponents exps, by the mapping-cone formula."""
    pos, arrows = staircase_complex(exps)
    if p < 0:  # the mirror at |p|/q: the dual complex
        pos, arrows, p = [(-i, -j) for i, j in pos], [(m, l) for l, m in arrows], -p

    def differential(lift: list[int]) -> list[int]:
        """The differential on the one translate U^lift[l] of each
        generator: an arrow survives iff both ends are in the same slice."""
        rows = [0] * len(pos)
        for l, m in arrows:
            if lift[l] == lift[m]:
                rows[l] |= 1 << m
        return rows

    at_i0 = [i for i, _ in pos]  # B^ = C{i = 0} holds U^i of each generator
    boundaries_b = differential(at_i0)
    rank_b, _ = gf2_row_reduce(boundaries_b)
    genus = max(abs(e) for e in exps)
    nu, excess = None, 0
    for s in range(-genus - 1, genus + 2):  # A^_s has rank 1 outside [-g, g]
        # A^_s holds U^n of each generator, n = max(i, j - s).
        lift = [max(i, j - s) for i, j in pos]
        rank_a, cycles = gf2_row_reduce(differential(lift))
        excess += len(pos) - 2 * rank_a - 1
        if nu is None:
            # v^_s keeps the generators whose translate lies in i = 0.
            keep = sum(1 << l for l in range(len(pos)) if lift[l] == at_i0[l])
            if gf2_row_reduce(boundaries_b + [z & keep for z in cycles])[0] > rank_b:
                nu = s
    return p + 2 * max(0, (2 * nu - 1) * q - p) + q * excess


ZOO_EXPONENTS = {
    "unknot": [0],
    "trefoil": [1, 0, -1],
    "torus_2_5": [2, 1, 0, -1, -2],
    "torus_3_4": [3, 2, 0, -2, -3],
}
SIGNED_SLOPES = [(s * p, q) for q in range(1, 5) for p in range(1, 8) for s in (1, -1)
                 if math.gcd(p, q) == 1]


def test_cone_matches_closed_form_at_positive_slopes():
    """On a staircase nu is the genus and every A^_s has rank 1, so the
    cone reduces to the closed form."""
    for exps in list(ZOO_EXPONENTS.values()) + [[4, 2, 0, -2, -4], [5, 1, 0, -1, -5]]:
        for p, q in POSITIVE_SLOPES:
            assert cone_rank(exps, p, q) == closed_form_dim(max(exps), p, q), (exps, p, q)


def test_cone_of_the_trefoils_at_minus_one():
    """-1 surgery on the right-handed trefoil is the Brieskorn sphere
    Sigma(2, 3, 7), of rank 3; +1 on the left-handed one is its reverse."""
    assert cone_rank([1, 0, -1], -1, 1) == 3
    assert cone_rank([1, 0, -1], 1, 1) == 1


@pytest.mark.parametrize("name", sorted(ZOO_EXPONENTS) + ["trefoil_mirror"])
def test_zoo_staircases_match_cone_at_both_signs(name):
    d = build_zoo(name)
    mirrored = name.endswith("_mirror")
    exps = ZOO_EXPONENTS[name.removesuffix("_mirror")]
    for p, q in SIGNED_SLOPES:
        want = cone_rank(exps, -p if mirrored else p, q)
        assert surgery_dim(d, SlopeSpec(p, q)) == want, f"{p}/{q}"


@settings(max_examples=40, deadline=None)
@given(staircase_polynomials(), st.sampled_from(SIGNED_SLOPES))
@example({4: 1, 2: -1, 0: 1, -2: -1, -4: 1}, (-2, 1))
def test_generated_staircases_match_cone_at_both_signs(alexander, pq):
    want = cone_rank(staircase_exponents(alexander), *pq)
    assert surgery_dim(lspace_staircase(alexander), SlopeSpec(*pq)) == want


# ---------------------------------------------------------------------------
# The dual side of staircases: HFK-hat at 1/0 and Floer-simple duals
#
# At 1/0 the dual knot is the knot itself, so the graded dims are HFK-hat:
# 1 at each exponent of a staircase, negated for its mirror.  The dual knot
# in S^3_r(K) of an L-space knot K is Floer simple iff r > 2g - 1 (the
# source paper proves "only if"; the converse is due to Hedden and to
# Rasmussen), and for the mirror iff r < -(2g - 1).  The unknot's dual is
# simple at every slope.  A simple dual's total is the filling dimension,
# and the filling is an L-space: |p|.


@settings(max_examples=6, deadline=None)
@given(staircase_polynomials())
@example({0: 1})  # the unknot
def test_dual_side_of_staircases_and_their_mirrors(alexander):
    exps = sorted(alexander, reverse=True)
    genus = exps[0]
    d = lspace_staircase(alexander)
    for diagram, sign in ((d, 1), (d.mirror(), -1)):
        assert dual_hfk_dims(diagram, SlopeSpec(1, 0)) == {sign * e: 1 for e in exps}
        for entry in dually_simple_scan(diagram, 7, 3):
            r = sign * Fraction(entry.slope.p, entry.slope.q)
            assert entry.dually_simple == (genus == 0 or r > 2 * genus - 1), (sign, str(entry.slope))
            if entry.dually_simple:
                assert entry.dual_total == entry.filling_dim == abs(entry.slope.p), str(entry.slope)


# ---------------------------------------------------------------------------
# Thin diagrams
#
# thin(tau, 0) is the zigzag through the column heights tau, ..., -tau: the
# T(2, 2|tau| + 1) staircase, its mirror for tau < 0.  Each figure-eight
# component adds CFK^oo an acyclic unit box at Alexander grading 0, so at
# 1/0 it adds (1, 2, 1) at gradings -1, 0, 1; the figure-eight knot alone
# (the unknot's line plus one) has rank |p| + 2q at p/q.


def torus_2_exponents(tau: int) -> list[int]:
    """The exponents of T(2, 2|tau| + 1), descending."""
    return list(range(abs(tau), -abs(tau) - 1, -1))


THIN_SLOPES = [(s * p, q) for q in range(1, 5) for p in range(1, 10) for s in (1, -1)
               if math.gcd(p, q) == 1]


@pytest.mark.parametrize("tau", range(-3, 4))
def test_thin_without_figure_eights_is_the_torus_knot(tau):
    d = thin(tau, 0)
    exps = torus_2_exponents(tau)
    for p, q in THIN_SLOPES:
        assert surgery_dim(d, SlopeSpec(p, q)) == cone_rank(exps, -p if tau < 0 else p, q), f"{p}/{q}"


def test_figure_eight_filling_is_p_plus_2q():
    d = build_zoo("figure_eight")
    for q in range(1, 6):
        for p in range(-12, 13):
            if p and math.gcd(abs(p), q) == 1:
                assert surgery_dim(d, SlopeSpec(p, q)) == abs(p) + 2 * q, f"{p}/{q}"


@pytest.mark.parametrize("tau", range(-3, 4))
def test_thin_at_one_over_zero_is_hfk(tau):
    for f in range(4):
        want = dict.fromkeys(torus_2_exponents(tau), 1)
        for h, n in ((-1, f), (0, 2 * f), (1, f)):
            want[h] = want.get(h, 0) + n
        nonzero = {h: n for h, n in want.items() if n}
        assert dual_hfk_dims(thin(tau, f), SlopeSpec(1, 0)) == nonzero, f


# ---------------------------------------------------------------------------
# The dual-simplicity scan as a Stern-Brocot walk over words (ROADMAP item 4)
#
# A slope p/q's lines are the levels of U = p*x - q*y' (y' = y - 1/2, so
# the pegs are Z^2).  In a unimodular basis of such forms (L, R) a curve
# is a cyclic word in the letters a/A (an L-line crossed upward/downward)
# and b/B (an R-line).  The lines of the mediant form M = L + R are the
# diagonals of the (L, R) cells through their lower right and upper left
# corners (pegs), and a pulled-tight curve crosses one, once, exactly
# where it enters a cell through its left or bottom side and leaves
# through its top or right side (M crossed upward), or the other way round
# (downward): between two cyclically adjacent letters that both go up, or
# both go down.  So the mediant letters are read off the word in one
# pass, and the word in the basis (L, M) or (M, R) is the word with them
# inserted and the replaced family dropped; it is again cyclically
# reduced.  The root basis is (-y', x), slopes 0/1 and 1/0, or (-y', -x)
# for negative slopes, and every reduced p/q of the scan grid is the
# mediant of exactly one node, whose ancestors all lie inside the grid.
# At that node, the dual total is the number of mediant letters, and the
# filling dim that number less their cyclic sign changes.  The root words
# are `test_curves.oracle_word`, which shares no code with the package.


def root_words(d, sign: int) -> list[str]:
    """Each component's reduced word in the root basis (-y', sign * x):
    a rightward column crossing is b (B for sign -1), an upward row
    crossing A, a downward one a."""
    from test_curves import oracle_word

    words = []
    for c in d.components:
        letters = []
        for kind, _, _, step in oracle_word(c):
            if kind == "a":  # the column x = line, rightward for step 1
                letters.append("b" if step * sign == 1 else "B")
            else:  # the row y' = line, upward for step 1
                letters.append("A" if step == 1 else "a")
        words.append("".join(letters))
    return words


def mediant_letters(word: str) -> list[bool]:
    """The mediant letters of a word, in cyclic order, True going up: one
    after each letter whose cyclic successor goes the same way."""
    return [x.islower() for x, y in zip(word, word[1:] + word[:1]) if x.islower() == y.islower()]


def child_word(word: str, keep: str) -> str:
    """The word in the basis (L, L + R) when keep is "a", or (L + R, R)
    when keep is "b": the kept family's letters, with each mediant letter
    written as the family that the kept one is not."""
    new = "b" if keep == "a" else "a"
    out = []
    for x, y in zip(word, word[1:] + word[:1]):
        if x.lower() == keep:
            out.append(x)
        if x.islower() == y.islower():
            out.append(new if x.islower() else new.upper())
    return "".join(out)


def walk_scan(d, pmax: int, qmax: int) -> dict[tuple[int, int], tuple[int, int]]:
    """(dual total, filling dim) at every reduced p/q, 0 < |p| <= pmax and
    1 <= q <= qmax, by the Stern-Brocot walk from the root words."""
    out = {}
    for sign in (1, -1):
        nodes = [(root_words(d, sign), (0, 1), (sign, 0))]
        while nodes:
            words, left, right = nodes.pop()
            p, q = left[0] + right[0], left[1] + right[1]
            if abs(p) > pmax or q > qmax:
                continue
            dual = filling = 0
            for word in words:
                ups = mediant_letters(word)
                dual += len(ups)
                filling += len(ups) - sum(u != v for u, v in zip(ups, ups[-1:] + ups[:-1]))
            out[(p, q)] = (dual, filling)
            nodes.append(([child_word(w, "a") for w in words], left, (p, q)))
            nodes.append(([child_word(w, "b") for w in words], (p, q), right))
    return out


def assert_scan_matches_the_walk(d):
    entries = dually_simple_scan(d, 9, 4)
    walked = walk_scan(d, 9, 4)
    assert {(e.slope.p, e.slope.q): (e.dual_total, e.filling_dim) for e in entries} == walked, d.source


def test_walk_words_by_hand():
    # The unknot's line is one rightward column crossing: at p/q its
    # mediant letters are |p| letters all going one way, dual = dim = |p|.
    assert root_words(build_zoo("unknot"), 1) == ["b"] and root_words(build_zoo("unknot"), -1) == ["B"]
    assert mediant_letters("b") == [True] and child_word("b", "a") == "b" and child_word("b", "b") == "ba"
    assert walk_scan(build_zoo("unknot"), 3, 2) == {(p, q): (abs(p), abs(p)) for p, q in
                                                    [(1, 1), (2, 1), (3, 1), (1, 2), (3, 2),
                                                     (-1, 1), (-2, 1), (-3, 1), (-1, 2), (-3, 2)]}


# `thin(tau, f)` with f >= 1 stays out: its figure-eights' bigons are where
# the kernel's cancellation is wrong (ROADMAP item 1), and the walk meets
# additivity there while the kernel does not.  The zoo's figure_eight is
# thin(0, 1) with one figure-eight, and it agrees.
@pytest.mark.parametrize("name", [*sorted(ZOO_GENUS), "trefoil_mirror", "figure_eight"])
def test_scan_matches_the_walk_on_the_zoo(name):
    assert_scan_matches_the_walk(build_zoo(name))


def test_scan_matches_the_walk_on_the_drawings():
    from test_arc_sweep import VALID_DRAWN, drawn

    for name in VALID_DRAWN:
        assert_scan_matches_the_walk(drawn(name))


@settings(max_examples=25, deadline=None)
@given(staircase_polynomials())
def test_scan_matches_the_walk_on_staircases_and_mirrors(alexander):
    d = lspace_staircase(alexander)
    for diagram in (d, d.mirror()):
        assert_scan_matches_the_walk(diagram)
