"""The Hermite core (hnf, kernel, solve, matrix_inverse) against sympy.

sympy's normal forms share no code with skewsep.linalg, so they serve as
the reference.  Systems over ZZ/n are checked through their lift to ZZ:
x solves M x = b mod n iff b lies in the column lattice of [M | n*I].
"""

import math

import pytest
from hypothesis import event, given, settings, strategies as st

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import hermite_normal_form, invariant_factors  # noqa: E402

from skewsep.linalg import (  # noqa: E402
    CoeffRing, Matrix, hnf, kernel, matrix_inverse, solve,
)

MODULI = [0, 0, 0, 2, 3, 4, 6, 8, 9, 12, 2 ** 64, 2 ** 61 - 1]
small = st.integers(-9, 9)
# one entry in ~2^64: past any machine word, with small ones mixed in
wide = st.one_of(small, st.integers(-2 ** 64 - 9, -2 ** 64 + 9),
                 st.integers(2 ** 64 - 9, 2 ** 64 + 9))


def _rows(data, nrows, ncols, entries):
    return data.draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                              min_size=nrows, max_size=nrows))


def _matrix_rows(data, nrows, ncols):
    """Some are products through a thin middle dimension, so that rank
    deficiency and nontrivial invariant factors are common."""
    entries = wide if data.draw(st.integers(0, 3)) == 0 else small
    if data.draw(st.booleans()):
        return _rows(data, nrows, ncols, entries)
    inner = data.draw(st.integers(0, min(nrows, ncols)))
    left = _rows(data, nrows, inner, small)
    right = _rows(data, inner, ncols, entries)
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] if inner
            else [0] * ncols for row in left]


def _shape(data):
    """(rows, cols) with cols up to 5: half the time at most 5 rows, half the
    time tall, with up to three times as many rows as columns."""
    p = data.draw(st.integers(1, 5))
    if data.draw(st.booleans()):
        return data.draw(st.integers(p + 1, 3 * p)), p
    return data.draw(st.integers(1, 5)), p


def _sym(rows, ncols):
    return sympy.Matrix(len(rows), ncols, [e for r in rows for e in r])


def _lift(rows, ncols, n):
    """Rows of the ZZ lattice a subgroup of (ZZ/n)^ncols stands for."""
    if not n:
        return list(rows)
    return list(rows) + [[n if j == i else 0 for j in range(ncols)] for i in range(ncols)]


def _lattice_form(rows, ncols, n):
    """sympy's Hermite form of the ZZ lattice the rows (and n*ZZ^ncols) span."""
    return hermite_normal_form(_sym(_lift(rows, ncols, n), ncols).T)


def _assert_canonical(basis, n):
    """Row echelon, positive pivots, entries above each pivot in [0, pivot);
    over ZZ/n every pivot is a proper divisor of n and entries lie in [0, n)."""
    last = -1
    for i, row in enumerate(basis):
        col = next(j for j, e in enumerate(row) if e)
        assert col > last
        last = col
        d = row[col]
        assert d > 0
        if n:
            assert n % d == 0 and d < n and all(0 <= e < n for e in row)
        assert all(0 <= earlier[col] < d for earlier in basis[:i])


def _solvable(rows, ncols, b, n):
    """Is M x = b solvable?  Over ZZ (after lifting ZZ/n): iff M and [M | b]
    agree in rank and in the product of their nonzero invariant factors."""
    m = _sym(rows, ncols)
    if n:
        m = m.row_join(n * sympy.eye(len(rows)))
    aug = m.row_join(sympy.Matrix(b))
    if m.rank() != aug.rank():
        return False
    return (math.prod(d for d in invariant_factors(m) if d)
            == math.prod(d for d in invariant_factors(aug) if d))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_hnf_spans_the_generated_lattice(data):
    n = data.draw(st.sampled_from(MODULI))
    dim = data.draw(st.integers(1, 5))
    gens = _matrix_rows(data, data.draw(st.integers(0, 5)), dim)
    s = hnf(gens, CoeffRing(n), dim=dim)
    _assert_canonical(s.basis, n)
    assert _lattice_form(s.basis, dim, n) == _lattice_form(gens, dim, n)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_kernel_is_the_whole_saturated_kernel(data):
    n = data.draw(st.sampled_from(MODULI))
    q, p = _shape(data)
    event(f"tall: {q > p}")
    m = Matrix(_matrix_rows(data, q, p), CoeffRing(n), cols=p)
    k = kernel(m)
    _assert_canonical(k.basis, n)
    mk = _sym(m.entries, p) * _sym(k.basis, p).T
    assert all(e % n == 0 if n else e == 0 for e in mk)
    if n:
        # the lift of the kernel has index |image of m| = n^q / |ZZ^q / [M | n*I]|
        pivots = {next(j for j, e in enumerate(r) if e): r for r in k.basis}
        index = math.prod(pivots[j][j] if j in pivots else n for j in range(p))
        lifted = _sym(m.entries, p).row_join(n * sympy.eye(q))
        assert index * math.prod(invariant_factors(lifted)) == n ** q
    else:
        assert k.rank == p - _sym(m.entries, p).rank()
        assert all(d == 1 for d in invariant_factors(_sym(k.basis, p)))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_solve_decides_solvability_like_the_lifted_system(data):
    n = data.draw(st.sampled_from(MODULI))
    coeff = CoeffRing(n)
    q, p = _shape(data)
    event(f"tall: {q > p + 1}")      # the system solved is [-b | M]
    ents = _matrix_rows(data, q, p)
    if data.draw(st.booleans()):
        x0 = data.draw(st.lists(small, min_size=p, max_size=p))
        b = [sum(a * c for a, c in zip(row, x0)) for row in ents]
    else:
        b = data.draw(st.lists(data.draw(st.sampled_from([small, wide])),
                               min_size=q, max_size=q))
    m = Matrix(ents, coeff, cols=p)
    res = solve(m, b)
    assert (res is not None) == _solvable(m.entries, p, coeff.reduce_vec(b), n)
    if res is None:
        return
    x, k = res
    assert m.apply(x) == coeff.reduce_vec(b)
    assert k == kernel(m)
    for row in k.basis:
        col = next(i for i, e in enumerate(row) if e)
        assert 0 <= x[col] < row[col]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_matrix_inverse_exists_iff_determinant_is_a_unit(data):
    n = data.draw(st.sampled_from(MODULI))
    coeff = CoeffRing(n)
    p = data.draw(st.integers(1, 5))
    m = Matrix(_matrix_rows(data, p, p), coeff, cols=p)
    inv = matrix_inverse(m)
    assert (inv is not None) == coeff.is_unit(coeff.reduce(_sym(m.entries, p).det()))
    if inv is not None:
        assert m.mul(inv).is_identity() and inv.mul(m).is_identity()
