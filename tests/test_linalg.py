"""Exact linear algebra: frozen examples plus randomized structural checks."""

import random
from itertools import product

import pytest

from skewsep import linalg
from skewsep.linalg import (
    ZZ, CoeffRing, Matrix, Submodule,
    hnf, kernel, matrix_inverse, solve,
    sub_contains, sub_equal, sub_intersect, sub_member,
    _hnf_rows,
)


def _close_under_addition(gens, n, dim):
    """All elements of the subgroup of (Z/n)^dim generated by gens, by closure."""
    seen = {tuple([0] * dim)}
    frontier = [tuple(e % n for e in g) for g in gens]
    seen.update(frontier)
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                s = tuple((x + y) % n for x, y in zip(a, g))
                if s not in seen:
                    seen.add(s)
                    nxt.append(s)
        frontier = nxt
    return seen


# ---------------------------------------------------------------- CoeffRing

def test_coeff_ring_basics():
    assert str(ZZ) == "ZZ"
    assert str(CoeffRing(6)) == "ZZ/6"
    assert ZZ.reduce(-7) == -7
    assert CoeffRing(6).reduce(-7) == 5
    with pytest.raises(ValueError):
        CoeffRing(1)


# ---------------------------------------------------------------------- hnf

def test_hnf_frozen_example():
    s = hnf([(2, 0), (1, 1), (0, 2)], ZZ)
    assert s.basis == ((1, 1), (0, 2))


def test_hnf_empty_is_zero():
    s = hnf([], ZZ, dim=3)
    assert s.is_zero() and s.rank == 0 and s.ambient_dim == 3
    with pytest.raises(ValueError):
        hnf([], ZZ)


def test_hnf_canonical_independent_of_generators():
    a = hnf([(2, 0), (1, 1), (0, 2)], ZZ)
    b = hnf([(1, 1), (1, -1)], ZZ)
    # both generate {(x, y) : x + y even}
    assert sub_equal(a, b)


def test_hnf_mod_n_drops_multiples_of_n():
    s = hnf([(2, 0), (0, 4)], CoeffRing(4))
    assert s.basis == ((2, 0),)


def test_hnf_mod_n_keeps_wraparound_rows():
    # 2*(2,1) = (0,2) mod 4 must appear as a second pivot row
    s = hnf([(2, 1)], CoeffRing(4))
    assert s.basis == ((2, 1), (0, 2))


def test_hnf_mod_n_nonunit_gcd_pivot():
    # 3 is a unit mod 4, the canonical pivot is 1
    s = hnf([(3, 0)], CoeffRing(4))
    assert s.basis == ((1, 0),)


def _random_rows(rng, nrows, dim, bound=9):
    return [[rng.randint(-bound, bound) for _ in range(dim)] for _ in range(nrows)]


def test_hnf_mod_matches_int_hnf_with_explicit_lattice():
    rng = random.Random(20260819)
    for _ in range(120):
        n = rng.choice([2, 3, 4, 6, 8, 9, 12])
        dim = rng.randint(1, 4)
        rows = _random_rows(rng, rng.randint(0, 4), dim)
        explicit = rows + [[n if j == i else 0 for j in range(dim)] for i in range(dim)]
        ref = [tuple(r) for r in _hnf_rows(explicit, dim, 0)
               if any(e % n for e in r)]
        got = [tuple(r) for r in _hnf_rows(rows, dim, n)]
        assert got == ref, (n, rows)


def test_hnf_idempotent_and_membership():
    rng = random.Random(7)
    for _ in range(80):
        modulus = rng.choice([0, 2, 4, 6, 9])
        coeff = CoeffRing(modulus)
        dim = rng.randint(1, 4)
        rows = _random_rows(rng, rng.randint(1, 4), dim)
        s = hnf(rows, coeff, dim=dim)
        assert sub_equal(hnf(list(s.basis), coeff, dim=dim), s)
        for r in rows:
            assert sub_member(s, r)
        # random combinations stay inside
        for _ in range(5):
            combo = [0] * dim
            for r in rows:
                c = rng.randint(-3, 3)
                combo = [a + c * b for a, b in zip(combo, r)]
            assert sub_member(s, combo)


def test_membership_exhaustive_mod_n():
    rng = random.Random(99)
    for _ in range(40):
        n = rng.choice([2, 3, 4, 6, 8])
        dim = rng.randint(1, 3)
        gens = _random_rows(rng, rng.randint(1, 3), dim, bound=n)
        s = hnf(gens, CoeffRing(n), dim=dim)
        group = _close_under_addition(gens, n, dim)
        for v in product(range(n), repeat=dim):
            assert sub_member(s, v) == (v in group), (n, gens, v)


# -------------------------------------------------------------------- solve

def test_solve_frozen_examples():
    res = solve(Matrix([[2, 3]], ZZ), (1,))
    assert res is not None
    x, k = res
    assert 2 * x[0] + 3 * x[1] == 1
    assert sub_equal(k, hnf([(3, -2)], ZZ))

    assert solve(Matrix([[2]], CoeffRing(4)), (1,)) is None

    m = Matrix.identity(3, ZZ)
    x, k = solve(m, (4, -1, 7))
    assert x == (4, -1, 7) and k.is_zero()


def test_solve_mod_n_hits_lifted_solutions():
    # 2x = 2 mod 4 has solutions x in {1, 3}
    x, k = solve(Matrix([[2]], CoeffRing(4)), (2,))
    assert (2 * x[0]) % 4 == 2
    assert sub_equal(k, hnf([(2,)], CoeffRing(4)))


def test_solve_random_soundness_and_completeness():
    rng = random.Random(123)
    for _ in range(60):
        modulus = rng.choice([0, 2, 3, 4, 6, 9])
        coeff = CoeffRing(modulus)
        q, p = rng.randint(1, 3), rng.randint(1, 3)
        m = Matrix(_random_rows(rng, q, p, bound=6), coeff, cols=p)
        # build a solvable system from a known x
        x0 = [rng.randint(-5, 5) for _ in range(p)]
        b = m.apply(x0)
        res = solve(m, b)
        assert res is not None
        x, k = res
        assert m.apply(x) == b
        for row in k.basis:
            assert m.apply(row) == tuple([0] * q)
        assert sub_member(k, [a - b2 for a, b2 in zip(coeff.reduce_vec(x0), x)])
        # random rhs: None must mean genuinely unsolvable (check mod small n)
        if modulus:
            b2 = tuple(rng.randrange(modulus) for _ in range(q))
            res2 = solve(m, b2)
            brute = any(m.apply(v) == b2 for v in product(range(modulus), repeat=p))
            assert (res2 is not None) == brute


# ------------------------------------------- full column rank over ZZ

P61 = 2 ** 61 - 1


def _refuse_hermite(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("Hermite form of a full-rank integer system")
    monkeypatch.setattr(linalg, "_hnf_rows", refuse)


def test_full_rank_integer_systems_skip_the_hermite_form(monkeypatch):
    rng = random.Random(61)
    wide = [[rng.randint(-2 ** 361, 2 ** 361) for _ in range(3)] for _ in range(5)]
    x0 = (7, -2 ** 200, 0)
    _refuse_hermite(monkeypatch)
    for ents in (wide[:3], wide):
        m = Matrix(ents, ZZ)
        assert kernel(m).is_zero()
        assert solve(m, m.apply(x0)) == (x0, Submodule.zero(3, ZZ))


def test_fraction_free_elimination_of_square_systems():
    # a zero leading pivot takes a row swap; 1/2 is no integer
    assert linalg._solve_square([[0, 1], [1, 0]], [2, 3]) == (3, 2)
    assert linalg._solve_square([[0, 2, 1], [3, 0, 0], [1, 1, 0]], [5, 6, 3]) == (2, 1, 3)
    assert linalg._solve_square([[2]], [1]) is None
    assert linalg._solve_square([[2, 1], [4, 3]], [0, 1]) is None
    assert linalg._solve_square([], []) == ()


def test_full_rank_integer_systems_without_an_integral_solution(monkeypatch):
    _refuse_hermite(monkeypatch)
    # the unique solution x = 1/2 is not integral
    assert solve(Matrix([[2]], ZZ), (1,)) is None
    assert solve(Matrix([[2, 1], [4, 3]], ZZ), (0, 1)) is None     # x = (-1/2, 1)
    # tall and of full rank, but the last row contradicts the others
    assert solve(Matrix([[1], [1]], ZZ), (1, 2)) is None
    assert solve(Matrix([[1, 0], [0, 1], [1, 1]], ZZ), (1, 1, 3)) is None


def test_singular_mod_p_falls_back_to_the_hermite_form(monkeypatch):
    # of full rank over Q, but every maximal minor is a multiple of 2^61 - 1
    calls = []

    def counting(*args):
        calls.append(args)
        return _hnf_rows(*args)

    monkeypatch.setattr(linalg, "_hnf_rows", counting)
    for ents in ([[P61]], [[P61], [2 * P61]]):
        m = Matrix(ents, ZZ)
        assert linalg._full_rank_rows(m) is None
        assert kernel(m).is_zero()
        assert solve(m, m.apply((3,))) == ((3,), Submodule.zero(1, ZZ))
        assert solve(m, (1,) * m.rows) is None
    assert len(calls) == 6           # one kernel and two solves each


# ------------------------------------------------------------------- kernel

def test_kernel_frozen_examples():
    k = kernel(Matrix([[2]], CoeffRing(4)))
    assert k.basis == ((2,),)
    k = kernel(Matrix.identity(2, ZZ))
    assert k.is_zero()
    k = kernel(Matrix.zeros(1, 2, ZZ))
    assert k.basis == ((1, 0), (0, 1))


def test_kernel_exhaustive_mod_n():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.choice([2, 3, 4, 6, 8, 9])
        q, p = rng.randint(1, 3), rng.randint(1, 3)
        m = Matrix(_random_rows(rng, q, p, bound=n), CoeffRing(n), cols=p)
        k = kernel(m)
        truth = {v for v in product(range(n), repeat=p)
                 if m.apply(v) == tuple([0] * q)}
        got = _close_under_addition([list(r) for r in k.basis] or [[0] * p], n, p)
        assert got == truth


def test_kernel_over_zz_soundness():
    rng = random.Random(17)
    for _ in range(40):
        q, p = rng.randint(1, 3), rng.randint(1, 4)
        m = Matrix(_random_rows(rng, q, p, bound=7), ZZ, cols=p)
        k = kernel(m)
        for row in k.basis:
            assert m.apply(row) == tuple([0] * q)
        # kernel rank + row-space rank = p over ZZ
        assert k.rank + hnf(m.entries, ZZ, dim=p).rank == p


def test_image_is_column_span():
    # the image of m is the Hermite basis of its columns (2, 0) and (1, 1)
    m = Matrix([[2, 1], [0, 1]], ZZ)
    img = hnf([m.column(j) for j in range(m.cols)], ZZ, dim=m.rows)
    assert img.basis == ((1, 1), (0, 2))
    assert all(sub_member(img, m.apply(v)) for v in product(range(-2, 3), repeat=2))
    assert not sub_member(img, (1, 0))


# ------------------------------------------------------------ subgroup ops

def test_intersect_frozen_example():
    a = hnf([(2, 0), (0, 1)], ZZ)
    b = hnf([(1, 1)], ZZ)
    got = sub_intersect(a, b)
    assert got.basis == ((2, 2),)


def test_intersect_exhaustive_mod_n():
    rng = random.Random(31)
    for _ in range(30):
        n = rng.choice([2, 3, 4, 6])
        dim = rng.randint(1, 3)
        coeff = CoeffRing(n)
        ga = _random_rows(rng, rng.randint(0, 2), dim, bound=n)
        gb = _random_rows(rng, rng.randint(0, 2), dim, bound=n)
        a, b = hnf(ga, coeff, dim=dim), hnf(gb, coeff, dim=dim)
        got = sub_intersect(a, b)
        truth = (_close_under_addition(ga, n, dim) if ga else {tuple([0] * dim)}) & \
                (_close_under_addition(gb, n, dim) if gb else {tuple([0] * dim)})
        want = hnf(sorted(truth), coeff, dim=dim)
        assert sub_equal(got, want)
        assert sub_contains(a, got) and sub_contains(b, got)


def test_intersect_over_zz_properties():
    rng = random.Random(41)
    for _ in range(30):
        dim = rng.randint(1, 3)
        a = hnf(_random_rows(rng, rng.randint(1, 3), dim), ZZ, dim=dim)
        b = hnf(_random_rows(rng, rng.randint(1, 3), dim), ZZ, dim=dim)
        c = sub_intersect(a, b)
        assert sub_contains(a, c) and sub_contains(b, c)
        # anything in both bases' sums lands in the intersection
        s = sub_intersect(b, a)
        assert sub_equal(c, s)


def test_sub_add_and_contains():
    a = hnf([(2, 0)], ZZ)
    b = hnf([(0, 3)], ZZ)
    c = hnf(a.basis + b.basis, ZZ, dim=2)   # the sum a + b
    assert sub_contains(c, a) and sub_contains(c, b)
    assert sub_member(c, (2, 3))
    assert not sub_member(c, (1, 0))


def test_sub_ops_reject_mixed_ambients():
    a = hnf([(1,)], ZZ)
    b = hnf([(1, 0)], ZZ)
    with pytest.raises(ValueError):
        sub_equal(a, b)
    with pytest.raises(ValueError):
        sub_contains(a, hnf([(1,)], CoeffRing(2)))


# ------------------------------------------------------------------ helpers

def test_matrix_inverse_frozen_examples():
    inv = matrix_inverse(Matrix([[1, 1], [0, 1]], ZZ))
    assert inv.entries == ((1, -1), (0, 1))
    assert matrix_inverse(Matrix([[2]], ZZ)) is None
    m3 = Matrix([[3]], CoeffRing(4))
    assert matrix_inverse(m3).entries == ((3,),)
    assert matrix_inverse(Matrix([[2, 1], [1, 2]], CoeffRing(3))) is None
    assert matrix_inverse(Matrix([[1, 0]], ZZ)) is None


def test_matrix_immutable_and_ops():
    m = Matrix([[1, 2], [3, 4]], ZZ)
    with pytest.raises(AttributeError):
        m.rows = 5
    assert m.apply((1, 1)) == (3, 7)
    assert m.mul(Matrix.identity(2, ZZ)) == m
    assert m.add(m).sub(m) == m
    assert Matrix([[5]], CoeffRing(3)).entries == ((2,),)
