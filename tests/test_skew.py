"""Skew polynomial arithmetic and the two-sided-ideal membership tests."""

import math
import random
from itertools import islice, product

import pytest

from skewsep.linalg import Matrix, sub_member
from skewsep.rings import BaseRing, RingMap
from skewsep.skew import (
    SkewPolyRing, coeffs_central_in_fixed_subring, divmod_monic, horner_tails,
    invariant_count, invariant_polynomials, is_invariant, is_invariant_direct,
    iter_invariant_polynomials,
)
from corpus import (
    golden_ring, invariant_survivors, product_ring, reference_is_invariant, sweep_rings,
    swap_derivation, swap_map, upper_triangular2, ut2_conjugation, ut2_inner_derivation,
    zmod_ring, zz_ring,
)


def triangular_ring():
    base = upper_triangular2(0)
    return SkewPolyRing(base, RingMap.identity(base), ut2_inner_derivation(base))


def classical_ring(n):
    base = zmod_ring(n)
    return SkewPolyRing(base, RingMap.identity(base), RingMap.zero(base))


def swap_ring(n=2):
    base = product_ring(n)
    return SkewPolyRing(base, swap_map(base), swap_derivation(base))


def conj_ring():
    base = upper_triangular2(0)
    return SkewPolyRing(base, ut2_conjugation(base), RingMap.zero(base))


ALL_RINGS = [triangular_ring, lambda: classical_ring(4), swap_ring, conj_ring,
             lambda: SkewPolyRing(upper_triangular2(3),
                                  RingMap.identity(upper_triangular2(3)),
                                  ut2_inner_derivation(upper_triangular2(3)))]


def _random_poly(rng, ring, deg, bound=4):
    return ring.poly([[rng.randint(-bound, bound) for _ in range(ring.base.rank)]
                      for _ in range(deg + 1)])


# ------------------------------------------------------- commutation maps

def test_commutation_map_closed_forms():
    r = triangular_ring()
    assert r.commutation_map(0, 0).is_identity()
    d = r.deriv
    assert r.commutation_map(3, 0) == d.compose(d).compose(d)
    rr = conj_ring()
    assert rr.commutation_map(2, 2) == rr.rho.compose(rr.rho)
    s = swap_ring()
    rd = s.rho.compose(s.deriv)
    dr = s.deriv.compose(s.rho)
    assert s.commutation_map(2, 1) == rd.add(dr)
    with pytest.raises(ValueError):
        r.commutation_map(1, 2)
    with pytest.raises(ValueError):
        r.commutation_map(2, -1)


def test_commute_scalar_degree_one():
    for mk in ALL_RINGS:
        r = mk()
        for alpha in r.base.basis():
            got = r.commute_scalar(alpha, 1)
            assert got.coeffs == (r.deriv.apply(alpha), r.rho.apply(alpha)) or \
                got == r.x().scale_right(r.rho.apply(alpha)) + r.const(r.deriv.apply(alpha))


def test_commute_scalar_frozen_triangular_value():
    r = triangular_ring()
    e12 = r.base.basis_element(1)
    got = r.commute_scalar(e12, 2)
    # e12 X^2 = X^2 e12 + 2 X e12 + e12
    assert got == r.poly([e12, e12.scale(2), e12])


def test_commute_scalar_matches_repeated_multiplication():
    rng = random.Random(101)
    xs = {}
    for mk in ALL_RINGS:
        r = mk()
        x = r.x()
        for i in range(7):
            alpha = r.base.element([rng.randint(-3, 3) for _ in range(r.base.rank)])
            lhs = r.commute_scalar(alpha, i)
            rhs = r.const(alpha)
            for _ in range(i):
                rhs = rhs * x
            assert lhs == rhs, (mk, i)


def test_mul_associative_and_distributive():
    rng = random.Random(55)
    for mk in ALL_RINGS:
        r = mk()
        for _ in range(8):
            f = _random_poly(rng, r, rng.randint(0, 2))
            g = _random_poly(rng, r, rng.randint(0, 2))
            h = _random_poly(rng, r, rng.randint(0, 2))
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h
            assert (f + g) * h == f * h + g * h


def test_one_and_zero():
    r = triangular_ring()
    f = _random_poly(random.Random(1), r, 3)
    assert r.one() * f == f and f * r.one() == f
    assert (f * r.zero()).is_zero()
    assert f.degree() == 3 and r.zero().degree() == -1


# ------------------------------------------------------------------ divmod

def triangular_f(r):
    a = r.base.element((3, 0, 1))
    return r.poly([a, a, r.base.one()])


def test_divmod_frozen_example():
    r = triangular_ring()
    f = triangular_f(r)
    q, rem = divmod_monic(r.x() * f, f)
    assert q == r.x() and rem.is_zero()


def test_divmod_reconstructs():
    rng = random.Random(77)
    for mk in ALL_RINGS:
        r = mk()
        for _ in range(10):
            m = rng.randint(1, 3)
            f = _random_poly(rng, r, m - 1)
            f = f + r.monomial(r.base.one(), m)    # monic degree m
            g = _random_poly(rng, r, rng.randint(0, 5))
            q, rem = divmod_monic(g, f)
            assert rem.degree() < m
            assert f * q + rem == g


def test_divmod_requires_monic():
    r = classical_ring(4)
    with pytest.raises(ValueError):
        divmod_monic(r.one(), r.poly([[0], [2]]))


# ------------------------------------------------------------- invariance

def test_invariant_frozen_examples():
    r = triangular_ring()
    ok, cert = is_invariant(triangular_f(r))
    assert ok and cert is None

    e12 = r.base.basis_element(1)
    bad = r.poly([r.base.zero(), e12, r.base.one()])
    ok, cert = is_invariant(bad)
    assert not ok
    assert cert.condition == "coefficient-recurrence" and cert.index == 1
    assert "a_1" in cert.describe(r.base)


def test_invariant_classical_always():
    r = classical_ring(5)
    for coeffs in product(range(5), repeat=2):
        f = r.poly([[c] for c in coeffs] + [[1]])
        ok, _ = is_invariant(f)
        assert ok and is_invariant_direct(f)


def test_invariant_scalar_commutation_failure():
    # conjugation twist, no derivation: e12 is fixed by the twist, so
    # X + e12 passes the coefficient recurrence and dies on scalars
    r = conj_ring()
    f = r.poly([r.base.basis_element(1), r.base.one()])
    ok, cert = is_invariant(f)
    assert not ok
    assert cert.condition == "scalar-commutation"
    assert cert.basis_index is not None


def test_invariant_swap_degree_one():
    # f = X + (1,1) is invariant for the swap twist, X + (1,0) is not
    r = swap_ring()
    f = r.poly([(1, 1)]) + r.x()
    ok, _ = is_invariant(f)
    assert ok and is_invariant_direct(f)
    bad = r.poly([(1, 0)]) + r.x()
    ok, _ = is_invariant(bad)
    assert not ok and not is_invariant_direct(bad)


def test_invariant_criteria_agree_with_direct_products():
    rng = random.Random(919)
    for mk in ALL_RINGS:
        r = mk()
        for _ in range(40):
            m = rng.randint(1, 3)
            f = _random_poly(rng, r, m - 1) + r.monomial(r.base.one(), m)
            ok, _ = is_invariant(f)
            assert ok == is_invariant_direct(f), (mk, f)


def test_invariant_requires_monic():
    r = classical_ring(4)
    with pytest.raises(ValueError):
        is_invariant(r.poly([[1], [2]]))
    with pytest.raises(ValueError):
        is_invariant_direct(r.poly([[1], [2]]))


def test_coeffs_central_in_fixed_subring():
    r = triangular_ring()
    assert coeffs_central_in_fixed_subring(triangular_f(r))
    c = classical_ring(3)
    assert coeffs_central_in_fixed_subring(c.poly([[2], [1], [1]]))
    non_invariant = r.poly([r.base.zero(), r.base.basis_element(1), r.base.one()])
    with pytest.raises(ValueError):
        coeffs_central_in_fixed_subring(non_invariant)


def test_coeffs_central_holds_for_every_invariant_survivor():
    # theorem-shaped property: fixed-coefficient invariant => central coefficients
    r = swap_ring()
    fixed = [(a, b) for a, b in product(range(2), repeat=2)]
    hits = 0
    for c0 in fixed:
        for c1 in fixed:
            f = r.poly([c0, c1]) + r.monomial(r.base.one(), 2)
            if any(r.rho.apply(e) != e for e in f.coeffs):
                continue
            ok, _ = is_invariant(f)
            if ok:
                hits += 1
                assert coeffs_central_in_fixed_subring(f)
    assert hits > 0


# ------------------------------------------- solved invariant polynomials

def _all_elements(base):
    n = base.coeff.modulus
    return [base.element(c) for c in product(range(n), repeat=base.rank)]


def brute_force_survivors(ring, m):
    """The oracle: every tuple of twist-fixed coefficients, in
    lexicographic order, filtered by the product-built reference test, so
    it shares no equations with invariant_polynomials."""
    fixed = [e for e in _all_elements(ring.base) if ring.rho.apply(e) == e]
    one = ring.base.one()
    for tail in product(fixed, repeat=m):
        f = ring.poly(list(tail) + [one])
        if reference_is_invariant(f)[0]:
            yield f


def _scaled_inner_ring(n, c):
    base = upper_triangular2(n)
    return SkewPolyRing(base, RingMap.identity(base),
                        RingMap(base, ut2_inner_derivation(base).matrix.scale(c)))


def _conj_inner_ring(n):
    """Conjugation twist with the twisted inner derivation
    D(x) = e22 * rho(x) - x * e22."""
    base = upper_triangular2(n)
    rho = ut2_conjugation(base)
    t = base.basis_element(2)
    return SkewPolyRing(base, rho, RingMap.from_images(
        base, [t * rho.apply(e) - e * t for e in base.basis()]))


# (label, ring, degrees): the census rings at degrees 1-3, and at 4 where
# brute force stays small, plus a ring mod 4 whose cosets have Hermite
# pivots 2 with entries above them, so the order of each row's multiples
# is not the sorted order of the coset, and a ring whose scalar
# commutation identity alone admits coefficients the twist moves
SOLVED_CASES = [(label, ring, [m for m in range(1, 5) if m <= 3 or
                               ring.base.coeff.modulus ** (ring.base.rank * m) <= 70_000])
                for label, ring in sweep_rings()]
SOLVED_CASES += [("ut2-mod4-2ad", _scaled_inner_ring(4, 2), [1, 2]),
                 ("ut2-mod2-conj", _conj_inner_ring(2), [1, 2, 3])]


@pytest.mark.parametrize("label, ring, degrees", SOLVED_CASES,
                         ids=[case[0] for case in SOLVED_CASES])
def test_solved_invariant_polynomials_match_brute_force(label, ring, degrees):
    n = ring.base.coeff.modulus
    for m in degrees:
        solution = invariant_polynomials(ring, m)
        got = list(iter_invariant_polynomials(ring, solution))
        want = list(brute_force_survivors(ring, m))
        assert got == want, (label, m)
        pivots = [next(e for e in row if e) for row in solution[1].basis] if solution else []
        assert invariant_count(solution) == (math.prod(n // p for p in pivots)
                                             if solution else 0) == len(want)
        for f in got:
            assert is_invariant(f)[0] and is_invariant_direct(f), (label, f)


# the sweep rings, the two extra solved rings, and a twisted ring of odd
# characteristic with invariant f whose coefficients the twist moves, so
# the sign of the shift term shows
REFERENCE_RINGS = (sweep_rings() + [(label, ring) for label, ring, _ in SOLVED_CASES[-2:]]
                   + [("ut2-mod3-conj", _conj_inner_ring(3))])


@pytest.mark.parametrize("label, ring", REFERENCE_RINGS,
                         ids=[label for label, _ in REFERENCE_RINGS])
def test_is_invariant_matches_reference(label, ring):
    # every monic f of degree <= 2, coefficients the twist moves included:
    # the same verdict and the same first failing condition
    elems = _all_elements(ring.base)
    one = ring.base.one()
    for m in range(3):
        for tail in product(elems, repeat=m):
            f = ring.poly(list(tail) + [one])
            assert is_invariant(f) == reference_is_invariant(f), (label, f)


def test_is_invariant_matches_reference_over_zz():
    # random integer f are almost all rejected, so add g(X + e11) for
    # integer g, which are invariant over the golden ring
    rng = random.Random(1414)
    ring = golden_ring()
    base = ring.base
    y = ring.x() + ring.const(base.basis_element(0))
    polys = []
    for _ in range(60):
        m = rng.randint(1, 4)
        polys.append(_random_poly(rng, ring, m - 1) + ring.monomial(base.one(), m))
        g = ring.one()
        for _ in range(m):
            g = g * (y + ring.const(base.one().scale(rng.randint(-9, 9))))
        polys.append(g)
    verdicts = set()
    for f in polys:
        got = is_invariant(f)
        assert got == reference_is_invariant(f), f
        verdicts.add(got[0])
    assert verdicts == {True, False}


def _invariance_cases():
    """(ring, polynomials) over the sweep rings, the golden ring and the
    conjugation ring: every monic f of degree 1 over the finite rings and
    the first invariant ones of degree 2, accepted and rejected f over
    the integer rings."""
    cases = []
    for _, ring in sweep_rings():
        one = ring.base.one()
        fs = [ring.poly([c, one]) for c in _all_elements(ring.base)]
        cases.append((ring, fs + list(islice(invariant_survivors(ring, 2), 3))))
    ring = golden_ring()
    e12 = ring.base.basis_element(1)
    cases.append((ring, [triangular_f(ring), ring.poly([ring.base.zero(), e12, ring.base.one()])]))
    ring = conj_ring()
    # X + u^-1 for the conjugating u = [[1, 1], [0, 1]] is invariant, X + e12 is not
    cases.append((ring, [ring.poly([(1, -1, 1), (1, 0, 1)]), ring.poly([(0, 1, 0), (1, 0, 1)])]))
    return cases


def test_invariance_needs_no_base_products(monkeypatch):
    # is_invariant and invariant_polynomials read their equations off the
    # structure table: rings built first, then every base product refused
    want = [([reference_is_invariant(f) for f in fs],
             [invariant_polynomials(ring, m) for m in (1, 2)])
            for ring, fs in _invariance_cases()]
    assert {ok for verdicts, _ in want for ok, _ in verdicts} == {True, False}
    cases = _invariance_cases()

    def forbidden(*args, **kwargs):
        raise AssertionError("a base-ring product where the table should be read")

    monkeypatch.setattr(BaseRing, "mul_coords", forbidden)
    for (ring, fs), (verdicts, solved) in zip(cases, want):
        assert [is_invariant(f) for f in fs] == verdicts
        assert [invariant_polynomials(ring, m) for m in (1, 2)] == solved


def test_invariant_polynomials_over_zz():
    # the triangular example's f lies in the solved coset; ZZ cosets are
    # infinite, so they are neither counted nor listed
    r = triangular_ring()
    x0, kern = invariant_polynomials(r, 2)
    f = triangular_f(r)
    flat = [e for c in f.coeffs[:-1] for e in c.coords]
    assert sub_member(kern, [a - b for a, b in zip(flat, x0)])
    with pytest.raises(ValueError):
        invariant_count((x0, kern))
    with pytest.raises(ValueError):
        next(iter_invariant_polynomials(r, (x0, kern)))
    with pytest.raises(ValueError):
        invariant_polynomials(r, 0)


# ------------------------------------------------------------ tails, seeds

def test_horner_tails_triangular_values():
    r = triangular_ring()
    f = triangular_f(r)
    tails = horner_tails(f)
    a = r.base.element((3, 0, 1))
    assert tails[1] == r.one()
    assert tails[0] == r.x() + r.const(a)
    # X T_1 = T_0 - a_1 and X T_0 = f - a_0
    assert r.x() * tails[1] == tails[0] - r.const(a)
    assert r.x() * tails[0] == f - r.const(a)


def test_horner_tails_recurrence_random():
    rng = random.Random(303)
    for mk in ALL_RINGS:
        r = mk()
        for _ in range(10):
            m = rng.randint(1, 4)
            f = _random_poly(rng, r, m - 1) + r.monomial(r.base.one(), m)
            tails = horner_tails(f)
            assert tails[m - 1] == r.one()
            for j in range(1, m):
                assert r.x() * tails[j] == tails[j - 1] - r.const(f.coefficient(j))
            assert r.x() * tails[0] == f - r.const(f.coefficient(0))


# -------------------------------------------------------------- validation

def test_skew_ring_validates_on_construction():
    base = product_ring(3)
    doubling = RingMap(base, Matrix([[2, 0], [0, 2]], base.coeff))
    with pytest.raises(ValueError, match="automorphism"):
        SkewPolyRing(base, doubling, RingMap.zero(base))
    with pytest.raises(ValueError, match="derivation"):
        SkewPolyRing(base, RingMap.identity(base), RingMap.identity(base))
    # mismatch between twist and derivation is caught too
    with pytest.raises(ValueError, match="derivation"):
        SkewPolyRing(base, RingMap.identity(base), swap_derivation(base))


def test_skew_ring_equality_and_poly_parents():
    r1 = classical_ring(4)
    r2 = classical_ring(4)
    assert r1 == r2
    r3 = classical_ring(5)
    with pytest.raises(ValueError):
        r1.one() + r3.one()


def test_poly_str():
    r = triangular_ring()
    f = triangular_f(r)
    s = str(f)
    assert "X^2" in s and "3*e11" in s
    assert str(r.zero()) == "0"
