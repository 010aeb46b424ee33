"""Quotient ring structure: reduction, trace map, centralizers, commutators."""

import random
from itertools import product

import pytest

import skewsep
from skewsep.linalg import Matrix, hnf, kernel, sub_contains, sub_equal, sub_member
from skewsep.quotient import QuotientRing, ScopeError, build_quotient
from skewsep.rings import RingMap, left_mul_matrix, right_mul_matrix
from skewsep.skew import SkewPolyRing
from corpus import (
    golden_ring, group_algebra_c2, invariant_survivors, lemma_corpus, product_mul_matrices,
    product_ring, reference_product, reference_trace_matrix, swap_derivation, swap_map,
    sweep_rings, upper_triangular2, ut2_inner_derivation, wide_c2_quotient, zmod_ring,
    zz_ring,
)


def triangular_ring():
    base = upper_triangular2(0)
    return SkewPolyRing(base, RingMap.identity(base), ut2_inner_derivation(base))


def triangular_quotient():
    r = triangular_ring()
    a = r.base.element((3, 0, 1))
    return build_quotient(r, r.poly([a, a, r.base.one()]))


def classical_ring(n):
    base = zmod_ring(n)
    return SkewPolyRing(base, RingMap.identity(base), RingMap.zero(base))


def classical_quotient(n, coeffs):
    r = classical_ring(n)
    return build_quotient(r, r.poly([[c] for c in coeffs] + [[1]]))


def swap_ring():
    base = product_ring(2)
    return SkewPolyRing(base, swap_map(base), swap_derivation(base))


# ------------------------------------------------------------ construction

def test_build_rejects_bad_polynomials():
    r = triangular_ring()
    with pytest.raises(ValueError):
        build_quotient(r, r.poly([r.base.one(), r.base.element((2, 0, 2))]))
    with pytest.raises(ValueError):
        build_quotient(r, r.one())


def test_build_rejects_moved_coefficients():
    r = swap_ring()
    f = r.poly([(1, 0)]) + r.x()
    with pytest.raises(ScopeError, match="fixed-coefficient scope"):
        build_quotient(r, f)


def test_build_rejects_non_invariant_with_certificate():
    r = triangular_ring()
    f = r.poly([r.base.zero(), r.base.basis_element(1), r.base.one()])
    with pytest.raises(ScopeError, match="two-sided ideal") as exc:
        build_quotient(r, f)
    assert exc.value.certificate is not None
    assert exc.value.certificate.condition == "coefficient-recurrence"


def test_build_accepts_twisted_instance():
    r = swap_ring()
    a = build_quotient(r, r.poly([(1, 1)]) + r.x())
    assert a.m == 1 and a.dim == 2
    b = build_quotient(r, r.poly([(1, 1), (0, 0)]) + r.monomial(r.base.one(), 2))
    assert b.m == 2 and b.dim == 4


# -------------------------------------------------------------- reduction

def test_power_rule_triangular():
    q = triangular_quotient()
    a = q.base.element((3, 0, 1))
    assert q.x_power(2) == q.element([-a, -a])
    # x^2 + x a + a = 0 in A
    x = q.x_elem()
    assert (x * x + x * q.embed(a) + q.embed(a)).is_zero()


def test_degree_one_quotient_collapses_to_constant():
    q = classical_quotient(7, [4])   # f = X + 4, so x = -4 = 3
    assert q.x_elem() == q.embed(q.base.element([3]))


def test_field_extension_multiplication():
    q = classical_quotient(2, [1, 1])   # X^2 + X + 1
    x = q.x_elem()
    assert x * x == q.element([[1], [1]])
    sq = build_quotient(classical_ring(2), classical_ring(2).poly([[1], [0], [1]]))
    y = sq.x_elem() + sq.one()          # (x + 1)^2 = 0 for f = (X+1)^2
    assert (y * y).is_zero()


def test_flat_round_trip_and_parent_checks():
    q = triangular_quotient()
    rng = random.Random(4)
    for _ in range(10):
        v = [rng.randint(-9, 9) for _ in range(q.dim)]
        u = q.from_flat(v)
        assert list(u.flat()) == v
    other = classical_quotient(2, [1, 1])
    with pytest.raises(ValueError):
        q.zero() + other.zero()
    with pytest.raises(ValueError):
        q.trace(other.zero())


def corpus_quotients():
    return [build_quotient(ring, f) for _, ring, f in lemma_corpus()] + [wide_c2_quotient()]


def test_quotient_mul_associative():
    rng = random.Random(42)
    for q in [triangular_quotient(), classical_quotient(4, [2, 1]),
              build_quotient(swap_ring(), swap_ring().poly([(1, 1), (0, 0)])
                             + swap_ring().monomial(swap_ring().base.one(), 2)),
              *corpus_quotients()]:
        for _ in range(12):
            u = q.from_flat([rng.randint(-3, 3) for _ in range(q.dim)])
            v = q.from_flat([rng.randint(-3, 3) for _ in range(q.dim)])
            w = q.from_flat([rng.randint(-3, 3) for _ in range(q.dim)])
            assert (u * v) * w == u * (v * w)
            assert u * (v + w) == u * v + u * w
        assert q.one() * q.x_elem() == q.x_elem()


def test_mul_matrices_match_products():
    rng = random.Random(8)
    for q in [triangular_quotient(), *corpus_quotients()]:
        for _ in range(10):
            a = q.from_flat([rng.randint(-4, 4) for _ in range(q.dim)])
            u = q.from_flat([rng.randint(-4, 4) for _ in range(q.dim)])
            elem = q.algebra.element(a.flat())
            assert left_mul_matrix(q.algebra, elem).apply(u.flat()) == (a * u).flat()
            assert right_mul_matrix(q.algebra, elem).apply(u.flat()) == (u * a).flat()


def test_built_quotient_needs_no_polynomial_arithmetic(monkeypatch):
    # once built, a quotient multiplies by its table: no skew polynomial
    # product and no division, including the first product that builds it,
    # and none in a whole verdict, the oracle or a derivation from its value
    quotients = [triangular_quotient(), classical_quotient(3, [1, 2, 0]),
                 build_quotient(swap_ring(), swap_ring().poly([(1, 1), (0, 0)])
                                + swap_ring().monomial(swap_ring().base.one(), 2))]

    def forbidden(*args, **kwargs):
        raise AssertionError("polynomial arithmetic on a built quotient")

    monkeypatch.setattr(skewsep.skew.SkewPoly, "__mul__", forbidden)
    for mod in (skewsep.skew, skewsep.quotient):
        monkeypatch.setattr(mod, "divmod_monic", forbidden)
    for q in quotients:
        basis = q.basis_elements()
        for u in basis:
            for v in basis:
                u * v
        q.trace_matrix()
        q.center()
        q.twisted_centralizer(1)
        verdict = skewsep.is_weakly_separable(q)
        skewsep.derivation_module(q)
        for row in verdict.trace_kernel_in_twist1.basis:
            skewsep.derivation_from_value(q, q.from_flat(row))


def test_table_and_trace_matrix_need_no_base_products(monkeypatch):
    # the structure table and T = sum_j R(x^j) L(t_j) are read off B's
    # table: no product in B (and so none in A) builds either, and T
    # equals the column-by-column product build
    quotients = [triangular_quotient(), classical_quotient(3, [1, 2, 0]),
                 build_quotient(swap_ring(), swap_ring().poly([(1, 1), (0, 0)])
                                + swap_ring().monomial(swap_ring().base.one(), 2)),
                 *corpus_quotients()]
    # fresh copies, so the patched calls build their tables from scratch
    cases = [(QuotientRing(q.ring, q.f), reference_trace_matrix(q)) for q in quotients]

    def forbidden(*args, **kwargs):
        raise AssertionError("a base-ring product where the table should be read")

    monkeypatch.setattr(skewsep.rings.BaseRing, "mul_coords", forbidden)
    for q, want in cases:
        assert q.algebra.rank == q.dim
        assert q.trace_matrix() == want


def test_table_past_the_lemma_corpus_degrees():
    # the x^e e_w rows fold X^m back for e up to 2m - 2; the lemma corpus
    # stops at degree 3, so check degree 5 (twisted and untwisted) and a
    # degree-4 quotient over the integers, where no modulus reduces the rows
    rings = dict(sweep_rings())
    quotients = [build_quotient(rings[label], next(invariant_survivors(rings[label], 5)))
                 for label in ("prod22-swap", "ut2-mod3")]
    ring = golden_ring()
    a = ring.base.element((3, 0, 1))
    g = ring.poly([a, a, ring.base.one()])
    quotients.append(build_quotient(ring, g * g))
    for q in quotients:
        basis = q.basis_elements()
        for u in basis:
            for v in basis:
                assert u * v == reference_product(q, u, v)


def test_mul_matrices_read_off_the_table(monkeypatch):
    # L(a), R(b), commutants and inner derivations come from the structure
    # table alone, and agree with the column-by-column products
    rng = random.Random(12)

    def several_nonzero(ring):
        while True:
            v = ring.coeff.reduce_vec([rng.randint(-4, 4) for _ in range(ring.rank)])
            if sum(1 for e in v if e) >= min(2, ring.rank):
                return v

    quotients = corpus_quotients()
    rings = [zz_ring(), zmod_ring(6), group_algebra_c2(0), upper_triangular2(3),
             product_ring(2), *(q.algebra for q in quotients)]
    cases = []
    for ring in rings:
        pairs = [(several_nonzero(ring), several_nonzero(ring)) for _ in range(3)]
        refs = [product_mul_matrices(ring, a, b) for a, b in pairs]
        stacked = [row for left, right in refs for row in left.sub(right).entries]
        cases.append((ring, pairs, refs, kernel(Matrix(stacked, ring.coeff, cols=ring.rank))))
    inner = []
    for q in quotients:
        v = several_nonzero(q.algebra)
        left, right = product_mul_matrices(q.algebra, v, v)
        inner.append((q, q.from_flat(v), left.sub(right)))

    def forbidden(*args, **kwargs):
        raise AssertionError("a product where the table should be read")

    monkeypatch.setattr(skewsep.rings.BaseRing, "mul_coords", forbidden)
    for ring, pairs, refs, comm in cases:
        for (a, b), (left, right) in zip(pairs, refs):
            assert left_mul_matrix(ring, ring.element(a)) == left
            assert right_mul_matrix(ring, ring.element(b)) == right
        assert skewsep.commutant(ring, pairs) == comm
    for q, v, ad in inner:
        assert skewsep.inner_derivation_matrix(q, v) == ad


def test_coefficients_commute_with_x():
    # fixed coefficients of an invariant polynomial are killed by D,
    # so they commute with x in the quotient
    for q in [triangular_quotient(), classical_quotient(6, [3, 2, 1]),
              build_quotient(swap_ring(), swap_ring().poly([(1, 1)]) + swap_ring().x())]:
        x = q.x_power(1)
        for c in q.f.coeffs:
            assert q.embed(c) * x == x * q.embed(c)


# -------------------------------------------------------------- trace map

def test_trace_triangular_values():
    q = triangular_quotient()
    v10 = q.element([(1, 0, 0), (1, 0, 1)])    # x * 1 + diag(1, 0)
    v01 = q.element([(1, 0, 1), (0, 0, 0)])    # diag(1, 1)
    assert q.trace(v10) == q.element([(-3, 0, -2), (-1, 0, -1)])
    assert q.trace(v01) == q.element([(3, 0, 1), (2, 0, 2)])


def test_trace_is_identity_on_separable_field_case():
    q = classical_quotient(2, [1, 1])
    for flat in product(range(2), repeat=2):
        u = q.from_flat(flat)
        assert q.trace(u) == u


def test_trace_vanishes_for_squared_linear_factor():
    q = classical_quotient(2, [1, 0])   # (X+1)^2 = X^2 + 1 mod 2
    for flat in product(range(2), repeat=2):
        assert q.trace(q.from_flat(flat)).is_zero()


def test_trace_matrix_matches_trace():
    rng = random.Random(15)
    for q in [triangular_quotient(), classical_quotient(9, [3, 1, 1])]:
        t = q.trace_matrix()
        for _ in range(10):
            u = q.from_flat([rng.randint(-5, 5) for _ in range(q.dim)])
            assert t.apply(u.flat()) == q.trace(u).flat()


def test_trace_kernel_frozen():
    q = classical_quotient(2, [1, 0])
    assert q.trace_kernel().rank == 2       # everything
    q2 = classical_quotient(2, [1, 1])
    assert q2.trace_kernel().is_zero()      # trace is the identity


# ------------------------------------------------- tails inside the quotient

def test_tail_recurrences_in_quotient():
    rng = random.Random(90)
    for q in [triangular_quotient(), classical_quotient(6, [5, 4, 3]),
              classical_quotient(4, [2, 0, 1, 1])]:
        x = q.x_power(1)
        tails = q.tails
        m = q.m
        assert tails[m - 1] == q.one()
        for j in range(1, m):
            assert x * tails[j] == tails[j - 1] - q.embed(q.f.coefficient(j))
        assert x * tails[0] == -q.embed(q.f.coefficient(0))
        # trace of 1: sum_j t_j x^j
        want = q.zero()
        for j in range(m):
            want = want + tails[j] * q.x_power(j)
        assert q.trace(q.one()) == want


# ----------------------------------------------------- structural subgroups

def test_twisted_centralizer_triangular():
    q = triangular_quotient()
    v = q.base_centralizer()
    want = hnf([(1, 0, 0, 1, 0, 1), (1, 0, 1, 0, 0, 0)], q.coeff, dim=6)
    assert sub_equal(v, want)
    # identity twist: every twisted centralizer is the plain one
    for k in (-2, -1, 1, 2):
        assert sub_equal(q.twisted_centralizer(k), v)


def test_twisted_centralizers_share_one_kernel(monkeypatch):
    q = triangular_quotient()
    real = skewsep.linalg.kernel
    calls = []
    for mod in (skewsep.rings, skewsep.linalg):
        monkeypatch.setattr(mod, "kernel", lambda mat: calls.append(mat) or real(mat))
    # identity twist: exponents 1, 0 and 1 - m name the same map
    first = q.twisted_centralizer(1)
    assert q.base_centralizer() is first
    assert q.twisted_centralizer(1 - q.m) is first
    assert len(calls) == 1
    # the center is one kernel too, with nothing intersected afterwards
    calls.clear()
    q.center()
    assert len(calls) == 1


def test_twisted_centralizer_swap_alternates():
    r = swap_ring()
    q = build_quotient(r, r.poly([(1, 1), (0, 0)]) + r.monomial(r.base.one(), 2))
    a0 = q.twisted_centralizer(0)
    a1 = q.twisted_centralizer(1)
    assert sub_equal(q.twisted_centralizer(2), a0)
    assert sub_equal(q.twisted_centralizer(-1), a1)
    assert not sub_equal(a0, a1)
    # members really satisfy alpha u = u rho^k(alpha)
    for k, sub in [(0, a0), (1, a1)]:
        rho_k = r.rho_power(k)
        for row in sub.basis:
            u = q.from_flat(row)
            for alpha in r.base.basis():
                assert q.embed(alpha) * u == u * q.embed(rho_k.apply(alpha))


def test_center_triangular_equals_base_centralizer():
    q = triangular_quotient()
    assert sub_equal(q.center(), q.base_centralizer())


def test_center_field_extension_is_everything():
    q = classical_quotient(2, [1, 1])
    assert q.center().rank == 2
    assert sub_member(q.center(), q.x_elem().flat())


def test_center_members_commute():
    r = swap_ring()
    q = build_quotient(r, r.poly([(1, 1), (0, 0)]) + r.monomial(r.base.one(), 2))
    c = q.center()
    basis = q.basis_elements()
    for row in c.basis:
        u = q.from_flat(row)
        for z in basis:
            assert u * z == z * u


# -------------------------------------------------------------- commutator

def test_x_commutator_is_derivation_on_scalars():
    q = triangular_quotient()
    rng = random.Random(33)
    d = q.ring.deriv
    for _ in range(10):
        alpha = q.base.element([rng.randint(-5, 5) for _ in range(3)])
        # alpha x - x alpha = D(alpha) when the twist is trivial
        assert q.x_commutator(q.embed(alpha)) == q.embed(d.apply(alpha))
    assert q.x_commutator(q.x_elem()).is_zero()


def test_x_commutator_matrix_and_image():
    q = triangular_quotient()
    assert q.x_commutator_image(q.base_centralizer()).is_zero()
    # image over a subgroup sits inside the image over the whole algebra
    everything = hnf([b.flat() for b in q.basis_elements()], q.coeff, dim=q.dim)
    full_img = q.x_commutator_image(everything)
    img = q.x_commutator_image(q.twisted_centralizer(0))
    assert sub_contains(full_img, img)
    # and the image over the whole algebra holds every commutator
    rng = random.Random(66)
    for _ in range(10):
        u = q.from_flat([rng.randint(-4, 4) for _ in range(q.dim)])
        assert sub_member(full_img, q.x_commutator(u).flat())
    assert not full_img.is_zero()


def test_x_commutator_image_zero_cases():
    q1 = classical_quotient(2, [1, 1])
    assert q1.x_commutator_image(q1.base_centralizer()).is_zero()
    q2 = classical_quotient(2, [1, 0])
    assert q2.x_commutator_image(q2.base_centralizer()).is_zero()
