"""Base ring layer: structure constants, maps, validation, subrings."""

import random

from skewsep import rings
from skewsep.linalg import Matrix, ZZ, hnf, matrix_inverse, sub_equal, sub_member
from skewsep.rings import (
    BaseRing, RingMap,
    centralizer, fixed_subring, mul_map_rows,
    validate_automorphism, validate_derivation, validate_ring,
)
from skewsep.skew import SkewPolyRing
from corpus import (
    group_algebra_c2, product_ring, swap_derivation, swap_map,
    upper_triangular2, ut2_conjugation, ut2_from_matrix,
    ut2_inner_derivation, ut2_matrix, zmod_ring, zz_ring,
)


def _mat_mul_2x2(x, y):
    return [[sum(x[i][k] * y[k][j] for k in range(2)) for j in range(2)]
            for i in range(2)]


def test_ut2_multiplication_against_matrix_oracle():
    ring = upper_triangular2(0)
    e11, e12, e22 = ring.basis()
    assert e11 * e12 == e12
    assert (e12 * e11).is_zero()
    rng = random.Random(2)
    for _ in range(50):
        a = ring.element([rng.randint(-9, 9) for _ in range(3)])
        b = ring.element([rng.randint(-9, 9) for _ in range(3)])
        want = ut2_from_matrix(ring, _mat_mul_2x2(ut2_matrix(a), ut2_matrix(b)))
        assert a * b == want


def test_product_ring_is_componentwise():
    ring = product_ring(6, 3)
    a = ring.element((1, 2, 3))
    b = ring.element((4, 5, 1))
    assert (a * b).coords == (4, 4, 3)
    assert ring.one() * a == a


def test_validate_ring_accepts_group_algebra():
    assert validate_ring(group_algebra_c2()) == []
    assert validate_ring(upper_triangular2(0)) == []
    assert validate_ring(zmod_ring(4)) == []


def test_validate_ring_names_broken_triple():
    # tamper with e12 * e22 so associativity breaks
    coeff = ZZ
    z = [0, 0, 0]
    struct = [
        [[1, 0, 0], [0, 1, 0], z],
        [z, z, [1, 1, 0]],
        [z, z, [0, 0, 1]],
    ]
    bad = BaseRing(coeff, struct, [1, 0, 1], names=("e11", "e12", "e22"))
    violations = validate_ring(bad)
    assert violations
    assert any("associativity" in v and "e12" in v for v in violations)


def test_validate_ring_catches_broken_unit():
    bad = BaseRing(ZZ, [[[1]]], [0])
    assert any("unit" in v for v in validate_ring(bad))


def test_validate_automorphism_identity_and_conjugation():
    ring = upper_triangular2(0)
    assert validate_automorphism(ring, RingMap.identity(ring)) == []
    conj = ut2_conjugation(ring)
    assert validate_automorphism(ring, conj) == []
    # oracle: conjugation by u computed with raw 2x2 matrices
    u = [[1, 1], [0, 1]]
    uinv = [[1, -1], [0, 1]]
    for e in ring.basis():
        want = ut2_from_matrix(ring, _mat_mul_2x2(_mat_mul_2x2(u, ut2_matrix(e)), uinv))
        assert conj.apply(e) == want


def test_validate_automorphism_swap():
    ring = product_ring(2)
    assert validate_automorphism(ring, swap_map(ring)) == []


def test_validate_automorphism_rejections():
    ring = product_ring(3)
    doubling = RingMap(ring, Matrix([[2, 0], [0, 2]], ring.coeff))
    violations = validate_automorphism(ring, doubling)
    assert any("multiplicativity" in v for v in violations)
    assert any("unit" in v for v in violations)
    # multiplicative and unital but not invertible over ZZ
    zz2 = BaseRing(ZZ, product_ring(2).structure, (1, 1))
    fold = RingMap(zz2, Matrix([[1, 0], [1, 0]], ZZ))
    violations = validate_automorphism(zz2, fold)
    assert violations == ["map matrix is not invertible over the coefficient ring"]


def test_validate_derivation_examples():
    ring = upper_triangular2(0)
    ident = RingMap.identity(ring)
    assert validate_derivation(ring, ut2_inner_derivation(ring), ident) == []
    assert validate_derivation(ring, RingMap.zero(ring), ident) == []
    bad = validate_derivation(ring, ident, ident)
    assert any("unit" in v for v in bad)


def test_validate_derivation_twisted():
    ring = product_ring(4)
    rho = swap_map(ring)
    assert validate_derivation(ring, swap_derivation(ring), rho) == []
    # the same map is not a derivation for rho = id
    viol = validate_derivation(ring, swap_derivation(ring), RingMap.identity(ring))
    assert any("Leibniz" in v for v in viol)


def test_derivation_basis_check_matches_random_pairs():
    # basis-pair validation must agree with the Leibniz rule on random elements
    rng = random.Random(11)
    ring = upper_triangular2(3)
    ident = RingMap.identity(ring)
    good = ut2_inner_derivation(ring)
    bad = RingMap(ring, Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 0]], ring.coeff))
    assert validate_derivation(ring, good, ident) == []
    assert validate_derivation(ring, bad, ident) != []

    def leibniz_holds_on(d, pairs):
        return all(
            d.apply(a * b) == d.apply(a) * b + a * d.apply(b)
            for a, b in pairs)

    pairs = [(ring.element([rng.randrange(3) for _ in range(3)]),
              ring.element([rng.randrange(3) for _ in range(3)]))
             for _ in range(100)]
    assert leibniz_holds_on(good, pairs)
    assert not leibniz_holds_on(bad, pairs)


def test_ring_map_power_and_inverse():
    ring = upper_triangular2(0)
    conj = ut2_conjugation(ring)
    inv = conj.inverse()
    assert conj.compose(inv).is_identity()
    e11 = ring.basis_element(0)
    assert inv.apply(e11) == ring.element((1, 1, 0))
    # powers of a twist are taken by the skew polynomial ring that holds it
    skew = SkewPolyRing(ring, conj, RingMap.zero(ring))
    assert skew.rho_power(-1) == inv
    assert skew.rho_power(0).is_identity()
    assert skew.rho_power(2) == conj.compose(conj)
    assert skew.rho_power(-2) == inv.compose(inv)


def test_rho_power_inverts_the_twist_once(monkeypatch):
    ring = upper_triangular2(0)
    conj = ut2_conjugation(ring)
    inv = conj.inverse()
    skew = SkewPolyRing(ring, conj, RingMap.zero(ring))
    calls = []

    def counted(mat):
        calls.append(mat)
        return matrix_inverse(mat)

    monkeypatch.setattr(rings, "matrix_inverse", counted)
    assert skew.rho_power(-3) == inv.compose(inv).compose(inv)
    assert len(calls) == 1


def test_fixed_subring_examples():
    ring = upper_triangular2(0)
    ident, zero = RingMap.identity(ring), RingMap.zero(ring)
    full = fixed_subring(ring, ident, zero)
    assert full.rank == 3
    diag = fixed_subring(ring, ident, ut2_inner_derivation(ring))
    assert diag.basis == ((1, 0, 0), (0, 0, 1))
    # conjugation by [[1, 1], [0, 1]] fixes the scalars and e12 only
    conj = fixed_subring(ring, ut2_conjugation(ring), zero)
    assert sub_equal(conj, hnf([(1, 0, 1), (0, 1, 0)], ring.coeff, dim=3))


def test_fixed_subring_swap():
    ring = product_ring(2)
    for deriv in (RingMap.zero(ring), swap_derivation(ring)):
        assert fixed_subring(ring, swap_map(ring), deriv).basis == ((1, 1),)


def test_fixed_subring_closed_under_multiplication():
    rng = random.Random(23)
    for ring, rho, deriv in [
        (upper_triangular2(4), RingMap.identity(upper_triangular2(4)),
         ut2_inner_derivation(upper_triangular2(4))),
        (product_ring(4), swap_map(product_ring(4)), RingMap.zero(product_ring(4))),
        (upper_triangular2(0), ut2_conjugation(upper_triangular2(0)),
         RingMap.zero(upper_triangular2(0))),
    ]:
        sub = fixed_subring(ring, rho, deriv)
        for _ in range(25):
            a = ring.zero()
            b = ring.zero()
            for row in sub.basis:
                ca, cb = rng.randint(-3, 3), rng.randint(-3, 3)
                a = a + ring.element([ca * e for e in row])
                b = b + ring.element([cb * e for e in row])
            assert sub_member(sub, (a * b).coords)


def test_centralizer_examples():
    comm = group_algebra_c2()
    full = fixed_subring(comm, RingMap.identity(comm), RingMap.zero(comm))
    assert sub_equal(centralizer(comm, full), full)

    ring = upper_triangular2(0)
    everything = fixed_subring(ring, RingMap.identity(ring), RingMap.zero(ring))
    scalars = centralizer(ring, everything)
    assert scalars.basis == ((1, 0, 1),)

    zero = hnf([], ring.coeff, dim=3)
    assert centralizer(ring, zero).is_zero()


def test_centralizer_members_really_commute():
    ring = upper_triangular2(6)
    diag = fixed_subring(ring, RingMap.identity(ring), ut2_inner_derivation(ring))
    cent = centralizer(ring, diag)
    # diagonal matrices commute with each other
    assert sub_equal(cent, diag)
    for row in cent.basis:
        v = ring.element(row)
        for gen in diag.basis:
            w = ring.element(gen)
            assert v * w == w * v


def test_left_right_mul_matrices():
    ring = upper_triangular2(0)
    e12 = ring.basis_element(1)
    left = Matrix(mul_map_rows(ring, left=e12.coords), ring.coeff, cols=3)
    right = Matrix(mul_map_rows(ring, right=e12.coords), ring.coeff, cols=3)
    rng = random.Random(3)
    for _ in range(20):
        a = ring.element([rng.randint(-5, 5) for _ in range(3)])
        assert ring.element(left.apply(a.coords)) == e12 * a
        assert ring.element(right.apply(a.coords)) == a * e12


def test_element_str_uses_names():
    ring = upper_triangular2(0)
    assert str(ring.element((3, 0, 1))) == "3*e11 + e22"
    assert str(ring.zero()) == "0"
    assert str(zz_ring().element((2,))) == "2*e0"
