"""Shared fixtures: the small coefficient rings and maps the tests sweep over."""

from functools import cache
from itertools import islice

from skewsep.linalg import CoeffRing, Matrix, ZZ, kernel
from skewsep.quotient import build_quotient
from skewsep.rings import BaseRing, RingMap
from skewsep.skew import (
    InvariantFailure, SkewPolyRing, invariant_polynomials, iter_invariant_polynomials,
)


def zmod_ring(n: int) -> BaseRing:
    """Z/n as a rank-1 algebra over itself."""
    return BaseRing(CoeffRing(n), [[[1]]], [1])


def zz_ring() -> BaseRing:
    return BaseRing(ZZ, [[[1]]], [1])


def product_ring(n: int, k: int = 2) -> BaseRing:
    """(Z/n)^k with componentwise multiplication."""
    coeff = CoeffRing(n)
    struct = [[[1 if (i == j and t == i) else 0 for t in range(k)]
               for j in range(k)] for i in range(k)]
    return BaseRing(coeff, struct, [1] * k)


def group_algebra_c2(modulus: int = 0) -> BaseRing:
    """Group algebra of the order-2 group: basis {1, g}, g*g = 1."""
    coeff = CoeffRing(modulus)
    struct = [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]
    return BaseRing(coeff, struct, [1, 0], names=("1", "g"))


def upper_triangular2(modulus: int = 0) -> BaseRing:
    """Upper triangular 2x2 matrices, basis (e11, e12, e22)."""
    coeff = CoeffRing(modulus)
    z = [0, 0, 0]
    struct = [
        [[1, 0, 0], [0, 1, 0], z],        # e11 * .
        [z, z, [0, 1, 0]],                # e12 * .
        [z, z, [0, 0, 1]],                # e22 * .
    ]
    return BaseRing(coeff, struct, [1, 0, 1], names=("e11", "e12", "e22"))


def ut2_matrix(elem):
    """Coordinates (a, b, c) as the matrix [[a, b], [0, c]]."""
    a, b, c = elem.coords
    return [[a, b], [0, c]]


def ut2_from_matrix(ring, m):
    return ring.element((m[0][0], m[0][1], m[1][1]))


def ut2_inner_derivation(ring) -> RingMap:
    """Commutator with e11: kills the diagonal, fixes e12."""
    return RingMap(ring, Matrix([[0, 0, 0], [0, 1, 0], [0, 0, 0]], ring.coeff))


def ut2_conjugation(ring) -> RingMap:
    """Conjugation by [[1, 1], [0, 1]]."""
    return RingMap.from_images(ring, [
        ring.element((1, -1, 0)),
        ring.element((0, 1, 0)),
        ring.element((0, 1, 1)),
    ])


def swap_map(ring) -> RingMap:
    """Coordinate swap on a rank-2 product ring."""
    return RingMap(ring, Matrix([[0, 1], [1, 0]], ring.coeff))


def swap_derivation(ring) -> RingMap:
    """x - swap(x): a twisted derivation for the swap automorphism."""
    return RingMap(ring, Matrix([[1, -1], [-1, 1]], ring.coeff))


def classical_skew_ring(n: int) -> SkewPolyRing:
    base = zmod_ring(n)
    return SkewPolyRing(base, RingMap.identity(base), RingMap.zero(base))


def sweep_rings() -> list[tuple[str, SkewPolyRing]]:
    """The fixed (coefficient ring, twist, derivation) corpus for sweeps."""
    prod = product_ring(2)
    ut2_2 = upper_triangular2(2)
    ut2_3 = upper_triangular2(3)
    return [
        ("zmod2", classical_skew_ring(2)),
        ("zmod3", classical_skew_ring(3)),
        ("zmod4", classical_skew_ring(4)),
        ("prod22", SkewPolyRing(prod, RingMap.identity(prod), RingMap.zero(prod))),
        ("prod22-swap", SkewPolyRing(prod, swap_map(prod), swap_derivation(prod))),
        ("ut2-mod2", SkewPolyRing(ut2_2, RingMap.identity(ut2_2),
                                  ut2_inner_derivation(ut2_2))),
        ("ut2-mod3", SkewPolyRing(ut2_3, RingMap.identity(ut2_3),
                                  ut2_inner_derivation(ut2_3))),
    ]


def invariant_survivors(ring: SkewPolyRing, degree: int):
    """Monic invariant polynomials of the given degree with twist-fixed
    coefficients, in lexicographic order of their coefficients."""
    return iter_invariant_polynomials(ring, invariant_polynomials(ring, degree))


def golden_ring() -> SkewPolyRing:
    """Integer upper triangular 2x2 matrices, identity twist, D = ad(e11)."""
    base = upper_triangular2(0)
    return SkewPolyRing(base, RingMap.identity(base), ut2_inner_derivation(base))


@cache
def lemma_corpus():
    """The instances the lemma suite and round-trip criteria run over:
    the golden example plus, per sweep ring, every invariant polynomial
    of degree 1 and 2 and the first three of degree 3."""
    ring = golden_ring()
    a = ring.base.element((3, 0, 1))
    out = [("golden", ring, ring.poly([a, a, ring.base.one()]))]
    for label, sring in sweep_rings():
        for f in invariant_survivors(sring, 1):
            out.append((label, sring, f))
        for f in invariant_survivors(sring, 2):
            out.append((label, sring, f))
        for f in islice(invariant_survivors(sring, 3), 3):
            out.append((label, sring, f))
    return out


def wide_c2_quotient():
    """A cubic quotient over the integer group algebra of C2 whose
    coefficients lie near 2^100, so its products run to several words."""
    base = group_algebra_c2(0)
    ring = SkewPolyRing(base, RingMap.identity(base), RingMap.zero(base))
    big = 2 ** 100
    coeffs = [(big + 3, -big + 7), (-big - 1, big - 5), (big + 11, big - 2)]
    return build_quotient(ring, ring.poly(coeffs + [(1, 0)]))


def reference_product(q, a, b):
    """a * b in the quotient q, computed independently of its
    multiplication table: multiply the lifts as skew polynomials and
    reduce modulo f."""
    return q.reduce_poly(q.lift(a) * q.lift(b))


def reference_trace_matrix(q):
    """The matrix of the trace map of the quotient q, built column by
    column as tr(b_p) = sum_j t_j b_p x^j from products in A: the
    reference for QuotientRing.trace_matrix, which reads it off the table."""
    cols = [q.trace(z).flat() for z in q.basis_elements()]
    return Matrix.from_columns(cols, q.coeff, rows=q.dim)


def product_mul_matrices(ring, a, b):
    """(L(a), R(b)) for coordinate vectors a and b of a structure-constant
    ring, built column by column from products with the basis: the
    reference for the table reads of rings.mul_map_rows."""
    basis = [e.coords for e in ring.basis()]
    left = [ring.mul_coords(a, e) for e in basis]
    right = [ring.mul_coords(e, b) for e in basis]
    return (Matrix.from_columns(left, ring.coeff, rows=ring.rank),
            Matrix.from_columns(right, ring.coeff, rows=ring.rank))


def reference_is_invariant(f):
    """(ok, failure) for a monic f, with each condition checked by ring
    products: the reference for skew.is_invariant, which evaluates the
    same conditions as rows read off the structure table."""
    ring = f.ring
    m = f.degree()
    if m == 0:
        return True, None
    a = [f.coefficient(i) for i in range(m + 1)]
    rho, deriv = ring.rho, ring.deriv
    shift = rho.apply(a[m - 1]) - a[m - 1]
    if deriv.apply(a[0]) != a[0] * shift:
        return False, InvariantFailure("coefficient-recurrence", 0)
    for i in range(1, m):
        want = a[i - 1] - rho.apply(a[i - 1]) + a[i] * shift
        if deriv.apply(a[i]) != want:
            return False, InvariantFailure("coefficient-recurrence", i)
    rho_m = ring.rho_power(m)
    for t, alpha in enumerate(ring.base.basis()):
        target = rho_m.apply(alpha)
        for j in range(m):
            acc = ring.base.zero()
            for i in range(j, m + 1):
                acc = acc + ring.commutation_map(i, j).apply(alpha) * a[i]
            if a[j] * target != acc:
                return False, InvariantFailure("scalar-commutation", j, t)
    return True, None


def polygcd_is_one(f, p: int) -> bool:
    """Is gcd(f, f') trivial over Z/p (p prime)?  f is a coefficient list."""
    def trim(g):
        while g and g[-1] % p == 0:
            g.pop()
        return g

    def rem(g, h):
        g = [e % p for e in g]
        inv = pow(h[-1], -1, p)
        while g and len(g) >= len(h):
            c = (g[-1] * inv) % p
            shift = len(g) - len(h)
            for i, e in enumerate(h):
                g[shift + i] = (g[shift + i] - c * e) % p
            trim(g)
        return g

    a = trim([e % p for e in f])
    b = trim([(i * e) % p for i, e in enumerate(f)][1:])
    while b:
        a, b = b, rem(a, b)
    return len(a) == 1


def all_pairs_derivations(q):
    """The module of B-derivations of the quotient q, from the Leibniz rule
    imposed on every pair of basis elements (dim^3 equations) and on
    nothing smaller: the reference for separability.derivation_module."""
    dim, struct, red = q.dim, q.algebra.structure, q.coeff.reduce
    rows = []
    for t in range(q.base.rank):
        for p in range(dim):
            rows.append([1 if c == p * dim + t else 0 for c in range(dim * dim)])
    for i in range(dim):
        for j in range(dim):
            u = struct[i][j]
            for p in range(dim):
                row = [0] * (dim * dim)
                for s in range(dim):
                    row[p * dim + s] += u[s]
                    row[s * dim + i] -= struct[s][j][p]
                    row[s * dim + j] -= struct[i][s][p]
                rows.append([red(e) for e in row])
    return kernel(Matrix(rows, q.coeff, cols=dim * dim))
