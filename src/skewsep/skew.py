"""Skew polynomial rings B[X; rho, D] with right-hand coefficients.

Polynomials are written f = sum X^i a_i with the coefficients on the
right.  Scalars move across X by the rule

    alpha * X = X * rho(alpha) + D(alpha)

for a ring automorphism rho and a rho-twisted derivation D.  Iterating it,
alpha * X^i expands into sum_j X^j c_ij(alpha) where the additive maps
c_ij are built by the recursion implemented in commutation_map: c_00 is
the identity, c_i0 = D^i, c_ii = rho^i and otherwise

    c_ij = rho o c_{i-1, j-1} + D o c_{i-1, j}.

Every product in the ring reduces to this expansion, so getting it right
(and testing it against repeated elementary multiplications) pins down the
whole multiplication.

A monic f generates a two-sided ideal fR = Rf exactly when a coefficient
recurrence and a scalar commutation identity hold.  One generator,
_conditions, states both; they are linear in the coefficients once the
shift rho(a_{m-1}) - a_{m-1} is fixed.  is_invariant evaluates them on one
polynomial; invariant_polynomials solves them at shift 0, with every
coefficient fixed by rho, so the invariant f of one degree form an affine
coset found by one linear solve.  Over a finite coefficient ring,
iter_invariant_polynomials lists that coset by forming every element from
the Hermite basis and sorting.  is_invariant_direct checks the defining
products themselves, and the two tests must always agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product
from math import prod

from .rings import BaseRing, RingElement, RingMap, validate_automorphism, \
    validate_derivation, validate_ring
from .rings import centralizer, fixed_subring, mul_map_rows
from .linalg import Matrix, solve, sub_member


class SkewPolyRing:
    __slots__ = ("base", "rho", "deriv", "_cmaps", "_rho_pows")

    def __init__(self, base: BaseRing, rho: RingMap, deriv: RingMap, validate: bool = True):
        if rho.ring != base or deriv.ring != base:
            raise ValueError("maps must act on the coefficient ring")
        if validate:
            problems = validate_ring(base)
            problems += [f"automorphism: {v}" for v in validate_automorphism(base, rho)]
            problems += [f"derivation: {v}" for v in validate_derivation(base, deriv, rho)]
            if problems:
                raise ValueError("invalid skew polynomial data:\n" + "\n".join(problems))
        self.base = base
        self.rho = rho
        self.deriv = deriv
        # write-once memo tables; safe to fill lazily, entries are idempotent
        self._cmaps: dict[tuple[int, int], RingMap] = {(0, 0): RingMap.identity(base)}
        self._rho_pows: dict[int, RingMap] = {0: RingMap.identity(base), 1: rho}

    def rho_power(self, k: int) -> RingMap:
        got = self._rho_pows.get(k)
        if got is None:
            if k > 0:
                got = self.rho.compose(self.rho_power(k - 1))
            elif k == -1:
                got = self.rho.inverse()
            else:
                got = self.rho_power(-1).compose(self.rho_power(k + 1))
            self._rho_pows[k] = got
        return got

    def commutation_map(self, i: int, j: int) -> RingMap:
        """The X^j component of moving a scalar across X^i."""
        if not 0 <= j <= i:
            raise ValueError("commutation_map requires 0 <= j <= i")
        got = self._cmaps.get((i, j))
        if got is None:
            if j == 0:
                got = self.deriv.compose(self.commutation_map(i - 1, 0))
            elif j == i:
                got = self.rho.compose(self.commutation_map(i - 1, i - 1))
            else:
                got = self.rho.compose(self.commutation_map(i - 1, j - 1)).add(
                    self.deriv.compose(self.commutation_map(i - 1, j)))
            self._cmaps[(i, j)] = got
        return got

    # ------------------------------------------------------- constructors

    def poly(self, coeffs) -> "SkewPoly":
        elems = [c if isinstance(c, RingElement) else self.base.element(c)
                 for c in coeffs]
        return SkewPoly(self, elems)

    def zero(self) -> "SkewPoly":
        return SkewPoly(self, [])

    def one(self) -> "SkewPoly":
        return SkewPoly(self, [self.base.one()])

    def x(self) -> "SkewPoly":
        return SkewPoly(self, [self.base.zero(), self.base.one()])

    def const(self, elem: RingElement) -> "SkewPoly":
        return SkewPoly(self, [elem])

    def monomial(self, coeff: RingElement, i: int) -> "SkewPoly":
        return SkewPoly(self, [self.base.zero()] * i + [coeff])

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (isinstance(other, SkewPolyRing) and self.base == other.base
                and self.rho == other.rho and self.deriv == other.deriv)

    def __hash__(self) -> int:
        return hash((self.base, self.rho, self.deriv))

    def __repr__(self) -> str:
        return f"SkewPolyRing({self.base!r})"


class SkewPoly:
    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: SkewPolyRing, coeffs):
        while coeffs and coeffs[-1].is_zero():
            coeffs = coeffs[:-1]
        for c in coeffs:
            if c.ring != ring.base:
                raise ValueError("coefficient from a different ring")
        self.ring = ring
        self.coeffs = tuple(coeffs)

    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.ring.base.one()

    def coefficient(self, i: int) -> RingElement:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.ring.base.zero()

    def _check(self, other) -> None:
        if not isinstance(other, SkewPoly) or other.ring != self.ring:
            raise ValueError("polynomials from different rings")

    def __add__(self, other):
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return SkewPoly(self.ring, [self.coefficient(i) + other.coefficient(i)
                                    for i in range(n)])

    def __sub__(self, other):
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return SkewPoly(self.ring, [self.coefficient(i) - other.coefficient(i)
                                    for i in range(n)])

    def __neg__(self):
        return SkewPoly(self.ring, [-c for c in self.coeffs])

    def __mul__(self, other):
        """Product via the commutation expansion of each a_i X^j."""
        self._check(other)
        if self.is_zero() or other.is_zero():
            return self.ring.zero()
        ring = self.ring
        base = ring.base
        out = [base.zero()] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if b.is_zero():
                    continue
                # X^i a X^j b = sum_k X^(i+k) (c_jk(a) * b)
                for k in range(j + 1):
                    part = ring.commutation_map(j, k).apply(a) * b
                    if not part.is_zero():
                        out[i + k] = out[i + k] + part
        return SkewPoly(ring, out)

    def __eq__(self, other) -> bool:
        return (isinstance(other, SkewPoly) and self.ring == other.ring
                and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            xi = "1" if i == 0 else ("X" if i == 1 else f"X^{i}")
            if i == 0:
                parts.append(f"({c})")
            elif c == self.ring.base.one():
                parts.append(xi)
            else:
                parts.append(f"{xi}*({c})")
        return " + ".join(reversed(parts))

    def __repr__(self) -> str:
        return f"SkewPoly({[list(c.coords) for c in self.coeffs]})"


def divmod_monic(g: SkewPoly, f: SkewPoly) -> tuple[SkewPoly, SkewPoly]:
    """Quotient and remainder with g = f * q + r and deg r < deg f."""
    if g.ring != f.ring:
        raise ValueError("polynomials from different rings")
    if not f.is_monic():
        raise ValueError("divisor must be monic")
    ring = g.ring
    m = f.degree()
    q = ring.zero()
    r = g
    while r.degree() >= m:
        d = r.degree()
        piece = ring.monomial(r.coefficient(d), d - m)
        q = q + piece
        r = r - f * piece
    return q, r


@dataclass(frozen=True)
class InvariantFailure:
    """First criterion violation found by is_invariant.

    condition is "coefficient-recurrence" (indexed by the coefficient i)
    or "scalar-commutation" (indexed by the target degree j and the basis
    element the identity failed on).
    """

    condition: str
    index: int
    basis_index: int | None = None

    def describe(self, ring: BaseRing) -> str:
        if self.condition == "coefficient-recurrence":
            return f"coefficient recurrence fails at a_{self.index}"
        return (f"scalar commutation fails at degree {self.index} "
                f"on basis element {ring.name_of(self.basis_index)}")


def _conditions(ring: SkewPolyRing, m: int, shift: RingElement):
    """The invariance conditions on a monic f of degree m with shift
    rho(a_{m-1}) - a_{m-1}, as groups of rank equations sum_i blocks[i] a_i
    = target in a_0..a_{m-1}, each with the InvariantFailure it certifies:
    first the coefficient recurrence (no a_{-1} term at i = 0)

        D(a_i) - a_i * shift + (rho - 1)(a_{i-1}) = 0,

    then for each basis element alpha and each j < m the scalar commutation

        sum_{i=j}^{m-1} L(c_ij(alpha)) a_i - R(rho^m(alpha)) a_j = -c_mj(alpha),

    whose blocks i > j with c_ij(alpha) = 0 are left out (every i > j when
    D = 0).
    """
    base = ring.base
    moved = [[e - (p == q) for q, e in enumerate(row)]
             for p, row in enumerate(ring.rho.matrix.entries)]
    recur = [[d + s for d, s in zip(drow, srow)] for drow, srow in
             zip(ring.deriv.matrix.entries, mul_map_rows(base, right=(-shift).coords))]
    for i in range(m):
        blocks = {i: recur, i - 1: moved} if i else {i: recur}
        yield InvariantFailure("coefficient-recurrence", i), blocks, base.zero().coords
    rho_m = ring.rho_power(m)
    for t, alpha in enumerate(base.basis()):
        right = [-v for v in rho_m.apply(alpha).coords]
        for j in range(m):
            # block i is L(c_ij(alpha)), left out where c_ij(alpha) = 0; block
            # j also carries -R(rho^m(alpha)) and is always there
            blocks = {}
            for i in range(j, m):
                c = ring.commutation_map(i, j).apply(alpha)
                if i == j or not c.is_zero():
                    blocks[i] = mul_map_rows(base, c.coords, right if i == j else ())
            yield (InvariantFailure("scalar-commutation", j, t), blocks,
                   (-ring.commutation_map(m, j).apply(alpha)).coords)


def is_invariant(f: SkewPoly) -> tuple[bool, InvariantFailure | None]:
    """Does monic f generate a two-sided ideal?  Evaluates the groups of
    _conditions at f's shift and reports the first that fails."""
    if not f.is_monic():
        raise ValueError("invariance test requires a monic polynomial")
    ring = f.ring
    m = f.degree()
    if m == 0:
        return True, None
    am1 = f.coefficient(m - 1)
    coords = [f.coefficient(i).coords for i in range(m)]
    red = ring.base.coeff.reduce
    for failure, blocks, target in _conditions(ring, m, ring.rho.apply(am1) - am1):
        for k, want in enumerate(target):
            if red(sum(e * v for i, mat in blocks.items()
                       for e, v in zip(mat[k], coords[i])) - want):
                return False, failure
    return True, None


def invariant_polynomials(ring: SkewPolyRing, m: int):
    """All monic invariant f of degree m with twist-fixed coefficients.

    With every coefficient fixed by rho the shift vanishes; the rows
    (rho - 1)(a_i) = 0 and the groups of _conditions at shift 0 are linear
    in the m * rank coordinates of (a_0, ..., a_{m-1}), and one solve gives
    their solutions: None when there are none, otherwise (x0, K) with the
    concatenated coefficient vectors of the f exactly the coset x0 + K.
    """
    if m < 1:
        raise ValueError("degree must be at least 1")
    base = ring.base
    r = base.rank
    width = m * r
    moved = ring.rho.matrix.sub(Matrix.identity(r, base.coeff)).entries
    fixed = [(None, {i: moved}, base.zero().coords) for i in range(m)]
    rows, rhs = [], []
    for _, blocks, target in chain(fixed, _conditions(ring, m, base.zero())):
        for k in range(r):
            row = [0] * width
            for i, mat in blocks.items():
                row[i * r:(i + 1) * r] = mat[k]
            rows.append(row)
            rhs.append(target[k])
    return solve(Matrix(rows, base.coeff, cols=width), rhs)


def _multiple_bounds(kern) -> list[int]:
    """n // pivot over the Hermite rows of K, for a coset over Z/n: with
    0 <= c_k < n // pivot_k the sums x0 + sum c_k * K_k mod n are the
    coset's elements, each once."""
    n = kern.coeff.modulus
    if not n:
        raise ValueError("the coset is finite only over a finite coefficient ring")
    return [n // next(e for e in row if e) for row in kern.basis]


def invariant_count(solution) -> int:
    """Size of the coset x0 + K returned by invariant_polynomials over Z/n."""
    if solution is None:
        return 0
    return prod(_multiple_bounds(solution[1]))


def iter_invariant_polynomials(ring: SkewPolyRing, solution):
    """The monic f of the coset x0 + K returned by invariant_polynomials,
    over Z/n, in lexicographic order of (a_0, ..., a_{m-1}).

    Every x0 + sum c_k * K_k mod n with 0 <= c_k < n // pivot_k is formed
    and the list is sorted before the first f is yielded, so the whole
    coset is built eagerly.
    """
    if solution is None:
        return
    x0, kern = solution
    n, r, one = kern.coeff.modulus, ring.base.rank, ring.base.one()
    # coordinate i of x0 + sum c_k * K_k is (1, c) dotted with (x0_i, K_1i, K_2i, ...)
    cols = list(zip(x0, *kern.basis))
    coset = sorted(tuple(sum(c * e for c, e in zip((1,) + cs, col)) % n for col in cols)
                   for cs in product(*map(range, _multiple_bounds(kern))))
    for vec in coset:
        yield ring.poly([vec[i:i + r] for i in range(0, len(vec), r)] + [one])


def is_invariant_direct(f: SkewPoly) -> bool:
    """Same question, decided from the defining products.

    Checks alpha * f = f * rho^m(alpha) on basis scalars and
    X * f = f * (X - (rho(a_{m-1}) - a_{m-1})).
    """
    if not f.is_monic():
        raise ValueError("invariance test requires a monic polynomial")
    ring = f.ring
    m = f.degree()
    if m == 0:
        return True
    rho_m = ring.rho_power(m)
    for alpha in ring.base.basis():
        if ring.const(alpha) * f != f * ring.const(rho_m.apply(alpha)):
            return False
    am1 = f.coefficient(m - 1)
    shift = ring.rho.apply(am1) - am1
    return ring.x() * f == f * (ring.x() - ring.const(shift))


def coeffs_central_in_fixed_subring(f: SkewPoly) -> bool:
    """For an invariant f with rho-fixed coefficients, are the coefficients
    central inside the joint fixed subring of rho and D?

    This is a consequence of invariance, so a False return signals an
    implementation bug; it is exposed as a self-test hook.
    """
    ring = f.ring
    ok, _ = is_invariant(f)
    if not ok:
        raise ValueError("polynomial is not invariant")
    for c in f.coeffs:
        if ring.rho.apply(c) != c:
            raise ValueError("polynomial has coefficients moved by the automorphism")
    cent = centralizer(ring.base, fixed_subring(ring.base, ring.rho, ring.deriv))
    return all(sub_member(cent, c.coords) for c in f.coeffs)


def horner_tails(f: SkewPoly) -> list[SkewPoly]:
    """Tails T_j = sum_{k >= j} X^(k-j) a_{k+1} of a monic f, j = 0..m-1.

    T_{m-1} = 1 and X * T_j = T_{j-1} - a_j for j >= 1, while
    X * T_0 = f - a_0; the tails drive the trace map downstairs.
    """
    if not f.is_monic() or f.degree() < 1:
        raise ValueError("tails need a monic polynomial of degree >= 1")
    ring = f.ring
    m = f.degree()
    return [ring.poly([f.coefficient(k + 1) for k in range(j, m)])
            for j in range(m)]
