"""Quotients A = R/fR by the right ideal of a monic invariant polynomial.

The quotient is taken with respect to a monic f of degree m >= 1 that
generates a two-sided ideal and whose coefficients are fixed by the
twist; build_quotient refuses anything else with a ScopeError carrying
the failed-condition certificate.  Under those hypotheses A is a free
right module over the coefficient ring B with basis 1, x, .., x^{m-1}
(x the image of X).  Flattened, A is free of rank dim = m * rank over the
coefficients, on the basis b_p = x^i e_s with p = i * rank + s, and an
element is stored as its flat integer vector in that basis.

A is held as a structure-constant ring of rank dim (QuotientRing.algebra):
its dim x dim x dim table flat(b_p * b_q), built once, on the first
product, by reading B's table: no polynomial division and no product in B
or A.  Every product, multiplication matrix and centralizer is then a
generic structure-constant operation of the rings module, and the center
is the base centralizer cut to the kernel of the x-commutator.  All the
structural subgroups (twisted centralizers, the center, kernels and
images of the trace map and the x-commutator) are computed exactly in
that flat picture.

The trace map is tr(z) = sum_j t_j * z * x^j with t_j the Horner tails
of f; its matrix is read off the table as sum_j R(x^j) L(t_j), and weak
separability downstream is a statement about its kernel.
"""

from __future__ import annotations

from .linalg import Matrix, Submodule, hnf, kernel, sub_intersect
from .rings import BaseRing, RingElement, RingMap, _times, commutant, mul_map_rows
from .skew import SkewPoly, SkewPolyRing, divmod_monic, horner_tails, is_invariant


class ScopeError(ValueError):
    """f is outside the supported scope (not invariant or not fixed-coefficient)."""

    def __init__(self, message: str, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class QuotientRing:
    __slots__ = ("ring", "f", "m", "base", "coeff", "dim", "tails", "_x",
                 "_algebra", "_trace_matrix", "_twisted",
                 "_center", "_trace_kernel", "_split")

    def __init__(self, ring: SkewPolyRing, f: SkewPoly):
        # use build_quotient; this constructor trusts its caller
        self.ring = ring
        self.f = f
        self.m = f.degree()
        self.base = ring.base
        self.coeff = ring.base.coeff
        self.dim = self.m * self.base.rank
        # the only polynomial reductions; a built quotient multiplies by its table
        self.tails = [self.reduce_poly(t) for t in horner_tails(f)]
        self._x = self.reduce_poly(ring.x())
        self._algebra: BaseRing | None = None
        self._trace_matrix: Matrix | None = None
        self._twisted: dict[RingMap, Submodule] = {}
        self._center: Submodule | None = None
        self._trace_kernel: Submodule | None = None
        self._split: tuple[Submodule, Submodule] | None = None

    # ------------------------------------------------------------ algebra

    @property
    def algebra(self) -> BaseRing:
        """A as a structure-constant ring of rank dim, built on first use."""
        if self._algebra is None:
            self._algebra = BaseRing(self.coeff, self._structure_constants(),
                                     self.one().flat())
        return self._algebra

    def _structure_constants(self) -> list:
        """flat(b_p * b_q) for every pair of basis elements b_p = x^i e_s.

        x^i e_s * x^j e_t = sum_k x^(i+k) (c_jk(e_s) e_t) by the commutation
        maps, and c_jk(e_s) e_t = sum_u c_jk(e_s)_u sum_w c(u, t, w) e_w with
        c the structure constants of B.  So the table is read off the rows
        xe[e][w] = flat(x^e e_w) for e <= 2m-2: a unit vector for e < m,
        and for e >= m the row of x^(e-1) e_w shifted up one block, its top
        block d folded back by X^m = -sum_l X^l a_l into -sum_l x^l (a_l d).
        The products c_jk(e_s) e_t and a_l e_v are columns of left
        multiplication matrices read off B's table (rings.mul_map_rows), so
        no element of B or A is multiplied and no polynomial is divided.
        """
        m, r, dim, red = self.m, self.base.rank, self.dim, self.coeff.reduce
        # fold[l][v] = a_l e_v, column v of L(a_l)
        fold = [list(zip(*mul_map_rows(self.base, left=c.coords))) for c in self.f.coeffs[:m]]
        xe = [[[(e * r + w, 1)] for w in range(r)] for e in range(m)]
        for e in range(m, 2 * m - 1):
            row = []
            for w in range(r):
                out = [0] * dim
                for idx, v in xe[e - 1][w]:
                    if idx < dim - r:
                        out[idx + r] += v
                    else:
                        for l in range(m):
                            for u, c in enumerate(fold[l][idx - dim + r]):
                                out[l * r + u] -= c * v
                row.append([(idx, v) for idx, v in enumerate(map(red, out)) if v])
            xe.append(row)
        struct = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
        for j in range(m):
            for k in range(j + 1):
                cmap = self.ring.commutation_map(j, k).matrix
                for s in range(r):
                    # c_jk(e_s) e_t is column t of L(c_jk(e_s)), the same for every i
                    moved = mul_map_rows(self.base, left=cmap.column(s))
                    for t in range(r):
                        terms = [(w, row[t]) for w, row in enumerate(moved) if row[t]]
                        for i in range(m):
                            out = struct[i * r + s][j * r + t]
                            for w, c in terms:
                                for idx, v in xe[i + k][w]:
                                    out[idx] += c * v
        return struct

    # ------------------------------------------------------------ elements

    def element(self, coords) -> "AElement":
        elems = [c if isinstance(c, RingElement) else self.base.element(c)
                 for c in coords]
        if len(elems) != self.m:
            raise ValueError(f"need {self.m} coefficients")
        return AElement(self, [v for c in elems for v in c.coords])

    def from_flat(self, flat) -> "AElement":
        if len(flat) != self.dim:
            raise ValueError("flat vector has wrong length")
        return AElement(self, flat)

    def zero(self) -> "AElement":
        return AElement(self, (0,) * self.dim)

    def one(self) -> "AElement":
        return self.embed(self.base.one())

    def embed(self, elem: RingElement) -> "AElement":
        return AElement(self, elem.coords + (0,) * (self.dim - self.base.rank))

    def x_elem(self) -> "AElement":
        return self._x

    def reduce_poly(self, g: SkewPoly) -> "AElement":
        if g.ring != self.ring:
            raise ValueError("polynomial from a different ring")
        _, rem = divmod_monic(g, self.f)
        return self.element([rem.coefficient(i) for i in range(self.m)])

    def lift(self, a: "AElement") -> SkewPoly:
        return SkewPoly(self.ring, list(a.coords))

    def x_power(self, j: int) -> "AElement":
        """x^j for 0 <= j < m: the unit of B moved up j blocks, no product."""
        if not 0 <= j < self.m:
            raise ValueError(f"x_power needs 0 <= j < {self.m}")
        r = self.base.rank
        return AElement(self, (0,) * (j * r) + self.base.unit + (0,) * (self.dim - (j + 1) * r))

    # ------------------------------------------------------------ operators

    def trace(self, z: "AElement") -> "AElement":
        """tr(z) = sum_j t_j * z * x^j over the Horner tails t_j."""
        if z.parent != self:
            raise ValueError("element from a different quotient")
        out = self.zero()
        for j, t in enumerate(self.tails):
            out = out + t * z * self.x_power(j)
        return out

    def trace_matrix(self) -> Matrix:
        """The matrix of tr, T = sum_j R(x^j) L(t_j), read off the table.

        No power of x is multiplied out (see x_power), and each product
        R(x^j) L(t_j) is accumulated sparsely, row by row.
        """
        if self._trace_matrix is None:
            alg, rows = self.algebra, ()
            for j, t in enumerate(self.tails):
                rows = _times(mul_map_rows(alg, right=self.x_power(j).flat()),
                              mul_map_rows(alg, left=t.flat()), rows)
            self._trace_matrix = Matrix(rows, self.coeff, cols=self.dim)
        return self._trace_matrix

    def trace_kernel(self) -> Submodule:
        if self._trace_kernel is None:
            self._trace_kernel = kernel(self.trace_matrix())
        return self._trace_kernel

    def _x_commutator_matrix(self) -> Matrix:
        """The matrix of z -> z x - x z, read off the table."""
        x = self._x.flat()
        return Matrix(mul_map_rows(self.algebra, [-e for e in x], x), self.coeff, cols=self.dim)

    def x_commutator_image(self, sub: Submodule) -> Submodule:
        """Image of the x-commutator restricted to a subgroup."""
        if sub.ambient_dim != self.dim or sub.coeff != self.coeff:
            raise ValueError("subgroup does not live in this quotient")
        ad = self._x_commutator_matrix()
        return hnf([ad.apply(row) for row in sub.basis], self.coeff, dim=self.dim)

    # ----------------------------------------------------------- subgroups

    def twisted_centralizer(self, k: int) -> Submodule:
        """Elements u with alpha u = u rho^k(alpha) for all scalars alpha.

        Cached by the map rho^k, not by k, so exponents with the same power
        (every k under the identity twist) share one kernel.
        """
        rho_k = self.ring.rho_power(k)
        got = self._twisted.get(rho_k)
        if got is None:
            got = commutant(self.algebra, [
                (self.embed(alpha).vec, self.embed(rho_k.apply(alpha)).vec)
                for alpha in self.base.basis()])
            self._twisted[rho_k] = got
        return got

    def base_centralizer(self) -> Submodule:
        """Elements commuting with every scalar."""
        return self.twisted_centralizer(0)

    def center(self) -> Submodule:
        """Elements commuting with the whole quotient: the base centralizer
        V cut to the kernel of the x-commutator, as B and x generate A.

        One kernel, of the dim x rank(V) matrix whose columns are the
        x-commutators of V's basis rows, gives the combinations of those
        rows that commute with x (the pattern of linalg.sub_intersect).
        separability.exactness_report checks that every row is central.
        """
        if self._center is None:
            v, ad = self.base_centralizer(), self._x_commutator_matrix()
            images = Matrix.from_columns([ad.apply(row) for row in v.basis],
                                         self.coeff, rows=self.dim)
            span = Matrix.from_columns(v.basis, self.coeff, rows=self.dim)
            self._center = hnf([span.apply(lam) for lam in kernel(images).basis],
                               self.coeff, dim=self.dim)
        return self._center

    def split_subgroups(self) -> tuple[Submodule, Submodule]:
        """(twist-1 centralizer cut to Ker(trace), x-commutator image of the
        base centralizer): the two subgroups weak separability compares."""
        if self._split is None:
            s1 = sub_intersect(self.twisted_centralizer(1), self.trace_kernel())
            s2 = self.x_commutator_image(self.base_centralizer())
            self._split = (s1, s2)
        return self._split

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (isinstance(other, QuotientRing) and self.ring == other.ring
                and self.f == other.f)

    def __hash__(self) -> int:
        return hash((self.ring, self.f))

    def __repr__(self) -> str:
        return f"QuotientRing(f = {self.f}, dim {self.dim} over {self.coeff})"


class AElement:
    """An element of A, stored as its flat coordinate vector."""

    __slots__ = ("parent", "vec")

    def __init__(self, parent: QuotientRing, vec):
        self.parent = parent
        self.vec = parent.coeff.reduce_vec(vec)

    def flat(self) -> tuple[int, ...]:
        return self.vec

    @property
    def coords(self) -> tuple[RingElement, ...]:
        """The coefficients of 1, x, .., x^{m-1} as elements of B."""
        base, r = self.parent.base, self.parent.base.rank
        return tuple(RingElement(base, self.vec[j * r:(j + 1) * r])
                     for j in range(self.parent.m))

    def _check(self, other) -> None:
        if not isinstance(other, AElement) or other.parent != self.parent:
            raise ValueError("elements from different quotients")

    def __add__(self, other):
        self._check(other)
        return AElement(self.parent, [a + b for a, b in zip(self.vec, other.vec)])

    def __sub__(self, other):
        self._check(other)
        return AElement(self.parent, [a - b for a, b in zip(self.vec, other.vec)])

    def __neg__(self):
        return AElement(self.parent, [-a for a in self.vec])

    def __mul__(self, other):
        self._check(other)
        return AElement(self.parent, self.parent.algebra.mul_coords(self.vec, other.vec))

    def is_zero(self) -> bool:
        return not any(self.vec)

    def __eq__(self, other) -> bool:
        return (isinstance(other, AElement) and self.parent == other.parent
                and self.vec == other.vec)

    def __hash__(self) -> int:
        return hash(self.vec)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for j, c in enumerate(self.coords):
            if c.is_zero():
                continue
            xj = "1" if j == 0 else ("x" if j == 1 else f"x^{j}")
            if j == 0:
                parts.append(f"({c})")
            else:
                parts.append(f"{xj}*({c})")
        return " + ".join(reversed(parts))

    def __repr__(self) -> str:
        return f"AElement({[list(c.coords) for c in self.coords]})"


def build_quotient(ring: SkewPolyRing, f: SkewPoly) -> QuotientRing:
    """Construct A = R/fR, enforcing the standing hypotheses on f."""
    if f.ring != ring:
        raise ValueError("polynomial from a different ring")
    if not f.is_monic() or f.degree() < 1:
        raise ValueError("f must be monic of degree >= 1")
    for i, c in enumerate(f.coeffs):
        if ring.rho.apply(c) != c:
            raise ScopeError(
                f"outside the fixed-coefficient scope: a_{i} is moved by the twist")
    ok, cert = is_invariant(f)
    if not ok:
        raise ScopeError(
            "f does not generate a two-sided ideal: " + cert.describe(ring.base),
            certificate=cert)
    return QuotientRing(ring, f)
