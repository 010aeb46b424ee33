"""Finitely generated base rings presented by structure constants.

A ring B is given by a free coefficient module coeff^rank with a basis
e_0..e_{r-1}, a unit vector, and structure constants c[i][j] = coordinates
of e_i * e_j.  Additive maps (automorphism candidates, derivation
candidates) are square matrices whose column i is the image of e_i.

Validation is explicit and returns human-readable violation lists instead
of raising, so callers can surface certificates.  The axioms are only
checked on basis elements; bilinearity extends them to the whole ring.
"""

from __future__ import annotations

from .linalg import CoeffRing, Matrix, Submodule, kernel, matrix_inverse, sub_intersect


class BaseRing:
    __slots__ = ("coeff", "rank", "structure", "unit", "names")

    def __init__(self, coeff: CoeffRing, structure, unit, names=None):
        rank = len(structure)
        if rank == 0:
            raise ValueError("rank must be at least 1")
        struct = []
        for i, plane in enumerate(structure):
            if len(plane) != rank:
                raise ValueError("structure constants are not rank x rank x rank")
            row = []
            for j, vec in enumerate(plane):
                if len(vec) != rank:
                    raise ValueError("structure constants are not rank x rank x rank")
                row.append(coeff.reduce_vec(vec))
            struct.append(tuple(row))
        if len(unit) != rank:
            raise ValueError("unit vector has wrong length")
        if names is not None:
            names = tuple(str(x) for x in names)
            if len(names) != rank:
                raise ValueError("basis_names has wrong length")
        self.coeff = coeff
        self.rank = rank
        self.structure = tuple(struct)
        self.unit = coeff.reduce_vec(unit)
        self.names = names

    def element(self, coords) -> "RingElement":
        return RingElement(self, coords)

    def zero(self) -> "RingElement":
        return RingElement(self, (0,) * self.rank)

    def one(self) -> "RingElement":
        return RingElement(self, self.unit)

    def basis_element(self, i: int) -> "RingElement":
        return RingElement(self, tuple(1 if j == i else 0 for j in range(self.rank)))

    def basis(self) -> list["RingElement"]:
        return [self.basis_element(i) for i in range(self.rank)]

    def mul_coords(self, a, b) -> tuple[int, ...]:
        red = self.coeff.reduce
        out = [0] * self.rank
        struct = self.structure
        for i, ai in enumerate(a):
            if not ai:
                continue
            plane = struct[i]
            for j, bj in enumerate(b):
                if not bj:
                    continue
                c = ai * bj
                vec = plane[j]
                for k, v in enumerate(vec):
                    if v:
                        out[k] += c * v
        return tuple(red(x) for x in out)

    def name_of(self, i: int) -> str:
        return self.names[i] if self.names else f"e{i}"

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (isinstance(other, BaseRing) and self.coeff == other.coeff
                and self.structure == other.structure and self.unit == other.unit)

    def __hash__(self) -> int:
        return hash((self.coeff, self.structure, self.unit))

    def __repr__(self) -> str:
        return f"BaseRing(rank {self.rank} over {self.coeff})"


class RingElement:
    __slots__ = ("ring", "coords")

    def __init__(self, ring: BaseRing, coords):
        if len(coords) != ring.rank:
            raise ValueError("coordinate vector has wrong length")
        self.ring = ring
        self.coords = ring.coeff.reduce_vec(coords)

    def _check(self, other) -> None:
        if not isinstance(other, RingElement) or other.ring != self.ring:
            raise ValueError("elements of different rings")

    def __add__(self, other):
        self._check(other)
        return RingElement(self.ring, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        self._check(other)
        return RingElement(self.ring, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return RingElement(self.ring, tuple(-a for a in self.coords))

    def __mul__(self, other):
        self._check(other)
        return RingElement(self.ring, self.ring.mul_coords(self.coords, other.coords))

    def scale(self, c: int) -> "RingElement":
        return RingElement(self.ring, tuple(c * a for a in self.coords))

    def is_zero(self) -> bool:
        return not any(self.coords)

    def __eq__(self, other) -> bool:
        return (isinstance(other, RingElement) and self.ring == other.ring
                and self.coords == other.coords)

    def __hash__(self) -> int:
        return hash(self.coords)

    def __str__(self) -> str:
        terms = []
        for i, c in enumerate(self.coords):
            if not c:
                continue
            name = self.ring.name_of(i)
            terms.append(name if c == 1 else f"{c}*{name}")
        return " + ".join(terms) if terms else "0"

    def __repr__(self) -> str:
        return f"RingElement({list(self.coords)})"


class RingMap:
    """Additive self-map of a BaseRing, stored column-style (column i = image of e_i)."""

    __slots__ = ("ring", "matrix")

    def __init__(self, ring: BaseRing, matrix: Matrix):
        if matrix.rows != ring.rank or matrix.cols != ring.rank or matrix.coeff != ring.coeff:
            raise ValueError("map matrix must be rank x rank over the ring's coefficients")
        self.ring = ring
        self.matrix = matrix

    @classmethod
    def from_images(cls, ring: BaseRing, images) -> "RingMap":
        """Build from the list of images of e_0..e_{r-1}."""
        cols = [img.coords if isinstance(img, RingElement) else img for img in images]
        return cls(ring, Matrix.from_columns(cols, ring.coeff, rows=ring.rank))

    @classmethod
    def identity(cls, ring: BaseRing) -> "RingMap":
        return cls(ring, Matrix.identity(ring.rank, ring.coeff))

    @classmethod
    def zero(cls, ring: BaseRing) -> "RingMap":
        return cls(ring, Matrix.zeros(ring.rank, ring.rank, ring.coeff))

    def apply(self, elem: RingElement) -> RingElement:
        return RingElement(self.ring, self.matrix.apply(elem.coords))

    def compose(self, other: "RingMap") -> "RingMap":
        """self after other."""
        return RingMap(self.ring, self.matrix.mul(other.matrix))

    def add(self, other: "RingMap") -> "RingMap":
        return RingMap(self.ring, self.matrix.add(other.matrix))

    def inverse(self) -> "RingMap":
        inv = matrix_inverse(self.matrix)
        if inv is None:
            raise ValueError("map is not invertible over the coefficient ring")
        return RingMap(self.ring, inv)

    def is_identity(self) -> bool:
        return self.matrix.is_identity()

    def __eq__(self, other) -> bool:
        return (isinstance(other, RingMap) and self.ring == other.ring
                and self.matrix == other.matrix)

    def __hash__(self) -> int:
        return hash(self.matrix)

    def __repr__(self) -> str:
        return f"RingMap({self.matrix!r})"


def mul_map_rows(ring: BaseRing, left=(), right=()) -> list[list[int]]:
    """Rows of the matrix of z -> left * z + z * right, read off the table.

    With c(i, j, k) the e_k coordinate of e_i * e_j, L(a)[p][q] =
    sum_i a_i c(i, q, p) and R(b)[p][q] = sum_j b_j c(q, j, p); zero
    coefficients are skipped.  The entries are left unreduced.
    """
    rank, struct = ring.rank, ring.structure
    rows = [[0] * rank for _ in range(rank)]
    for i, a in enumerate(left):
        if a:
            for q, vec in enumerate(struct[i]):
                for p, c in enumerate(vec):
                    if c:
                        rows[p][q] += a * c
    for j, b in enumerate(right):
        if b:
            for q, plane in enumerate(struct):
                for p, c in enumerate(plane[j]):
                    if c:
                        rows[p][q] += b * c
    return rows


def left_mul_matrix(ring: BaseRing, elem: RingElement) -> Matrix:
    return Matrix(mul_map_rows(ring, left=elem.coords), ring.coeff, cols=ring.rank)


def right_mul_matrix(ring: BaseRing, elem: RingElement) -> Matrix:
    return Matrix(mul_map_rows(ring, right=elem.coords), ring.coeff, cols=ring.rank)


def validate_ring(ring: BaseRing) -> list[str]:
    """Associativity and unit axioms on basis elements; empty list means valid."""
    out = []
    one = ring.one()
    for i, e in enumerate(ring.basis()):
        if one * e != e:
            out.append(f"unit fails on the left of {ring.name_of(i)}")
        if e * one != e:
            out.append(f"unit fails on the right of {ring.name_of(i)}")
    basis = ring.basis()
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            ab = a * b
            for k, c in enumerate(basis):
                if (ab * c) != (a * (b * c)):
                    out.append(
                        "associativity fails at basis triple "
                        f"({ring.name_of(i)}, {ring.name_of(j)}, {ring.name_of(k)})")
    return out


def validate_automorphism(ring: BaseRing, rho: RingMap) -> list[str]:
    """Ring automorphism axioms: multiplicative, unital, invertible."""
    out = []
    if rho.apply(ring.one()) != ring.one():
        out.append("automorphism does not fix the unit")
    basis = ring.basis()
    for i, a in enumerate(basis):
        fa = rho.apply(a)
        for j, b in enumerate(basis):
            if rho.apply(a * b) != fa * rho.apply(b):
                out.append(
                    "multiplicativity fails at basis pair "
                    f"({ring.name_of(i)}, {ring.name_of(j)})")
    if matrix_inverse(rho.matrix) is None:
        out.append("map matrix is not invertible over the coefficient ring")
    return out


def validate_derivation(ring: BaseRing, deriv: RingMap, rho: RingMap) -> list[str]:
    """Twisted Leibniz rule D(ab) = D(a)*rho(b) + a*D(b) on basis pairs."""
    out = []
    if not deriv.apply(ring.one()).is_zero():
        out.append("derivation does not kill the unit")
    basis = ring.basis()
    for i, a in enumerate(basis):
        da = deriv.apply(a)
        for j, b in enumerate(basis):
            lhs = deriv.apply(a * b)
            rhs = da * rho.apply(b) + a * deriv.apply(b)
            if lhs != rhs:
                out.append(
                    "Leibniz rule fails at basis pair "
                    f"({ring.name_of(i)}, {ring.name_of(j)})")
    return out


def fixed_subring(ring: BaseRing, conditions) -> Submodule:
    """Joint solution subgroup of (map, mode) conditions.

    mode "fixed-point" selects elements with map(x) = x, mode "kernel"
    selects map(x) = 0.  The result is the coordinate subgroup; it is
    closed under multiplication when the maps are an automorphism and a
    matching twisted derivation.
    """
    rows = []
    ident = Matrix.identity(ring.rank, ring.coeff)
    for mp, mode in conditions:
        if mode == "fixed-point":
            rows.extend(mp.matrix.sub(ident).entries)
        elif mode == "kernel":
            rows.extend(mp.matrix.entries)
        else:
            raise ValueError(f"unknown mode {mode!r}")
    if not rows:
        rows = Matrix.zeros(1, ring.rank, ring.coeff).entries
    return kernel(Matrix(rows, ring.coeff, cols=ring.rank))


def commutant(ring: BaseRing, pairs) -> Submodule:
    """Elements u with a u = u b for every pair (a, b) of coordinate vectors:
    the kernel of the stacked rows L(a) - R(b)."""
    rows = []
    for a, b in pairs:
        rows.extend(mul_map_rows(ring, a, [-v for v in b]))
    return kernel(Matrix(rows, ring.coeff, cols=ring.rank))


def centralizer(ring: BaseRing, sub: Submodule) -> Submodule:
    """Elements of sub commuting with every element of sub."""
    if sub.ambient_dim != ring.rank or sub.coeff != ring.coeff:
        raise ValueError("subgroup does not live in the ring's coordinate module")
    return sub_intersect(sub, commutant(ring, [(v, v) for v in sub.basis]))
