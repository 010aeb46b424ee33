"""Exact linear algebra over ZZ and ZZ/n.

Everything in this module works on plain Python integers, so results are
exact for arbitrary coefficient sizes and for composite moduli.  Matrices
are immutable tuples of row tuples.  Additive subgroups of ZZ^N (or of
(ZZ/n)^N) are represented by a canonical row-style Hermite basis:

* pivots are positive and each row's leading nonzero entry is its pivot,
* entries above a pivot are reduced into [0, pivot),
* over ZZ/n the basis describes the preimage lattice L in ZZ^N with
  n*ZZ^N <= L.  The generators n*e_i are kept implicit: every pivot
  divides n, a pivot equal to n would make its row a multiple of n*e_i,
  so such rows are dropped and the stored rows have entries in [0, n).

Two subgroups are equal iff their stored bases are equal, which makes
sub_equal a plain comparison.  Pivot selection always prefers the
candidate with the smallest absolute value.

Hermite form is the only elimination in the package, and one routine
(_hnf_rows) computes it for both rings, with n == 0 standing for ZZ.  At
each column it runs Euclid on the rows with a nonzero entry there; rows
that reach zero stay in the working set and are never candidates again.
Kernels, solution sets (solve) and intersections (sub_intersect) are all
read off a Hermite kernel computed in the system's own ring, so work over
ZZ/n stays mod n; the particular solution solve returns is the
Hermite-reduced representative of its coset.  An inverse (matrix_inverse)
is one Hermite form of the rows (column j | e_j), with no solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with g = gcd(a, b) >= 0 and s*a + t*b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


@dataclass(frozen=True)
class CoeffRing:
    """ZZ (modulus 0) or ZZ/modulus for modulus >= 2."""

    modulus: int = 0

    def __post_init__(self) -> None:
        if self.modulus < 0 or self.modulus == 1:
            raise ValueError("modulus must be 0 (for ZZ) or >= 2")

    def reduce(self, x: int) -> int:
        return x % self.modulus if self.modulus else x

    def reduce_vec(self, v) -> tuple[int, ...]:
        n = self.modulus
        if n:
            return tuple(e % n for e in v)
        return tuple(int(e) for e in v)

    def is_unit(self, x: int) -> bool:
        if self.modulus:
            return gcd(x, self.modulus) == 1
        return x in (1, -1)

    def inverse(self, x: int) -> int:
        """Multiplicative inverse of a unit."""
        if self.modulus:
            g, s, _ = _xgcd(x, self.modulus)
            if g != 1:
                raise ValueError(f"{x} is not a unit mod {self.modulus}")
            return s % self.modulus
        if x in (1, -1):
            return x
        raise ValueError(f"{x} is not a unit in ZZ")

    def __str__(self) -> str:
        return f"ZZ/{self.modulus}" if self.modulus else "ZZ"


ZZ = CoeffRing(0)


class Matrix:
    """Immutable integer matrix with entries reduced into the coefficient ring."""

    __slots__ = ("rows", "cols", "entries", "coeff")

    def __init__(self, entries, coeff: CoeffRing, cols: int | None = None):
        ents = tuple(coeff.reduce_vec(row) for row in entries)
        if ents:
            cols = len(ents[0])
            if any(len(r) != cols for r in ents):
                raise ValueError("ragged rows")
        elif cols is None:
            raise ValueError("cols required for a matrix with no rows")
        object.__setattr__(self, "entries", ents)
        object.__setattr__(self, "rows", len(ents))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "coeff", coeff)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, n: int, coeff: CoeffRing) -> "Matrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)], coeff, cols=n)

    @classmethod
    def zeros(cls, rows: int, cols: int, coeff: CoeffRing) -> "Matrix":
        return cls([[0] * cols for _ in range(rows)], coeff, cols=cols)

    @classmethod
    def from_columns(cls, columns, coeff: CoeffRing, rows: int | None = None) -> "Matrix":
        cols = list(columns)
        if not cols:
            if rows is None:
                raise ValueError("rows required for a matrix with no columns")
            return cls([[] for _ in range(rows)] if rows else [], coeff, cols=0)
        nrows = len(cols[0])
        return cls([[c[i] for c in cols] for i in range(nrows)], coeff, cols=len(cols))

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def transpose(self) -> "Matrix":
        return Matrix.from_columns(self.entries, self.coeff, rows=self.cols)

    def apply(self, vec) -> tuple[int, ...]:
        """Matrix times column vector."""
        if len(vec) != self.cols:
            raise ValueError("dimension mismatch")
        red = self.coeff.reduce
        return tuple(red(sum(a * b for a, b in zip(row, vec))) for row in self.entries)

    def mul(self, other: "Matrix") -> "Matrix":
        if self.coeff != other.coeff or self.cols != other.rows:
            raise ValueError("dimension or coefficient mismatch")
        cols = list(zip(*other.entries)) if other.entries else []
        out = [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self.entries]
        return Matrix(out, self.coeff, cols=other.cols)

    def add(self, other: "Matrix") -> "Matrix":
        if self.coeff != other.coeff or (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension or coefficient mismatch")
        return Matrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)],
            self.coeff, cols=self.cols)

    def sub(self, other: "Matrix") -> "Matrix":
        if self.coeff != other.coeff or (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension or coefficient mismatch")
        return Matrix(
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)],
            self.coeff, cols=self.cols)

    def scale(self, c: int) -> "Matrix":
        return Matrix([[c * a for a in row] for row in self.entries], self.coeff, cols=self.cols)

    def is_identity(self) -> bool:
        if self.rows != self.cols:
            return False
        one = self.coeff.reduce(1)
        return all(e == (one if i == j else 0)
                   for i, row in enumerate(self.entries) for j, e in enumerate(row))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.coeff == other.coeff
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self) -> int:
        return hash((self.coeff, self.cols, self.entries))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(e) for e in row) for row in self.entries)
        return f"Matrix({self.rows}x{self.cols} over {self.coeff}: {body})"


@dataclass(frozen=True)
class Submodule:
    """Additive subgroup of coeff^ambient_dim in canonical Hermite form."""

    ambient_dim: int
    coeff: CoeffRing
    basis: tuple[tuple[int, ...], ...]

    @classmethod
    def zero(cls, dim: int, coeff: CoeffRing) -> "Submodule":
        return cls(dim, coeff, ())

    @property
    def rank(self) -> int:
        """Number of stored basis rows (the n*e_i generators stay implicit)."""
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def __repr__(self) -> str:
        rows = ", ".join(str(list(r)) for r in self.basis)
        return f"Submodule(dim={self.ambient_dim} over {self.coeff}: [{rows}])"


def _row_sub(a, q: int, b, n: int) -> list[int]:
    """a - q*b, reduced mod n when n > 0."""
    if n:
        return [(x - q * y) % n for x, y in zip(a, b)]
    return [x - q * y for x, y in zip(a, b)]


def _hnf_rows(rows, ncols: int, n: int) -> list[list[int]]:
    """Canonical kept rows of the lattice spanned by rows (and n*ZZ^ncols if n).

    n == 0 means ZZ.  Over ZZ/n entries stay reduced mod n throughout, which
    keeps the arithmetic on small ints.  Whenever a pivot d < n is created
    at some column, the implicit generator n*e_col leaves the residue
    -(n//d)*pivot_row, which is pushed back into the working set so no
    lattice content is lost.
    """
    work = []
    seen = set()
    for r in rows:
        t = tuple(e % n for e in r) if n else tuple(r)
        if any(t) and t not in seen:
            seen.add(t)
            work.append(list(t))
    zero = [0] * ncols
    pivots: list[tuple[int, list[int]]] = []
    for col in range(ncols):
        cands = [r for r in work if r[col]]
        if not cands:
            continue
        while len(cands) > 1:
            cands.sort(key=lambda r: abs(r[col]))
            p = cands[0]
            pc = p[col]
            for r in cands[1:]:
                r[:] = _row_sub(r, r[col] // pc, p, n)
            cands = [p] + [r for r in cands[1:] if r[col]]
        pr = cands[0]
        g = pr[col]
        d, s, _ = _xgcd(g, n)
        if d != g:
            # realize gcd(g, n) at this column (over ZZ: make the pivot
            # positive); keep the reduced original row, multiplying a row by
            # a zero divisor may drop lattice content
            newr = _row_sub(zero, -s, pr, n)         # s * pr
            pr[:] = _row_sub(pr, g // d, newr, n)
            pr = newr
        else:
            work.remove(pr)
        if n:
            residue = _row_sub(zero, n // d, pr, n)
            if any(residue):
                work.append(residue)
        pivots.append((col, pr))
    for idx, (col, prow) in enumerate(pivots):
        d = prow[col]
        for _, earlier in pivots[:idx]:
            q = earlier[col] // d
            if q:
                earlier[:] = _row_sub(earlier, q, prow, n)
    return [r for _, r in pivots]


def hnf(gens, coeff: CoeffRing, dim: int | None = None) -> Submodule:
    """Canonical Hermite basis of the subgroup generated by gens."""
    gens = list(gens)
    if dim is None:
        if not gens:
            raise ValueError("dim required when there are no generators")
        dim = len(gens[0])
    if any(len(g) != dim for g in gens):
        raise ValueError("generators of mixed length")
    rows = _hnf_rows(gens, dim, coeff.modulus)
    return Submodule(dim, coeff, tuple(tuple(r) for r in rows))


def _kernel_rows(mat: Matrix) -> list[tuple[int, ...]]:
    """Canonical basis rows of {x : mat * x = 0} via HNF of [mat^T | I]."""
    q, p = mat.rows, mat.cols
    aug = []
    for j in range(p):
        row = [r[j] for r in mat.entries]
        row.extend(1 if t == j else 0 for t in range(p))
        aug.append(row)
    return [tuple(row[q:]) for row in _hnf_rows(aug, q + p, mat.coeff.modulus)
            if not any(row[:q])]


def kernel(mat: Matrix) -> Submodule:
    """Solution subgroup of mat * x = 0."""
    return Submodule(mat.cols, mat.coeff, tuple(_kernel_rows(mat)))


def solve(mat: Matrix, b):
    """Solve mat * x = b exactly, in the system's own coefficient ring.

    The solutions are read off the Hermite kernel of [-b | mat]: its pairs
    (t, x) with mat * x = t * b.  The system is solvable iff the first
    kernel row is (1, x), and the tails of the remaining rows are then the
    canonical basis of kernel(mat).  So x is the Hermite-reduced
    representative of x + K: at each pivot column of K its entry lies in
    [0, pivot).

    Returns None when no solution exists, otherwise (x, K) where x is one
    solution and K is the Submodule of homogeneous solutions, so the full
    solution set is x + K.
    """
    if len(b) != mat.rows:
        raise ValueError("dimension mismatch")
    aug = Matrix([(-e,) + row for e, row in zip(b, mat.entries)], mat.coeff,
                 cols=mat.cols + 1)
    rows = _kernel_rows(aug)
    if not rows or rows[0][0] != 1:
        return None
    return rows[0][1:], Submodule(mat.cols, mat.coeff, tuple(r[1:] for r in rows[1:]))


def matrix_inverse(mat: Matrix):
    """Inverse over the coefficient ring, or None when not invertible.

    The rows (column j of mat | e_j) span the pairs (b mat^T, b).  Their
    Hermite form is (I | U) exactly when mat is invertible, and then
    U mat^T = I, so U^T is the inverse.
    """
    nn = mat.rows
    if nn != mat.cols:
        return None
    eye = [[1 if t == j else 0 for t in range(nn)] for j in range(nn)]
    rows = _hnf_rows([list(mat.column(j)) + e for j, e in enumerate(eye)], 2 * nn,
                     mat.coeff.modulus)
    if [row[:nn] for row in rows] != eye:
        return None
    return Matrix.from_columns([row[nn:] for row in rows], mat.coeff, rows=nn)


def _check_compatible(a: Submodule, b: Submodule) -> None:
    if a.ambient_dim != b.ambient_dim or a.coeff != b.coeff:
        raise ValueError("submodules live in different ambient modules")


def sub_member(s: Submodule, v) -> bool:
    """Is the vector v in s?  Greedy reduction against the triangular basis."""
    if len(v) != s.ambient_dim:
        raise ValueError("dimension mismatch")
    n = s.coeff.modulus
    v = list(s.coeff.reduce_vec(v))
    for row in s.basis:
        col = next(i for i, e in enumerate(row) if e)
        d = row[col]
        if v[col] % d:
            return False
        q = v[col] // d
        if q:
            v = _row_sub(v, q, row, n)
    return not any(v)


def sub_contains(a: Submodule, b: Submodule) -> bool:
    """Is b a subgroup of a?"""
    _check_compatible(a, b)
    return all(sub_member(a, row) for row in b.basis)


def sub_equal(a: Submodule, b: Submodule) -> bool:
    _check_compatible(a, b)
    return a.basis == b.basis


def sub_intersect(a: Submodule, b: Submodule) -> Submodule:
    """Intersection, read off the kernel of [a | -b] in the subgroups' own ring.

    Each kernel vector (lam, mu) gives lam * a = mu * b, an element of both
    subgroups, and every common element arises this way.
    """
    _check_compatible(a, b)
    dim, coeff = a.ambient_dim, a.coeff
    if a.is_zero() or b.is_zero():
        return Submodule.zero(dim, coeff)
    cols = list(a.basis) + [[-e for e in r] for r in b.basis]
    stacked = Matrix.from_columns(cols, coeff, rows=dim)
    span_a = Matrix.from_columns(a.basis, coeff, rows=dim)
    gens = [span_a.apply(lam[:a.rank]) for lam in kernel(stacked).basis]
    return hnf(gens, coeff, dim=dim)
