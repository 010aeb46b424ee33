"""Separability and weak separability of A = R/fR over the coefficient ring.

Two independent routes are implemented.

The criterion route: A is separable over B iff some u in the twisted
centralizer for exponent 1 - m has trace 1, and weakly separable iff the
twist-1 centralizer cut down to the trace kernel equals the image of the
x-commutator on the base centralizer.  Everything is a finite exact
linear-algebra problem in the flat coordinates of A.

The oracle route: weak separability literally says every B-linear
derivation of A is an inner one, so derivation_module computes the full
module of B-derivations (as vectorized matrices, imposing the Leibniz
rule on generator pairs: a basis element times e_t or x) and the
submodule of inner derivations, and oracle_weakly_separable compares
them.  The two routes share no criterion-specific code, which is the
point: they must agree.

Inclusions that hold by theorem (commutator image inside the trace
kernel, separable implying weakly separable, derivation values at x
filling the whole twist-1 trace kernel) are asserted at runtime; a
violation raises InternalInvariantError, meaning the implementation, not
the input, is wrong.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import Matrix, Submodule, hnf, kernel, solve, \
    sub_contains, sub_equal, sub_intersect, sub_member
from .quotient import AElement, QuotientRing
from .rings import commutant, left_mul_matrix, right_mul_matrix


class InternalInvariantError(RuntimeError):
    """A relation that is a theorem failed; the engine itself is broken."""


@dataclass(frozen=True)
class ExactnessReport:
    """Exactness of the base-centralizer / twist-1 / trace sequence."""

    exact_at_twist1: bool
    commutator_kernel_is_center: bool


@dataclass(frozen=True)
class Verdict:
    separable: bool
    witness: AElement | None
    weakly_separable: bool
    trace_kernel_in_twist1: Submodule   # twist-1 centralizer cut to Ker(trace)
    commutator_image: Submodule         # x-commutator image of the base centralizer
    exactness: ExactnessReport


@dataclass(frozen=True)
class DerivationTypeReport:
    """Verdicts recomputed through the trivial-twist exact sequences."""

    weakly_separable: bool
    separable: bool
    trace_image_in_center: bool


@dataclass(frozen=True)
class DerivationModule:
    """All B-derivations of A next to the inner ones, as vectorized matrices."""

    dim: int
    module: Submodule      # subgroup of coeff^(dim*dim), row-major matrices
    inner: Submodule

    def matrices(self) -> list[Matrix]:
        """Generators of the full module, unflattened."""
        return [_unvectorize(row, self.dim, self.module.coeff)
                for row in self.module.basis]


def _unvectorize(row, dim: int, coeff) -> Matrix:
    return Matrix([row[p * dim:(p + 1) * dim] for p in range(dim)], coeff, cols=dim)


def is_separable(a: QuotientRing) -> tuple[bool, AElement | None]:
    """Search the twisted centralizer for a trace-1 element.

    The centralizer basis parametrizes every admissible candidate, so an
    unsolvable linear system is a proof of non-separability, not a missed
    witness.
    """
    target = a.one().flat()
    cand = a.twisted_centralizer(1 - a.m)
    if cand.is_zero():
        return False, None
    tmat = a.trace_matrix()
    cols = [tmat.apply(row) for row in cand.basis]
    system = Matrix.from_columns(cols, a.coeff, rows=a.dim)
    res = solve(system, target)
    if res is None:
        return False, None
    coeffs, _ = res
    u = a.zero()
    for c, row in zip(coeffs, cand.basis):
        u = u + a.from_flat(row).scale(c)
    if a.trace(u) != a.one():
        raise InternalInvariantError("witness reconstruction lost the trace")
    return True, u


def _split_subgroups(a: QuotientRing):
    s1, s2 = a.split_subgroups()
    if not sub_contains(s1, s2):
        raise InternalInvariantError(
            "commutator image escaped the twist-1 trace kernel")
    return s1, s2


def exactness_report(a: QuotientRing) -> ExactnessReport:
    """Exactness facts behind the weak-separability criterion.

    exact_at_twist1 is the criterion itself.  The second flag compares
    the kernel of the x-commutator restricted to the base centralizer
    with the center of A; their equality is a theorem, so False would be
    an engine bug (and is also asserted elsewhere).  That kernel is the
    commutant of x, found like every other centralizer.
    """
    s1, s2 = _split_subgroups(a)
    x = a.x_elem().flat()
    restr_kernel = sub_intersect(a.base_centralizer(), commutant(a.algebra, [(x, x)]))
    return ExactnessReport(
        exact_at_twist1=sub_equal(s1, s2),
        commutator_kernel_is_center=sub_equal(restr_kernel, a.center()))


def is_weakly_separable(a: QuotientRing) -> Verdict:
    """Full criterion-route verdict for A = R/fR."""
    report = exactness_report(a)
    weakly = report.exact_at_twist1
    separable, witness = is_separable(a)
    if separable and not weakly:
        raise InternalInvariantError("separable instance judged not weakly separable")
    if not report.commutator_kernel_is_center:
        raise InternalInvariantError(
            "kernel of the restricted x-commutator is not the center")
    s1, s2 = a.split_subgroups()
    return Verdict(separable=separable, witness=witness, weakly_separable=weakly,
                   trace_kernel_in_twist1=s1, commutator_image=s2,
                   exactness=report)


def derivation_type_report(a: QuotientRing) -> DerivationTypeReport:
    """Trivial-twist reformulation of both verdicts; asserts agreement.

    Requires the twist to be the identity.  In that case every twisted
    centralizer collapses to the base centralizer V, so the split subgroups
    are V intersect Ker(trace) and the x-commutator image of V, the
    verdicts become exactness statements about V -> V -> C(A), and
    separability adds surjectivity of the trace onto the center.
    """
    if not a.ring.rho.is_identity():
        raise ValueError("derivation-type report needs the identity twist")
    v = a.base_centralizer()
    c = a.center()
    trace_image = hnf([a.trace_matrix().apply(row) for row in v.basis],
                      a.coeff, dim=a.dim)
    if not sub_contains(c, trace_image):
        raise InternalInvariantError("trace image of the base centralizer "
                                     "left the center")
    middle, commutators = _split_subgroups(a)
    weakly = sub_equal(middle, commutators)
    separable = weakly and sub_equal(trace_image, c)
    if separable != is_separable(a)[0]:
        raise InternalInvariantError(
            "derivation-type sequences disagree with the criterion route")
    return DerivationTypeReport(weakly_separable=weakly, separable=separable,
                                trace_image_in_center=True)


# ----------------------------------------------------------------- oracle

def derivation_module(a: QuotientRing) -> DerivationModule:
    """Every B-linear derivation of A, computed from first principles.

    A derivation is an additive map delta with delta(B) = 0, so delta(1) = 0,
    and delta(zw) = delta(z) w + z delta(w).  The rule is imposed only on
    the pairs (z, s), z a basis element and s in S = {e_0 .. e_{rank-1}, x},
    which generates A as a ring.  That is enough: by additivity it holds on
    (a, s) for all a in A, and if it holds on (a, w) for all a, then
    delta(a w s) = delta(a w) s + a w delta(s) = delta(a) w s + a delta(w s),
    so by induction on word length it holds on every word in S, and those
    span A.  The e_t equations read delta(z e_t) = delta(z) e_t.  That is
    dim^2 (rank + 1) equations instead of dim^3.  Inner derivations are the
    maps z -> vz - zv for v in the base centralizer (commutation with B
    forces v there).
    """
    dim = a.dim
    gens = [a.embed(b).flat() for b in a.base.basis()] + [a.x_elem().flat()]
    module = _derivations(a.algebra.structure, gens, range(a.base.rank), a.coeff)
    inner_gens = []
    for vrow in a.base_centralizer().basis:
        ad = inner_derivation_matrix(a, a.from_flat(vrow))
        inner_gens.append([e for r in ad.entries for e in r])
    inner = hnf(inner_gens, a.coeff, dim=dim * dim)
    if not sub_contains(module, inner):
        raise InternalInvariantError("an inner derivation failed the Leibniz system")
    xflat = a.x_elem().flat()
    values_at_x = hnf([_unvectorize(row, dim, a.coeff).apply(xflat)
                       for row in module.basis], a.coeff, dim=dim)
    s1, _ = _split_subgroups(a)
    if not sub_equal(values_at_x, s1):
        raise InternalInvariantError(
            "derivation values at x do not match the twist-1 trace kernel")
    return DerivationModule(dim=dim, module=module, inner=inner)


def _derivations(struct, gens, killed, coeff) -> Submodule:
    """Additive maps delta of a structure-constant ring, as row-major
    dim x dim matrices (column j is delta(z_j)), with delta(z_t) = 0 for t
    in killed and delta(z g) = delta(z) g + z delta(g) for every basis
    element z and every g in gens (flat vectors).  The killed columns are
    not unknowns of the linear system.
    """
    dim = len(struct)
    killed = set(killed)
    free = {j: k for k, j in enumerate(j for j in range(dim) if j not in killed)}
    width = len(free)   # unknown delta(z_j)[p] sits in column p * width + free[j]
    rows = set()
    for g in gens:
        support = [(q, c) for q, c in enumerate(g) if c]
        # right[s][p] = flat(z_s g)[p], entry (p, s) of right multiplication by g
        right = [[sum(c * struct[s][q][p] for q, c in support) for p in range(dim)]
                 for s in range(dim)]
        live = [(free[q], c) for q, c in support if q in free]      # delta(g)
        for i in range(dim):
            zg = [(free[s], c) for s, c in enumerate(right[i]) if c and s in free]
            col_i = free.get(i)
            for p in range(dim):
                row = [0] * (dim * width)
                for k, c in zg:                  # delta(z_i g)
                    row[p * width + k] += c
                for s in range(dim):
                    base = s * width
                    c = right[s][p]
                    if c and col_i is not None:  # delta(z_i) g
                        row[base + col_i] -= c
                    c = struct[i][s][p]          # z_i delta(g)
                    if c:
                        for k, gq in live:
                            row[base + k] -= c * gq
                row = coeff.reduce_vec(row)
                if any(row):
                    rows.add(row)
    basis = []
    for r in kernel(Matrix(sorted(rows), coeff, cols=dim * width)).basis:
        cells = iter(r)
        basis.append(tuple(0 if j in killed else next(cells)
                           for _ in range(dim) for j in range(dim)))
    return Submodule(dim * dim, coeff, tuple(basis))


def oracle_weakly_separable(a: QuotientRing) -> bool:
    """Decide weak separability by its definition: all derivations inner."""
    dm = derivation_module(a)
    return sub_equal(dm.module, dm.inner)


def inner_derivation_matrix(a: QuotientRing, v: AElement) -> Matrix:
    """Matrix of z -> vz - zv."""
    if v.parent != a:
        raise ValueError("element from a different quotient")
    elem = a.algebra.element(v.flat())
    return left_mul_matrix(a.algebra, elem).sub(right_mul_matrix(a.algebra, elem))


def derivation_from_value(a: QuotientRing, u: AElement) -> Matrix:
    """The B-derivation of A sending x to u, as a dim x dim matrix.

    u must lie in the twist-1 centralizer and in the trace kernel; those
    are exactly the values a derivation can take at x.  The values on the
    basis follow by table products: delta(x^(j+1)) = delta(x^j) x + x^j u
    and delta(x^j e_t) = delta(x^j) e_t.  Such a map is well defined on
    A = R/fR exactly when delta(f) = sum_k delta(x^k) a_k vanishes, which
    the twist-1 and trace checks guarantee and which is asserted.
    """
    if u.parent != a:
        raise ValueError("element from a different quotient")
    if not sub_member(a.twisted_centralizer(1), u.flat()):
        raise ValueError("value is not in the twist-1 centralizer")
    if not a.trace(u).is_zero():
        raise ValueError("value is not killed by the trace")
    on_powers = [a.zero(), u]       # delta(x^j) for j = 0..m
    for j in range(1, a.m):
        on_powers.append(on_powers[j] * a.x_elem() + a.x_power(j) * u)
    on_f = a.zero()
    for k in range(1, a.m + 1):
        on_f = on_f + on_powers[k] * a.embed(a.f.coefficient(k))
    if not on_f.is_zero():
        raise InternalInvariantError("derivation does not vanish on f")
    cols = [(on_powers[j] * a.embed(e)).flat()
            for j in range(a.m) for e in a.base.basis()]
    return Matrix.from_columns(cols, a.coeff, rows=a.dim)
