"""Separability and weak separability of A = R/fR over the coefficient ring.

Two independent routes are implemented.

The criterion route: A is separable over B iff some u in the twisted
centralizer for exponent 1 - m has trace 1, and weakly separable iff the
twist-1 centralizer cut down to the trace kernel equals the image of the
x-commutator on the base centralizer.  Everything is a finite exact
linear-algebra problem in the flat coordinates of A.

The oracle route: weak separability literally says every B-linear
derivation of A is an inner one, so derivation_module computes the full
module of B-derivations (as vectorized matrices, solving for the value
u at x from the two conditions e_s u = u rho(e_s) and delta(f) = 0) and the
submodule of inner derivations, and oracle_weakly_separable compares
them.  The two routes share no criterion-specific code, which is the
point: they must agree.

Relations that hold by theorem (commutator image inside the trace
kernel, separable implying weakly separable, derivation values at x
filling the whole twist-1 trace kernel, and under the identity twist
separable iff weakly separable with the trace mapping the base
centralizer onto the center) are asserted at runtime; a violation raises
InternalInvariantError, meaning the implementation, not the input, is
wrong.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import Matrix, Submodule, hnf, kernel, solve, sub_contains, sub_equal, sub_member
from .quotient import AElement, QuotientRing
from .rings import _times, mul_map_rows


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
    u = a.from_flat([sum(c * v for c, v in zip(coeffs, col)) for col in zip(*cand.basis)])
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

    exact_at_twist1 is the criterion itself.  The second flag says that
    the kernel of the x-commutator restricted to the base centralizer is
    the center of A.  QuotientRing.center computes that kernel, which
    contains the center by construction, so the flag checks the other
    inclusion by the definition: every basis row c has a zero inner
    derivation z -> cz - zc, read off the table.  No kernel is taken.  The
    equality is a theorem, so False would be an engine bug (and is also
    asserted elsewhere).
    """
    s1, s2 = _split_subgroups(a)
    zero = Matrix.zeros(a.dim, a.dim, a.coeff)
    return ExactnessReport(
        exact_at_twist1=sub_equal(s1, s2),
        commutator_kernel_is_center=all(
            inner_derivation_matrix(a, a.from_flat(row)) == zero for row in a.center().basis))


def _check_derivation_type(a: QuotientRing, witness: AElement | None) -> None:
    """Derivation type (identity twist): A is separable iff it is weakly
    separable and the trace maps the base centralizer V onto the center C.

    Separable implies weakly is asserted by the caller, so what is left is
    tr(V) = C exactly when there is a witness.  tr(V) lies in C, and so
    does 1; without a witness, is_separable's unsolvable system shows that
    1 is not in tr(V) (every twisted centralizer is V here).  A witness u
    gives each basis row c of C as tr(u c), with u c in V.  Only membership
    tests against subgroups already built: no Hermite form of tr(V).
    """
    v, c, t = a.base_centralizer(), a.center(), a.trace_matrix()
    if not all(sub_member(c, t.apply(row)) for row in v.basis):
        raise InternalInvariantError("trace of the base centralizer left the center")
    if not sub_member(c, a.one().flat()):
        raise InternalInvariantError("the unit is not in the center")
    if witness is None:
        return
    for row in c.basis:
        uc = (witness * a.from_flat(row)).flat()
        if not sub_member(v, uc) or t.apply(uc) != a.coeff.reduce_vec(row):
            raise InternalInvariantError(
                "trace of the base centralizer does not cover the center")


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
    if a.ring.rho.is_identity():
        _check_derivation_type(a, witness)
    s1, s2 = a.split_subgroups()
    return Verdict(separable=separable, witness=witness, weakly_separable=weakly,
                   trace_kernel_in_twist1=s1, commutator_image=s2,
                   exactness=report)


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
    span A.  Right B-linearity, delta(z b) = delta(z) b, is the rule with
    delta(b) = 0, so setting delta(x^i e_s) = delta(x^i) e_s makes the pairs
    (z, e_t) hold by construction and leaves (z, x) as the only equations;
    _derivations reduces them to two conditions on u = delta(x).  Inner
    derivations are the maps z -> vz - zv for v in the base centralizer
    (commutation with B forces v there).
    """
    dim = a.dim
    module = _derivations(a)
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


def _derivations(a: QuotientRing) -> Submodule:
    """The B-derivations of A as row-major dim x dim matrices, column p
    being delta(b_p).  With u = delta(x), the rule on (x^i, x) gives
    D_i = delta(x^i) = M_i u with M_1 = I and M_(i+1) = R(x) M_i + L(x^i),
    and column p = i * rank + s is D_i e_s = R(e_s) M_i u.  The rest of the
    rule on (z, x) is (rank + 1) * dim rows in the dim unknowns u:
    e_s u = u rho(e_s) for each s, and E u = 0, which says delta(f) = 0, with
    E = M_m + sum_(0 < l < m) R(a_l) M_l for f = x^m + sum_(l < m) x^l a_l.

    Take z = x^i b, b in B, and write b x = x rho(b) + D(b).  In A,
    x^m = -sum_(l < m) x^l a_l, so delta(x^m c) = (D_m - E u) c for c in B;
    with D_(i+1) - D_i x = x^i u, delta(z x) - delta(z) x - z u is
    x^i (u rho(b) - b u) for i < m - 1 and
    -(E u) rho(b) + x^(m-1) (u rho(b) - b u) for i = m - 1.  For m > 1 the
    pairs with i = 0 are the conditions e_s u = u rho(e_s), and then the last
    block is (E u) rho(e_s) = 0 for all s, which is E u = 0 as 1 = rho(1)
    lies in the span of the rho(e_s).  For m = 1, E = I and u = 0 is forced.
    """
    dim, m, coeff = a.dim, a.m, a.coeff
    alg, basis = a.algebra, a.base.basis()
    by_e = [mul_map_rows(alg, right=a.embed(e).flat()) for e in basis]
    by_x = mul_map_rows(alg, right=a.x_elem().flat())
    # on[i][s] = R(e_s) M_i, the matrix in u of D_i e_s
    on, m_i = [None], [[int(p == q) for q in range(dim)] for p in range(dim)]
    for i in range(1, m):
        on.append([_times(r, m_i) for r in by_e])
        m_i = [coeff.reduce_vec(row) for row in     # M_(i+1) = R(x) M_i + L(x^i)
               _times(by_x, m_i, mul_map_rows(alg, left=a.x_power(i).flat()))]
    e_rows = m_i    # E, with R(a_l) = sum_s (a_l)_s R(e_s)
    for l in range(1, m):
        for c, mat in zip(a.f.coefficient(l).coords, on[l]):
            if c:
                e_rows = [[e + c * v for e, v in zip(er, r)] for er, r in zip(e_rows, mat)]
    rows = [row for e in basis for row in mul_map_rows(     # L(e_s) - R(rho(e_s))
        alg, a.embed(e).flat(), [-v for v in a.embed(a.ring.rho.apply(e)).flat()])]
    gens = []
    for v in kernel(Matrix(rows + e_rows, coeff, cols=dim)).basis:
        cols = [[sum(e * w for e, w in zip(r, v)) for r in on[i][s]] if i else [0] * dim
                for i in range(m) for s in range(len(basis))]
        gens.append([e for row in zip(*cols) for e in row])
    return hnf(gens, coeff, dim=dim * dim)


def oracle_weakly_separable(a: QuotientRing) -> bool:
    """Decide weak separability by its definition: all derivations inner."""
    dm = derivation_module(a)
    return sub_equal(dm.module, dm.inner)


def inner_derivation_matrix(a: QuotientRing, v: AElement) -> Matrix:
    """Matrix of z -> vz - zv."""
    if v.parent != a:
        raise ValueError("element from a different quotient")
    return Matrix(mul_map_rows(a.algebra, v.flat(), [-e for e in v.flat()]),
                  a.coeff, cols=a.dim)


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
        raise ValueError("value is not in the trace kernel")
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
