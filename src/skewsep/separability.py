"""Separability and weak separability of A = R/fR over the coefficient ring.

Two independent routes are implemented.

The criterion route: A is separable over B iff some u in the twisted
centralizer for exponent 1 - m has trace 1, and weakly separable iff the
twist-1 centralizer cut down to the trace kernel equals the image of the
x-commutator on the base centralizer.  Everything is a finite exact
linear-algebra problem in the flat coordinates of A.

The oracle route: weak separability literally says every B-linear
derivation of A is an inner one, so derivation_module computes the full
module of B-derivations (as vectorized matrices, solving the Leibniz rule
on the pairs (basis element, x) for the value at x alone) and the
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

from .linalg import Matrix, Submodule, hnf, kernel, solve, \
    sub_contains, sub_equal, sub_intersect, sub_member
from .quotient import AElement, QuotientRing
from .rings import commutant, mul_map_rows


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
    (z, e_t) hold by construction and leaves (z, x) as the only equations.
    On (x^i, x) they say delta(x^(i+1)) = delta(x^i) x + x^i delta(x), so
    they are solved for u = delta(x) alone, in dim unknowns.  Inner
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
    being delta(b_p).  With u = delta(x), D_i = delta(x^i) has D_0 = 0 and
    D_(i+1) = D_i x + x^i u, so D_i = M_i u with M_0 = 0, M_1 = I and
    M_(i+1) = R(x) M_i + L(x^i).  Column p = i * rank + s is D_i e_s =
    R(e_s) M_i u, and delta(b_p x) = delta(b_p) x + b_p u for every p gives
    dim^2 equations in the dim unknowns u.  For m = 1 only 0 is left.
    """
    dim, m, rank, coeff = a.dim, a.m, a.base.rank, a.coeff
    if m == 1:
        return Submodule.zero(dim * dim, coeff)
    alg, xflat, one = a.algebra, a.x_elem().flat(), a.one().flat()
    by_e = [mul_map_rows(alg, right=a.embed(e).flat()) for e in a.base.basis()]
    by_x = mul_map_rows(alg, right=xflat)
    # delta(b_p) x = R(x) R(e_s) D_i = R(e_s x) D_i, and e_s x is column s of R(x)
    x_by_e = [mul_map_rows(alg, right=[row[s] for row in by_x]) for s in range(rank)]
    # on[i][s] = (R(e_s) M_i, R(e_s x) M_i), the matrices in u of D_i e_s and D_i e_s x
    on, m_i = [None, list(zip(by_e, x_by_e))], None
    for i in range(2, m):   # M_i = R(x) M_(i-1) + L(x^(i-1)); x^j = x^j 1 is 1 moved up j blocks
        x_j = (0,) * (i - 1) * rank + one[:dim - (i - 1) * rank]
        m_i = [coeff.reduce_vec(row) for row in (
            _times(by_x, m_i, mul_map_rows(alg, left=x_j)) if m_i else mul_map_rows(alg, x_j, x_j))]
        on.append([(_times(r, m_i), _times(rx, m_i)) for r, rx in zip(by_e, x_by_e)])
    rows = set()
    for p in range(dim):
        i, s = divmod(p, rank)
        # (rows of a dim x dim matrix M, c): the term c M u of the equations for b_p
        terms = [(on[r // rank][r % rank][0], row[p])      # delta(b_p x), b_p x = sum c b_r
                 for r, row in enumerate(by_x) if row[p] and r >= rank]
        if i:
            terms.append((on[i][s][1], -1))                 # delta(b_p) x
        terms.append((list(zip(*alg.structure[p])), -1))  # b_p u, L(b_p)[q][k] = c(p, k, q)
        for q in range(dim):
            row = [0] * dim
            for mat, c in terms:
                for k, v in enumerate(mat[q]):
                    if v:
                        row[k] += c * v
            rows.add(coeff.reduce_vec(row))
    rows.discard((0,) * dim)
    gens = []
    for v in kernel(Matrix(sorted(rows), coeff, cols=dim)).basis:
        cols = [[sum(e * w for e, w in zip(r, v)) for r in on[i][s][0]] if i else [0] * dim
                for i in range(m) for s in range(rank)]
        gens.append([e for row in zip(*cols) for e in row])
    return hnf(gens, coeff, dim=dim * dim)


def _times(left, right, start=()):
    """The rows of start + left right, as unreduced sparse row combinations."""
    out = list(start) or [[0] * len(right) for _ in left]
    for q, lrow in enumerate(left):
        for k, c in enumerate(lrow):
            if c:
                out[q] = [e + c * v for e, v in zip(out[q], right[k])]
    return out


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
