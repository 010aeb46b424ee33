"""Acceptance gate: five exact end-to-end criteria.

Each test prints a single pass/fail line (visible with pytest -s) and
enforces its own wall-clock budget.  Everything here is exact integer
arithmetic; there are no numeric tolerances to tune.
"""

import random
import time
from itertools import product

from skewsep.linalg import ZZ, hnf, kernel, sub_contains, sub_equal, sub_intersect
from skewsep.quotient import build_quotient
from skewsep.separability import (
    InternalInvariantError, derivation_from_value, derivation_module,
    inner_derivation_matrix, is_separable, is_weakly_separable,
    oracle_weakly_separable,
)
from skewsep.skew import (
    coeffs_central_in_fixed_subring, horner_tails,
    is_invariant, is_invariant_direct,
)
from corpus import (
    basis_elements, classical_skew_ring, commute_scalar, golden_ring, invariant_survivors,
    lemma_corpus, polygcd_is_one, product_mul_matrices, reference_center, reference_product,
    sweep_rings, wide_c2_quotient,
)


def _finish(num: int, name: str, t0: float, budget: float, problems: list,
            extra: str = "") -> None:
    elapsed = time.monotonic() - t0
    ok = not problems and elapsed < budget
    detail = f"{elapsed:.1f}s" + (f", {extra}" if extra else "")
    print(f"criterion {num} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert not problems, f"criterion {num}: " + "; ".join(problems[:10])
    assert elapsed < budget, f"criterion {num} took {elapsed:.1f}s, budget {budget}s"


def test_criterion_1_golden_example_reproduction():
    t0 = time.monotonic()
    problems = []
    ring = golden_ring()
    base = ring.base
    a = base.element((3, 0, 1))
    f = ring.poly([a, a, base.one()])

    ok, _ = is_invariant(f)
    if not ok:
        problems.append("f not recognized as invariant")
    q = build_quotient(ring, f)
    v_sub = q.base_centralizer()
    expected_v = hnf([(1, 0, 0, 1, 0, 1), (1, 0, 1, 0, 0, 0)], ZZ, dim=6)
    if v_sub.rank != 2 or not sub_equal(v_sub, expected_v):
        problems.append("base centralizer is not the expected rank-2 subgroup")
    if not sub_equal(v_sub, q.center()):
        problems.append("V != C(A)")
    if not q.x_commutator_image(v_sub).is_zero():
        problems.append("I_x(V) != 0")
    if not sub_intersect(q.trace_kernel(), v_sub).is_zero():
        problems.append("Ker(trace) meets V")
    verdict = is_weakly_separable(q)
    if not verdict.weakly_separable:
        problems.append("not judged weakly separable")
    if verdict.separable:
        problems.append("wrongly judged separable")

    # trace values on the two generators, from the closed form
    v10 = q.from_flat((1, 0, 0, 1, 0, 1))   # x*1 + diag(1, 0)
    v01 = q.from_flat((1, 0, 1, 0, 0, 0))   # diag(1, 1)
    for (s, t), elem in [((1, 0), v10), ((0, 1), v01)]:
        d = 2 * t - s
        expected = q.element([base.element((3 * t - 3 * s, 0, t - 2 * s)),
                              base.element((d, 0, d))])
        if q.trace(elem) != expected:
            problems.append(f"trace closed form fails at (s, t) = {(s, t)}")
    _finish(1, "golden example", t0, 1.0, problems)


def test_criterion_2_oracle_equivalence_sweep():
    t0 = time.monotonic()
    problems = []
    count = 0
    for label, ring in sweep_rings():
        for degree in (2, 3):
            for f in invariant_survivors(ring, degree):
                count += 1
                tag = f"{label} {f}"
                try:
                    q = build_quotient(ring, f)
                    verdict = is_weakly_separable(q)
                    oracle = oracle_weakly_separable(q)
                except InternalInvariantError as exc:
                    problems.append(f"{tag}: internal invariant breach: {exc}")
                    continue
                if verdict.weakly_separable != oracle:
                    problems.append(f"{tag}: criterion {verdict.weakly_separable}"
                                    f" but oracle {oracle}")
                if verdict.separable and not oracle:
                    problems.append(f"{tag}: separable but Der != Inner")
    _finish(2, "oracle equivalence sweep", t0, 300.0, problems,
            f"{count} instances")


def test_criterion_3_classical_gcd_sanity():
    t0 = time.monotonic()
    problems = []
    count = 0
    for p in (2, 3, 5):
        ring = classical_skew_ring(p)
        for m in range(1, 5):
            for coeffs in product(range(p), repeat=m):
                count += 1
                f = ring.poly([[c] for c in coeffs] + [[1]])
                q = build_quotient(ring, f)
                sep, witness = is_separable(q)
                expected = polygcd_is_one(list(coeffs) + [1], p)
                if sep != expected:
                    problems.append(f"mod {p}, f coords {coeffs}: "
                                    f"engine {sep}, gcd test {expected}")
                elif sep and q.trace(witness) != q.one():
                    problems.append(f"mod {p}, f coords {coeffs}: bad witness")
    _finish(3, "classical gcd sanity", t0, 10.0, problems, f"{count} polynomials")


def test_criterion_4_lemma_invariant_suite():
    t0 = time.monotonic()
    problems = []

    def check(cond: bool, tag: str, what: str):
        if not cond:
            problems.append(f"{tag}: {what}")

    # ring-level: the commutation expansion against repeated products
    rings = {id(r): (lbl, r) for lbl, r, _ in lemma_corpus()}.values()
    for label, ring in rings:
        x = ring.x()
        for alpha in ring.base.basis():
            power = ring.one()
            for i in range(7):
                check(commute_scalar(ring, alpha, i) == ring.const(alpha) * power,
                      label, f"commutation expansion at degree {i}")
                power = power * x

    rng = random.Random(20260819)
    for label, ring, f in lemma_corpus():
        tag = f"{label} {f}"
        m = f.degree()
        a = [f.coefficient(i) for i in range(m + 1)]

        # criteria route vs direct products, on the instance and perturbations
        ok, _ = is_invariant(f)
        check(ok and is_invariant_direct(f), tag, "invariance routes disagree")
        for _ in range(3):
            coords = [[rng.randint(0, 5) for _ in range(ring.base.rank)]
                      for _ in range(m)]
            g = ring.poly([ring.base.element(c) for c in coords]
                          + [ring.base.one()])
            check(is_invariant(g)[0] == is_invariant_direct(g), tag,
                  f"invariance routes disagree on perturbation {coords}")

        # tail identities in the polynomial ring
        tails = horner_tails(f)
        check(ring.x() * tails[0] == f - ring.const(a[0]), tag,
              "tail identity at j = 0")
        for j in range(1, m):
            check(ring.x() * tails[j] == tails[j - 1] - ring.const(a[j]), tag,
                  f"tail identity at j = {j}")

        q = build_quotient(ring, f)
        # the multiplication table against reduced products of the lifts
        basis = basis_elements(q)
        check(all(zp * zq == reference_product(q, zp, zq)
                  for zp in basis for zq in basis), tag,
              "multiplication table disagrees with polynomial products")
        v_sub = q.base_centralizer()
        s1 = sub_intersect(q.twisted_centralizer(1), q.trace_kernel())

        # commutator image sits inside the twist-1 trace kernel
        check(sub_contains(s1, q.x_commutator_image(v_sub)), tag,
              "commutator image escapes the twist-1 trace kernel")
        # kernel of the x-commutator on V is exactly the center
        left_x, right_x = product_mul_matrices(q.algebra, q.x_elem().flat(), q.x_elem().flat())
        ad_x = right_x.sub(left_x)
        check(sub_equal(sub_intersect(v_sub, kernel(ad_x)), q.center()), tag,
              "Ker(I_x|V) != C(A)")
        # and that kernel is the commutant of all of A, not only of B and x
        check(sub_equal(q.center(), reference_center(q)), tag,
              "C(A) is not the commutant of every basis element")
        # coefficient location: central inside the joint fixed subring
        check(coeffs_central_in_fixed_subring(f), tag,
              "coefficients not central in the fixed subring")
        # with the identity twist the trace maps V into the center
        if ring.rho.is_identity():
            timg = hnf([q.trace_matrix().apply(row) for row in v_sub.basis],
                       q.coeff, dim=q.dim)
            check(sub_contains(q.center(), timg), tag, "trace(V) escapes C(A)")
        # derivation values at x fill the twist-1 trace kernel exactly
        dm = derivation_module(q)
        xflat = q.x_elem().flat()
        values = hnf([tuple(sum(row[p * q.dim + c] * xflat[c]
                                for c in range(q.dim)) for p in range(q.dim))
                      for row in dm.module.basis], q.coeff, dim=q.dim)
        check(sub_equal(values, s1), tag,
              "derivation values at x do not match the twist-1 trace kernel")

    # the table on an integer quotient with multi-word entries
    q = wide_c2_quotient()
    basis = basis_elements(q)
    elems = basis + [q.from_flat([rng.randint(-2 ** 90, 2 ** 90) for _ in range(q.dim)])
                     for _ in range(3)]
    check(all(u * v == reference_product(q, u, v) for u in elems for v in elems),
          "wide C2", "multiplication table disagrees with polynomial products")
    _finish(4, "lemma invariant suite", t0, 60.0, problems,
            f"{len(lemma_corpus())} instances")


def test_criterion_5_derivation_round_trip():
    t0 = time.monotonic()
    problems = []
    seeds = 0
    for label, ring, f in lemma_corpus():
        tag = f"{label} {f}"
        q = build_quotient(ring, f)
        s1 = sub_intersect(q.twisted_centralizer(1), q.trace_kernel())
        basis = basis_elements(q)
        for row in s1.basis:
            seeds += 1
            u = q.from_flat(row)
            mat = derivation_from_value(q, u)
            if tuple(mat.apply(q.x_elem().flat())) != tuple(row):
                problems.append(f"{tag}: derivation does not send x to its seed")
                continue
            # verified derivation: kills the coefficient ring, Leibniz on
            # all basis pairs (bilinear, so pairs suffice)
            for b in range(q.base.rank):
                if any(q.coeff.reduce(e) for e in
                       mat.apply(q.embed(q.base.basis_element(b)).flat())):
                    problems.append(f"{tag}: derivation moves the coefficient ring")
                    break
            for zi in basis:
                for zj in basis:
                    lhs = q.from_flat(mat.apply((zi * zj).flat()))
                    rhs = (q.from_flat(mat.apply(zi.flat())) * zj
                           + zi * q.from_flat(mat.apply(zj.flat())))
                    if lhs != rhs:
                        problems.append(f"{tag}: Leibniz fails")
                        break
                else:
                    continue
                break
        for vrow in q.base_centralizer().basis:
            velt = q.from_flat(vrow)
            u = velt * q.x_elem() - q.x_elem() * velt
            if derivation_from_value(q, u) != inner_derivation_matrix(q, velt):
                problems.append(f"{tag}: inner seed does not rebuild ad_v")
    _finish(5, "derivation round trip", t0, 10.0, problems, f"{seeds} seeds")
