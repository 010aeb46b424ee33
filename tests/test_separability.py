"""Separability verdicts, the derivation oracle, and their agreement."""

import random
from itertools import product

import pytest

import skewsep.linalg
import skewsep.quotient
import skewsep.rings
import skewsep.separability
from skewsep.linalg import hnf, kernel, sub_contains, sub_equal, sub_member
from skewsep.quotient import QuotientRing, build_quotient
from skewsep.separability import (
    InternalInvariantError, derivation_from_value, derivation_module,
    exactness_report, inner_derivation_matrix, is_separable,
    is_weakly_separable, oracle_weakly_separable,
)
from corpus import (
    all_pairs_derivations, classical_quotient, golden_ring, invariant_survivors,
    lemma_corpus, polygcd_is_one, reference_center, swap_ring, sweep_rings,
    triangular_quotient, wide_c2_quotient,
)


def swap_quotient(c0):
    r = swap_ring()
    return build_quotient(r, r.poly([c0, (0, 0), (1, 1)]))


def sample_quotients():
    return [
        triangular_quotient(),
        classical_quotient(2, [1, 1]),
        classical_quotient(2, [1, 0]),
        classical_quotient(4, [0, 0]),
        classical_quotient(3, [0, 2, 0]),
        swap_quotient((0, 0)),
        swap_quotient((1, 1)),
    ]


# ---------------------------------------------------------------- verdicts

def test_field_extension_is_separable():
    q = classical_quotient(2, [1, 1])
    sep, w = is_separable(q)
    assert sep and q.trace(w) == q.one()
    v = is_weakly_separable(q)
    assert v.separable and v.weakly_separable
    assert v.trace_kernel_in_twist1.is_zero()
    assert oracle_weakly_separable(q)


def test_square_factor_is_not_even_weakly_separable():
    q = classical_quotient(2, [1, 0])    # (X + 1)^2
    sep, w = is_separable(q)
    assert not sep and w is None
    v = is_weakly_separable(q)
    assert not v.weakly_separable
    # the trace vanishes here, so the twist-1 trace kernel is everything
    assert v.trace_kernel_in_twist1.rank == 2
    assert v.commutator_image.is_zero()


def test_triangular_weakly_but_not_separable():
    q = triangular_quotient()
    v = is_weakly_separable(q)
    assert v.weakly_separable and not v.separable and v.witness is None
    # both sides of the criterion vanish: no derivations, none needed
    assert v.trace_kernel_in_twist1.is_zero()
    assert v.commutator_image.is_zero()
    assert oracle_weakly_separable(q)


def test_split_cubic_is_separable():
    q = classical_quotient(3, [0, 2, 0])   # X^3 - X, three distinct roots
    sep, w = is_separable(q)
    assert sep and q.trace(w) == q.one()
    assert is_weakly_separable(q).weakly_separable


def test_degree_one_quotients_are_separable():
    r = golden_ring()
    cases = [
        classical_quotient(5, [3]),
        build_quotient(swap_ring(), swap_ring().poly([(1, 1), (1, 1)])),
        build_quotient(r, r.poly([r.base.basis_element(0), r.base.one()])),
    ]
    for q in cases:
        sep, w = is_separable(q)
        assert sep and q.trace(w) == q.one()
        assert derivation_module(q).module.is_zero()


def test_twisted_square_verdicts():
    # f = X^2 over the swap ring: separable, with a nonzero inner derivation
    q = swap_quotient((0, 0))
    v = is_weakly_separable(q)
    assert v.separable and v.weakly_separable
    assert v.commutator_image.rank == 1
    dm = derivation_module(q)
    assert dm.module.rank == 1 and dm.inner.rank == 1

    # f = X^2 + (1,1): a strictly bigger derivation module, so not weakly
    q = swap_quotient((1, 1))
    v = is_weakly_separable(q)
    assert not v.separable and not v.weakly_separable
    assert v.trace_kernel_in_twist1.rank == 2
    assert v.commutator_image.rank == 1
    dm = derivation_module(q)
    assert dm.module.rank == 2 and dm.inner.rank == 1
    assert sub_contains(dm.module, dm.inner)
    assert not oracle_weakly_separable(q)


def test_witness_lives_in_the_right_centralizer():
    for q in [classical_quotient(2, [1, 1]), classical_quotient(3, [0, 2, 0]),
              swap_quotient((0, 0))]:
        sep, w = is_separable(q)
        assert sep
        assert sub_member(q.twisted_centralizer(1 - q.m), w.flat())
        assert q.trace(w) == q.one()


def test_classical_verdict_matches_polynomial_gcd():
    for p, degrees in [(2, (2, 3)), (3, (2, 3)), (5, (2,))]:
        for m in degrees:
            for coeffs in product(range(p), repeat=m):
                q = classical_quotient(p, list(coeffs))
                squarefree = polygcd_is_one(list(coeffs) + [1], p)
                v = is_weakly_separable(q)
                assert v.separable == squarefree
                # over a field the two notions coincide
                assert v.weakly_separable == squarefree


# ------------------------------------------------------- structural checks

def test_exactness_report_fields():
    for q in sample_quotients():
        rep = exactness_report(q)
        assert rep.commutator_kernel_is_center
        assert rep.exact_at_twist1 == is_weakly_separable(q).weakly_separable


def _center_quotients():
    return sample_quotients() + [build_quotient(ring, f) for _, ring, f in lemma_corpus()]


def test_center_equals_the_commutant_of_every_basis_element():
    for q in _center_quotients():
        assert sub_equal(q.center(), reference_center(q)), q


def test_a_center_that_is_not_central_is_caught(monkeypatch):
    # a center that skipped the x-commutator: the flag reads False exactly
    # where V is larger than the center, and the verdict refuses to stand
    monkeypatch.setattr(QuotientRing, "center", QuotientRing.base_centralizer)
    caught = 0
    for q in _center_quotients():
        central = sub_equal(q.base_centralizer(), reference_center(q))
        assert exactness_report(q).commutator_kernel_is_center == central, q
        if not central:
            caught += 1
            with pytest.raises(InternalInvariantError, match="not the center"):
                is_weakly_separable(q)
    assert caught


def test_exactness_report_takes_no_kernel(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("kernel called")

    # once the split subgroups and the center are cached
    quotients = sample_quotients()
    want = [exactness_report(q) for q in quotients]
    for module in (skewsep.linalg, skewsep.rings, skewsep.quotient, skewsep.separability):
        monkeypatch.setattr(module, "kernel", refuse)
    assert [exactness_report(q) for q in quotients] == want


def test_commutator_image_always_inside_trace_kernel():
    for q in sample_quotients():
        v = is_weakly_separable(q)
        assert sub_contains(v.trace_kernel_in_twist1, v.commutator_image)
        if v.separable:
            assert v.weakly_separable


def test_criteria_agree_with_derivation_oracle():
    for q in sample_quotients():
        assert is_weakly_separable(q).weakly_separable == oracle_weakly_separable(q)


DERIVATION_TYPE_CASES = {
    "golden_triangular": triangular_quotient,       # weakly, not separable, over ZZ
    "x2_x_1_mod2": lambda: classical_quotient(2, [1, 1]),
    "x2_x_mod2": lambda: classical_quotient(2, [1, 0]),
    "x3_x_mod3": lambda: classical_quotient(3, [0, 2, 0]),
    "x2_mod4": lambda: classical_quotient(4, [0, 0]),
    "x_3_mod5": lambda: classical_quotient(5, [3]),
}


@pytest.mark.parametrize("name", DERIVATION_TYPE_CASES)
def test_derivation_type_relation(name):
    q = DERIVATION_TYPE_CASES[name]()
    v = is_weakly_separable(q)
    center = q.center()
    trace_image = hnf([q.trace_matrix().apply(row) for row in q.base_centralizer().basis],
                      q.coeff, dim=q.dim)
    assert sub_contains(center, trace_image)
    assert v.separable == (v.weakly_separable and sub_equal(trace_image, center))


def test_derivation_type_breach_is_caught(monkeypatch):
    q = classical_quotient(3, [0, 2, 0])
    sep, w = is_separable(q)
    assert sep
    # 2u is in the base centralizer with trace 2: it cannot cover the center
    monkeypatch.setattr(skewsep.separability, "is_separable", lambda a: (True, w + w))
    with pytest.raises(InternalInvariantError, match="cover the center"):
        is_weakly_separable(q)


def test_derivation_type_check_adds_no_hermite_form(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("hnf called")
    monkeypatch.setattr(skewsep.separability, "hnf", refuse)
    v = is_weakly_separable(triangular_quotient())
    assert v.weakly_separable and not v.separable


def test_integer_criterion_systems_skip_the_hermite_form(monkeypatch):
    # over ZZ the golden quotient's trace matrix and the witness systems of
    # both quotients have full column rank mod 2^61 - 1: no Hermite form
    def refuse(*args, **kwargs):
        raise AssertionError("Hermite form of a full-rank integer system")

    r = golden_ring()
    # g(X + e11) with g = Y^2 - Y, whose discriminant is 1
    split = build_quotient(r, r.poly([r.base.element(c)
                                      for c in ((0, 0, 0), (1, 0, -1), (1, 0, 1))]))
    golden = triangular_quotient()
    for q in (golden, split):
        q.twisted_centralizer(1 - q.m)
        q.trace_matrix()
    split.trace_kernel()            # not of full rank: the Hermite path
    monkeypatch.setattr(skewsep.linalg, "_hnf_rows", refuse)
    assert golden.trace_kernel().is_zero()
    assert is_separable(golden) == (False, None)
    sep, w = is_separable(split)
    assert sep and split.trace(w) == split.one()


# ------------------------------------------------------- derivation module

def test_derivation_matrices_satisfy_leibniz():
    rng = random.Random(11)
    for q in sample_quotients():
        dm = derivation_module(q)
        for mat in dm.matrices():
            def apply(z):
                return q.from_flat(mat.apply(z.flat()))
            for b in range(q.base.rank):
                assert apply(q.embed(q.base.basis_element(b))).is_zero()
            for _ in range(12):
                z = q.from_flat([rng.randint(0, 7) for _ in range(q.dim)])
                w = q.from_flat([rng.randint(0, 7) for _ in range(q.dim)])
                assert apply(z * w) == apply(z) * w + z * apply(w)


def test_generator_system_equals_the_all_pairs_system():
    # right B-linearity built in and Leibniz on the pairs (z, x) give the
    # module that Leibniz on every pair of basis elements gives; rank-1
    # quotients of degree 8 and 12 and a dimension-15 ut2-mod3 quotient are
    # where the system in delta(x) alone is smallest against the all-pairs one
    quotients = (sample_quotients() + [build_quotient(r, f) for _, r, f in lemma_corpus()]
                 + [wide_c2_quotient()])
    quotients += [classical_quotient(n, [1, linear] + [0] * (m - 2))     # X^m (+ X) + 1
                  for n, m, linear in product((2, 3), (8, 12), (0, 1))]
    rings = dict(sweep_rings())
    ut2, swap = rings["ut2-mod3"], rings["prod22-swap"]
    quotients.append(build_quotient(ut2, next(iter(invariant_survivors(ut2, 5)))))
    # a twist and a derivation together at m >= 4, where the proof's cases
    # 0 < i < m - 1 and i = m - 1 both occur
    quotients += [build_quotient(swap, f) for m in (4, 5) for f in invariant_survivors(swap, m)]
    for q in quotients:
        assert derivation_module(q).module == all_pairs_derivations(q), q


def test_leibniz_system_solves_for_the_value_at_x(monkeypatch):
    # the one unknown delta(x): dim columns, and (rank + 1) * dim rows, the
    # commutation with each e_s and delta(f) = 0
    shapes = []

    def recording_kernel(mat):
        shapes.append((mat.rows, mat.cols))
        return kernel(mat)

    monkeypatch.setattr(skewsep.separability, "kernel", recording_kernel)
    ring = dict(sweep_rings())["ut2-mod3"]
    q = build_quotient(ring, next(iter(invariant_survivors(ring, 3))))
    assert (q.dim, q.base.rank, q.m) == (9, 3, 3)
    derivation_module(q)
    assert len(shapes) == 1
    rows, cols = shapes[0]
    assert (rows, cols) == (36, 9)


def test_derivation_oracle_shares_no_code_with_the_criterion(monkeypatch):
    # the oracle reads only the table; none of the criterion's subgroups
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle called into the criterion route")

    for name in ("twisted_centralizer", "center", "trace", "trace_matrix", "trace_kernel"):
        monkeypatch.setattr(QuotientRing, name, refuse)
    for module in (skewsep.rings, skewsep.quotient):
        monkeypatch.setattr(module, "commutant", refuse)
    for q in sample_quotients():
        assert skewsep.separability._derivations(q) == all_pairs_derivations(q), q


def test_derivation_values_at_x_fill_the_trace_kernel():
    for q in sample_quotients():
        dm = derivation_module(q)
        xflat = q.x_elem().flat()
        values = hnf([tuple(sum(row[p * q.dim + t] * xflat[t]
                                for t in range(q.dim)) for p in range(q.dim))
                      for row in dm.module.basis], q.coeff, dim=q.dim)
        v = is_weakly_separable(q)
        assert sub_equal(values, v.trace_kernel_in_twist1)


def test_derivation_from_value_round_trip():
    for q in sample_quotients():
        dm = derivation_module(q)
        xflat = q.x_elem().flat()
        v = is_weakly_separable(q)
        for row in v.trace_kernel_in_twist1.basis:
            u = q.from_flat(row)
            mat = derivation_from_value(q, u)
            assert tuple(mat.apply(xflat)) == tuple(u.flat())
            flat = tuple(e for r in mat.entries for e in r)
            assert sub_member(dm.module, flat)


def test_derivation_from_value_rejects_bad_seeds():
    q = classical_quotient(4, [0, 0])    # f = X^2 over Z/4, trace(1) = 2x
    with pytest.raises(ValueError, match="not in the trace kernel"):
        derivation_from_value(q, q.one())
    tw = swap_quotient((1, 1))
    outside = tw.from_flat((1, 0, 0, 0))
    if not sub_member(tw.twisted_centralizer(1), outside.flat()):
        with pytest.raises(ValueError, match="twist-1 centralizer"):
            derivation_from_value(tw, outside)
    with pytest.raises(ValueError, match="different quotient"):
        derivation_from_value(q, tw.zero())


def test_inner_derivations_match_seed_construction():
    saw_nonzero = False
    for q in sample_quotients():
        for vrow in q.base_centralizer().basis:
            velt = q.from_flat(vrow)
            u = velt * q.x_elem() - q.x_elem() * velt
            assert derivation_from_value(q, u) == inner_derivation_matrix(q, velt)
            saw_nonzero = saw_nonzero or not u.is_zero()
    assert saw_nonzero   # the sweep must exercise a nontrivial inner seed


def test_inner_derivation_matrix_parent_check():
    q = triangular_quotient()
    with pytest.raises(ValueError, match="different quotient"):
        inner_derivation_matrix(q, classical_quotient(2, [1, 1]).zero())
