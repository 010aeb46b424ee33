"""Command-line behavior: reports, golden files, exit codes."""

import contextlib
import copy
import io
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings, strategies as st

from skewsep import cli, separability
from skewsep.cli import main
from skewsep.quotient import build_quotient
from skewsep.rings import RingMap
from skewsep.separability import is_weakly_separable
from skewsep.skew import SkewPolyRing
from corpus import (
    product_ring, swap_derivation, swap_map, upper_triangular2,
    ut2_inner_derivation,
)

DATA = Path(__file__).parent / "data"
TRIANGULAR = str(DATA / "triangular.json")
SWAP = str(DATA / "swap_ring.json")


def write_problem(tmp_path, name="problem.json", **overrides):
    doc = json.loads(Path(TRIANGULAR).read_text())
    doc.update(overrides)
    for key, val in list(doc.items()):
        if val is None:
            del doc[key]
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _x_power_plus_one(tmp_path, m):
    """X^m + 1 over Z/2, quotient dimension m."""
    return write_problem(tmp_path, coeff_modulus=2, rank=1, basis_names=None, unit=[1],
                         structure_constants=[[[1]]], rho=[[1]], derivation=[[0]],
                         poly=[[1]] + [[0]] * (m - 1) + [[1]])


def triangular_quotient():
    base = upper_triangular2(0)
    ring = SkewPolyRing(base, RingMap.identity(base), ut2_inner_derivation(base))
    a = base.element((3, 0, 1))
    return build_quotient(ring, ring.poly([a, a, base.one()]))


# ----------------------------------------------------------------- reports

def test_validate_accepts_the_example(capsys):
    assert main(["validate", TRIANGULAR]) == 0
    out = capsys.readouterr().out
    assert "ring: ok (rank 3, integer coefficients)" in out
    assert "twist: ok" in out and "derivation: ok" in out


def test_check_r0_golden(capsys):
    assert main(["check-r0", TRIANGULAR]) == 0
    assert capsys.readouterr().out == (DATA / "triangular_check_r0.txt").read_text()


def test_check_r0_golden_rejection(capsys):
    # f = X + e12 under the conjugation twist passes the coefficient
    # recurrence and fails scalar commutation, so the "no" names a basis element
    assert main(["check-r0", str(DATA / "conj_not_r0.json")]) == 0
    assert capsys.readouterr().out == (DATA / "conj_not_r0_check_r0.txt").read_text()


def test_decide_text_golden(capsys):
    assert main(["decide", TRIANGULAR]) == 0
    assert capsys.readouterr().out == (DATA / "triangular_decide.txt").read_text()


def test_decide_json_golden(capsys):
    assert main(["decide", TRIANGULAR, "--json"]) == 0
    got = json.loads(capsys.readouterr().out)
    want = json.loads((DATA / "triangular_decide.json").read_text())
    assert got == want


def test_decide_json_round_trips_against_library(capsys):
    assert main(["decide", TRIANGULAR, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    q = triangular_quotient()
    v = is_weakly_separable(q)

    def rows(sub):
        return [list(r) for r in sub.basis]

    assert doc["ring_valid"] is True and doc["in_r0"] is True
    assert doc["degree"] == q.m and doc["dimension"] == q.dim
    assert doc["separable"] == v.separable
    assert doc["weakly_separable"] == v.weakly_separable
    assert doc["witness"] == (list(v.witness.flat()) if v.witness else None)
    assert doc["exactness"]["exact_at_twist1"] == v.exactness.exact_at_twist1
    assert doc["base_centralizer"] == rows(q.base_centralizer())
    assert doc["center"] == rows(q.center())
    assert doc["twisted_centralizer_1"] == rows(q.twisted_centralizer(1))
    assert doc["trace_kernel"] == rows(q.trace_kernel())
    assert doc["twist1_trace_kernel"] == rows(v.trace_kernel_in_twist1)
    assert doc["x_commutator_image"] == rows(v.commutator_image)


def test_decide_witness_flag(tmp_path, capsys):
    path = write_problem(
        tmp_path, coeff_modulus=2, rank=1, basis_names=["1"], unit=[1],
        structure_constants=[[[1]]], rho=[[1]], derivation=[[0]],
        poly=[[1], [1], [1]])
    assert main(["decide", path, "--witness"]) == 0
    out = capsys.readouterr().out
    assert "separable: yes" in out
    assert "witness: [" in out
    assert main(["decide", path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["separable"] and doc["witness"] is not None


def test_oracle_report(capsys):
    assert main(["oracle", TRIANGULAR]) == 0
    out = capsys.readouterr().out
    assert "derivation module: rank 0" in out
    assert "inner derivations: rank 0" in out
    assert "weakly separable (by derivation census): yes" in out


@pytest.mark.parametrize("problem, golden", [
    (TRIANGULAR, "triangular_oracle.txt"),
    # a rank-1 derivation module, all of it inner
    (SWAP, "swap_ring_oracle.txt"),
    # X^20 + 1 over Z/2, rank 1 at the dimension cap: 20 derivations, none inner
    (str(DATA / "x20_mod2.json"), "x20_mod2_oracle.txt"),
])
def test_oracle_golden(problem, golden, capsys):
    assert main(["oracle", problem]) == 0
    assert capsys.readouterr().out == (DATA / golden).read_text()


def test_oracle_builds_the_derivation_module_once(monkeypatch, capsys):
    real = separability.derivation_module
    calls = []

    def counted(q):
        calls.append(q)
        return real(q)

    monkeypatch.setattr(separability, "derivation_module", counted)
    monkeypatch.setattr(cli, "derivation_module", counted)
    assert main(["oracle", TRIANGULAR]) == 0
    assert len(calls) == 1


def test_oracle_caps_the_quotient_dimension(tmp_path, monkeypatch, capsys):
    # X^24 + 1 over Z/2: a one-line problem whose derivation system at
    # dimension 24 is past the cap that sweep uses
    def no_module(q):
        raise AssertionError("oracle built the derivation system past the cap")

    monkeypatch.setattr(separability, "derivation_module", no_module)
    monkeypatch.setattr(cli, "derivation_module", no_module)
    path = _x_power_plus_one(tmp_path, 24)
    start = time.perf_counter()
    assert main(["oracle", path]) == 3
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "24" in err and str(cli.SWEEP_MAX_DIM) in err


def test_decide_caps_the_quotient_dimension(tmp_path, monkeypatch, capsys):
    # X^61 + 1 over Z/2: one line past the cap, refused before the dim^3 table
    def no_quotient(ring, f):
        raise AssertionError("decide built a quotient past the cap")

    monkeypatch.setattr(cli, "build_quotient", no_quotient)
    dim = cli.DECIDE_MAX_DIM + 1
    path = _x_power_plus_one(tmp_path, dim)
    start = time.perf_counter()
    assert main(["decide", path]) == 3
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert str(dim) in err and str(cli.DECIDE_MAX_DIM) in err


def test_check_r0_caps_the_quotient_dimension(tmp_path, monkeypatch, capsys):
    # the invariance test grows with the degree; check-r0 refuses what
    # decide refuses, before it runs
    def no_test(f):
        raise AssertionError("check-r0 ran the invariance test past the cap")

    monkeypatch.setattr(cli, "is_invariant", no_test)
    dim = cli.DECIDE_MAX_DIM + 1
    path = _x_power_plus_one(tmp_path, dim)
    start = time.perf_counter()
    assert main(["check-r0", path]) == 3
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == "" and str(dim) in err and str(cli.DECIDE_MAX_DIM) in err


def test_oracle_refuses_before_building_the_quotient(tmp_path, monkeypatch, capsys):
    # X^400 + 1: building the quotient alone would take seconds
    def no_quotient(ring, f):
        raise AssertionError("oracle built a quotient past the cap")

    monkeypatch.setattr(cli, "build_quotient", no_quotient)
    path = _x_power_plus_one(tmp_path, 400)
    start = time.perf_counter()
    assert main(["oracle", path]) == 3
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("out of scope: ") and "400" in err


# ------------------------------------------------------------------- sweep

def test_sweep_census_matches_library(capsys):
    assert main(["sweep", SWAP, "--max-degree", "3", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["counts"]["disagreements"] == 0
    assert doc["counts"]["instances"] == 5
    # the brute-force order: degree by degree, each degree's survivors in
    # lexicographic order of the twist-fixed coefficient tuples
    assert [inst["poly"] for inst in doc["instances"]] == [
        [[1, 1], [1, 1]],
        [[0, 0], [0, 0], [1, 1]],
        [[1, 1], [0, 0], [1, 1]],
        [[0, 0], [0, 0], [1, 1], [1, 1]],
        [[1, 1], [1, 1], [1, 1], [1, 1]],
    ]

    base = product_ring(2)
    ring = SkewPolyRing(base, swap_map(base), swap_derivation(base))
    seen = set()
    for inst in doc["instances"]:
        f = ring.poly([base.element(vec) for vec in inst["poly"]])
        v = is_weakly_separable(build_quotient(ring, f))
        assert inst["separable"] == v.separable
        assert inst["weakly_separable"] == v.weakly_separable
        assert inst["oracle_agrees"]
        seen.add(str(f))
    assert len(seen) == 5


def test_sweep_does_not_need_a_poly(tmp_path, capsys):
    doc = json.loads(Path(SWAP).read_text())
    del doc["poly"]
    path = tmp_path / "ring_only.json"
    path.write_text(json.dumps(doc))
    assert main(["sweep", str(path), "--max-degree", "1"]) == 0
    assert "total 1" in capsys.readouterr().out


def test_sweep_caps_the_census_before_building_quotients(tmp_path, monkeypatch, capsys):
    # mod 2^70 the degree-1 census is 2^70 polynomials: it is counted from
    # the solved coset and refused without building any quotient
    def no_quotient(ring, f):
        raise AssertionError("sweep built a quotient past the census cap")

    monkeypatch.setattr(cli, "build_quotient", no_quotient)
    path = write_problem(tmp_path, poly=None, coeff_modulus=2 ** 70)
    assert main(["sweep", path, "--max-degree", "1"]) == 3
    err = capsys.readouterr().err
    assert str(2 ** 70) in err and str(cli.SWEEP_CENSUS_CAP) in err


def test_sweep_asserts_each_solved_polynomial(monkeypatch, capsys):
    # a polynomial the solve should never produce is an internal breach
    # naming the ring and the polynomial, not a scope error
    def wrong(ring, solution):
        yield ring.poly([(1, 0), (1, 1)])

    monkeypatch.setattr(cli, "iter_invariant_polynomials", wrong)
    assert main(["sweep", SWAP, "--max-degree", "1"]) == 4
    err = capsys.readouterr().err
    assert "rank 2, coefficients mod 2" in err and "[[1, 0], [1, 1]]" in err


@pytest.mark.parametrize("name", ["is_weakly_separable", "oracle_weakly_separable"])
def test_sweep_names_the_instance_on_a_verdict_breach(name, monkeypatch, capsys):
    def breach(q):
        raise separability.InternalInvariantError("theorem check failed")

    monkeypatch.setattr(cli, name, breach)
    assert main(["sweep", SWAP, "--max-degree", "1"]) == 4
    err = capsys.readouterr().err
    assert SWAP in err and "rank 2, coefficients mod 2" in err
    assert "[[1, 1], [1, 1]]" in err and "theorem check failed" in err


@pytest.mark.parametrize("command, name", [("check-r0", "is_invariant_direct"),
                                           ("decide", "is_weakly_separable"),
                                           ("oracle", "derivation_module")])
def test_commands_name_the_instance_on_a_breach(command, name, monkeypatch, capsys):
    def breach(arg):
        raise separability.InternalInvariantError("theorem check failed")

    monkeypatch.setattr(cli, name, breach)
    assert main([command, TRIANGULAR]) == 4
    err = capsys.readouterr().err
    assert TRIANGULAR in err and "rank 3, integer coefficients" in err
    assert "[[3, 0, 1], [3, 0, 1], [1, 0, 1]]" in err and "theorem check failed" in err


def test_sweep_caps_the_quotient_dimension_before_solving(tmp_path, monkeypatch, capsys):
    # the census of both is small or empty, but the derivation oracle at
    # dimension 22 or 1000 would run for seconds or hours per instance
    def no_solve(ring, m):
        raise AssertionError("sweep solved past the dimension cap")

    monkeypatch.setattr(cli, "invariant_polynomials", no_solve)
    zmod2 = write_problem(tmp_path, coeff_modulus=2, rank=1, basis_names=None, unit=[1],
                          structure_constants=[[[1]]], rho=[[1]], derivation=[[0]],
                          poly=None)
    for path, degree, dim in [(SWAP, 11, 22), (zmod2, 1000, 1000)]:
        start = time.perf_counter()
        assert main(["sweep", path, "--max-degree", str(degree)]) == 3
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert str(dim) in err and str(cli.SWEEP_MAX_DIM) in err


def test_sweep_requires_finite_coefficients(capsys):
    assert main(["sweep", TRIANGULAR, "--max-degree", "2"]) == 3
    assert "finite coefficient ring" in capsys.readouterr().err


def test_sweep_rejects_silly_degree(capsys):
    assert main(["sweep", SWAP, "--max-degree", "0"]) == 2


# -------------------------------------------------------------- exit codes

def test_malformed_rank_exits_2(tmp_path, capsys):
    path = write_problem(tmp_path, rank=4)
    assert main(["validate", path]) == 2
    assert "basis_names" in capsys.readouterr().err


def test_unparseable_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"rank": 3,,}')
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "column" in err


def test_missing_file_exits_2(capsys):
    assert main(["validate", "/nonexistent/problem.json"]) == 2


@pytest.mark.parametrize("raw", [
    b"[" * 200_000 + b"]" * 200_000,                # nesting past the recursion limit
    b'{"coeff_modulus": ' + b"9" * 5_000 + b"}",    # past the int digit limit
    b"\xff\xfe",                                    # not UTF-8
], ids=["deep", "digits", "not-utf8"])
@pytest.mark.parametrize("command", ["validate", "decide"])
def test_undecodable_files_exit_2(tmp_path, capsys, command, raw):
    # raw bytes that json.dumps never writes, so the fuzz tests cannot draw them
    path = tmp_path / "raw.json"
    path.write_bytes(raw)
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err.startswith("invalid problem file: ")


def test_rank_past_the_cap_exits_3_before_validation(tmp_path, monkeypatch, capsys):
    def no_validation(base):
        raise AssertionError("validated a ring past the rank cap")

    monkeypatch.setattr(cli, "validate_ring", no_validation)
    rank = cli.SWEEP_MAX_DIM + 1
    identity = [[int(i == j) for j in range(rank)] for i in range(rank)]
    # the diagonal algebra (Z/2)^rank
    table = [[[int(i == j == t) for t in range(rank)] for j in range(rank)]
             for i in range(rank)]
    path = write_problem(tmp_path, coeff_modulus=2, rank=rank, basis_names=None,
                         unit=[1] * rank, structure_constants=table, rho=identity,
                         derivation=[[0] * rank] * rank, poly=[[0] * rank, [1] * rank])
    start = time.perf_counter()
    assert main(["validate", path]) == 3
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert str(rank) in err and str(cli.SWEEP_MAX_DIM) in err


def test_unknown_field_exits_2(tmp_path, capsys):
    path = write_problem(tmp_path, bogus=1)
    assert main(["validate", path]) == 2
    assert "bogus" in capsys.readouterr().err


def test_invalid_ring_data_exits_2(tmp_path, capsys):
    # break associativity by corrupting one structure constant
    doc = json.loads(Path(TRIANGULAR).read_text())
    doc["structure_constants"][0][1] = [1, 0, 0]
    path = tmp_path / "bad_ring.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    assert "structure_constants" in capsys.readouterr().err


def test_non_automorphism_exits_2(tmp_path, capsys):
    path = write_problem(tmp_path, rho=[[1, 0, 0], [1, 0, 0], [0, 0, 1]])
    assert main(["validate", path]) == 2
    assert "rho" in capsys.readouterr().err


def test_non_monic_poly_exits_2(tmp_path, capsys):
    path = write_problem(tmp_path, poly=[[3, 0, 1], [2, 0, 2]])
    assert main(["decide", path]) == 2
    assert "leading coefficient" in capsys.readouterr().err


def test_degree_zero_poly_exits_2(tmp_path, capsys):
    path = write_problem(tmp_path, poly=[[1, 0, 1]])
    assert main(["decide", path]) == 2


def test_missing_poly_exits_2_for_decide(tmp_path, capsys):
    path = write_problem(tmp_path, poly=None)
    assert main(["decide", path]) == 2
    assert "poly" in capsys.readouterr().err


def test_non_invariant_poly_exits_3(tmp_path, capsys):
    path = write_problem(tmp_path, poly=[[0, 0, 0], [0, 1, 0], [1, 0, 1]])
    assert main(["decide", path]) == 3
    assert "two-sided ideal" in capsys.readouterr().err


def test_moved_coefficients_exit_3(tmp_path, capsys):
    doc = json.loads(Path(SWAP).read_text())
    doc["poly"] = [[1, 0], [1, 1]]
    path = tmp_path / "moved.json"
    path.write_text(json.dumps(doc))
    assert main(["decide", str(path)]) == 3
    assert "fixed-coefficient scope" in capsys.readouterr().err


def test_check_r0_reports_failure_without_erroring(tmp_path, capsys):
    # a non-invariant f is a clean "no" for check-r0, not a scope error
    path = write_problem(tmp_path, poly=[[0, 0, 0], [0, 1, 0], [1, 0, 1]])
    assert main(["check-r0", path]) == 0
    out = capsys.readouterr().out
    assert "in r0: no" in out
    assert "coefficient recurrence" in out


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "skewsep.cli", "validate", TRIANGULAR],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "ring: ok" in proc.stdout


# -------------------------------------------------------------------- fuzz

SEED_DOCS = [json.loads(Path(path).read_text()) for path in (SWAP, TRIANGULAR)]
FUZZ_COMMANDS = [["validate"], ["check-r0"], ["decide"], ["oracle"],
                 ["sweep", "--max-degree", "1"]]

# small integers, and integers far past any machine word
fuzz_ints = st.one_of(st.integers(-3, 6), st.integers(2 ** 62, 2 ** 80),
                      st.integers(-2 ** 80, -2 ** 62))
fuzz_leaves = st.one_of(fuzz_ints, st.none(), st.booleans(), st.text(max_size=3),
                        st.floats(allow_nan=False, allow_infinity=False))
fuzz_values = st.recursive(fuzz_leaves, lambda inner: st.lists(inner, max_size=4),
                           max_leaves=12)


@st.composite
def mutated_documents(draw):
    """One of the bundled problem files with one or two fields dropped or
    replaced by any JSON value, or with one integer in a field replaced by
    another integer (often a huge one) or by a value of another type."""
    doc = copy.deepcopy(draw(st.sampled_from(SEED_DOCS)))
    for _ in range(draw(st.integers(1, 2))):
        # the modulus and f vary among valid documents, so they are drawn
        # more often than the ring data, where most changes are rejected
        key = draw(st.sampled_from(sorted(doc) + ["coeff_modulus", "poly", "bogus"]))
        action = draw(st.sampled_from(["drop", "replace", "integer", "integer", "retype"]))
        new = draw(fuzz_ints if action == "integer" else fuzz_values)
        if action == "drop":
            doc.pop(key, None)
        elif action == "replace" or not isinstance(doc.get(key), list) or not doc[key]:
            doc[key] = new
        else:
            node = doc[key]
            i = draw(st.integers(0, len(node) - 1))
            while isinstance(node[i], list) and node[i]:
                node = node[i]
                i = draw(st.integers(0, len(node) - 1))
            node[i] = new
    return doc


def fuzz_runs(doc):
    """Run each of FUZZ_COMMANDS on the document: (command, exit code, output)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "problem.json"
        path.write_text(json.dumps(doc))
        for command in FUZZ_COMMANDS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                code = main([command[0], str(path)] + command[1:])
            yield command, code, out.getvalue()


@settings(max_examples=150, deadline=None)
@given(mutated_documents())
@example({**{k: v for k, v in SEED_DOCS[1].items() if k != "poly"},
          "coeff_modulus": 2 ** 70})
def test_mutated_problem_files_exit_cleanly(doc):
    # any document, however broken, gets a report (0), an input error (2)
    # or a scope error (3); never an internal breach (4) or a traceback
    for command, code, out in fuzz_runs(doc):
        assert code in (0, 2, 3), (command, doc, out)


# (unit, structure constants, automorphisms besides the identity) of the
# algebras that drawn documents are built on: Z/n, (Z/n)^2, ut2
_Z3 = [0, 0, 0]
DOC_ALGEBRAS = [
    ([1], [[[1]]], []),
    ([1, 1], [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], [[[0, 1], [1, 0]]]),
    ([1, 0, 1], [[[1, 0, 0], [0, 1, 0], _Z3], [_Z3, _Z3, [0, 1, 0]], [_Z3, _Z3, [0, 0, 1]]],
     [[[1, -1, 0], [0, 1, 0], [0, 1, 1]]]),
]
doc_ints = st.integers(-2, 3)


def _vectors(rank, count):
    return st.lists(st.lists(doc_ints, min_size=rank, max_size=rank),
                    min_size=count, max_size=count)


def _product(table, u, v):
    rank = len(u)
    return [sum(u[i] * v[j] * table[i][j][t] for i in range(rank) for j in range(rank))
            for t in range(rank)]


@st.composite
def whole_documents(draw):
    """A whole problem document drawn from nothing: rank 1-3, any modulus,
    and ring data that is either one of DOC_ALGEBRAS with a twist and a zero,
    identity or twisted inner derivation x -> a rho(x) - x a (all but the
    identity pass validation), or random small integers (which mostly do
    not)."""
    modulus = draw(st.sampled_from([0, 2, 3, 4, 6, 2 ** 70]))
    if draw(st.booleans()):
        unit, table, twists = draw(st.sampled_from(DOC_ALGEBRAS))
        rank = len(unit)
        identity = [[int(i == j) for j in range(rank)] for i in range(rank)]
        rho = draw(st.sampled_from([identity] + twists))
        if draw(st.booleans()):
            a = draw(_vectors(rank, 1))[0]
            derivation = [[x - y for x, y in zip(_product(table, a, image),
                                                 _product(table, basis, a))]
                          for basis, image in zip(identity, rho)]
        else:
            derivation = draw(st.sampled_from([[[0] * rank] * rank, identity]))
    else:
        rank = draw(st.integers(1, 3))
        unit = draw(_vectors(rank, 1))[0]
        table = [draw(_vectors(rank, rank)) for _ in range(rank)]
        rho, derivation = draw(_vectors(rank, rank)), draw(_vectors(rank, rank))
    # f of degree 1-3 with quotient dimension at most 6; scalar multiples of
    # the unit are fixed, killed and central, so such f are invariant
    degree = draw(st.integers(1, min(3, 6 // rank)))
    scalars = st.builds(lambda c: [c * e for e in unit], doc_ints)
    poly = draw(st.lists(st.one_of(scalars, _vectors(rank, 1).map(lambda v: v[0])),
                         min_size=degree, max_size=degree))
    poly.append(unit if draw(st.integers(0, 3)) else draw(_vectors(rank, 1))[0])
    return {"coeff_modulus": modulus, "rank": rank, "unit": unit,
            "structure_constants": table, "rho": rho, "derivation": derivation,
            "poly": poly}


@settings(max_examples=100, deadline=None)
@given(whole_documents())
def test_whole_documents_exit_cleanly(doc):
    # the share that passes validation shows in --hypothesis-show-statistics
    for command, code, out in fuzz_runs(doc):
        if command == ["validate"]:
            event(f"validate exit {code}")
        assert code in (0, 2, 3), (command, doc, out)
