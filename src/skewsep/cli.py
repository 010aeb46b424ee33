"""Command-line front-end.

Five subcommands over a single JSON problem-file format:

  validate   parse the file and check the ring, twist, and derivation
  check-r0   decide whether f generates a two-sided ideal, capped at
             DECIDE_MAX_DIM
  decide     full separability / weak separability report, capped at
             DECIDE_MAX_DIM
  oracle     derivation-module route, independent of decide, capped at
             SWEEP_MAX_DIM
  sweep      census of all invariant monic f up to a degree bound, solved
             degree by degree, capped at SWEEP_MAX_DIM and SWEEP_CENSUS_CAP

Every subcommand refuses a ring of rank above SWEEP_MAX_DIM before it
validates the ring.  Each cap is checked, through _cap, on figures known
before the work it bounds: the quotient dimension degree * rank before
the invariance test or the quotient, the census before any quotient.

Exit codes: 0 for a clean run (verdicts live in the report, not the
code), 2 for unparseable or invalid input data, 3 for inputs outside the
engine's scope, 4 for an internal invariant breach.  Every refusal with
exit 3 is a ScopeError, reported by main.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager

from .linalg import sub_equal
from .problems import Problem, ProblemError, load_problem
from .quotient import QuotientRing, ScopeError, build_quotient
from .rings import validate_automorphism, validate_derivation, validate_ring
from .separability import (
    InternalInvariantError, derivation_module, is_weakly_separable, oracle_weakly_separable,
)
from .skew import SkewPolyRing, coeffs_central_in_fixed_subring, invariant_count, \
    invariant_polynomials, is_invariant, is_invariant_direct, iter_invariant_polynomials

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SCOPE = 3
EXIT_INTERNAL = 4

# sweep classifies at most this many polynomials; a larger census, counted
# from the solved cosets before any quotient is built, exits 3
SWEEP_CENSUS_CAP = 100_000
# sweep refuses a quotient dimension max_degree * rank above this before it
# solves anything, and oracle refuses one before it builds the quotient:
# the derivation system has dim^2 rows in dim unknowns, and at dim 20
# oracle takes 0.10-0.16 s as a process.  Every command refuses a rank
# above it, since every quotient has dimension at least rank
SWEEP_MAX_DIM = 20
# decide refuses a quotient dimension degree * rank above this before it
# builds the dim^3 structure table: on X^m + 1 over Z/2 it takes 0.12-0.21 s
# at m = 24, 0.18-0.28 s at 40 and 0.34-0.52 s at 60.  check-r0 refuses the
# same dimension before its invariance test, whose m(m+1)/2 commutation maps
# and condition groups took 2.0-2.9 s at m = 400
DECIDE_MAX_DIM = 60


def _cap(what: str, value: int, cap: int) -> None:
    """Refuse (exit 3 through main) a size above its cap."""
    if value > cap:
        raise ScopeError(f"{what} {value} is more than the cap of {cap}")


def _coeff_desc(modulus: int) -> str:
    return "integer coefficients" if modulus == 0 else f"coefficients mod {modulus}"


def _validated_problem(path: str) -> Problem:
    """Load the file and run semantic validation, raising ProblemError.

    A rank above SWEEP_MAX_DIM raises ScopeError before validation.
    """
    prob = load_problem(path)
    _cap("rank", prob.base.rank, SWEEP_MAX_DIM)
    for field, messages in [
            ("structure_constants", validate_ring(prob.base)),
            ("rho", validate_automorphism(prob.base, prob.rho)),
            ("derivation", validate_derivation(prob.base, prob.deriv, prob.rho))]:
        if messages:
            raise ProblemError(field, "; ".join(messages))
    return prob


def _skew_ring(prob: Problem) -> SkewPolyRing:
    # validation already ran field by field
    return SkewPolyRing(prob.base, prob.rho, prob.deriv, validate=False)


def _poly_of(prob: Problem, ring: SkewPolyRing):
    if prob.poly_coeffs is None:
        raise ProblemError("poly", "missing required field")
    return ring.poly([prob.base.element(vec) for vec in prob.poly_coeffs])


def _quotient_of(prob: Problem, ring: SkewPolyRing, f, cap: int) -> QuotientRing:
    """Refuse a quotient dimension above cap before building anything."""
    _cap("quotient dimension", f.degree() * prob.base.rank, cap)
    try:
        return build_quotient(ring, f)
    except ScopeError:
        raise
    except ValueError as exc:         # degree-zero and similar shape problems
        raise ProblemError("poly", str(exc)) from exc


@contextmanager
def _instance_named(args, prob: Problem, f, errors=(InternalInvariantError,)):
    """Re-raise errors as an internal breach (exit 4 through main) that names
    the instance: the command, the problem path, the rank, the coefficient
    ring and the coordinates of f."""
    try:
        yield
    except errors as exc:
        poly = [list(c.coords) for c in f.coeffs]
        raise InternalInvariantError(
            f"{args.command} of {args.path} (rank {prob.base.rank}, "
            f"{_coeff_desc(prob.base.coeff.modulus)}), polynomial {poly}: {exc}") from exc


def _rows(sub) -> list[list[int]]:
    return [list(row) for row in sub.basis]


def _ring_line(prob: Problem) -> str:
    return f"ring: ok (rank {prob.base.rank}, {_coeff_desc(prob.base.coeff.modulus)})"


def cmd_validate(args) -> int:
    prob = _validated_problem(args.path)
    print(_ring_line(prob))
    print("twist: ok")
    print("derivation: ok")
    f = _poly_of(prob, _skew_ring(prob))
    print(f"f = {f} (degree {f.degree()})")
    return EXIT_OK


def cmd_check_r0(args) -> int:
    prob = _validated_problem(args.path)
    ring = _skew_ring(prob)
    f = _poly_of(prob, ring)
    # refused where decide refuses it: the invariance test grows with the degree
    _cap("quotient dimension", f.degree() * prob.base.rank, DECIDE_MAX_DIM)
    print(_ring_line(prob))
    print(f"f = {f}")
    with _instance_named(args, prob, f):
        ok, failure = is_invariant(f)
        if ok != is_invariant_direct(f):
            raise InternalInvariantError("criterion and direct invariance tests disagree")
        if ok:
            print("in r0: yes")
            if all(ring.rho.apply(c) == c for c in f.coeffs):
                if not coeffs_central_in_fixed_subring(f):
                    raise InternalInvariantError(
                        "invariant coefficients escaped the fixed-subring centralizer")
                print("coefficient location check: ok")
        else:
            print("in r0: no")
            print(f"  {failure.describe(ring.base)}")
    return EXIT_OK


def _decide_report(prob: Problem, q: QuotientRing) -> dict:
    v = is_weakly_separable(q)
    return {
        "ring_valid": True,
        "coeff_modulus": prob.base.coeff.modulus,
        "degree": q.m,
        "dimension": q.dim,
        "in_r0": True,
        "separable": v.separable,
        "weakly_separable": v.weakly_separable,
        "witness": list(v.witness.flat()) if v.witness is not None else None,
        "exactness": {
            "exact_at_twist1": v.exactness.exact_at_twist1,
            "commutator_kernel_is_center": v.exactness.commutator_kernel_is_center,
        },
        "base_centralizer": _rows(q.base_centralizer()),
        "center": _rows(q.center()),
        "twisted_centralizer_1": _rows(q.twisted_centralizer(1)),
        "trace_kernel": _rows(q.trace_kernel()),
        "twist1_trace_kernel": _rows(v.trace_kernel_in_twist1),
        "x_commutator_image": _rows(v.commutator_image),
    }


def cmd_decide(args) -> int:
    prob = _validated_problem(args.path)
    ring = _skew_ring(prob)
    f = _poly_of(prob, ring)
    q = _quotient_of(prob, ring, f, DECIDE_MAX_DIM)
    with _instance_named(args, prob, f):
        report = _decide_report(prob, q)
    if args.json:
        print(json.dumps(report, indent=2))
        return EXIT_OK
    print(_ring_line(prob))
    print(f"f = {f}")
    print(f"quotient dimension: {report['dimension']}")
    print("two-sided ideal: yes")
    print(f"separable: {'yes' if report['separable'] else 'no'}")
    print(f"weakly separable: {'yes' if report['weakly_separable'] else 'no'}")
    if args.witness:
        if report["witness"] is None:
            print("witness: none exists")
        else:
            print(f"witness: {report['witness']}")
    for name, key in [("base centralizer", "base_centralizer"),
                      ("center", "center"),
                      ("twist-1 centralizer", "twisted_centralizer_1"),
                      ("trace kernel", "trace_kernel"),
                      ("twist-1 trace kernel", "twist1_trace_kernel"),
                      ("x-commutator image", "x_commutator_image")]:
        print(f"{name}: rank {len(report[key])}")
        for row in report[key]:
            print(f"  {row}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    prob = _validated_problem(args.path)
    ring = _skew_ring(prob)
    f = _poly_of(prob, ring)
    q = _quotient_of(prob, ring, f, SWEEP_MAX_DIM)
    with _instance_named(args, prob, f):
        dm = derivation_module(q)
    weakly = sub_equal(dm.module, dm.inner)
    print(_ring_line(prob))
    print(f"f = {f}")
    print(f"derivation module: rank {dm.module.rank}")
    print(f"inner derivations: rank {dm.inner.rank}")
    print(f"weakly separable (by derivation census): {'yes' if weakly else 'no'}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    prob = _validated_problem(args.path)
    if prob.base.coeff.modulus == 0:
        raise ScopeError("sweep needs a finite coefficient ring (coeff_modulus > 0)")
    if args.max_degree < 1:
        print("--max-degree must be at least 1", file=sys.stderr)
        return EXIT_INPUT
    _cap("largest quotient dimension", args.max_degree * prob.base.rank, SWEEP_MAX_DIM)
    ring = _skew_ring(prob)
    solutions = {m: invariant_polynomials(ring, m) for m in range(1, args.max_degree + 1)}
    census = sum(invariant_count(sol) for sol in solutions.values())
    _cap("number of polynomials to classify", census, SWEEP_CENSUS_CAP)
    instances = []
    for m, sol in solutions.items():
        for f in iter_invariant_polynomials(ring, sol):
            # every solved f must be invariant and every verdict must hold its
            # theorem checks
            with _instance_named(args, prob, f, (ScopeError, InternalInvariantError)):
                q = build_quotient(ring, f)
                v = is_weakly_separable(q)
                agree = oracle_weakly_separable(q) == v.weakly_separable
            instances.append({
                "poly": [list(c.coords) for c in f.coeffs],
                "degree": m,
                "separable": v.separable,
                "weakly_separable": v.weakly_separable,
                "oracle_agrees": agree,
            })
    counts = {
        "instances": len(instances),
        "separable": sum(1 for i in instances if i["separable"]),
        "weakly_separable": sum(1 for i in instances if i["weakly_separable"]),
        "disagreements": sum(1 for i in instances if not i["oracle_agrees"]),
    }
    if args.json:
        print(json.dumps({"counts": counts, "instances": instances}, indent=2))
        return EXIT_OK
    print(_ring_line(prob))
    print(f"sweep of monic invariant polynomials up to degree {args.max_degree}")
    for inst in instances:
        label = ("separable" if inst["separable"]
                 else "weakly separable" if inst["weakly_separable"]
                 else "not weakly separable")
        mark = "" if inst["oracle_agrees"] else "  ORACLE DISAGREES"
        print(f"  {inst['poly']}  {label}{mark}")
    print(f"total {counts['instances']}, separable {counts['separable']}, "
          f"weakly separable {counts['weakly_separable']}, "
          f"disagreements {counts['disagreements']}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewsep",
        description="Separability of quotients of skew polynomial rings.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check ring, twist, and derivation data")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("check-r0", help="does f generate a two-sided ideal?")
    p.add_argument("path")
    p.set_defaults(func=cmd_check_r0)

    p = sub.add_parser("decide", help="separability and weak separability report")
    p.add_argument("path")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.add_argument("--witness", action="store_true",
                   help="print the separability witness when one exists")
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("oracle", help="independent derivation-module verdict")
    p.add_argument("path")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("sweep", help="classify all invariant f up to a degree")
    p.add_argument("path")
    p.add_argument("--max-degree", type=int, required=True, metavar="M")
    p.add_argument("--json", action="store_true", help="machine-readable census")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ProblemError as exc:
        print(f"invalid problem file: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ScopeError as exc:
        print(f"out of scope: {exc}", file=sys.stderr)
        return EXIT_SCOPE
    except InternalInvariantError as exc:
        print(f"internal invariant breach: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
