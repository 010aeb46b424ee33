"""One benchmark worker: set a workload up in a fresh process and time it.

run.py starts it as

    python3 bench/worker.py MANIFEST --mode setup|run --trace 0|1 --seconds S

Set-up is timed from just before `import skewsep` to the first operation:
importing the package, loading and validating every problem file, and
building the rings and polynomials the operations use.  With --mode setup
the worker stops there.  Otherwise it runs passes over the operations,
closed loop, one at a time: at least MIN_PASSES, and another only while it
is expected to end within S seconds.  With --trace 1 it runs one untraced
pass and one traced pass instead, and the set-up is traced too.

Each operation is timed alone; checking its result against the reference
in the manifest happens outside that time.  The last line of standard
output is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import sys
import time
from collections import Counter
from functools import partial
from pathlib import Path

import gen
from layers import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_PASSES = 2
MAX_MESSAGES = 20


class Op:
    """One timed operation: run() calls the program, check(raw) returns
    (record for the digest, list of errors, tally of counts)."""

    __slots__ = ("label", "run", "check")

    def __init__(self, label, run, check):
        self.label, self.run, self.check = label, run, check


def import_skewsep():
    """The package from this checkout's src/, with all its modules loaded.

    Operations look functions up through it at call time, so the tracer's
    wrappers are the ones called while it is installed."""
    sys.path.insert(0, str(ROOT / "src"))
    import skewsep
    import skewsep.cli
    if not Path(skewsep.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"skewsep imported from {skewsep.__file__}, not from {ROOT / 'src'}")
    return skewsep


def load(sk, path: str):
    """Parse and validate one problem file, as `skewsep validate` does."""
    prob = sk.problems.load_problem(path)
    for field, messages in [
            ("structure_constants", sk.rings.validate_ring(prob.base)),
            ("rho", sk.rings.validate_automorphism(prob.base, prob.rho)),
            ("derivation", sk.rings.validate_derivation(prob.base, prob.deriv, prob.rho))]:
        if messages:
            raise ValueError(f"{path}: {field}: {'; '.join(messages)}")
    return prob


def skew_ring(sk, path: str):
    prob = load(sk, path)
    return sk.skew.SkewPolyRing(prob.base, prob.rho, prob.deriv, validate=False)


def run_cli(sk, argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = sk.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _rows(sub) -> list[list[int]]:
    return [list(r) for r in sub.basis]


# ------------------------------------------------------------ oracle_sweep

def check_sweep(spec, raw):
    code, out, err = raw
    if code != 0:
        return None, [f"exit code {code}: {err.strip()}"], {}
    doc = json.loads(out)
    counts, errors = doc["counts"], []
    if counts["instances"] != spec["expected_instances"]:
        errors.append(f"{counts['instances']} instances, expected {spec['expected_instances']}")
    for inst in doc["instances"]:
        verdict = (inst["separable"], inst["weakly_separable"])
        if not inst["oracle_agrees"]:
            errors.append(f"{inst['poly']}: criterion and oracle disagree")
        if verdict == (True, False):
            errors.append(f"{inst['poly']}: separable but not weakly separable")
        try:
            ref = gen.sweep_reference(spec["reference"], spec["modulus"], inst["poly"])
        except ValueError as exc:
            errors.append(f"{inst['poly']}: {exc}")
            continue
        if ref is not None and ref != verdict:
            errors.append(f"{inst['poly']}: verdict {verdict}, reference {ref}")
    tally = {"instances": counts["instances"], "disagreements": counts["disagreements"]}
    return [spec["ring"], doc["instances"]], errors, tally


def prepare_sweep(sk, manifest):
    paths = manifest["problems"]
    for path in paths.values():
        load(sk, path)
    return [Op(spec["label"],
               partial(run_cli, sk, ["sweep", paths[spec["ring"]], "--max-degree",
                                     str(gen.SWEEP_DEGREE), "--json"]),
               partial(check_sweep, spec))
            for spec in manifest["ops"]]


# --------------------------------------------------------------- gcd_check

def gcd_op(sk, ring, f):
    q = sk.quotient.build_quotient(ring, f)
    separable, u = sk.separability.is_separable(q)
    if not separable:
        return False, None, None
    return True, list(u.flat()), q.trace(u) == q.one()


def check_gcd(spec, raw):
    separable, witness, witness_ok = raw
    errors = []
    if separable != spec["expected"]:
        errors.append(f"separable {separable}, gcd reference {spec['expected']}")
    if separable and not witness_ok:
        errors.append("witness does not have trace 1")
    return [spec["label"], separable, witness], errors, {"mismatches": len(errors)}


def prepare_gcd(sk, manifest):
    rings = {name: skew_ring(sk, path) for name, path in manifest["problems"].items()}
    ops = []
    for spec in manifest["ops"]:
        ring = rings[spec["ring"]]
        f = ring.poly([[c] for c in spec["poly"]])
        ops.append(Op(spec["label"], partial(gcd_op, sk, ring, f), partial(check_gcd, spec)))
    return ops


# --------------------------------------------------------------- large_dim

def large_dim_op(sk, ring, f):
    q = sk.quotient.build_quotient(ring, f)
    v = sk.separability.is_weakly_separable(q)
    oracle = sk.separability.oracle_weakly_separable(q)
    return {"separable": v.separable, "weakly_separable": v.weakly_separable,
            "oracle": oracle,
            "witness": list(v.witness.flat()) if v.witness is not None else None,
            "twist1_trace_kernel": _rows(v.trace_kernel_in_twist1),
            "x_commutator_image": _rows(v.commutator_image)}


def check_large_dim(spec, raw):
    errors = []
    if raw["weakly_separable"] != raw["oracle"]:
        errors.append("criterion and oracle disagree")
    if (raw["separable"], raw["weakly_separable"]) != (spec["expected"], spec["expected"]):
        errors.append(f"verdict ({raw['separable']}, {raw['weakly_separable']}), "
                      f"reference {spec['expected']}")
    if raw["separable"] and raw["witness"] is None:
        errors.append("separable without a witness")
    return [spec["label"], raw], errors, {"mismatches": len(errors)}


def prepare_large_dim(sk, manifest):
    rings = {name: skew_ring(sk, path) for name, path in manifest["problems"].items()}
    ops = []
    for spec in manifest["ops"]:
        ring = rings[spec["ring"]]
        ops.append(Op(spec["label"], partial(large_dim_op, sk, ring, ring.poly(spec["poly"])),
                      partial(check_large_dim, spec)))
    return ops


# --------------------------------------------------------------- zz_decide

def check_zz(spec, raw):
    code, out, err = raw
    if code != 0:
        return None, [f"exit code {code}: {err.strip()}"], {}
    doc = json.loads(out)
    errors = []
    verdict = [doc["separable"], doc["weakly_separable"]]
    if verdict != spec["expected"]:
        errors.append(f"verdict {verdict}, discriminant reference {spec['expected']}")
    if not doc["in_r0"] or doc["degree"] != spec["degree"]:
        errors.append("wrong degree or ideal report")
    if doc["separable"] != (doc["witness"] is not None):
        errors.append("witness present iff separable fails")
    return [spec["label"], doc], errors, {"mismatches": len(errors)}


def prepare_zz(sk, manifest):
    paths = manifest["problems"]
    for path in paths.values():
        load(sk, path)
    return [Op(spec["label"], partial(run_cli, sk, ["decide", "--json", paths[spec["ring"]]]),
               partial(check_zz, spec))
            for spec in manifest["ops"]]


PREPARE = {
    "oracle_sweep": prepare_sweep,
    "gcd_check": prepare_gcd,
    "large_dim": prepare_large_dim,
    "zz_decide": prepare_zz,
}


# ------------------------------------------------------------------ passes

def run_pass(ops) -> dict:
    """One closed-loop pass; returns per-op latencies, failures and a digest."""
    gc.collect()
    latencies, records, messages, failed, tally = [], [], [], 0, Counter()
    clock = time.perf_counter
    for op in ops:
        t0 = clock()
        try:
            raw = op.run()
        except Exception as exc:          # any exception is a failed operation
            latencies.append(clock() - t0)
            record, errors, counts = None, [f"{type(exc).__name__}: {exc}"], {}
        else:
            latencies.append(clock() - t0)
            try:
                record, errors, counts = op.check(raw)
            except (ValueError, KeyError, TypeError) as exc:
                record, errors, counts = None, [f"unreadable result: {exc!r}"], {}
        records.append(record)
        tally.update(counts)
        if errors:
            failed += 1
            if len(messages) < MAX_MESSAGES:
                messages.append(f"{op.label}: {'; '.join(errors)}")
    digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
    return {"latencies": latencies, "failed": failed, "messages": messages,
            "digest": digest, "tally": dict(tally)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("manifest")
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    manifest = json.loads(Path(args.manifest).read_text())

    tracer = Tracer() if args.trace else None
    t0 = time.perf_counter()
    sk = import_skewsep()
    if tracer:
        tracer.install()
    try:
        ops = PREPARE[manifest["workload"]](sk, manifest)
    finally:
        if tracer:
            tracer.uninstall()
    result = {"setup_s": time.perf_counter() - t0}

    if args.mode == "run":
        passes = []
        if tracer:
            passes.append(run_pass(ops))
            tracer.install()
            try:
                passes.append(run_pass(ops))
            finally:
                tracer.uninstall()
            result["layers"] = tracer.layer_metrics()
            result["trace"] = tracer.dump()
        else:
            start = time.perf_counter()
            while True:
                passes.append(run_pass(ops))
                elapsed = time.perf_counter() - start
                if (len(passes) >= MIN_PASSES
                        and elapsed + elapsed / len(passes) > args.seconds):
                    break
        result["passes"] = passes
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
