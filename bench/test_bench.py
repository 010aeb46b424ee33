"""Tests of the benchmark itself.  Run with: python3 -m pytest bench"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import run
import worker
from layers import COUNTERS, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _manifest(workload, seed, workdir):
    manifest = gen.build(workload, seed, workdir)
    files = {name: Path(path).read_bytes() for name, path in manifest["problems"].items()}
    manifest["problems"] = sorted(manifest["problems"])
    return manifest, files


def _command(root, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=root,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", sorted(gen.GENERATORS))
def test_generator_is_deterministic(workload, tmp_path):
    first = _manifest(workload, 7, tmp_path / "a")
    second = _manifest(workload, 7, tmp_path / "b")
    assert first == second
    if workload in ("large_dim", "zz_decide"):
        assert _manifest(workload, 8, tmp_path / "c") != first


def test_generated_instances_are_in_scope(tmp_path):
    sk = worker.import_skewsep()
    for workload in ("large_dim", "zz_decide"):
        manifest = gen.build(workload, 3, tmp_path / workload)
        for op in manifest["ops"]:
            prob = worker.load(sk, manifest["problems"][op["ring"]])
            ring = sk.skew.SkewPolyRing(prob.base, prob.rho, prob.deriv)
            poly = op.get("poly") or prob.poly_coeffs
            assert sk.skew.is_invariant(ring.poly(list(poly)))[0], op["label"]


def test_ut2_invariance_matches_the_program():
    """The generator's closed-form test accepts exactly what is_invariant accepts."""
    sk = worker.import_skewsep()
    prob = sk.problems.parse_problem(json.dumps(gen.ut2_doc(3)))
    ring = sk.skew.SkewPolyRing(prob.base, prob.rho, prob.deriv)
    rng = random.Random(1)
    accepted = 0
    for _ in range(300):
        m = rng.randint(1, 3)
        poly = [[rng.randrange(3), rng.randrange(3) * (rng.random() < 0.2),
                 rng.randrange(3)] for _ in range(m)] + [[1, 0, 1]]
        ours = gen.ut2_center_coeffs(poly, 3) is not None
        assert ours == sk.skew.is_invariant(ring.poly(poly))[0], poly
        accepted += ours
    assert accepted > 10


def test_references():
    assert gen.discriminant_abs([1, 1, 1]) == 3          # Y^2 + Y + 1
    assert gen.discriminant_abs([-1, 0, 0, 1]) == 27     # Y^3 - 1
    assert gen.discriminant_abs([0, 0, 1]) == 0
    assert gen.squarefree_mod([1, 0, 1], 3) and not gen.squarefree_mod([1, 0, 1], 2)
    assert gen.zz_reference("ut2", gen.ut2_poly_from_center([1, 1, 1])) == (False, True)
    assert gen.ut2_center_coeffs(gen.ut2_poly_from_center([5, -2, 7, 1]), 0) == [5, -2, 7, 1]


def test_tail_percentile():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert run.tail(list(range(21)))[0] == 20
    value, pct, n = run.tail(list(range(100)))
    assert (value, n) == (89, 100) and pct == pytest.approx(90.0)


def test_tracer_rebinds_every_imported_name():
    sk = worker.import_skewsep()
    tracer = Tracer()
    targets = tracer.targets()
    originals = []
    for paths in targets.values():
        for short, path in paths:
            if "." not in path:
                originals.append(getattr(sys.modules[f"skewsep.{short}"], path))
    modules = [m for name, m in sys.modules.items() if name.startswith("skewsep")]
    bound = [(m.__name__, attr) for m in modules for attr, v in vars(m).items()
             if any(v is o for o in originals)]
    assert ("skewsep.quotient", "kernel") in bound and ("skewsep.separability", "solve") in bound
    tracer.install()
    try:
        for modname, attr in bound:
            assert all(getattr(sys.modules[modname], attr) is not o for o in originals)
        sk.cli.main(["validate", str(ROOT / "tests" / "data" / "triangular.json")])
        metrics = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    for modname, attr in bound:
        assert any(getattr(sys.modules[modname], attr) is o for o in originals)
    assert metrics["cli.main.calls"] >= 2 and metrics["problems.parse.calls"] >= 1
    assert metrics["rings.validate.calls"] == 3 and metrics["rings.eq.calls"] > 0
    assert set(COUNTERS) <= {k.rsplit(".", 1)[0] for k in metrics}


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_digest_is_stable_across_runs():
    digests = []
    for _ in range(2):
        proc = _command(ROOT, "--workload", "zz_decide", "--seed", "5", "--seconds", "1",
                        "--trace", "0")
        assert proc.returncode == 0, proc.stderr
        assert _last_json(proc.stdout)["correct"]
        digests.append([ln for ln in proc.stdout.splitlines() if "digest" in ln])
    assert digests[0] == digests[1] and digests[0]


def _copy_checkout(dest, with_source=True):
    dest.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(BENCH, dest / "bench", ignore=shutil.ignore_patterns(
        ".work", "__pycache__", ".pytest_cache"))
    if with_source:
        shutil.copytree(ROOT / "src", dest / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return dest


def test_wrong_verdict_fails_the_run(tmp_path):
    root = _copy_checkout(tmp_path / "checkout")
    sep = root / "src" / "skewsep" / "separability.py"
    sep.write_text(sep.read_text() + (
        "\n\n_true_is_separable = is_separable\n\n\n"
        "def is_separable(a):\n"
        "    ok, u = _true_is_separable(a)\n"
        "    return not ok, u\n"))
    proc = _command(root, "--workload", "zz_decide", "--seed", "5", "--seconds", "1",
                    "--trace", "0")
    assert proc.returncode != 0
    result = _last_json(proc.stdout)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert "fail_ratio" in proc.stdout and "FAIL" in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    root = _copy_checkout(tmp_path / "bare", with_source=False)
    proc = _command(root, "--workload", "gcd_check", "--seed", "1", "--seconds", "1",
                    "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
