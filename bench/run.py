"""The skewsep benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The seed makes the workload's inputs
(problem files and polynomials, written under bench/.work/); the program
under src/ only ever sees those.  Set-up is sampled SETUP_SAMPLES times,
each in a fresh worker process, and the last of those workers then runs
the operations (see worker.py).  Every verdict is checked against an independent reference
(gen.py) and against the program's own second route where it has one.

Standard output: one line per metric, then, as the last line, a JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
of BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.  A
run record with the digest of all verdicts, the extra figures and the
environment goes to bench/.work/records/.  The exit code is 0 only when
every operation was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
SETUP_SAMPLES = 11
DEADLINE_S = 170          # a run must end within 180 s

# per-layer metrics that must be nonzero on a traced run of each workload,
# so that a wrapper missing a layer shows as a failed run
EXPECTED_NONZERO = {
    "oracle_sweep": [
        "quotient.amul.calls", "quotient.amul.self_s", "quotient.trace_matrix.self_s",
        "quotient.parent_eq.calls", "skew.mul.calls", "skew.mul.self_s",
        "skew.divmod.calls", "skew.divmod.self_s", "skew.is_invariant.calls",
        "skew.is_invariant.self_s", "skew.invariant_accept_ratio",
        "quotient.centralizers.self_s", "separability.criterion.self_s",
        "separability.oracle.self_s", "cli.main.self_s"],
    "gcd_check": [
        "quotient.amul.calls", "quotient.amul.self_s", "quotient.trace_matrix.self_s",
        "quotient.parent_eq.calls", "skew.mul.calls", "skew.mul.self_s",
        "skew.divmod.calls", "skew.divmod.self_s", "rings.mul.calls", "rings.mul.self_s",
        "rings.eq.calls"],
    "large_dim": [
        "linalg.kernel.calls", "linalg.kernel.self_s", "linalg.kernel.max_rows",
        "linalg.kernel.max_cols", "linalg.hnf.calls", "linalg.hnf.self_s",
        "quotient.centralizers.self_s", "separability.criterion.self_s",
        "separability.oracle.self_s"],
    "zz_decide": [
        "linalg.solve.calls", "linalg.solve.self_s", "linalg.solve.max_bits",
        "cli.main.self_s"],
}
EXPECTED_NONZERO_EVERYWHERE = ["rings.validate.self_s", "problems.parse.self_s",
                               "trace_overhead_ratio"]


class WorkerError(RuntimeError):
    pass


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def git_sha() -> str:
    """HEAD of the checkout, read from its .git directory; 'unknown' without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "platform": platform.platform()}


def run_worker(manifest_path: Path, mode: str, args, deadline: float) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), str(manifest_path), "--mode", mode,
           "--trace", str(args.trace), "--seconds", str(args.seconds)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{mode} worker passed the {DEADLINE_S} s deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile, sample count).  With fewer than 22 samples that
    percentile would not lie above the median, so the maximum is used."""
    ordered = sorted(values)
    n = len(ordered)
    k = n - 1 if n < 22 else n - 11
    return ordered[k], 100.0 * (k + 1) / n, n


def summarize(manifest: dict, res: dict, setups: list[float], trace: bool) -> dict:
    passes = res["passes"]
    # a traced run measures its untraced figures on the first pass only
    timed = passes[:1] if trace else passes
    per_op = [statistics.median(p["latencies"][i] for p in timed)
              for i in range(len(manifest["ops"]))]
    attempted = sum(len(p["latencies"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    digests = {p["digest"] for p in passes}
    value, pct, n = tail(per_op)
    out = {
        "attempted": attempted, "failed": failed,
        "messages": [m for p in passes for m in p["messages"]][:20],
        "digest": passes[0]["digest"], "digest_stable": len(digests) == 1,
        "tally": passes[0]["tally"], "passes": len(passes),
        "pass_latencies": [p["latencies"] for p in passes],
        "metrics": {
            "wall_s": statistics.median(sum(p["latencies"]) for p in timed),
            "latency_p50_ms": 1e3 * statistics.median(per_op),
            "latency_tail_ms": 1e3 * value,
            "setup_s": statistics.median(setups + [res["setup_s"]]),
            "peak_rss_mb": res["peak_rss_mb"],
        },
        "extra": {"fail_ratio": failed / attempted, "tail_percentile": pct,
                  "tail_samples": n},
    }
    if manifest["workload"] == "large_dim":
        for dim in sorted({op["dim"] for op in manifest["ops"]}):
            out["extra"][f"latency_d{dim}_ms"] = 1e3 * statistics.median(
                t for t, op in zip(per_op, manifest["ops"]) if op["dim"] == dim)
    if trace:
        layers = dict(res["layers"])
        layers["trace_overhead_ratio"] = sum(passes[1]["latencies"]) / sum(passes[0]["latencies"])
        out["layers"] = layers
        out["trace"] = res["trace"]
    return out


def workload_problems(workload: str, summary: dict, info: dict, trace: bool) -> list[str]:
    """Whole-run checks beyond the per-operation ones."""
    problems = []
    if not summary["digest_stable"]:
        problems.append("verdict digest differs between passes")
    tally = summary["tally"]
    if workload == "oracle_sweep" and (tally.get("instances") != info["instances"]
                                       or tally.get("disagreements") != 0):
        problems.append(f"sweep reported {tally}, expected {info['instances']} instances "
                        "and 0 disagreements")
    if trace:
        missing = [m for m in EXPECTED_NONZERO[workload] + EXPECTED_NONZERO_EVERYWHERE
                   if not summary["layers"].get(m)]
        if missing:
            problems.append("layer metrics with no count: " + ", ".join(missing))
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="skewsep benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(gen.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "skewsep" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    workdir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        manifest = gen.build(args.workload, args.seed, workdir)
        manifest_path = workdir / "manifest.json"
        manifest_path.write_text(json.dumps(manifest))
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(run_worker(manifest_path, "setup", args, deadline)["setup_s"])
        res = run_worker(manifest_path, "run", args, deadline)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    summary = summarize(manifest, res, setups, bool(args.trace))
    problems = workload_problems(args.workload, summary, manifest["info"], bool(args.trace))
    correct = summary["failed"] == 0 and not problems
    bench = benchmark_spec()
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    source = summary["layers"] if args.trace else summary["metrics"]
    metrics = {m["name"]: {"value": source.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}

    env = environment()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  passes {summary['passes']}")
    print(f"environment: git {env['git_sha']}, python {env['python']}, "
          f"nproc {env['nproc']}, {env['platform']}")
    for name, m in metrics.items():
        print(f"  {name:<32} {m['value']:>14.6g} {m['unit']}")
    extra = summary["extra"]
    if not args.trace:
        print(f"  {'latency_tail_ms is':<32} p{extra['tail_percentile']:.4g} "
              f"of {extra['tail_samples']} instances")
        for name, value in extra.items():
            if name.startswith("latency_d"):
                print(f"  {name:<32} {value:>14.6g} ms")
    print(f"  {'fail_ratio':<32} {summary['failed']}/{summary['attempted']} "
          f"= {extra['fail_ratio']:.6g}")
    print(f"  instances {manifest['info']['instances']}, tally {summary['tally']}, "
          f"generator rejections {manifest['info']['rejections']}")
    print(f"  verdict digest sha256:{summary['digest']}")
    for message in summary["messages"] + problems:
        print(f"  FAIL {message}")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "correct": correct,
              "info": manifest["info"], **summary}
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({"correct": correct, "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
