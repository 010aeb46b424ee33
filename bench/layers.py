"""Layer tracing for the benchmark, done entirely from outside the program.

The Tracer replaces functions and methods of the skewsep modules with timed
wrappers.  A function is replaced under every name that refers to it in
any skewsep module, so a name bound by `from .linalg import kernel` is
wrapped too.  Spans are aggregated in memory: per span name the number of
calls and the self time (the span's duration minus that of the spans it
caused), and per (caller span, span) edge the calls and total time.
"""

from __future__ import annotations

import sys
import time
from functools import wraps

PACKAGE = "skewsep"
MODULES = ("linalg", "rings", "skew", "quotient", "separability", "problems", "cli")

# span name -> the functions or methods it covers, as (module, attribute path)
NAMED_SPANS = {
    "linalg.hnf": [("linalg", "hnf")],
    "linalg.kernel": [("linalg", "kernel")],
    "linalg.solve": [("linalg", "solve")],
    "rings.mul": [("rings", "RingElement.__mul__")],
    "rings.validate": [("rings", "validate_ring"), ("rings", "validate_automorphism"),
                       ("rings", "validate_derivation")],
    "skew.mul": [("skew", "SkewPoly.__mul__")],
    "skew.divmod": [("skew", "divmod_monic")],
    "skew.is_invariant": [("skew", "is_invariant")],
    "quotient.amul": [("quotient", "AElement.__mul__")],
    "quotient.trace_matrix": [("quotient", "QuotientRing.trace_matrix")],
    "quotient.centralizers": [("quotient", "QuotientRing.twisted_centralizer"),
                              ("quotient", "QuotientRing.center")],
    "separability.criterion": [("separability", "is_separable"),
                               ("separability", "is_weakly_separable"),
                               ("separability", "exactness_report")],
    "separability.oracle": [("separability", "derivation_module"),
                            ("separability", "oracle_weakly_separable")],
    "problems.parse": [("problems", "load_problem"), ("problems", "parse_problem")],
    # the CLI's own code: argument parsing, dispatch, report assembly, output
    "cli.main": [("cli", "main"), ("cli", "cmd_validate"), ("cli", "cmd_check_r0"),
                 ("cli", "cmd_decide"), ("cli", "cmd_oracle"), ("cli", "cmd_sweep")],
}

# parent checks (`other.ring != self.ring`), counted, not timed: they run
# millions of times and do little each time
COUNTERS = {
    "rings.eq": ("rings", "BaseRing.__eq__"),
    "quotient.parent_eq": ("quotient", "QuotientRing.__eq__"),
}


def _bits(values) -> int:
    return max((abs(v).bit_length() for v in values), default=0)


class Tracer:
    def __init__(self):
        self.spans: dict[str, list] = {}        # name -> [calls, self_s]
        self.edges: dict[tuple, list] = {}      # (caller, name) -> [calls, total_s]
        self.counts: dict[str, list] = {}       # name -> [calls]
        self.extra = {"linalg.kernel.max_rows": 0, "linalg.kernel.max_cols": 0,
                      "linalg.solve.max_bits": 0, "skew.is_invariant.accepted": 0}
        self._stack = [[None, 0.0]]             # [span name, child time] per open span
        self._patches: list[tuple] = []         # (owner, attribute, original)
        self._probes = {"linalg.kernel": self._probe_kernel,
                        "linalg.solve": self._probe_solve,
                        "skew.is_invariant": self._probe_invariant}

    # ------------------------------------------------------------ probes

    def _probe_kernel(self, args, result) -> None:
        mat = args[0]
        self.extra["linalg.kernel.max_rows"] = max(self.extra["linalg.kernel.max_rows"],
                                                   mat.rows)
        self.extra["linalg.kernel.max_cols"] = max(self.extra["linalg.kernel.max_cols"],
                                                   mat.cols)

    def _probe_solve(self, args, result) -> None:
        mat, b = args[0], args[1]
        bits = max(_bits(e for row in mat.entries for e in row), _bits(b))
        if result is not None:
            x, ker = result
            bits = max(bits, _bits(x), _bits(e for row in ker.basis for e in row))
        self.extra["linalg.solve.max_bits"] = max(self.extra["linalg.solve.max_bits"], bits)

    def _probe_invariant(self, args, result) -> None:
        if result[0]:
            self.extra["skew.is_invariant.accepted"] += 1

    # ---------------------------------------------------------- wrappers

    def _span(self, name: str, fn):
        stat = self.spans.setdefault(name, [0, 0.0])
        stack, edges = self._stack, self.edges
        probe = self._probes.get(name)
        clock = time.perf_counter

        @wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                caller = stack[-1]
                caller[1] += dt
                stat[0] += 1
                stat[1] += dt - frame[1]
                edge = edges.get((caller[0], name))
                if edge is None:
                    edges[(caller[0], name)] = [1, dt]
                else:
                    edge[0] += 1
                    edge[1] += dt
            if probe is not None:
                probe(args, result)
            return result
        return wrapper

    def _counter(self, name: str, fn):
        cell = self.counts.setdefault(name, [0])

        @wraps(fn)
        def wrapper(*args):
            cell[0] += 1
            return fn(*args)
        return wrapper

    # ------------------------------------------------------ installation

    @staticmethod
    def _module(short: str):
        return sys.modules[f"{PACKAGE}.{short}"]

    def _patch_function(self, original, wrapper) -> None:
        """Rebind every skewsep name that refers to original."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or modname.split(".")[0] != PACKAGE:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _patch(self, short: str, path: str, make) -> None:
        mod = self._module(short)
        if "." in path:
            cls_name, meth = path.split(".")
            cls = getattr(mod, cls_name)
            original = cls.__dict__[meth]
            self._patches.append((cls, meth, original))
            setattr(cls, meth, make(original))
        else:
            original = getattr(mod, path)
            self._patch_function(original, make(original))

    def targets(self) -> dict[str, list[tuple[str, str]]]:
        """Every span: the named ones, plus each other public module-level
        function of the traced modules under its own name."""
        out = {name: list(paths) for name, paths in NAMED_SPANS.items()}
        covered = {(short, path) for paths in out.values() for short, path in paths}
        for short in MODULES:
            mod = self._module(short)
            for attr, value in vars(mod).items():
                if (attr.startswith("_") or not callable(value) or isinstance(value, type)
                        or getattr(value, "__module__", None) != mod.__name__
                        or (short, attr) in covered):
                    continue
                out[f"{short}.{attr}"] = [(short, attr)]
        return out

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, paths in self.targets().items():
            for short, path in paths:
                self._patch(short, path, lambda fn, name=name: self._span(name, fn))
        for name, (short, path) in COUNTERS.items():
            self._patch(short, path, lambda fn, name=name: self._counter(name, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ----------------------------------------------------------- results

    def layer_metrics(self) -> dict[str, float]:
        """Flat per-layer figures: <span>.calls and <span>.self_s for every
        span, <counter>.calls, and the probes' maxima and ratios."""
        out: dict[str, float] = {}
        for name, (calls, self_s) in self.spans.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        for name, (calls,) in self.counts.items():
            out[f"{name}.calls"] = calls
        out.update(self.extra)
        tested = out.get("skew.is_invariant.calls", 0)
        out["skew.invariant_accept_ratio"] = (
            self.extra["skew.is_invariant.accepted"] / tested if tested else 0.0)
        return out

    def dump(self) -> dict:
        return {"spans": {n: {"calls": c, "self_s": s} for n, (c, s) in self.spans.items()},
                "edges": [{"caller": a, "span": b, "calls": c, "total_s": t}
                          for (a, b), (c, t) in sorted(self.edges.items(), key=str)],
                "counters": {n: c for n, (c,) in self.counts.items()},
                "extra": dict(self.extra)}
