"""Seeded benchmark inputs and the independent references that check them.

Nothing here imports skewsep.  The generators write problem documents (the
JSON format `skewsep` reads) and the reference verdicts come from classical
facts about the rings involved, so a wrong answer from the program cannot
also be the expected answer.

References used:

* Commutative base, identity twist, zero derivation (Z/n, (Z/2)^2, the
  group algebra of C2): A = B[X]/(f), its B-derivations are Ann_A(f'(x)) and
  none is inner.  So A is weakly separable iff f'(x) is a non-zero-divisor,
  and separable iff the discriminant of f is a unit of B.  Over a finite
  ring both say gcd(f, f') = 1 modulo the maximal ideals; over Z they say
  disc(f) != 0 and disc(f) = +-1, read in each factor Z[C2] -> Z, g -> +-1.
* Upper triangular 2x2 matrices with the identity twist and D = ad(e11):
  Y = X + e11 is central, so R = B[Y] and the invariant monic f are exactly
  g(Y) with g monic over the centre (the scalars).  Then A is ut2(C) with
  C = scalars[Y]/(g), whose B-derivations are Der(C) and whose inner
  derivations vanish.  So A is weakly separable iff disc(g) != 0 and
  separable iff disc(g) is a unit, as for C itself.
"""

from __future__ import annotations

import json
import random
from itertools import product
from math import comb
from pathlib import Path

# ------------------------------------------------------------ problem rings

_Z3 = [0, 0, 0]


def zmod_doc(n: int) -> dict:
    """Z/n as a rank-1 algebra over itself, identity twist, zero derivation."""
    return {"coeff_modulus": n, "rank": 1, "unit": [1],
            "structure_constants": [[[1]]], "rho": [[1]], "derivation": [[0]]}


def prod22_doc(swap: bool = False) -> dict:
    """(Z/2)^2; with swap, the coordinate swap and the derivation x - swap(x)."""
    doc = {"coeff_modulus": 2, "rank": 2, "unit": [1, 1],
           "structure_constants": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
           "rho": [[1, 0], [0, 1]], "derivation": [[0, 0], [0, 0]]}
    if swap:
        doc["rho"] = [[0, 1], [1, 0]]
        doc["derivation"] = [[1, -1], [-1, 1]]
    return doc


def ut2_doc(n: int) -> dict:
    """Upper triangular 2x2 matrices (e11, e12, e22), identity twist, ad(e11)."""
    return {"coeff_modulus": n, "rank": 3, "basis_names": ["e11", "e12", "e22"],
            "unit": [1, 0, 1],
            "structure_constants": [[[1, 0, 0], [0, 1, 0], _Z3],
                                    [_Z3, _Z3, [0, 1, 0]],
                                    [_Z3, _Z3, [0, 0, 1]]],
            "rho": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            "derivation": [[0, 0, 0], [0, 1, 0], [0, 0, 0]]}


def c2_doc() -> dict:
    """Integer group algebra of C2 (basis 1, g), identity twist, zero derivation."""
    return {"coeff_modulus": 0, "rank": 2, "basis_names": ["1", "g"], "unit": [1, 0],
            "structure_constants": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]],
            "rho": [[1, 0], [0, 1]], "derivation": [[0, 0], [0, 0]]}


# name -> (document, number of invariant monic f of degree 1..3, reference kind)
SWEEP_RINGS = {
    "zmod2": (zmod_doc(2), 2 + 4 + 8, "zmod"),
    "zmod3": (zmod_doc(3), 3 + 9 + 27, "zmod"),
    "zmod4": (zmod_doc(4), 4 + 16 + 64, "zmod"),
    "prod22": (prod22_doc(), 4 + 16 + 64, "prod22"),
    # no closed form: the census count at the seed commit
    "prod22-swap": (prod22_doc(swap=True), 5, None),
    "ut2-mod2": (ut2_doc(2), 2 + 4 + 8, "ut2"),
    "ut2-mod3": (ut2_doc(3), 3 + 9 + 27, "ut2"),
}
SWEEP_DEGREE = 3
GCD_PRIMES = (2, 3, 5)
GCD_MAX_DEGREE = 4
LARGE_DIM_DEGREES = (3, 4, 5)
LARGE_DIM_PER_DEGREE = 5
ZZ_DEGREES = (2, 3, 4)
ZZ_BITS = (24, 48, 72, 96, 120)
ZZ_REPEATS = 2

# ------------------------------------------------------- polynomial helpers


def _trim(g: list[int], p: int) -> list[int]:
    g = [e % p for e in g]
    while g and g[-1] == 0:
        g.pop()
    return g


def _rem(g: list[int], h: list[int], p: int) -> list[int]:
    g = _trim(g, p)
    inv = pow(h[-1], -1, p)
    while len(g) >= len(h):
        c = g[-1] * inv % p
        shift = len(g) - len(h)
        for i, e in enumerate(h):
            g[shift + i] = (g[shift + i] - c * e) % p
        g = _trim(g, p)
    return g


def squarefree_mod(f: list[int], p: int) -> bool:
    """gcd(f, f') = 1 over Z/p, p prime; f ascending with a unit leading term."""
    a = _trim(f, p)
    b = _trim([i * e for i, e in enumerate(a)][1:], p)
    while b:
        a, b = b, _rem(a, b, p)
    return len(a) == 1


def _det(mat: list[list[int]]) -> int:
    """Exact integer determinant (Bareiss fraction-free elimination)."""
    a = [row[:] for row in mat]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def discriminant_abs(g: list[int]) -> int:
    """|disc(g)| = |Res(g, g')| for monic g over Z (ascending coefficients)."""
    m = len(g) - 1
    dg = [i * e for i, e in enumerate(g)][1:]
    size = 2 * m - 1
    rows = []
    for i in range(m - 1):                       # m - 1 shifted copies of g
        rows.append([0] * i + g[::-1] + [0] * (size - m - 1 - i))
    for i in range(m):                           # m shifted copies of g'
        rows.append([0] * i + dg[::-1] + [0] * (size - m - i))
    return abs(_det(rows))


def ut2_center_coeffs(poly: list[list[int]], n: int) -> list[int] | None:
    """g with f = g(X + e11), or None when f is not invariant.

    poly lists the (e11, e12, e22) coordinates of f's right coefficients,
    degree-ascending.  X^i = (Y - e11)^i with Y central, and
    e11 * (a, b, c) = (a, b, 0), so the Y^j coefficient of f is
    a_j + sum_{i > j} C(i, j) (-1)^(i-j) e11 a_i.  f is invariant iff each
    of those is a scalar c * (e11 + e22).
    """
    red = (lambda v: v % n) if n else (lambda v: v)
    out = []
    for j, (a, b, c) in enumerate(poly):
        sa, sb = a, b
        for i in range(j + 1, len(poly)):
            k = comb(i, j) * (-1) ** (i - j)
            sa += k * poly[i][0]
            sb += k * poly[i][1]
        if red(sb) != 0 or red(sa - c) != 0:
            return None
        out.append(red(c))
    return out


def ut2_poly_from_center(g: list[int]) -> list[list[int]]:
    """Coordinates of g(X + e11): X^i coefficient c_i + (sum_{k>i} C(k,i) c_k) e11."""
    m = len(g) - 1
    return [[g[i] + sum(g[k] * comb(k, i) for k in range(i + 1, m + 1)), 0, g[i]]
            for i in range(m + 1)]


# -------------------------------------------------------------- references


def sweep_reference(kind: str | None, n: int, poly: list[list[int]]):
    """(separable, weakly separable) for a sweep instance, or None if unknown.

    Raises ValueError for a triangular f that is not invariant at all.
    """
    if kind == "zmod":
        p = 2 if n == 4 else n                   # Z/4: read modulo its maximal ideal
        ok = squarefree_mod([c[0] for c in poly], p)
    elif kind == "prod22":
        ok = all(squarefree_mod([c[t] for c in poly], 2) for t in (0, 1))
    elif kind == "ut2":
        g = ut2_center_coeffs(poly, n)
        if g is None:
            raise ValueError("f does not generate a two-sided ideal")
        ok = squarefree_mod(g, n)
    else:
        return None
    return ok, ok


def zz_reference(family: str, poly: list[list[int]]) -> tuple[bool, bool]:
    """(separable, weakly separable) of an integer instance from discriminants."""
    if family == "c2":
        discs = [discriminant_abs([a + s * b for a, b in poly]) for s in (1, -1)]
    else:
        discs = [discriminant_abs(ut2_center_coeffs(poly, 0))]
    return all(d == 1 for d in discs), all(d != 0 for d in discs)


# -------------------------------------------------------------- generators


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def _sweep_ops(seed: int, workdir: Path) -> dict:
    names = sorted(SWEEP_RINGS)
    random.Random(seed).shuffle(names)
    problems, ops = {}, []
    for name in names:
        doc, expected, kind = SWEEP_RINGS[name]
        problems[name] = _write(workdir / f"{name}.json", doc)
        ops.append({"label": name, "ring": name, "expected_instances": expected,
                    "reference": kind, "modulus": doc["coeff_modulus"]})
    return {"problems": problems, "ops": ops, "info": {
        "instances": sum(op["expected_instances"] for op in ops), "rejections": 0}}


def _gcd_ops(seed: int, workdir: Path) -> dict:
    problems = {f"zmod{p}": _write(workdir / f"zmod{p}.json", zmod_doc(p))
                for p in GCD_PRIMES}
    ops = []
    for p in GCD_PRIMES:
        for m in range(1, GCD_MAX_DEGREE + 1):
            for coeffs in product(range(p), repeat=m):
                f = list(coeffs) + [1]
                ops.append({"label": f"mod{p}:{f}", "ring": f"zmod{p}", "poly": f,
                            "expected": squarefree_mod(f, p)})
    random.Random(seed).shuffle(ops)
    return {"problems": problems, "ops": ops,
            "info": {"instances": len(ops), "rejections": 0}}


def _large_dim_ops(seed: int, workdir: Path) -> dict:
    """Seeded invariant f over ut2 mod 3, drawn by rejection.

    Candidates have diagonal coefficients (the only ones D = ad(e11)
    kills); a candidate is kept when it is invariant and new.
    """
    n = 3
    rng = random.Random(seed)
    problems = {"ut2-mod3": _write(workdir / "ut2-mod3.json", ut2_doc(n))}
    ops, rejected = [], {"not_invariant": 0, "duplicate": 0}
    for m in LARGE_DIM_DEGREES:
        seen = set()
        while len(seen) < LARGE_DIM_PER_DEGREE:
            poly = [[rng.randrange(n), 0, rng.randrange(n)] for _ in range(m)]
            poly.append([1, 0, 1])
            g = ut2_center_coeffs(poly, n)
            if g is None:
                rejected["not_invariant"] += 1
                continue
            key = tuple(g)
            if key in seen:
                rejected["duplicate"] += 1
                continue
            seen.add(key)
            ops.append({"label": f"d{3 * m}:{g}", "ring": "ut2-mod3", "poly": poly,
                        "dim": 3 * m, "expected": squarefree_mod(g, n)})
    return {"problems": problems, "ops": ops,
            "info": {"instances": len(ops), "rejections": rejected}}


def _zz_ops(seed: int, workdir: Path) -> dict:
    """Integer problem files: C2 group algebra and the triangular golden family.

    Every (family, degree, entry size) cell gets ZZ_REPEATS instances with
    entries drawn uniformly from [-2^bits, 2^bits].  Both families are in
    scope by construction (C2 is commutative with the trivial twist; the
    triangular f are g(X + e11)), so nothing is rejected.
    """
    rng = random.Random(seed)
    problems, ops = {}, []
    for family, m, bits, rep in product(("c2", "ut2"), ZZ_DEGREES, ZZ_BITS,
                                        range(ZZ_REPEATS)):
        bound = 1 << bits
        tail = [rng.randint(-bound, bound) for _ in range(m)]
        if family == "c2":
            poly = [[rng.randint(-bound, bound), a] for a in tail] + [[1, 0]]
            doc = c2_doc()
        else:
            poly = ut2_poly_from_center(tail + [1])
            doc = ut2_doc(0)
        name = f"{family}-d{m}-b{bits}-{rep}"
        problems[name] = _write(workdir / f"{name}.json", dict(doc, poly=poly))
        ops.append({"label": name, "ring": name, "family": family, "degree": m,
                    "expected": list(zz_reference(family, poly))})
    rng.shuffle(ops)
    return {"problems": problems, "ops": ops,
            "info": {"instances": len(ops), "rejections": 0}}


GENERATORS = {
    "oracle_sweep": _sweep_ops,
    "gcd_check": _gcd_ops,
    "large_dim": _large_dim_ops,
    "zz_decide": _zz_ops,
}


def build(workload: str, seed: int, workdir: Path) -> dict:
    """Write the workload's problem files under workdir; return its manifest."""
    workdir.mkdir(parents=True, exist_ok=True)
    manifest = GENERATORS[workload](seed, workdir)
    manifest.update(workload=workload, seed=seed)
    return manifest
