"""Problem files: one JSON document describing a ring, two maps, and a polynomial.

Expected shape:

    {
      "coeff_modulus": 0,
      "rank": 3,
      "basis_names": ["e11", "e12", "e22"],
      "unit": [1, 0, 1],
      "structure_constants": [[[...], ...], ...],
      "rho": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
      "derivation": [[0, 0, 0], [0, 1, 0], [0, 0, 0]],
      "poly": [[3, 0, 1], [3, 0, 1], [1, 0, 1]]
    }

structure_constants[i][j] is the coordinate vector of basis_i * basis_j.
Row i of rho (and of derivation) is the image of basis element i; the
column-per-image convention used internally is applied on load.  poly
lists right coefficients degree-ascending, and its leading entry must be
the unit (the engine only treats monic polynomials).  All integers are
plain decimals; they are reduced modulo coeff_modulus on load.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .linalg import CoeffRing
from .rings import BaseRing, RingMap


class ProblemError(ValueError):
    """A problem file that cannot be turned into ring data."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


@dataclass(frozen=True)
class Problem:
    base: BaseRing
    rho: RingMap
    deriv: RingMap
    poly_coeffs: tuple[tuple[int, ...], ...] | None


def _expect_int(value, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProblemError(field, "expected an integer")
    return value


def _expect_vector(value, length: int, field: str) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise ProblemError(field, "expected a list of integers")
    if len(value) != length:
        raise ProblemError(field, f"has length {len(value)}, expected {length}")
    return tuple(_expect_int(e, field) for e in value)


def _expect_matrix(value, rank: int, field: str) -> list[tuple[int, ...]]:
    if not isinstance(value, list) or len(value) != rank:
        raise ProblemError(field, f"expected {rank} rows")
    return [_expect_vector(row, rank, f"{field}[{i}]") for i, row in enumerate(value)]


def parse_problem(text: str) -> Problem:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemError(
            "document", f"line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:   # integer digit limit, deep nesting
        raise ProblemError("document", str(exc)) from exc
    if not isinstance(doc, dict):
        raise ProblemError("document", "expected a JSON object")
    known = {"coeff_modulus", "rank", "basis_names", "unit",
             "structure_constants", "rho", "derivation", "poly"}
    for key in doc:
        if key not in known:
            raise ProblemError(key, "unknown field")
    for key in ("coeff_modulus", "rank", "unit", "structure_constants",
                "rho", "derivation"):
        if key not in doc:
            raise ProblemError(key, "missing required field")

    modulus = _expect_int(doc["coeff_modulus"], "coeff_modulus")
    if modulus < 0 or modulus == 1:
        raise ProblemError("coeff_modulus", "must be 0 (integers) or at least 2")
    rank = _expect_int(doc["rank"], "rank")
    if rank < 1:
        raise ProblemError("rank", "must be at least 1")

    names = None
    if "basis_names" in doc:
        raw = doc["basis_names"]
        if (not isinstance(raw, list) or len(raw) != rank
                or not all(isinstance(s, str) for s in raw)):
            raise ProblemError("basis_names", f"expected {rank} strings")
        names = tuple(raw)

    unit = _expect_vector(doc["unit"], rank, "unit")
    raw_struct = doc["structure_constants"]
    if not isinstance(raw_struct, list) or len(raw_struct) != rank:
        raise ProblemError("structure_constants", f"expected {rank} blocks")
    structure = [_expect_matrix(block, rank, f"structure_constants[{i}]")
                 for i, block in enumerate(raw_struct)]

    coeff = CoeffRing(modulus)
    base = BaseRing(coeff, structure, unit, names=names)

    # rows are images of basis elements; internal matrices act on columns
    def as_map(key: str) -> RingMap:
        return RingMap.from_images(base, _expect_matrix(doc[key], rank, key))

    rho = as_map("rho")
    deriv = as_map("derivation")

    poly = None
    if "poly" in doc:
        raw_poly = doc["poly"]
        if not isinstance(raw_poly, list) or not raw_poly:
            raise ProblemError("poly", "expected a nonempty list of coefficient vectors")
        poly = tuple(_expect_vector(vec, rank, f"poly[{i}]")
                     for i, vec in enumerate(raw_poly))
        if coeff.reduce_vec(poly[-1]) != base.one().coords:
            raise ProblemError("poly", "leading coefficient must equal the unit")
    return Problem(base=base, rho=rho, deriv=deriv, poly_coeffs=poly)


def load_problem(path: str) -> Problem:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ProblemError("file", str(exc)) from exc
    return parse_problem(text)
