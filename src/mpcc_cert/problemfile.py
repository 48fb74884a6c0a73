"""Problem and multiplier documents: JSON with named numeric arrays.

Two problem modes exist.  ``point-data`` carries the first-order data at
the base point directly; ``affine`` carries constraint matrices plus the
point, from which the data is evaluated.  A vector is a JSON array of
numbers, a matrix a row-major array of such arrays, and a tolerance a
number; strings and booleans are rejected, never converted, and ``null``
for an array field means the field is absent.  Unknown field names are
rejected with a diagnostic naming the field, so typos surface as parse
errors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .errors import DimensionMismatch, ParseError
from .model import AffineInstance, FirstOrderData, MultiplierVector, Tolerances, evaluate_affine

# (vector fields, matrix fields) of each document kind
_ARRAYS = {
    "point-data": (("grad_f", "g_vals", "h_vals", "G_vals", "H_vals"),
                   ("grad_g", "grad_h", "grad_G", "grad_H")),
    "affine": (("c", "b_g", "b_h", "b_G", "b_H", "x_bar"), ("Q", "A_g", "A_h", "A_G", "A_H")),
    "multipliers": (("lambda", "eta", "mu", "nu"), ()),
}
_POINT_KEYS = {"mode", "n", "l", "m", "p", "tolerances", *sum(_ARRAYS["point-data"], ())}
_AFFINE_KEYS = {"mode", "tolerances", *sum(_ARRAYS["affine"], ())}
_TOL_KEYS = {"active_tol", "feas_tol", "solver_tol", "cert_tol"}
_MULT_KEYS = set(_ARRAYS["multipliers"][0])


@dataclass(frozen=True, eq=False)
class ProblemInput:
    mode: str
    data: FirstOrderData
    tolerances: Optional[Tolerances]


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    return doc


def _reject_unknown(doc: dict, known: set, where: str) -> None:
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ParseError(f"{where}: unknown field '{unknown[0]}'")


def _require(doc: dict, key: str, where: str):
    if doc.get(key) is None:
        raise ParseError(f"{where}: missing required field '{key}'")
    return doc[key]


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_vector(value) -> bool:
    return isinstance(value, list) and all(map(_is_number, value))


def _check_numbers(doc: dict, kind: str, where: str) -> None:
    """Reject any array field of ``kind`` that is not numbers only; null is absent."""
    vectors, matrices = _ARRAYS[kind]
    for key in vectors:
        if doc.get(key) is not None and not _is_vector(doc[key]):
            raise ParseError(f"{where}: field '{key}' must be an array of numbers")
    for key in matrices:
        value = doc.get(key)
        if value is not None and not (isinstance(value, list) and all(map(_is_vector, value))):
            raise ParseError(f"{where}: field '{key}' must be an array of arrays of numbers")


def _parse_tolerances(doc: dict, where: str) -> Optional[Tolerances]:
    block = doc.get("tolerances")
    if block is None:
        return None
    if not isinstance(block, dict):
        raise ParseError(f"{where}: 'tolerances' must be an object")
    _reject_unknown(block, _TOL_KEYS, f"{where}.tolerances")
    for key, value in block.items():
        if not _is_number(value):
            raise ParseError(f"{where}.tolerances: field '{key}' must be a number")
    try:
        return Tolerances(**{k: float(v) for k, v in block.items()})
    except (ValueError, OverflowError) as exc:
        raise ParseError(f"{where}.tolerances: {exc}") from exc


def load_problem(path: str) -> ProblemInput:
    doc = _load_json(path)
    mode = _require(doc, "mode", path)
    if mode not in ("point-data", "affine"):
        raise ParseError(f"{path}: field 'mode' must be 'point-data' or 'affine', got {mode!r}")
    _reject_unknown(doc, _POINT_KEYS if mode == "point-data" else _AFFINE_KEYS, path)
    _check_numbers(doc, mode, path)
    try:
        if mode == "point-data":
            data = FirstOrderData(
                n=_require(doc, "n", path),
                l=_require(doc, "l", path),
                m=_require(doc, "m", path),
                p=_require(doc, "p", path),
                grad_f=_require(doc, "grad_f", path),
                g_vals=doc.get("g_vals"),
                grad_g=doc.get("grad_g"),
                h_vals=doc.get("h_vals"),
                grad_h=doc.get("grad_h"),
                G_vals=doc.get("G_vals"),
                grad_G=doc.get("grad_G"),
                H_vals=doc.get("H_vals"),
                grad_H=doc.get("grad_H"),
            )
        else:
            inst = AffineInstance(
                c=_require(doc, "c", path),
                Q=doc.get("Q"),
                A_g=doc.get("A_g"), b_g=doc.get("b_g"),
                A_h=doc.get("A_h"), b_h=doc.get("b_h"),
                A_G=doc.get("A_G"), b_G=doc.get("b_G"),
                A_H=doc.get("A_H"), b_H=doc.get("b_H"),
            )
            data = evaluate_affine(inst, _require(doc, "x_bar", path))
    except (DimensionMismatch, ValueError, TypeError, OverflowError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return ProblemInput(mode=mode, data=data, tolerances=_parse_tolerances(doc, path))


def load_multipliers(path: str, data: FirstOrderData) -> MultiplierVector:
    doc = _load_json(path)
    _reject_unknown(doc, _MULT_KEYS, path)
    _check_numbers(doc, "multipliers", path)
    sizes = {"lambda": data.l, "eta": data.m, "mu": data.p, "nu": data.p}
    try:
        mult = MultiplierVector(*[[0.0] * size if doc.get(key) is None else doc[key]
                                  for key, size in sizes.items()])
    except (DimensionMismatch, ValueError, TypeError, OverflowError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    for (key, size), values in zip(sizes.items(), (mult.lam, mult.eta, mult.mu, mult.nu)):
        if values.size != size:
            raise ParseError(f"{path}: field '{key}' must have length {size}, got {values.size}")
    return mult


def multipliers_to_dict(mult: MultiplierVector) -> dict:
    return {
        "lambda": mult.lam.tolist(),
        "eta": mult.eta.tolist(),
        "mu": mult.mu.tolist(),
        "nu": mult.nu.tolist(),
    }
