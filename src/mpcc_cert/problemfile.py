"""Problem and multiplier documents: JSON with named numeric arrays.

Two problem modes exist.  ``point-data`` carries the first-order data at
the base point directly; ``affine`` carries constraint matrices plus the
point, from which the data is evaluated.  Matrices are row-major arrays
of arrays, all numbers decimal.  Unknown field names are rejected with a
diagnostic naming the field, so typos surface as parse errors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .errors import DimensionMismatch, ParseError
from .model import AffineInstance, FirstOrderData, MultiplierVector, Tolerances, evaluate_affine

_POINT_KEYS = {
    "mode", "n", "l", "m", "p", "grad_f", "g_vals", "grad_g", "h_vals", "grad_h",
    "G_vals", "grad_G", "H_vals", "grad_H", "tolerances",
}
_AFFINE_KEYS = {
    "mode", "Q", "c", "A_g", "b_g", "A_h", "b_h", "A_G", "b_G", "A_H", "b_H",
    "x_bar", "tolerances",
}
_TOL_KEYS = {"active_tol", "feas_tol", "solver_tol", "cert_tol"}
_MULT_KEYS = {"lambda", "eta", "mu", "nu"}


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
    if key not in doc:
        raise ParseError(f"{where}: missing required field '{key}'")
    return doc[key]


def _number_list(value, key: str):
    if not isinstance(value, list) or any(isinstance(v, (list, dict, str, bool)) for v in value):
        raise ParseError(f"field '{key}' must be a flat array of numbers")
    return value


def _parse_tolerances(doc: dict, where: str) -> Optional[Tolerances]:
    block = doc.get("tolerances")
    if block is None:
        return None
    if not isinstance(block, dict):
        raise ParseError(f"{where}: 'tolerances' must be an object")
    _reject_unknown(block, _TOL_KEYS, f"{where}.tolerances")
    try:
        return Tolerances(**{k: float(v) for k, v in block.items()})
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where}.tolerances: {exc}") from exc


def load_problem(path: str) -> ProblemInput:
    doc = _load_json(path)
    mode = _require(doc, "mode", path)
    if mode not in ("point-data", "affine"):
        raise ParseError(f"{path}: field 'mode' must be 'point-data' or 'affine', got {mode!r}")
    _reject_unknown(doc, _POINT_KEYS if mode == "point-data" else _AFFINE_KEYS, path)
    try:
        if mode == "point-data":
            data = FirstOrderData(
                n=_require(doc, "n", path),
                l=_require(doc, "l", path),
                m=_require(doc, "m", path),
                p=_require(doc, "p", path),
                grad_f=_number_list(_require(doc, "grad_f", path), "grad_f"),
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
                c=_number_list(_require(doc, "c", path), "c"),
                Q=doc.get("Q"),
                A_g=doc.get("A_g"), b_g=doc.get("b_g"),
                A_h=doc.get("A_h"), b_h=doc.get("b_h"),
                A_G=doc.get("A_G"), b_G=doc.get("b_G"),
                A_H=doc.get("A_H"), b_H=doc.get("b_H"),
            )
            data = evaluate_affine(inst, _number_list(_require(doc, "x_bar", path), "x_bar"))
    except (DimensionMismatch, ValueError, TypeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return ProblemInput(mode=mode, data=data, tolerances=_parse_tolerances(doc, path))


def load_multipliers(path: str, data: FirstOrderData) -> MultiplierVector:
    doc = _load_json(path)
    _reject_unknown(doc, _MULT_KEYS, path)
    try:
        mult = MultiplierVector(
            lam=_number_list(doc.get("lambda", [0.0] * data.l), "lambda"),
            eta=_number_list(doc.get("eta", [0.0] * data.m), "eta"),
            mu=_number_list(doc.get("mu", [0.0] * data.p), "mu"),
            nu=_number_list(doc.get("nu", [0.0] * data.p), "nu"),
        )
    except (DimensionMismatch, ValueError, TypeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    # nu has mu's length, which MultiplierVector checked
    for key, values, size in (("lambda", mult.lam, data.l), ("eta", mult.eta, data.m),
                              ("mu", mult.mu, data.p)):
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
