"""JSON encodings for matrices, rationals, group elements, objects and cocycles.

Formats:
  matrix    {"rows": r, "cols": c, "data": [[int, ...], ...]}
  rational  [num, den]  (den > 0; phases additionally reduced into [0,1))
  element   {"n": n, "matrix": <matrix>}        iso is recomputed on load
  object    {"matrix": <matrix>, "eta": <matrix>}
  morphism  {"H": <matrix>, "lin": [int, ...], "src": <object>, "dst": <object>}
  cocycle   {"n", "points", "cover", "a", "ahat", "m", "mhat", "t"}
            with map keys "p|i|j", "i|j|k", "p|i|j|k"; an optional "meta"
            member is ignored on load.

All loads validate shape and integrality; `canonical_dumps` produces a
byte-stable serialization (sorted keys, no whitespace).
"""

from __future__ import annotations

import json
from fractions import Fraction

from .groups import PseudoOrthogonal, check_membership
from .intlinalg import IntMat, Phase, RatVec
from .tdcorr import NerveModel, TDCocycle
from .twogroup import Mor, Obj

__all__ = [
    "FormatError",
    "canonical_dumps",
    "mat_to_json",
    "mat_from_json",
    "frac_to_json",
    "frac_from_json",
    "phase_to_json",
    "phase_from_json",
    "ratvec_to_json",
    "ratvec_from_json",
    "element_to_json",
    "element_from_json",
    "obj_to_json",
    "obj_from_json",
    "mor_to_json",
    "mor_from_json",
    "cocycle_to_json",
    "cocycle_from_json",
]


class FormatError(ValueError):
    """Malformed JSON payload."""


def canonical_dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise FormatError(msg)


def _expect_int(x, what: str) -> int:
    _expect(isinstance(x, int) and not isinstance(x, bool), f"{what} must be an integer")
    return x


def mat_to_json(m: IntMat) -> dict:
    return {"rows": m.rows, "cols": m.cols, "data": [list(r) for r in m.data]}


def mat_from_json(obj) -> IntMat:
    _expect(isinstance(obj, dict), "matrix must be an object")
    for key in ("rows", "cols", "data"):
        _expect(key in obj, f"matrix missing {key!r}")
    rows = _expect_int(obj["rows"], "rows")
    cols = _expect_int(obj["cols"], "cols")
    _expect(rows >= 1 and cols >= 1, "matrix must have at least one row and column")
    data = obj["data"]
    _expect(isinstance(data, list) and len(data) == rows, "matrix data has wrong row count")
    for r in data:
        _expect(isinstance(r, list) and len(r) == cols, "matrix data has wrong column count")
        for x in r:
            _expect_int(x, "matrix entry")
    return IntMat(data)


def frac_to_json(f: Fraction) -> list[int]:
    return [f.numerator, f.denominator]


def frac_from_json(obj) -> Fraction:
    _expect(
        isinstance(obj, list) and len(obj) == 2, "rational must be a two-element array"
    )
    num = _expect_int(obj[0], "numerator")
    den = _expect_int(obj[1], "denominator")
    _expect(den > 0, "denominator must be positive")
    return Fraction(num, den)


def phase_to_json(p: Phase) -> list[int]:
    return [p.numerator, p.denominator]


def phase_from_json(obj) -> Phase:
    f = frac_from_json(obj)
    _expect(0 <= f < 1, "phase must be reduced into [0,1)")
    return Phase(f)


def ratvec_to_json(v: RatVec) -> list[list[int]]:
    return [frac_to_json(e) for e in v.entries]


def ratvec_from_json(obj, dim: int | None = None) -> RatVec:
    _expect(isinstance(obj, list) and obj, "vector must be a non-empty array")
    if dim is not None:
        _expect(len(obj) == dim, f"vector must have length {dim}")
    return RatVec([frac_from_json(e) for e in obj])


def _intvec_from_json(obj, dim: int, what: str) -> tuple[int, ...]:
    _expect(isinstance(obj, list) and len(obj) == dim, f"{what} must have length {dim}")
    return tuple(_expect_int(x, what) for x in obj)


def element_to_json(a: PseudoOrthogonal) -> dict:
    return {"n": a.n, "matrix": mat_to_json(a.mat)}


def element_from_json(obj) -> PseudoOrthogonal:
    _expect(isinstance(obj, dict) and "matrix" in obj, "element must carry a matrix")
    mat = mat_from_json(obj["matrix"])
    if "n" in obj:
        _expect(_expect_int(obj["n"], "n") * 2 == mat.rows, "declared rank disagrees with matrix size")
    return check_membership(mat)


def obj_to_json(o: Obj) -> dict:
    return {"matrix": mat_to_json(o.g.mat), "eta": mat_to_json(o.x)}


def obj_from_json(obj) -> Obj:
    _expect(
        isinstance(obj, dict) and "matrix" in obj and "eta" in obj,
        "object must carry matrix and eta",
    )
    g = check_membership(mat_from_json(obj["matrix"]))
    return Obj(g, mat_from_json(obj["eta"]))


def mor_to_json(m: Mor) -> dict:
    return {
        "H": mat_to_json(m.h),
        "lin": list(m.lin),
        "src": obj_to_json(m.src),
        "dst": obj_to_json(m.dst),
    }


def mor_from_json(obj) -> Mor:
    _expect(isinstance(obj, dict), "morphism must be an object")
    for key in ("lin", "src", "dst"):
        _expect(key in obj, f"morphism missing {key!r}")
    src = obj_from_json(obj["src"])
    dst = obj_from_json(obj["dst"])
    lin = _intvec_from_json(obj["lin"], 2 * src.n, "character entry")
    m = Mor(src, dst, lin)
    if "H" in obj:
        _expect(mat_from_json(obj["H"]) == m.h, "declared H disagrees with endpoints")
    return m


# -- cocycles ------------------------------------------------------------


def _key_join(*parts) -> str:
    return "|".join(str(p) for p in parts)


def cocycle_to_json(c: TDCocycle, meta: dict | None = None) -> dict:
    payload = {
        "n": c.n,
        "points": list(c.nerve.points),
        "cover": {p: list(c.nerve.cover[p]) for p in c.nerve.points},
        "a": {_key_join(*k): ratvec_to_json(v) for k, v in c.a.items()},
        "ahat": {_key_join(*k): ratvec_to_json(v) for k, v in c.ahat.items()},
        "m": {_key_join(*k): list(v) for k, v in c.m.items()},
        "mhat": {_key_join(*k): list(v) for k, v in c.mhat.items()},
        "t": {_key_join(*k): phase_to_json(v) for k, v in c.t.items()},
    }
    if meta is not None:
        payload["meta"] = meta
    return payload


def _split_key(key: str, arity: int, with_point: bool):
    parts = key.split("|")
    _expect(len(parts) == arity, f"map key {key!r} must have {arity} parts")
    if with_point:
        point, rest = parts[0], parts[1:]
        try:
            return (point, *(int(x) for x in rest))
        except ValueError as exc:
            raise FormatError(f"non-integer index in key {key!r}") from exc
    try:
        return tuple(int(x) for x in parts)
    except ValueError as exc:
        raise FormatError(f"non-integer index in key {key!r}") from exc


def cocycle_from_json(obj) -> TDCocycle:
    _expect(isinstance(obj, dict), "cocycle must be an object")
    for key in ("n", "points", "cover", "a", "ahat", "m", "mhat", "t"):
        _expect(key in obj, f"cocycle missing {key!r}")
    n = _expect_int(obj["n"], "n")
    _expect(n >= 1, "rank must be positive")
    points = obj["points"]
    _expect(
        isinstance(points, list) and all(isinstance(p, str) for p in points),
        "points must be an array of strings",
    )
    _expect(all("|" not in p for p in points), "point ids must not contain '|'")
    cover_raw = obj["cover"]
    _expect(isinstance(cover_raw, dict), "cover must be an object")
    cover = {}
    for p in points:
        _expect(p in cover_raw, f"cover missing point {p!r}")
        idx = cover_raw[p]
        _expect(isinstance(idx, list) and idx, f"cover of {p!r} must be non-empty")
        cover[p] = tuple(_expect_int(i, "cover index") for i in idx)
    nerve = NerveModel(tuple(points), cover)
    a = {
        _split_key(k, 3, True): ratvec_from_json(v, n) for k, v in obj["a"].items()
    }
    ahat = {
        _split_key(k, 3, True): ratvec_from_json(v, n) for k, v in obj["ahat"].items()
    }
    m = {
        _split_key(k, 3, False): _intvec_from_json(v, n, "m entry")
        for k, v in obj["m"].items()
    }
    mhat = {
        _split_key(k, 3, False): _intvec_from_json(v, n, "mhat entry")
        for k, v in obj["mhat"].items()
    }
    t = {_split_key(k, 4, True): phase_from_json(v) for k, v in obj["t"].items()}
    try:
        return TDCocycle(nerve, n, a, ahat, m, mhat, t)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
