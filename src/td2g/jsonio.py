"""JSON encodings for matrices, group elements, objects, morphisms and cocycles.

Formats:
  matrix    {"rows": r, "cols": c, "data": [[int, ...], ...]}
  rational  [num, den]  (den > 0; phases additionally in [0,1)); written
            reduced, read reduced or not
  element   {"n": n, "matrix": <matrix>}        iso is recomputed on load
  object    {"matrix": <matrix>, "eta": <matrix>}
  morphism  {"H": <matrix>, "lin": [int, ...], "src": <object>, "dst": <object>}
  cocycle   {"n", "points", "cover", "a", "ahat", "m", "mhat", "t"}
            with map keys "p|i|j", "i|j|k", "p|i|j|k"; an optional "meta"
            member is ignored on load.  On load, point ids must be
            distinct and m and mhat must share their keys.  Each key is
            split once at "|" and each part looked up: a point key must
            name a point and then indices of its cover, an "i|j|k" key
            indices of the nerve, every index written as str() writes it
            ("01", " 1", "+1" and "1_0" name no index).

All loads validate shape and integrality, and each refusal, a matrix
of an element or object that is not a member included, is a
FormatError; `canonical_dumps` produces a byte-stable serialization
(sorted keys, no whitespace).  The cocycle
loader checks keys, the nerve and that each entry is an array of integers
or of [num, den] integer pairs, in one walk per member;
`tdcocycle.cocycle_numerators` checks the rest once and turns the pairs into
stored numerators.  Every load refuses a rank, nerve or integer entry
over the bounds below before any arithmetic on it, and a cocycle with
a point's common denominator over its bound before any validation.
"""

from __future__ import annotations

import json
from math import gcd

from .groups import PseudoOrthogonal, check_membership
from .intlinalg import IntMat
from .tdcocycle import NerveModel, TDCocycle, cocycle_numerators
from .twogroup import Mor, Obj

__all__ = [
    "FormatError",
    "canonical_dumps",
    "mat_to_json",
    "mat_from_json",
    "element_to_json",
    "element_from_json",
    "obj_to_json",
    "obj_from_json",
    "mor_to_json",
    "mor_from_json",
    "cocycle_to_json",
    "cocycle_from_json",
]

# Bounds on every load.  MAX_N also bounds `verify --n`, whose suites keep
# `standard_generators(n)` for the life of the process: at n = 16, 379
# elements of 32x32 entries, about 7 MB, built in about 70 ms (Python 3.11,
# 2-core x86-64 VM); their count and size grow as n^2 and n^4.
MAX_N = 16
MAX_POINTS = 64
MAX_COVER = 8
MAX_ENTRY_BITS = 256
# Each point's common denominators D_p and B_p have their own bound,
# `tdcocycle.MAX_DENOMINATOR_BITS`, refused where `cocycle_numerators`
# computes them.


class FormatError(ValueError):
    """Malformed JSON payload."""


def canonical_dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise FormatError(msg)


def _expect_int(x, what: str) -> int:
    # `type(x) is int` refuses bool, the only int subclass `json.load` returns
    _expect(type(x) is int, f"{what} must be an integer")
    return x


def _bound(value: int, bound: int, what: str) -> None:
    _expect(value <= bound, f"{what} is {value}, over the bound {bound}")


def _build(make, *args):
    """make(*args), with a ValueError from its own checks raised as FormatError."""
    try:
        return make(*args)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def mat_to_json(m: IntMat) -> dict:
    return {"rows": m.rows, "cols": m.cols, "data": [list(r) for r in m.data]}


def mat_from_json(obj) -> IntMat:
    _expect(isinstance(obj, dict), "matrix must be an object")
    for key in ("rows", "cols", "data"):
        _expect(key in obj, f"matrix missing {key!r}")
    rows = _expect_int(obj["rows"], "rows")
    cols = _expect_int(obj["cols"], "cols")
    _expect(rows >= 1 and cols >= 1, "matrix must have at least one row and column")
    _bound((max(rows, cols) + 1) // 2, MAX_N, "rank")
    data = obj["data"]
    _expect(isinstance(data, list) and len(data) == rows, "matrix data has wrong row count")
    for r in data:
        _expect(isinstance(r, list) and len(r) == cols, "matrix data has wrong column count")
        for x in r:
            if type(x) is not int or x.bit_length() > MAX_ENTRY_BITS:
                raise _entry_error(x, "matrix entry")
    return IntMat._new(tuple(map(tuple, data)))


def _entry_error(x, what: str) -> FormatError:
    must = "be an integer" if type(x) is not int else f"have at most {MAX_ENTRY_BITS} bits"
    return FormatError(f"{what} must {must}")


def _ints(what: str, obj) -> tuple[int, ...]:
    _expect(isinstance(obj, list), f"{what} must be an array")
    for x in obj:
        if type(x) is not int or x.bit_length() > MAX_ENTRY_BITS:
            raise _entry_error(x, what)
    return tuple(obj)


def _rational(obj) -> list[int]:
    if not isinstance(obj, list) or len(obj) != 2:
        raise FormatError("rational must be a two-element array")
    num, den = obj
    if type(num) is not int or num.bit_length() > MAX_ENTRY_BITS:
        raise _entry_error(num, "numerator")
    if type(den) is not int or den.bit_length() > MAX_ENTRY_BITS:
        raise _entry_error(den, "denominator")
    return obj


def _rationals(obj) -> list[list[int]]:
    _expect(isinstance(obj, list), "vector must be an array")
    for pair in obj:
        _rational(pair)
    return obj


def element_to_json(a: PseudoOrthogonal) -> dict:
    return {"n": a.n, "matrix": mat_to_json(a.mat)}


def element_from_json(obj) -> PseudoOrthogonal:
    _expect(isinstance(obj, dict) and "matrix" in obj, "element must carry a matrix")
    mat = mat_from_json(obj["matrix"])
    if "n" in obj:
        _expect(_expect_int(obj["n"], "n") * 2 == mat.rows, "declared rank disagrees with matrix size")
    return _build(check_membership, mat)


def obj_to_json(o: Obj) -> dict:
    return {"matrix": mat_to_json(o.g.mat), "eta": mat_to_json(o.x)}


def obj_from_json(obj) -> Obj:
    _expect(
        isinstance(obj, dict) and "matrix" in obj and "eta" in obj,
        "object must carry matrix and eta",
    )
    mat, eta = mat_from_json(obj["matrix"]), mat_from_json(obj["eta"])
    return _build(Obj, _build(check_membership, mat), eta)


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
    m = _build(Mor, src, dst, _ints("character entry", obj["lin"]))
    if "H" in obj:
        _expect(mat_from_json(obj["H"]) == m.h, "declared H disagrees with endpoints")
    return m


# -- cocycles ------------------------------------------------------------


def cocycle_to_json(c: TDCocycle, meta: dict | None = None) -> dict:
    a, ahat, t = {}, {}, {}
    for p, (d, big, _, _, an, hn, tn) in c.nums.items():
        for (i, j), u in an.items():
            key = f"{p}|{i}|{j}"
            a[key] = [[x // (g := gcd(x, d)), d // g] for x in u]
            ahat[key] = [[x // (g := gcd(x, d)), d // g] for x in hn[(i, j)]]
        for (i, j, k), x in tn.items():
            g = gcd(x, big)
            t[f"{p}|{i}|{j}|{k}"] = [x // g, big // g]
    payload = {
        "n": c.n,
        "points": list(c.nerve.points),
        "cover": {p: list(c.nerve.cover[p]) for p in c.nerve.points},
        "a": a,
        "ahat": ahat,
        "m": {f"{i}|{j}|{k}": list(v) for (i, j, k), v in c.m.items()},
        "mhat": {f"{i}|{j}|{k}": list(v) for (i, j, k), v in c.mhat.items()},
        "t": t,
    }
    if meta is not None:
        payload["meta"] = meta
    return payload


# The head of a key whose first part names nothing: no key element, no index names.
_NO_HEAD = (None, {})


def _map_from_json(obj, name: str, arity: int, heads: dict, parse) -> dict:
    """Parse the map member `name`, whose keys join `arity` (3 or 4) parts with "|".

    `heads` maps each allowed first part to the first key element and the
    names of the indices allowed after it.  One walk over the entries:
    each key is split once and every part looked up (a part that is not a
    name is refused), then `parse` checks its value.
    """
    table = obj[name]
    _expect(isinstance(table, dict), f"{name!r} must be an object")
    out = {}
    for k, v in table.items():
        parts = k.split("|")
        head, names = heads.get(parts[0], _NO_HEAD)
        if len(parts) != arity:
            key = (None,)
        elif arity == 3:
            key = (head, names.get(parts[1]), names.get(parts[2]))
        else:
            key = (head, names.get(parts[1]), names.get(parts[2]), names.get(parts[3]))
        if None in key:
            raise FormatError(f"{name} key {k!r} names no site of the nerve")
        out[key] = parse(v)
    return out


def cocycle_from_json(obj) -> TDCocycle:
    _expect(isinstance(obj, dict), "cocycle must be an object")
    for key in ("n", "points", "cover", "a", "ahat", "m", "mhat", "t"):
        _expect(key in obj, f"cocycle missing {key!r}")
    n = _expect_int(obj["n"], "n")
    _expect(n >= 1, "rank must be positive")
    _bound(n, MAX_N, "rank")
    points = obj["points"]
    _expect(
        isinstance(points, list) and all(isinstance(p, str) for p in points),
        "points must be an array of strings",
    )
    _bound(len(points), MAX_POINTS, "point count")
    _expect(all("|" not in p for p in points), "point ids must not contain '|'")
    _expect(len(set(points)) == len(points), "point ids must be distinct")
    cover_raw = obj["cover"]
    _expect(isinstance(cover_raw, dict), "cover must be an object")
    cover = {}
    for p in points:
        _expect(p in cover_raw, f"cover missing point {p!r}")
        idx = cover_raw[p]
        _expect(isinstance(idx, list) and idx, f"cover of {p!r} must be non-empty")
        _bound(len(idx), MAX_COVER, f"cover size of {p!r}")
        cover[p] = tuple(_expect_int(i, "cover index") for i in idx)
    nerve = _build(NerveModel, tuple(points), cover)
    # Index names as str() writes them: one table per point's cover and
    # one for the nerve, so "01", " 1", "+1" and "1_0" name no index.
    point_heads = {p: (p, {str(i): i for i in cover[p]}) for p in points}
    nerve_names = {str(i): i for i in nerve.indices()}
    index_heads = {x: (i, nerve_names) for x, i in nerve_names.items()}
    a = _map_from_json(obj, "a", 3, point_heads, _rationals)
    ahat = _map_from_json(obj, "ahat", 3, point_heads, _rationals)
    m = _map_from_json(obj, "m", 3, index_heads, lambda v: _ints("m entry", v))
    mhat = _map_from_json(obj, "mhat", 3, index_heads, lambda v: _ints("mhat entry", v))
    t = _map_from_json(obj, "t", 4, point_heads, _rational)
    return TDCocycle._new(*_build(cocycle_numerators, nerve, n, a, ahat, m, mhat, t))
