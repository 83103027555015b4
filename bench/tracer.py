"""Span and counter tracing of td2g's public functions, installed by patching.

`Tracer.install` wraps each traced function or method and rebinds *every*
td2g module attribute that holds it, because td2g modules import names
directly (`from .intlinalg import strict_lower_split` in twogroup, `from
.twogroup import section` in cli); patching only the defining module would
miss those calls.  Methods are patched on their class.  `uninstall` puts
every original back.

Spans carry (op, id, parent id, name, start ns, end ns), stay in memory in
flat arrays and are written out by `dump`.  Hot constructors and the small
matrix builders get counts, not spans.  The tracer keeps one span stack and
so assumes td2g runs single-threaded (TD2G_THREADS unset).

`summarize` turns a dump into the per-layer metrics.  A span's self time
is its duration minus the time covered by its child spans, so time in an
untraced helper counts toward the traced function that called it.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from array import array
from collections import defaultdict

# (span name, module, attribute); "Class.method" patches a method.
SPANS = [
    ("intlinalg.matmul", "td2g.intlinalg", "IntMat.__mul__"),
    ("intlinalg.mul_ratvec", "td2g.intlinalg", "IntMat.mul_ratvec"),
    ("intlinalg.phase_bilinear", "td2g.intlinalg", "phase_bilinear"),
    ("intlinalg.unimodular_inverse", "td2g.intlinalg", "unimodular_inverse"),
    ("groups.random_word", "td2g.groups", "random_word"),
    ("groups.pseudo_mul", "td2g.groups", "PseudoOrthogonal.__mul__"),
    ("groups.check_membership", "td2g.groups", "check_membership"),
    ("twogroup.section", "td2g.twogroup", "section"),
    ("twogroup.beta_multiplicator", "td2g.twogroup", "beta_multiplicator"),
    ("twogroup.eval_mor", "td2g.twogroup", "eval_mor"),
    ("kinvariant.k_cocycle", "td2g.kinvariant", "k_cocycle"),
    ("kinvariant.gamma", "td2g.kinvariant", "gamma"),
    ("kinvariant.twisted_action", "td2g.kinvariant", "twisted_action"),
    ("kinvariant.check_cocycle_identity", "td2g.kinvariant", "check_cocycle_identity"),
    ("kinvariant.check_two_torsion", "td2g.kinvariant", "check_two_torsion"),
    ("crossedmod.check_ci_axioms", "td2g.crossedmod", "check_ci_axioms"),
    ("crossedmod.check_ct_axioms", "td2g.crossedmod", "check_ct_axioms"),
    ("tdcorr.random_cocycle", "td2g.tdcorr", "random_cocycle"),
    ("tdcorr.act", "td2g.tdcorr", "act"),
    ("tdcorr.validate", "td2g.tdcorr", "validate"),
    *(
        (f"tdcorr.{name}", "td2g.tdcorr", name)
        for name in (
            "check_gerbe_cocycle",
            "check_corr_delta",
            "check_poincare",
            "check_flip_identities",
            "check_gl_identities",
            "check_rotation_identities",
            "check_so_shift_data",
            "check_so_shift_gerbes",
            "check_eps_cech",
            "check_so_shift_identities",
        )
    ),
    ("jsonio.load_file", "td2g.cli", "_load_json"),
    *(
        (f"jsonio.{name}", "td2g.jsonio", name)
        for name in (
            "mat_from_json",
            "element_from_json",
            "obj_from_json",
            "mor_from_json",
            "cocycle_from_json",
            "mat_to_json",
            "element_to_json",
            "obj_to_json",
            "mor_to_json",
            "cocycle_to_json",
            "canonical_dumps",
        )
    ),
    ("cli.main", "td2g.cli", "main"),
]

# (counter name, module, attribute): counted, no span.
COUNTERS = [
    ("intlinalg.intmat_new", "td2g.intlinalg", "IntMat.__init__"),
    ("intlinalg.ratvec_new", "td2g.intlinalg", "RatVec.__init__"),
    ("intlinalg.phase_new", "td2g.intlinalg", "Phase.__init__"),
    ("intlinalg.strict_lower_split", "td2g.intlinalg", "strict_lower_split"),
    ("groups.pairing_matrix", "td2g.groups", "pairing_matrix"),
    ("groups.j_matrix", "td2g.groups", "j_matrix"),
    ("twogroup.b_matrix", "td2g.twogroup", "b_matrix"),
]

# Per-layer metric -> span names whose self time it sums.
SELF_TIME_GROUPS = {
    "intlinalg.matmul": ["intlinalg.matmul"],
    "intlinalg.phase_bilinear": ["intlinalg.phase_bilinear"],
    "intlinalg.mul_ratvec": ["intlinalg.mul_ratvec"],
    "intlinalg.unimodular_inverse": ["intlinalg.unimodular_inverse"],
    "groups.random_word": ["groups.random_word"],
    "groups.pseudo_mul": ["groups.pseudo_mul"],
    "groups.check_membership": ["groups.check_membership"],
    "twogroup.section": ["twogroup.section"],
    "twogroup.beta_multiplicator": ["twogroup.beta_multiplicator"],
    "twogroup.eval_mor": ["twogroup.eval_mor"],
    "kinvariant.k_cocycle": ["kinvariant.k_cocycle"],
    "kinvariant.gamma": ["kinvariant.gamma"],
    "kinvariant.twisted_action": ["kinvariant.twisted_action"],
    "crossedmod.check_ci_axioms": ["crossedmod.check_ci_axioms"],
    "crossedmod.check_ct_axioms": ["crossedmod.check_ct_axioms"],
    "tdcorr.random_cocycle": ["tdcorr.random_cocycle"],
    "tdcorr.act": ["tdcorr.act"],
    "tdcorr.validate": ["tdcorr.validate"],
    "tdcorr.checks": [s for s, _, _ in SPANS if s.startswith("tdcorr.check_")],
    "jsonio.load": ["jsonio.load_file"] + [s for s, _, _ in SPANS if s.endswith("_from_json")],
    "jsonio.dump": ["jsonio.canonical_dumps"] + [s for s, _, _ in SPANS if s.endswith("_to_json")],
    "cli": ["cli.main"],
}
# Spans whose call count is a metric, and spans whose latency is.
COUNTED_SPANS = ["intlinalg.matmul", "groups.pseudo_mul", "kinvariant.k_cocycle", "tdcorr.act"]
TIMED_SPANS = ["kinvariant.check_cocycle_identity"]


def _resolve(modname: str, attr: str):
    """(owner, name, original) for a module function or a "Class.method"."""
    module = sys.modules[modname]
    if "." in attr:
        cls_name, meth = attr.split(".")
        owner = getattr(module, cls_name)
        return owner, meth, owner.__dict__[meth]
    return module, attr, getattr(module, attr)


class Tracer:
    """Install with `install()`, run td2g calls with `op` set, then `uninstall()`."""

    def __init__(self):
        self.names: list[str] = []
        self.op = 0
        self.span_op = array("q")
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_name = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.counts: dict[str, int] = {}
        self.bytes_in = 0
        self.bytes_out = 0
        self.b_repeats = 0
        self._next_id = 0
        self._stack = [-1]
        self._seen_scope = None
        self._seen: set = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------

    def _span(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        stack = self._stack
        clock = time.perf_counter_ns
        ops, ids, parents, names = self.span_op, self.span_id, self.span_parent, self.span_name
        starts, ends = self.span_start, self.span_end

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                ops.append(self.op)
                ids.append(sid)
                parents.append(parent)
                names.append(idx)
                starts.append(t0)
                ends.append(t1)

        traced.__wrapped__ = fn
        return traced

    def _counter(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _b_matrix(self, fn):
        """Counts b_matrix calls, and those on an element already seen in the same check.

        A check is the outermost traced call below `cli.main`.
        """
        counted = self._counter("twogroup.b_matrix", fn)
        stack = self._stack

        def observed(a):
            scope = stack[2] if len(stack) > 2 else stack[-1]
            if scope != self._seen_scope:
                self._seen_scope = scope
                self._seen.clear()
            if a.mat in self._seen:
                self.b_repeats += 1
            else:
                self._seen.add(a.mat)
            return counted(a)

        observed.__wrapped__ = fn
        return observed

    def _load_file(self, fn):
        def sized(path):
            self.bytes_in += _file_size(path)
            return fn(path)

        return sized

    def _dumps(self, fn):
        def sized(payload):
            out = fn(payload)
            self.bytes_out += len(out.encode())
            return out

        return sized

    # -- patching ---------------------------------------------------

    def _patch(self, modname: str, attr: str, make) -> None:
        owner, name, orig = _resolve(modname, attr)
        wrapper = make(orig)
        if isinstance(owner, type):
            self._patches.append((owner, name, orig))
            setattr(owner, name, wrapper)
            return
        for modkey, module in list(sys.modules.items()):
            if modkey != "td2g" and not modkey.startswith("td2g."):
                continue
            for binding, value in list(vars(module).items()):
                if value is orig:
                    self._patches.append((module, binding, orig))
                    setattr(module, binding, wrapper)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, modname, attr in COUNTERS:
            if name == "twogroup.b_matrix":
                self._patch(modname, attr, self._b_matrix)
            else:
                self._patch(modname, attr, lambda fn, name=name: self._counter(name, fn))
        for name, modname, attr in SPANS:
            if name == "jsonio.load_file":
                make = lambda fn, name=name: self._span(name, self._load_file(fn))
            elif name == "jsonio.canonical_dumps":
                make = lambda fn, name=name: self._span(name, self._dumps(fn))
            else:
                make = lambda fn, name=name: self._span(name, fn)
            self._patch(modname, attr, make)

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._patches):
            setattr(owner, name, orig)
        self._patches.clear()

    # -- output -----------------------------------------------------

    def dump(self, prefix: str) -> None:
        """Write spans to `<prefix>.spans` and everything else to `<prefix>.json`."""
        with open(prefix + ".spans", "wb") as fh:
            for arr in self._arrays():
                arr.tofile(fh)
        meta = {
            "spans": len(self.span_id),
            "names": self.names,
            "counts": self.counts,
            "b_matrix_repeats": self.b_repeats,
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
        }
        with open(prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh)

    def _arrays(self):
        return (self.span_op, self.span_id, self.span_parent, self.span_name, self.span_start, self.span_end)


def _file_size(path: str) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (0 < q <= 1); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def summarize(prefix: str, traced_ns: int, untraced_ns: int) -> dict:
    """Per-layer metrics, as {name: (value, unit)}, from a `dump`."""
    with open(prefix + ".json", encoding="utf-8") as fh:
        meta = json.load(fh)
    total = meta["spans"]
    arrays = [array("q") for _ in range(6)]
    with open(prefix + ".spans", "rb") as fh:
        for arr in arrays:
            arr.fromfile(fh, total)
    _, ids, parents, name_idx, starts, ends = arrays
    names = meta["names"]

    child_ns = defaultdict(int)
    for parent, t0, t1 in zip(parents, starts, ends):
        if parent >= 0:
            child_ns[parent] += t1 - t0
    self_ns = defaultdict(int)
    count = defaultdict(int)
    durations = defaultdict(list)
    for sid, idx, t0, t1 in zip(ids, name_idx, starts, ends):
        name = names[idx]
        self_ns[name] += t1 - t0 - child_ns[sid]
        count[name] += 1
        if name in TIMED_SPANS:
            durations[name].append((t1 - t0) / 1e6)

    counts = meta["counts"]
    out: dict[str, tuple[float, str]] = {}
    for name, _, _ in COUNTERS:
        out[f"{name}.count"] = (counts.get(name, 0), "count")
    b_calls = counts.get("twogroup.b_matrix", 0)
    out["twogroup.b_matrix.repeat_ratio"] = (
        meta["b_matrix_repeats"] / b_calls if b_calls else 0.0,
        "ratio",
    )
    for name in COUNTED_SPANS:
        out[f"{name}.count"] = (count[name], "count")
    for metric, spans in SELF_TIME_GROUPS.items():
        out[f"{metric}.self_s"] = (sum(self_ns[s] for s in spans) / 1e9, "s")
    for name in TIMED_SPANS:
        out[f"{name}.ms.p50"] = (percentile(durations[name], 0.5), "ms")
        out[f"{name}.ms.p90"] = (percentile(durations[name], 0.9), "ms")
    out["jsonio.bytes_in"] = (meta["bytes_in"], "bytes")
    out["jsonio.bytes_out"] = (meta["bytes_out"], "bytes")
    out["trace.overhead_ratio"] = (traced_ns / untraced_ns, "ratio")
    return out
