"""Command-line front end: element checking, k-invariant computation,
verification suites, and cocycle transformation.

Exit codes: 0 pass, 1 mathematical failure or counterexample, 2 input
error, 3 internal assertion failure.  `main` is the one place where
errors become exit codes: a `jsonio.FormatError` (an unreadable file, a
refused payload, a non-member element or object, a bad `verify` option,
an unwritable `act -o`) exits 2 with an `error:` line, an
ArithmeticError exits 3 with an `internal error:` line.  The commands
return only their own outcomes: `check` reports a non-member matrix
with exit 1, and `act` its input or result cocycle that fails
validation with exit 2 or 3.  The parser is built once per process.

Randomized suites require an explicit --seed in [0, 2^64); reports
embed the seed and list failures in trial order.  Trials run one after
another on seeds drawn lazily from the master seed's stream, so trial i
depends only on the seed and i.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import time
from functools import cache, partial

from . import crossedmod, jsonio, kinvariant, tdcorr
from .groups import (
    MembershipError,
    check_membership,
    embed_so,
    enumerate_n1,
    gl_generators,
    random_word,
    so_basis,
    standard_generators,
)
from .jsonio import MAX_N
from .rng import XorShift64Star, substream_seeds
from .twogroup import beta_multiplicator, section

__all__ = ["main", "entry"]

EXIT_OK = 0
EXIT_MATH = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

# Seeds are 64-bit: the generator would silently reduce a larger one.
SEED_LIMIT = 1 << 64

# The most bytes of an input file any command reads; `jsonio` bounds the rest.
MAX_FILE_BYTES = 1 << 22


def _print_json(payload) -> None:
    print(jsonio.canonical_dumps(payload))


def _unique_keys(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise jsonio.FormatError(f"repeated key {key!r}")
            seen.add(key)
    return obj


def _load_json(path: str) -> tuple[object, bytes]:
    """Decode a JSON file read once; return the value and the bytes decoded.

    The bytes are decoded as text-mode `open` decodes them (UTF-8,
    universal newlines).  Every failure, repeated object keys included,
    is a FormatError, and so is a file over MAX_FILE_BYTES, of which no
    more than one byte past the bound is read.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read(MAX_FILE_BYTES + 1)
        if len(data) > MAX_FILE_BYTES:
            raise jsonio.FormatError(f"file is over the bound of {MAX_FILE_BYTES} bytes")
        text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
        return json.load(text, object_pairs_hook=_unique_keys), data
    except (OSError, ValueError, RecursionError) as exc:
        raise jsonio.FormatError(f"{path}: {exc}") from exc


def _run_trials(trials: int, seed: int, worker) -> list[dict]:
    """Run `worker(index, trial_seed)` for each trial in order; keep its failures in trial order."""
    results = (worker(i, s) for i, s in enumerate(substream_seeds(seed, trials)))
    return [f for f in results if f]


# -- suite bodies --------------------------------------------------------


def _suite_n1_exhaustive(_n, _trials, _seed) -> list[dict]:
    return kinvariant.finite_group_failures(enumerate_n1())


def _word(gens, rng: XorShift64Star):
    return random_word(gens, 4 + rng.below(5), rng)


def _suite_words(words: int, checker: str, check: str, n, trials, seed) -> list[dict]:
    """Test `words` random words per trial with `kinvariant.<checker>`.

    The checker is looked up on the module at call time, so patching
    `kinvariant` (in tests, or by a tracer) reaches it.
    """
    gens = standard_generators(n)

    def worker(i, s):
        rng = XorShift64Star(s)
        elems = [_word(gens, rng) for _ in range(words)]
        if getattr(kinvariant, checker)(*elems):
            return None
        return {
            "trial": i,
            "check": check,
            "elements": [jsonio.mat_to_json(g.mat) for g in elems],
        }

    return _run_trials(trials, seed, worker)


def _suite_subgroups(n, _trials, _seed) -> list[dict]:
    records = (kinvariant.subgroup_vanishing_failure(tag, n) for tag in ("Z", "V", "GL", "SO"))
    return [{"trial": 0, "check": "subgroup-vanishing", **r} for r in records if r]


def _suite_ci_axioms(n, trials, seed) -> list[dict]:
    gens = standard_generators(n)

    def worker(i, s):
        rng = XorShift64Star(s)
        w = _word(gens, rng)
        failures = crossedmod.ci_axiom_failures(section(w))
        if failures:
            return {
                "trial": i,
                "check": "ci-axioms",
                "element": jsonio.mat_to_json(w.mat),
                "failures": failures,
            }
        w2 = _word(gens, rng)
        failures = crossedmod.ct_axiom_failures(beta_multiplicator(w, w2))
        if failures:
            return {
                "trial": i,
                "check": "ct-axioms",
                "elements": [jsonio.mat_to_json(w.mat), jsonio.mat_to_json(w2.mat)],
                "failures": failures,
            }
        return None

    return _run_trials(trials, seed, worker)


def _suite_tdcorr(n, trials, seed) -> list[dict]:
    gens = standard_generators(n)
    gls = gl_generators(n)
    shifts = so_basis(n)
    nerve = tdcorr.default_nerve()

    def worker(i, s):
        rng = XorShift64Star(s)
        c = tdcorr.random_cocycle(nerve, n, s)
        checks: list[tuple[str, bool]] = [("validate", tdcorr.validate(c))]
        w = _word(gens, rng)
        transformed = tdcorr.act(section(w), c)
        checks.append(("act-validity", tdcorr.validate(transformed)))
        checks.append(("gerbe-cocycle", tdcorr.check_gerbe_cocycle(c)))
        checks.append(("corr-delta", tdcorr.check_corr_delta(c)))
        checks.append(("poincare", tdcorr.check_poincare(c)))
        checks.append(("flip", tdcorr.check_flip_identities(c)))
        checks.append(("gl", tdcorr.check_gl_identities(c, gls[rng.below(len(gls))])))
        if n == 1:
            checks.append(("rotation", tdcorr.check_rotation_identities(c)))
        else:
            b = shifts[rng.below(len(shifts))]
            shifted = tdcorr.act(section(embed_so(b)), c)
            checks.append(("so-shift-data", tdcorr.check_so_shift_data(c, b, transformed=shifted)))
            checks.append(("so-shift-gerbes", tdcorr.check_so_shift_gerbes(c, b, transformed=shifted)))
            checks.append(("eps-cech", tdcorr.check_eps_cech(c, b)))
        bad = [name for name, ok in checks if not ok]
        if bad:
            return {"trial": i, "check": "tdcorr", "failed": bad}
        return None

    return _run_trials(trials, seed, worker)


_SUITE_BODIES = {
    "n1-exhaustive": _suite_n1_exhaustive,
    "cocycle": partial(_suite_words, 4, "check_cocycle_identity", "cocycle-identity"),
    "torsion": partial(_suite_words, 3, "check_two_torsion", "two-torsion"),
    "subgroups": _suite_subgroups,
    "ci-axioms": _suite_ci_axioms,
    "tdcorr": _suite_tdcorr,
}
SUITES = tuple(_SUITE_BODIES)


# -- commands ------------------------------------------------------------


def cmd_check(args) -> int:
    mat = jsonio.mat_from_json(_load_json(args.matrix)[0])
    try:
        elem = check_membership(mat)
    except MembershipError as exc:
        _print_json({"member": False, "reason": str(exc)})
        return EXIT_MATH
    _print_json({"member": True, "iso": elem.iso, "n": elem.n})
    return EXIT_OK


def cmd_kinv(args) -> int:
    a, b, c = (jsonio.element_from_json(_load_json(path)[0]) for path in (args.a, args.b, args.c))
    if not (a.n == b.n == c.n):
        raise jsonio.FormatError("rank mismatch between elements")
    _print_json(list(kinvariant.k_cocycle(a, b, c)))
    return EXIT_OK


def cmd_verify(args) -> int:
    suite, n, trials, seed = args.suite, args.n, args.trials, args.seed
    if suite == "n1-exhaustive":  # ignores --n and --trials; --seed defaults to 0
        n, trials, seed = 1, 0, 0 if seed is None else seed
    error = (
        "--seed must lie in [0, 2^64)" if seed is not None and not 0 <= seed < SEED_LIMIT
        else "--n is required for this suite" if n is None
        else "--seed is required for randomized suites" if seed is None
        else "--trials is required for this suite" if trials is None
        else f"--n must lie in [1, {MAX_N}]" if not 1 <= n <= MAX_N
        else "--trials must not be negative" if trials < 0
        else None
    )
    if error:
        raise jsonio.FormatError(error)
    start = time.monotonic()
    failures = _SUITE_BODIES[suite](n, trials, seed)
    elapsed_ms = int((time.monotonic() - start) * 1000)
    report = {
        "suite": suite,
        "n": n,
        "trials": trials,
        "seed": seed,
        "elapsed_ms": elapsed_ms,
        "failures": failures,
    }
    _print_json(report)
    return EXIT_OK if not failures else EXIT_MATH


def _report_violation(c, message: str) -> bool:
    """Whether `c` is invalid; if so, print `message` and its first failing condition as JSON."""
    if tdcorr.validate(c):
        return False
    print(f"{message}: {jsonio.canonical_dumps(tdcorr.first_violation(c))}", file=sys.stderr)
    return True


def cmd_act(args) -> int:
    auto, auto_bytes = _load_json(args.auto)
    obj = jsonio.obj_from_json(auto)
    cocycle, cocycle_bytes = _load_json(args.cocycle)
    coc = jsonio.cocycle_from_json(cocycle)
    if obj.n != coc.n:
        raise jsonio.FormatError("object and cocycle rank differ")
    if _report_violation(coc, "error: cocycle fails validation"):
        return EXIT_INPUT
    result = tdcorr.act(obj, coc)
    if _report_violation(result, "internal error: transformed cocycle failed validation"):
        return EXIT_INTERNAL
    import hashlib  # here, not at the top: only act hashes, and the import would slow every start

    meta = {
        "auto_sha256": hashlib.sha256(auto_bytes).hexdigest(),
        "cocycle_sha256": hashlib.sha256(cocycle_bytes).hexdigest(),
    }
    text = jsonio.canonical_dumps(jsonio.cocycle_to_json(result, meta=meta)) + "\n"
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise jsonio.FormatError(f"{args.output}: {exc}") from exc
    return EXIT_OK


@cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="td2g",
        description="Exact verification tool for the automorphism 2-group of T-duality.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="membership and iso sign of a matrix")
    p_check.add_argument("matrix", help="JSON matrix file")
    p_check.set_defaults(func=cmd_check)

    p_kinv = sub.add_parser("kinv", help="k-invariant cocycle value of a triple")
    p_kinv.add_argument("--a", required=True)
    p_kinv.add_argument("--b", required=True)
    p_kinv.add_argument("--c", required=True)
    p_kinv.set_defaults(func=cmd_kinv)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", required=True, choices=SUITES)
    p_verify.add_argument("--n", type=int)
    p_verify.add_argument("--trials", type=int)
    p_verify.add_argument("--seed", type=int)
    p_verify.set_defaults(func=cmd_verify)

    p_act = sub.add_parser("act", help="transform a cocycle by an automorphism object")
    p_act.add_argument("--auto", required=True, help="JSON object file")
    p_act.add_argument("--cocycle", required=True, help="JSON cocycle file")
    p_act.add_argument("-o", "--output", required=True)
    p_act.set_defaults(func=cmd_act)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; the one place where its errors become exit codes.

    A FormatError (any refused input: file, payload or option) exits 2
    with an `error:` line, an ArithmeticError exits 3 with an `internal
    error:` line.  A command returns its other outcomes itself.
    """
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except jsonio.FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ArithmeticError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
