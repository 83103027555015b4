"""Command-line front end: element checking, k-invariant computation,
verification suites, and cocycle transformation.

Exit codes: 0 pass, 1 mathematical failure or counterexample, 2 input
error, 3 internal assertion failure.  Randomized suites require an
explicit --seed in [0, 2^64); reports embed the seed and list failures
in trial order.  Trials run one after another on seeds pre-split from
the master seed, so trial i depends only on the seed and i.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from functools import partial

from . import crossedmod, jsonio, kinvariant, tdcorr
from .groups import (
    MembershipError,
    check_membership,
    enumerate_n1,
    gl_generators,
    random_word,
    so_basis,
    standard_generators,
)
from .rng import XorShift64Star, substream_seeds
from .twogroup import beta_multiplicator, section

__all__ = ["main", "entry"]

EXIT_OK = 0
EXIT_MATH = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

# Seeds are 64-bit: the generator would silently reduce a larger one.
SEED_LIMIT = 1 << 64

SUITES = ("n1-exhaustive", "cocycle", "torsion", "subgroups", "ci-axioms", "tdcorr")


def _print_json(payload) -> None:
    print(jsonio.canonical_dumps(payload))


def _unique_keys(pairs: list) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise jsonio.FormatError(f"repeated key {key!r}")
        obj[key] = value
    return obj


def _load_json(path: str):
    """Decode a JSON file; every failure, repeated object keys included, is a FormatError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except (OSError, ValueError, RecursionError) as exc:
        raise jsonio.FormatError(f"{path}: {exc}") from exc


def _run_trials(trials: int, seed: int, worker) -> list[dict]:
    """Run `worker(index, trial_seed)` on the pre-split seeds; keep its failures in trial order."""
    results = (worker(i, s) for i, s in enumerate(substream_seeds(seed, trials)))
    return [f for f in results if f]


# -- suite bodies --------------------------------------------------------


def _suite_n1_exhaustive(_n, _trials, _seed) -> list[dict]:
    elems = enumerate_n1()
    failures = []
    zero = (0, 0)
    for ia, a in enumerate(elems):
        for ib, b in enumerate(elems):
            for ic, c in enumerate(elems):
                if kinvariant.k_cocycle(a, b, c) != zero:
                    failures.append({"trial": 0, "check": "n1-vanishing", "triple": [ia, ib, ic]})
    for ia, a in enumerate(elems):
        for ib, b in enumerate(elems):
            for ic, c in enumerate(elems):
                for idd, d in enumerate(elems):
                    if not kinvariant.check_cocycle_identity(a, b, c, d):
                        failures.append(
                            {"trial": 0, "check": "cocycle-identity", "quadruple": [ia, ib, ic, idd]}
                        )
    return failures


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


def _suite_subgroups(n, trials, seed) -> list[dict]:
    failures = []
    for tag in ("Z", "V", "GL", "SO"):
        if not kinvariant.check_vanishing_on_subgroup(tag, n, trials=trials, seed=seed):
            failures.append({"trial": 0, "check": "subgroup-vanishing", "subgroup": tag})
    return failures


def _suite_ci_axioms(n, trials, seed) -> list[dict]:
    gens = standard_generators(n)

    def worker(i, s):
        rng = XorShift64Star(s)
        w = _word(gens, rng)
        obj = section(w)
        if not crossedmod.check_ci_axioms(obj, samples=8, seed=s):
            return {
                "trial": i,
                "check": "ci-axioms",
                "element": jsonio.mat_to_json(w.mat),
            }
        w2 = _word(gens, rng)
        if not crossedmod.check_ct_axioms(beta_multiplicator(w, w2), samples=8, seed=s):
            return {
                "trial": i,
                "check": "ct-axioms",
                "elements": [jsonio.mat_to_json(w.mat), jsonio.mat_to_json(w2.mat)],
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
        checks.append(("gerbe-cocycle", tdcorr.check_gerbe_cocycle(c, samples=10, seed=s)))
        checks.append(("corr-delta", tdcorr.check_corr_delta(c, samples=10, seed=s)))
        checks.append(("poincare", tdcorr.check_poincare(c, samples=4, seed=s)))
        checks.append(("flip", tdcorr.check_flip_identities(c, samples=10, seed=s)))
        checks.append(("gl", tdcorr.check_gl_identities(c, gls[rng.below(len(gls))], samples=10, seed=s)))
        if n == 1:
            checks.append(("rotation", tdcorr.check_rotation_identities(c, samples=10, seed=s)))
        else:
            b = shifts[rng.below(len(shifts))]
            checks.append(("so-shift-data", tdcorr.check_so_shift_data(c, b)))
            checks.append(("so-shift-gerbes", tdcorr.check_so_shift_gerbes(c, b, samples=10, seed=s)))
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


# -- commands ------------------------------------------------------------


def cmd_check(args) -> int:
    try:
        mat = jsonio.mat_from_json(_load_json(args.matrix))
    except jsonio.FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        elem = check_membership(mat)
    except MembershipError as exc:
        _print_json({"member": False, "reason": str(exc)})
        return EXIT_MATH
    _print_json({"member": True, "iso": elem.iso, "n": elem.n})
    return EXIT_OK


def cmd_kinv(args) -> int:
    try:
        a = jsonio.element_from_json(_load_json(args.a))
        b = jsonio.element_from_json(_load_json(args.b))
        c = jsonio.element_from_json(_load_json(args.c))
        if not (a.n == b.n == c.n):
            raise jsonio.FormatError("rank mismatch between elements")
    except (jsonio.FormatError, MembershipError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        _print_json(list(kinvariant.k_cocycle(a, b, c)))
    except ArithmeticError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


def cmd_verify(args) -> int:
    suite = args.suite
    n = args.n
    trials = args.trials
    seed = args.seed
    if seed is not None and not 0 <= seed < SEED_LIMIT:
        print("error: --seed must lie in [0, 2^64)", file=sys.stderr)
        return EXIT_INPUT
    if suite == "n1-exhaustive":
        n = 1
        trials = 0
        seed = 0 if seed is None else seed
    else:
        if n is None:
            print("error: --n is required for this suite", file=sys.stderr)
            return EXIT_INPUT
        if seed is None:
            print("error: --seed is required for randomized suites", file=sys.stderr)
            return EXIT_INPUT
        if trials is None:
            print("error: --trials is required for this suite", file=sys.stderr)
            return EXIT_INPUT
        if n < 1:
            print("error: --n must be at least 1", file=sys.stderr)
            return EXIT_INPUT
        if trials < 0:
            print("error: --trials must not be negative", file=sys.stderr)
            return EXIT_INPUT
    start = time.monotonic()
    try:
        failures = _SUITE_BODIES[suite](n, trials, seed)
    except ArithmeticError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
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


def _sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def _report_violation(c, message: str) -> bool:
    """Whether `c` is invalid; if so, print `message` and its first failing condition as JSON."""
    if tdcorr.validate(c):
        return False
    print(f"{message}: {jsonio.canonical_dumps(tdcorr.first_violation(c))}", file=sys.stderr)
    return True


def cmd_act(args) -> int:
    try:
        obj = jsonio.obj_from_json(_load_json(args.auto))
        coc = jsonio.cocycle_from_json(_load_json(args.cocycle))
        if obj.n != coc.n:
            raise jsonio.FormatError("object and cocycle rank differ")
    except (jsonio.FormatError, MembershipError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if _report_violation(coc, "error: cocycle fails validation"):
        return EXIT_INPUT
    result = tdcorr.act(obj, coc)
    if _report_violation(result, "internal error: transformed cocycle failed validation"):
        return EXIT_INTERNAL
    meta = {
        "auto_sha256": _sha256_file(args.auto),
        "cocycle_sha256": _sha256_file(args.cocycle),
    }
    payload = jsonio.cocycle_to_json(result, meta=meta)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(jsonio.canonical_dumps(payload))
        fh.write("\n")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
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

    args = parser.parse_args(argv)
    return args.func(args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
