"""The benchmark's workloads: which `td2g` calls each one makes, derived from the seed.

A workload is a sequence of rounds.  A round is one user-visible task and
the unit of the `op_ms` latency metric:

  kinv-n1      `verify --suite n1-exhaustive` (512 triples + 4096 quadruples)
  kinv-n6      `verify --suite cocycle --n 6` then `--suite torsion --n 6`
  rational-n2  `verify --suite tdcorr --n 2` then `--suite ci-axioms --n 2`
  act-io       `act` on a generated (object, cocycle) file pair, then `act`
               by the inverse object on that output, which must give back
               the input cocycle

Each call is an op; `units` is the work it does (trials, triples and
quadruples, or files), which `checks_per_s` counts.  This module imports
nothing from td2g, so op lists are the same whichever program version runs.
"""

from __future__ import annotations

import random

WORKLOADS = ("kinv-n1", "kinv-n6", "rational-n2", "act-io")

# Goldens are stored for this seed (see make_golden.py).
DEFAULT_SEED = 0

# Trials per call, so that each call lasts about 1 s on a 2.0 GHz Xeon, as
# a user's suite call does (ROADMAP's reference call, `--suite cocycle --n 2
# --trials 300`, takes 2.7 s).  Per-call costs (argparse, building
# `standard_generators(n)`) are then a few percent, as in real use, and the
# trial loop dominates: under cProfile, building the generators is 4% of
# a kinv-n6 round and generating the words 36% (BASELINE.md).  A 15 s run
# holds 7 to 11 rounds of kinv-n6 or rational-n2.
KINV_N6_TRIALS = {"cocycle": 16, "torsion": 24}
RATIONAL_N2_TRIALS = {"tdcorr": 4, "ci-axioms": 40}

# act-io inputs: this many distinct (object, inverse object, cocycle)
# triples per seed, all at rank 3 on a 12-point nerve over 6 cover indices.
# Rounds cycle over them.
ACT_PAIRS = 24
ACT_N = 3

# Rank used by each workload's cold start (`setup_s`).
SETUP_N = {"kinv-n1": 1, "kinv-n6": 6, "rational-n2": 2, "act-io": ACT_N}

# Rounds of a traced run.  Fixed, not timed, so that per-layer counts
# repeat exactly for a given seed.
TRACE_ROUNDS = {"kinv-n1": 1, "kinv-n6": 3, "rational-n2": 3, "act-io": 6}

# Rounds at DEFAULT_SEED stored in the goldens (make_golden.py), and how
# many of them every run repeats, untimed, to compare with the goldens
# byte for byte.  kinv-n1 has no seed: its every round is the golden one.
GOLDEN_ROUNDS = {"kinv-n1": 1, "kinv-n6": 12, "rational-n2": 12, "act-io": ACT_PAIRS}
GOLDEN_CHECK_ROUNDS = {"kinv-n1": 0, "kinv-n6": 1, "rational-n2": 1, "act-io": 2}

N1_UNITS = 8**3 + 8**4


def round_seed(workload: str, seed: int, r: int) -> int:
    """Suite seed of round `r`; string seeding of `random` is stable across versions."""
    return random.Random(f"{workload}:{seed}:{r}").getrandbits(32)


def golden_check_rounds(workload: str, seed: int) -> list[int]:
    """The golden rounds that a run at `seed` repeats; other seeds pick others."""
    total = GOLDEN_ROUNDS[workload]
    return [(seed + i) % total for i in range(GOLDEN_CHECK_ROUNDS[workload])]


def act_input_seeds(seed: int) -> list[tuple[int, int]]:
    """(cocycle seed, word seed) of each act-io input triple."""
    rng = random.Random(f"act-io-inputs:{seed}")
    return [(rng.getrandbits(63), rng.getrandbits(63)) for _ in range(ACT_PAIRS)]


def act_nerve_cover() -> dict[str, list[int]]:
    """12 points over 6 indices: q0..q5 lie in 4 charts, q6..q11 in 3."""
    return {
        f"q{k}": sorted({(k + d) % 6 for d in range(4 if k < 6 else 3)}) for k in range(12)
    }


def _verify(suite: str, n: int, trials: int, seed: int) -> dict:
    argv = ["verify", "--suite", suite, "--n", str(n), "--trials", str(trials), "--seed", str(seed)]
    return {"kind": "verify", "argv": argv, "key": " ".join(argv), "units": trials}


def round_ops(workload: str, seed: int, r: int, work: str = ".") -> list[dict]:
    """The ops of round `r`.  `key` names the op in the golden file; an act
    op with `restores` must write back the cocycle of that file."""
    if workload == "kinv-n1":
        argv = ["verify", "--suite", "n1-exhaustive"]
        return [{"kind": "verify", "argv": argv, "key": " ".join(argv), "units": N1_UNITS}]
    if workload == "kinv-n6":
        s = round_seed(workload, seed, r)
        return [_verify(suite, 6, t, s) for suite, t in KINV_N6_TRIALS.items()]
    if workload == "rational-n2":
        s = round_seed(workload, seed, r)
        return [_verify(suite, 2, t, s) for suite, t in RATIONAL_N2_TRIALS.items()]
    if workload == "act-io":
        j = r % ACT_PAIRS
        key = f"act-io seed={seed} pair={j}"
        forward = ["act", "--auto", f"{work}/auto-{j}.json", "--cocycle", f"{work}/cocycle-{j}.json",
                   "-o", f"{work}/out.json"]
        back = ["act", "--auto", f"{work}/inverse-{j}.json", "--cocycle", f"{work}/out.json",
                "-o", f"{work}/back.json"]
        return [
            {"kind": "act", "argv": forward, "key": key, "units": 1},
            {"kind": "act", "argv": back, "key": key + " inverse", "units": 1,
             "restores": f"{work}/cocycle-{j}.json"},
        ]
    raise ValueError(f"unknown workload {workload!r}")
