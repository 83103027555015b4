"""td2g benchmark: one workload, one seed, checked outputs, metrics as JSON.

    python3 bench/run.py --workload kinv-n6 --seed 0 --seconds 20 --trace 0

Run from the root of a td2g source tree; td2g is imported from `src/`
only, and the run fails (exit 2, no result) when it is not there.  The
workload runs in a child process (bench/worker.py) that calls
`td2g.cli.main` once per op.  Every op's output is checked by the verdict
rule in `verdict` and, when the golden file has that op (bench/golden/),
against the golden byte for byte.  Each run also repeats a few golden ops
at the default seed, untimed, so that every run meets a golden.
Human-readable lines come first; the last line
is the result JSON.  With --trace 0 it reports the end-to-end metrics,
with --trace 1 the per-layer metrics of bench/tracer.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import speed
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDEN = BENCH / "golden"

# Cold starts per run for setup_s; one more, untimed, compiles bytecode first.
SETUP_REPEATS = 21
# The whole run must end within 180 s.
DEADLINE_S = 170

ELAPSED = re.compile(r'"elapsed_ms":\d+,')


def strip_elapsed(stdout: str) -> str:
    return ELAPSED.sub("", stdout, count=1)


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def load_golden(workload: str) -> dict:
    """Golden outputs by op key (see make_golden.py)."""
    with open(GOLDEN / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)["ops"]


def _verify_args(argv: list[str]) -> dict:
    opts = dict(zip(argv[1::2], argv[2::2]))
    if opts["--suite"] == "n1-exhaustive":
        return {"suite": "n1-exhaustive", "n": 1, "trials": 0, "seed": 0}
    return {"suite": opts["--suite"], "n": int(opts["--n"]), "trials": int(opts["--trials"]), "seed": int(opts["--seed"])}


def verdict(res: dict) -> str | None:
    """Why an op's output is wrong, judged without a golden; None if it is right.

    A verify report must be canonical, echo its arguments and list no
    failure, except `eps-cech` for tdcorr at n >= 2 (a counterexample by
    design), with exit code 1 exactly when it lists one.  An act call
    must exit 0, print nothing and write a file that round-trips through
    jsonio and whose `meta` holds the hashes of its inputs; the act by the
    inverse object must give back the input cocycle (worker.act_facts).
    """
    if res["kind"] == "act":
        if res["exit"] != 0:
            return f"exit {res['exit']!r}: {res['stderr'].strip()}"
        if res["stdout"]:
            return "act printed to stdout"
        if not res.get("roundtrip"):
            return "output does not round-trip through jsonio"
        if not res["meta"]:
            return "output meta does not hold the sha256 of the input files"
        if res.get("restores") is False:
            return "act by the inverse object did not give back the input cocycle"
        return None
    if res["exit"] not in (0, 1):
        return f"exit {res['exit']!r}: {res['stderr'].strip()}"
    try:
        report = json.loads(res["stdout"])
    except ValueError:
        return "stdout is not one JSON report"
    if not isinstance(report, dict) or res["stdout"] != canonical(report) + "\n":
        return "report is not canonical JSON"
    if set(report) != {"suite", "n", "trials", "seed", "elapsed_ms", "failures"}:
        return "report has the wrong members"
    want = _verify_args(res["argv"])
    if any(report[k] != v for k, v in want.items()):
        return "report does not echo its arguments"
    failures = report["failures"]
    allowed = {"check": "tdcorr", "failed": ["eps-cech"]}
    by_design = want["suite"] == "tdcorr" and want["n"] >= 2
    trials = [f.get("trial") for f in failures]
    for f in failures:
        if not by_design or {k: v for k, v in f.items() if k != "trial"} != allowed:
            return f"unexpected failure {canonical(f)}"
    if trials != sorted(set(trials)) or any(not 0 <= t < want["trials"] for t in trials):
        return "failure trials out of order or range"
    if res["exit"] != (1 if failures else 0):
        return "exit code disagrees with the report"
    return None


def check_op(res: dict, golden: dict) -> str | None:
    """Why an op's output is wrong, or None.  A golden, where present, must
    match exactly, and the verdict rule must hold as well."""
    gold = golden.get(res["key"])
    why = verdict(res)
    if why is not None or gold is None:
        return why
    if res["exit"] != gold["exit"]:
        return f"exit {res['exit']!r}, golden {gold['exit']}"
    if "sha256" in gold:
        return None if res["sha256"] == gold["sha256"] else "output differs from golden"
    return None if strip_elapsed(res["stdout"]) == gold["stdout"] else "report differs from golden"


def check_rounds(rounds: list[list[dict]], golden: dict) -> list[str]:
    """Every op's problem, if any; repeated act pairs must reproduce their first output."""
    problems = []
    first_sha: dict[str, str] = {}
    for r, ops in enumerate(rounds):
        for res in ops:
            why = check_op(res, golden)
            if why is None and "sha256" in res:
                if first_sha.setdefault(res["key"], res["sha256"]) != res["sha256"]:
                    why = "repeat of an input pair gave different output"
            if why is not None:
                problems.append(f"round {r} `td2g {' '.join(res['argv'])}`: {why}")
    return problems


def check_golden_rounds(rounds: list[list[dict]], golden: dict) -> list[str]:
    """The seed-0 rounds a run repeats must all have a golden and match it."""
    missing = [f"`td2g {' '.join(res['argv'])}`: no golden for {res['key']!r}"
               for ops in rounds for res in ops if res["key"] not in golden]
    return missing + [f"golden {line}" for line in check_rounds(rounds, golden)]


def check_identical(plain: list[list[dict]], traced: list[list[dict]]) -> list[str]:
    """Traced ops must give byte-identical reports and act outputs to the untraced ones,
    which `check_rounds` has checked."""
    problems = []
    for r, (ops_p, ops_t) in enumerate(zip(plain, traced)):
        for p, t in zip(ops_p, ops_t):
            same = (p["exit"], strip_elapsed(p["stdout"]), p.get("sha256")) == (
                t["exit"], strip_elapsed(t["stdout"]), t.get("sha256"))
            if not same:
                problems.append(f"round {r} `td2g {' '.join(p['argv'])}`: traced output differs")
    return problems


def child_env() -> tuple[dict, str | None]:
    """Environment for child processes: td2g from src/, TD2G_THREADS unset."""
    env = dict(os.environ)
    ambient = env.pop("TD2G_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env, ambient


def current_cpu() -> int:
    """The CPU this process last ran on (field 39 of /proc/self/stat)."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            return int(fh.read().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return min(os.sched_getaffinity(0))


def measure_setup(n: int, seed: int, env: dict, deadline: float):
    """Cold `td2g verify --trials 0` starts, each scaled by reference starts
    made just before and after it (speed.py), and any wrong outputs.

    This process and the starts, which inherit it, are pinned to one CPU
    meanwhile, so that a start and its reference starts run on the same
    core."""
    argv = [sys.executable, "-m", "td2g.cli", "verify", "--suite", "cocycle",
            "--n", str(n), "--trials", "0", "--seed", str(seed)]
    expected = canonical({"failures": [], "n": n, "seed": seed, "suite": "cocycle", "trials": 0}) + "\n"

    def start(cmd):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        return time.perf_counter() - t0, proc

    times, refs, problems = [], [], []
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {current_cpu()})
    try:
        for i in range(SETUP_REPEATS + 1):
            elapsed, proc = start(argv)
            ref, ref_proc = start(speed.reference_start_argv())
            if ref_proc.returncode != 0:
                raise RuntimeError(f"reference start failed:\n{ref_proc.stderr[-2000:]}")
            if proc.returncode != 0 or strip_elapsed(proc.stdout) != expected:
                problems.append(f"cold start {i}: exit {proc.returncode}, stdout {proc.stdout!r}")
            if i:
                times.append(elapsed)
            refs.append(ref)
    finally:
        os.sched_setaffinity(0, allowed)
    return speed.scaled_starts(times, refs), problems


def run_worker(mode: str, spec: dict, env: dict, deadline: float) -> dict:
    spec_path = os.path.join(spec["work"], f"{mode}-spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), mode, spec_path],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} failed (exit {proc.returncode}):\n{proc.stderr[-4000:]}")
    with open(os.path.join(spec["work"], f"{mode}-result.json"), encoding="utf-8") as fh:
        return json.load(fh)


def environment(ambient_threads: str | None, input_bytes: list[int] | None) -> dict:
    src = ROOT / "src" / "td2g"
    digest = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        commit = proc.stdout.strip() if proc.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    env = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "td2g_commit": commit,
        "td2g_src_sha256": digest.hexdigest(),
        "TD2G_THREADS": "unset" if ambient_threads is None else f"unset (ambient {ambient_threads!r} removed)",
    }
    if input_bytes:
        env["act_input_bytes"] = {"files": len(input_bytes), "total": sum(input_bytes),
                                  "min": min(input_bytes), "max": max(input_bytes)}
    return env


def round_ms(rounds: list[list[dict]], speed_ms: list[list[float]]) -> list[float]:
    """Each round's time in `td2g.cli.main`, scaled to reference machine speed (speed.py)."""
    return speed.scaled([sum(res["ns"] for res in ops) / 1e6 for ops in rounds], speed_ms)


def end_to_end(rounds: list[list[dict]], speed_ms: list[list[float]], setup: list[float],
               peak_rss_kb: int) -> dict:
    """Medians over rounds and cold starts, so that a short stall or burst moves them little."""
    ms = round_ms(rounds, speed_ms)
    rates = [sum(res["units"] for res in ops) * 1e3 / t for ops, t in zip(rounds, ms)]
    return {
        "checks_per_s": (statistics.median(rates), "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "td2g" / "cli.py").is_file():
        print(f"error: no td2g sources under {ROOT / 'src'}; run from a td2g checkout", file=sys.stderr)
        return 2

    env, ambient = child_env()
    work = tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT)
    try:
        spec = {"root": str(ROOT), "workload": args.workload, "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace, "work": work}
        input_bytes = None
        if args.workload == "act-io":
            input_bytes = run_worker("gen", spec, env, deadline)["input_bytes"]
        problems: list[str] = []
        attempted = 0
        if not args.trace:
            setup, setup_problems = measure_setup(
                workloads.SETUP_N[args.workload], args.seed, env, deadline)
            problems += setup_problems
            attempted += len(setup) + 1
        result = run_worker("run", spec, env, deadline)
        golden = load_golden(args.workload)
        rounds = result["rounds"]
        problems += check_rounds(rounds, golden)
        attempted += sum(len(ops) for ops in rounds)
        problems += check_golden_rounds(result["golden_rounds"], golden)
        attempted += sum(len(ops) for ops in result["golden_rounds"])
        if args.trace:
            traced = result["traced_rounds"]
            problems += check_identical(rounds, traced)
            attempted += sum(len(ops) for ops in traced)
            ns = lambda rs: sum(res["ns"] for ops in rs for res in ops)
            metrics = tracer.summarize(os.path.join(work, "trace"), ns(traced), ns(rounds))
        else:
            metrics = end_to_end(rounds, result["speed_ms"], setup, result["peak_rss_kb"])
            ms = round_ms(rounds, result["speed_ms"])
            unscaled_p50 = statistics.median(sum(res["ns"] for res in ops) / 1e6 for ops in rounds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(problems)
    print(f"# td2g benchmark: workload {args.workload}, seed {args.seed}, "
          f"{len(rounds)} rounds, trace {args.trace}")
    print("# env " + canonical(environment(ambient, input_bytes)))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    if not args.trace:
        # Not in BENCHMARK.json: a round is a fixed number of units, so the
        # p50 moves with checks_per_s, and the p90 spreads too widely to gate.
        print(f"op_ms.p50 {statistics.median(ms)} ms (latency of one round)")
        print(f"op_ms.p90 {tracer.percentile(ms, 0.9)} ms (nearest rank)")
        print(f"op_ms.samples {len(rounds)} rounds")
        print(f"# times are scaled to reference machine speed (bench/speed.py); "
              f"unscaled op_ms.p50 was {unscaled_p50} ms")
    print(f"error_rate {failed / attempted} ({failed} of {attempted} ops failed)")
    for line in problems[:20]:
        print(f"# FAILED {line}")
    print(canonical({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
