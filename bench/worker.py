"""Child process of the benchmark: runs one workload's ops through `td2g.cli.main`.

    python3 bench/worker.py gen SPEC     write the act-io input files
    python3 bench/worker.py run SPEC     run rounds, write the results

SPEC is a JSON file with root, workload, seed, seconds, trace and work
(the scratch directory).  `run` calls `td2g.cli.main(argv)` in this
process, as a script using td2g would, captures its stdout, and times each
call.  Untraced, it runs rounds until the calls have taken `seconds`.
With trace set it runs a fixed number of rounds untraced, then the same
rounds traced, and dumps the spans next to the results.  Either way it
then repeats a few golden rounds at the default seed, untimed.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
import time

import speed
import workloads


def import_td2g(root: str):
    """Import td2g from `<root>/src` and nowhere else."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import td2g.cli

    if not os.path.abspath(td2g.cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"td2g imported from {td2g.cli.__file__}, not from {src}")
    return td2g


def generate_act_inputs(work: str, seed: int, pairs: list[int] | None = None) -> list[int]:
    """Write act-io input triples `pairs` (default all) for `seed`: the object
    section(w) of a seeded word w, its inverse object and a random cocycle.
    Returns the files' sizes in bytes."""
    from td2g import jsonio, tdcorr
    from td2g.groups import random_word, standard_generators
    from td2g.twogroup import obj_inverse, section

    cover = workloads.act_nerve_cover()
    nerve = tdcorr.NerveModel(tuple(cover), {p: tuple(ix) for p, ix in cover.items()})
    gens = standard_generators(workloads.ACT_N)
    seeds = workloads.act_input_seeds(seed)
    sizes = []
    for j in range(len(seeds)) if pairs is None else pairs:
        cseed, wseed = seeds[j]
        obj = section(random_word(gens, 4 + wseed % 5, wseed))
        files = {
            f"auto-{j}.json": jsonio.obj_to_json(obj),
            f"inverse-{j}.json": jsonio.obj_to_json(obj_inverse(obj)),
            f"cocycle-{j}.json": jsonio.cocycle_to_json(tdcorr.random_cocycle(nerve, workloads.ACT_N, cseed)),
        }
        for name, payload in files.items():
            text = jsonio.canonical_dumps(payload) + "\n"
            with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
                fh.write(text)
            sizes.append(len(text.encode()))
    return sizes


def act_roundtrips(data: bytes) -> bool:
    """Whether an act output parses through jsonio and dumps back to the same bytes."""
    from td2g import jsonio

    try:
        payload = json.loads(data)
        meta = payload["meta"]
        coc = jsonio.cocycle_from_json(payload)
    except (ValueError, KeyError, TypeError):
        return False
    return (jsonio.canonical_dumps(jsonio.cocycle_to_json(coc, meta=meta)) + "\n").encode() == data


def _sha256_of(path: str) -> str | None:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None


def act_facts(op: dict, data: bytes) -> dict:
    """What the benchmark checks of an act output without td2g's help: its
    `meta` names the sha256 of both input files, and, for an op with
    `restores`, the cocycle equals that file's."""
    argv = op["argv"]
    try:
        payload = json.loads(data)
        meta = payload.pop("meta")
    except (ValueError, KeyError, TypeError, AttributeError):
        return {"meta": False, "restores": False} if "restores" in op else {"meta": False}
    want = {"auto_sha256": _sha256_of(argv[argv.index("--auto") + 1]),
            "cocycle_sha256": _sha256_of(argv[argv.index("--cocycle") + 1])}
    facts = {"meta": meta == want}
    if "restores" in op:
        with open(op["restores"], encoding="utf-8") as fh:
            facts["restores"] = payload == json.load(fh)
    return facts


def run_op(cli, op: dict, probe: bool = False) -> dict:
    """One `td2g` call: exit code, stdout (for act, the output file's hash
    and `act_facts`) and time.

    `cli.main` is looked up at call time, so an installed tracer sees it.
    With `probe`, the reference loop is timed during the call (speed.py)
    and its time is left out of the call's.
    """
    out, err = io.StringIO(), io.StringIO()
    sampler = speed.Probe() if probe else None
    output = op["argv"][op["argv"].index("-o") + 1] if op["kind"] == "act" else None
    if output is not None and os.path.exists(output):
        os.remove(output)
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), sampler or contextlib.nullcontext():
        t0 = time.perf_counter_ns()
        try:
            code = cli.main(op["argv"])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed op, not a benchmark error
            code = f"{type(exc).__name__}: {exc}"
        ns = time.perf_counter_ns() - t0
    if sampler is not None:
        ns -= sampler.stolen_ns
    result = {"key": op["key"], "kind": op["kind"], "argv": op["argv"], "units": op["units"],
              "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:], "ns": ns,
              "speed_ms": sampler.samples if sampler is not None else []}
    if output is not None:
        try:
            with open(output, "rb") as fh:
                data = fh.read()
        except OSError:
            data = b""
        result["sha256"] = hashlib.sha256(data).hexdigest()
        result["data"] = data
        result.update(act_facts(op, data))
    return result


def run_rounds(cli, spec: dict, rounds: int | list[int] | None = None, seconds: float = 0.0,
               tracer=None, speed_ms: list[list[float]] | None = None):
    """Run rounds 0.. until `rounds` are done, or (if None) until calls took
    `seconds`; a list of `rounds` runs those rounds only.

    Untraced, each distinct act output is parsed back once, and repeats of
    its pair are checked against it by hash; traced, the parent compares
    the outputs with the untraced pass instead.  With `speed_ms`, each
    round's reference-loop timings (before, during and after it) are
    appended there (speed.py).
    """
    done: list[list[dict]] = []
    roundtrip: dict[str, bool] = {}
    probe = speed_ms is not None
    before = speed.boundary_ms() if probe else None
    spent = 0
    if isinstance(rounds, int):
        rounds = list(range(rounds))
    i = 0
    while (i < len(rounds)) if rounds is not None else (spent < seconds * 1e9):
        r = rounds[i] if rounds is not None else i
        if tracer is not None:
            tracer.op = r
        results = [run_op(cli, op, probe) for op in workloads.round_ops(spec["workload"], spec["seed"], r, spec["work"])]
        if probe:
            after = speed.boundary_ms()
            speed_ms.append([before, *(x for res in results for x in res["speed_ms"]), after])
            before = after
        for res in results:
            spent += res["ns"]
            data = res.pop("data", None)
            if data is not None and tracer is None:
                if res["key"] not in roundtrip:
                    roundtrip[res["key"]] = act_roundtrips(data)
                res["roundtrip"] = roundtrip[res["key"]]
        done.append(results)
        i += 1
    return done


def run_golden_rounds(cli, spec: dict) -> list[list[dict]]:
    """The rounds at DEFAULT_SEED that this run repeats, untimed, for the
    parent to compare with the goldens (workloads.golden_check_rounds)."""
    workload = spec["workload"]
    picked = workloads.golden_check_rounds(workload, spec["seed"])
    if not picked:
        return []
    work = os.path.join(spec["work"], "golden")
    os.makedirs(work)
    if workload == "act-io":
        generate_act_inputs(work, workloads.DEFAULT_SEED, [r % workloads.ACT_PAIRS for r in picked])
    return run_rounds(cli, dict(spec, seed=workloads.DEFAULT_SEED, work=work), picked)


def peak_rss_kb() -> int:
    """Peak resident memory of this process or, if larger, of any child it waited for."""
    return max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))


def main(argv: list[str]) -> int:
    mode, spec_path = argv
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    td2g = import_td2g(spec["root"])
    work = spec["work"]
    if mode == "gen":
        result = {"input_bytes": generate_act_inputs(work, spec["seed"])}
    else:
        if spec["trace"]:
            import tracer

            rounds = workloads.TRACE_ROUNDS[spec["workload"]]
            plain = run_rounds(td2g.cli, spec, rounds)
            tr = tracer.Tracer()
            tr.install()
            try:
                traced = run_rounds(td2g.cli, spec, rounds, tracer=tr)
            finally:
                tr.uninstall()
            tr.dump(os.path.join(work, "trace"))
            result = {"rounds": plain, "traced_rounds": traced}
        else:
            speed_ms: list[list[float]] = []
            rounds = run_rounds(td2g.cli, spec, seconds=spec["seconds"], speed_ms=speed_ms)
            result = {"rounds": rounds, "speed_ms": speed_ms}
        result["peak_rss_kb"] = peak_rss_kb()
        result["golden_rounds"] = run_golden_rounds(td2g.cli, spec)
    with open(os.path.join(work, f"{mode}-result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
