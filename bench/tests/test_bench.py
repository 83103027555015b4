"""Tests of the benchmark itself: goldens, negative controls, tracer transparency.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

td2g = worker.import_td2g(str(ROOT))


def rounds_of(workload: str, count: int, work, tr=None):
    spec = {"workload": workload, "seed": workloads.DEFAULT_SEED, "work": str(work)}
    return worker.run_rounds(td2g.cli, spec, count, tracer=tr)


def error_rate(rounds, golden) -> float:
    return len(run.check_rounds(rounds, golden)) / sum(len(ops) for ops in rounds)


@pytest.fixture(scope="module")
def act_work(tmp_path_factory):
    work = tmp_path_factory.mktemp("act")
    worker.generate_act_inputs(str(work), workloads.DEFAULT_SEED)
    return work


@pytest.fixture
def work_for(tmp_path, act_work):
    return lambda workload: act_work if workload == "act-io" else tmp_path


@pytest.mark.parametrize("workload", ["kinv-n6", "rational-n2", "act-io"])
def test_goldens_reproduce(workload, work_for):
    rounds = rounds_of(workload, 2, work_for(workload))
    golden = run.load_golden(workload)
    assert all(res["key"] in golden for ops in rounds for res in ops)
    assert run.check_rounds(rounds, golden) == []
    assert error_rate(rounds, {}) == 0  # the verdict rule accepts them too


def test_wrong_k_cocycle_is_caught(monkeypatch, tmp_path):
    monkeypatch.setattr(td2g.kinvariant, "k_cocycle", lambda a, b, c: (1,) * (2 * a.n))
    rounds = rounds_of("kinv-n6", 1, tmp_path)
    assert error_rate(rounds, run.load_golden("kinv-n6")) > 0
    assert error_rate(rounds, {}) > 0


def test_flipped_golden_byte_is_caught(tmp_path):
    rounds = rounds_of("kinv-n6", 1, tmp_path)
    golden = dict(run.load_golden("kinv-n6"))
    key = rounds[0][0]["key"]
    text = golden[key]["stdout"]
    i = text.index('"n":6') + 4
    golden[key] = dict(golden[key], stdout=text[:i] + "7" + text[i + 1:])
    assert error_rate(rounds, golden) > 0


def test_flipped_act_hash_is_caught(act_work):
    rounds = rounds_of("act-io", 1, act_work)
    golden = dict(run.load_golden("act-io"))
    key = rounds[0][0]["key"]
    sha = golden[key]["sha256"]
    golden[key] = dict(golden[key], sha256=("0" if sha[0] != "0" else "1") + sha[1:])
    assert error_rate(rounds, golden) > 0


def test_inverse_act_must_restore_the_cocycle(tmp_path):
    worker.generate_act_inputs(str(tmp_path), workloads.DEFAULT_SEED, [0])
    assert error_rate(rounds_of("act-io", 1, tmp_path), {}) == 0
    # Acting by the object itself instead of its inverse gives a valid
    # cocycle, but not the input back.
    shutil.copy(tmp_path / "auto-0.json", tmp_path / "inverse-0.json")
    rounds = rounds_of("act-io", 1, tmp_path)
    assert [res.get("restores") for res in rounds[0]] == [None, False]
    assert error_rate(rounds, {}) > 0


def test_every_run_meets_a_golden(monkeypatch, tmp_path):
    # An act that returns its input unchanged writes valid, round-tripping
    # cocycles that the inverse act restores, so the verdict rule alone
    # passes it at any seed; the golden rounds each run repeats do not.
    unit = td2g.twogroup.obj_unit
    real_act = td2g.tdcorr.act
    monkeypatch.setattr(td2g.tdcorr, "act", lambda o, c: real_act(unit(o.n), c))
    spec = {"workload": "act-io", "seed": 7, "work": str(tmp_path)}
    worker.generate_act_inputs(str(tmp_path), 7, [0])
    assert run.check_rounds(worker.run_rounds(td2g.cli, spec, 1), {}) == []
    picked = worker.run_golden_rounds(td2g.cli, spec)
    assert [r for ops in picked for r in ops]
    assert run.check_golden_rounds(picked, run.load_golden("act-io")) != []


def test_golden_rounds_need_a_golden(tmp_path):
    spec = {"workload": "kinv-n6", "seed": 3, "work": str(tmp_path)}
    picked = worker.run_golden_rounds(td2g.cli, spec)
    golden = run.load_golden("kinv-n6")
    assert run.check_golden_rounds(picked, golden) == []
    assert run.check_golden_rounds(picked, {}) != []


def _report(suite: str, n: int, trials: int, failures: list, code: int) -> dict:
    argv = ["verify", "--suite", suite, "--n", str(n), "--trials", str(trials), "--seed", "5"]
    report = {"suite": suite, "n": n, "trials": trials, "seed": 5, "elapsed_ms": 3, "failures": failures}
    return {"kind": "verify", "argv": argv, "exit": code, "stdout": run.canonical(report) + "\n", "stderr": ""}


def test_verdict_allows_only_eps_cech_at_n2():
    eps = [{"trial": 0, "check": "tdcorr", "failed": ["eps-cech"]}]
    assert run.verdict(_report("tdcorr", 2, 1, eps, 1)) is None
    assert run.verdict(_report("tdcorr", 2, 1, [], 0)) is None
    assert run.verdict(_report("tdcorr", 2, 1, eps, 0)) is not None
    assert run.verdict(_report("tdcorr", 1, 1, eps, 1)) is not None
    other = [{"trial": 0, "check": "tdcorr", "failed": ["eps-cech", "gl"]}]
    assert run.verdict(_report("tdcorr", 2, 1, other, 1)) is not None
    assert run.verdict(_report("cocycle", 6, 1, [{"trial": 0, "check": "cocycle-identity"}], 1)) is not None


@pytest.mark.parametrize("workload", ["kinv-n6", "rational-n2", "act-io"])
def test_traced_outputs_are_byte_identical(workload, work_for):
    work = work_for(workload)
    plain = rounds_of(workload, 1, work)
    tr = tracer.Tracer()
    tr.install()
    try:
        traced = rounds_of(workload, 1, work, tr)
    finally:
        tr.uninstall()
    assert len(tr.span_id) > 0
    assert run.check_identical(plain, traced) == []


def _td2g_bindings() -> dict:
    return {
        (modname, attr): value
        for modname, module in sys.modules.items()
        if modname == "td2g" or modname.startswith("td2g.")
        for attr, value in vars(module).items()
        if callable(value)
    }


def test_tracer_rebinds_every_binding_and_restores(tmp_path):
    before = _td2g_bindings()
    mul = td2g.intlinalg.IntMat.__dict__["__mul__"]
    split = td2g.intlinalg.strict_lower_split
    section = td2g.twogroup.section
    tr = tracer.Tracer()
    tr.install()
    try:
        for module in (td2g.intlinalg, td2g.twogroup, td2g.kinvariant, td2g.tdcorr, td2g):
            assert module.strict_lower_split.__wrapped__ is split
        for module in (td2g.twogroup, td2g.cli, td2g.tdcorr, td2g):
            assert module.section.__wrapped__ is section
        assert td2g.intlinalg.IntMat.__dict__["__mul__"].__wrapped__ is mul
        tr.dump(str(tmp_path / "trace"))
    finally:
        tr.uninstall()
    assert _td2g_bindings() == before
    assert td2g.intlinalg.IntMat.__dict__["__mul__"] is mul


def test_metric_names_match_benchmark_json(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rounds = rounds_of("kinv-n6", 1, tmp_path)
    tr = tracer.Tracer()
    tr.install()
    try:
        traced = rounds_of("kinv-n6", 1, tmp_path, tr)
    finally:
        tr.uninstall()
    tr.dump(str(tmp_path / "trace"))
    ns = lambda rs: sum(res["ns"] for ops in rs for res in ops)
    per_layer = tracer.summarize(str(tmp_path / "trace"), ns(traced), ns(rounds))
    assert [(k, u) for k, (_, u) in sorted(per_layer.items())] == sorted(
        (m["name"], m["unit"]) for m in spec["per_layer"])
    assert worker.peak_rss_kb() > 0
    reference = [[speed.REFERENCE_MS]] * len(rounds)
    e2e = run.end_to_end(rounds, reference, [0.2], 20000)
    assert [(k, u) for k, (_, u) in sorted(e2e.items())] == sorted(
        (m["name"], m["unit"]) for m in spec["end_to_end"])
    assert all(v > 0 for v, _ in e2e.values())


def test_probe_samples_during_a_call_and_restores_the_handler():
    # About 1 s of work, several probe periods even on a fast machine.
    argv = ["verify", "--suite", "tdcorr", "--n", "2", "--trials", "3", "--seed", "11"]
    op = {"kind": "verify", "argv": argv, "key": " ".join(argv), "units": 3}
    before = signal.getsignal(signal.SIGALRM)
    res = worker.run_op(td2g.cli, op, probe=True)
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(res["speed_ms"]) >= 1
    assert run.verdict(res) is None


def test_scaled_times_follow_machine_speed():
    slow = [[2 * speed.REFERENCE_MS, 2 * speed.REFERENCE_MS]]
    assert speed.scaled([100.0], slow) == [pytest.approx(50.0)]
    assert speed.scaled([100.0], [[speed.REFERENCE_MS]]) == [pytest.approx(100.0)]
    # Half the time at twice the speed: a median would pick one level.
    mixed = [[speed.REFERENCE_MS, speed.REFERENCE_MS / 2]]
    assert speed.scaled([100.0], mixed) == [pytest.approx(150.0)]
    ref = speed.REFERENCE_START_S
    assert speed.scaled_starts([0.3, 0.2], [2 * ref, 2 * ref, ref]) == [0.15, 0.2 / 1.5]


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "kinv-n6", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
