import json
import subprocess
import sys

import pytest

from td2g import jsonio
from td2g.cli import main
from td2g.groups import embed_so, flip_element, pairing_matrix, rotation_n1
from td2g.intlinalg import IntMat, Phase
from td2g.kinvariant import k_cocycle
from td2g.tdcorr import act, default_nerve, random_cocycle, validate
from td2g.twogroup import beta_multiplicator, obj_unit, section
from conftest import words


def write_json(path, payload):
    path.write_text(json.dumps(payload))


def run_main(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out.strip()
    return code, json.loads(out) if out else None


class TestJsonIO:
    def test_matrix_roundtrip(self):
        m = IntMat([[1, -2], [3, 4]])
        assert jsonio.mat_from_json(jsonio.mat_to_json(m)) == m

    def test_matrix_rejects_ragged(self):
        with pytest.raises(jsonio.FormatError):
            jsonio.mat_from_json({"rows": 2, "cols": 2, "data": [[1, 2], [3]]})

    def test_matrix_rejects_floats(self):
        for entry in (1.5, True, "1", None):
            with pytest.raises(jsonio.FormatError):
                jsonio.mat_from_json({"rows": 1, "cols": 1, "data": [[entry]]})

    def test_matrix_rejects_empty(self):
        for rows, cols, data in ((0, 0, []), (1, 0, [[]]), (0, 2, [])):
            with pytest.raises(jsonio.FormatError):
                jsonio.mat_from_json({"rows": rows, "cols": cols, "data": data})

    def test_phase_bounds(self):
        from fractions import Fraction

        assert jsonio.phase_from_json([1, 3]) == Phase(Fraction(1, 3))
        with pytest.raises(jsonio.FormatError):
            jsonio.phase_from_json([3, 2])
        with pytest.raises(jsonio.FormatError):
            jsonio.phase_from_json([1, -2])

    def test_element_roundtrip_recomputes_iso(self):
        e = rotation_n1()
        back = jsonio.element_from_json(jsonio.element_to_json(e))
        assert back == e and back.iso == -1

    def test_obj_and_mor_roundtrip(self):
        from td2g.twogroup import automorphism_from_int

        a, b = words(2, 2, 301)
        m = beta_multiplicator(a, b)
        back = jsonio.mor_from_json(jsonio.mor_to_json(m))
        assert back == m
        o = section(a)
        assert jsonio.obj_from_json(jsonio.obj_to_json(o)) == o
        aut = automorphism_from_int(o, (3, -2, 0, 5))
        assert jsonio.mor_from_json(jsonio.mor_to_json(aut)) == aut

    def test_mor_rejects_inconsistent_h(self):
        a, b = words(2, 2, 307)
        m = beta_multiplicator(a, b)
        payload = jsonio.mor_to_json(m)
        payload["H"] = jsonio.mat_to_json(IntMat.zeros(4))
        if m.h != IntMat.zeros(4):
            with pytest.raises(jsonio.FormatError):
                jsonio.mor_from_json(payload)

    def test_cocycle_roundtrip_and_meta_ignored(self):
        c = random_cocycle(default_nerve(), 2, 311)
        payload = jsonio.cocycle_to_json(c, meta={"note": "x"})
        back = jsonio.cocycle_from_json(payload)
        assert back == c

    def test_cocycle_schema_errors(self):
        c = random_cocycle(default_nerve(), 1, 313)
        payload = jsonio.cocycle_to_json(c)
        del payload["t"]
        with pytest.raises(jsonio.FormatError):
            jsonio.cocycle_from_json(payload)
        payload2 = jsonio.cocycle_to_json(c)
        payload2["points"] = ["has|pipe"]
        with pytest.raises(jsonio.FormatError):
            jsonio.cocycle_from_json(payload2)

    def test_canonical_dumps_sorted(self):
        s = jsonio.canonical_dumps({"b": 1, "a": [1, 2]})
        assert s == '{"a":[1,2],"b":1}'


class TestCheckCommand:
    def test_member(self, tmp_path, capsys):
        f = tmp_path / "I.json"
        write_json(f, jsonio.mat_to_json(pairing_matrix(2)))
        code, out = run_main(capsys, ["check", str(f)])
        assert code == 0 and out == {"iso": 1, "member": True, "n": 2}

    def test_pseudo_member(self, tmp_path, capsys):
        f = tmp_path / "R.json"
        write_json(f, jsonio.mat_to_json(rotation_n1().mat))
        code, out = run_main(capsys, ["check", str(f)])
        assert code == 0 and out["iso"] == -1

    def test_non_member(self, tmp_path, capsys):
        from td2g.groups import j_matrix

        f = tmp_path / "J.json"
        write_json(f, jsonio.mat_to_json(j_matrix(2)))
        code, out = run_main(capsys, ["check", str(f)])
        assert code == 1 and out["member"] is False

    def test_parse_error(self, tmp_path, capsys):
        f = tmp_path / "bad.json"
        f.write_text("{not json")
        code, _ = run_main(capsys, ["check", str(f)])
        assert code == 2


class TestKinvCommand:
    def test_identity_triple(self, tmp_path, capsys):
        f = tmp_path / "e.json"
        write_json(f, jsonio.element_to_json(flip_element(2)))
        e = tmp_path / "id.json"
        write_json(e, jsonio.element_to_json(section(flip_element(2)).g))
        ident = tmp_path / "unit.json"
        write_json(ident, {"n": 2, "matrix": jsonio.mat_to_json(IntMat.identity(4))})
        code, out = run_main(
            capsys, ["kinv", "--a", str(ident), "--b", str(f), "--c", str(e)]
        )
        assert code == 0 and out == [0, 0, 0, 0]

    def test_matches_library(self, tmp_path, capsys):
        ws = words(2, 3, 317)
        paths = []
        for i, w in enumerate(ws):
            p = tmp_path / f"w{i}.json"
            write_json(p, jsonio.element_to_json(w))
            paths.append(str(p))
        code, out = run_main(
            capsys, ["kinv", "--a", paths[0], "--b", paths[1], "--c", paths[2]]
        )
        assert code == 0 and tuple(out) == k_cocycle(*ws)

    def test_n1_triples_vanish(self, tmp_path, capsys):
        from td2g.groups import enumerate_n1

        elems = enumerate_n1()
        paths = []
        for i, e in enumerate(elems[:3]):
            p = tmp_path / f"e{i}.json"
            write_json(p, jsonio.element_to_json(e))
            paths.append(str(p))
        code, out = run_main(
            capsys, ["kinv", "--a", paths[2], "--b", paths[1], "--c", paths[0]]
        )
        assert code == 0 and out == [0, 0]

    def test_rank_mismatch(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        write_json(a, jsonio.element_to_json(flip_element(1)))
        b = tmp_path / "b.json"
        write_json(b, jsonio.element_to_json(flip_element(2)))
        code, _ = run_main(capsys, ["kinv", "--a", str(a), "--b", str(b), "--c", str(b)])
        assert code == 2


class TestVerifyCommand:
    def test_n1_exhaustive(self, capsys):
        # the exhaustive suite ignores --n and --trials, even out-of-range ones
        code, report = run_main(
            capsys, ["verify", "--suite", "n1-exhaustive", "--n", "0", "--trials", "-5"]
        )
        assert code == 0
        assert report["suite"] == "n1-exhaustive" and report["failures"] == []
        assert report["n"] == 1 and report["trials"] == 0

    def test_seed_required(self, capsys):
        code = main(["verify", "--suite", "torsion", "--n", "2", "--trials", "3"])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize(
        "suite, n, trials",
        [
            ("cocycle", "0", "3"),
            ("torsion", "-2", "3"),
            ("tdcorr", "0", "1"),
            ("cocycle", "1", "-5"),
            ("subgroups", "2", "-1"),
        ],
    )
    def test_rejects_out_of_range_n_and_trials(self, capsys, suite, n, trials):
        code = main(["verify", "--suite", suite, "--n", n, "--trials", trials, "--seed", "1"])
        out = capsys.readouterr()
        assert code == 2
        assert out.out == "" and out.err.startswith("error:")

    def test_torsion(self, capsys):
        code, report = run_main(
            capsys,
            ["verify", "--suite", "torsion", "--n", "2", "--trials", "5", "--seed", "42"],
        )
        assert code == 0 and report["failures"] == []
        assert report["seed"] == 42 and report["trials"] == 5

    def test_cocycle(self, capsys):
        code, report = run_main(
            capsys,
            ["verify", "--suite", "cocycle", "--n", "2", "--trials", "4", "--seed", "1"],
        )
        assert code == 0 and report["failures"] == []

    def test_subgroups(self, capsys):
        code, report = run_main(
            capsys,
            ["verify", "--suite", "subgroups", "--n", "2", "--trials", "25", "--seed", "9"],
        )
        assert code == 0 and report["failures"] == []

    def test_ci_axioms(self, capsys):
        code, report = run_main(
            capsys,
            ["verify", "--suite", "ci-axioms", "--n", "2", "--trials", "4", "--seed", "11"],
        )
        assert code == 0 and report["failures"] == []

    def test_tdcorr_n1_passes(self, capsys):
        code, report = run_main(
            capsys,
            ["verify", "--suite", "tdcorr", "--n", "1", "--trials", "2", "--seed", "13"],
        )
        assert code == 0 and report["failures"] == []

    def test_tdcorr_n2_reports_eps_cech(self, capsys):
        # the generic eps Cech clause is honestly false; the suite says so
        code, report = run_main(
            capsys,
            ["verify", "--suite", "tdcorr", "--n", "2", "--trials", "2", "--seed", "13"],
        )
        assert code == 1
        assert report["failures"]
        assert all(f["failed"] == ["eps-cech"] for f in report["failures"])

    def test_thread_env_reproducible(self, capsys, monkeypatch):
        argv = ["verify", "--suite", "torsion", "--n", "2", "--trials", "6", "--seed", "5"]
        code1, rep1 = run_main(capsys, argv)
        monkeypatch.setenv("TD2G_THREADS", "3")
        code2, rep2 = run_main(capsys, argv)
        assert code1 == code2 == 0
        rep1.pop("elapsed_ms")
        rep2.pop("elapsed_ms")
        assert rep1 == rep2


class TestActCommand:
    def _write_inputs(self, tmp_path, obj, coc):
        auto = tmp_path / "auto.json"
        write_json(auto, jsonio.obj_to_json(obj))
        cfile = tmp_path / "c.json"
        cfile.write_text(jsonio.canonical_dumps(jsonio.cocycle_to_json(coc)) + "\n")
        out = tmp_path / "out.json"
        return auto, cfile, out

    def test_unit_gives_byte_identical_payload(self, tmp_path, capsys):
        c = random_cocycle(default_nerve(), 2, 331)
        auto, cfile, out = self._write_inputs(tmp_path, obj_unit(2), c)
        code = main(["act", "--auto", str(auto), "--cocycle", str(cfile), "-o", str(out)])
        capsys.readouterr()
        assert code == 0
        payload = json.loads(out.read_text())
        meta = payload.pop("meta")
        assert set(meta) == {"auto_sha256", "cocycle_sha256"}
        assert jsonio.canonical_dumps(payload) + "\n" == cfile.read_text()

    def test_so_shift_moves_right_leg(self, tmp_path, capsys):
        b = IntMat([[0, 1], [-1, 0]])
        c = random_cocycle(default_nerve(), 2, 337)
        auto, cfile, out = self._write_inputs(tmp_path, section(embed_so(b)), c)
        code = main(["act", "--auto", str(auto), "--cocycle", str(cfile), "-o", str(out)])
        capsys.readouterr()
        assert code == 0
        got = jsonio.cocycle_from_json(json.loads(out.read_text()))
        for key, av in c.a.items():
            assert got.ahat[key] == b.mul_ratvec(av) + c.ahat[key]

    def test_flip_twice_restores_legs(self, tmp_path, capsys):
        c = random_cocycle(default_nerve(), 2, 347)
        o = section(flip_element(2))
        auto, cfile, out1 = self._write_inputs(tmp_path, o, c)
        assert main(["act", "--auto", str(auto), "--cocycle", str(cfile), "-o", str(out1)]) == 0
        out2 = tmp_path / "out2.json"
        assert main(["act", "--auto", str(auto), "--cocycle", str(out1), "-o", str(out2)]) == 0
        capsys.readouterr()
        got = jsonio.cocycle_from_json(json.loads(out2.read_text()))
        assert got.a == c.a and got.ahat == c.ahat
        assert got.m == c.m and got.mhat == c.mhat
        # t differs from the original by the defect of the flip-square phase
        twice = act(section(flip_element(2)), act(section(flip_element(2)), c))
        assert got.t == twice.t
        assert validate(got)

    def test_invalid_input(self, tmp_path, capsys):
        c = random_cocycle(default_nerve(), 2, 349)
        auto, cfile, out = self._write_inputs(tmp_path, obj_unit(1), c)
        code = main(["act", "--auto", str(auto), "--cocycle", str(cfile), "-o", str(out)])
        capsys.readouterr()
        assert code == 2


class TestConsoleScript:
    def test_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "td2g.cli", "verify", "--suite", "n1-exhaustive"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["failures"] == []
