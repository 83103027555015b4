import itertools
import json
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from td2g import crossedmod, jsonio, kinvariant, tdcorr
from td2g.cli import main
from td2g.groups import (
    embed_so,
    flip_element,
    pairing_matrix,
    random_word,
    rotation_n1,
    standard_generators,
)
from td2g.intlinalg import IntMat, Phase
from td2g.kinvariant import k_cocycle
from td2g.rng import XorShift64Star, substream_seeds
from td2g.tdcorr import (
    NerveModel, TDCocycle, act, default_nerve, first_violation, random_cocycle, validate
)
from td2g.twogroup import beta_multiplicator, obj_unit, section
from conftest import SPLIT_NERVE, reference_cocycle_key, words


def write_json(path, payload):
    path.write_text(json.dumps(payload))


def run_main(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out.strip()
    return code, json.loads(out) if out else None


def _set_entry(member, key, value):
    def edit(payload):
        payload[member][key] = value

    return edit


def _set_m_and_mhat(key, value):
    def edit(payload):
        payload["m"][key] = value
        payload["mhat"][key] = value

    return edit


def _delete_entry(member, key):
    def edit(payload):
        del payload[member][key]

    return edit


def _rename_key(member, key, spelling, keep=False):
    """Write the entry `key` under a non-canonical `spelling` of its indices."""

    def edit(payload):
        value = payload[member][key] if keep else payload[member].pop(key)
        payload[member][spelling] = value

    return edit


# Edits that each make a valid rank-2 cocycle payload on SPLIT_NERVE malformed.
MALFORMED_COCYCLES = {
    "a-not-an-object": lambda payload: payload.update(a=[]),
    "t-not-an-object": lambda payload: payload.update(t="x"),
    "t-unknown-point": _set_entry("t", "zz|7|8|9", [0, 1]),
    "a-index-outside-cover": _set_entry("a", "p3|0|2", [[0, 1], [0, 1]]),
    "ahat-unknown-point": _set_entry("ahat", "zz|2|2", [[0, 1], [0, 1]]),
    "t-index-outside-cover": _set_entry("t", "p3|2|2|1", [0, 1]),
    "m-off-nerve-key-missing-from-mhat": _set_entry("m", "9|9|9", [0, 0]),
    "m-and-mhat-off-nerve-key": _set_m_and_mhat("9|9|9", [0, 0]),
    "mhat-lacks-uncovered-key": _delete_entry("mhat", "0|1|3"),
    "m-lacks-uncovered-key": _delete_entry("m", "0|1|3"),
    "duplicate-point": lambda payload: payload["points"].append("p1"),
    "no-points": lambda payload: payload.update(points=[]),
    "cover-repeats-an-index": lambda payload: payload["cover"].update(p3=[2, 2]),
    "a-index-with-space": _rename_key("a", "p1|0|1", "p1| 0|1"),
    "ahat-index-with-plus": _rename_key("ahat", "p1|0|1", "p1|+0|1"),
    "t-index-with-leading-zero": _rename_key("t", "p1|0|1|2", "p1|00|1|2"),
    "m-index-with-underscore": _rename_key("m", "0|1|2", "0_0|1|2"),
    "t-non-canonical-beside-canonical": _rename_key("t", "p1|0|1|2", "p1|0|01|2", keep=True),
}


def malformed_cocycle(case):
    payload = jsonio.cocycle_to_json(random_cocycle(SPLIT_NERVE, 2, 353))
    MALFORMED_COCYCLES[case](payload)
    return payload


# A negative index and a two-digit one, so "-1" and "10" are names and
# "-01", "+0", "010" and "1" are not.
KEY_NERVE = NerveModel(("p1", "p2"), {"p1": (-1, 0, 10), "p2": (0, 10)})
KEY_COCYCLE = random_cocycle(KEY_NERVE, 1, 383)
KEY_PART = st.text("0123456789| +-_pq\u0663", max_size=4)


@st.composite
def cocycle_keys(draw):
    """(member, key): a key of KEY_COCYCLE, as written or with text over
    digits, "|", space, "+", "-", "_", letters and a non-ASCII digit put
    into one part or in its place."""
    member = draw(st.sampled_from(["a", "ahat", "m", "mhat", "t"]))
    parts = draw(st.sampled_from(sorted(jsonio.cocycle_to_json(KEY_COCYCLE)[member]))).split("|")
    if draw(st.booleans()):
        at = draw(st.integers(0, len(parts) - 1))
        kept = parts[at] if draw(st.booleans()) else ""
        cut = draw(st.integers(0, len(kept)))
        parts[at] = kept[:cut] + draw(KEY_PART) + kept[cut:]
    return member, "|".join(parts)


# Files that each fail to decode as JSON objects without repeated keys.
UNDECODABLE_MATRICES = {
    "repeated-key": b'{"rows": 1, "rows": 1, "cols": 1, "data": [[1]]}',
    "integer-over-4300-digits": b'{"rows": 1, "cols": 1, "data": [[' + b"9" * 5000 + b"]]}",
    "not-utf-8": b"\xff\xfe{",
    "deep-nesting": b"[" * 100_000 + b"]" * 100_000,
}


def assert_input_error(capsys, code, out=None):
    """Exit 2 with an `error:` line, nothing on stdout and no output file."""
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert out is None or not out.exists()


class TestJsonIO:
    def test_matrix_roundtrip(self):
        m = IntMat([[1, -2], [3, 4]])
        loaded = jsonio.mat_from_json(jsonio.mat_to_json(m))
        assert loaded == m and hash(loaded) == hash(m) and repr(loaded) == repr(m)

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
        # SPLIT_NERVE also carries m and mhat entries on triples no point covers
        for nerve in (default_nerve(), SPLIT_NERVE):
            c = random_cocycle(nerve, 2, 311)
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

    @pytest.mark.parametrize("case", sorted(MALFORMED_COCYCLES))
    def test_cocycle_rejects_data_off_the_nerve(self, case):
        with pytest.raises(jsonio.FormatError):
            jsonio.cocycle_from_json(malformed_cocycle(case))

    @settings(max_examples=300, deadline=None)
    @given(cocycle_keys())
    @example(("t", "p1|-1|0|10"))
    @example(("m", "10|-1|0"))
    @example(("a", "p1|-01|10"))
    @example(("a", "p2|-1|0"))
    @example(("ahat", "p1|+0|10"))
    @example(("m", "+0|-1|10"))
    @example(("mhat", "0|-1|010"))
    @example(("t", "p2|0| 10|0"))
    @example(("t", "p1|0|1|10"))
    @example(("mhat", "10|-1|\u0663"))
    @example(("m", "p1|0|0"))
    @example(("t", "p1|0|0"))
    def test_key_rule_matches_reference(self, member_key):
        member, key = member_key
        payload = jsonio.cocycle_to_json(KEY_COCYCLE)
        with_point = member in ("a", "ahat", "t")
        expected = reference_cocycle_key(key, 4 if member == "t" else 3, KEY_NERVE, with_point)
        value = next(iter(payload[member].values()))
        for name in (member,) if with_point else ("m", "mhat"):
            payload[name].setdefault(key, value)
        if expected is None:
            with pytest.raises(jsonio.FormatError):
                jsonio.cocycle_from_json(payload)
        else:
            assert expected in getattr(jsonio.cocycle_from_json(payload), member)

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


    @pytest.mark.parametrize("case", sorted(UNDECODABLE_MATRICES))
    def test_undecodable_file_exits_2(self, tmp_path, capsys, case):
        f = tmp_path / "m.json"
        f.write_bytes(UNDECODABLE_MATRICES[case])
        assert_input_error(capsys, main(["check", str(f)]))


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

    @pytest.mark.parametrize(
        "suite, seed",
        [("torsion", "-1"), ("torsion", str(2**64)), ("n1-exhaustive", "-1")],
    )
    def test_rejects_seed_outside_64_bits(self, capsys, suite, seed):
        # the generator reduces seeds mod 2^64, so these would rerun another seed's trials
        code = main(["verify", "--suite", suite, "--n", "1", "--trials", "1", "--seed", seed])
        out = capsys.readouterr()
        assert code == 2
        assert out.out == "" and out.err.startswith("error:")

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_accepts_seed_at_64_bit_ends(self, capsys, seed):
        code, report = run_main(
            capsys, ["verify", "--suite", "torsion", "--n", "1", "--trials", "1", "--seed", str(seed)]
        )
        assert code == 0 and report["seed"] == seed

    def test_torsion_right_side_calls_k_cocycle(self, capsys, monkeypatch):
        # 2m is a separate public k_cocycle call, so a wrong k_cocycle fails every trial
        monkeypatch.setattr(kinvariant, "k_cocycle", lambda a, b, c: (1,) * (2 * a.n))
        code, report = run_main(
            capsys, ["verify", "--suite", "torsion", "--n", "2", "--trials", "3", "--seed", "1"]
        )
        assert code == 1
        assert [f["trial"] for f in report["failures"]] == [0, 1, 2]
        assert all(f["check"] == "two-torsion" for f in report["failures"])

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


class TestSuiteFailureRecords:
    """Injected checker failures reach the report with their trial and inputs."""

    @staticmethod
    def _fail_on_calls(failing):
        # trials run in order, one checker call each, so call k is trial k
        calls = itertools.count()
        return lambda *elements: next(calls) not in failing

    @staticmethod
    def _trial_words(n, trials, seed, trial, count):
        gens = standard_generators(n)
        rng = XorShift64Star(substream_seeds(seed, trials)[trial])
        return [
            jsonio.mat_to_json(random_word(gens, 4 + rng.below(5), rng).mat)
            for _ in range(count)
        ]

    @pytest.mark.parametrize(
        "suite, checker, check, count",
        [
            ("cocycle", "check_cocycle_identity", "cocycle-identity", 4),
            ("torsion", "check_two_torsion", "two-torsion", 3),
        ],
    )
    def test_word_suites(self, capsys, monkeypatch, suite, checker, check, count):
        monkeypatch.setattr(kinvariant, checker, self._fail_on_calls({4, 1, 5}))
        code, report = run_main(
            capsys, ["verify", "--suite", suite, "--n", "2", "--trials", "7", "--seed", "21"]
        )
        assert code == 1
        assert [f["trial"] for f in report["failures"]] == [1, 4, 5]
        for f in report["failures"]:
            assert set(f) == {"trial", "check", "elements"}
            assert f["check"] == check
            assert f["elements"] == self._trial_words(2, 7, 21, f["trial"], count)

    def test_ci_axioms(self, capsys, monkeypatch):
        trial_of = {s: i for i, s in enumerate(substream_seeds(31, 6))}
        ci_failing, ct_failing = {3}, {0, 3, 4}

        def ci(obj, samples, seed):
            return trial_of[seed] not in ci_failing

        def ct(mor, samples, seed):
            return trial_of[seed] not in ct_failing

        monkeypatch.setattr(crossedmod, "check_ci_axioms", ci)
        monkeypatch.setattr(crossedmod, "check_ct_axioms", ct)
        code, report = run_main(
            capsys, ["verify", "--suite", "ci-axioms", "--n", "2", "--trials", "6", "--seed", "31"]
        )
        assert code == 1
        # a trial whose ci check fails skips its ct check
        assert [(f["trial"], f["check"]) for f in report["failures"]] == [
            (0, "ct-axioms"),
            (3, "ci-axioms"),
            (4, "ct-axioms"),
        ]
        for f in report["failures"]:
            words2 = self._trial_words(2, 6, 31, f["trial"], 2)
            if f["check"] == "ci-axioms":
                assert set(f) == {"trial", "check", "element"}
                assert f["element"] == words2[0]
            else:
                assert set(f) == {"trial", "check", "elements"}
                assert f["elements"] == words2


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

    def test_validation_failure_names_the_violation(self, tmp_path, capsys, monkeypatch):
        c = random_cocycle(default_nerve(), 2, 359)
        auto, cfile, out = self._write_inputs(tmp_path, obj_unit(2), c)
        bad_t = dict(c.t)
        bad_t[("p1", 0, 1, 2)] = bad_t[("p1", 0, 1, 2)] + Phase(Fraction(1, 3))
        broken = TDCocycle(c.nerve, c.n, c.a, c.ahat, c.m, c.mhat, bad_t)
        monkeypatch.setattr(tdcorr, "act", lambda o, coc: broken)
        code = main(["act", "--auto", str(auto), "--cocycle", str(cfile), "-o", str(out)])
        err = capsys.readouterr().err
        assert code == 3
        assert not out.exists()
        prefix = "internal error: transformed cocycle failed validation: "
        assert err.startswith(prefix)
        record = json.loads(err[len(prefix):])
        assert record == {"condition": 5, "point": "p1", "indices": [0, 1, 0, 2]}
        assert record == json.loads(jsonio.canonical_dumps(first_violation(broken)))

    def test_repeated_key_exits_2(self, tmp_path, capsys):
        c = random_cocycle(default_nerve(), 1, 367)
        auto, cfile, out = self._write_inputs(tmp_path, obj_unit(1), c)
        text = cfile.read_text()
        assert '"t":{"p0|0|0|0":' in text
        cfile.write_text(text.replace('"t":{', '"t":{"p0|0|1|2":[1,7],', 1))
        code = main(["act", "--auto", str(auto), "--cocycle", str(cfile), "-o", str(out)])
        assert_input_error(capsys, code, out)

    def test_invalid_input_cocycle_exits_2(self, tmp_path, capsys, monkeypatch):
        c = random_cocycle(default_nerve(), 2, 373)
        bad_t = dict(c.t)
        bad_t[("p1", 0, 1, 2)] = bad_t[("p1", 0, 1, 2)] + Phase(Fraction(1, 3))
        broken = TDCocycle(c.nerve, c.n, c.a, c.ahat, c.m, c.mhat, bad_t)
        auto, cfile, out = self._write_inputs(tmp_path, obj_unit(2), broken)
        monkeypatch.setattr(tdcorr, "act", lambda o, coc: pytest.fail("acted on an invalid cocycle"))
        code = main(["act", "--auto", str(auto), "--cocycle", str(cfile), "-o", str(out)])
        err = capsys.readouterr().err
        prefix = "error: cocycle fails validation: "
        assert code == 2 and err.startswith(prefix)
        assert not out.exists()
        record = json.loads(err[len(prefix):])
        assert record == {"condition": 5, "point": "p1", "indices": [0, 1, 0, 2]}
        assert record == json.loads(jsonio.canonical_dumps(first_violation(broken)))

    @pytest.mark.parametrize("case", sorted(MALFORMED_COCYCLES))
    def test_malformed_cocycle_exits_2(self, tmp_path, capsys, case):
        auto = tmp_path / "auto.json"
        write_json(auto, jsonio.obj_to_json(obj_unit(2)))
        cfile = tmp_path / "c.json"
        write_json(cfile, malformed_cocycle(case))
        out = tmp_path / "out.json"
        code = main(["act", "--auto", str(auto), "--cocycle", str(cfile), "-o", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")
        assert not out.exists()


class TestConsoleScript:
    def test_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "td2g.cli", "verify", "--suite", "n1-exhaustive"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["failures"] == []

    def test_cli_import_skips_thread_pool_modules(self):
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, td2g.cli; print('concurrent.futures' in sys.modules)",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "False"
