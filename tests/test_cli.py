import argparse
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from td2g import cli, crossedmod, intlinalg, jsonio, kinvariant, tdcocycle, tdcorr
from td2g.cli import main
from td2g.groups import (
    MembershipError,
    check_membership,
    embed_so,
    flip_element,
    j_matrix,
    pairing_matrix,
    random_word,
    rotation_n1,
    standard_generators,
)
from td2g.intlinalg import IntMat, Phase, RatVec
from td2g.kinvariant import k_cocycle
from td2g.rng import XorShift64Star, substream_seeds
from td2g.tdcorr import (
    NerveModel, TDCocycle, act, default_nerve, first_violation, random_cocycle, validate
)
from td2g.twogroup import beta_multiplicator, obj_inverse, obj_unit, section
from conftest import (
    SPLIT_NERVE, WIDE_NERVE, reference_cocycle_key, reference_cocycle_to_json, words
)
from test_bench_contract import TRACED


def write_json(path, payload):
    path.write_text(json.dumps(payload))


def refuse_hashing(monkeypatch):
    """Make every sha256 raise: only `act` writes digests, so no other command may hash."""

    def sha256(*args, **kwargs):
        raise AssertionError("hashed an input whose digest no output carries")

    monkeypatch.setattr(hashlib, "sha256", sha256)


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
    "a-entry-of-length-3": _set_entry("a", "p1|0|1", [[0, 1], [0, 1], [0, 1]]),
    "m-entry-of-length-3": _set_entry("m", "0|1|2", [0, 0, 0]),
    "mhat-lacks-uncovered-key": _delete_entry("mhat", "0|1|3"),
    "m-lacks-uncovered-key": _delete_entry("m", "0|1|3"),
    "a-lacks-covered-key": _delete_entry("a", "p1|0|1"),
    "ahat-lacks-covered-key": _delete_entry("ahat", "p1|0|1"),
    "m-lacks-covered-key": _delete_entry("m", "0|1|2"),
    "mhat-lacks-covered-key": _delete_entry("mhat", "0|1|2"),
    "t-lacks-covered-key": _delete_entry("t", "p1|0|1|2"),
    "duplicate-point": lambda payload: payload["points"].append("p1"),
    "no-points": lambda payload: payload.update(points=[]),
    "cover-repeats-an-index": lambda payload: payload["cover"].update(p3=[2, 2]),
    "a-index-with-space": _rename_key("a", "p1|0|1", "p1| 0|1"),
    "ahat-index-with-plus": _rename_key("ahat", "p1|0|1", "p1|+0|1"),
    "t-index-with-leading-zero": _rename_key("t", "p1|0|1|2", "p1|00|1|2"),
    "m-index-with-underscore": _rename_key("m", "0|1|2", "0_0|1|2"),
    "t-non-canonical-beside-canonical": _rename_key("t", "p1|0|1|2", "p1|0|01|2", keep=True),
    "t-above-one": _set_entry("t", "p1|0|1|2", [3, 2]),
    "t-negative-denominator": _set_entry("t", "p1|0|1|2", [1, -2]),
    "t-zero-denominator": _set_entry("t", "p1|0|1|2", [1, 0]),
    "a-zero-denominator": _set_entry("a", "p1|0|1", [[1, 0], [0, 1]]),
    "a-negative-denominator": _set_entry("a", "p1|0|1", [[1, -3], [0, 1]]),
    "a-bool-numerator": _set_entry("a", "p1|0|1", [[True, 2], [0, 1]]),
    "a-float-numerator": _set_entry("a", "p1|0|1", [[0.5, 2], [0, 1]]),
    "a-string-numerator": _set_entry("a", "p1|0|1", [["1", 2], [0, 1]]),
    "a-pair-of-length-3": _set_entry("a", "p1|0|1", [[1, 2, 3], [0, 1]]),
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
# The same, plus a file that is not JSON and one that does not exist (None).
UNDECODABLE_FILES = {**UNDECODABLE_MATRICES, "not-json": b"nope", "unreadable": None}


# Rank-2 matrices that are not members: J, and a shear that does not preserve I.
NON_MEMBERS = [j_matrix(2), IntMat([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])]


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
        # the Mor constructor's own refusals are format errors too
        for key, value in (("lin", [0, 0, 0]), ("dst", jsonio.obj_to_json(section(a)))):
            with pytest.raises(jsonio.FormatError):
                jsonio.mor_from_json({**jsonio.mor_to_json(m), key: value})

    @pytest.mark.parametrize(
        "eta",
        [IntMat.zeros(4), IntMat.zeros(2)],
        ids=["violates-the-phase-law", "wrong-shape"],
    )
    def test_obj_rejects_bad_eta_as_format_error(self, tmp_path, capsys, eta):
        payload = {"matrix": jsonio.mat_to_json(flip_element(2).mat), "eta": jsonio.mat_to_json(eta)}
        with pytest.raises(jsonio.FormatError):
            jsonio.obj_from_json(payload)
        auto = tmp_path / "auto.json"
        write_json(auto, payload)
        cfile = tmp_path / "c.json"
        write_json(cfile, jsonio.cocycle_to_json(random_cocycle(default_nerve(), 2, 353)))
        code = main(["act", "--auto", str(auto), "--cocycle", str(cfile), "-o", str(tmp_path / "out.json")])
        assert code == 2 and capsys.readouterr().err.startswith("error: ")

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

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("nerve", [default_nerve(), SPLIT_NERVE, KEY_NERVE], ids=["default", "split", "key"])
    def test_loader_and_constructor_store_the_same_numerators(self, nerve, n):
        c = random_cocycle(nerve, n, 389)
        loaded = jsonio.cocycle_from_json(jsonio.cocycle_to_json(c))
        built = TDCocycle(c.nerve, c.n, c.a, c.ahat, c.m, c.mhat, c.t)
        assert loaded.nums == built.nums and (loaded.m, loaded.mhat) == (built.m, built.mhat)
        # unreduced pairs load as their reduced values and are written reduced
        payload = jsonio.cocycle_to_json(c)
        scaled = json.loads(json.dumps(payload))
        for member, factor in (("a", 2), ("ahat", 3)):
            for pair in itertools.chain.from_iterable(scaled[member].values()):
                pair[0], pair[1] = factor * pair[0], factor * pair[1]
        for pair in scaled["t"].values():
            pair[0], pair[1] = 5 * pair[0], 5 * pair[1]
        key = next(iter(payload["t"]))
        payload["t"][key], scaled["t"][key] = [1, 2], [2, 4]
        reduced, unreduced = jsonio.cocycle_from_json(payload), jsonio.cocycle_from_json(scaled)
        assert reduced == unreduced and reduced.nums == unreduced.nums
        dumps = {jsonio.canonical_dumps(jsonio.cocycle_to_json(x)) for x in (reduced, unreduced)}
        assert dumps == {jsonio.canonical_dumps(payload)}

    def test_cocycle_load_builds_no_rational(self, monkeypatch):
        # rank 3 on the 12-point WIDE_NERVE, the size of a benchmark act-io file
        payload = jsonio.cocycle_to_json(random_cocycle(WIDE_NERVE, 3, 397))
        assert len(jsonio.canonical_dumps(payload)) > 20_000

        def refuse(*args, **kwargs):
            raise AssertionError("loading a cocycle built a rational")

        for owner, name in ((RatVec, "_new"), (Phase, "_new"), (intlinalg, "common_denominator")):
            monkeypatch.setattr(owner, name, refuse)
        monkeypatch.setattr(Fraction, "__new__", refuse)
        loaded = jsonio.cocycle_from_json(payload)
        monkeypatch.undo()
        assert loaded == random_cocycle(WIDE_NERVE, 3, 397)

    def test_canonical_dumps_sorted(self):
        s = jsonio.canonical_dumps({"b": 1, "a": [1, 2]})
        assert s == '{"a":[1,2],"b":1}'

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize(
        "nerve",
        [default_nerve(), SPLIT_NERVE, KEY_NERVE, WIDE_NERVE],
        ids=["default", "split", "key", "wide"],
    )
    def test_writer_matches_reference(self, nerve, n):
        c = random_cocycle(nerve, n, 457 + n)
        # the same values loaded from unreduced pairs, over other denominators
        scaled = jsonio.cocycle_to_json(c)
        for member, factor in (("a", 2), ("ahat", 3)):
            for pair in itertools.chain.from_iterable(scaled[member].values()):
                pair[0], pair[1] = factor * pair[0], factor * pair[1]
        for pair in scaled["t"].values():
            pair[0], pair[1] = 7 * pair[0], 7 * pair[1]
        loaded = jsonio.cocycle_from_json(scaled)
        moved = act(section(words(n, 1, 461 + n)[0]), loaded)
        meta = {"auto_sha256": "0" * 64, "cocycle_sha256": "f" * 64}
        for x in (c, loaded, moved):
            for m in (None, meta):
                got = jsonio.canonical_dumps(jsonio.cocycle_to_json(x, meta=m))
                assert got == jsonio.canonical_dumps(reference_cocycle_to_json(x, meta=m))

    @pytest.mark.parametrize(
        "member, key, value, message",
        [
            ("a", "p1|0|1", [[1, True], [0, 1]], "denominator must be an integer"),
            ("a", "p1|0|1", [[False, 2], [0, 1]], "numerator must be an integer"),
            ("a", "p1|0|1", [1, 2], "rational must be a two-element array"),
            ("a", "p1|0|1", {"0": [1, 2]}, "vector must be an array"),
            ("m", "0|1|2", [True, 0], "m entry must be an integer"),
            ("m", "0|1|2", [0.5, 0], "m entry must be an integer"),
            ("mhat", "0|1|2", "01", "mhat entry must be an array"),
            ("t", "p1|0|1|2", [1, 2, 3], "rational must be a two-element array"),
        ],
        ids=[
            "bool-denominator",
            "bool-numerator",
            "integer-for-pair",
            "object-for-vector",
            "bool-m-entry",
            "float-m-entry",
            "string-mhat-entry",
            "three-element-pair",
        ],
    )
    def test_cocycle_entry_messages(self, member, key, value, message):
        payload = jsonio.cocycle_to_json(random_cocycle(SPLIT_NERVE, 2, 353))
        payload[member][key] = value
        with pytest.raises(jsonio.FormatError) as excinfo:
            jsonio.cocycle_from_json(payload)
        assert str(excinfo.value) == message


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

    def test_hashes_nothing(self, tmp_path, capsys, monkeypatch):
        f = tmp_path / "R.json"
        write_json(f, jsonio.mat_to_json(rotation_n1().mat))
        refuse_hashing(monkeypatch)
        code, out = run_main(capsys, ["check", str(f)])
        assert code == 0 and out == {"iso": -1, "member": True, "n": 1}


    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"b": 1, "a": 1, "a": 2, "b": 2}', "a"),
            ('{"x": {"b": 1, "b": 2}, "a": 1, "a": 2}', "b"),
            ('[{"a": 1}, {"a": 1, "c": 2, "c": 3}]', "c"),
        ],
    )
    def test_repeated_key_error_names_the_first_repeat(self, tmp_path, text, key):
        f = tmp_path / "m.json"
        f.write_text(text)
        with pytest.raises(jsonio.FormatError, match=f"repeated key '{key}'$"):
            cli._load_json(str(f))

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

    def test_hashes_nothing(self, tmp_path, capsys, monkeypatch):
        ws = words(2, 3, 317)
        paths = []
        for i, w in enumerate(ws):
            p = tmp_path / f"w{i}.json"
            write_json(p, jsonio.element_to_json(w))
            paths.append(str(p))
        refuse_hashing(monkeypatch)
        code, out = run_main(capsys, ["kinv", "--a", paths[0], "--b", paths[1], "--c", paths[2]])
        assert code == 0 and tuple(out) == k_cocycle(*ws)

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

    @pytest.mark.parametrize("n", [cli.MAX_N + 1, 10**9])
    @pytest.mark.parametrize("suite", ["cocycle", "torsion", "subgroups", "ci-axioms", "tdcorr"])
    def test_rejects_n_above_the_maximum_before_building(self, monkeypatch, capsys, suite, n):
        # the generators are cached for the life of the process, so a large n
        # must be refused before anything of that rank is built
        def refuse(*args):
            raise AssertionError(f"built something of rank {args}")

        for name in ("standard_generators", "gl_generators", "so_basis"):
            monkeypatch.setattr(cli, name, refuse)
        monkeypatch.setattr(kinvariant, "subgroup_vanishing_failure", refuse)
        code = main(["verify", "--suite", suite, "--n", str(n), "--trials", "1", "--seed", "1"])
        out = capsys.readouterr()
        assert code == 2
        assert out.out == "" and out.err == f"error: --n must lie in [1, {cli.MAX_N}]\n"

    def test_accepts_n_at_the_maximum(self, monkeypatch, capsys):
        built = []
        monkeypatch.setattr(cli, "standard_generators", lambda n: built.append(n) or ())
        argv = ["verify", "--suite", "cocycle", "--n", str(cli.MAX_N), "--trials", "0", "--seed", "1"]
        code, report = run_main(capsys, argv)
        assert code == 0 and report["n"] == cli.MAX_N and built == [cli.MAX_N]

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

    def test_torsion_report_reproducible(self, capsys):
        argv = ["verify", "--suite", "torsion", "--n", "2", "--trials", "6", "--seed", "5"]
        code1, rep1 = run_main(capsys, argv)
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
        rng = XorShift64Star(list(substream_seeds(seed, trials))[trial])
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
        # trials run in order and each calls the ci check first, so ci call k
        # is trial k, and a ct call belongs to the trial of the last ci call
        ci_failing, ct_failing = {3}, {0, 3, 4}
        trials = itertools.count()
        current = []

        def ci(obj):
            current.append(next(trials))
            return [f"CI3 at (0, {current[-1]})"] if current[-1] in ci_failing else []

        def ct(mor):
            return [f"CT2 at ({current[-1]}, 1)"] if current[-1] in ct_failing else []

        monkeypatch.setattr(crossedmod, "ci_axiom_failures", ci)
        monkeypatch.setattr(crossedmod, "ct_axiom_failures", ct)
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
                assert set(f) == {"trial", "check", "element", "failures"}
                assert f["element"] == words2[0]
                assert f["failures"] == [f"CI3 at (0, {f['trial']})"]
            else:
                assert set(f) == {"trial", "check", "elements", "failures"}
                assert f["elements"] == words2
                assert f["failures"] == [f"CT2 at ({f['trial']}, 1)"]


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

    def test_arithmetic_error_exits_3(self, tmp_path, capsys, monkeypatch):
        auto, cfile, out = self._write_inputs(tmp_path, obj_unit(1), random_cocycle(default_nerve(), 1, 463))

        def act(obj, coc):
            raise ArithmeticError("act divided by zero")

        monkeypatch.setattr(tdcorr, "act", act)
        code = main(["act", "--auto", str(auto), "--cocycle", str(cfile), "-o", str(out)])
        assert (code, capsys.readouterr()) == (3, ("", "internal error: act divided by zero\n"))
        assert not out.exists()

    @pytest.mark.parametrize("matrix", NON_MEMBERS, ids=["J", "shear"])
    def test_non_member_object_exits_2(self, tmp_path, capsys, matrix):
        with pytest.raises(MembershipError) as excinfo:
            check_membership(matrix)
        auto, cfile, out = self._write_inputs(tmp_path, obj_unit(2), random_cocycle(default_nerve(), 2, 331))
        write_json(auto, dict(jsonio.obj_to_json(obj_unit(2)), matrix=jsonio.mat_to_json(matrix)))
        code = main(["act", "--auto", str(auto), "--cocycle", str(cfile), "-o", str(out)])
        assert (code, capsys.readouterr()) == (2, ("", f"error: {excinfo.value}\n"))
        assert not out.exists()

    @pytest.mark.parametrize("target", ["missing-directory", "directory"])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, target):
        c = random_cocycle(default_nerve(), 1, 463)
        auto, cfile, _ = self._write_inputs(tmp_path, obj_unit(1), c)
        out = tmp_path / "no" / "out.json" if target == "missing-directory" else tmp_path
        code = main(["act", "--auto", str(auto), "--cocycle", str(cfile), "-o", str(out)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(f"error: {out}: ") and "Traceback" not in captured.err

    @pytest.mark.parametrize("member", ["auto", "cocycle"])
    @pytest.mark.parametrize("case", sorted(UNDECODABLE_FILES))
    def test_undecodable_input_exits_2(self, tmp_path, capsys, member, case):
        c = random_cocycle(default_nerve(), 1, 467)
        files = dict(zip(("auto", "cocycle"), self._write_inputs(tmp_path, obj_unit(1), c)))
        bad = tmp_path / "bad.json"
        if UNDECODABLE_FILES[case] is not None:
            bad.write_bytes(UNDECODABLE_FILES[case])
        files[member] = bad
        out = tmp_path / "out.json"
        code = main(["act", "--auto", str(files["auto"]), "--cocycle", str(files["cocycle"]), "-o", str(out)])
        assert_input_error(capsys, code, out)

    def test_meta_hashes_the_bytes_read_once(self, tmp_path, capsys, monkeypatch):
        c = random_cocycle(default_nerve(), 1, 479)
        auto, cfile, out = self._write_inputs(tmp_path, obj_unit(1), c)
        # bytes a canonical rewrite would change: CRLF line ends and spaces
        cfile.write_bytes(json.dumps(jsonio.cocycle_to_json(c), indent=1).replace("\n", "\r\n").encode())
        opened = []

        def counting_open(path, *args, **kwargs):
            opened.append(str(path))
            return open(path, *args, **kwargs)

        monkeypatch.setattr(cli, "open", counting_open, raising=False)
        assert main(["act", "--auto", str(auto), "--cocycle", str(cfile), "-o", str(out)]) == 0
        capsys.readouterr()
        assert sorted(opened) == sorted([str(auto), str(cfile), str(out)])
        meta = json.loads(out.read_text())["meta"]
        assert meta == {
            "auto_sha256": hashlib.sha256(auto.read_bytes()).hexdigest(),
            "cocycle_sha256": hashlib.sha256(cfile.read_bytes()).hexdigest(),
        }


def refuse_arithmetic(monkeypatch, *targets):
    """Make building numerators, validating, acting and each of `targets` raise."""

    def refuse(*args, **kwargs):
        raise AssertionError("computed on an input that a bound refuses")

    for owner, name in ((jsonio, "cocycle_numerators"), (tdcorr, "validate"), (tdcorr, "act"), *targets):
        monkeypatch.setattr(owner, name, refuse)


class TestActBounds:
    """Each input bound is refused with exit 2 before any arithmetic."""

    def _act(self, tmp_path, capsys, auto_payload=None, cocycle_payload=None, cocycle_bytes=None):
        auto, cfile, out = tmp_path / "auto.json", tmp_path / "c.json", tmp_path / "out.json"
        write_json(auto, auto_payload or jsonio.obj_to_json(obj_unit(2)))
        if cocycle_bytes is None:
            write_json(cfile, cocycle_payload or jsonio.cocycle_to_json(random_cocycle(SPLIT_NERVE, 2, 353)))
        else:
            cfile.write_bytes(cocycle_bytes)
        out.unlink(missing_ok=True)
        code = main(["act", "--auto", str(auto), "--cocycle", str(cfile), "-o", str(out)])
        captured = capsys.readouterr()
        assert captured.out == "" and out.exists() == (code == 0)
        return code, captured.err, cfile

    def test_file_bytes(self, tmp_path, capsys, monkeypatch):
        text = jsonio.canonical_dumps(jsonio.cocycle_to_json(random_cocycle(SPLIT_NERVE, 2, 353)))
        padded = text.encode().ljust(cli.MAX_FILE_BYTES, b" ")
        assert self._act(tmp_path, capsys, cocycle_bytes=padded)[0] == 0
        refuse_arithmetic(monkeypatch)
        code, err, cfile = self._act(tmp_path, capsys, cocycle_bytes=padded + b" ")
        assert code == 2 and err == f"error: {cfile}: file is over the bound of {cli.MAX_FILE_BYTES} bytes\n"

    def test_cocycle_rank(self, tmp_path, capsys, monkeypatch):
        refuse_arithmetic(monkeypatch)
        payload = jsonio.cocycle_to_json(random_cocycle(SPLIT_NERVE, 2, 353))
        payload["n"] = jsonio.MAX_N + 1
        code, err, _ = self._act(tmp_path, capsys, cocycle_payload=payload)
        assert code == 2 and err == f"error: rank is {jsonio.MAX_N + 1}, over the bound {jsonio.MAX_N}\n"

    def test_object_rank(self, tmp_path, capsys, monkeypatch):
        refuse_arithmetic(monkeypatch, (jsonio, "check_membership"))
        size = 2 * jsonio.MAX_N + 1
        zero = {"rows": size, "cols": size, "data": [[0] * size for _ in range(size)]}
        code, err, _ = self._act(tmp_path, capsys, auto_payload={"matrix": zero, "eta": zero})
        assert code == 2 and err == f"error: rank is {jsonio.MAX_N + 1}, over the bound {jsonio.MAX_N}\n"

    @pytest.mark.parametrize("member", ["matrix", "eta"])
    def test_object_entry_bits(self, tmp_path, capsys, monkeypatch, member):
        refuse_arithmetic(monkeypatch, (jsonio, "check_membership"))
        payload = jsonio.obj_to_json(obj_unit(2))
        payload[member]["data"][1][2] = 2**jsonio.MAX_ENTRY_BITS
        code, err, _ = self._act(tmp_path, capsys, auto_payload=payload)
        assert code == 2 and err == f"error: matrix entry must have at most {jsonio.MAX_ENTRY_BITS} bits\n"

    def test_point_count(self, tmp_path, capsys, monkeypatch):
        refuse_arithmetic(monkeypatch)
        payload = jsonio.cocycle_to_json(random_cocycle(SPLIT_NERVE, 2, 353))
        for k in range(jsonio.MAX_POINTS + 1 - len(payload["points"])):
            payload["points"].append(f"x{k}")
            payload["cover"][f"x{k}"] = [0]
        code, err, _ = self._act(tmp_path, capsys, cocycle_payload=payload)
        assert code == 2 and err == f"error: point count is {jsonio.MAX_POINTS + 1}, over the bound {jsonio.MAX_POINTS}\n"

    def test_cover_size(self, tmp_path, capsys, monkeypatch):
        refuse_arithmetic(monkeypatch)
        payload = jsonio.cocycle_to_json(random_cocycle(SPLIT_NERVE, 2, 353))
        payload["cover"]["p2"] = list(range(jsonio.MAX_COVER + 1))
        code, err, _ = self._act(tmp_path, capsys, cocycle_payload=payload)
        assert code == 2 and err == f"error: cover size of 'p2' is {jsonio.MAX_COVER + 1}, over the bound {jsonio.MAX_COVER}\n"

    @staticmethod
    def _pairs_at_p1(payload):
        """The [num, den] lists of a and ahat at point p1, for editing in place."""
        return [
            pair
            for member in ("a", "ahat")
            for key, v in payload[member].items()
            if key.startswith("p1|")
            for pair in v
        ]

    def test_common_denominator_bits(self, tmp_path, capsys, monkeypatch):
        bound = tdcocycle.MAX_DENOMINATOR_BITS
        payload = jsonio.cocycle_to_json(random_cocycle(SPLIT_NERVE, 2, 353))
        # the same values written over 36 distinct 250-bit denominators load
        # unchanged: their lcm as written is over the bound, the least one is not
        wide = json.loads(json.dumps(payload))
        for r, pair in enumerate(self._pairs_at_p1(wide), 2**240):
            pair[0], pair[1] = pair[0] * r, pair[1] * r
        assert math.lcm(*(y for _, y in self._pairs_at_p1(wide))).bit_length() > bound
        assert jsonio.cocycle_from_json(wide) == jsonio.cocycle_from_json(payload)
        # 1/d for 36 distinct 200-bit d: every entry is in bound, their lcm D_p is not
        pairs = self._pairs_at_p1(payload)
        for d, pair in enumerate(pairs, 2**200):
            pair[0], pair[1] = 1, d
        assert len(pairs) == 36 and math.lcm(*range(2**200, 2**200 + 36)).bit_length() > bound
        for name in ("validate", "first_violation", "act"):
            monkeypatch.setattr(tdcorr, name, lambda *args: pytest.fail("validated or acted on a refused input"))
        code, err, _ = self._act(tmp_path, capsys, cocycle_payload=payload)
        assert code == 2
        assert err == f"error: the common denominator of a and ahat at 'p1' has more than {bound} bits\n"

    def test_common_phase_denominator_bits(self, tmp_path, capsys, monkeypatch):
        # 1/d for 27 distinct 200-bit d as t at p1: B_p, a multiple of their lcm, is over the bound
        payload = jsonio.cocycle_to_json(random_cocycle(SPLIT_NERVE, 2, 353))
        keys = [k for k in payload["t"] if k.startswith("p1|")]
        for d, key in enumerate(keys, 2**200):
            payload["t"][key] = [1, d]
        assert len(keys) == 27 and math.lcm(*range(2**200, 2**200 + 27)).bit_length() > tdcocycle.MAX_DENOMINATOR_BITS
        for name in ("validate", "first_violation", "act"):
            monkeypatch.setattr(tdcorr, name, lambda *args: pytest.fail("validated or acted on a refused input"))
        code, err, _ = self._act(tmp_path, capsys, cocycle_payload=payload)
        bound = tdcocycle.MAX_DENOMINATOR_BITS
        assert code == 2 and err == f"error: the common denominator of t at 'p1' has more than {bound} bits\n"

    @pytest.mark.parametrize(
        "member, key, edit, what",
        [
            ("a", "p1|0|1", lambda v: [[v[0][0], 2**256], *v[1:]], "denominator"),
            ("ahat", "p2|1|2", lambda v: [[-(2**256), 1], *v[1:]], "numerator"),
            ("m", "0|1|3", lambda v: [2**256, *v[1:]], "m entry"),
            ("mhat", "0|1|3", lambda v: [v[0], -(2**256)], "mhat entry"),
            ("t", "p1|0|1|2", lambda v: [2**256, 2**256 + 1], "numerator"),
        ],
        ids=["a", "ahat", "m", "mhat", "t"],
    )
    def test_entry_bits(self, tmp_path, capsys, monkeypatch, member, key, edit, what):
        bits = jsonio.MAX_ENTRY_BITS
        payload = jsonio.cocycle_to_json(random_cocycle(SPLIT_NERVE, 2, 353))
        # the same values over denominators of exactly `bits` bits load unchanged
        wide = json.loads(json.dumps(payload))
        for pair in wide["a"]["p1|0|1"]:
            scale = 2 ** (bits - max(abs(pair[0]), pair[1]).bit_length())
            pair[0], pair[1] = pair[0] * scale, pair[1] * scale
        assert jsonio.cocycle_from_json(wide) == jsonio.cocycle_from_json(payload)
        refuse_arithmetic(monkeypatch)
        payload[member][key] = edit(payload[member][key])
        code, err, _ = self._act(tmp_path, capsys, cocycle_payload=payload)
        assert code == 2 and err == f"error: {what} must have at most {bits} bits\n"


@pytest.mark.parametrize("command", ["check", "kinv"])
def test_every_command_bounds_rank_and_entries(tmp_path, capsys, monkeypatch, command):
    for owner in (jsonio, cli):
        monkeypatch.setattr(owner, "check_membership", None)  # calling it would raise
    size = 2 * jsonio.MAX_N + 1
    wide = {"rows": size, "cols": size, "data": [[0] * size for _ in range(size)]}
    deep = {"rows": 2, "cols": 2, "data": [[1, -(2**jsonio.MAX_ENTRY_BITS)], [0, 1]]}
    for payload, message in (
        (wide, f"rank is {jsonio.MAX_N + 1}, over the bound {jsonio.MAX_N}"),
        (deep, f"matrix entry must have at most {jsonio.MAX_ENTRY_BITS} bits"),
    ):
        f = tmp_path / "m.json"
        write_json(f, payload if command == "check" else {"matrix": payload})
        argv = ["check", str(f)] if command == "check" else ["kinv", "--a", str(f), "--b", str(f), "--c", str(f)]
        assert main(argv) == 2 and capsys.readouterr() == ("", f"error: {message}\n")


class TestErrorBoundary:
    """`main` alone turns errors into exit codes, with a parser built once."""

    def test_parser_is_built_once(self, monkeypatch, capsys):
        assert main(["verify", "--suite", "n1-exhaustive"]) == 0
        built = []
        real_init = argparse.ArgumentParser.__init__

        def init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", init)
        for _ in range(2):
            assert main(["verify", "--suite", "n1-exhaustive"]) == 0
        capsys.readouterr()
        assert built == []

    @pytest.mark.parametrize("matrix", NON_MEMBERS, ids=["J", "shear"])
    def test_non_member_element_or_object_is_a_format_error(self, tmp_path, capsys, matrix):
        with pytest.raises(MembershipError) as excinfo:
            check_membership(matrix)
        message = str(excinfo.value)
        element = {"n": 2, "matrix": jsonio.mat_to_json(matrix)}
        obj = dict(jsonio.obj_to_json(obj_unit(2)), matrix=jsonio.mat_to_json(matrix))
        for load, payload in ((jsonio.element_from_json, element), (jsonio.obj_from_json, obj)):
            with pytest.raises(jsonio.FormatError) as excinfo:
                load(payload)
            assert str(excinfo.value) == message
        bad, good = tmp_path / "bad.json", tmp_path / "good.json"
        write_json(bad, element)
        write_json(good, jsonio.element_to_json(flip_element(2)))
        assert main(["kinv", "--a", str(good), "--b", str(bad), "--c", str(good)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


# Files with two faults, and the one that `act` reports: the loader reads
# every key and entry before the checks of `cocycle_numerators`, and those
# run in a fixed order (lengths and denominators, key sets, sites, phases).
TWO_FAULTS = {
    "bad-t-pair-and-missing-a-site": (
        lambda p: (p["t"].update({"p1|0|1|2": [1, 2, 3]}), p["a"].pop("p1|0|1"), p["ahat"].pop("p1|0|1")),
        "rational must be a two-element array",
    ),
    "ahat-only-key-and-zero-denominator": (
        lambda p: (p["a"].pop("p1|0|1"), p["ahat"].update({"p3|2|2": [[1, 0], [0, 1]]})),
        "ahat entry at ('p3', 2, 2) must have positive denominators",
    ),
    "a-of-wrong-length-and-off-cover-t-key": (
        lambda p: (p["a"].update({"p1|0|1": [[0, 1]] * 3}), p["t"].update({"p3|2|2|1": [0, 1]})),
        "t key 'p3|2|2|1' names no site of the nerve",
    ),
}


@pytest.mark.parametrize("case", sorted(TWO_FAULTS))
def test_act_reports_the_first_of_two_faults(tmp_path, capsys, case):
    edit, message = TWO_FAULTS[case]
    payload = jsonio.cocycle_to_json(random_cocycle(SPLIT_NERVE, 2, 353))
    edit(payload)
    auto, cfile, out = tmp_path / "auto.json", tmp_path / "c.json", tmp_path / "out.json"
    write_json(auto, jsonio.obj_to_json(obj_unit(2)))
    write_json(cfile, payload)
    code = main(["act", "--auto", str(auto), "--cocycle", str(cfile), "-o", str(out)])
    assert (code, capsys.readouterr().err) == (2, f"error: {message}\n")


def test_act_io_outputs_are_pinned(tmp_path, capsys):
    # An act-io-shaped input (rank 3 on the 12-point WIDE_NERVE), acted on
    # forward and back by the inverse object; the sha256 of each output
    # was recorded before the loader and `act` were rewritten.
    obj = section(random_word(standard_generators(3), 7, 2207))
    files = {
        "auto": jsonio.obj_to_json(obj),
        "inverse": jsonio.obj_to_json(obj_inverse(obj)),
        "cocycle": jsonio.cocycle_to_json(random_cocycle(WIDE_NERVE, 3, 2203)),
    }
    for name, payload in files.items():
        (tmp_path / f"{name}.json").write_text(jsonio.canonical_dumps(payload) + "\n")
    path = {name: str(tmp_path / f"{name}.json") for name in ("auto", "inverse", "cocycle", "out", "back")}
    assert main(["act", "--auto", path["auto"], "--cocycle", path["cocycle"], "-o", path["out"]]) == 0
    assert main(["act", "--auto", path["inverse"], "--cocycle", path["out"], "-o", path["back"]]) == 0
    assert capsys.readouterr() == ("", "")
    digest = {name: hashlib.sha256((tmp_path / f"{name}.json").read_bytes()).hexdigest() for name in path}
    assert digest["cocycle"] == "c93f0f97add51e19ee96f2dd4f80bb0645a79612b78d7d08cdf4cb2b763597f6"
    assert digest["out"] == "8c36238fc647547c96062f55eacc46d9e04bf63b77877f524e27066b39438194"
    assert digest["back"] == "e7f62451be5c5bf387fec1dc5312aabf73d18484838eccdc4e7853999708a7d9"
    back = json.loads((tmp_path / "back.json").read_text())
    back.pop("meta")
    assert back == files["cocycle"]


# The package source, for subprocesses: pytest's `pythonpath` setting
# reaches only its own interpreter.
SRC = Path(__file__).resolve().parents[1] / "src"


def src_env() -> dict:
    """The environment with SRC first on PYTHONPATH and any value it had after it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


class TestConsoleScript:
    def test_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "td2g.cli", "verify", "--suite", "n1-exhaustive"],
            capture_output=True,
            text=True,
            env=src_env(),
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["failures"] == []

    def test_cli_import_loads_traced_modules_but_not_dataclasses_or_hashlib(self):
        # The tracer looks its names up in sys.modules after `import td2g.cli`.
        code = (
            "import json, sys; before = set(sys.modules); import td2g.cli; "
            "print(json.dumps(sorted(set(sys.modules) - before)))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=src_env())
        assert proc.returncode == 0, proc.stderr
        loaded = set(json.loads(proc.stdout))
        assert {modname for _, modname, _ in TRACED} <= loaded
        assert not {"dataclasses", "hashlib"} & loaded

    def test_cli_import_skips_thread_pool_modules(self):
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, td2g.cli; print('concurrent.futures' in sys.modules)",
            ],
            capture_output=True,
            text=True,
            env=src_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "False"
