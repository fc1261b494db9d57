import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import ncjacobi
from ncjacobi import AdmissibleFamily, MomentFunctional, favard_moments, jsonio
from ncjacobi import moments_from_paths, random_admissible_family, words_up_to
from ncjacobi.cli import main
from ncjacobi.words import SizeError

from conftest import refusal


@pytest.fixture
def workdir(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(argv):
    return main(argv)


def test_full_pipeline(workdir, capsys):
    assert run(["freeproduct", "--spec", "hermite,hermite", "--depth", "4",
                "--out", "hermite2.json"]) == 0
    assert run(["verify", "--family", "hermite2.json"]) == 0
    assert run(["moments", "--family", "hermite2.json", "--max-degree", "3",
                "--out", "m.json"]) == 0
    assert run(["jacobi", "--moments", "m.json", "--depth", "3",
                "--out", "f.json"]) == 0
    assert run(["verify", "--family", "f.json"]) == 0
    out = capsys.readouterr().out
    assert "ok:" in out and "FAIL" not in out

    with open("m.json") as fh:
        table = json.load(fh)
    lengths = sorted(len(e["word"]) for e in table["moments"])
    assert sum(1 for l in lengths if l <= 6) == 127  # complete to length 6
    s1111 = [e["value"] for e in table["moments"] if e["word"] == [1, 1, 1, 1]]
    assert s1111 == pytest.approx([3.0], abs=1e-12)

    # recovered family agrees with the source on the shared levels
    src = AdmissibleFamily.from_json_obj(json.load(open("hermite2.json")))
    rec = AdmissibleFamily.from_json_obj(json.load(open("f.json")))
    assert src.blocks_close(rec) <= 1e-8


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(["freeproduct", "--spec", "hermite", "--depth", "-1", "--out", "f.json"],
                     "depth must be >= 0, got -1", id="freeproduct-negative-depth"),
        pytest.param(["paths", "--word", ","], "word must be nonempty", id="paths-no-letters"),
    ],
)
def test_refusals_name_their_cause(workdir, capsys, argv, message):
    assert run(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert os.listdir() == []


def test_paths_count_only(workdir, capsys):
    assert run(["paths", "--word", "1,1,1", "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "4"


def test_paths_json_output(workdir, capsys):
    assert run(["paths", "--word", "1,2", "--out", "p.json"]) == 0
    obj = json.load(open("p.json"))
    assert obj["word"] == [1, 2]
    assert obj["count"] == 2
    assert len(obj["paths"]) == 2
    kinds = {tuple(s["kind"] for s in p) for p in obj["paths"]}
    assert ("rise", "switch", "fall") in kinds
    assert ("level", "switch", "level") in kinds


R, L, F, S = "rise", "level", "fall", "switch"


@pytest.mark.parametrize(
    "word, expected",
    [
        ("1,2", [
            [(R, [0, 2, 0], [1, 2, 1]), (S, [1, 2, 1], [1, 1, 1]), (F, [1, 1, 1], [2, 1, 0])],
            [(L, [0, 2, 0], [1, 2, 0]), (S, [1, 2, 0], [1, 1, 0]), (L, [1, 1, 0], [2, 1, 0])],
        ]),
        ("2,1,2", [
            [(R, [0, 2, 0], [1, 2, 1]), (S, [1, 2, 1], [1, 1, 1]), (L, [1, 1, 1], [2, 1, 1]),
             (S, [2, 1, 1], [2, 2, 1]), (F, [2, 2, 1], [3, 2, 0])],
            [(R, [0, 2, 0], [1, 2, 1]), (S, [1, 2, 1], [1, 1, 1]), (F, [1, 1, 1], [2, 1, 0]),
             (S, [2, 1, 0], [2, 2, 0]), (L, [2, 2, 0], [3, 2, 0])],
            [(L, [0, 2, 0], [1, 2, 0]), (S, [1, 2, 0], [1, 1, 0]), (R, [1, 1, 0], [2, 1, 1]),
             (S, [2, 1, 1], [2, 2, 1]), (F, [2, 2, 1], [3, 2, 0])],
            [(L, [0, 2, 0], [1, 2, 0]), (S, [1, 2, 0], [1, 1, 0]), (L, [1, 1, 0], [2, 1, 0]),
             (S, [2, 1, 0], [2, 2, 0]), (L, [2, 2, 0], [3, 2, 0])],
        ]),
    ],
)
def test_paths_json_geometry(workdir, capsys, word, expected):
    # every step between points (t, plane, height), switches included, in file order
    assert run(["paths", "--word", word, "--out", "p.json"]) == 0
    obj = json.load(open("p.json"))
    assert obj["paths"] == [
        [{"kind": kind, "from": frm, "to": to} for kind, frm, to in path] for path in expected
    ]


def test_paths_with_family_weights(workdir, capsys):
    assert run(["freeproduct", "--spec", "laguerre(0)", "--depth", "2",
                "--out", "fam.json"]) == 0
    assert run(["paths", "--word", "1,1,1", "--family", "fam.json",
                "--out", "p.json"]) == 0
    out = capsys.readouterr().out
    assert "weight sum 6" in out
    obj = json.load(open("p.json"))
    assert sorted(obj["weights"]) == [1.0, 1.0, 1.0, 3.0]


def test_paths_alphabet_comes_from_the_family(workdir, capsys):
    jsonio.save_family("fam.json", random_admissible_family(2, 2, seed=1))
    capsys.readouterr()
    assert run(["paths", "--word", "1,3,1", "--family", "fam.json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: letter 3 outside alphabet 1..2\n"
    # a word of letter 1 alone is weighed against the N=2 family
    assert run(["paths", "--word", "1,1", "--family", "fam.json", "--out", "p.json"]) == 0
    assert json.load(open("p.json"))["word"] == [1, 1]


def test_paths_refuses_a_word_above_the_family_depth(workdir, capsys):
    jsonio.save_family("fam.json", random_admissible_family(2, 1, seed=2))
    capsys.readouterr()
    assert run(["paths", "--word", "1,2,2,1", "--family", "fam.json", "--out", "p.json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: family stores levels up to 1; paths of height 2 need level 2\n"
    assert os.listdir(".") == ["fam.json"]
    # the count needs no weights, and length 3 stays within depth 1
    assert run(["paths", "--word", "1,2,2,1", "--family", "fam.json", "--count-only"]) == 0
    assert run(["paths", "--word", "1,2,1", "--family", "fam.json", "--out", "p.json"]) == 0


def test_moments_refuses_a_degree_above_the_family_depth(workdir, capsys):
    jsonio.save_family("fam.json", random_admissible_family(2, 3, seed=3))
    capsys.readouterr()
    assert run(["moments", "--family", "fam.json", "--max-degree", "5", "--out", "m.json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: family stores levels up to 3; moments of degree 5 need level 5\n"
    assert os.listdir(".") == ["fam.json"]


def test_engines_agree(workdir):
    # the moments file matches the paper's weighted path sums, word by word
    assert run(["freeproduct", "--spec", "laguerre(0),hermite", "--depth", "3",
                "--out", "fam.json"]) == 0
    assert run(["moments", "--family", "fam.json", "--max-degree", "2",
                "--out", "m.json"]) == 0
    family = jsonio.load_family("fam.json")
    phi = MomentFunctional.from_json_obj(json.load(open("m.json")))
    assert phi.word_bound == 5
    for w in words_up_to(2, phi.word_bound):
        assert phi.moment(w) == pytest.approx(moments_from_paths(family, w), abs=1e-10)


def test_default_engine_matches_path_sums(workdir):
    assert run(["freeproduct", "--spec", "laguerre(0),hermite", "--depth", "3",
                "--out", "fam.json"]) == 0
    assert run(["moments", "--family", "fam.json", "--max-degree", "3",
                "--out", "m.json"]) == 0
    family = jsonio.load_family("fam.json")
    jsonio.save_moments("lib.json", favard_moments(family, 3))
    text = Path("m.json").read_text()
    assert text == Path("lib.json").read_text()
    phi = MomentFunctional.from_json_obj(json.loads(text))
    paths = [moments_from_paths(family, w) for w in words_up_to(2, phi.word_bound)]
    assert len(paths) == 2**8 - 1
    assert phi.values == pytest.approx(paths, rel=1e-12, abs=1e-12)


def test_moments_has_no_engine_option(workdir, capsys):
    # path sums are the library's oracle, not a second route for the command
    assert run(["freeproduct", "--spec", "hermite,hermite", "--depth", "2",
                "--out", "fam.json"]) == 0
    capsys.readouterr()
    assert run(["moments", "--family", "fam.json", "--max-degree", "2",
                "--engine", "paths", "--out", "m.json"]) == 2
    captured = capsys.readouterr()
    assert "ok:" not in captured.out
    assert "unrecognized arguments: --engine paths" in captured.err
    assert not os.path.exists("m.json")


def noncrossing_pairings(letters):
    """Non-crossing pairings of the positions that join equal letters only."""
    if not letters:
        return 1
    return sum(
        noncrossing_pairings(letters[1:j]) * noncrossing_pairings(letters[j + 1 :])
        for j in range(1, len(letters), 2)
        if letters[j] == letters[0]
    )


def test_free_semicircle_moments_count_pairings(workdir):
    with open("semi.json", "w") as fh:
        json.dump({"a": [1.0] * 5, "b": [0.0] * 6}, fh)
    assert run(["freeproduct", "--spec", "custom:semi.json,custom:semi.json",
                "--depth", "4", "--out", "fam.json"]) == 0
    assert run(["moments", "--family", "fam.json", "--max-degree", "3",
                "--out", "m.json"]) == 0
    entries = json.loads(Path("m.json").read_text())["moments"]
    assert len(entries) == 2**8 - 1
    for entry in entries:
        assert entry["value"] == noncrossing_pairings(tuple(entry["word"]))


def test_verify_rejects_nan_moment(workdir, capsys):
    values = [float("nan"), 0.0, 1.0, 0.0]
    obj = {
        "N": 1,
        "max_degree": 1,
        "moments": [{"word": [1] * n, "value": v} for n, v in enumerate(values)],
    }
    with open("nan.json", "w") as fh:
        json.dump(obj, fh)
    assert run(["verify", "--moments", "nan.json"]) == 2
    captured = capsys.readouterr()
    assert "ok:" not in captured.out
    assert "non-finite" in captured.err


def _family_with_entry(path, token):
    """The hermite,hermite depth-2 family with B[1,1][0,0] written as ``token``."""
    assert run(["freeproduct", "--spec", "hermite,hermite", "--depth", "2",
                "--out", "fam.json"]) == 0
    obj = json.load(open("fam.json"))
    for entry in obj["B"]:
        if entry["n"] == 1 and entry["k"] == 1:
            entry["rows"][0][0] = "@"
    with open(path, "w") as fh:
        fh.write(json.dumps(obj).replace('"@"', token))


def test_verify_rejects_infinite_block(workdir, capsys):
    # 1e999 is valid JSON and overflows to inf; validation must flag it
    _family_with_entry("inf.json", "1e999")
    capsys.readouterr()
    assert run(["verify", "--family", "inf.json"]) == 1
    out = capsys.readouterr().out
    assert "ok:" not in out
    assert "FAIL: family inf.json: B[1,1] has a non-finite entry" in out


def test_loaders_reject_nan_token(workdir, capsys):
    _family_with_entry("nan.json", "NaN")
    capsys.readouterr()
    assert run(["verify", "--family", "nan.json"]) == 2
    captured = capsys.readouterr()
    assert "ok:" not in captured.out
    assert "non-finite number NaN" in captured.err
    with open("rec.json", "w") as fh:
        fh.write('{"a": [1.0], "b": [0.0, Infinity]}')
    assert run(["freeproduct", "--spec", "custom:rec.json", "--depth", "1",
                "--out", "x.json"]) == 2
    assert "non-finite number Infinity" in capsys.readouterr().err


def _moments_with_word(path, letters):
    """A valid N=1 degree-1 moment table whose word [1] is written as ``letters``."""
    entries = [{"word": [1] * n, "value": v} for n, v in enumerate([1.0, 0.0, 1.0, 0.0])]
    entries[1]["word"] = letters
    with open(path, "w") as fh:
        json.dump({"N": 1, "max_degree": 1, "moments": entries}, fh)


@pytest.mark.parametrize(
    "letters, message",
    [
        ([1.9], "word letters must be integers, got float"),
        ([True], "word letters must be integers, got bool"),
        (["1"], "word letters must be integers, got str"),
        ([2], "letter 2 outside alphabet 1..1"),
        ([10**30], "bad.json: "),
    ],
)
def test_moment_word_letters_must_be_integers(workdir, capsys, letters, message):
    _moments_with_word("m.json", [1])
    assert run(["verify", "--moments", "m.json"]) == 0
    _moments_with_word("bad.json", letters)
    capsys.readouterr()
    assert run(["verify", "--moments", "bad.json"]) == 2
    captured = capsys.readouterr()
    assert "ok:" not in captured.out
    assert message in captured.err


@pytest.mark.parametrize(
    "edit",
    [
        lambda obj: obj.update(N=2.5),
        lambda obj: obj["A"][0].update(n=1.9),
        lambda obj: obj.update(depth="1"),
        lambda obj: obj["B"][0].update(k=True),
    ],
)
def test_family_integer_fields_must_be_integers(workdir, capsys, edit):
    assert run(["freeproduct", "--spec", "hermite,hermite", "--depth", "1",
                "--out", "fam.json"]) == 0
    obj = json.load(open("fam.json"))
    edit(obj)
    with open("bad.json", "w") as fh:
        json.dump(obj, fh)
    capsys.readouterr()
    assert run(["verify", "--family", "bad.json"]) == 2
    captured = capsys.readouterr()
    assert "ok:" not in captured.out
    assert "must be an integer" in captured.err


def test_moment_table_sizes_must_be_integers(workdir, capsys):
    for key, value in (("N", 1.0), ("max_degree", "1")):
        _moments_with_word("bad.json", [1])
        obj = json.load(open("bad.json"))
        obj[key] = value
        with open("bad.json", "w") as fh:
            json.dump(obj, fh)
        assert run(["verify", "--moments", "bad.json"]) == 2
        assert f"{key!r} must be an integer" in capsys.readouterr().err


def _one_entry_table(path, alphabet, max_degree):
    with open(path, "w") as fh:
        json.dump({"N": alphabet, "max_degree": max_degree,
                   "moments": [{"word": [], "value": 1.0}]}, fh)


@pytest.mark.parametrize("alphabet, max_degree", [(2, 40), (10, 100)])
def test_moment_header_is_checked_against_the_entry_count(workdir, capsys, alphabet, max_degree):
    # the header counts more words than any table holds; the count is exact in Python ints
    _one_entry_table("m.json", alphabet, max_degree)
    words = (alphabet ** (2 * max_degree + 1) - 1) // (alphabet - 1)
    assert run(["verify", "--moments", "m.json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: m.json: moment table incomplete: 1 entries for the {words} words up to "
        f"length {2 * max_degree}; missing word Word(1; N={alphabet})\n"
    )


def _run_limited(args, limit=2 << 30):
    """Run python with ``args`` in a child process limited to ``limit`` bytes of
    address space, 2 GiB by default, and 60 s."""
    import resource

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    # one BLAS thread, so that per-thread buffers on a many-core host stay under the limit
    env = {**_package_env(), "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        preexec_fn=limit_address_space,
        timeout=60,
    )


def test_moment_header_allocates_nothing_table_sized(workdir):
    # N=2, max_degree 14 names 2**29 - 1 words: a table-sized count array is 8 GiB
    _one_entry_table("m.json", 2, 14)
    proc = _run_limited(["-m", "ncjacobi", "verify", "--moments", "m.json"])
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith(
        "error: m.json: moment table incomplete: 1 entries for the 536870911 words up to "
        "length 28;"
    )


@pytest.mark.parametrize(
    "alphabet, max_degree, count",
    [(2, 10**6, "(2**2000001 - 1)"), (1, 10**9, "2000000001")],
)
def test_moment_header_sizes_no_levels_past_its_entries(workdir, alphabet, max_degree, count):
    # offsets over every level the header names cost the square of its degree in
    # Python ints, and its word count has too many digits to print at N = 2
    _one_entry_table("m.json", alphabet, max_degree)
    proc = _run_limited(["-m", "ncjacobi", "verify", "--moments", "m.json"])
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == (
        f"error: m.json: moment table incomplete: 1 entries for the {count} words up to "
        f"length {2 * max_degree}; missing word Word(1; N={alphabet})\n"
    )
    assert "Exceeds the limit" not in proc.stderr


def test_from_values_sizes_no_levels_past_its_values():
    code = (
        "from ncjacobi import MomentFunctional\n"
        "try:\n"
        "    MomentFunctional.from_values(2, 10**6, [1.0])\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    proc = _run_limited(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "moment table incomplete: 1 values, expected (2**2000001 - 1) (words up to "
        "length 2000000) or (2**2000002 - 1)\n"
    )


@pytest.mark.parametrize(
    "spec, depth, estimate",
    [("hermite,legendre", 40, "2.4e+26"), ("hermite,legendre", 12, "3.4e+09"),
     ("hermite", 10**11, "1.0e+13")],
)
def test_freeproduct_refuses_a_family_it_cannot_hold(workdir, spec, depth, estimate):
    # N + N^2 + .. + N^(2 depth + 1) dense block entries at about 50 bytes each, against
    # a 1 GiB address space; the blocks of the first two were a MemoryError traceback
    start = time.perf_counter()
    proc = _run_limited(["-m", "ncjacobi", "freeproduct", "--spec", spec, "--depth", str(depth),
                         "--out", "big.json"], limit=1 << 30)
    assert time.perf_counter() - start < 2.0
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == (
        f"error: a depth-{depth} family over N={spec.count(',') + 1} letters needs about "
        f"{estimate} bytes; this process may use 1.1e+09\n"
    )
    assert os.listdir() == []


def test_freeproduct_refuses_a_family_past_physical_memory(workdir, capsys, monkeypatch):
    # with no address-space limit the bound is physical memory, here 128 MiB; the
    # depth-10 family takes about 222 MB, so a command that ignored the bound would
    # build it and exit 0
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**15}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    argv = ["freeproduct", "--spec", "hermite,legendre", "--depth", "10", "--out", "big.json"]
    assert run(argv) == 2
    assert capsys.readouterr() == ("", (
        "error: a depth-10 family over N=2 letters needs about 2.1e+08 bytes; this process "
        "may use 1.3e+08\n"
    ))
    assert os.listdir() == []


def test_freeproduct_writes_a_family_it_can_hold(workdir):
    proc = _run_limited(["-m", "ncjacobi", "freeproduct", "--spec", "hermite,legendre",
                         "--depth", "8", "--out", "f.json"], limit=1 << 30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok: wrote depth-8 family for hermite,legendre to f.json\n"
    family = ncjacobi.build_free_product(
        [ncjacobi.classical_coefficients(kind, 8) for kind in ("hermite", "legendre")], 8
    )
    assert Path("f.json").read_text() == json.dumps(family.to_json_obj(), indent=1) + "\n"


def test_freeproduct_counts_the_basis_matrix(workdir):
    # --basis adds a dense 4095 x 4095 float64 matrix (134 MB) to the 8.4e8 bytes of the
    # depth-11 family; counted without it, the command died of a MemoryError after 2.1 s
    start = time.perf_counter()
    proc = _run_limited(["-m", "ncjacobi", "freeproduct", "--spec", "hermite,legendre",
                         "--depth", "11", "--out", "big.json", "--basis", "b.json"],
                        limit=900 << 20)
    assert time.perf_counter() - start < 2.0
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: a depth-11 family over N=2 letters needs about 9.9e+08 bytes; this process "
        "may use 9.4e+08\n"
    )
    assert os.listdir() == []


def test_moments_refuses_a_table_it_cannot_hold(workdir):
    # the smallest family refused under 256 MiB: its depth-9 file loads in about 60 MB,
    # while its 1,048,575-entry table would take about 500 bytes an entry
    assert run(["freeproduct", "--spec", "hermite,legendre", "--depth", "9",
                "--out", "fam.json"]) == 0
    start = time.perf_counter()
    proc = _run_limited(["-m", "ncjacobi", "moments", "--family", "fam.json",
                         "--max-degree", "9", "--out", "m.json"], limit=256 << 20)
    assert time.perf_counter() - start < 2.0
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: a degree-9 moment table over N=2 letters needs about 5.2e+08 bytes; this "
        "process may use 2.7e+08\n"
    )
    assert os.listdir() == ["fam.json"]


def test_moments_refuses_a_family_file_it_cannot_read(workdir):
    # reading the 42 MB depth-10 file peaks at about 268 MB: sized from the file before
    # json parses it, where it was a MemoryError traceback; the depth-9 file above reads
    assert run(["freeproduct", "--spec", "hermite,legendre", "--depth", "10",
                "--out", "fam.json"]) == 0
    start = time.perf_counter()
    proc = _run_limited(["-m", "ncjacobi", "moments", "--family", "fam.json",
                         "--max-degree", "1", "--out", "m.json"], limit=256 << 20)
    assert time.perf_counter() - start < 2.0
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: reading fam.json needs about 2.9e+08 bytes; this process may use 2.7e+08\n"
    )
    assert os.listdir() == ["fam.json"]


@pytest.mark.parametrize("word", ["0", "0,0"])
def test_paths_without_family_names_a_letter_below_the_alphabet(workdir, capsys, word):
    # the alphabet is the largest letter, and at least 1, so the letter is to blame
    assert run(["paths", "--word", word, "--count-only"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: letter 0 outside alphabet 1..1\n"


@pytest.mark.parametrize("value, kind", [(False, "bool"), ("1.0", "str")])
def test_moment_values_must_be_numbers(workdir, capsys, value, kind):
    # the word [1] holds 0.0 and the word [1, 1] holds 1.0: false and "1.0"
    # read as those numbers would pass every check
    _moments_with_word("bad.json", [1])
    obj = json.load(open("bad.json"))
    obj["moments"][1 if value is False else 2]["value"] = value
    with open("bad.json", "w") as fh:
        json.dump(obj, fh)
    assert run(["verify", "--moments", "bad.json"]) == 2
    captured = capsys.readouterr()
    assert "ok:" not in captured.out
    assert f"moment values must be JSON numbers, got {kind}" in captured.err


@pytest.mark.parametrize(
    "token, message",
    [
        ('"0.0"', "B[1,1] rows must be JSON numbers, got str"),
        ("true", "B[1,1] rows must be JSON numbers, got bool"),
        ("null", "B[1,1] rows must be JSON numbers, got NoneType"),
        ("1" + "0" * 400, "int too large to convert to float"),
    ],
    ids=["str", "bool", "null", "huge-int"],
)
def test_family_block_entries_must_be_numbers(workdir, capsys, token, message):
    _family_with_entry("bad.json", token)
    capsys.readouterr()
    assert run(["verify", "--family", "bad.json"]) == 2
    captured = capsys.readouterr()
    assert "ok:" not in captured.out
    assert message in captured.err


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"a": 5, "b": [0, 0]}', "recurrence 'a' must be a list of numbers"),
        ("[1, 2]", 'a recurrence file holds one object {"a": [...], "b": [...]}'),
        ("null", 'a recurrence file holds one object {"a": [...], "b": [...]}'),
        ('{"a": [1, null], "b": [0, 0, 0]}', "recurrence 'a' must be JSON numbers, got NoneType"),
        ('{"a": [1], "b": [0, true]}', "recurrence 'b' must be JSON numbers, got bool"),
    ],
    ids=["scalar", "list", "null", "null-entry", "bool-entry"],
)
def test_freeproduct_rejects_wrong_shape_custom_recurrence(workdir, capsys, text, message):
    with open("rec.json", "w") as fh:
        fh.write(text)
    assert run(["freeproduct", "--spec", "custom:rec.json", "--depth", "1",
                "--out", "fam.json"]) == 2
    captured = capsys.readouterr()
    assert "ok:" not in captured.out
    assert "error: bad recurrence spec 'custom:rec.json': " + message in captured.err
    assert not os.path.exists("fam.json")


@pytest.mark.parametrize(
    "argv, path",
    [
        (["freeproduct", "--spec", "hermite", "--depth", "1", "--out", "missing/x.json"],
         "missing/x.json"),
        (["moments", "--family", "fam.json", "--max-degree", "1", "--out", "missing/x.json"],
         "missing/x.json"),
        (["paths", "--word", "1,2", "--out", "missing/x.json"], "missing/x.json"),
        (["verify", "--family", "dir.json"], "dir.json"),
    ],
    ids=["freeproduct", "moments", "paths", "directory-input"],
)
def test_unreadable_or_unwritable_file_exits_2(workdir, capsys, argv, path):
    assert run(["freeproduct", "--spec", "hermite", "--depth", "1",
                "--out", "fam.json"]) == 0
    os.mkdir("dir.json")
    capsys.readouterr()
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert "ok:" not in captured.out
    assert captured.err.startswith("error: ")
    assert f"'{path}'" in captured.err
    assert not os.path.exists("missing")


@pytest.mark.parametrize(
    "out, basis",
    [("fam.json", "missing/b.json"), ("missing/f.json", "b.json")],
    ids=["bad-basis", "bad-out"],
)
def test_freeproduct_writes_both_files_or_neither(workdir, capsys, out, basis):
    assert run(["freeproduct", "--spec", "hermite,legendre", "--depth", "2",
                "--out", out, "--basis", basis]) == 2
    captured = capsys.readouterr()
    assert "ok:" not in captured.out
    assert captured.err.startswith("error: ") and "missing/" in captured.err
    assert os.listdir(".") == []


UNREADABLE_COMMANDS = {
    "moment": ["jacobi", "--moments", "bad.json", "--depth", "1", "--out", "out.json"],
    "family": ["moments", "--family", "bad.json", "--max-degree", "1", "--out", "out.json"],
    "recurrence": ["freeproduct", "--spec", "custom:bad.json", "--depth", "1",
                   "--out", "out.json"],
}
NOT_JSON = "bad.json is not valid JSON: "
SPEC = "bad recurrence spec 'custom:bad.json': "


@pytest.mark.parametrize(
    "kind, content, message",
    [
        ("moment", b'{"N": 1,', NOT_JSON + "Expecting property name enclosed in double quotes: "
         "line 1 column 9 (char 8)"),
        ("family", b'{"N": 1,', NOT_JSON + "Expecting property name enclosed in double quotes: "
         "line 1 column 9 (char 8)"),
        ("recurrence", b'{"N": 1,', SPEC + NOT_JSON + "Expecting property name enclosed in "
         "double quotes: line 1 column 9 (char 8)"),
        ("moment", b"\xff\xfe{", NOT_JSON + "'utf-8' codec can't decode byte 0xff in "
         "position 0: invalid start byte"),
        ("family", b"\xff\xfe{", NOT_JSON + "'utf-8' codec can't decode byte 0xff in "
         "position 0: invalid start byte"),
        ("recurrence", b"\xff\xfe{", SPEC + NOT_JSON + "'utf-8' codec can't decode byte 0xff "
         "in position 0: invalid start byte"),
        ("moment", b'{"N": 1, "moments": []}',
         "bad.json: moment table is missing required key 'max_degree'"),
        ("family", b'{"N": 1, "depth": 1, "A": []}',
         "bad.json: coefficient family is missing required key 'B'"),
        ("recurrence", b'{"a": [1.0]}', SPEC + "recurrence is missing required key 'b'"),
    ],
    ids=[f"{kind}-{defect}" for defect in ("syntax", "not-utf8", "missing-key")
         for kind in ("moment", "family", "recurrence")],
)
def test_unreadable_input_file_exits_2(workdir, capsys, kind, content, message):
    Path("bad.json").write_bytes(content)
    assert run(UNREADABLE_COMMANDS[kind]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert sorted(os.listdir(".")) == ["bad.json"]


@pytest.mark.parametrize(
    "argv",
    [["verify", "--moments", "deep.json"],
     ["moments", "--family", "deep.json", "--max-degree", "1", "--out", "out.json"]],
    ids=["verify-moments", "moments-family"],
)
def test_deeply_nested_input_file_exits_2(workdir, capsys, argv):
    # the JSON parser raises RecursionError past the interpreter's nesting limit
    Path("deep.json").write_text("[" * 100000 + "]" * 100000)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and captured.err.endswith("\n")
    assert lines[0].startswith("error: deep.json is not valid JSON: maximum recursion depth")
    assert sorted(os.listdir(".")) == ["deep.json"]


@pytest.mark.parametrize("cls, key", [(MomentFunctional, "max_degree"), (AdmissibleFamily, "depth")])
def test_from_json_obj_names_a_missing_key(cls, key):
    # each class checks its own keys, so a bare object fails the same way as a file
    with pytest.raises(TypeError, match=f"is missing required key '{key}'"):
        cls.from_json_obj({"N": 1})


@pytest.mark.parametrize("basis", ["same.json", "./same.json", "sub/../same.json"])
def test_freeproduct_refuses_one_file_for_out_and_basis(workdir, capsys, basis):
    os.mkdir("sub")
    assert run(["freeproduct", "--spec", "hermite,hermite", "--depth", "2",
                "--out", "same.json", "--basis", basis]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --out and --basis name the same file same.json\n"
    assert os.listdir(".") == ["sub"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["paths", "--word", "1,2", "--count-only", "--out", "x.json"],
         "--out is not used with --count-only"),
        (["verify", "--family", "fam.json", "--depth", "7"], "--depth is not used with --family"),
    ],
    ids=["paths-count-only-out", "verify-family-depth"],
)
def test_options_the_chosen_mode_ignores_are_refused(workdir, capsys, argv, message):
    assert run(["freeproduct", "--spec", "hermite,hermite", "--depth", "2",
                "--out", "fam.json"]) == 0
    capsys.readouterr()
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert os.listdir(".") == ["fam.json"]


def test_paths_stdout_is_the_out_file(workdir, capsys):
    assert run(["freeproduct", "--spec", "hermite,legendre", "--depth", "2",
                "--out", "fam.json"]) == 0
    capsys.readouterr()
    argv = ["paths", "--word", "1,2,2,1", "--family", "fam.json"]
    assert run(argv) == 0
    ok, listing = capsys.readouterr().out.split("\n", 1)
    assert ok.startswith("ok: weight sum ")
    assert run(argv + ["--out", "p.json"]) == 0
    assert capsys.readouterr().out.splitlines() == [ok, "ok: wrote 9 paths to p.json"]
    assert Path("p.json").read_text() == listing


def test_every_written_file_is_the_serializer_text(workdir):
    recs = [ncjacobi.classical_coefficients(k, 3) for k in ("chebyshev_t", "laguerre")]
    family = ncjacobi.build_free_product(recs, 3)
    phi = favard_moments(family, 2)
    jsonio.save_family("fam.json", family)
    jsonio.save_moments("m.json", phi)
    assert run(["orthonormalize", "--moments", "m.json", "--depth", "2",
                "--out", "basis.json"]) == 0
    assert run(["freeproduct", "--spec", "chebyshev_t,laguerre", "--depth", "3",
                "--out", "fam2.json", "--basis", "product.json"]) == 0
    for path, obj in [
        ("fam.json", family),
        ("m.json", phi),
        ("basis.json", ncjacobi.orthonormalize(phi, 2)),
        ("product.json", ncjacobi.product_basis(recs, 3)),
    ]:
        assert Path(path).read_text() == json.dumps(obj.to_json_obj(), indent=1) + "\n"


def test_paths_refuses_a_non_finite_weight(workdir, capsys):
    # admissible, but 1e200^2 overflows and the zero B blocks then meet inf
    big = {"N": 1, "depth": 2,
           "A": [{"n": n, "k": 1, "rows": [[1e200]]} for n in (1, 2)],
           "B": [{"n": n, "k": 1, "rows": [[0.0]]} for n in range(3)]}
    jsonio.write_json("big.json", big)
    assert run(["verify", "--family", "big.json"]) == 0
    capsys.readouterr()
    for out in (["--out", "p.json"], []):
        assert run(["paths", "--word", "1,1,1,1", "--family", "big.json", *out]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            "FAIL: path 1 of 9 (rise,rise,fall,fall) has weight inf against big.json, "
            "not a finite number"
        ]
    assert sorted(os.listdir(".")) == ["big.json"]


def test_paths_refuses_an_overflowing_weight_sum(workdir, capsys):
    # both paths of the word 11 weigh 1.69e308, so their sum overflows
    fam = {"N": 1, "depth": 1, "A": [{"n": 1, "k": 1, "rows": [[1.3e154]]}],
           "B": [{"n": 0, "k": 1, "rows": [[1.3e154]]}, {"n": 1, "k": 1, "rows": [[0.0]]}]}
    jsonio.write_json("fam.json", fam)
    assert run(["paths", "--word", "1,1", "--family", "fam.json", "--out", "p.json"]) == 1
    assert capsys.readouterr().out == "FAIL: weight sum over 2 paths overflows to inf\n"
    assert os.listdir(".") == ["fam.json"]


@pytest.mark.parametrize(
    "a, b1, length",
    [
        # s_11 = 1e400, and the Fock vector J_11 e0 = 1e400 e0 overflows too
        (1e200, 0.0, 2),
        # the Fock vectors stay below 1e261, but s_111 = 1e360
        (1e100, 1e160, 3),
    ],
    ids=["fock", "moment"],
)
def test_moments_names_the_overflow(workdir, capsys, a, b1, length):
    fam = {"N": 1, "depth": 1, "A": [{"n": 1, "k": 1, "rows": [[a]]}],
           "B": [{"n": 0, "k": 1, "rows": [[0.0]]}, {"n": 1, "k": 1, "rows": [[b1]]}]}
    jsonio.write_json("fam.json", fam)
    assert run(["moments", "--family", "fam.json", "--max-degree", "1", "--out", "m.json"]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        f"FAIL: float64 overflow in the moments of words of length {length}: the "
        f"family's blocks are too large for degree-1 moments, or not finite"
    ]
    assert captured.err == ""
    assert os.listdir(".") == ["fam.json"]


@pytest.mark.parametrize(
    "rec, spec, depth, message",
    [
        ({"a": [1e-200] * 3, "b": [0] * 4}, "custom:rec.json,custom:rec.json", 3,
         "FAIL: depth-3 family for custom:rec.json,custom:rec.json: "
         "A_1 diagonal not strictly positive (+2 more)"),
        # admissible, but the leading coefficients 1e11^n overflow by degree 28
        ({"a": [1e-11] * 30, "b": [0] * 31}, "custom:rec.json", 30,
         "FAIL: depth-30 product basis for custom:rec.json has a non-finite coefficient"),
    ],
    ids=["inadmissible", "overflowing-basis"],
)
def test_freeproduct_writes_only_what_verify_accepts(workdir, capsys, rec, spec, depth, message):
    jsonio.write_json("rec.json", rec)
    assert run(["freeproduct", "--spec", spec, "--depth", str(depth),
                "--out", "f.json", "--basis", "b.json"]) == 1
    assert capsys.readouterr().out.splitlines() == [message]
    assert sorted(os.listdir(".")) == ["rec.json"]


def test_written_json_refuses_non_finite_numbers(workdir):
    for value in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="not JSON compliant"):
            jsonio.write_json("x.json", {"value": [1.0, value]})
    assert os.listdir(".") == []


def test_json_is_written_in_bounded_batches(workdir):
    obj = {"values": [i / 7 for i in range(20000)], "words": [[1, 2]] * 3000}
    text = json.dumps(obj, indent=1, allow_nan=False) + "\n"
    writes = []

    class Sink(io.StringIO):
        def write(self, s):
            writes.append(len(s))
            return super().write(s)

    sink = Sink()
    jsonio.dump(obj, sink)
    assert sink.getvalue() == text
    assert len(writes) > 5 and max(writes) < len(text) // 4
    # a NaN met after many batches were written leaves the target as it was and
    # no temporary file
    Path("keep.json").write_text("old\n")
    with pytest.raises(ValueError, match="not JSON compliant"):
        jsonio.write_json("keep.json", {**obj, "tail": [float("nan")]})
    assert os.listdir(".") == ["keep.json"] and Path("keep.json").read_text() == "old\n"


def test_verify_rejects_negative_depth(workdir, capsys):
    assert run(["freeproduct", "--spec", "hermite", "--depth", "2", "--out", "fam.json"]) == 0
    assert run(["moments", "--family", "fam.json", "--max-degree", "2", "--out", "m.json"]) == 0
    capsys.readouterr()
    assert run(["verify", "--moments", "m.json", "--depth", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: degree must be >= 0, got -1\n"


TABLE_COMMANDS = (
    ["jacobi", "--out", "x.json"],
    ["orthonormalize", "--out", "x.json"],
    ["verify"],
)


# the library call each table command makes first on a depth, which refuses one the
# table cannot serve; jacobi checks the extraction's reach before it factors
TABLE_CALLS = {
    "jacobi": lambda phi, depth: (
        phi._require_words(2 * depth + 1, f"extracting level-{depth} blocks"),
        ncjacobi.orthonormalize(phi, depth),
    ),
    "orthonormalize": ncjacobi.orthonormalize,
    "verify": lambda phi, depth: phi.gram(depth),
}


@pytest.mark.parametrize("command", TABLE_COMMANDS)
def test_table_commands_share_one_depth_check(workdir, capsys, command):
    assert run(["freeproduct", "--spec", "hermite", "--depth", "2", "--out", "fam.json"]) == 0
    assert run(["moments", "--family", "fam.json", "--max-degree", "2", "--out", "m.json"]) == 0
    capsys.readouterr()
    phi = jsonio.load_moments("m.json")
    too_deep = {
        "jacobi": "extracting level-5 blocks needs length 11",
        "orthonormalize": "the degree-5 Gram matrix needs length 10",
        "verify": "the degree-5 Gram matrix needs length 10",
    }[command[0]]
    for depth, text in ((5, f"moment table stores words up to length 5; {too_deep}"),
                        (-1, "degree must be >= 0, got -1")):
        # the command refuses through its library call's rule, in that rule's words
        assert refusal(lambda: TABLE_CALLS[command[0]](phi, depth)) == (SizeError, text)
        assert run([*command, "--moments", "m.json", "--depth", str(depth)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {text}\n"
    assert not os.path.exists("x.json")


@pytest.fixture
def depth2_files(workdir, capsys):
    """fam.json, a depth-2 family over N = 2, and m.json, its degree-2 moment table."""
    family = random_admissible_family(2, 2, seed=1)
    jsonio.save_family("fam.json", family)
    jsonio.save_moments("m.json", favard_moments(family, 2))
    return workdir


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(["moments", "--family", "fam.json", "--max-degree", "5", "--out", "x.json"],
                     "family stores levels up to 2; moments of degree 5 need level 5",
                     id="moments-past-depth"),
        pytest.param(["moments", "--family", "fam.json", "--max-degree", "-1", "--out", "x.json"],
                     "degree must be >= 0, got -1", id="moments-negative-degree"),
        pytest.param(["jacobi", "--moments", "m.json", "--depth", "5", "--out", "x.json"],
                     "moment table stores words up to length 5; extracting level-5 blocks "
                     "needs length 11", id="jacobi-past-table"),
        pytest.param(["jacobi", "--moments", "m.json", "--depth", "-1", "--out", "x.json"],
                     "degree must be >= 0, got -1", id="jacobi-negative-depth"),
        pytest.param(["orthonormalize", "--moments", "m.json", "--depth", "3", "--out", "x.json"],
                     "moment table stores words up to length 5; the degree-3 Gram matrix "
                     "needs length 6", id="orthonormalize-past-table"),
        pytest.param(["orthonormalize", "--moments", "m.json", "--depth", "-1", "--out", "x.json"],
                     "degree must be >= 0, got -1", id="orthonormalize-negative-depth"),
        pytest.param(["verify", "--moments", "m.json", "--depth", "3"],
                     "moment table stores words up to length 5; the degree-3 Gram matrix "
                     "needs length 6", id="verify-past-table"),
        pytest.param(["verify", "--moments", "m.json", "--depth", "-1"],
                     "degree must be >= 0, got -1", id="verify-negative-depth"),
        pytest.param(["freeproduct", "--spec", "hermite,legendre", "--depth", "-1",
                      "--out", "x.json", "--basis", "y.json"],
                     "depth must be >= 0, got -1", id="freeproduct-negative-depth"),
        pytest.param(["paths", "--word", "1,2,2,1,1,2", "--family", "fam.json", "--out", "x.json"],
                     "family stores levels up to 2; paths of height 3 need level 3",
                     id="paths-past-depth"),
        pytest.param(["paths", "--word", "1,3,1", "--family", "fam.json", "--out", "x.json"],
                     "letter 3 outside alphabet 1..2", id="paths-letter-past-family"),
        pytest.param(["paths", "--word", "0,1", "--out", "x.json"],
                     "letter 0 outside alphabet 1..1", id="paths-letter-0"),
    ],
)
def test_every_size_rule_route_exits_2_in_the_library_words(depth2_files, capsys, argv, message):
    # main maps the library's SizeError to exit 2; no command restates a rule or its text
    capsys.readouterr()
    assert run(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert sorted(os.listdir()) == ["fam.json", "m.json"]


def _custom_recurrence():
    Path("r.json").write_text(json.dumps({"a": [1.0, 2.0, 3.0], "b": [0.0, 0.0, 0.0, 0.0]}))


@pytest.mark.parametrize(
    "argv, clash",
    [
        pytest.param(["moments", "--family", "fam.json", "--max-degree", "2", "--out", "fam.json"],
                     "--out and --family name the same file fam.json", id="moments"),
        pytest.param(["jacobi", "--moments", "m.json", "--depth", "2", "--out", "./m.json"],
                     "--out and --moments name the same file ./m.json", id="jacobi"),
        pytest.param(["orthonormalize", "--moments", "m.json", "--depth", "2",
                      "--out", "sub/../m.json"],
                     "--out and --moments name the same file sub/../m.json", id="orthonormalize"),
        pytest.param(["freeproduct", "--spec", "hermite, custom:r.json", "--depth", "2",
                      "--out", "r.json"],
                     "--out and --spec name the same file r.json", id="freeproduct-out"),
        pytest.param(["freeproduct", "--spec", "custom:r.json", "--depth", "2",
                      "--out", "x.json", "--basis", "r.json"],
                     "--basis and --spec name the same file r.json", id="freeproduct-basis"),
        pytest.param(["paths", "--word", "1,2,2,1", "--family", "fam.json", "--out", "link.json"],
                     "--out and --family name the same file link.json", id="paths-symlink"),
    ],
)
def test_no_output_overwrites_an_input(depth2_files, capsys, argv, clash):
    # each would have replaced the file it reads with its own output, and exited 0
    os.mkdir("sub")
    os.symlink("fam.json", "link.json")
    _custom_recurrence()
    before = {name: Path(name).read_bytes() for name in ("fam.json", "m.json", "r.json")}
    capsys.readouterr()
    assert run(argv) == 2
    assert capsys.readouterr() == ("", f"error: {clash}\n")
    assert sorted(os.listdir()) == ["fam.json", "link.json", "m.json", "r.json", "sub"]
    assert {name: Path(name).read_bytes() for name in before} == before


def test_jacobi_refuses_a_table_without_its_odd_level_before_factoring(workdir, capsys, monkeypatch):
    phi = favard_moments(random_admissible_family(2, 2, seed=1), 2)
    even = phi.values[: ncjacobi.words.level_offsets(2, 5)[-2]]  # words up to length 4
    jsonio.save_moments("even.json", MomentFunctional.from_values(2, 2, even))

    def forbidden(*args):
        raise AssertionError("orthonormalize ran on a table jacobi must refuse")

    monkeypatch.setattr(ncjacobi.cli, "orthonormalize", forbidden)
    assert run(["jacobi", "--moments", "even.json", "--depth", "2", "--out", "x.json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: moment table stores words up to length 4; extracting level-2 blocks "
        "needs length 5\n"
    )
    assert not os.path.exists("x.json")


def test_gram_pivot_threshold_is_fixed(workdir, capsys):
    # the Gram pivot 1e-11 passes LAPACK's Cholesky but not the fixed 1e-10 bound
    obj = {"N": 1, "max_degree": 1, "moments": [
        {"word": [1] * n, "value": v} for n, v in enumerate([1.0, 0.0, 1e-11, 0.0])
    ]}
    with open("thin.json", "w") as fh:
        json.dump(obj, fh)
    np.linalg.cholesky(MomentFunctional.from_json_obj(obj).gram(1).gram)
    capsys.readouterr()
    # one rule words every refusal; only where the pivots were taken differs
    refusal = "functional not strictly positive at {} 1: Gram pivot 1.000e-11 <= 1e-10"
    for command, where in zip(TABLE_COMMANDS, ("depth", "depth", "degree")):
        assert run([*command, "--moments", "thin.json", "--depth", "1"]) == 1
        fail = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL:")]
        assert fail == ["FAIL: " + refusal.format(where)]
    assert not os.path.exists("x.json")
    with pytest.raises(ncjacobi.NotStrictlyPositiveError) as info:
        ncjacobi.jacobi_from_moments(jsonio.load_moments("thin.json"), 1)
    assert str(info.value) == refusal.format("level")


def test_cli_chain_builds_no_word_or_polynomial_objects(workdir, capsys, monkeypatch):
    # the file-to-file commands work on graded-rank arrays from input to output
    def forbidden(*args, **kwargs):
        raise AssertionError("Word, NcPolynomial or word list built on the CLI path")

    monkeypatch.setattr(ncjacobi.words.Word, "__post_init__", forbidden)
    monkeypatch.setattr(ncjacobi.ncpoly.NcPolynomial, "__init__", forbidden)
    monkeypatch.setattr(ncjacobi.words, "enumerate_words", forbidden)
    monkeypatch.setattr(ncjacobi.words, "words_up_to", forbidden)
    for argv in (
        ["freeproduct", "--spec", "laguerre(0.5),legendre", "--depth", "4",
         "--out", "fam.json", "--basis", "pb.json"],
        ["moments", "--family", "fam.json", "--max-degree", "3", "--out", "m.json"],
        ["jacobi", "--moments", "m.json", "--depth", "3", "--out", "rec.json"],
        ["orthonormalize", "--moments", "m.json", "--depth", "3", "--out", "basis.json"],
        ["verify", "--moments", "m.json"],
        ["verify", "--family", "rec.json"],
    ):
        assert run(argv) == 0, argv
    out = capsys.readouterr().out
    assert "FAIL" not in out and out.count("ok:") == 9
    assert len(json.load(open("pb.json"))["basis"]) == 31


def test_freeproduct_rejects_overflowing_custom_recurrence(workdir, capsys):
    # 1e999 is a valid JSON number that parses to inf
    with open("rec.json", "w") as fh:
        fh.write('{"a": [1e999, 1.0], "b": [0.0, 1e999, 0.0]}')
    assert run(["freeproduct", "--spec", "custom:rec.json,hermite", "--depth", "2",
                "--out", "fam.json"]) == 2
    captured = capsys.readouterr()
    assert "ok:" not in captured.out
    assert "non-finite coefficient" in captured.err
    assert not os.path.exists("fam.json")


@pytest.mark.parametrize("alphabet, depth, seed", [(2, 3, 3), (2, 3, 4), (3, 2, 3), (3, 2, 4)])
def test_jacobi_command_matches_path_peel(workdir, capsys, alphabet, depth, seed):
    from ncjacobi import jacobi_from_moments, jsonio, random_admissible_family

    jsonio.save_family("fam.json", random_admissible_family(alphabet, depth, seed=seed))
    assert run(["moments", "--family", "fam.json", "--max-degree", str(depth),
                "--out", "m.json"]) == 0
    assert run(["jacobi", "--moments", "m.json", "--depth", str(depth),
                "--out", "rec.json"]) == 0
    assert run(["verify", "--family", "rec.json"]) == 0
    assert "FAIL" not in capsys.readouterr().out
    phi = jsonio.load_moments("m.json")
    peel = jacobi_from_moments(phi, depth)
    cond = np.linalg.cond(phi.gram(depth).gram)
    assert jsonio.load_family("rec.json").blocks_close(peel) <= cond * np.finfo(float).eps


def test_paths_count_only_long_word(workdir, capsys):
    assert run(["paths", "--word", ",".join(["1"] * 3000), "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == str(ncjacobi.motzkin_number(3000))


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="int-to-str has no digit limit"
)
def test_paths_count_only_refuses_a_count_past_the_digit_limit(workdir, capsys):
    # M_n < 3^n: 9000 letters give at most 4295 digits, 9025 may give 4306
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert run(["paths", "--word", ",".join(["1"] * 9025), "--count-only"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: the path count of a length-9025 word may exceed Python's 4300-digit "
            "limit on printing an integer\n"
        )
        assert run(["paths", "--word", ",".join(["1"] * 9000), "--count-only"]) == 0
        assert capsys.readouterr().out == f"{ncjacobi.motzkin_number(9000)}\n"
    finally:
        sys.set_int_max_str_digits(old)


def test_paths_over_the_list_limit_names_it(workdir, capsys):
    # longer words get their count through --count-only, not a path list
    cap = ncjacobi.paths.DEFAULT_PATH_CAP
    assert run(["paths", "--word", ",".join(["1"] * (cap + 1))]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: path lists are written for words of length <= {cap} "
        f"({ncjacobi.motzkin_number(cap + 1)} paths at length {cap + 1}); "
        f"use --count-only for the count\n"
    )
    assert run(["paths", "--word", ",".join(["1"] * cap), "--out", "p.json"]) == 0


@pytest.mark.parametrize("seed", [7, 13])
def test_jacobi_refuses_a_table_float64_cannot_determine(workdir, capsys, seed):
    # both tables are positive definite as stored, yet the blocks recovered from
    # them were off by 0.94 (seed 7) and 25.6 (seed 13)
    from ncjacobi import random_admissible_family
    from ncjacobi.orthopoly import RECOVERY_LIMIT

    jsonio.save_family("fam.json", random_admissible_family(3, 4, seed=seed))
    assert run(["moments", "--family", "fam.json", "--max-degree", "4", "--out", "m.json"]) == 0
    assert run(["verify", "--moments", "m.json"]) == 0
    capsys.readouterr()
    assert run(["jacobi", "--moments", "m.json", "--depth", "4", "--out", "rec.json"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    (line,) = captured.out.splitlines()
    assert line.startswith("FAIL: recovery condition estimate eps n sum G_jj C_ij^2 = ")
    assert f"exceeds {RECOVERY_LIMIT:g}" in line
    assert not os.path.exists("rec.json")


def test_written_file_honours_umask(workdir):
    old = os.umask(0o022)
    try:
        assert run(["freeproduct", "--spec", "hermite,hermite", "--depth", "2",
                    "--out", "fam.json"]) == 0
    finally:
        os.umask(old)
    assert os.stat("fam.json").st_mode & 0o777 == 0o644


def test_written_files_reload_identically(workdir):
    assert run(["freeproduct", "--spec", "chebyshev_t,hermite", "--depth", "3",
                "--out", "fam.json", "--basis", "basis.json"]) == 0
    fam = AdmissibleFamily.from_json_obj(json.load(open("fam.json")))
    assert run(["moments", "--family", "fam.json", "--max-degree", "2",
                "--out", "m.json"]) == 0
    phi = MomentFunctional.from_json_obj(json.load(open("m.json")))

    # write again from the reloaded values: bytes must be identical
    from ncjacobi import jsonio

    jsonio.save_family("fam2.json", fam)
    jsonio.save_moments("m2.json", phi)
    assert open("fam.json").read() == open("fam2.json").read()
    assert open("m.json").read() == open("m2.json").read()

    basis = json.load(open("basis.json"))
    assert basis["N"] == 2
    assert len(basis["basis"]) == 1 + 2 + 4 + 8


def test_orthonormalize_command(workdir):
    assert run(["freeproduct", "--spec", "hermite,hermite", "--depth", "3",
                "--out", "fam.json"]) == 0
    assert run(["moments", "--family", "fam.json", "--max-degree", "2",
                "--out", "m.json"]) == 0
    assert run(["orthonormalize", "--moments", "m.json", "--depth", "2",
                "--out", "basis.json"]) == 0
    obj = json.load(open("basis.json"))
    assert [e["word"] for e in obj["basis"]][:3] == [[], [1], [2]]
    entry = [e for e in obj["basis"] if e["word"] == [1, 2]][0]
    assert entry["terms"] == [{"word": [1, 2], "coeff": 1.0}]


def test_verify_moments_report(workdir, capsys):
    assert run(["freeproduct", "--spec", "hermite", "--depth", "3",
                "--out", "fam.json"]) == 0
    assert run(["moments", "--family", "fam.json", "--max-degree", "3",
                "--out", "m.json"]) == 0
    assert run(["verify", "--moments", "m.json"]) == 0
    out = capsys.readouterr().out
    assert "shift invariance" in out
    assert "strictly positive" in out


def test_verify_moments_builds_no_kernel_table(workdir, capsys, monkeypatch):
    # a word-indexed table is shift invariant by construction: nothing to check
    def forbidden(*args, **kwargs):
        raise AssertionError("kernel table built by verify --moments")

    for module in (ncjacobi.cli, ncjacobi.functional):
        for name in ("kernel_table", "hankel_check"):
            monkeypatch.setattr(module, name, forbidden, raising=False)
    assert run(["freeproduct", "--spec", "hermite,legendre", "--depth", "3",
                "--out", "fam.json"]) == 0
    assert run(["moments", "--family", "fam.json", "--max-degree", "2",
                "--out", "m.json"]) == 0
    assert run(["verify", "--moments", "m.json"]) == 0
    assert "shift invariance K(aw,t) = K(w,I(a)t) holds by construction" in (
        capsys.readouterr().out
    )


def test_exit_codes(workdir, capsys):
    # malformed JSON -> 2
    with open("bad.json", "w") as fh:
        fh.write("{not json")
    assert run(["verify", "--family", "bad.json"]) == 2
    # schema violation -> 2
    with open("schema.json", "w") as fh:
        json.dump({"N": 2, "depth": 1}, fh)
    assert run(["verify", "--family", "schema.json"]) == 2
    # missing file -> 2
    assert run(["moments", "--family", "nope.json", "--max-degree", "2",
                "--out", "x.json"]) == 2
    # verify on an inadmissible family -> 1
    assert run(["freeproduct", "--spec", "hermite,hermite", "--depth", "2",
                "--out", "fam.json"]) == 0
    obj = json.load(open("fam.json"))
    for entry in obj["B"]:
        if entry["n"] == 1 and entry["k"] == 1:
            entry["rows"] = [[0.0, 1.0], [0.0, 0.0]]
    with open("broken.json", "w") as fh:
        json.dump(obj, fh)
    assert run(["verify", "--family", "broken.json"]) == 1
    assert "FAIL" in capsys.readouterr().out
    # moments on the inadmissible family -> 1
    assert run(["moments", "--family", "broken.json", "--max-degree", "2",
                "--out", "x.json"]) == 1
    # jacobi on a non-strictly-positive table -> 1
    phi_obj = {
        "N": 1,
        "max_degree": 1,
        "moments": [
            {"word": [], "value": 1.0},
            {"word": [1], "value": 1.0},
            {"word": [1, 1], "value": 1.0},
            {"word": [1, 1, 1], "value": 1.0},
        ],
    }
    with open("flat.json", "w") as fh:
        json.dump(phi_obj, fh)
    assert run(["jacobi", "--moments", "flat.json", "--depth", "1",
                "--out", "x.json"]) == 1
    # usage errors -> 2
    assert run(["verify"]) == 2
    assert run(["paths", "--word", "1,x"]) == 2
    # the positivity threshold is fixed: --tolerance is an unknown flag
    assert run(["moments", "--family", "fam.json", "--max-degree", "2",
                "--out", "x.json", "--tolerance", "1e-12"]) == 2
    assert "unrecognized arguments: --tolerance" in capsys.readouterr().err


def _two_asymmetric_blocks():
    assert run(["freeproduct", "--spec", "hermite,hermite", "--depth", "2",
                "--out", "fam.json"]) == 0
    obj = json.load(open("fam.json"))
    for entry in obj["B"]:
        if entry["n"] == 1:
            entry["rows"] = [[0.0, 1.0], [0.0, 0.0]]
    Path("bad.json").write_text(json.dumps(obj))


def _flat_table():
    Path("bad.json").write_text(json.dumps({"N": 1, "max_degree": 1, "moments": [
        {"word": [1] * n, "value": 1.0} for n in range(4)]}))


def _ill_conditioned_table():
    jsonio.save_moments("bad.json", favard_moments(random_admissible_family(3, 4, seed=7), 4))


TABLE = ["--moments", "bad.json", "--out", "x.json"]


@pytest.mark.parametrize(
    "setup, argv, code, lines",
    [
        (_two_asymmetric_blocks, ["verify", "--family", "bad.json"], 1,
         ["FAIL: family bad.json: B[1,1] not symmetric",
          "FAIL: family bad.json: B[1,2] not symmetric"]),
        (_flat_table, ["jacobi", *TABLE, "--depth", "1"], 1,
         ["FAIL: functional not strictly positive at depth 1: Gram pivot 0.000e+00 <= 1e-10"]),
        (_ill_conditioned_table, ["jacobi", *TABLE, "--depth", "4"], 1,
         ["FAIL: recovery condition estimate eps n sum G_jj C_ij^2 = "]),
        (None, ["paths", "--word", "1,x"], 2,
         ["error: cannot parse word '1,x': invalid literal for int() with base 10: 'x'"]),
        (_flat_table, ["orthonormalize", *TABLE, "--depth", "2"], 2,
         ["error: moment table stores words up to length 3; the degree-2 Gram matrix needs "
          "length 4"]),
        (None, ["verify", "--moments", "bad.json"], 2,
         ["error: [Errno 2] No such file or directory: 'bad.json'"]),
        (lambda: Path("bad.json").write_text("{"), ["verify", "--family", "bad.json"], 2,
         ["error: bad.json is not valid JSON: "]),
    ],
    ids=["Refused", "NotStrictlyPositiveError", "ResidualError", "UsageError", "SizeError",
         "OSError", "SchemaError"],
)
def test_each_refusal_class_has_one_stream_prefix_and_code(workdir, capsys, setup, argv,
                                                          code, lines):
    if setup is not None:
        setup()
    capsys.readouterr()
    assert run(argv) == code
    captured = capsys.readouterr()
    printed, silent = (captured.out, captured.err) if code == 1 else (captured.err, captured.out)
    assert silent == ""
    assert len(printed.splitlines()) == len(lines)
    for line, start in zip(printed.splitlines(), lines):
        assert line.startswith(start)
    assert not os.path.exists("x.json")


def _package_env():
    # workdir leaves the repo root, so a relative PYTHONPATH entry no longer
    # resolves; put the directory holding the imported package first instead
    package_root = str(Path(ncjacobi.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    return env


def test_console_entry_point(workdir):
    proc = subprocess.run(
        [sys.executable, "-m", "ncjacobi", "paths", "--word", "1,1,1", "--count-only"],
        capture_output=True,
        text=True,
        env=_package_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "4"


def test_import_leaves_scipy_out(workdir):
    # numpy is the only runtime dependency; scipy serves the tests alone
    code = "import ncjacobi, sys; assert 'scipy' not in sys.modules"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_package_env()
    )
    assert proc.returncode == 0, proc.stderr


# runs ncjacobi.cli with the test-only packages made unimportable
NO_TEST_DEPS = """
import sys

class NoTestDeps:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in ("scipy", "hypothesis", "pytest"):
            raise ModuleNotFoundError(f"{name} is blocked", name=name)

sys.meta_path.insert(0, NoTestDeps())
"""
RUN_CLI = "from ncjacobi.cli import main; raise SystemExit(main(sys.argv[1:]))"


def test_commands_run_without_the_test_dependencies(workdir):
    for name in ("scipy.linalg", "hypothesis", "pytest"):
        blocked = subprocess.run(
            [sys.executable, "-c", NO_TEST_DEPS + f"import {name}"],
            capture_output=True, text=True, env=_package_env(),
        )
        assert blocked.returncode == 1
        assert blocked.stderr.endswith(f"ModuleNotFoundError: {name.split('.')[0]} is blocked\n")
    pipeline = [
        ["freeproduct", "--spec", "hermite,hermite", "--depth", "3", "--out", "fam.json"],
        ["verify", "--family", "fam.json"],
        ["moments", "--family", "fam.json", "--max-degree", "3", "--out", "m.json"],
        ["jacobi", "--moments", "m.json", "--depth", "3", "--out", "rec.json"],
        ["orthonormalize", "--moments", "m.json", "--depth", "3", "--out", "basis.json"],
        ["verify", "--moments", "m.json"],
        ["paths", "--word", "1,2,2,1", "--family", "fam.json", "--out", "p.json"],
    ]
    for argv in pipeline:
        proc = subprocess.run(
            [sys.executable, "-c", NO_TEST_DEPS + RUN_CLI, *argv],
            capture_output=True, text=True, env=_package_env(),
        )
        assert proc.returncode == 0, (argv, proc.stdout, proc.stderr)
        assert proc.stderr == "" and proc.stdout.startswith("ok: ")
