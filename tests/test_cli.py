"""CLI: exit codes, output formats, round trips."""

from __future__ import annotations

import csv
import importlib
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10: no tomllib in the standard library
    tomllib = None

from hilbprod.cli import main
from hilbprod.decision import Verdict


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- decide ------------------------------------------------------------------------


def test_decide_k3_structured(capsys):
    code, out, _ = run(
        capsys,
        "decide", "--surface", "k3", "--a", "1,3", "--b", "2,2",
        "--output-format", "structured",
    )
    assert code == 0
    verdict = Verdict.from_dict(json.loads(out))
    assert verdict.outcome.value == "non_isomorphic"
    assert "k3-product-rigidity" in [r.rule_id for r in verdict.rules_fired]


def test_decide_same_n_different_lengths_is_valid(capsys):
    code, out, _ = run(capsys, "decide", "--surface", "k3", "--a", "1,3", "--b", "1,1,2")
    assert code == 0
    assert "non_isomorphic" in out


def test_decide_human_output_names_a_betti_witness_at_its_index(capsys):
    code, out, _ = run(capsys, "decide", "--surface", "abelian", "--a", "2,4", "--b", "3,3")
    assert code == 0
    assert "witness: betti at index 3: 176 vs 184" in out.splitlines()


def test_decide_human_output_names_an_euler_witness_without_an_index(capsys):
    # chi(S^[1]) chi(S^[3]) = 55 * 32340 against chi(S^[2])^2 = 1595^2
    code, out, _ = run(capsys, "decide", "--surface", "quintic", "--a", "1,3", "--b", "2,2")
    assert code == 0
    assert "witness: euler_characteristic: 1778700 vs 2544025" in out.splitlines()
    assert "at index" not in out


def test_decide_dimension_mismatch_exit_1(capsys):
    code, _, err = run(capsys, "decide", "--surface", "k3", "--a", "1,2", "--b", "2,2")
    assert code == 1
    assert "dimension" in err


def test_decide_kummer_mode(capsys):
    code, out, _ = run(
        capsys,
        "decide", "--surface", "abelian", "--a", "1,3", "--b", "2,2", "--kummer",
        "--output-format", "structured",
    )
    assert code == 0
    verdict = json.loads(out)
    assert verdict["rules_fired"][0]["rule_id"] == "kummer-product-rigidity"


def test_decide_kummer_needs_abelian(capsys):
    code, _, err = run(
        capsys, "decide", "--surface", "k3", "--a", "1,3", "--b", "2,2", "--kummer"
    )
    assert code == 2
    assert "abelian" in err


def test_partition_reorder_notice(capsys):
    code, _, err = run(capsys, "decide", "--surface", "k3", "--a", "3,1", "--b", "2,2")
    assert code == 0
    assert "canonicalized" in err


# -- catalog -----------------------------------------------------------------------


def test_catalog_listing(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    assert "k3" in out and "abelian" in out


def test_catalog_single_surface_with_params(capsys):
    code, out, _ = run(
        capsys,
        "catalog", "--surface", "ruled", "--params", "g=2",
        "--output-format", "structured",
    )
    assert code == 0
    record = json.loads(out)
    assert (record["b0"], record["b1"], record["b2"], record["chi"]) == (1, 4, 2, -4)


def test_catalog_miss_exit_2(capsys):
    code, _, err = run(capsys, "catalog", "--surface", "does-not-exist")
    assert code == 2
    assert "unknown surface" in err


def test_bad_params_exit_1(capsys):
    code, _, err = run(capsys, "catalog", "--surface", "ruled", "--params", "g:2")
    assert code == 1


@pytest.mark.parametrize("params", ["", " "])
@pytest.mark.parametrize("surface", ["k3", "ruled"])
def test_empty_params_exit_1(capsys, surface, params):
    # an empty list is refused as " " is, on a literal surface as on a family
    code, out, err = run(capsys, "catalog", "--surface", surface, "--params", params)
    assert (code, out) == (1, "")
    assert f"empty item in parameter list: {params!r}" in err


def test_repeated_param_exit_1(capsys):
    # the last value used to win silently: d = 9 for "d=3,d=9"
    code, out, err = run(
        capsys, "catalog", "--surface", "del_pezzo", "--params", "d=3,d=9"
    )
    assert code == 1 and out == ""
    assert err.startswith("error:") and "'d'" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("catalog", "--params", "d=3"),
        ("catalog", "--params", "d=3", "--output-format", "structured"),
        ("aut", "--partition", "1,1,2", "--params", "d=3"),
    ],
)
def test_params_without_surface_exit_1(capsys, argv):
    # both used to ignore the parameters: catalog listed every entry and
    # aut printed the shape, each with exit 0
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: --params needs --surface")


@pytest.mark.parametrize(
    "argv",
    [
        ("catalog", "--surface", ""),
        ("aut", "--partition", "2,2", "--surface", ""),
        ("invariants", "--surface", "", "--partition", "2,2"),
    ],
)
def test_empty_surface_is_an_unknown_surface(capsys, argv):
    # catalog listed every entry and aut printed the generic note, both with
    # exit 0, as if no surface had been named
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: unknown surface ''")


# -- invariants ----------------------------------------------------------------------


def test_invariants_abelian_euler_zero(capsys):
    code, out, _ = run(
        capsys,
        "invariants", "--surface", "abelian", "--partition", "1,2",
        "--show", "betti,euler", "--output-format", "structured",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["euler"] == 0
    assert payload["betti"][0] == 1 and payload["betti"][1] == 8
    assert len(payload["betti"]) == 4 * 3 + 1


def no_h20_catalog(tmp_path) -> str:
    """A catalog file whose one surface, the quintic's numbers, omits h20."""
    catalog = {
        "version": 1,
        "surfaces": [
            {
                "name": "quintic_no_h20",
                "family_params": [],
                "b0": 1, "b1": 0, "b2": 53, "chi": 55, "h10": 0,
                "structural_class": "generic",
                "provenance": "test: h20 left out",
            }
        ],
    }
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(catalog))
    return str(path)


def test_invariants_show_hodge(capsys):
    # A's h^(p,0) = (1, 2, 1) times A^[2]'s (1, 2, 2, 2, 1)
    base = ("invariants", "--surface", "abelian", "--partition", "1,2", "--show", "hodge")
    code, out, _ = run(capsys, *base)
    assert code == 0
    assert out.splitlines()[-1] == "h^(p,0) for p = 0..6: [1, 4, 7, 8, 7, 4, 1]"
    code, out, _ = run(capsys, *base, "--output-format", "structured")
    assert code == 0
    assert json.loads(out) == {
        "surface": "abelian", "partition": [1, 2], "hodge_p0": [1, 4, 7, 8, 7, 4, 1]
    }


def test_invariants_hodge_refusal_exit_2(tmp_path, capsys):
    code, _, err = run(
        capsys,
        "invariants", "--surface", "quintic_no_h20", "--partition", "1,2", "--show", "hodge",
        "--catalog", no_h20_catalog(tmp_path),
    )
    assert code == 2
    assert "Hodge" in err or "h10" in err


def test_invariants_unknown_show_item(capsys):
    code, _, err = run(
        capsys,
        "invariants", "--surface", "k3", "--partition", "2", "--show", "chern",
    )
    assert code == 1


def test_invariants_show_items_are_stripped(capsys):
    # spaces around an item were kept, so " euler" was an unknown invariant
    base = ("invariants", "--surface", "k3", "--partition", "2", "--show")
    assert run(capsys, *base, "betti, euler") == run(capsys, *base, "betti,euler")
    code, out, _ = run(capsys, *base, " betti , euler ")
    assert code == 0
    assert "betti: [" in out and "euler characteristic: " in out
    code, out, err = run(capsys, *base, "betti, chern")
    assert (code, out) == (1, "")
    assert "unknown invariant 'chern'" in err


@pytest.mark.parametrize("show", ["", "betti,", ",", " "])
def test_invariants_empty_show_exit_1(capsys, show):
    # an empty list is refused like an empty item, not read as the default
    code, out, err = run(
        capsys, "invariants", "--surface", "k3", "--partition", "2", "--show", show
    )
    assert (code, out) == (1, "")
    assert "unknown invariant" in err


# -- series ------------------------------------------------------------------------


def test_series_dump_format(capsys):
    code, out, _ = run(
        capsys, "series", "--surface", "k3", "--truncation", "2", "--kind", "poincare"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t^0 z^0 : 1"
    assert "t^2 z^2 : 23" in lines


def test_series_euler_kind(capsys):
    code, out, _ = run(
        capsys, "series", "--surface", "k3", "--truncation", "2", "--kind", "euler"
    )
    assert code == 0
    assert "t^2 : 324" in out.splitlines()


def test_series_hodge_kind_refusal(tmp_path, capsys):
    code, _, _ = run(
        capsys, "series", "--surface", "quintic_no_h20", "--truncation", "2",
        "--kind", "hodge-p0", "--catalog", no_h20_catalog(tmp_path),
    )
    assert code == 2


# -- scan --------------------------------------------------------------------------


def test_scan_structured_and_csv(tmp_path, capsys):
    csv_path = tmp_path / "out.csv"
    code, out, _ = run(
        capsys,
        "scan", "--kind", "majorization", "--n-max", "8", "--k-set", "3,4",
        "--csv", str(csv_path), "--output-format", "structured",
    )
    assert code == 0
    report = json.loads(out)
    assert report["scan_kind"] == "majorization"
    assert report["violations"] == []
    with open(csv_path, newline="") as handle:
        header = next(csv.reader(handle))
    assert header == ["scan_kind", "n", "a", "b", "k_or_p", "value_a", "value_b", "form"]


def test_scan_lemma_human(capsys):
    code, out, _ = run(
        capsys, "scan", "--kind", "lemma-same-length", "--n-max", "6", "--p-max", "2"
    )
    assert code == 0
    assert "violations: 0" in out


def test_scan_human_output_prints_each_side_as_a_partition(capsys):
    code, out, _ = run(capsys, "scan", "--kind", "conjecture", "--n-max", "7", "--k-set", "2")
    assert code == 0
    assert out.splitlines()[6:] == [
        "  collision: n=6 a=(2,4) b=(3,3) k_or_p=2 values 100 vs 100",
        "  collision: n=7 a=(1,2,4) b=(1,3,3) k_or_p=2 values 200 vs 200",
    ]


def test_scan_records_export(tmp_path, capsys):
    records_path = tmp_path / "report.jsonl"
    code, out, _ = run(
        capsys,
        "scan", "--kind", "conjecture", "--n-max", "8", "--k-set", "4",
        "--records", str(records_path),
        "--output-format", "structured",
    )
    assert code == 0
    header = json.loads(records_path.read_text().splitlines()[0])
    assert header["record"] == "header"
    assert header["pairs_checked"] == json.loads(out)["pairs_checked"]


def test_scan_human_output_caps_violation_listing(capsys):
    code, out, _ = run(
        capsys, "scan", "--kind", "lemma-diff-length", "--n-max", "12", "--p-max", "6"
    )
    assert code == 0
    assert "more violations" in out


def test_scan_builds_the_report_dict_only_for_structured_output(capsys, monkeypatch):
    from hilbprod.scanner import ScanReport

    built = []
    to_dict = ScanReport.to_dict
    monkeypatch.setattr(
        ScanReport, "to_dict", lambda self: built.append(self) or to_dict(self)
    )
    argv = ("scan", "--kind", "lemma-diff-length", "--n-max", "10", "--p-max", "6")
    code, human, _ = run(capsys, *argv)
    assert code == 0 and "more violations" in human and built == []
    code, structured, _ = run(capsys, *argv, "--output-format", "structured")
    assert code == 0 and len(built) == 1
    assert json.loads(structured)["violations"] == [v.to_dict() for v in built[0].violations]


def test_scan_bad_kind_exit_1(capsys):
    code, _, _ = run(capsys, "scan", "--kind", "everything", "--n-max", "6")
    assert code == 1


def test_scan_bad_k_set_exit_1(capsys):
    code, _, _ = run(
        capsys, "scan", "--kind", "majorization", "--n-max", "6", "--k-set", "2"
    )
    assert code == 1


@pytest.mark.parametrize(
    "partition, k_set, params",
    [("1,,3", "3,,5", "g=2,,"), ("1,3,", "3,5,", ",g=2"), ("1, ,3", "3, ,5", "g=2, ,")],
)
def test_empty_list_items_exit_1(capsys, partition, k_set, params):
    code, _, err = run(capsys, "decide", "--surface", "k3", "--a", partition, "--b", "2,2")
    assert code == 1
    assert f"empty item in partition literal: {partition!r}" in err
    code, _, err = run(
        capsys, "scan", "--kind", "majorization", "--n-max", "6", "--k-set", k_set
    )
    assert code == 1
    assert f"empty item in integer list: {k_set!r}" in err
    code, _, err = run(capsys, "catalog", "--surface", "ruled", "--params", params)
    assert code == 1
    assert f"empty item in parameter list: {params!r}" in err


# int() alone reads "1_0" as 10 and "\u0661" (ARABIC-INDIC DIGIT ONE) as 1
@pytest.mark.parametrize("literal", ["1_0", "\u0661", "\uff13", "0_4", "+-4", "4.0"], ids=ascii)
def test_integer_literals_take_ascii_digits_only(capsys, literal):
    code, out, err = run(capsys, "decide", "--surface", "k3", "--a", f"1,{literal}", "--b", "2,2")
    assert (code, out) == (1, "") and "invalid partition literal" in err
    code, out, err = run(
        capsys, "scan", "--kind", "conjecture", "--n-max", "6", "--k-set", f"4,{literal}"
    )
    assert (code, out) == (1, "") and "invalid integer list" in err
    code, out, err = run(capsys, "catalog", "--surface", "ruled", "--params", f"g={literal}")
    assert (code, out) == (1, "") and "is not an integer" in err
    for option in ("--n-max", "--p-max"):
        args = {"--n-max": "6", "--p-max": "2", option: literal}
        code, out, err = run(
            capsys, "scan", "--kind", "lemma-same-length", *itertools.chain(*args.items())
        )
        assert (code, out) == (1, "") and f"argument {option}: invalid" in err
    code, out, err = run(capsys, "series", "--surface", "k3", "--truncation", literal)
    assert (code, out) == (1, "") and "argument --truncation: invalid" in err


def test_integer_literals_keep_signs_and_surrounding_spaces(capsys):
    code, _, err = run(capsys, "decide", "--surface", "k3", "--a", " +1 , 3", "--b", "2,+2")
    assert code == 0 and "canonicalized" not in err
    code, out, _ = run(
        capsys, "scan", "--kind", "majorization", "--n-max", "+6", "--k-set", " +3 , 4"
    )
    assert code == 0 and "majorization" in out
    code, _, err = run(capsys, "catalog", "--surface", "ruled", "--params", " g = +2 ")
    assert code == 0
    code, _, err = run(capsys, "decide", "--surface", "k3", "--a=5,-1", "--b", "2,2")
    assert code == 1 and "must be positive" in err


def test_scan_refuses_the_removed_workers_flag(capsys):
    # scans run serially: the flag is gone, not ignored
    code, out, err = run(
        capsys, "scan", "--kind", "majorization", "--n-max", "6", "--k-set", "3",
        "--workers", "2",
    )
    assert (code, out) == (1, "")
    assert "unrecognized arguments: --workers 2" in err


# -- aut ---------------------------------------------------------------------------


def test_aut_rendering(capsys):
    code, out, _ = run(capsys, "aut", "--partition", "1,1,2,3,3,3")
    assert code == 0
    assert "Aut(S^[1])^2 ⋊ S_2" in out


def test_aut_generic_surface_note(capsys):
    code, out, _ = run(capsys, "aut", "--partition", "2,2", "--surface", "quintic")
    assert code == 0
    assert "formal shape" in out


def test_aut_k3_no_note(capsys):
    code, out, _ = run(capsys, "aut", "--partition", "2,2", "--surface", "k3")
    assert code == 0
    assert "formal shape" not in out


# -- plumbing ----------------------------------------------------------------------


def test_unknown_command_exit_1(capsys):
    assert main(["frobnicate"]) == 1


def test_output_file(tmp_path, capsys):
    out_path = tmp_path / "verdict.json"
    code, _, _ = run(
        capsys,
        "decide", "--surface", "k3", "--a", "1,3", "--b", "2,2",
        "--output-format", "structured", "--output", str(out_path),
    )
    assert code == 0
    verdict = Verdict.from_dict(json.loads(out_path.read_text()))
    assert verdict.outcome.value == "non_isomorphic"


def test_unwritable_output_paths_exit_1(tmp_path, capsys):
    missing = tmp_path / "no-such-dir"
    scan = ["scan", "--kind", "conjecture", "--n-max", "6", "--k-set", "1"]
    for flag in ("--output", "--csv", "--records"):
        path = missing / f"out{flag}"
        code, _, err = run(capsys, *scan, flag, str(path))
        assert code == 1, flag
        assert err.startswith("error:") and str(path) in err, (flag, err)
    assert not missing.exists()


def test_scan_checks_output_paths_before_scanning(tmp_path, capsys, monkeypatch):
    def no_scan(*args, **kwargs):
        pytest.fail("the scan ran although an output path cannot be written")

    monkeypatch.setattr("hilbprod.cli.verify_lemma_inequalities", no_scan)
    missing = tmp_path / "no-such-dir"
    scan = ["scan", "--kind", "lemma-diff-length", "--n-max", "18"]
    for flag in ("--csv", "--records", "--output"):
        code, _, err = run(capsys, *scan, flag, str(missing / "out"))
        assert code == 1, flag
        assert err.startswith("error:"), (flag, err)


def test_a_conjecture_scan_over_the_partition_limit_exits_1(capsys):
    start = time.perf_counter()
    code, out, err = run(
        capsys, "scan", "--kind", "conjecture", "--n-max", "100000", "--k-set", "4"
    )
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "5,392,783" in err and "5,000,000" in err


@pytest.mark.parametrize(
    "argv, estimate, limit",
    [
        (
            ["--kind", "majorization", "--n-max", "100000", "--k-set", "3"],
            "4,507,503",
            "4,504,501",
        ),
        (["--kind", "lemma-diff-length", "--n-max", "22"], "13,138,830", "10,000,000"),
        (
            ["--kind", "lemma-same-length", "--n-max", "4", "--p-max", "300000"],
            "3 (p_max + 1) p(3) = 2,700,009",
            "2,000,000 (p_max = 300000 is too large",
        ),
        (
            ["--kind", "lemma-diff-length", "--n-max", "4", "--p-max", "1000000"],
            "3 p_max pairs(3) = 12,000,000",
            "10,000,000 (p_max = 1000000 is too large",
        ),
    ],
)
def test_a_scan_over_its_budget_exits_1(capsys, argv, estimate, limit):
    start = time.perf_counter()
    code, out, err = run(capsys, "scan", *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert estimate in err and limit in err


def test_scan_output_paths_keep_existing_files(tmp_path, capsys):
    paths = {flag: tmp_path / f"out{flag}" for flag in ("--csv", "--records", "--output")}
    argv = ["scan", "--kind", "conjecture", "--n-max", "6", "--k-set", "1"]
    for flag, path in paths.items():
        path.write_text("stale\n")
        argv += [flag, str(path)]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out == ""
    for path in paths.values():  # each file is rewritten whole after the scan
        assert "stale" not in path.read_text()
    assert paths["--csv"].read_text().startswith("scan_kind,")


REFUSED_SCANS = {
    "majorization-k2": (["--kind", "majorization", "--n-max", "5", "--k-set", "2"], "k >= 3"),
    "lemma-n3": (["--kind", "lemma-diff-length", "--n-max", "3"], "n_max must be >= 4"),
}


@pytest.mark.parametrize("refused", sorted(REFUSED_SCANS))
@pytest.mark.parametrize("flag", ["--csv", "--records", "--output"])
def test_a_refused_scan_leaves_no_output_file(tmp_path, capsys, refused, flag):
    argv, message = REFUSED_SCANS[refused]
    path = tmp_path / "out"
    code, _, err = run(capsys, "scan", *argv, flag, str(path))
    assert code == 1 and message in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("refused", sorted(REFUSED_SCANS))
def test_a_refused_scan_keeps_existing_output_files(tmp_path, capsys, refused):
    # the files that existed keep their bytes; the one the probe made is gone
    argv, message = REFUSED_SCANS[refused]
    kept = {flag: tmp_path / f"out{flag}" for flag in ("--csv", "--records")}
    for path in kept.values():
        path.write_text("stale\n")
    made = tmp_path / "out--output"
    code, _, err = run(
        capsys, "scan", *argv, "--csv", str(kept["--csv"]),
        "--records", str(kept["--records"]), "--output", str(made),
    )
    assert code == 1 and message in err
    assert not made.exists()
    assert [path.read_text() for path in kept.values()] == ["stale\n", "stale\n"]


FOREIGN_OPTIONS = {
    "lemma-k-set": (["--kind", "lemma-diff-length", "--n-max", "5", "--k-set", "zz"], "--k-set"),
    "majorization-p-max": (["--kind", "majorization", "--n-max", "5", "--p-max", "-3"], "--p-max"),
}


@pytest.mark.parametrize("foreign", sorted(FOREIGN_OPTIONS))
def test_a_scan_refuses_an_option_of_the_other_kinds(tmp_path, capsys, foreign):
    # a lemma scan reads no --k-set and a colour scan no --p-max: either is
    # refused before the scan runs, and the --output file the probe made is gone
    argv, flag = FOREIGN_OPTIONS[foreign]
    made = tmp_path / "out"
    code, out, err = run(capsys, "scan", *argv, "--output", str(made))
    assert code == 1 and out == ""
    assert err.startswith(f"error: {flag} is for the") and argv[1] in err, err
    assert not made.exists()


@pytest.mark.parametrize(
    "flags",
    [("--csv", "--records"), ("--output", "--csv"), ("--records", "--output")],
    ids="-".join,
)
@pytest.mark.parametrize("spelling", ["out", "./out"])
def test_two_exports_to_one_file_are_refused(tmp_path, capsys, monkeypatch, flags, spelling):
    # the later export would silently replace the earlier one; ./out and out
    # are one file, and the file the probe made is gone again
    monkeypatch.chdir(tmp_path)
    first, second = flags
    scan = ["scan", "--kind", "conjecture", "--n-max", "6", "--k-set", "1"]
    code, out, err = run(capsys, *scan, first, "out", second, spelling)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "name the same file" in err, err
    assert list(tmp_path.iterdir()) == []


def test_two_exports_to_one_existing_file_keep_its_bytes(tmp_path, capsys):
    path = tmp_path / "out"
    path.write_text("stale\n")
    scan = ["scan", "--kind", "conjecture", "--n-max", "6", "--k-set", "1"]
    code, _, err = run(capsys, *scan, "--csv", str(path), "--records", str(tmp_path / "." / "out"))
    assert code == 1 and "name the same file" in err
    assert path.read_text() == "stale\n"


def test_exports_to_one_device_are_not_refused(capsys):
    # a device is no file that one export could overwrite for another
    scan = ["scan", "--kind", "conjecture", "--n-max", "6", "--k-set", "1"]
    code, _, err = run(
        capsys, *scan, "--csv", os.devnull, "--records", os.devnull, "--output", os.devnull
    )
    assert code == 0, err


def test_installed_console_script():
    """The ``hilbprod`` console script and ``python -m hilbprod`` share one entry
    point; the subprocess runs the latter so that no install is needed."""
    import hilbprod
    import hilbprod.__main__

    if tomllib is not None:
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        with open(pyproject, "rb") as handle:
            scripts = tomllib.load(handle)["project"]["scripts"]
        assert scripts["hilbprod"] == "hilbprod.cli:main"
        module_name, _, attr = scripts["hilbprod"].partition(":")
        target = getattr(importlib.import_module(module_name), attr)
        assert target is hilbprod.__main__.main

    # the directory holding the imported package, so the child imports the same code
    source_root = str(Path(hilbprod.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [source_root, os.environ.get("PYTHONPATH")])
    )
    command = [sys.executable, "-m", "hilbprod"]
    done = subprocess.run(
        command + ["decide", "--surface", "k3", "--a", "1,3", "--b", "2,2",
                   "--output-format", "structured"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["outcome"] == "non_isomorphic"
    version = subprocess.run(
        command + ["--version"], capture_output=True, text=True, env=env
    )
    assert version.returncode == 0, version.stderr
    assert version.stdout.strip() == hilbprod.__version__


def test_broken_pipe_exits_quietly():
    """A reader that closes the pipe early (as ``| head -1`` does) gets no
    traceback.  Structured output (about 850 kB) overflows the pipe buffer,
    so the child is still writing when the pipe closes."""
    import hilbprod

    source_root = str(Path(hilbprod.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [source_root, os.environ.get("PYTHONPATH")])
    )
    child = subprocess.Popen(
        [sys.executable, "-m", "hilbprod", "scan", "--kind", "lemma-diff-length",
         "--n-max", "12", "--output-format", "structured"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert child.stdout.readline().strip() == b"{"
    child.stdout.close()
    stderr = child.stderr.read().decode()
    child.stderr.close()
    code = child.wait(timeout=120)
    assert "Traceback" not in stderr, stderr
    assert code == 1


@pytest.mark.parametrize(
    "text",
    [
        '{"version": 1, "surfaces": [',
        '{"version": 1, "surfaces": [1]}',
        '{"version": 1, "surfaces": [{"name": "s", "family_params": [],'
        ' "b0": "1", "b1": 0, "b2": 22, "chi": 24}]}',
        '{"version": 1, "surfaces": [{"name": "s", "family_params": [],'
        ' "b0": 1, "b1": 0, "b2": 22, "chi": 25}]}',
        # refused when the catalog loads, not first when the row is looked up
        '{"version": 1, "surfaces": [{"name": "del_pezzo", "family_params": ["q"]}]}',
        '{"version": 1, "surfaces": [{"name": "s", "family_params": ["d"]}]}',
        # a name that is not a string: a list is unhashable, and a number on a
        # complete literal row would load
        '{"version": 1, "surfaces": [{"name": ["x"], "family_params": []}]}',
        '{"version": 1, "surfaces": [{"name": 7, "family_params": [],'
        ' "b0": 1, "b1": 0, "b2": 22, "chi": 24}]}',
    ],
    ids=[
        "truncated-json", "record-not-an-object", "non-integer-invariant", "chi-mismatch",
        "family-wrong-parameters", "family-unregistered", "name-a-list", "name-a-number",
    ],
)
def test_malformed_catalog_exit_2(tmp_path, capsys, monkeypatch, text):
    # a traceback would be an exception escaping main(), which fails the test
    path = tmp_path / "catalog.json"
    path.write_text(text)
    code, _, err = run(capsys, "catalog", "--catalog", str(path))
    assert code == 2 and err.startswith("error:") and err.count("\n") == 1, err
    monkeypatch.setenv("HILBPROD_CATALOG", str(path))
    code, _, err = run(capsys, "decide", "--surface", "s", "--a", "1,1", "--b", "2")
    assert code == 2 and err.startswith("error:") and err.count("\n") == 1, err


def test_catalog_directory_exit_2(tmp_path, capsys, monkeypatch):
    code, _, err = run(capsys, "catalog", "--catalog", str(tmp_path))
    assert code == 2 and err.startswith("error:"), err
    monkeypatch.setenv("HILBPROD_CATALOG", str(tmp_path))
    code, _, err = run(capsys, "decide", "--surface", "k3", "--a", "1,1", "--b", "2")
    assert code == 2 and err.startswith("error:"), err


def test_custom_catalog_flag(tmp_path, capsys):
    catalog = {
        "version": 1,
        "surfaces": [
            {
                "name": "mystery",
                "family_params": [],
                "b0": 1, "b1": 0, "b2": 4, "chi": 6,
                "structural_class": "generic",
                "provenance": "test",
            }
        ],
    }
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(catalog))
    code, out, _ = run(
        capsys,
        "invariants", "--surface", "mystery", "--partition", "1",
        "--catalog", str(path), "--output-format", "structured",
    )
    assert code == 0
    assert json.loads(out)["euler"] == 6
