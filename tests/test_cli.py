import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from matrix_reference import signed_regular

from exspec import core
from exspec.cli import _load_matrix, main
from exspec.core import SquareMatrix, matrix_to_csv, matrix_to_json
from exspec.ensembles import EnsembleSpec, sample


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_writes_samples_and_manifest(tmp_path, capsys):
    out = tmp_path / "gen"
    code, stdout, _ = run_cli(
        ["gen", "--ensemble", "perm_sum_regular", "--n", "10", "--d", "3",
         "--count", "2", "--seed", "5", "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert (out / "sample_0000.csv").exists()
    assert (out / "sample_0001.csv").exists()
    assert (out / "manifest.json").exists()
    prov = json.loads((out / "sample_0000.provenance.json").read_text())
    assert prov["seed"] == 5 and prov["index"] == 0
    manifest = json.loads(stdout)
    assert manifest["n"] == 10 and manifest["d"] == 3


def test_gen_rerun_is_byte_identical(tmp_path, capsys):
    args = ["gen", "--n", "8", "--d", "2", "--count", "3", "--seed", "9",
            "--format", "json"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(args + ["--out", str(a)], capsys)[0] == 0
    assert run_cli(args + ["--out", str(b)], capsys)[0] == 0
    for name in ("sample_0000.json", "sample_0002.json", "sample_0001.provenance.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_gen_invalid_d_exits_2(tmp_path, capsys):
    cases = {
        "d": (["--n", "4", "--d", "9"],
              "error: regular ensembles need 1 <= d < n, got d=9, n=4\n"),
        "no-count": (["--d", "2", "--count", "0"], "error: count must be >= 1\n"),
        "negative-count": (["--d", "2", "--count", "-2"], "error: count must be >= 1\n"),
    }
    for name, (args, message) in cases.items():
        out = tmp_path / name
        code, _, err = run_cli(["gen", *args, "--out", str(out)], capsys)
        assert code == 2
        assert err == message
        assert not out.exists()


def test_analyze_identity_permutation_matrix(tmp_path, capsys):
    n = 4
    M = SquareMatrix(np.eye(n))
    f = tmp_path / "m.json"
    f.write_text(matrix_to_json(M))
    code, stdout, _ = run_cli(["analyze", str(f), "--d", "1"], capsys)
    assert code == 0
    rep = json.loads(stdout)
    assert rep["s1"] == pytest.approx(1.0)
    assert rep["s2"] == pytest.approx(1.0)
    assert rep["u"] == [1.0] * n
    assert rep["deg_membership"]["member"] is True
    assert rep["s2_via_centering"] == pytest.approx(1.0)
    assert "tol" not in rep
    assert rep["scaling"]["hypotheses_ok"] is True


def test_analyze_reports_s2_via_centering_of_a_signed_matrix_as_an_error(tmp_path, capsys):
    # Every absolute row and column sum is 3, so the margin checks pass, but
    # the centering identity holds only for a nonnegative matrix.
    A = signed_regular(10, np.random.default_rng(1))
    f = tmp_path / "signed3.csv"
    f.write_text(matrix_to_csv(SquareMatrix(A)))
    code, stdout, err = run_cli(["analyze", str(f), "--d", "3"], capsys)
    assert code == 0, err
    rep = json.loads(stdout)
    assert "s2_via_centering" not in rep
    assert rep["s2_via_centering_error"] == "matrix must be entrywise nonnegative"
    assert rep["s2"] == pytest.approx(2.641566654658992, rel=1e-12)


def test_analyze_reports_a_bound_beyond_float64_as_scaling_error(tmp_path, capsys):
    f = tmp_path / "i2.csv"
    f.write_text(matrix_to_csv(SquareMatrix(np.eye(2))))
    code, stdout, _ = run_cli(["analyze", str(f), "--d", "1", "--delta", "1e308"], capsys)
    assert code == 0
    rep = json.loads(stdout, parse_constant=lambda name: pytest.fail(f"{name} in the report"))
    assert "scaling" not in rep
    assert "overflows" in rep["scaling_error"]


def test_analyze_reports_the_scaling_of_entries_near_1e160(tmp_path, capsys):
    # Every reported quantity is finite; only v u^t (about 1e321) would not
    # be, and the reduction does not form it.
    f = tmp_path / "big.csv"
    f.write_text(matrix_to_csv(SquareMatrix(1e160 * (np.ones((4, 4)) - np.eye(4)))))
    code, stdout, err = run_cli(["analyze", str(f), "--d", "3e160", "--delta", "1e159"], capsys)
    assert code == 0, err
    rep = json.loads(stdout, parse_constant=lambda name: pytest.fail(f"{name} in the report"))
    assert "scaling_error" not in rep
    scaling = rep["scaling"]
    assert scaling["hypotheses_ok"] is True
    assert scaling["s2"] == pytest.approx(1e160) and scaling["lhs"] == pytest.approx(1e160)
    assert scaling["beta"] <= 1e-12 * 3e160  # rounding of an exact 0
    assert scaling["bound"] == pytest.approx(2e160 + 6e159)


def test_analyze_degree_thresholds_beyond_float64_read_as_infinite(tmp_path, capsys):
    # At n = 3 the test reaches k = 2, whose threshold 2 * delta overflows;
    # no finite deviation exceeds it, so every profile is a member.
    f = tmp_path / "i3.csv"
    f.write_text(matrix_to_csv(SquareMatrix(np.eye(3))))
    code, stdout, err = run_cli(["analyze", str(f), "--d", "1", "--delta", "1e308"], capsys)
    assert code == 0, err
    rep = json.loads(stdout, parse_constant=lambda name: pytest.fail(f"{name} in the report"))
    assert rep["deg_membership"]["member"] is True and rep["deg_membership"]["k_max"] == 2
    assert "overflows" in rep["scaling_error"]


def test_analyze_delta_without_d_is_usage_error(tmp_path, capsys):
    f = tmp_path / "m.csv"
    f.write_text(matrix_to_csv(SquareMatrix(np.eye(3))))
    out = tmp_path / "report.json"
    code, stdout, err = run_cli(["analyze", str(f), "--delta", "0.5", "--out", str(out)], capsys)
    assert code == 2
    assert err == "error: analyze --delta requires --d\n"
    assert stdout == "" and not out.exists()


def test_analyze_rejects_seed(tmp_path, capsys):
    # analyze draws nothing, so a seed would be echoed into the manifest and
    # have no effect; the default passes, by flag or by the echoed manifest.
    f = tmp_path / "m.csv"
    f.write_text(matrix_to_csv(SquareMatrix(np.eye(3))))
    mf = tmp_path / "manifest.json"
    mf.write_text(json.dumps({"seed": 5}))
    for extra in (["--seed", "5"], ["--manifest", str(mf)]):
        out = tmp_path / "report.json"
        code, stdout, err = run_cli(["analyze", str(f), *extra, "--out", str(out)], capsys)
        assert (code, stdout, err) == (2, "", "error: analyze takes no --seed\n")
        assert not out.exists()
    code, first, _ = run_cli(["analyze", str(f)], capsys)
    mf.write_text(json.dumps(json.loads(first)["manifest"]))
    assert run_cli(["analyze", str(f), "--seed", "0"], capsys)[:2] == (0, first)
    assert run_cli(["analyze", str(f), "--manifest", str(mf)], capsys)[:2] == (0, first)


def test_analyze_reads_csv_and_writes_out(tmp_path, capsys):
    M = SquareMatrix(np.array([[0.0, 2.0], [2.0, 0.0]]))
    f = tmp_path / "m.csv"
    f.write_text(matrix_to_csv(M))
    out = tmp_path / "report.json"
    code, _, _ = run_cli(["analyze", str(f), "--out", str(out)], capsys)
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["s1"] == pytest.approx(2.0)


def test_analyze_takes_one_svd_of_the_matrix_and_one_of_its_centering(tmp_path, capsys,
                                                                       monkeypatch):
    # The scaling report's s2 and lhs are the report's s2 and s2_via_centering,
    # the same bits as scaling_reduction takes by its own SVDs.
    from exspec.scaling import scaling_reduction

    n = 12
    A = sample(EnsembleSpec("perm_sum_regular", n, 3, seed=5), 0)
    f = tmp_path / "m.csv"
    f.write_text(matrix_to_csv(A))
    shapes = []
    real = np.linalg.svd

    def svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)
    code, stdout, _ = run_cli(["analyze", str(f), "--d", "3", "--delta", "1.0"], capsys)
    assert code == 0 and shapes.count((n, n)) == 2
    monkeypatch.setattr(np.linalg, "svd", real)
    alone = scaling_reduction(A, 3.0, 1.0)
    assert json.loads(stdout)["scaling"] == json.loads(json.dumps(vars(alone)))


def _pipe_outcome(data: bytes, capsys):
    """`exspec analyze` of ``data`` through a pipe, as `exspec analyze <(...)`
    hands it a file that cannot seek."""
    r, w = os.pipe()
    try:
        os.write(w, data)
        os.close(w)
        return run_cli(["analyze", f"/dev/fd/{r}"], capsys)
    finally:
        os.close(r)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_analyze_reads_a_csv_pipe_once(capsys):
    code, stdout, err = _pipe_outcome(b"0,1_0\n1,0\n", capsys)
    rep = json.loads(stdout)
    assert (code, err, rep["u"], rep["v"]) == (0, "", [1.0, 10.0], [10.0, 1.0])
    ragged = "error: parse error at line 2: expected 2 values, got 3\n"
    assert _pipe_outcome(b"1,2\n3,4,5\n", capsys) == (2, "", ragged)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_a_pipe_names_an_undecodable_byte_by_its_place_in_the_file(tmp_path, capsys):
    # The line parser decodes a pipe as it streams it, and counts the bytes
    # so far, so a bad byte is named where the whole file's text names it.
    f = tmp_path / "m.csv"
    for data in (b"0,1\n1,0\n\xe9", b"0,1\n1,\xe9\xe9\n", b"0,1\n1,\xf0\x9f\x98\n"):
        f.write_bytes(data)
        outcome = run_cli(["analyze", str(f)], capsys)
        assert outcome[0] == 2 and "can't decode" in outcome[2], outcome
        assert _pipe_outcome(data, capsys) == outcome


def test_a_long_csv_line_is_not_taken_for_a_square(tmp_path, capsys):
    # The line parser grows its array with the rows it reads: one line of
    # 10**5 fields must not ask for the 80 GB of a square of that width.
    f = tmp_path / "wide.csv"
    f.write_text(",".join(["1.5"] * 10**5) + "\n")
    tracemalloc.start()
    try:
        result = run_cli(["analyze", str(f)], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    message = "error: expected a square matrix with n >= 1, got shape (1, 100000)\n"
    assert result == (2, "", message)
    assert peak <= 32 << 20, peak / 2**20


def test_verify_subset_suite_passes(capsys):
    code, stdout, _ = run_cli(["verify", "subset", "--seed", "3"], capsys)
    assert code == 0
    rep = json.loads(stdout)
    assert rep["passed"] is True
    assert all(r["passed"] for r in rep["records"])


def test_verify_all_suites_pass(capsys):
    code, stdout, _ = run_cli(["verify", "all"], capsys)
    assert code == 0
    assert json.loads(stdout)["passed"] is True


def test_verify_records_a_violated_scaling_comparison(tmp_path, capsys, monkeypatch):
    from exspec import scaling

    real = scaling.scaling_reduction
    calls = []

    def violated_once(A, d, delta):
        calls.append(1)
        if len(calls) == 3:
            raise RuntimeError("scaling comparison violated: lhs=2.0 > bound=1.0")
        return real(A, d, delta)

    monkeypatch.setattr(scaling, "scaling_reduction", violated_once)
    out = tmp_path / "verify.json"
    code, stdout, err = run_cli(["verify", "scaling", "--out", str(out)], capsys)
    assert (code, stdout, err) == (1, "", "")
    rep = json.loads(out.read_text())
    assert rep["passed"] is False
    assert {r["name"]: r["passed"] for r in rep["records"]} == {
        "scaling_conclusion_and_beta": False, "unit_margin_singular_facts": True,
        "triangle_chain_termwise": True, "beta_decomposition": True}
    assert len(calls) == 40


def test_tail_norm_writes_curve_files(tmp_path, capsys):
    out = tmp_path / "tail"
    code, stdout, _ = run_cli(
        ["tail", "norm", "--ensemble", "perm_sum_regular", "--n", "16",
         "--d", "2", "--zero-diagonal", "--trials", "120", "--seed", "4",
         "--c", "0.05", "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert json.loads(stdout)["all_hold"] is True
    payload = json.loads((out / "curve.json").read_text())
    assert payload["manifest"]["trials"] == 120
    csv_lines = (out / "curve.csv").read_text().strip().split("\n")
    assert csv_lines[0] == "tau,p_left,ci_left,p_right,ci_right"
    assert len(csv_lines) == len(payload["thresholds"]) + 1


def test_tail_rerun_byte_identical(tmp_path, capsys):
    args = ["tail", "s2", "--n", "16", "--d", "3", "--delta", "2.0",
            "--trials", "80", "--seed", "11", "--grid", "0.5,1,2"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(args + ["--out", str(a)], capsys)[0] == 0
    assert run_cli(args + ["--out", str(b)], capsys)[0] == 0
    assert (a / "curve.csv").read_bytes() == (b / "curve.csv").read_bytes()
    assert (a / "curve.json").read_bytes() == (b / "curve.json").read_bytes()


def test_tail_corner_capture(tmp_path, capsys):
    E = np.ones((8, 8)) - np.eye(8)
    f = tmp_path / "m.json"
    f.write_text(matrix_to_json(SquareMatrix(E, zero_diagonal=True)))
    out = tmp_path / "cc"
    code, stdout, _ = run_cli(
        ["tail", "corner-capture", "--matrix", str(f), "--trials", "150",
         "--seed", "2", "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert json.loads(stdout)["best_c"] > 0.0
    assert (out / "curve.csv").read_text().startswith("c,p_hat,ci")


def test_tail_usage_error_creates_no_out_dir(tmp_path, capsys):
    small = tmp_path / "m4.csv"
    small.write_text(matrix_to_csv(SquareMatrix(np.ones((4, 4)) - np.eye(4))))
    cases = {
        "small": (["tail", "corner-capture", "--matrix", str(small)],
                  "error: the corner-capture statement assumes n >= 8\n"),
        "corner-capture": (["tail", "corner-capture", "--trials", "2"],
                           "error: corner-capture requires --matrix\n"),
        "no-base": (["tail", "norm", "--ensemble", "permuted_base", "--n", "8"],
                    "error: permuted_base requires a base matrix\n"),
        "degree-event-grid": (["tail", "degree-event", "--n", "20", "--d", "3",
                               "--delta", "3.0", "--grid", "1,2"],
                              "error: tail degree-event takes no --grid\n"),
        "corner-capture-grid": (["tail", "corner-capture", "--matrix", str(small),
                                 "--grid", "0.1"],
                                "error: tail corner-capture takes no --grid\n"),
        "no-trials": (["tail", "s2", "--n", "8", "--d", "2", "--delta", "1", "--trials", "0"],
                      "error: trials must be >= 1\n"),
        "negative-trials": (["tail", "corner-capture", "--matrix", str(tmp_path / "m8.csv"),
                             "--trials", "-3"], "error: trials must be >= 1\n"),
        "empty-grid": (["tail", "norm", "--n", "8", "--d", "2", "--zero-diagonal",
                        "--grid", ""],
                       "error: --grid must be one or more finite numbers, got ''\n"),
        "commas-grid": (["tail", "blocks", "--n", "8", "--d", "2", "--grid", ","],
                        "error: --grid must be one or more finite numbers, got ','\n"),
        "empty-s2-grid": (["tail", "s2", "--n", "8", "--d", "2", "--delta", "1", "--grid", " "],
                          "error: --grid must be one or more finite numbers, got ' '\n"),
        "nonfinite-grid": (["tail", "norm", "--n", "8", "--d", "2", "--zero-diagonal",
                            "--grid", "nan,inf"],
                           "error: --grid must be one or more finite numbers, got 'nan,inf'\n"),
        # L delta = 1e309 is beyond float64.
        "s2-threshold-overflow": (["tail", "s2", "--n", "8", "--d", "2", "--delta", "1e308",
                                   "--grid", "10", "--trials", "3"],
                                  "error: overflow encountered in multiply\n"),
    }
    (tmp_path / "m8.csv").write_text(matrix_to_csv(SquareMatrix(np.ones((8, 8)) - np.eye(8))))
    for name, (args, message) in cases.items():
        out = tmp_path / name
        code, _, err = run_cli(args + ["--out", str(out)], capsys)
        assert code == 2
        assert err == message
        assert not out.exists()


def test_tail_norm_rejects_samples_with_a_fixed_point(tmp_path, capsys):
    # Without --zero-diagonal a sum of permutation matrices may put entries
    # on the diagonal; sample 0 at this seed does.
    spec = EnsembleSpec("perm_sum_regular", 16, 3, seed=1)
    assert np.trace(sample(spec, 0).entries) > 0
    out = tmp_path / "norm"
    code, stdout, err = run_cli(
        ["tail", "norm", "--ensemble", "perm_sum_regular", "--n", "16", "--d", "3",
         "--trials", "50", "--seed", "1", "--out", str(out)],
        capsys,
    )
    assert (code, stdout) == (2, "")
    assert err == "error: the tail comparison assumes zero-diagonal samples\n"
    assert not out.exists()


def test_tail_norm_zero_diagonal_guard_is_on_the_spec(tmp_path, capsys):
    # A perm_sum_regular sample with d = 1 may or may not have a fixed point
    # (at seeds 0 and 3 the first one has none); the ensemble is rejected at
    # every seed, before any sample is drawn.
    message = "error: the tail comparison assumes zero-diagonal samples\n"
    for seed in range(8):
        out = tmp_path / f"d1-{seed}"
        code, stdout, err = run_cli(
            ["tail", "norm", "--ensemble", "perm_sum_regular", "--n", "64", "--d", "1",
             "--trials", "1", "--seed", str(seed), "--out", str(out)],
            capsys,
        )
        assert (code, stdout, err) == (2, "", message), seed
        assert not out.exists()
    # Separately exchangeable samples have zero diagonal only for a zero base.
    for entries, expected in ((np.eye(8, k=1), 2), (np.zeros((8, 8)), 0)):
        f = tmp_path / "base.csv"
        f.write_text(matrix_to_csv(SquareMatrix(entries)))
        out = tmp_path / f"sep{expected}"
        code, _, err = run_cli(
            ["tail", "norm", "--ensemble", "separately_exchangeable", "--n", "8",
             "--base", str(f), "--trials", "20", "--out", str(out)],
            capsys,
        )
        assert code == expected
        assert err == ("" if expected == 0 else message)


def _assert_rejects(args, flag, value, tmp_path, capsys):
    """``tail`` with ``args`` runs, and exits 2 with ``flag`` set to a
    non-default ``value`` by the flag or by a manifest key."""
    comparison = args[0]
    assert run_cli(["tail", *args, "--out", str(tmp_path / "ok")], capsys)[0] == 0
    dest = flag.replace("-", "_")
    mf = tmp_path / "manifest.json"
    mf.write_text(json.dumps({dest: value}))
    given = [f"--{flag}"] if value is True else [f"--{flag}", str(value)]
    for i, extra in enumerate((given, ["--manifest", str(mf)])):
        out = tmp_path / f"{dest}{i}"
        code, stdout, err = run_cli(["tail", *args, *extra, "--out", str(out)], capsys)
        assert (code, stdout, err) == (2, "", f"error: tail {comparison} takes no --{flag}\n")
        assert not out.exists()


BLOCKS = ["blocks", "--n", "8", "--d", "2", "--trials", "20"]
DEGREE_EVENT = ["degree-event", "--n", "20", "--d", "3", "--delta", "3.0", "--zero-diagonal",
                "--trials", "20"]


def _m8(tmp_path):
    f = tmp_path / "m8.csv"
    f.write_text(matrix_to_csv(SquareMatrix(np.ones((8, 8)) - np.eye(8))))
    return f


def test_tail_blocks_rejects_c(tmp_path, capsys):
    _assert_rejects(BLOCKS, "c", 0.5, tmp_path, capsys)


def test_tail_degree_event_rejects_c(tmp_path, capsys):
    _assert_rejects(DEGREE_EVENT, "c", 0.5, tmp_path, capsys)


def test_tail_corner_capture_rejects_c(tmp_path, capsys):
    _assert_rejects(["corner-capture", "--matrix", str(_m8(tmp_path)), "--trials", "20"],
                    "c", 0.5, tmp_path, capsys)


def test_tail_corner_capture_rejects_the_ensemble_flags(tmp_path, capsys):
    args = ["corner-capture", "--matrix", str(_m8(tmp_path)), "--trials", "20"]
    for flag, value in (("ensemble", "permuted_base"), ("n", 8), ("d", 2),
                        ("zero-diagonal", True), ("base", str(_m8(tmp_path))),
                        ("delta", 1.0)):
        _assert_rejects(args, flag, value, tmp_path, capsys)
    # The defaults pass, by flag or by the echoed manifest, with the same bytes.
    first = tmp_path / "ok"
    defaults = ["--ensemble", "perm_sum_regular", "--n", "16", "--d", "0"]
    again = tmp_path / "defaults"
    assert run_cli(["tail", *args, *defaults, "--out", str(again)], capsys)[0] == 0
    assert (again / "curve.json").read_bytes() == (first / "curve.json").read_bytes()
    mf = tmp_path / "echoed.json"
    mf.write_text(json.dumps(json.loads((first / "curve.json").read_text())["manifest"]))
    rerun = tmp_path / "rerun"
    assert run_cli(["tail", "corner-capture", "--manifest", str(mf), "--out", str(rerun)],
                   capsys)[0] == 0
    assert (rerun / "curve.json").read_bytes() == (first / "curve.json").read_bytes()


def test_tail_blocks_rejects_delta(tmp_path, capsys):
    _assert_rejects(BLOCKS, "delta", 1.0, tmp_path, capsys)


def test_tail_comparisons_other_than_corner_capture_reject_matrix(tmp_path, capsys):
    norm = ["norm", "--n", "8", "--d", "2", "--zero-diagonal", "--trials", "20"]
    s2 = ["s2", "--n", "8", "--d", "2", "--delta", "2.0", "--trials", "20"]
    matrix = str(_m8(tmp_path))
    for args in (norm, s2, BLOCKS, DEGREE_EVENT):
        (tmp_path / args[0]).mkdir()
        _assert_rejects(args, "matrix", matrix, tmp_path / args[0], capsys)


def test_tail_degree_event(tmp_path, capsys):
    out = tmp_path / "de"
    code, stdout, _ = run_cli(
        ["tail", "degree-event", "--n", "20", "--d", "3", "--delta", "3.0",
         "--zero-diagonal", "--trials", "100", "--out", str(out)],
        capsys,
    )
    assert code == 0
    res = json.loads(stdout)
    assert 0.0 <= res["p_E"] <= 1.0
    assert (out / "curve.json").exists()


def test_tail_norm_s2_and_degree_event_share_one_corner_event(tmp_path, capsys):
    # n = 17: the 8 x 8 corner is tested at its own scale m = 8; at the
    # parent's scale 17 the event held on almost every sample.
    spec = ["--ensemble", "perm_sum_regular", "--n", "17", "--d", "3", "--zero-diagonal",
            "--delta", "1.0", "--trials", "400", "--seed", "87"]
    meta = {}
    for comparison in ("norm", "s2", "degree-event"):
        out = tmp_path / comparison
        code, _, _ = run_cli(["tail", comparison, *spec, "--out", str(out)], capsys)
        assert code in (0, 1)
        meta[comparison] = json.loads((out / "curve.json").read_text())
    fraction = meta["norm"]["meta"]["event_fraction"]
    assert fraction == meta["s2"]["meta"]["member_fraction"] == meta["degree-event"]["p_E"]
    assert 0.0 < fraction < 1.0


def test_tail_blocks(tmp_path, capsys):
    base_entries = np.arange(64, dtype=float).reshape(8, 8)
    f = tmp_path / "base.json"
    f.write_text(matrix_to_json(SquareMatrix(base_entries)))
    out = tmp_path / "blk"
    code, stdout, _ = run_cli(
        ["tail", "blocks", "--ensemble", "separately_exchangeable", "--n", "8",
         "--base", str(f), "--trials", "100", "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert json.loads(stdout)["all_hold"] is True


def test_manifest_file_overrides_flags(tmp_path, capsys):
    mf = tmp_path / "manifest.json"
    mf.write_text(json.dumps({"n": 12, "d": 2, "count": 1, "seed": 21}))
    out = tmp_path / "g"
    code, stdout, _ = run_cli(
        ["gen", "--n", "6", "--d", "1", "--manifest", str(mf), "--out", str(out)],
        capsys,
    )
    assert code == 0
    effective = json.loads(stdout)
    assert effective["n"] == 12 and effective["d"] == 2 and effective["seed"] == 21
    first = (out / "sample_0000.csv").read_text()
    assert len(first.strip().split("\n")) == 12


def test_manifest_keys_must_be_flags_of_the_command(tmp_path, capsys):
    mf = tmp_path / "manifest.json"
    cases = [
        (["verify", "deg"], {"trails": 5}, "error: unknown manifest key 'trails'\n"),
        (["tail", "norm"], {"trails": 5}, "error: unknown manifest key 'trails'\n"),
        (["gen"], {"c": 0.01}, "error: unknown manifest key 'c'\n"),
        (["verify", "deg"], {"command": "tail"}, "error: manifest is for 'tail', not 'verify'\n"),
        (["verify", "deg"], [1], "error: a manifest must be a JSON object\n"),
    ]
    for i, (args, manifest, message) in enumerate(cases):
        mf.write_text(json.dumps(manifest))
        out = tmp_path / f"out{i}"
        code, stdout, err = run_cli(args + ["--manifest", str(mf), "--out", str(out)], capsys)
        assert (code, stdout, err) == (2, "", message)
        assert not out.exists()


def test_echoed_manifest_reruns_the_command(tmp_path, capsys):
    first = tmp_path / "first"
    code, _, _ = run_cli(["tail", "norm", "--n", "12", "--d", "2", "--zero-diagonal",
                          "--trials", "20", "--seed", "5", "--out", str(first)], capsys)
    assert code == 0
    mf = tmp_path / "manifest.json"
    mf.write_text(json.dumps(json.loads((first / "curve.json").read_text())["manifest"]))
    again = tmp_path / "again"
    code, _, _ = run_cli(["tail", "norm", "--manifest", str(mf), "--out", str(again)], capsys)
    assert code == 0
    assert (again / "curve.json").read_bytes() == (first / "curve.json").read_bytes()


@pytest.mark.parametrize("command", [
    ["gen", "--n", "6", "--d", "2"],
    ["verify", "deg"],
    ["tail", "norm", "--n", "8", "--d", "2", "--zero-diagonal", "--trials", "4"],
])
def test_negative_seed_is_rejected_before_anything_is_written(command, tmp_path, capsys,
                                                              monkeypatch):
    # By flag or by manifest: one line naming --seed, exit 2, and no output
    # file or directory. numpy's own error names no flag, and gen creates its
    # directory before it draws the first sample.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "manifest.json").write_text(json.dumps({"seed": -3}))
    for extra in (["--seed", "-3"], ["--manifest", "manifest.json"]):
        code, stdout, err = run_cli([*command, *extra, "--out", "out"], capsys)
        assert (code, stdout, err) == (2, "", "error: --seed must be >= 0, got -3\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json"]
    assert run_cli([*command, "--seed", "0", "--out", "out"], capsys)[0] == 0


def test_an_unread_flag_is_named_before_a_negative_seed_or_a_missing_delta(tmp_path, capsys):
    # Every command checks its flags in one order: the manifest, the flags
    # it does not read, the seed, then its own requirements.
    message = "error: tail s2 takes no --matrix\n"
    for extra in (["--seed", "-1", "--delta", "1.0"], []):
        out = tmp_path / "out"
        args = ["tail", "s2", "--matrix", "m.csv", *extra, "--out", str(out)]
        assert run_cli(args, capsys) == (2, "", message)
        assert not out.exists()


def test_missing_out_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--n", "4", "--d", "1"])
    assert exc.value.code == 2


def test_unreadable_matrix_is_io_error(tmp_path, capsys):
    code, _, err = run_cli(["analyze", str(tmp_path / "nope.csv")], capsys)
    assert code == 3
    assert "I/O" in err


def test_console_entry_point_subprocess(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "exspec.cli", "verify", "subset"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["passed"] is True


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def blas_env(**values) -> dict:
    """The environment with no BLAS thread variable but ``values``."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    return dict(env, **values)


def test_the_cli_defaults_to_one_blas_thread():
    # numpy reads the thread variables once, as it loads. Importing the CLI
    # first sets one thread, unless a variable names a count already or numpy
    # is loaded (a library caller's count stays the caller's).
    probe = ("import os, sys; {first}import exspec.cli; "
             "print(*(os.environ.get(v) for v in sys.argv[1:]))")
    cases = [
        ({}, "", "1 None 1 1 1"),
        ({"OMP_NUM_THREADS": "3"}, "", "None None 3 None None"),
        ({"GOTO_NUM_THREADS": "2"}, "", "None 2 None None None"),
        ({}, "import numpy; ", "None None None None None"),
    ]
    for values, first, want in cases:
        proc = subprocess.run(
            [sys.executable, "-c", probe.format(first=first), *BLAS_THREAD_VARIABLES],
            capture_output=True, text=True, env=blas_env(**values),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == want.split(), (values, first)


def test_threads_env_does_not_change_output(tmp_path):
    # The BLAS thread count moves eigvalsh's last bits; the output bytes must
    # not move, at the CLI's default (every thread variable unset) and at 1
    # and 2 threads. The s2 case runs 520x520 and 260x260 kernels, so this is
    # checked on large matrices too.
    base = tmp_path / "base.csv"
    base.write_text(matrix_to_csv(sample(EnsembleSpec("perm_sum_regular", 520, 4, seed=3), 0)))
    commands = {
        "norm": ["tail", "norm", "--n", "16", "--d", "2", "--zero-diagonal",
                 "--trials", "100", "--seed", "13"],
        "s2": ["tail", "s2", "--ensemble", "permuted_base", "--base", str(base),
               "--n", "520", "--d", "4", "--delta", "1.0", "--trials", "3", "--seed", "13"],
    }
    for name, args in commands.items():
        outs = []
        for threads in ("default", "1", "2"):
            env = blas_env() if threads == "default" else blas_env(OPENBLAS_NUM_THREADS=threads)
            out = tmp_path / f"{name}-t{threads}"
            proc = subprocess.run(
                [sys.executable, "-m", "exspec.cli", *args, "--out", str(out)],
                capture_output=True, text=True, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append((out / "curve.csv").read_bytes() + (out / "curve.json").read_bytes())
        assert outs[0] == outs[1] == outs[2], name


def test_tail_s2_without_delta_is_usage_error(tmp_path, capsys):
    code, _, err = run_cli(
        ["tail", "s2", "--n", "8", "--d", "2", "--trials", "2", "--out", str(tmp_path / "o")],
        capsys,
    )
    assert code == 2
    assert err == "error: tail s2 requires --delta\n"


def test_gen_regular_digraph_without_room_is_usage_error(tmp_path, capsys):
    code, _, err = run_cli(
        ["gen", "--ensemble", "regular_digraph", "--n", "10", "--d", "8",
         "--out", str(tmp_path / "g")],
        capsys,
    )
    assert code == 2
    assert err.startswith("error: could not place 8 disjoint derangements")
    assert len(err.splitlines()) == 1


def test_base_on_a_doubly_regular_kind_is_rejected_before_it_is_read(tmp_path, capsys):
    # A missing file would be an I/O error and this one a parse error, had
    # either been opened.
    unparsable = tmp_path / "unparsable.csv"
    unparsable.write_text("not,a\nmatrix\n")
    commands = {
        "gen": ["gen", "--n", "8", "--d", "2"],
        "tail": ["tail", "s2", "--n", "8", "--d", "2", "--delta", "1.0", "--trials", "2"],
    }
    for kind in ("perm_sum_regular", "regular_digraph"):
        for name, args in commands.items():
            for base in (tmp_path / "missing.csv", unparsable):
                out = tmp_path / f"{name}-{kind}-{base.stem}"
                code, stdout, err = run_cli(
                    [*args, "--ensemble", kind, "--base", str(base), "--out", str(out)], capsys
                )
                assert (code, stdout, err) == (2, "", f"error: {kind} takes no base matrix\n")
                assert not out.exists()


def test_zero_diagonal_on_a_base_kind_is_rejected_before_the_base_is_read(tmp_path, capsys):
    # The base alone sets the diagonal of a relabeled sample, so the flag
    # would be echoed into the manifest and have no effect; so would --d,
    # which only the corner-degree event (--delta) reads. A missing base
    # would be an I/O error (exit 3), had it been opened.
    commands = {
        "gen": ["gen", "--n", "8"],
        "tail": ["tail", "norm", "--n", "8", "--trials", "2"],
        "blocks": ["tail", "blocks", "--n", "8", "--trials", "2"],
    }
    flags = {"zero-diagonal": (["--zero-diagonal"], "its base sets the diagonal"),
             "d": (["--d", "7"], "its base sets the samples")}
    for kind in ("permuted_base", "separately_exchangeable"):
        for name, args in commands.items():
            for base in (tmp_path / "missing.csv", _m8(tmp_path)):
                for flag, (given, reason) in flags.items():
                    out = tmp_path / f"{name}-{kind}-{base.stem}-{flag}"
                    code, stdout, err = run_cli(
                        [*args, "--ensemble", kind, "--base", str(base), *given,
                         "--out", str(out)], capsys
                    )
                    message = f"error: {kind} takes no --{flag}: {reason}\n"
                    assert (code, stdout, err) == (2, "", message)
                    assert not out.exists()
    # regular_digraph samples always have zero diagonal; the flag stays accepted.
    out = tmp_path / "digraph"
    assert run_cli(["gen", "--ensemble", "regular_digraph", "--n", "8", "--d", "2",
                    "--zero-diagonal", "--out", str(out)], capsys)[0] == 0
    # The corner-degree event reads --d on a base kind, and --d 0 is the default.
    base = str(_m8(tmp_path))
    for i, args in enumerate((["tail", "s2", "--d", "4", "--delta", "1.0"],
                              ["tail", "degree-event", "--d", "4", "--delta", "1.0"],
                              ["tail", "norm", "--d", "4", "--delta", "1.0"],
                              ["tail", "norm", "--d", "0"], ["gen", "--d", "0"])):
        code, _, err = run_cli([*args, "--ensemble", "permuted_base", "--base", base, "--n", "8",
                                "--out", str(tmp_path / f"ok{i}")], capsys)
        assert code in (0, 1) and err == "", args


def test_loading_a_csv_matrix_peaks_near_one_array(tmp_path):
    n = 512
    text = matrix_to_csv(sample(EnsembleSpec("regular_digraph", n, 4, seed=1), 0))
    # "\n" line ends take the digit reader, "\r\n" the line parser.
    for name, newline in (("base.csv", "\n"), ("base-crlf.csv", "\r\n")):
        f = tmp_path / name
        f.write_bytes(text.replace("\n", newline).encode())
        tracemalloc.start()
        try:
            M = _load_matrix(str(f))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert M.n == n and not M.entries.flags.writeable
        assert peak <= 1.5 * M.entries.nbytes, (name, peak / M.entries.nbytes)


def test_the_digit_reader_peaks_at_one_array(tmp_path):
    # The digit route reads blocks into one reused buffer and checks
    # finiteness without an n x n mask, so its peak is the array itself.
    f = tmp_path / "base.csv"
    f.write_text(matrix_to_csv(sample(EnsembleSpec("regular_digraph", 512, 4, seed=1), 0)))
    tracemalloc.start()
    try:
        M = _load_matrix(str(f))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * M.entries.nbytes, peak / M.entries.nbytes


def test_a_generated_base_loads_without_the_line_parser(tmp_path, capsys, monkeypatch):
    out = tmp_path / "gen"
    args = ["gen", "--ensemble", "regular_digraph", "--n", "300", "--d", "4", "--seed", "3"]
    assert run_cli(args + ["--out", str(out)], capsys)[0] == 0

    def line_parser(pieces):
        raise AssertionError("a 0/1 base went to the line parser")

    monkeypatch.setattr(core, "_csv_rows", line_parser)
    M = _load_matrix(str(out / "sample_0000.csv"))
    expected = sample(EnsembleSpec("regular_digraph", 300, 4, seed=3), 0)
    assert np.array_equal(M.entries, expected.entries)


def test_a_base_of_another_size_names_both_sizes(tmp_path, capsys):
    out = tmp_path / "out"
    code, stdout, err = run_cli(["tail", "s2", "--ensemble", "permuted_base",
                                 "--base", str(_m8(tmp_path)), "--d", "4", "--delta", "1.0",
                                 "--out", str(out)], capsys)
    message = "error: base matrix is 8 x 8, which does not match n = 16\n"
    assert (code, stdout, err) == (2, "", message)
    assert not out.exists()


def test_manifest_values_go_through_the_flag_types(tmp_path, capsys):
    mf = tmp_path / "manifest.json"
    accepted = [
        (["gen", "--d", "2"], {"n": "12"}, "n", 12),
        (["tail", "norm", "--n", "12", "--d", "2", "--zero-diagonal"], {"trials": "20"},
         "trials", 20),
        (["tail", "norm", "--n", "12", "--d", "2", "--zero-diagonal", "--trials", "20"],
         {"c": 1}, "c", 1.0),
        (["tail", "norm", "--n", "12", "--d", "2", "--zero-diagonal", "--trials", "20"],
         {"grid": [1, 2.5]}, "grid", [1, 2.5]),
    ]
    for i, (args, manifest, key, value) in enumerate(accepted):
        mf.write_text(json.dumps(manifest))
        out = tmp_path / f"ok{i}"
        code, stdout, err = run_cli(args + ["--manifest", str(mf), "--out", str(out)], capsys)
        assert code in (0, 1) and err == ""
        echoed = json.loads((out / ("manifest.json" if args[0] == "gen" else "curve.json"))
                            .read_text())
        echoed = echoed.get("manifest", echoed)
        assert echoed[key] == value and type(echoed[key]) is type(value)
    rejected = [
        (["gen"], {"n": "twelve"}, "error: manifest key 'n': invalid int value: 'twelve'\n"),
        (["gen"], {"n": 12.5}, "error: manifest key 'n': invalid int value: 12.5\n"),
        (["gen"], {"count": True}, "error: manifest key 'count': invalid int value: True\n"),
        (["gen"], {"format": "xml"}, "error: manifest key 'format': invalid choice: 'xml'\n"),
        (["tail", "norm"], {"trials": "50x"},
         "error: manifest key 'trials': invalid int value: '50x'\n"),
        (["tail", "norm"], {"zero_diagonal": "yes"},
         "error: manifest key 'zero_diagonal': expected true or false, got 'yes'\n"),
        (["tail", "norm"], {"grid": [1, "x"]},
         "error: manifest key 'grid': invalid grid [1, 'x']\n"),
        # float() reads true as 1.0, but no --grid text is a boolean.
        (["tail", "norm"], {"grid": [True, 2]},
         "error: manifest key 'grid': invalid grid [True, 2]\n"),
        (["tail", "norm"], {"base": ["a.csv"]},
         "error: manifest key 'base': invalid value: ['a.csv']\n"),
        (["tail", "norm"], {"comparison": None},
         "error: manifest key 'comparison': invalid choice: None\n"),
    ]
    for i, (args, manifest, message) in enumerate(rejected):
        mf.write_text(json.dumps(manifest))
        out = tmp_path / f"bad{i}"
        code, stdout, err = run_cli(args + ["--manifest", str(mf), "--out", str(out)], capsys)
        assert (code, stdout, err) == (2, "", message)
        assert not out.exists()


def test_commands_run_without_scipy(tmp_path):
    # scipy is a test dependency only: with it blocked, every command runs
    # and exits with its documented code, and no scipy module gets loaded.
    script = """
import json, sys
sys.modules["scipy"] = None
from exspec.cli import _load_matrix, main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "scipy": sorted(m for m in sys.modules if "scipy" in m)}))
"""
    commands = [
        (["gen", "--n", "12", "--d", "3", "--seed", "5", "--out", str(tmp_path / "gen")], 0),
        (["analyze", str(tmp_path / "gen" / "sample_0000.csv"), "--d", "3", "--delta", "1.0",
          "--out", str(tmp_path / "analyze.json")], 0),
        (["verify", "all", "--out", str(tmp_path / "verify.json")], 0),
        (["tail", "norm", "--n", "16", "--d", "4", "--zero-diagonal", "--delta", "2.0",
          "--trials", "50", "--seed", "1", "--out", str(tmp_path / "norm")], 0),
        (["tail", "s2", "--n", "16", "--d", "4", "--delta", "1.0", "--trials", "50",
          "--seed", "1", "--out", str(tmp_path / "s2")], 0),
        (["tail", "s2", "--n", "16", "--d", "4", "--out", str(tmp_path / "bad")], 2),
        # n = 700: the whole samples and their corners go to the Lanczos kernel.
        (["tail", "s2", "--n", "700", "--d", "4", "--zero-diagonal", "--delta", "1.0",
          "--trials", "2", "--seed", "1", "--out", str(tmp_path / "s2-large")], 0),
    ]
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps([argv for argv, _ in commands])],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {
        "codes": [code for _, code in commands], "scipy": ["scipy"]}
    report = json.loads((tmp_path / "analyze.json").read_text())
    assert report["deg_membership"]["member"] and report["scaling"]["hypotheses_ok"]
    assert (tmp_path / "norm" / "curve.csv").exists() and (tmp_path / "s2" / "curve.csv").exists()
    assert not (tmp_path / "bad").exists()


def test_each_main_builds_the_parser_once(tmp_path, capsys, monkeypatch):
    from exspec import cli

    builds = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or real())
    mf = tmp_path / "manifest.json"
    mf.write_text(json.dumps({"trials": 20, "c": 0.5}))
    norm = ["tail", "norm", "--n", "16", "--d", "3", "--zero-diagonal", "--trials", "30"]
    cases = [
        (norm + ["--out", str(tmp_path / "a")], 0, ""),
        (norm + ["--manifest", str(mf), "--out", str(tmp_path / "b")], 0, ""),
        (["tail", "blocks", "--delta", "1.0", "--out", str(tmp_path / "c")], 2,
         "error: tail blocks takes no --delta\n"),
        (["gen", "--n", "8", "--d", "2", "--manifest", str(mf), "--out", str(tmp_path / "d")], 2,
         "error: unknown manifest key 'trials'\n"),
    ]
    for args, code, err in cases:
        builds.clear()
        assert run_cli(args, capsys)[::2] == (code, err)
        assert builds == [1], args


@pytest.mark.parametrize("c", ["0", "2", "-1", "nan", "inf"])
def test_tail_s2_rejects_c_outside_the_unit_interval(tmp_path, capsys, c):
    out = tmp_path / "o"
    code, _, err = run_cli(["tail", "s2", "--n", "8", "--d", "2", "--delta", "1", "--trials", "2",
                            "--c", c, "--out", str(out)], capsys)
    assert (code, err) == (2, "error: c must lie in (0, 1]\n")
    assert not out.exists()


def test_malformed_json_matrix_is_usage_error(tmp_path, capsys):
    cases = {
        "{}": 'error: a JSON matrix must be an object with "entries"\n',
        "[]": 'error: a JSON matrix must be an object with "entries"\n',
        '{"entries": [[1.0]]}': 'error: a JSON matrix needs an integer "n"\n',
        '{"entries": [[1.0]], "n": 1.5}': 'error: a JSON matrix needs an integer "n"\n',
        '{"entries": [[1.0]], "n": true}': 'error: a JSON matrix needs an integer "n"\n',
        '{"entries": [[0.0]], "n": 1, "zero_diagonal": "no"}':
            'error: "zero_diagonal" must be true or false\n',
        '{"entries": [[{}]], "n": 1}': "error: matrix entries must be numbers\n",
        '{"entries": [["1.5"]], "n": 1}': "error: matrix entries must be numbers\n",
        '{"entries": [[true]], "n": 1}': "error: matrix entries must be numbers\n",
        '{"entries": [[1, true]], "n": 1}': "error: matrix entries must be numbers\n",
        '{"entries": [[1e999]], "n": 1}': "error: matrix entries must be finite\n",
    }
    f = tmp_path / "m.json"
    for text, message in cases.items():
        f.write_text(text)
        for args in (["analyze", str(f)],
                     ["tail", "corner-capture", "--matrix", str(f), "--out", str(tmp_path / "o")],
                     ["gen", "--ensemble", "permuted_base", "--base", str(f),
                      "--out", str(tmp_path / "o")]):
            assert run_cli(args, capsys)[1:] == ("", message), (text, args)
            assert not (tmp_path / "o").exists()
    # Nested too deeply for json.loads, as a matrix and as a manifest.
    f.write_text("[" * 100_000 + "]" * 100_000)
    for args in (["analyze", str(f)], ["analyze", str(f), "--manifest", str(f)]):
        code, _, err = run_cli(args, capsys)
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                  max_size=4),
    max_leaves=12,
)
_NUMBER = st.integers() | st.floats(allow_nan=False, allow_infinity=False)
# Square lists of numbers, so that some of the objects are matrices.
_SQUARE = st.integers(1, 3).flatmap(
    lambda n: st.lists(st.lists(_NUMBER, min_size=n, max_size=n), min_size=n, max_size=n))
_MATRIX_OBJECTS = st.fixed_dictionaries(
    {"entries": _SQUARE | _JSON, "n": st.integers(0, 4) | _JSON},
    optional={"zero_diagonal": st.booleans() | _JSON},
)
_ANALYZE_MANIFESTS = st.dictionaries(
    st.sampled_from(["d", "delta", "seed", "command", "matrix"]) | st.text(max_size=6),
    _JSON | st.sampled_from(["nan", "-inf", "1e308", "0", "2.5", "analyze", "gen"]),
    max_size=4,
)


def _run_quietly(args):
    """Exit code, stdout and stderr of ``main(args)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(st.one_of(_JSON, _MATRIX_OBJECTS), st.one_of(_JSON, _ANALYZE_MANIFESTS))
def test_arbitrary_json_exits_0_2_or_3(matrix, manifest):
    """Any JSON as the matrix of ``analyze``, and as its --manifest (over a
    fixed matrix): a report, or one line on stderr and no --out file. Every
    analyze flag's work is bounded by its matrix, so no draw can make a run
    long."""
    with tempfile.TemporaryDirectory() as d:
        d = Path(d)
        (d / "m.json").write_text(json.dumps(matrix))
        (d / "fixed.json").write_text(matrix_to_json(SquareMatrix(np.eye(2))))
        (d / "manifest.json").write_text(json.dumps(manifest))
        cwd = os.getcwd()
        os.chdir(d)  # a manifest's "matrix" path resolves in the scratch directory
        try:
            for args in (["analyze", "m.json"], ["analyze", "m.json", "--d", "2"],
                         ["analyze", "fixed.json", "--manifest", "manifest.json"]):
                report = d / "report.json"
                code, _, err = _run_quietly([*args, "--out", str(report)])
                assert code in (0, 2, 3), (args, err)
                if code:
                    assert err.count("\n") == 1 and err.endswith("\n"), err
                    assert not report.exists()
                else:
                    assert err == ""
                    json.loads(report.read_text())
                    report.unlink()
        finally:
            os.chdir(cwd)
