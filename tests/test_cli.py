import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dyadlab.best_approx
import dyadlab.operators
from dyadlab.best_approx import (
    ConvolutionSymbol,
    approx_error,
    best_convolution_symbol,
)
from dyadlab.cli import main
from dyadlab.operators import DenseOperator, difference_operator


def run_csv(tmp_path, argv):
    out = tmp_path / "out.csv"
    code = main(argv + ["--out", str(out)])
    text = out.read_text() if out.exists() else ""
    rows = [line for line in text.splitlines() if line and not line.startswith("#")]
    comments = [line for line in text.splitlines() if line.startswith("#")]
    return code, rows, comments


def run_json(tmp_path, argv):
    out = tmp_path / "out.json"
    code = main(argv + ["--format", "json", "--out", str(out)])
    payload = json.loads(out.read_text()) if out.exists() else None
    return code, payload


# ---------------------------------------------------------------------------
# gamma


def test_gamma_paley_table(tmp_path):
    code, rows, _ = run_csv(tmp_path, ["gamma", "-n", "2"])
    assert code == 0
    assert rows[0] == "k,gray_k,gamma_optimal,gamma_bw,gamma_onneweer,sequency"
    table = [row.split(",") for row in rows[1:]]
    assert [r[0] for r in table] == ["0", "1", "2", "3"]
    assert [r[2] for r in table] == ["0", "4", "8", "4"]
    assert [r[5] for r in table] == ["0", "1", "3", "2"]


def test_gamma_n1_table(tmp_path):
    code, rows, _ = run_csv(tmp_path, ["gamma", "-n", "1"])
    assert code == 0
    table = [row.split(",") for row in rows[1:]]
    assert [r[2] for r in table] == ["0", "4"]


def test_gamma_sequency_ordering(tmp_path):
    code, payload = run_json(tmp_path, ["gamma", "-n", "2", "--ordering", "sequency"])
    assert code == 0
    assert [row["gamma_optimal"] for row in payload["rows"]] == [0, 4, 4, 8]
    assert [row["sequency"] for row in payload["rows"]] == [0, 1, 2, 3]
    # gray_k column carries the Paley index of the row's Walsh function
    assert [row["gray_k"] for row in payload["rows"]] == [0, 1, 3, 2]


def test_gamma_out_of_range(tmp_path, capsys):
    assert main(["gamma", "-n", "17"]) == 2
    assert main(["gamma", "-n", "0"]) == 2
    assert "n must lie in" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# approx


def test_approx_translation(tmp_path):
    code, rows, comments = run_csv(tmp_path, ["approx", "translation", "-n", "2"])
    assert code == 0
    assert rows[0] == "k,oracle,closed_form,abs_diff"
    table = [row.split(",") for row in rows[1:]]
    assert [r[1] for r in table] == ["1", "0", "-1", "0"]
    diffs = [float(r[3]) for r in table]
    assert max(diffs) < 1e-12
    assert any(c.startswith("# max_abs_diff=") for c in comments)
    assert any(c.startswith("# residual_hs_error=") for c in comments)


def test_approx_symmetric_difference(tmp_path):
    code, payload = run_json(tmp_path, ["approx", "symmetric-difference", "-n", "3"])
    assert code == 0
    assert all(row["oracle"] == 0.0 for row in payload["rows"])
    assert payload["max_abs_diff"] == 0.0


def test_approx_antiderivative(tmp_path):
    code, payload = run_json(tmp_path, ["approx", "antiderivative", "-n", "3"])
    assert code == 0
    oracle = [row["oracle"] for row in payload["rows"]]
    assert oracle[0] == 0.5
    assert all(v == 0.0 for v in oracle[1:])


def test_approx_difference_orientations(tmp_path):
    code, payload = run_json(tmp_path, ["approx", "difference", "-n", "2"])
    assert code == 0
    assert [row["closed_form"] for row in payload["rows"]] == [0, 4, 8, 4]
    assert payload["max_abs_diff"] == 0.0
    code, negated = run_json(
        tmp_path,
        [
            "approx",
            "difference",
            "-n",
            "2",
            "--orientation",
            "negated_backward_quotient",
        ],
    )
    assert code == 0
    assert [row["closed_form"] for row in negated["rows"]] == [0, -4, -8, -4]
    assert negated["max_abs_diff"] == 0.0


def test_approx_unknown_operator():
    with pytest.raises(SystemExit) as excinfo:
        main(["approx", "laplacian", "-n", "2"])
    assert excinfo.value.code == 2


def test_approx_out_of_range(capsys):
    assert main(["approx", "translation", "-n", "13"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# compare


def test_compare_optimal_is_strict_minimum(tmp_path):
    code, payload = run_json(tmp_path, ["compare", "-n", "3"])
    assert code == 0
    errors = {row["symbol"]: row["hs_error"] for row in payload["rows"]}
    assert set(errors) == {"optimal", "butzer_wagner", "onneweer", "zero"}
    assert errors["optimal"] < errors["butzer_wagner"]
    assert errors["optimal"] < errors["onneweer"]
    assert errors["optimal"] < errors["zero"]


def test_compare_matches_projection_error(tmp_path):
    code, payload = run_json(tmp_path, ["compare", "-n", "2"])
    assert code == 0
    errors = {row["symbol"]: row["hs_error"] for row in payload["rows"]}
    delta = difference_operator(2)
    expected = approx_error(delta, best_convolution_symbol(delta))
    assert errors["optimal"] == pytest.approx(expected, abs=1e-12)


def test_compare_range(capsys):
    assert main(["compare", "-n", "1"]) == 2
    assert main(["compare", "-n", "11"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# sequency


def test_sequency_table(tmp_path):
    code, rows, _ = run_csv(tmp_path, ["sequency", "-n", "2"])
    assert code == 0
    assert rows[0] == "k,gray_k,sequency"
    assert rows[1:] == ["0,0,0", "1,1,1", "2,3,2", "3,2,3"]


def test_sequency_n1(tmp_path):
    code, rows, _ = run_csv(tmp_path, ["sequency", "-n", "1"])
    assert code == 0
    assert rows[1:] == ["0,0,0", "1,1,1"]


@pytest.mark.parametrize("n", (3, 5, 7))
def test_sequency_third_column_equals_first(tmp_path, n):
    code, payload = run_json(tmp_path, ["sequency", "-n", str(n)])
    assert code == 0
    assert all(row["sequency"] == row["k"] for row in payload["rows"])


def test_sequency_range(capsys):
    assert main(["sequency", "-n", "15"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# transform


def write_vector(tmp_path, values, name="vec.txt"):
    path = tmp_path / name
    path.write_text("\n".join(str(v) for v in values) + "\n")
    return str(path)


def test_transform_forward_examples(tmp_path):
    path = write_vector(tmp_path, [1, 1, 1, 1])
    out = tmp_path / "spec.txt"
    assert main(["transform", path, "--out", str(out)]) == 0
    assert [float(v) for v in out.read_text().split()] == [1.0, 0.0, 0.0, 0.0]

    path = write_vector(tmp_path, [1, 1, -1, -1])
    assert main(["transform", path, "--out", str(out)]) == 0
    assert [float(v) for v in out.read_text().split()] == [0.0, 1.0, 0.0, 0.0]


def test_transform_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    original = rng.uniform(-1, 1, 16)
    path = write_vector(tmp_path, original)
    spectrum_file = tmp_path / "spectrum.txt"
    assert main(["transform", path, "--out", str(spectrum_file)]) == 0
    back_file = tmp_path / "back.txt"
    assert (
        main(
            [
                "transform",
                str(spectrum_file),
                "--direction",
                "inverse",
                "--out",
                str(back_file),
            ]
        )
        == 0
    )
    back = np.array([float(v) for v in back_file.read_text().split()])
    assert np.max(np.abs(back - original)) <= 1e-12


def run_stdout(argv, stdin_text=""):
    """Exit code and stdout of main(argv), with stdin_text as sys.stdin."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


@given(
    st.integers(0, 6).flatmap(
        lambda n: st.lists(
            st.floats(-1.0, 1.0, allow_nan=False), min_size=2**n, max_size=2**n
        )
    )
)
@settings(max_examples=25, deadline=None)
def test_transform_stdin_matches_file_and_round_trips(values):
    text = "".join(f"{v!r}\n" for v in values)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "vec.txt"
        path.write_text(text)
        for direction in ("forward", "inverse"):
            for fmt in ("csv", "json"):
                flags = ["--direction", direction, "--format", fmt]
                from_stdin = run_stdout(["transform", "-", *flags], text)
                from_file = run_stdout(["transform", str(path), *flags])
                assert from_stdin == from_file
                assert from_stdin[0] == 0
    code, spectrum = run_stdout(["transform", "-"], text)
    code, back = run_stdout(["transform", "-", "--direction", "inverse"], spectrum)
    assert code == 0
    back = np.array([float(v) for v in back.split()])
    assert np.max(np.abs(back - np.array(values))) <= 1e-12


def test_transform_json(tmp_path):
    path = write_vector(tmp_path, [1, 1, -1, -1])
    code, payload = run_json(tmp_path, ["transform", path])
    assert code == 0
    assert payload["values"] == [0.0, 1.0, 0.0, 0.0]
    assert payload["length"] == 4


def test_transform_bad_inputs(tmp_path, capsys):
    assert main(["transform", write_vector(tmp_path, [1, 2, 3])]) == 2
    assert main(["transform", str(tmp_path / "missing.txt")]) == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("1.0\nnot-a-number\n")
    assert main(["transform", str(bad)]) == 2
    empty = tmp_path / "empty.txt"
    empty.write_text("# only a comment\n")
    assert main(["transform", str(empty)]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# verify


def test_verify_passes_and_schema(tmp_path):
    code, payload = run_json(tmp_path, ["verify", "--n-max", "3"])
    assert code == 0
    assert set(payload) == {"n_max", "seed", "checks", "overall_pass"}
    assert payload["n_max"] == 3 and payload["seed"] == 42
    assert payload["overall_pass"] is True
    for check in payload["checks"]:
        assert set(check) == {"name", "n", "max_abs_error", "tolerance", "pass"}
        assert check["pass"] is True
        assert 1 <= check["n"] <= 3


def test_verify_n_max_1_restricts_scope(tmp_path):
    code, payload = run_json(tmp_path, ["verify", "--n-max", "1"])
    assert code == 0
    assert all(check["n"] == 1 for check in payload["checks"])


def test_verify_csv_output(tmp_path):
    code, rows, comments = run_csv(tmp_path, ["verify", "--n-max", "2"])
    assert code == 0
    assert rows[0] == "name,n,max_abs_error,tolerance,pass"
    assert all(row.endswith("true") for row in rows[1:])
    assert comments == ["# overall_pass=true"]


def test_verify_impossible_tolerance_fails(tmp_path):
    code, payload = run_json(tmp_path, ["verify", "--n-max", "3", "--tol", "1e-30"])
    assert code == 1
    failed = [c for c in payload["checks"] if not c["pass"]]
    assert failed
    assert payload["overall_pass"] is False


def test_verify_byte_stable(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(["verify", "--n-max", "3", "--format", "json", "--out", str(first)]) == 0
    assert main(["verify", "--n-max", "3", "--format", "json", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_verify_range(capsys):
    assert main(["verify", "--n-max", "11"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# corrupted closed forms must flip the matching check and the exit code


def _failed_checks(payload):
    return {c["name"] for c in payload["checks"] if not c["pass"]}


def test_corrupted_translation_closed_form_flips_verify(tmp_path, monkeypatch):
    true_fn = dyadlab.best_approx.translation_symbol_closed_form

    def corrupted(n):
        coeffs = true_fn(n).coeffs.copy()
        coeffs[0] += 1e-6
        return ConvolutionSymbol(coeffs)

    monkeypatch.setattr(
        dyadlab.best_approx, "translation_symbol_closed_form", corrupted
    )
    code, payload = run_json(tmp_path, ["verify", "--n-max", "3"])
    assert code == 1
    assert "translation_closed_form" in _failed_checks(payload)


def test_corrupted_optimal_gamma_flips_verify(tmp_path, monkeypatch):
    true_fn = dyadlab.best_approx.optimal_gamma
    monkeypatch.setattr(
        dyadlab.best_approx, "optimal_gamma", lambda m: true_fn(m) + 1e-6
    )
    code, payload = run_json(tmp_path, ["verify", "--n-max", "3"])
    assert code == 1
    assert "difference_gamma_closed_form" in _failed_checks(payload)


def test_corrupted_antiderivative_flips_verify(tmp_path, monkeypatch):
    true_fn = dyadlab.operators.compressed_antiderivative

    def corrupted(n):
        entries = true_fn(n).entries.copy()
        entries[0, 0] += 1e-6
        return DenseOperator(entries)

    monkeypatch.setattr(dyadlab.operators, "compressed_antiderivative", corrupted)
    code, payload = run_json(tmp_path, ["verify", "--n-max", "3"])
    assert code == 1
    assert "antiderivative_half_delta_symbol" in _failed_checks(payload)


def test_approx_and_verify_see_the_same_builder(tmp_path, monkeypatch):
    true_fn = dyadlab.operators.symmetric_difference_operator

    def corrupted(n):
        entries = true_fn(n).entries.copy()
        entries[0, 0] += 1e-6
        return DenseOperator(entries)

    monkeypatch.setattr(dyadlab.operators, "symmetric_difference_operator", corrupted)
    code, payload = run_json(tmp_path, ["verify", "--n-max", "3"])
    assert code == 1
    assert "symmetric_difference_zero_symbol" in _failed_checks(payload)
    code, payload = run_json(tmp_path, ["approx", "symmetric-difference", "-n", "3"])
    assert code == 0
    assert payload["max_abs_diff"] > 0


# ---------------------------------------------------------------------------
# every failure mode exits 2 with one error line and no traceback

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["gamma", "-n", "2", "--out", "{tmp}/missing/out.csv"], "cannot write output"),
        (["verify", "--n-max", "2", "--out", "{tmp}"], "cannot write output"),
        (["verify", "--n-max", "2", "--tol", "nan"], "tol must be finite"),
        (["verify", "--n-max", "2", "--tol", "inf"], "tol must be finite"),
        (["verify", "--n-max", "2", "--tol", "-1"], "tol must be finite"),
        (["verify", "--n-max", "2", "--seed", "-1"], "seed must be nonnegative"),
        (["transform", "{tmp}/nan.txt"], "line 3 is not finite"),
        (["transform", "{tmp}/inf.txt"], "line 2 is not finite"),
        (["transform", "{tmp}"], "cannot read input"),
        (["gamma", "-n", "1", "--tol", "nan", "--seed", "-5"], "unrecognized arguments"),
        (["gamma", "-n", "x"], "invalid int value"),
    ],
)
def test_failure_modes_exit_2_without_traceback(tmp_path, argv, message):
    (tmp_path / "nan.txt").write_text("1\n# comment\nnan\n4\n")
    (tmp_path / "inf.txt").write_text("1\n-inf\n3\n4\n")
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "dyadlab.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and message in proc.stderr
    assert proc.stderr.count("\n") == 1
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# misc surface


def test_stdout_default(capsys):
    assert main(["gamma", "-n", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("k,gray_k,")


def test_missing_subcommand():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2
