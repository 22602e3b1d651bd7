"""Each output check accepts the real output and rejects corrupted copies.

The corruptions follow the mutation tests of the package's CLI suite: a
flipped leading digit in one cell, a dropped row, and two data columns
swapped under an unchanged header.
"""

import json

import numpy as np
import pytest

import checks
from checks import CheckError
from dyadlab.cli import main
from dyadlab.operators import DenseOperator, walsh_conjugate
from dyadlab.best_approx import approx_error, best_convolution_symbol


def cli_text(tmp_path, argv):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    return out.read_text()


def flip_digit(text, line, col):
    """Change the first digit of one CSV cell (line counts the header)."""
    lines = text.splitlines()
    cells = lines[line].split(",")
    cell = cells[col]
    i = next(i for i, ch in enumerate(cell) if ch.isdigit())
    cells[col] = cell[:i] + str((int(cell[i]) + 1) % 10) + cell[i + 1 :]
    lines[line] = ",".join(cells)
    return "\n".join(lines) + "\n"


def drop_row(text, line):
    lines = text.splitlines()
    del lines[line]
    return "\n".join(lines) + "\n"


def swap_columns(text, a, b):
    """Swap two columns in every data row, keeping header and footer."""
    lines = text.splitlines()
    for i in range(1, len(lines)):
        if lines[i].startswith("#"):
            continue
        cells = lines[i].split(",")
        cells[a], cells[b] = cells[b], cells[a]
        lines[i] = ",".join(cells)
    return "\n".join(lines) + "\n"


def assert_rejects(check, *texts):
    for text in texts:
        with pytest.raises(CheckError):
            check(text)


@pytest.mark.parametrize(
    "operator,orientation",
    [
        ("translation", "backward_quotient"),
        ("difference", "backward_quotient"),
        ("difference", "negated_backward_quotient"),
        ("symmetric-difference", "backward_quotient"),
        ("antiderivative", "backward_quotient"),
    ],
)
def test_approx(tmp_path, operator, orientation):
    n = 4
    text = cli_text(tmp_path, ["approx", operator, "-n", str(n), "--orientation", orientation])

    def check(t):
        checks.check_approx(t, "csv", operator, n, orientation)

    check(text)
    assert_rejects(
        check,
        flip_digit(text, 3, 2),  # closed_form
        flip_digit(text, 3, 1),  # oracle
        drop_row(text, 5),
        swap_columns(text, 0, 2),
    )


def test_approx_footer_and_json(tmp_path):
    text = cli_text(tmp_path, ["approx", "difference", "-n", "4"])
    lines = text.splitlines()
    residual = next(i for i, line in enumerate(lines) if "residual_hs_error" in line)
    lines[residual] = "# residual_hs_error=1" + lines[residual].split("=")[1]
    with pytest.raises(CheckError):
        checks.check_approx("\n".join(lines), "csv", "difference", 4, "backward_quotient")
    payload = json.loads(cli_text(tmp_path, ["approx", "difference", "-n", "4", "--format", "json"]))
    checks.check_approx(json.dumps(payload), "json", "difference", 4, "backward_quotient")
    payload["rows"][3]["closed_form"] += 1.0
    with pytest.raises(CheckError):
        checks.check_approx(json.dumps(payload), "json", "difference", 4, "backward_quotient")


@pytest.mark.parametrize("n", [3, 6])
def test_compare(tmp_path, n):
    text = cli_text(tmp_path, ["compare", "-n", str(n)])
    checks.check_compare(text, "csv", n)
    assert_rejects(
        lambda t: checks.check_compare(t, "csv", n),
        flip_digit(text, 1, 1),
        flip_digit(text, 4, 1),
        drop_row(text, 2),
        swap_columns(text, 0, 1),
    )


@pytest.mark.parametrize("ordering", ["paley", "sequency"])
def test_gamma(tmp_path, ordering):
    text = cli_text(tmp_path, ["gamma", "-n", "4", "--ordering", ordering])

    def check(t):
        checks.check_gamma(t, "csv", 4, ordering)

    check(text)
    assert_rejects(
        check,
        flip_digit(text, 6, 5),  # sequency
        flip_digit(text, 6, 2),  # gamma_optimal
        drop_row(text, 16),
        swap_columns(text, 3, 4),
    )
    other = "sequency" if ordering == "paley" else "paley"
    with pytest.raises(CheckError):
        checks.check_gamma(text, "csv", 4, other)


def test_gamma_json(tmp_path):
    text = cli_text(tmp_path, ["gamma", "-n", "4", "--ordering", "sequency", "--format", "json"])
    checks.check_gamma(text, "json", 4, "sequency")
    payload = json.loads(text)
    payload["rows"][5]["sequency"] += 1
    dropped = json.loads(text)
    del dropped["rows"][7]
    swapped = json.loads(text)
    for row in swapped["rows"]:
        row["k"], row["gray_k"] = row["gray_k"], row["k"]
    assert_rejects(
        lambda t: checks.check_gamma(t, "json", 4, "sequency"),
        json.dumps(payload),
        json.dumps(dropped),
        json.dumps(swapped),
    )


def test_sequency(tmp_path):
    text = cli_text(tmp_path, ["sequency", "-n", "4"])
    checks.check_sequency(text, "csv", 4)
    assert_rejects(
        lambda t: checks.check_sequency(t, "csv", 4),
        flip_digit(text, 9, 2),
        drop_row(text, 4),
        swap_columns(text, 0, 1),
    )


@pytest.mark.parametrize("direction", ["forward", "inverse"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_transform(tmp_path, direction, fmt):
    rng = np.random.default_rng(7)
    vector = rng.standard_normal(64)
    probes = rng.choice(64, size=8, replace=False)
    source = tmp_path / "in.txt"
    source.write_text("\n".join(repr(float(v)) for v in vector) + "\n")
    text = cli_text(tmp_path, ["transform", str(source), "--direction", direction, "--format", fmt])

    def check(t):
        checks.check_transform(t, fmt, direction, vector, probes)

    check(text)
    if fmt == "json":
        payload = json.loads(text)
        values = payload["values"]
        flipped = dict(payload, values=[*values[:9], values[9] * 10, *values[10:]])
        dropped = dict(payload, values=values[:-1])
        swapped = dict(payload, values=[values[1], values[0], *values[2:]])
        corrupt = [json.dumps(p) for p in (flipped, dropped, swapped)]
    else:
        # one value per line, no header: line i is value i
        lines = text.splitlines()
        swapped = [lines[1], lines[0], *lines[2:]]
        corrupt = [
            flip_digit("header\n" + text, 10, 0).split("\n", 1)[1],
            drop_row(text, 20),
            "\n".join(swapped) + "\n",
        ]
    assert_rejects(check, *corrupt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_verify(tmp_path, fmt):
    text = cli_text(tmp_path, ["verify", "--n-max", "3", "--format", fmt, "--seed", "5"])

    def check(t, code=0):
        checks.check_verify(code, t, fmt, 3, 5)

    check(text)
    with pytest.raises(CheckError):
        check(text, code=1)
    if fmt == "csv":
        corrupt = [flip_digit(text, 1, 3), drop_row(text, 4), swap_columns(text, 0, 1)]
        footer = text.replace("overall_pass=true", "overall_pass=false")
        corrupt.append(footer)
    else:
        payload = json.loads(text)
        flipped = json.loads(text)
        flipped["checks"][0]["tolerance"] = 1.0
        dropped = json.loads(text)
        del dropped["checks"][3]
        swapped = json.loads(text)
        for c in swapped["checks"]:
            c["max_abs_error"], c["tolerance"] = c["tolerance"], c["max_abs_error"]
        other_seed = dict(payload, seed=6)
        corrupt = [json.dumps(p) for p in (flipped, dropped, swapped, other_seed)]
    assert_rejects(check, *corrupt)


def test_verify_plan_counts():
    # 16 uncapped checks, caps 6 (x4), 8 (x3) and 10 (x1), then
    # resolution_consistency at 1..n_max-1 and one Monte-Carlo record
    assert len(checks._verify_plan(10, 1e-9)) == 160 + 24 + 24 + 10 + 9 + 1
    assert len(checks._verify_plan(7, 1e-9)) == 112 + 24 + 21 + 7 + 6 + 1


def dense_case(n=5, seed=3):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((2**n, 2**n))
    probes = rng.choice(2**n, size=8, replace=False)
    return DenseOperator(a), checks.DenseReference(a, probes, checks.walsh_rows(n)), probes


def test_dense_fit():
    a, ref, probes = dense_case()
    symbol = best_convolution_symbol(a)
    error = approx_error(a, symbol)
    ref.check_fit(symbol.coeffs, error)
    flipped = symbol.coeffs.copy()
    flipped[probes[0]] += 1.0
    other = (set(range(32)) - set(probes.tolist())).pop()
    unprobed = symbol.coeffs.copy()
    unprobed[other] *= 10.0  # leading digit changed off the probes
    swapped = symbol.coeffs.copy()
    swapped[[probes[1], other]] = swapped[[other, probes[1]]]
    for coeffs in (flipped, unprobed, swapped):
        with pytest.raises(CheckError):
            ref.check_fit(coeffs, error)
    with pytest.raises(CheckError):
        ref.check_fit(symbol.coeffs[:-1], error)
    with pytest.raises(CheckError):
        ref.check_fit(symbol.coeffs, error * 1.001)


def test_dense_conjugate():
    a, ref, _ = dense_case()
    m = walsh_conjugate(a)
    ref.check_conjugate(m)
    flipped = m.copy()
    flipped[3, 7] *= 10.0
    swapped = m[:, [1, 0, *range(2, 32)]]
    for bad in (flipped, m[:-1], swapped):
        with pytest.raises(CheckError):
            ref.check_conjugate(bad)


def test_reference_arithmetic_matches_definitions():
    k = np.arange(64)
    assert np.array_equal(checks.gray_inverse(checks.gray(k)), k)
    assert checks.onneweer(k).tolist() == [0.0] + [float(2 ** (int(v).bit_length() - 1)) for v in k[1:]]
    w = checks.walsh_rows(4)
    assert np.array_equal(w @ w.T, 16 * np.eye(16))
    # w_gray(m) has exactly m sign changes
    changes = np.count_nonzero(w[:, 1:] != w[:, :-1], axis=1)
    assert np.array_equal(changes[checks.gray(np.arange(16))], np.arange(16))
