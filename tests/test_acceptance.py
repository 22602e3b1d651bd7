"""End-to-end suite for the package's headline guarantees.

Each test covers one numbered criterion at its stated tolerance and prints
a single PASS line (visible with pytest -s); a failing criterion fails its
test with the offending quantity in the message.
"""

import json
import time

import numpy as np
import pytest

import dyadlab.best_approx
import dyadlab.operators
from dyadlab.best_approx import (
    ConvolutionSymbol,
    approx_error,
    best_convolution_symbol,
    gamma_symbol,
    optimal_gamma,
    translation_symbol_closed_form,
)
from dyadlab.cli import main
from dyadlab.dyadic import (
    GridPoint,
    dyadic_add,
    gray,
    h_mask,
    last_set_position,
)
from dyadlab.operators import (
    DenseOperator,
    compressed_antiderivative,
    difference_operator,
    hs_inner,
    hs_norm,
    hs_norm_monte_carlo,
    symmetric_difference_operator,
    translation_operator,
    walsh_conjugate,
)
from dyadlab.oracles import (
    dyadic_convolve_naive,
    fwht_forward_naive,
    fwht_inverse_naive,
)
from dyadlab.walsh import (
    GridFunction,
    WalshSpectrum,
    dyadic_convolve,
    fwht_forward,
    fwht_inverse,
    sequency,
)


def _report(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d} [{label}]: {status} {detail}".rstrip())
    assert ok, f"criterion {number} ({label}) failed: {detail}"


def test_criterion_01_translation_closed_form():
    start = time.time()
    worst = 0.0
    for n in range(1, 9):
        numeric = best_convolution_symbol(translation_operator(n, 1)).coeffs
        closed = translation_symbol_closed_form(n).coeffs
        worst = max(worst, float(np.max(np.abs(numeric - closed))))
    elapsed = time.time() - start
    _report(
        1,
        "translation closed form, n=1..8",
        worst <= 1e-12 and elapsed < 10.0,
        f"max_err={worst:.3e} elapsed={elapsed:.2f}s",
    )


def test_criterion_02_difference_gamma_both_orientations():
    worst = 0.0
    negation_exact = True
    for n in range(1, 9):
        backward = best_convolution_symbol(
            difference_operator(n, "backward_quotient")
        ).coeffs
        expected = np.empty(2**n)
        for m in range(2**n):
            expected[gray(m)] = 2.0 * ((m & 1) + m)
        worst = max(worst, float(np.max(np.abs(backward - expected))) / 2**n)
        negated = best_convolution_symbol(
            difference_operator(n, "negated_backward_quotient")
        ).coeffs
        negation_exact &= bool(np.array_equal(negated, -backward))
    _report(
        2,
        "difference quotient gamma(gray m)=2(m0+m), n=1..8",
        worst <= 1e-9 and negation_exact,
        f"max_err/2^n={worst:.3e} negation_exact={negation_exact}",
    )


def test_criterion_03_same_rule_at_every_resolution():
    worst = 0.0
    for n in range(1, 8):
        coarse = best_convolution_symbol(difference_operator(n)).coeffs
        fine = best_convolution_symbol(difference_operator(n + 1)).coeffs
        worst = max(worst, float(np.max(np.abs(coarse - fine[: 2**n]))))
    _report(
        3,
        "gamma rule agrees across resolutions, n=1..7",
        worst <= 1e-9,
        f"max_err={worst:.3e}",
    )


def test_criterion_04_symmetric_difference_projects_to_zero():
    worst = 0.0
    for n in range(1, 9):
        symbol = best_convolution_symbol(symmetric_difference_operator(n)).coeffs
        worst = max(worst, float(np.max(np.abs(symbol))))
    _report(
        4,
        "symmetric difference best symbol is 0, n=1..8",
        worst <= 1e-12,
        f"max_err={worst:.3e}",
    )


def test_criterion_05_antiderivative_projects_to_half_delta():
    worst = 0.0
    for n in range(1, 11):
        symbol = best_convolution_symbol(compressed_antiderivative(n)).coeffs
        expected = np.zeros(2**n)
        expected[0] = 0.5
        worst = max(worst, float(np.max(np.abs(symbol - expected))))
    _report(
        5,
        "antiderivative best symbol is (1/2, 0, ...), n=1..10",
        worst <= 1e-12,
        f"max_err={worst:.3e}",
    )


def test_criterion_06_optimality_margin():
    ok = True
    detail = []
    for n in range(2, 9):
        delta = difference_operator(n)
        e_optimal = approx_error(delta, gamma_symbol("optimal", n))
        e_bw = approx_error(delta, gamma_symbol("butzer_wagner", n))
        e_onneweer = approx_error(delta, gamma_symbol("onneweer", n))
        ok &= e_optimal < e_bw and e_optimal < e_onneweer
        rng = np.random.default_rng((42, n))
        scale = hs_norm(delta) / 2 ** (n / 2)
        for _ in range(100):
            random_symbol = ConvolutionSymbol(rng.standard_normal(2**n) * scale)
            ok &= e_optimal <= approx_error(delta, random_symbol)
        detail.append(f"n={n}:{e_optimal:.3f}<{min(e_bw, e_onneweer):.3f}")
    _report(6, "optimal symbol beats rivals, n=2..8", ok, " ".join(detail[:3]))


def test_criterion_07_sequency_of_gray_exhaustive():
    start = time.time()
    ok = True
    for n in range(1, 13):
        for k in range(2**n):
            if sequency(gray(k), n) != k:
                ok = False
                break
    elapsed = time.time() - start
    _report(
        7,
        "sequency(gray k, n)=k for k<2^n, n=1..12",
        ok and elapsed < 30.0,
        f"elapsed={elapsed:.2f}s",
    )


def test_criterion_08_transform_suite():
    worst_roundtrip = worst_naive = worst_parseval = worst_convolution = 0.0
    for n in range(1, 9):
        rng = np.random.default_rng((7, n))
        f = GridFunction(rng.uniform(-1, 1, 2**n))
        worst_naive = max(
            worst_naive,
            float(
                np.max(
                    np.abs(fwht_forward(f).coeffs - fwht_forward_naive(f).coeffs)
                )
            ),
        )
        s = WalshSpectrum(rng.uniform(-1, 1, 2**n))
        worst_naive = max(
            worst_naive,
            float(
                np.max(
                    np.abs(fwht_inverse(s).values - fwht_inverse_naive(s).values)
                )
            ),
        )
    for n in range(1, 13):
        rng = np.random.default_rng((8, n))
        f = GridFunction(rng.uniform(-1, 1, 2**n))
        back = fwht_inverse(fwht_forward(f)).values
        worst_roundtrip = max(worst_roundtrip, float(np.max(np.abs(back - f.values))))
        spec = fwht_forward(f).coeffs
        worst_parseval = max(
            worst_parseval, abs(float(np.mean(f.values**2) - np.sum(spec**2)))
        )
    rng = np.random.default_rng(9)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        f = GridFunction(rng.uniform(-1, 1, 2**n))
        g = GridFunction(rng.uniform(-1, 1, 2**n))
        conv = dyadic_convolve(f, g)
        product = fwht_forward(f).coeffs * fwht_forward(g).coeffs
        worst_convolution = max(
            worst_convolution,
            float(np.max(np.abs(fwht_forward(conv).coeffs - product))),
        )
        worst_convolution = max(
            worst_convolution,
            float(np.max(np.abs(conv.values - dyadic_convolve_naive(f, g).values))),
        )
    ok = (
        worst_roundtrip <= 1e-12
        and worst_naive <= 1e-12
        and worst_parseval <= 1e-12
        and worst_convolution <= 1e-12
    )
    _report(
        8,
        "transform suite (roundtrip, naive oracle, Parseval, convolution)",
        ok,
        f"roundtrip={worst_roundtrip:.2e} naive={worst_naive:.2e} "
        f"parseval={worst_parseval:.2e} conv={worst_convolution:.2e}",
    )


def test_criterion_09_sign_change_mask_identity():
    ok = True
    for n in range(1, 13):
        size = 2**n
        for j in range(size):
            x = GridPoint(j, n)
            predecessor = GridPoint((j - 1) % size, n)
            if dyadic_add(x, predecessor) != h_mask(last_set_position(x), n):
                ok = False
    _report(9, "x (+) (x - 2^-n mod 1) = tail mask, n=1..12 incl. x=0", ok)


def test_criterion_10_hilbert_schmidt_machinery():
    worst_conjugation = 0.0
    for n in range(1, 9):
        rng = np.random.default_rng((10, n))
        a = DenseOperator(rng.standard_normal((2**n, 2**n)))
        worst_conjugation = max(
            worst_conjugation,
            abs(hs_norm(a) - float(np.linalg.norm(walsh_conjugate(a), "fro"))),
        )
    worst_orthogonality = 0.0
    for n in range(1, 7):
        rng = np.random.default_rng((11, n))
        a = DenseOperator(rng.standard_normal((2**n, 2**n)))
        best = best_convolution_symbol(a)
        residual = DenseOperator(
            a.entries - dyadlab.best_approx.symbol_to_operator(best).entries
        )
        for _ in range(50):
            g = ConvolutionSymbol(rng.standard_normal(2**n))
            worst_orthogonality = max(
                worst_orthogonality,
                abs(hs_inner(residual, dyadlab.best_approx.symbol_to_operator(g))),
            )
    a = DenseOperator(np.random.default_rng(7).standard_normal((16, 16)))
    estimate = hs_norm_monte_carlo(a, 100_000, 42)
    true = hs_norm(a) ** 2
    mc_relative = abs(estimate - true) / true
    ok = (
        worst_conjugation <= 1e-12
        and worst_orthogonality <= 1e-10
        and mc_relative < 0.05
    )
    _report(
        10,
        "HS machinery (conjugation, residual orthogonality, Monte Carlo)",
        ok,
        f"conj={worst_conjugation:.2e} orth={worst_orthogonality:.2e} "
        f"mc_rel={mc_relative:.4f}",
    )


def test_criterion_11_cli_verify_contract(tmp_path, monkeypatch):
    out = tmp_path / "report.json"
    code = main(["verify", "--format", "json", "--out", str(out)])
    clean = json.loads(out.read_text())
    ok = code == 0 and clean["overall_pass"] is True

    # corrupting any closed-form constant by 1e-6 must flip the matching
    # check and the exit code
    flips = []

    true_translation = dyadlab.best_approx.translation_symbol_closed_form

    def corrupt_translation(n):
        coeffs = true_translation(n).coeffs.copy()
        coeffs[0] += 1e-6
        return ConvolutionSymbol(coeffs)

    true_gamma = dyadlab.best_approx.optimal_gamma
    true_antiderivative = dyadlab.operators.compressed_antiderivative

    def corrupt_antiderivative(n):
        entries = true_antiderivative(n).entries.copy()
        entries[0, 0] += 1e-6
        return DenseOperator(entries)

    corruptions = [
        (
            dyadlab.best_approx,
            "translation_symbol_closed_form",
            corrupt_translation,
            "translation_closed_form",
        ),
        (
            dyadlab.best_approx,
            "optimal_gamma",
            lambda m: true_gamma(m) + 1e-6,
            "difference_gamma_closed_form",
        ),
        (
            dyadlab.operators,
            "compressed_antiderivative",
            corrupt_antiderivative,
            "antiderivative_half_delta_symbol",
        ),
    ]
    for module, attribute, corrupted, check_name in corruptions:
        with monkeypatch.context() as patch:
            patch.setattr(module, attribute, corrupted)
            corrupted_out = tmp_path / f"report_{attribute}.json"
            corrupted_code = main(
                ["verify", "--format", "json", "--out", str(corrupted_out)]
            )
            payload = json.loads(corrupted_out.read_text())
            failed = {c["name"] for c in payload["checks"] if not c["pass"]}
            flips.append(corrupted_code == 1 and check_name in failed)
    ok = ok and all(flips)
    _report(
        11,
        "verify CLI exits 0 clean, 1 under corrupted constants",
        ok,
        f"clean_exit={code} flips={flips}",
    )
