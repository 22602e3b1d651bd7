"""Library-wide invariant suite behind the ``verify`` CLI command.

Every identity the package relies on is rechecked here at resolutions
1..n_max and reported as one (name, n, max_abs_error, tolerance, pass)
record.  Exact bit-level checks carry tolerance 0; floating-point checks
use the caller's tolerance (the closed-form difference-quotient check is
scaled by 2**n to match the operator's magnitude); the Monte-Carlo check
uses a fixed 5% relative tolerance.  All randomized checks draw from
generators seeded by (seed, check tag, n), so reports are byte-stable.
The fast transform, convolution and projection routes are compared with
the definition-level references in dyadlab.oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import best_approx, operators, oracles, walsh
from .dyadic import (
    GridPoint,
    bit_reversal_permutation,
    dyadic_add,
    gray,
    gray_inverse,
    h_mask,
    last_set_position,
    shift,
)

__all__ = ["CheckResult", "VerifyReport", "run_verification"]

DEFAULT_N_MAX = 8
DEFAULT_TOLERANCE = 1e-9
DEFAULT_SEED = 42
MC_RELATIVE_TOLERANCE = 0.05
MC_SAMPLES = 100_000


@dataclass(frozen=True)
class CheckResult:
    name: str
    n: int
    max_abs_error: float
    tolerance: float
    passed: bool


@dataclass
class VerifyReport:
    n_max: int
    seed: int
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def overall_pass(self) -> bool:
        return all(c.passed for c in self.checks)


def _rng(seed: int, tag: int, n: int) -> np.random.Generator:
    return np.random.default_rng((seed, tag, n))


# ---------------------------------------------------------------------------
# individual checks; each returns a max abs error (mismatch count for the
# exact bit-level ones)


def _check_gray_bijection(n, rng):
    size = 2**n
    images = [gray(k) for k in range(size)]
    bad = int(sorted(images) != list(range(size)))
    bad += sum(gray_inverse(gray(k)) != k for k in range(size))
    return float(bad)


def _check_shift_gray_commute(n, rng):
    return float(sum(shift(gray(k)) != gray(shift(k)) for k in range(2**n)))


def _check_tail_mask_identity(n, rng):
    size = 2**n
    bad = 0
    for j in range(size):
        x = GridPoint(j, n)
        predecessor = GridPoint((j - 1) % size, n)
        lhs = dyadic_add(x, predecessor)
        rhs = h_mask(last_set_position(x), n)
        bad += lhs != rhs
    return float(bad)


def _check_last_set_position_counts(n, rng):
    size = 2**n
    counts = np.zeros(n + 1, dtype=np.int64)
    for j in range(size):
        counts[last_set_position(GridPoint(j, n))] += 1
    bad = 0
    for r in range(1, n + 1):
        expected = 2 ** (r - 1) + (1 if r == 1 else 0)  # x = 0 lands at r = 1
        bad += counts[r] != expected
    return float(bad)


def _check_character_law(n, rng):
    w = walsh.walsh_matrix(n, dtype=np.int64)
    idx = np.arange(2**n)
    bad = 0
    for y in idx:
        bad += int(np.count_nonzero(w[:, idx ^ y] != w * w[:, [y]]))
    for m in idx:
        bad += int(np.count_nonzero(w[idx ^ m, :] != w * w[[m], :]))
    return float(bad)


def _check_orthonormality(n, rng):
    w = walsh.walsh_matrix(n)
    gram = (w @ w.T) * 2.0**-n
    return float(np.max(np.abs(gram - np.eye(2**n))))


def _check_parseval(n, rng):
    worst = 0.0
    for _ in range(3):
        f = walsh.GridFunction(rng.uniform(-1.0, 1.0, 2**n))
        s = walsh.fwht_forward(f)
        worst = max(
            worst,
            abs(float(np.mean(f.values**2) - np.sum(s.coeffs**2))),
        )
    return worst


def _check_fwht_vs_naive(n, rng):
    f = walsh.GridFunction(rng.uniform(-1.0, 1.0, 2**n))
    err = float(
        np.max(
            np.abs(
                walsh.fwht_forward(f).coeffs - oracles.fwht_forward_naive(f).coeffs
            )
        )
    )
    s = walsh.WalshSpectrum(rng.uniform(-1.0, 1.0, 2**n))
    err = max(
        err,
        float(
            np.max(
                np.abs(
                    walsh.fwht_inverse(s).values - oracles.fwht_inverse_naive(s).values
                )
            )
        ),
    )
    return err


def _check_fwht_roundtrip(n, rng):
    f = walsh.GridFunction(rng.uniform(-1.0, 1.0, 2**n))
    back = walsh.fwht_inverse(walsh.fwht_forward(f)).values
    return float(np.max(np.abs(back - f.values)))


def _check_convolution_theorem(n, rng):
    f = walsh.GridFunction(rng.uniform(-1.0, 1.0, 2**n))
    g = walsh.GridFunction(rng.uniform(-1.0, 1.0, 2**n))
    fast = walsh.dyadic_convolve(f, g)
    naive = oracles.dyadic_convolve_naive(f, g)
    err = float(np.max(np.abs(fast.values - naive.values)))
    product = walsh.fwht_forward(f).coeffs * walsh.fwht_forward(g).coeffs
    err = max(
        err, float(np.max(np.abs(walsh.fwht_forward(fast).coeffs - product)))
    )
    return err


def _check_sign_change_predicate(n, rng):
    size = 2**n
    w = walsh.walsh_matrix(n, dtype=np.int8)
    value_changes = w[:, 1:] != w[:, :-1]
    h_indices = np.array(
        [
            h_mask(last_set_position(GridPoint(j, n)), n).cell_index
            for j in range(1, size)
        ],
        dtype=np.int64,
    )
    rev_h = bit_reversal_permutation(n)[h_indices]
    ks = np.arange(size, dtype=np.int64)
    predicate = (np.bitwise_count(ks[:, None] & rev_h[None, :]) & 1).astype(bool)
    return float(np.count_nonzero(value_changes != predicate))


def _check_sequency_gray(n, rng):
    return float(
        sum(walsh.sequency(gray(k), n) != k for k in range(2**n))
    )


def _check_hs_conjugation(n, rng):
    a = operators.DenseOperator(rng.standard_normal((2**n, 2**n)))
    conjugated = operators.walsh_conjugate(a)
    return abs(operators.hs_norm(a) - float(np.linalg.norm(conjugated, "fro")))


def _check_translation_full_cycle(n, rng):
    t = operators.translation_operator(n, 2**n)
    return float(np.max(np.abs(t.entries - np.eye(2**n))))


def _check_difference_annihilates_constants(n, rng):
    ones = walsh.GridFunction(np.ones(2**n))
    worst = 0.0
    for orientation in operators.ORIENTATIONS:
        d = operators.difference_operator(n, orientation)
        worst = max(worst, float(np.max(np.abs(d.apply(ones).values))))
    return worst


def _check_antiderivative_row_sums(n, rng):
    a = operators.compressed_antiderivative(n)
    h = 2.0**-n
    expected = h * (np.arange(2**n) + 0.5)
    return float(np.max(np.abs(a.entries.sum(axis=1) - expected)))


def _named_closed_form_check(name):
    """Check that the projection of a named operator is its closed form.

    Both routes are measured: the dense builder's projection and the
    transform of the matrix-free fold that approx and compare read.
    """

    def check(n, rng):
        operator, closed = best_approx.named_problem(name, n)
        dense = best_approx.best_convolution_symbol(operator).coeffs
        fold, _ = best_approx.named_fold(name, n)
        fast = walsh.fwht_forward(walsh.GridFunction(fold)).coeffs
        return float(
            max(np.max(np.abs(dense - closed.coeffs)), np.max(np.abs(fast - closed.coeffs)))
        )

    return check


def _check_negated_orientation_symmetry(n, rng):
    backward = best_approx.best_convolution_symbol(
        operators.difference_operator(n, "backward_quotient")
    )
    negated = best_approx.best_convolution_symbol(
        operators.difference_operator(n, "negated_backward_quotient")
    )
    return float(np.max(np.abs(negated.coeffs + backward.coeffs)))


def _check_gamma_two_branch(n, rng):
    bad = 0
    for m in range(2**n):
        expected = 2.0 * m if m % 2 == 0 else 2.0 * (m + 1)
        bad += best_approx.optimal_gamma(m) != expected
    return float(bad)


def _check_projection_optimality(n, rng):
    a = operators.DenseOperator(rng.standard_normal((2**n, 2**n)))
    e_best = best_approx.approx_error(a, best_approx.best_convolution_symbol(a))
    e_random = min(
        best_approx.approx_error(
            a, best_approx.ConvolutionSymbol(rng.standard_normal(2**n))
        )
        for _ in range(100)
    )
    return max(0.0, e_best - e_random)


def _check_residual_orthogonality(n, rng):
    # The dense oracles on purpose: the library's O(N**2) XOR fold and
    # unfold round random float matrices differently in the last digits,
    # and this check's printed errors are pinned byte for byte.
    a = operators.DenseOperator(rng.standard_normal((2**n, 2**n)))
    projection = oracles.symbol_to_operator_naive(oracles.best_symbol_naive(a))
    residual = a.entries - projection.entries
    worst = 0.0
    for _ in range(20):
        g = best_approx.ConvolutionSymbol(rng.standard_normal(2**n))
        c_g = oracles.symbol_to_operator_naive(g).entries
        worst = max(worst, abs(float(np.sum(c_g * residual))))
    return worst


def _check_resolution_consistency(n, rng):
    # compares the gamma rule read off at resolution n with resolution n+1
    coarse = best_approx.best_convolution_symbol(
        operators.difference_operator(n, "backward_quotient")
    )
    fine = best_approx.best_convolution_symbol(
        operators.difference_operator(n + 1, "backward_quotient")
    )
    return float(np.max(np.abs(coarse.coeffs - fine.coeffs[: 2**n])))


def _check_mc_hs_identity(n, rng):
    a = operators.DenseOperator(rng.standard_normal((2**n, 2**n)))
    seed = int(rng.integers(0, 2**31))
    estimate = operators.hs_norm_monte_carlo(a, MC_SAMPLES, seed)
    true = operators.hs_norm(a) ** 2
    return abs(estimate - true) / true


# (name, function, cap on n, tolerance kind)
# kinds: exact -> 0, tol -> flag tolerance, tol_scaled -> tolerance * 2**n,
# mc -> fixed relative tolerance
_CHECKS = (
    ("gray_bijection", _check_gray_bijection, None, "exact"),
    ("shift_gray_commute", _check_shift_gray_commute, None, "exact"),
    ("tail_mask_identity", _check_tail_mask_identity, None, "exact"),
    ("last_set_position_counts", _check_last_set_position_counts, None, "exact"),
    ("character_law", _check_character_law, 6, "exact"),
    ("orthonormality", _check_orthonormality, 6, "tol"),
    ("parseval", _check_parseval, None, "tol"),
    ("fwht_vs_naive", _check_fwht_vs_naive, 8, "tol"),
    ("fwht_roundtrip", _check_fwht_roundtrip, None, "tol"),
    ("convolution_theorem", _check_convolution_theorem, 8, "tol"),
    ("sign_change_predicate", _check_sign_change_predicate, 10, "exact"),
    ("sequency_gray", _check_sequency_gray, None, "exact"),
    ("hs_conjugation_invariance", _check_hs_conjugation, 8, "tol"),
    ("translation_full_cycle", _check_translation_full_cycle, None, "exact"),
    (
        "difference_annihilates_constants",
        _check_difference_annihilates_constants,
        None,
        "tol",
    ),
    ("antiderivative_row_sums", _check_antiderivative_row_sums, None, "tol"),
    ("translation_closed_form", _named_closed_form_check("translation"), None, "tol"),
    (
        "difference_gamma_closed_form",
        _named_closed_form_check("difference"),
        None,
        "tol_scaled",
    ),
    (
        "negated_orientation_symmetry",
        _check_negated_orientation_symmetry,
        None,
        "tol",
    ),
    (
        "symmetric_difference_zero_symbol",
        _named_closed_form_check("symmetric-difference"),
        None,
        "tol",
    ),
    (
        "antiderivative_half_delta_symbol",
        _named_closed_form_check("antiderivative"),
        None,
        "tol",
    ),
    ("gamma_two_branch_consistency", _check_gamma_two_branch, None, "exact"),
    ("projection_optimality", _check_projection_optimality, 6, "tol"),
    ("residual_orthogonality", _check_residual_orthogonality, 6, "tol"),
)


def run_verification(
    n_max: int = DEFAULT_N_MAX,
    tolerance: float = DEFAULT_TOLERANCE,
    seed: int = DEFAULT_SEED,
) -> VerifyReport:
    """Run every invariant check at resolutions 1..n_max."""
    if not 1 <= n_max <= 10:
        raise ValueError("n_max must lie in [1, 10]")
    report = VerifyReport(n_max=n_max, seed=seed)

    def record(name, n, err, tol):
        report.checks.append(
            CheckResult(
                name=name,
                n=n,
                max_abs_error=float(err),
                tolerance=float(tol),
                passed=bool(err <= tol),
            )
        )

    for tag, (name, fn, cap, kind) in enumerate(_CHECKS):
        top = min(n_max, cap) if cap is not None else n_max
        for n in range(1, top + 1):
            err = fn(n, _rng(seed, tag, n))
            if kind == "exact":
                tol = 0.0
            elif kind == "tol_scaled":
                tol = tolerance * 2**n
            else:
                tol = tolerance
            record(name, n, err, tol)

    for n in range(1, n_max):
        err = _check_resolution_consistency(n, _rng(seed, len(_CHECKS), n))
        record("resolution_consistency", n, err, tolerance)

    n_mc = min(n_max, 4)
    err = _check_mc_hs_identity(n_mc, _rng(seed, len(_CHECKS) + 1, n_mc))
    record("mc_hs_identity", n_mc, err, MC_RELATIVE_TOLERANCE)

    return report
