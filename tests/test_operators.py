import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadlab.operators import (
    ORIENTATIONS,
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
from dyadlab.walsh import GridFunction


def random_operator(n, seed):
    rng = np.random.default_rng(seed)
    return DenseOperator(rng.standard_normal((2**n, 2**n)))


def test_dense_operator_validation():
    with pytest.raises(ValueError):
        DenseOperator(np.ones((3, 3)))
    with pytest.raises(ValueError):
        DenseOperator(np.ones((2, 4)))
    with pytest.raises(ValueError):
        DenseOperator(np.ones((1, 1)))
    a = DenseOperator(np.eye(8))
    assert a.resolution == 3


def test_apply_resolution_mismatch():
    a = DenseOperator(np.eye(4))
    with pytest.raises(ValueError):
        a.apply(GridFunction(np.ones(8)))


def test_translation_examples():
    assert np.array_equal(translation_operator(2, 0).entries, np.eye(4))
    assert np.array_equal(translation_operator(1, 1).entries, [[0, 1], [1, 0]])
    ones = GridFunction(np.ones(8))
    t = translation_operator(3, 1)
    assert np.array_equal(t.apply(ones).values, ones.values)


def test_translation_shifts_grid_values():
    f = GridFunction([1.0, 2.0, 3.0, 4.0])
    shifted = translation_operator(2, 1).apply(f)
    assert np.array_equal(shifted.values, [4.0, 1.0, 2.0, 3.0])
    shifted_back = translation_operator(2, -1).apply(f)
    assert np.array_equal(shifted_back.values, [2.0, 3.0, 4.0, 1.0])


@pytest.mark.parametrize("n", range(1, 8))
def test_translation_full_cycle(n):
    assert np.array_equal(translation_operator(n, 2**n).entries, np.eye(2**n))


def test_difference_examples():
    d = difference_operator(1)
    assert np.array_equal(d.entries, [[2, -2], [-2, 2]])
    negated = difference_operator(1, "negated_backward_quotient")
    assert np.array_equal(negated.entries, -d.entries)
    with pytest.raises(ValueError):
        difference_operator(2, "sideways")


@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("orientation", ORIENTATIONS)
def test_difference_annihilates_constants(n, orientation):
    d = difference_operator(n, orientation)
    out = d.apply(GridFunction(np.ones(2**n)))
    assert np.max(np.abs(out.values)) == 0.0


def test_difference_is_backward_quotient():
    f = GridFunction([1.0, 5.0, 2.0, 7.0])
    out = difference_operator(2).apply(f).values
    h = 0.25
    expected = [(1 - 7) / h, (5 - 1) / h, (2 - 5) / h, (7 - 2) / h]
    assert np.array_equal(out, expected)


def test_symmetric_difference_examples():
    assert np.array_equal(symmetric_difference_operator(1).entries, np.zeros((2, 2)))
    plus = translation_operator(2, 1).entries
    minus = translation_operator(2, -1).entries
    assert np.array_equal(
        symmetric_difference_operator(2).entries, 2.0 * (plus - minus)
    )
    out = symmetric_difference_operator(3).apply(GridFunction(np.ones(8)))
    assert np.max(np.abs(out.values)) == 0.0


def test_antiderivative_entries():
    j = compressed_antiderivative(1)
    assert np.array_equal(j.entries, [[0.25, 0.0], [0.5, 0.25]])
    j2 = compressed_antiderivative(2)
    h = 0.25
    expected = np.array(
        [
            [h / 2, 0, 0, 0],
            [h, h / 2, 0, 0],
            [h, h, h / 2, 0],
            [h, h, h, h / 2],
        ]
    )
    assert np.array_equal(j2.entries, expected)


@pytest.mark.parametrize("n", range(1, 11))
def test_antiderivative_row_sums(n):
    entries = compressed_antiderivative(n).entries
    h = 2.0**-n
    expected = h * (np.arange(2**n) + 0.5)
    assert np.array_equal(entries.sum(axis=1), expected)


@pytest.mark.parametrize("n", range(1, 9))
def test_named_builders_match_their_formulas_bit_for_bit(n):
    # the chained matrix formulas, signed zeros included: the negated
    # quotient carries -0.0 off its band, and the CLI prints "-0"
    size = 2**n
    h = 2.0**-n
    forward = translation_operator(n, 1).entries
    backward = translation_operator(n, -1).entries
    quotient = 2.0**n * (np.eye(size) - forward)
    pairs = [
        (difference_operator(n).entries, quotient),
        (difference_operator(n, "negated_backward_quotient").entries, -quotient),
        (symmetric_difference_operator(n).entries, 2.0 ** (n - 1) * (forward - backward)),
        (
            compressed_antiderivative(n).entries,
            np.tril(np.full((size, size), h), k=-1) + (h / 2) * np.eye(size),
        ),
    ]
    for built, formula in pairs:
        assert np.array_equal(built, formula)
        assert np.array_equal(np.signbit(built), np.signbit(formula))


def test_hs_inner_examples():
    for n in range(1, 6):
        eye = DenseOperator(np.eye(2**n))
        assert hs_inner(eye, eye) == 2**n
        perm = translation_operator(n, 1)
        assert hs_norm(perm) == pytest.approx(2 ** (n / 2), abs=1e-14)
    with pytest.raises(ValueError):
        hs_inner(DenseOperator(np.eye(4)), DenseOperator(np.eye(8)))


@given(st.integers(1, 5), st.integers(0, 10**9))
@settings(max_examples=40, deadline=None)
def test_hs_inner_symmetry(n, seed):
    rng = np.random.default_rng(seed)
    a = DenseOperator(rng.standard_normal((2**n, 2**n)))
    b = DenseOperator(rng.standard_normal((2**n, 2**n)))
    assert hs_inner(a, b) == pytest.approx(hs_inner(b, a), abs=1e-12)
    assert hs_norm(a) == pytest.approx(np.sqrt(hs_inner(a, a)), abs=1e-12)


@pytest.mark.parametrize("n", range(1, 9))
def test_walsh_conjugation_preserves_frobenius(n):
    a = random_operator(n, 500 + n)
    conjugated = walsh_conjugate(a)
    assert abs(hs_norm(a) - np.linalg.norm(conjugated, "fro")) <= 1e-12


def test_walsh_conjugate_diagonalizes_translation_at_n1():
    # at resolution 1 the swap is a convolution operator with eigenvalues 1, -1
    t = translation_operator(1, 1)
    assert np.allclose(walsh_conjugate(t), np.diag([1.0, -1.0]), atol=1e-15)


def test_monte_carlo_identity_operator():
    eye = DenseOperator(np.eye(16))
    for seed in (0, 42, 1234):
        assert hs_norm_monte_carlo(eye, 10, seed) == pytest.approx(16.0, abs=1e-10)


def test_monte_carlo_zero_operator():
    zero = DenseOperator(np.zeros((8, 8)))
    assert hs_norm_monte_carlo(zero, 100, 42) == 0.0


def test_monte_carlo_within_five_percent():
    a = random_operator(4, 7)
    estimate = hs_norm_monte_carlo(a, 100_000, 42)
    true = hs_norm(a) ** 2
    assert abs(estimate - true) / true < 0.05


def test_monte_carlo_deterministic_and_chunk_stable():
    a = random_operator(3, 11)
    assert hs_norm_monte_carlo(a, 5000, 9) == hs_norm_monte_carlo(a, 5000, 9)
    with pytest.raises(ValueError):
        hs_norm_monte_carlo(a, 0, 9)


def test_monte_carlo_error_shrinks_over_decades():
    # observed on this fixed operator and seed family; nested sampling makes
    # the decade estimates reuse the earlier draws
    a = random_operator(4, 7)
    true = hs_norm(a) ** 2
    errors = [
        abs(hs_norm_monte_carlo(a, samples, 42) - true) / true
        for samples in (10**3, 10**4, 10**5)
    ]
    assert errors[0] > errors[1] > errors[2]
