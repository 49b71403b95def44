import dataclasses
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import cat_coefficients_reference, key_rate_reference, phase_error_bound_reference
from tfqkd import optimizer
from tfqkd.channel import ArrivingIntensities, ChannelScenario, x_basis_gain, x_basis_qber, yield_grid
from tfqkd.decoy import TARGET_PAIRS
from tfqkd.errors import DomainError, UnsupportedAmplitudeError, ZeroGainError
from tfqkd.security import (
    DEFAULT_TAIL_TOLERANCE,
    binary_entropy,
    cat_amplitude_rows,
    cat_coefficients,
    key_rate,
    phase_error_bound_from_matrix,
)


class TestCatCoefficients:
    def test_vacuum_amplitude_is_the_even_state(self):
        cat = cat_coefficients(0.0)
        assert cat.even[0] == 1.0
        assert cat.n_max == 0
        assert list(cat.dense(2)) == [1.0, 0.0]
        assert cat.odd_sum == 0.0

    @pytest.mark.parametrize("size", [0, 1, 4, 9, 14, 40])
    def test_dense_interleaves_the_parity_amplitudes(self, size):
        cat = cat_coefficients(0.9)
        assert cat.n_max == 13  # so the sizes fall short of, meet and pass the truncation
        expected = [(cat.even[n // 2] if n % 2 == 0 else cat.odd[n // 2]) if n <= cat.n_max else 0.0
                    for n in range(size)]
        assert cat.dense(size).tobytes() == np.array(expected, dtype=float).tobytes()

    def test_leading_amplitude(self):
        cat = cat_coefficients(math.sqrt(0.1))
        assert cat.even[0] == pytest.approx(math.exp(-0.05), rel=1e-14)
        assert cat.odd[0] == pytest.approx(math.exp(-0.05) * math.sqrt(0.1), rel=1e-13)

    @pytest.mark.parametrize("alpha", [0.0, 0.05, math.sqrt(0.1), 0.5, 1.0, 2.0])
    def test_normalization(self, alpha):
        cat = cat_coefficients(alpha)
        mass = sum(c * c for c in cat.even) + sum(c * c for c in cat.odd)
        assert mass == pytest.approx(1.0, abs=1e-12)

    def test_amplitudes_follow_poisson_recursion(self):
        cat = cat_coefficients(0.7)
        dense = cat.dense(cat.n_max + 1)
        rescaled = [dense[n] * math.sqrt(math.factorial(n)) for n in range(cat.n_max + 1)]
        # c_n = e^(-a^2/2) a^n / sqrt(n!), so the rescaled sequence is geometric
        for n in range(1, cat.n_max + 1):
            assert rescaled[n] == pytest.approx(rescaled[n - 1] * 0.7, rel=1e-9)

    def test_rejects_out_of_regime_amplitudes(self):
        with pytest.raises(UnsupportedAmplitudeError):
            cat_coefficients(10.5)
        with pytest.raises(DomainError):
            cat_coefficients(-0.1)
        # NaN used to pass both range tests and never leave the amplitude-sum loop
        for alpha in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                cat_coefficients(alpha)

    def test_truncation_adapts_to_tolerance(self):
        loose = cat_coefficients_reference(0.8, 1e-6)
        tight = cat_coefficients(0.8)
        assert tight.n_max > loose.n_max
        # the converged amplitude sums do not depend on the truncation
        assert tight.even_sum == pytest.approx(loose.even_sum, rel=1e-14)
        assert tight.odd_sum == pytest.approx(loose.odd_sum, rel=1e-14)


class TestCatAmplitudeRows:
    """The batched cat states are the scalar ones, row by row."""

    ALPHAS = np.concatenate([[0.0, 0.01, math.sqrt(0.1)], np.linspace(0.05, 10.0, 60)])

    @pytest.mark.parametrize("size", [1, 2, 21, 40])
    def test_rows_are_the_dense_amplitudes_in_bits(self, size):
        batch = cat_amplitude_rows(self.ALPHAS, size)
        assert batch[0].shape == (len(self.ALPHAS), size)
        for i, alpha in enumerate(self.ALPHAS):
            cat = cat_coefficients(float(alpha))
            # alone, an amplitude's sums stop where its own terms vanish, not where the largest one's do
            alone = cat_amplitude_rows(self.ALPHAS[i:i + 1], size)
            for rows, even_sums, odd_sums, k in ((*batch, i), (*alone, 0)):
                assert rows[k].tobytes() == cat.dense(size).tobytes()
                assert even_sums[k] == pytest.approx(cat.even_sum, rel=1e-14)
                assert odd_sums[k] == pytest.approx(cat.odd_sum, rel=1e-14, abs=0.0)

    def test_rejects_out_of_regime_amplitudes(self):
        for alpha in (10.5, -0.1, math.nan):
            with pytest.raises(DomainError):
                cat_amplitude_rows(np.array([0.1, alpha]), 21)


class TestCatMemo:
    """cat_coefficients is memoised; cached instances keep read-only parity vectors."""

    @pytest.fixture(autouse=True)
    def cold_memo(self):
        cat_coefficients.cache_clear()

    def test_repeated_amplitude_returns_the_same_instance(self):
        first = cat_coefficients(0.3)
        assert cat_coefficients(0.3) is first
        info = cat_coefficients.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        assert info.maxsize is not None  # bounded, and with it the parity vectors

    def test_parity_vectors_are_read_only_and_built_once_per_size(self):
        cat = cat_coefficients(0.4)
        even, odd = cat.parity_vectors(21)
        assert cat.parity_vectors(21)[0] is even
        assert cat.parity_vectors(3)[0] is not even
        for vector in (even, odd):
            with pytest.raises(ValueError, match="read-only"):
                vector[0] = 0.5
        assert np.array_equal(even + odd, cat.dense(21))
        assert not even[1::2].any() and not odd[0::2].any()

    def test_errors_are_not_cached(self):
        for _ in range(2):
            with pytest.raises(DomainError):
                cat_coefficients(math.nan)
        assert cat_coefficients.cache_info().currsize == 0

    def test_parity_cache_does_not_change_equality(self):
        cat = cat_coefficients(0.4)
        fresh = cat_coefficients_reference(0.4)
        cat.parity_vectors(21)
        assert cat == fresh and hash(cat) == hash(fresh)


def _float_bytes(value):
    return struct.pack("<d", value)


def _outcome(call):
    """The result's float bytes, or the type of the error raised."""
    try:
        return _float_bytes(call())
    except (DomainError, ZeroGainError) as error:
        return type(error)


def _cat_bytes(cat):
    return tuple(
        tuple(_float_bytes(v) for v in value) if isinstance(value, tuple) else value
        for value in (getattr(cat, f.name) for f in dataclasses.fields(cat) if f.compare)
    )


def _assert_matches_reference(p_xx, alpha_a, alpha_b, matrix):
    cat_a, cat_b = cat_coefficients(alpha_a), cat_coefficients(alpha_b)
    ref_a = cat_coefficients_reference(alpha_a, DEFAULT_TAIL_TOLERANCE)
    ref_b = cat_coefficients_reference(alpha_b, DEFAULT_TAIL_TOLERANCE)
    assert _cat_bytes(cat_a) == _cat_bytes(ref_a)
    assert _cat_bytes(cat_b) == _cat_bytes(ref_b)
    expected = _outcome(lambda: phase_error_bound_reference(p_xx, ref_a, ref_b, matrix))
    # twice: the second call reads the parity vectors the first one cached
    for _ in range(2):
        assert _outcome(lambda: phase_error_bound_from_matrix(p_xx, cat_a, cat_b, matrix)) == expected


class TestMatchesReference:
    """The memoised routines return the same float bytes as the routines as first written."""

    amplitudes = st.floats(0.0, 1.0)
    gains = st.floats(1e-9, 1.0)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(alpha_a=amplitudes, alpha_b=amplitudes, p_xx=gains,
           size=st.sampled_from((3, 21)), seed=st.integers(0, 2**32 - 1),
           bad=st.sampled_from((None, math.nan, -5e-324, 1.0000000000000002)))
    def test_random_bound_matrices(self, alpha_a, alpha_b, p_xx, size, seed, bad):
        rng = np.random.default_rng(seed)
        matrix = rng.uniform(0.0, 1.0, (size, size))
        exact = rng.integers(0, 4, (size, size))  # a quarter each pinned at exactly 0 and 1
        matrix[exact == 0] = 0.0
        matrix[exact == 1] = 1.0
        if bad is not None:
            matrix[rng.integers(size), rng.integers(size)] = bad
        _assert_matches_reference(p_xx, alpha_a, alpha_b, matrix)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(alpha_a=amplitudes, alpha_b=amplitudes, p_xx=gains,
           eta_a=st.floats(1e-6, 1.0), eta_b=st.floats(1e-6, 1.0), e_d=st.floats(0.0, 0.1))
    def test_true_yield_grids(self, alpha_a, alpha_b, p_xx, eta_a, eta_b, e_d):
        grid = optimizer._true_yield_grid(ChannelScenario(eta_a=eta_a, eta_b=eta_b, p_d=1e-8, e_d=e_d))
        _assert_matches_reference(p_xx, alpha_a, alpha_b, grid)

    def test_empty_matrix_and_zero_gain(self):
        _assert_matches_reference(0.1, 0.3, 0.3, np.ones((0, 0)))
        _assert_matches_reference(0.0, 0.3, 0.3, np.ones((3, 3)))


def _nominal_cats():
    cat = cat_coefficients(math.sqrt(0.1))
    return cat, cat


def _target_bounds(*values):
    """3x3 bound matrix in the LP's layout: TARGET_PAIRS set, every other pair 1."""
    matrix = np.ones((3, 3))
    for (n, m), value in zip(TARGET_PAIRS, values):
        matrix[n, m] = value
    return matrix


class TestPhaseErrorBound:
    def test_fully_relaxed_bounds_collapse_to_coefficient_sums(self):
        cat_a, cat_b = _nominal_cats()
        p_xx = 0.09
        expected = (
            (cat_a.even_sum * cat_b.even_sum) ** 2 + (cat_a.odd_sum * cat_b.odd_sum) ** 2
        ) / p_xx
        result = phase_error_bound_from_matrix(p_xx, cat_a, cat_b, np.ones((3, 3)))
        assert result == pytest.approx(min(1.0, expected), rel=1e-12)

    def test_all_zero_bounds_leave_only_the_tail(self):
        cat_a, cat_b = _nominal_cats()
        p_xx = 0.09
        bounds = _target_bounds(0.0, 0.0, 0.0, 0.0, 0.0)
        covered_even = (cat_a.even[0] + cat_a.even[1]) * (cat_b.even[0] + cat_b.even[1])
        covered_odd = cat_a.odd[0] * cat_b.odd[0]
        expected = (
            (cat_a.even_sum * cat_b.even_sum - covered_even) ** 2
            + (cat_a.odd_sum * cat_b.odd_sum - covered_odd) ** 2
        ) / p_xx
        assert phase_error_bound_from_matrix(p_xx, cat_a, cat_b, bounds) == pytest.approx(expected, rel=1e-10)

    def test_monotone_in_every_bound(self):
        cat_a, cat_b = _nominal_cats()
        rng = np.random.default_rng(3)
        for _ in range(40):
            values = rng.uniform(0.0, 1.0, 5)
            base = phase_error_bound_from_matrix(0.09, cat_a, cat_b, _target_bounds(*values))
            bump = values.copy()
            index = rng.integers(0, 5)
            bump[index] = min(1.0, bump[index] + rng.uniform(0.0, 0.3))
            bumped = phase_error_bound_from_matrix(0.09, cat_a, cat_b, _target_bounds(*bump))
            assert bumped >= base - 1e-13

    def test_monotone_in_tail(self):
        # pairs beyond TARGET_PAIRS (bounded by 1 from the LP) tighten the
        # bound when they are known better; a 5x5 matrix reaches the
        # same-parity pairs (3,1), (3,3), (4,0), (4,2), (4,4) that the
        # brackets read, and p_xx = 0.5 keeps both results below the clamp at 1
        cat_a, cat_b = _nominal_cats()
        loose = np.ones((5, 5))
        loose[:3, :3] = _target_bounds(0.1, 0.2, 0.2, 0.3, 0.1)
        tight = np.where(loose == 1.0, 0.5, loose)
        loose_bound = phase_error_bound_from_matrix(0.5, cat_a, cat_b, loose)
        tight_bound = phase_error_bound_from_matrix(0.5, cat_a, cat_b, tight)
        assert loose_bound < 1.0
        assert tight_bound < loose_bound - 1e-3

    def test_tighter_truncation_never_raises_the_bound(self):
        sc = ChannelScenario(eta_a=0.3, eta_b=0.9, p_d=0.0, e_d=0.02)
        grid = yield_grid(sc, 20)
        p_xx = 0.01
        loose = phase_error_bound_from_matrix(
            p_xx, cat_coefficients_reference(0.4, 1e-7), cat_coefficients_reference(0.3, 1e-7), grid,
        )
        tight = phase_error_bound_from_matrix(p_xx, cat_coefficients(0.4), cat_coefficients(0.3), grid)
        assert tight <= loose + 1e-12

    def test_zero_gain_is_a_no_key_event(self):
        cat_a, cat_b = _nominal_cats()
        with pytest.raises(ZeroGainError):
            phase_error_bound_from_matrix(0.0, cat_a, cat_b, np.ones((3, 3)))

    def test_bound_rejects_invalid_yields(self):
        cat_a, cat_b = _nominal_cats()
        with pytest.raises(DomainError):
            phase_error_bound_from_matrix(0.09, cat_a, cat_b, _target_bounds(1.2, 0, 0, 0, 0))
        with pytest.raises(DomainError):
            phase_error_bound_from_matrix(0.09, cat_a, cat_b, np.full((3, 3), -0.1))
        with pytest.raises(DomainError):
            phase_error_bound_from_matrix(0.09, cat_a, cat_b, _target_bounds(math.nan, 0, 0, 0, 0))

    def test_positive_key_at_symmetric_short_distance(self):
        # true yields at unit transmittance support a positive rate
        sc = ChannelScenario(eta_a=1.0, eta_b=1.0, p_d=0.0, e_d=0.02)
        gamma = ArrivingIntensities(0.1, 0.1)
        p_xx = x_basis_gain(sc, gamma)
        e_xx = x_basis_qber(sc, gamma)
        cat = cat_coefficients(math.sqrt(0.1))
        e_zz = phase_error_bound_from_matrix(p_xx, cat, cat, yield_grid(sc, 20))
        assert 0.0 < e_zz < 0.5
        assert key_rate(p_xx, e_xx, e_zz) > 0.0


class TestBinaryEntropy:
    def test_known_values(self):
        assert binary_entropy(0.5) == 1.0
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.11) == pytest.approx(0.4999159581, abs=1e-9)

    def test_symmetry(self):
        for x in (0.01, 0.2, 0.37):
            assert binary_entropy(x) == pytest.approx(binary_entropy(1.0 - x), rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            binary_entropy(-0.01)
        with pytest.raises(DomainError):
            binary_entropy(1.01)


class TestKeyRate:
    def test_maximal_errors_consume_everything(self):
        assert key_rate(0.03, 0.5, 0.5) == 0.0

    def test_noiseless_limit(self):
        assert key_rate(0.03, 0.0, 0.0, basis_weight=0.25) == pytest.approx(2 * 0.25 * 0.03)

    def test_worked_example(self):
        assert key_rate(0.01, 0.02, 0.05) == pytest.approx(0.0114433, abs=1e-6)

    def test_error_rates_beyond_half_give_no_key(self):
        assert key_rate(0.03, 0.02, 0.9) == 0.0
        assert key_rate(0.03, 0.7, 0.01) == 0.0

    def test_linear_in_gain(self):
        one = key_rate(0.01, 0.02, 0.05)
        three = key_rate(0.03, 0.02, 0.05)
        assert three == pytest.approx(3.0 * one, rel=1e-12)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(p_xx=st.floats(0.0, 1.0), e_xx=st.floats(0.0, 1.0), e_zz=st.floats(0.0, 1.0),
           weight=st.sampled_from([1.0, 0.25]) | st.floats(0.0, 1.0))
    def test_matches_the_parameterised_form_in_bits(self, p_xx, e_xx, e_zz, weight):
        # the reference at its defaults: two click patterns, error-correction factor 1
        mine = key_rate(p_xx, e_xx, e_zz, basis_weight=weight)
        assert struct.pack("<d", mine) == struct.pack("<d", key_rate_reference(p_xx, e_xx, e_zz, basis_weight=weight))

    def test_rejects_invalid_inputs(self):
        with pytest.raises(DomainError):
            key_rate(-0.1, 0.0, 0.0)
        with pytest.raises(DomainError):
            key_rate(0.1, 0.0, 0.0, basis_weight=1.4)
        # a NaN gain would give a NaN rate, an infinite one an infinite rate
        for gain in (math.nan, math.inf):
            with pytest.raises(DomainError):
                key_rate(gain, 0.01, 0.01)
