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
from tfqkd.optimizer import EvaluationMode, ProtocolParameters, evaluate_key_rate
from tfqkd.security import (
    binary_entropy,
    cat_amplitude_rows,
    cat_state,
    key_rate,
    phase_error_upper_bound,
)

#: Against the scalar references as first written the amplitudes are the
#: same floats, and the sums add the same terms in the same order; but the
#: rows keep adding terms until the largest amplitude's fall below 1e-18,
#: where the reference stops at its own first term below 1e-18 of its sum.
#: Those extra terms change a sum by at most 3.5e-18 (measured over 27,001
#: amplitudes in [1e-9, 10]), which is up to 1.2e-12 of the odd sum of an
#: amplitude near 2e-6, so sums are compared at 1e-14 relative above a
#: 1e-17 absolute floor.  The bounds also multiply the parity-split rows
#: as stacks: measured 5.4e-13 relative over the draws of
#: TestMatchesReference and 6.2e-14 over 40,000 more such draws; they move
#: most where they are smallest, because the brackets cancel their leading
#: term T ~ 1 down to the bound's square root.
SUM_RELATIVE_TOLERANCE = 1e-14
SUM_ABSOLUTE_TOLERANCE = 1e-17
BOUND_RELATIVE_TOLERANCE = 1e-12


def _cat(alpha, size):
    """The memoised cat state of one amplitude as (amplitudes, even sum, odd sum)."""
    rows, sums = cat_state(alpha, size)
    return rows[0, 0] + rows[1, 0], float(sums[0, 0]), float(sums[1, 0])


def _last_amplitude(alpha):
    """n_max: the last photon number the truncation keeps (rows long enough to reach it)."""
    return int(np.flatnonzero(_cat(alpha, 60)[0])[-1])


def _bound(p_xx, alpha_a, alpha_b, matrix):
    """The phase-error rate bound as evaluate_key_rate forms it: one memoised cat state per side."""
    size = np.asarray(matrix).shape[0]
    gain = phase_error_upper_bound(cat_state(alpha_a, size), cat_state(alpha_b, size), matrix)
    return min(1.0, float(gain[0, 0]) / p_xx)


class TestCatCoefficients:
    """One row of cat_state is one cat state."""

    def test_vacuum_amplitude_is_the_even_state(self):
        row, even_sum, odd_sum = _cat(0.0, 2)
        assert list(row) == [1.0, 0.0]
        assert _last_amplitude(0.0) == 0
        assert even_sum == 1.0 and odd_sum == 0.0

    @pytest.mark.parametrize("size", [0, 1, 4, 9, 14, 40])
    def test_dense_interleaves_the_parity_amplitudes(self, size):
        cat = cat_coefficients_reference(0.9)
        assert cat.n_max == 13  # so the sizes fall short of, meet and pass the truncation
        expected = [(cat.even[n // 2] if n % 2 == 0 else cat.odd[n // 2]) if n <= cat.n_max else 0.0
                    for n in range(size)]
        assert _cat(0.9, size)[0].tobytes() == np.array(expected, dtype=float).tobytes()

    def test_leading_amplitude(self):
        row = _cat(math.sqrt(0.1), 2)[0]
        assert row[0] == pytest.approx(math.exp(-0.05), rel=1e-14)
        assert row[1] == pytest.approx(math.exp(-0.05) * math.sqrt(0.1), rel=1e-13)

    @pytest.mark.parametrize("alpha", [0.0, 0.05, math.sqrt(0.1), 0.5, 1.0, 2.0])
    def test_normalization(self, alpha):
        row = _cat(alpha, 40)[0]  # n_max is 25 at alpha = 2
        assert sum(c * c for c in row) == pytest.approx(1.0, abs=1e-12)

    def test_amplitudes_follow_poisson_recursion(self):
        n_max = _last_amplitude(0.7)
        row = _cat(0.7, n_max + 1)[0]
        rescaled = [row[n] * math.sqrt(math.factorial(n)) for n in range(n_max + 1)]
        # c_n = e^(-a^2/2) a^n / sqrt(n!), so the rescaled sequence is geometric
        for n in range(1, n_max + 1):
            assert rescaled[n] == pytest.approx(rescaled[n - 1] * 0.7, rel=1e-9)

    def test_rejects_out_of_regime_amplitudes(self):
        for alpha in (10.5, math.inf):
            with pytest.raises(UnsupportedAmplitudeError):
                cat_state(alpha, 21)
        # NaN used to pass both range tests and never leave the amplitude-sum loop
        for alpha in (-0.1, math.nan, -math.inf):
            with pytest.raises(DomainError) as error:
                cat_state(alpha, 21)
            assert not isinstance(error.value, UnsupportedAmplitudeError)

    def test_truncation_adapts_to_tolerance(self):
        loose = cat_coefficients_reference(0.8, 1e-6)
        _, even_sum, odd_sum = _cat(0.8, 21)
        assert _last_amplitude(0.8) > loose.n_max
        # the converged amplitude sums do not depend on the truncation
        assert even_sum == pytest.approx(loose.even_sum, rel=1e-14)
        assert odd_sum == pytest.approx(loose.odd_sum, rel=1e-14)


class TestCatAmplitudeRows:
    """The batched cat states are the reference ones, row by row."""

    ALPHAS = np.concatenate([[0.0, 0.01, math.sqrt(0.1)], np.linspace(0.05, 10.0, 60)])

    @pytest.mark.parametrize("size", [1, 2, 21, 40])
    def test_rows_are_the_dense_amplitudes_in_bits(self, size):
        batch = cat_amplitude_rows(self.ALPHAS, size)
        assert batch[0].shape == (2, len(self.ALPHAS), size) and batch[1].shape == (2, len(self.ALPHAS))
        # each parity row holds its own photon numbers only
        assert not batch[0][0, :, 1::2].any() and not batch[0][1, :, 0::2].any()
        for i, alpha in enumerate(self.ALPHAS):
            cat = cat_coefficients_reference(float(alpha))
            # alone, an amplitude's sums stop where its own terms vanish, not where the largest one's do
            alone = cat_amplitude_rows(self.ALPHAS[i:i + 1], size)
            for (rows, sums), k in ((batch, i), (alone, 0)):
                assert (rows[0, k] + rows[1, k]).tobytes() == cat.dense(size).tobytes()
                assert sums[0, k] == pytest.approx(cat.even_sum, rel=SUM_RELATIVE_TOLERANCE, abs=SUM_ABSOLUTE_TOLERANCE)
                assert sums[1, k] == pytest.approx(cat.odd_sum, rel=SUM_RELATIVE_TOLERANCE, abs=SUM_ABSOLUTE_TOLERANCE)

    def test_rejects_out_of_regime_amplitudes(self):
        with pytest.raises(UnsupportedAmplitudeError, match="amplitude 10.5 is far outside"):
            cat_amplitude_rows(np.array([0.1, 10.5]), 21)
        for alpha in (-0.1, math.nan):
            with pytest.raises(DomainError) as error:
                cat_amplitude_rows(np.array([0.1, alpha]), 21)
            assert not isinstance(error.value, UnsupportedAmplitudeError)


class TestCatMemo:
    """cat_state is memoised on the amplitude and the row length; its arrays are read-only."""

    @pytest.fixture(autouse=True)
    def cold_memo(self):
        cat_state.cache_clear()

    def test_repeated_amplitude_returns_the_same_instance(self):
        first = cat_state(0.3, 21)
        assert cat_state(0.3, 21) is first
        info = cat_state.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        assert info.maxsize is not None  # bounded, and with it the arrays it keeps

    def test_rows_are_read_only_and_built_once_per_size(self):
        state = cat_state(0.4, 21)
        assert cat_state(0.4, 21) is state
        short = cat_state(0.4, 3)
        assert short is not state
        assert short[0].tobytes() == np.ascontiguousarray(state[0][..., :3]).tobytes()
        for array in state + short:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.5

    def test_errors_are_not_cached(self):
        for _ in range(2):
            with pytest.raises(DomainError):
                cat_state(math.nan, 21)
        assert cat_state.cache_info().currsize == 0

    def test_memo_returns_the_uncached_floats(self):
        for state, fresh in zip(cat_state(0.4, 21), cat_amplitude_rows(np.array([0.4]), 21)):
            assert state.tobytes() == fresh.tobytes()


def _outcome(call):
    """The result, or the type of the error raised."""
    try:
        return call()
    except (DomainError, ZeroGainError) as error:
        return type(error)


def _assert_matches_reference(p_xx, alpha_a, alpha_b, matrix):
    size = matrix.shape[0]
    ref_a, ref_b = cat_coefficients_reference(alpha_a), cat_coefficients_reference(alpha_b)
    for alpha, ref in ((alpha_a, ref_a), (alpha_b, ref_b)):
        row, even_sum, odd_sum = _cat(alpha, size)
        assert row.tobytes() == ref.dense(size).tobytes()
        assert even_sum == pytest.approx(ref.even_sum, rel=SUM_RELATIVE_TOLERANCE, abs=SUM_ABSOLUTE_TOLERANCE)
        # for a tiny amplitude the reference's odd sum can be 0 where the row's is alpha e^(-alpha^2/2)
        assert odd_sum == pytest.approx(ref.odd_sum, rel=SUM_RELATIVE_TOLERANCE, abs=SUM_ABSOLUTE_TOLERANCE)
    expected = _outcome(lambda: phase_error_bound_reference(p_xx, ref_a, ref_b, matrix))
    # twice: the second call reads the cat states the first one memoised
    for _ in range(2):
        outcome = _outcome(lambda: _bound(p_xx, alpha_a, alpha_b, matrix))
        if isinstance(expected, type):
            assert outcome is expected
        else:
            assert outcome == pytest.approx(expected, rel=BOUND_RELATIVE_TOLERANCE, abs=0.0)


class TestMatchesReference:
    """The point bound agrees with the routines as first written."""

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
        # the reference raised at zero gain; the package's callers never divide by a zero gain
        # and report the trivial bound 1, which leaves no key
        with pytest.raises(ZeroGainError):
            phase_error_bound_reference(0.0, cat_coefficients_reference(0.3), cat_coefficients_reference(0.3),
                                        np.ones((3, 3)))
        dark = ChannelScenario(eta_a=0.01, eta_b=0.1, p_d=0.0, e_d=0.02)
        report = evaluate_key_rate(dark, ProtocolParameters(0.0, 0.0, 0.0, 0.0, 0.0, 0.0), EvaluationMode.asymptotic())
        assert (report.p_xx, report.e_zz_upper, report.rate) == (0.0, 1.0, 0.0)


ALPHA = math.sqrt(0.1)


def _target_bounds(*values):
    """3x3 bound matrix in the LP's layout: TARGET_PAIRS set, every other pair 1."""
    matrix = np.ones((3, 3))
    for (n, m), value in zip(TARGET_PAIRS, values):
        matrix[n, m] = value
    return matrix


class TestPhaseErrorBound:
    def test_fully_relaxed_bounds_collapse_to_coefficient_sums(self):
        _, even_sum, odd_sum = _cat(ALPHA, 3)
        p_xx = 0.09
        expected = ((even_sum * even_sum) ** 2 + (odd_sum * odd_sum) ** 2) / p_xx
        assert _bound(p_xx, ALPHA, ALPHA, np.ones((3, 3))) == pytest.approx(min(1.0, expected), rel=1e-12)

    def test_all_zero_bounds_leave_only_the_tail(self):
        c, even_sum, odd_sum = _cat(ALPHA, 3)
        p_xx = 0.09
        bounds = _target_bounds(0.0, 0.0, 0.0, 0.0, 0.0)
        covered_even = (c[0] + c[2]) * (c[0] + c[2])
        covered_odd = c[1] * c[1]
        expected = (
            (even_sum * even_sum - covered_even) ** 2
            + (odd_sum * odd_sum - covered_odd) ** 2
        ) / p_xx
        assert _bound(p_xx, ALPHA, ALPHA, bounds) == pytest.approx(expected, rel=1e-10)

    def test_monotone_in_every_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            values = rng.uniform(0.0, 1.0, 5)
            base = _bound(0.09, ALPHA, ALPHA, _target_bounds(*values))
            bump = values.copy()
            index = rng.integers(0, 5)
            bump[index] = min(1.0, bump[index] + rng.uniform(0.0, 0.3))
            bumped = _bound(0.09, ALPHA, ALPHA, _target_bounds(*bump))
            assert bumped >= base - 1e-13

    def test_monotone_in_tail(self):
        # pairs beyond TARGET_PAIRS (bounded by 1 from the LP) tighten the
        # bound when they are known better; a 5x5 matrix reaches the
        # same-parity pairs (3,1), (3,3), (4,0), (4,2), (4,4) that the
        # brackets read, and p_xx = 0.5 keeps both results below the clamp at 1
        loose = np.ones((5, 5))
        loose[:3, :3] = _target_bounds(0.1, 0.2, 0.2, 0.3, 0.1)
        tight = np.where(loose == 1.0, 0.5, loose)
        loose_bound = _bound(0.5, ALPHA, ALPHA, loose)
        tight_bound = _bound(0.5, ALPHA, ALPHA, tight)
        assert loose_bound < 1.0
        assert tight_bound < loose_bound - 1e-3

    def test_tighter_truncation_never_raises_the_bound(self):
        sc = ChannelScenario(eta_a=0.3, eta_b=0.9, p_d=0.0, e_d=0.02)
        grid = yield_grid(sc)
        p_xx = 0.01
        loose = phase_error_bound_reference(
            p_xx, cat_coefficients_reference(0.4, 1e-7), cat_coefficients_reference(0.3, 1e-7), grid,
        )
        tight = _bound(p_xx, 0.4, 0.3, grid)
        assert tight <= loose + 1e-12

    def test_zero_gain_is_a_no_key_event(self):
        # the trivial bound: h2(1/2) = 1 consumes the whole key, and the grid reports no key where nothing clicks
        assert key_rate(0.0, 0.0, 1.0) == 0.0
        dark = ChannelScenario(eta_a=0.01, eta_b=0.1, p_d=0.0, e_d=0.02)
        (rates,) = optimizer.asymptotic_rate_grid([dark], [[0.0, 0.1]], [[0.0, 0.01]])  # 0.1 and 0.01 arrive balanced
        assert rates[0, 0] == 0.0 and rates[1, 1] > 0.0

    def test_bound_rejects_invalid_yields(self):
        with pytest.raises(DomainError):
            _bound(0.09, ALPHA, ALPHA, _target_bounds(1.2, 0, 0, 0, 0))
        with pytest.raises(DomainError):
            _bound(0.09, ALPHA, ALPHA, np.full((3, 3), -0.1))
        with pytest.raises(DomainError):
            _bound(0.09, ALPHA, ALPHA, _target_bounds(math.nan, 0, 0, 0, 0))

    def test_a_mesh_is_its_pairs(self):
        # the grid's call and the point evaluation's calls of the one routine
        alphas = np.array([0.0, 0.05, ALPHA, 0.6, 1.0])
        grid = yield_grid(ChannelScenario(eta_a=0.01, eta_b=0.1, p_d=0.0, e_d=0.02))
        mesh = phase_error_upper_bound(cat_amplitude_rows(alphas, 21), cat_amplitude_rows(alphas[:4], 21), grid)
        assert mesh.shape == (5, 4)
        for i, alpha_a in enumerate(alphas):
            for j, alpha_b in enumerate(alphas[:4]):
                pair = phase_error_upper_bound(cat_state(alpha_a, 21), cat_state(alpha_b, 21), grid)
                assert mesh[i, j] == pytest.approx(pair[0, 0], rel=1e-12)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(data=st.data(), stack=st.integers(1, 4), n_a=st.integers(1, 4), n_b=st.integers(1, 4),
           size=st.sampled_from([3, 21]))
    def test_a_stack_is_its_slices_in_bits(self, data, stack, n_a, n_b, size):
        # the grid's stacked call, rows (2, S, N, size) against bounds (S, size, size), is one call per slice
        def draw(count, high):
            return np.array(data.draw(st.lists(st.floats(0.0, high), min_size=count, max_size=count)))

        rows, sums = cat_amplitude_rows(draw(stack * (n_a + n_b), 1.5), size)
        rows, sums = rows.reshape(2, stack, n_a + n_b, size), sums.reshape(2, stack, n_a + n_b)
        bounds = draw(stack * size * size, 1.0).reshape(stack, size, size)
        sides = (slice(n_a), slice(n_a, None))
        mesh = phase_error_upper_bound(*((rows[:, :, side], sums[:, :, side]) for side in sides), bounds)
        assert mesh.shape == (stack, n_a, n_b)
        for k in range(stack):
            cats_a, cats_b = ((rows[:, k, side].copy(), sums[:, k, side].copy()) for side in sides)
            assert mesh[k].tobytes() == phase_error_upper_bound(cats_a, cats_b, bounds[k].copy()).tobytes()

    def test_positive_key_at_symmetric_short_distance(self):
        # true yields at unit transmittance support a positive rate
        sc = ChannelScenario(eta_a=1.0, eta_b=1.0, p_d=0.0, e_d=0.02)
        gamma = ArrivingIntensities(0.1, 0.1)
        p_xx = x_basis_gain(sc, gamma)
        e_xx = x_basis_qber(sc, gamma)
        e_zz = _bound(p_xx, ALPHA, ALPHA, yield_grid(sc))
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
