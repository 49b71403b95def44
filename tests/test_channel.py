import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tfqkd import channel
from tfqkd.channel import (
    PHOTON_NUMBER_CAP,
    ArrivingIntensities,
    ChannelScenario,
    first_order_diagnostics,
    poisson_pmf_rows,
    x_basis_gain,
    x_basis_qber,
    yield_grid,
    z_basis_gain,
    z_basis_gains,
)
from tfqkd.errors import DomainError, ZeroGainError

from oracles import (
    binomial_pmf_matrix_reference,
    photon_path_yield,
    port_bunching_table_reference,
    x_basis_qber_reference,
    yield_nm_asymptotic,
    z_basis_gain_reference,
)

# A near-balanced pair at phi = pi whose QBER ratio rounds to 1 + 2^-52
BALANCED_AT_PI = (2.2620865017496965e-06, 2.262086501749698e-06)


@st.composite
def arriving_pairs(draw):
    """Arriving intensities, three in four near-balanced (gamma_b is gamma_a moved 0 to 6 ulps)."""
    # log-uniform, so that the low mantissa bits vary as they do in a sweep
    gamma_a = draw(st.one_of(st.just(0.0), st.floats(-12.0, 1.0).map(lambda e: 10.0**e)))
    if draw(st.integers(0, 3)) == 0:
        return gamma_a, draw(st.floats(0.0, 10.0))
    gamma_b = gamma_a
    for _ in range(draw(st.integers(0, 6))):
        gamma_b = math.nextafter(gamma_b, math.inf)
    return (gamma_a, gamma_b) if draw(st.booleans()) else (gamma_b, gamma_a)


def scenario(eta_a=1.0, eta_b=1.0, p_d=0.0, e_d=0.02, phi=0.0):
    return ChannelScenario(eta_a=eta_a, eta_b=eta_b, p_d=p_d, e_d=e_d, phi=phi)


class TestScenario:
    def test_misalignment_angle(self):
        sc = scenario(e_d=0.02)
        # cos(2*arcsin(sqrt(e))) = 1 - 2e exactly
        assert math.cos(sc.theta) == pytest.approx(0.96, rel=1e-12)
        assert sc.theta == pytest.approx(2.0 * math.asin(math.sqrt(0.02)))

    @pytest.mark.parametrize("kwargs", [
        dict(eta_a=0.0), dict(eta_a=1.2), dict(eta_b=-0.1),
        dict(p_d=1.0), dict(p_d=-1e-3), dict(e_d=1.0), dict(e_d=-0.1),
        # a non-finite phase used to pass and fail later with "QBER evaluated to nan"
        dict(phi=math.nan), dict(phi=math.inf),
    ])
    def test_rejects_invalid_parameters(self, kwargs):
        with pytest.raises(DomainError):
            scenario(**kwargs)


class TestArrivingIntensity:
    def test_direct_product(self):
        gamma = ArrivingIntensities.from_sources(scenario(eta_a=0.1, eta_b=0.5), 0.1, 0.3)
        assert gamma.gamma_a == pytest.approx(0.01, rel=1e-15)
        assert gamma.gamma_b == pytest.approx(0.15, rel=1e-15)

    def test_vacuum_stays_vacuum(self):
        assert ArrivingIntensities.from_sources(scenario(eta_a=0.5), 0.0, 0.0).gamma_a == 0.0

    def test_with_db_conversion(self):
        gamma = ArrivingIntensities.from_sources(scenario(eta_a=10.0 ** (-20.0 / 10.0)), 0.2, 0.0)
        assert gamma.gamma_a == pytest.approx(0.002, rel=1e-12)

    def test_rejects_negative_input(self):
        with pytest.raises(DomainError):
            ArrivingIntensities.from_sources(scenario(eta_a=0.5), -0.1, 0.1)
        with pytest.raises(DomainError):
            ArrivingIntensities(-1e-3, 0.1)

    # these used to pass, and x_basis_gain and z_basis_gain returned NaN
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_input(self, bad):
        with pytest.raises(DomainError):
            ArrivingIntensities.from_sources(scenario(eta_a=0.5), bad, 0.1)
        with pytest.raises(DomainError):
            ArrivingIntensities.from_sources(scenario(eta_b=0.5), 0.1, bad)
        with pytest.raises(DomainError):
            ArrivingIntensities(0.1, bad)


class TestXBasis:
    def test_no_light_no_dark_counts_no_clicks(self):
        assert x_basis_gain(scenario(p_d=0.0), ArrivingIntensities(0.0, 0.0)) == 0.0

    def test_dark_count_only_events(self):
        p_d = 0.013
        gain = x_basis_gain(scenario(p_d=p_d), ArrivingIntensities(0.0, 0.0))
        assert gain == pytest.approx(p_d * (1.0 - p_d), rel=1e-12)

    def test_small_intensity_gain_is_half_the_arriving_sum(self):
        sc = scenario(e_d=0.0)
        gamma = ArrivingIntensities(4e-4, 7e-4)
        gain = x_basis_gain(sc, gamma)
        assert gain == pytest.approx(0.5 * (4e-4 + 7e-4), rel=2e-3)

    def test_qber_vanishes_for_balanced_ideal_channels(self):
        sc = ChannelScenario(eta_a=1.0, eta_b=1.0, p_d=0.0, e_d=0.0)
        for value in (1e-3, 0.07, 0.3):
            assert x_basis_qber(sc, ArrivingIntensities(value, value)) <= 1e-14

    def test_qber_at_matched_small_intensities(self):
        sc = scenario()
        e = x_basis_qber(sc, ArrivingIntensities(0.01, 0.01))
        assert e == pytest.approx(0.02, abs=0.002)
        # first-order value is (1 - cos theta)/2
        assert e == pytest.approx(0.5 * (1.0 - math.cos(sc.theta)), abs=2e-3)

    def test_first_order_qber_at_tenfold_imbalance(self):
        sc = scenario()
        approx = first_order_diagnostics(sc, ArrivingIntensities(0.1, 0.01))
        expected = (0.5 * 11.0 - math.sqrt(10.0) * 0.96) / 11.0
        assert approx == pytest.approx(expected, rel=1e-12)
        assert approx == pytest.approx(0.224, abs=1e-3)

    def test_qber_undefined_at_zero_gain(self):
        with pytest.raises(ZeroGainError):
            x_basis_qber(scenario(p_d=0.0), ArrivingIntensities(0.0, 0.0))

    def test_overflow_names_the_arriving_intensities(self):
        # expm1 passes the float range beyond an argument of about 709.78; 1000.0 still evaluates
        sc = scenario()
        assert 0.0 <= x_basis_gain(sc, ArrivingIntensities(1000.0, 0.1)) <= 1.0
        for function in (x_basis_gain, x_basis_qber):
            with pytest.raises(DomainError, match=r"arriving intensities 1500\.0, 0\.1 overflow"):
                function(sc, ArrivingIntensities(1500.0, 0.1))

    def test_qber_minimized_at_balanced_arrival(self):
        sc = scenario()
        gamma_b = 0.05
        ratios = np.geomspace(0.2, 5.0, 31)
        errors = [x_basis_qber(sc, ArrivingIntensities(gamma_b * r, gamma_b)) for r in ratios]
        balanced = x_basis_qber(sc, ArrivingIntensities(gamma_b, gamma_b))
        assert balanced <= min(errors) + 1e-15

    def test_swap_symmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            ea, eb = rng.uniform(0.05, 1.0, 2)
            ga, gb = rng.uniform(0.0, 0.5, 2)
            ed = rng.uniform(0.0, 0.2)
            pd = rng.uniform(0.0, 1e-4)
            one = x_basis_gain(scenario(ea, eb, pd, ed), ArrivingIntensities(ga, gb))
            two = x_basis_gain(scenario(eb, ea, pd, ed), ArrivingIntensities(gb, ga))
            assert one == pytest.approx(two, rel=1e-12, abs=1e-15)

    def test_outputs_are_probabilities(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            sc = scenario(p_d=rng.uniform(0, 0.05), e_d=rng.uniform(0, 0.5), phi=rng.uniform(0, math.pi))
            gamma = ArrivingIntensities(rng.uniform(0, 2.0), rng.uniform(0, 2.0))
            gain = x_basis_gain(sc, gamma)
            assert 0.0 <= gain <= 1.0
            if gain > 0.0:
                assert 0.0 <= x_basis_qber(sc, gamma) <= 1.0

    @pytest.mark.parametrize("phi", [math.pi, -math.pi, 3.0 * math.pi])
    def test_qber_rounding_above_one_returns_one(self, phi):
        # the ratio rounds to 1 + 2^-52, which the gains' clamp rule makes 1
        assert x_basis_qber(scenario(e_d=0.0, phi=phi), ArrivingIntensities(*BALANCED_AT_PI)) == 1.0

    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(p_d=st.one_of(st.just(0.0), st.floats(1e-12, 0.1)),
           e_d=st.one_of(st.just(0.0), st.floats(0.0, 0.99, exclude_max=True)),
           phi=st.one_of(st.sampled_from([math.pi, -math.pi]), st.floats(-2.0 * math.pi, 2.0 * math.pi)),
           pair=arriving_pairs())
    @example(p_d=0.0, e_d=0.0, phi=math.pi, pair=BALANCED_AT_PI)
    @example(p_d=0.0, e_d=0.0, phi=-math.pi, pair=BALANCED_AT_PI[::-1])
    def test_qber_clamps_with_the_gains_rule(self, p_d, e_d, phi, pair):
        sc, gamma = scenario(p_d=p_d, e_d=e_d, phi=phi), ArrivingIntensities(*pair)
        probabilities = [x_basis_gain(sc, gamma), z_basis_gain(sc, gamma), first_order_diagnostics(sc, gamma)]
        try:
            expected = x_basis_qber_reference(sc, gamma)
        except ZeroGainError:  # no click can occur, so there is no QBER
            with pytest.raises(ZeroGainError):
                x_basis_qber(sc, gamma)
        except DomainError as error:
            assert "outside [0, 1]" in str(error)
            assert x_basis_qber(sc, gamma) == 1.0
        else:
            qber = x_basis_qber(sc, gamma)
            assert qber.hex() == expected.hex()
            probabilities.append(qber)
        assert all(0.0 <= value <= 1.0 for value in probabilities)


class TestZBasis:
    def test_dark_count_only_term_survives(self):
        p_d = 0.007
        gain = z_basis_gain(scenario(p_d=p_d), ArrivingIntensities(0.0, 0.0))
        assert gain == pytest.approx(p_d * (1.0 - p_d), rel=1e-12)

    def test_matched_decoy_value(self):
        sc = ChannelScenario(eta_a=1.0, eta_b=1.0, p_d=0.0, e_d=0.0)
        gain = z_basis_gain(sc, ArrivingIntensities(0.05, 0.05))
        assert gain == pytest.approx(0.046987, abs=1e-6)
        # independent evaluation of e^-0.05 I0(0.05) - e^-0.1
        from oracles import i0_reference
        expected = math.exp(-0.05) * i0_reference(0.05) - math.exp(-0.1)
        assert gain == pytest.approx(expected, rel=1e-12)

    def test_small_intensity_gain_is_half_the_arriving_sum(self):
        gain = z_basis_gain(scenario(), ArrivingIntensities(3e-4, 5e-4))
        assert gain == pytest.approx(0.5 * 8e-4, rel=2e-3)

    def test_swap_symmetry(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            ga, gb = rng.uniform(0.0, 0.6, 2)
            ed = rng.uniform(0.0, 0.3)
            one = z_basis_gain(scenario(e_d=ed), ArrivingIntensities(ga, gb))
            two = z_basis_gain(scenario(e_d=ed), ArrivingIntensities(gb, ga))
            assert one == pytest.approx(two, rel=1e-12, abs=1e-15)

    def test_overflow_names_the_arriving_intensities(self):
        # expm1(S/2) passes the float range beyond S of about 1419.6; at S = 1400 the
        # product with I0 overflows instead, which used to surface as a NaN gain
        sc = scenario()
        assert 0.0 <= z_basis_gain(sc, ArrivingIntensities(0.5, 1000.0)) <= 1.0
        for gamma_b in (1400.0, 2000.0):
            with pytest.raises(DomainError, match=rf"decoy arriving intensities 0\.5, {gamma_b} overflow"):
                z_basis_gain(sc, ArrivingIntensities(0.5, gamma_b))

    #: Arriving intensities: log-uniform ones, zeros, ones past the overflow near 1419.6 and, rarely, invalid ones.
    GAMMAS = st.one_of(st.just(0.0), st.floats(-12.0, 1.0).map(lambda e: 10.0**e), st.floats(0.0, 3000.0),
                       st.sampled_from([1400.0, 1e308, -0.5, math.nan, math.inf]))

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(p_d=st.one_of(st.just(0.0), st.floats(0.0, 0.01)), e_d=st.floats(0.0, 0.5),
           gammas_a=st.lists(GAMMAS, min_size=1, max_size=4), gammas_b=st.lists(GAMMAS, min_size=1, max_size=4))
    # repeated NaN arguments, each unequal to itself, behind a valid pair: the first NaN pair raises
    @example(p_d=0.0, e_d=0.02, gammas_a=[0.1, math.nan, math.nan], gammas_b=[0.1, 0.1])
    def test_array_gains_are_the_scalar_gains_in_bytes(self, p_d, e_d, gammas_a, gammas_b):
        # every pair of a broadcast grid has the bytes of the scalar routine as first written, and the
        # first pair in C order that the scalar routine rejects raises its error
        sc = scenario(p_d=p_d, e_d=e_d)
        expected, first_error = [], None
        for ga in gammas_a:
            for gb in gammas_b:
                try:
                    expected.append(z_basis_gain_reference(sc, ArrivingIntensities(ga, gb)))
                except DomainError as error:
                    first_error = first_error or str(error)
        if first_error is not None:
            with pytest.raises(DomainError) as excinfo:
                z_basis_gains(sc, np.array(gammas_a)[:, None], np.array(gammas_b))
            assert str(excinfo.value) == first_error
            return
        gains = z_basis_gains(sc, np.array(gammas_a)[:, None], np.array(gammas_b))
        assert gains.shape == (len(gammas_a), len(gammas_b))
        assert [value.hex() for value in gains.ravel().tolist()] == [value.hex() for value in expected]
        scalar = [z_basis_gain(sc, ArrivingIntensities(ga, gb)) for ga in gammas_a for gb in gammas_b]
        assert [value.hex() for value in scalar] == [value.hex() for value in expected]

    def test_the_bessel_series_runs_once_per_distinct_argument(self, monkeypatch):
        # a stack repeats most arguments sqrt(g_a g_b) cos(theta); each is summed once, with the same bits
        sc = scenario()
        gammas_a, gammas_b = np.array([0.1, 0.01, 0.0, 0.1, 0.01])[:, None], np.array([0.1, 0.01, 0.0])
        distinct = len(set((np.sqrt(gammas_a * gammas_b) * math.cos(sc.theta)).ravel().tolist()))
        series = mock.Mock(wraps=channel.i0m1)
        monkeypatch.setattr(channel, "i0m1", series)
        gains = z_basis_gains(sc, gammas_a, gammas_b)
        assert series.call_count == distinct == 4 < gains.size
        expected = [z_basis_gain_reference(sc, ArrivingIntensities(ga, gb)) for ga in gammas_a[:, 0] for gb in gammas_b]
        assert [value.hex() for value in gains.ravel().tolist()] == [value.hex() for value in expected]


class TestYields:
    def test_vacuum_cannot_click(self):
        assert yield_grid(scenario())[0, 0] == 0.0

    def test_single_photon_yield_is_half_transmittance(self):
        sc = scenario(eta_a=0.37, eta_b=0.81, e_d=0.07)
        grid = yield_grid(sc)
        assert grid[1, 0] == pytest.approx(0.37 / 2.0, rel=1e-12)
        assert grid[0, 1] == pytest.approx(0.81 / 2.0, rel=1e-12)

    def test_two_photon_bunching(self):
        sc = ChannelScenario(eta_a=1.0, eta_b=1.0, p_d=0.0, e_d=0.0)
        assert yield_grid(sc)[1, 1] == pytest.approx(0.5, abs=1e-12)

    def test_matches_photon_path_oracle(self):
        # independent amplitude enumeration, including unequal arm angles
        angle_pairs = [(0.0, 0.0), (0.1418971, 0.1418971), (0.3, 0.1), (0.2, 0.5)]
        etas = [(1.0, 1.0), (0.7, 0.3), (0.25, 0.9)]
        for theta_a, theta_b in angle_pairs:
            e_d = math.sin(0.5 * (theta_a + theta_b)) ** 2
            for eta_a, eta_b in etas:
                grid = yield_grid(ChannelScenario(eta_a=eta_a, eta_b=eta_b, p_d=0.0, e_d=e_d))
                for n_a in range(5):
                    for n_b in range(5 - n_a):
                        expected = photon_path_yield(eta_a, eta_b, theta_a, theta_b, n_a, n_b)
                        assert grid[n_a, n_b] == pytest.approx(expected, abs=1e-10)

    def test_swap_symmetry(self):
        grid = yield_grid(scenario(eta_a=0.2, eta_b=0.9, e_d=0.05))
        swapped = yield_grid(scenario(eta_a=0.9, eta_b=0.2, e_d=0.05))
        for n_a in range(4):
            for n_b in range(4):
                assert grid[n_a, n_b] == pytest.approx(swapped[n_b, n_a], rel=1e-12, abs=1e-15)

    def test_grid_agrees_with_scalar_evaluation(self):
        sc = scenario(eta_a=0.4, eta_b=0.8, e_d=0.03)
        grid = yield_grid(sc)
        for n_a in range(7):
            for n_b in range(7):
                assert grid[n_a, n_b] == pytest.approx(yield_nm_asymptotic(sc, n_a, n_b), abs=1e-13)

    def test_bunching_table_cache_is_bounded_and_changes_no_bit(self):
        # one 21x21 table per distinct e_d; an unbounded cache would grow with every misalignment seen
        table = channel._port_bunching_table
        sc = scenario(eta_a=0.4, eta_b=0.8, e_d=0.03)
        cached = yield_grid(sc)
        table.cache_clear()
        assert yield_grid(sc).tobytes() == cached.tobytes()
        for k in range(70):
            yield_grid(scenario(e_d=0.001 * (k + 1)))
        assert table.cache_info().currsize == table.cache_info().maxsize == 64

    def test_yield_grid_tables_hold_the_bytes_of_the_term_by_term_formulas(self):
        # the tables take their integers and powers from lists built once per call, with the operations
        # and the order of the direct formulas, so every entry keeps its bits
        rng = np.random.default_rng(28)
        cosines = [1.0, 0.0, 0.5, math.cos(2.0 * math.asin(math.sqrt(0.02))), *rng.uniform(0.0, 1.0, size=20)]
        for cos_theta in cosines:
            table = np.array(channel._port_bunching_table.__wrapped__(cos_theta))
            assert table.tobytes() == np.array(port_bunching_table_reference(cos_theta)).tobytes()
        etas = [0.0, 1.0, 1e-8, 0.5, 1.0 - 1e-12, *10.0 ** rng.uniform(-7.0, 0.0, size=51)]
        for eta in etas:
            for n_max in (PHOTON_NUMBER_CAP, 3):
                table = channel._binomial_pmf_matrix(n_max, eta)
                assert table.tobytes() == binomial_pmf_matrix_reference(n_max, eta).tobytes()

    def test_poisson_mixture_reproduces_decoy_gain(self):
        # the Fock-state yields and the Bessel-form gain describe the same
        # channel, so mixing the yields with Poisson statistics must give
        # back the gain when dark counts are off
        sc = scenario(eta_a=0.37, eta_b=0.81, e_d=0.04)
        grid = yield_grid(sc)
        for mu_a, mu_b in [(0.13, 0.27), (0.5, 0.02), (0.0, 0.3)]:
            pa, pb = poisson_pmf_rows([mu_a, mu_b], PHOTON_NUMBER_CAP + 1)
            mixture = float(pa @ grid @ pb)
            gain = z_basis_gain(sc, ArrivingIntensities.from_sources(sc, mu_a, mu_b))
            assert mixture == pytest.approx(gain, rel=1e-10, abs=1e-14)


class TestFirstOrderDiagnostics:
    def test_balanced_perfect_alignment_gives_zero_error(self):
        sc = ChannelScenario(eta_a=1.0, eta_b=1.0, p_d=0.0, e_d=0.0)
        e_xx = first_order_diagnostics(sc, ArrivingIntensities(0.05, 0.05))
        assert e_xx == pytest.approx(0.0, abs=1e-15)

    def test_balanced_misaligned_error(self):
        e_xx = first_order_diagnostics(scenario(), ArrivingIntensities(0.02, 0.02))
        assert e_xx == pytest.approx(0.02, rel=1e-10)

    def test_near_balanced_rounding_below_zero_returns_zero(self):
        # 0.5 * total - sqrt(ga * gb) rounds to a few ulps below 0 for this pair
        gamma = ArrivingIntensities(0.7362553161942322, 0.7362553161942323)
        assert first_order_diagnostics(scenario(e_d=0.0), gamma) == 0.0

    def test_zero_intensity_degenerate_case(self):
        e_xx = first_order_diagnostics(scenario(), ArrivingIntensities(0.0, 0.0))
        assert e_xx == 0.0

    def test_low_order_expansions_track_full_model(self):
        # within the small-intensity regime the expansion stays within 5%
        # relative of the full expression
        sc = scenario(p_d=0.0, phi=0.0)
        pairs = [(1e-3, 1e-3), (1e-3, 2e-4), (5e-4, 1e-4), (1e-4, 1e-4)]
        for ga, gb in pairs:
            gamma = ArrivingIntensities(ga, gb)
            full_e = x_basis_qber(sc, gamma)
            assert abs(first_order_diagnostics(sc, gamma) - full_e) / full_e <= 0.05
