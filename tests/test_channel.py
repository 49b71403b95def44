import math

import numpy as np
import pytest

from tfqkd.channel import (
    ArrivingIntensities,
    ChannelScenario,
    arriving_intensity,
    first_order_diagnostics,
    x_basis_gain,
    x_basis_qber,
    yield_grid,
    z_basis_gain,
)
from tfqkd.decoy import poisson_pmf_vector
from tfqkd.errors import DomainError, UnsupportedPhotonNumberError, ZeroGainError

from oracles import photon_path_yield, yield_nm_asymptotic


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
        assert arriving_intensity(0.1, 0.1) == pytest.approx(0.01, rel=1e-15)

    def test_vacuum_stays_vacuum(self):
        assert arriving_intensity(0.0, 0.5) == 0.0

    def test_with_db_conversion(self):
        assert arriving_intensity(0.2, 10.0 ** (-20.0 / 10.0)) == pytest.approx(0.002, rel=1e-12)

    def test_rejects_negative_input(self):
        with pytest.raises(DomainError):
            arriving_intensity(-0.1, 0.5)
        with pytest.raises(DomainError):
            ArrivingIntensities(-1e-3, 0.1)


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


class TestYields:
    def test_vacuum_cannot_click(self):
        assert yield_grid(scenario(), 0)[0, 0] == 0.0

    def test_single_photon_yield_is_half_transmittance(self):
        sc = scenario(eta_a=0.37, eta_b=0.81, e_d=0.07)
        grid = yield_grid(sc, 1)
        assert grid[1, 0] == pytest.approx(0.37 / 2.0, rel=1e-12)
        assert grid[0, 1] == pytest.approx(0.81 / 2.0, rel=1e-12)

    def test_two_photon_bunching(self):
        sc = ChannelScenario(eta_a=1.0, eta_b=1.0, p_d=0.0, e_d=0.0)
        assert yield_grid(sc, 1)[1, 1] == pytest.approx(0.5, abs=1e-12)

    def test_rejects_unsupported_photon_numbers(self):
        with pytest.raises(UnsupportedPhotonNumberError):
            yield_grid(scenario(), 21)
        with pytest.raises(DomainError):
            yield_grid(scenario(), -1)

    def test_matches_photon_path_oracle(self):
        # independent amplitude enumeration, including unequal arm angles
        angle_pairs = [(0.0, 0.0), (0.1418971, 0.1418971), (0.3, 0.1), (0.2, 0.5)]
        etas = [(1.0, 1.0), (0.7, 0.3), (0.25, 0.9)]
        for theta_a, theta_b in angle_pairs:
            e_d = math.sin(0.5 * (theta_a + theta_b)) ** 2
            for eta_a, eta_b in etas:
                grid = yield_grid(ChannelScenario(eta_a=eta_a, eta_b=eta_b, p_d=0.0, e_d=e_d), 4)
                for n_a in range(5):
                    for n_b in range(5 - n_a):
                        expected = photon_path_yield(eta_a, eta_b, theta_a, theta_b, n_a, n_b)
                        assert grid[n_a, n_b] == pytest.approx(expected, abs=1e-10)

    def test_swap_symmetry(self):
        grid = yield_grid(scenario(eta_a=0.2, eta_b=0.9, e_d=0.05), 3)
        swapped = yield_grid(scenario(eta_a=0.9, eta_b=0.2, e_d=0.05), 3)
        for n_a in range(4):
            for n_b in range(4):
                assert grid[n_a, n_b] == pytest.approx(swapped[n_b, n_a], rel=1e-12, abs=1e-15)

    def test_grid_agrees_with_scalar_evaluation(self):
        sc = scenario(eta_a=0.4, eta_b=0.8, e_d=0.03)
        grid = yield_grid(sc, 6)
        for n_a in range(7):
            for n_b in range(7):
                assert grid[n_a, n_b] == pytest.approx(yield_nm_asymptotic(sc, n_a, n_b), abs=1e-13)

    def test_poisson_mixture_reproduces_decoy_gain(self):
        # the Fock-state yields and the Bessel-form gain describe the same
        # channel, so mixing the yields with Poisson statistics must give
        # back the gain when dark counts are off
        sc = scenario(eta_a=0.37, eta_b=0.81, e_d=0.04)
        grid = yield_grid(sc, 20)
        for mu_a, mu_b in [(0.13, 0.27), (0.5, 0.02), (0.0, 0.3)]:
            pa = poisson_pmf_vector(mu_a, 21)
            pb = poisson_pmf_vector(mu_b, 21)
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
