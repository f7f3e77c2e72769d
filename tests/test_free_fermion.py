import math

import numpy as np
import pytest

import trispin as ts
from trispin.correlations import two_point_connected
from trispin.free_fermion import CorrelationSeries, correlation_length


class TestDispersion:
    def test_flat_at_zero_field(self):
        lam = ts.Dispersion(0.0)
        r = np.linspace(-np.pi, np.pi, 201)
        assert np.max(np.abs(lam(r) - 1.0)) < 1e-14

    def test_lower_bound_and_minimum_location(self):
        for b in (0.2, 0.7, 1.0, 1.6):
            lam = ts.Dispersion(b)
            r = np.linspace(-np.pi, np.pi, 2001)
            assert np.min(lam(r)) >= lam.minimum() - 1e-12
            assert abs(lam(np.pi) - lam.minimum()) < 1e-12


class TestEnergyGap:
    def test_zero_field(self):
        assert ts.energy_gap(0.0) == 2.0

    def test_critical_fields(self):
        assert ts.energy_gap(1.0) == 0.0
        assert ts.energy_gap(-1.0) == 0.0

    def test_depends_on_magnitude_only(self):
        assert ts.energy_gap(0.7) == ts.energy_gap(-0.7)

    def test_matches_finite_size_extrapolation(self):
        # Momentum quantization alternates with n mod 4, so extrapolate the
        # two parity subsequences separately (Richardson in 1/n^2).
        gaps = {n: ts.spectral_gap(ts.cluster_hamiltonian(n, 0.5)) for n in (8, 10, 12, 14)}

        def richardson(n1, n2):
            return (gaps[n2] * n2**2 - gaps[n1] * n1**2) / (n2**2 - n1**2)

        estimate = 0.5 * (richardson(8, 12) + richardson(10, 14))
        assert abs(estimate - ts.energy_gap(0.5)) / ts.energy_gap(0.5) < 0.05


class TestCzzAnalytic:
    def test_separation_validation(self):
        with pytest.raises(ValueError):
            ts.czz_analytic(0.5, 1)

    @pytest.mark.parametrize("b", [math.inf, -math.inf, math.nan])
    def test_non_finite_field_rejected(self, b):
        with pytest.raises(ValueError, match="finite"):
            ts.czz_analytic(b, 4)

    def test_zero_field_vanishes(self):
        # at B=0 the sin and cos quadratures cancel exactly (both 1/2 at L=3,
        # both 0 elsewhere), matching the stabilizer ground state
        for L in range(2, 9):
            assert abs(ts.czz_analytic(0.0, L)) < 1e-9

    def test_matches_ring_diagonalization(self):
        for b in (0.3, 0.5):
            _, gs = ts.ground_state(ts.cluster_hamiltonian(14, b))
            for L in (3, 4, 5, 6):
                ed = two_point_connected(gs, "z", "z", 0, L - 1)
                assert abs(ts.czz_analytic(b, L) - ed) < 2e-2

    def test_strong_field_exponential_ratio(self):
        # even-L values vanish identically; compare odd separations
        vals = [ts.czz_analytic(2.0, L) for L in (21, 23, 25, 27, 29, 31)]
        ratios = [vals[i + 1] / vals[i] for i in range(len(vals) - 1)]
        assert all(0.0 < r < 1.0 for r in ratios)
        assert abs(ratios[-1] - ratios[-2]) < 0.05


def synthetic_series(fn, lengths):
    return CorrelationSeries(list(lengths), [fn(L) for L in lengths])


class TestCorrelationLength:
    def test_pure_exponential(self):
        est = correlation_length(synthetic_series(lambda L: math.exp(-L / 3.0), range(1, 21)))
        assert est.model == "exponential"
        assert abs(est.xi - 3.0) < 1e-6

    def test_pure_power_law(self):
        est = correlation_length(synthetic_series(lambda L: L**-2.0, range(1, 21)))
        assert est.model == "power_law"
        assert est.diverges

    def test_constant_series_diverges(self):
        est = correlation_length(synthetic_series(lambda L: 0.93, range(1, 11)))
        assert est.diverges

    def test_all_below_floor(self):
        with pytest.raises(ts.ZeroSeriesError, match="numerically zero"):
            correlation_length(synthetic_series(lambda L: 1e-15, range(1, 11)))

    def test_too_few_points(self):
        # fewer than MIN_POINTS: two-point slope through the last two values
        est = correlation_length(CorrelationSeries([1, 2, 3], [0.5, 0.25, 0.125]))
        assert est.model == "short_range"
        assert est.xi == pytest.approx(1.0 / math.log(2.0), rel=1e-12)
        assert est.window == (2, 3)
        est = correlation_length(CorrelationSeries([1, 2, 3, 4], [1e-15, 0.1, 0.3, 1e-14]))
        assert est.model == "short_range" and est.diverges

    def test_one_point_is_zero(self):
        with pytest.raises(ts.ZeroSeriesError, match="numerically zero"):
            correlation_length(CorrelationSeries([1, 2, 3], [1e-15, 0.5, 1e-14]))

    def test_analytic_short_range_at_small_field(self):
        # the B=0.1 row of figure2's correlation_length.csv
        lengths = list(range(4, 41))
        series = CorrelationSeries(lengths, [ts.czz_analytic(0.1, L) for L in lengths])
        est = correlation_length(series)
        assert est.model == "short_range"
        assert f"{est.xi:.12g}" == "0.397904638538"

    def test_strictly_increasing_lengths_enforced(self):
        with pytest.raises(ValueError):
            CorrelationSeries([1, 1, 2], [0.1, 0.2, 0.3])

    @pytest.mark.parametrize("b,expect", [(0.5, "exponential"), (2.0, "exponential"), (1.0, "power_law")])
    def test_analytic_sweep_classification(self, b, expect):
        lengths = list(range(4, 41))
        series = CorrelationSeries(lengths, [ts.czz_analytic(b, L) for L in lengths])
        est = correlation_length(series)
        assert est.model == expect
        if expect == "exponential":
            assert 0.0 < est.xi < 10.0


class TestSerialization:
    def test_length_estimate_json(self):
        est = correlation_length(synthetic_series(lambda L: L**-2.0, range(1, 21)))
        assert est.diverges is True
        assert est.xi == math.inf
        assert est.model == "power_law"
