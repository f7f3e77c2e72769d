import math
import tracemalloc
import warnings

import numpy as np
import pytest

import trispin as ts
from trispin.correlations import two_point_connected
from trispin.free_fermion import CorrelationSeries, correlation_length


# 40-digit references: I1 and I2 as integrals over one period (mpmath is
# not a dependency of trispin):
#   import mpmath as mp; mp.mp.dps = 40
#   def czz(b, L):
#       b, d = mp.mpf(b), (L - 1) // 2
#       lam = lambda r: mp.sqrt(b * b + 1 + 2 * b * mp.cos(r))
#       pts = mp.linspace(0, 2 * mp.pi, 2 * d + 3)
#       i1 = mp.quad(lambda r: mp.sin(r) / lam(r) * mp.sin(d * r), pts) / (2 * mp.pi)
#       i2 = mp.quad(lambda r: (b + mp.cos(r)) / lam(r) * mp.cos(d * r), pts) / (2 * mp.pi)
#       return i1 * i1 - i2 * i2


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

    @pytest.mark.parametrize("b,r", [(1 - 1e-6, np.pi), (1 + 1e-6, np.pi), (-1 + 1e-6, 0.0)])
    def test_no_cancellation_at_the_gap_momentum(self, b, r):
        gap = abs(abs(b) - 1.0)
        assert abs(ts.Dispersion(b)(r) - gap) <= 1e-12 * gap


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
        with pytest.raises(ValueError, match=">= 2"):
            ts.czz_analytic(0.5, [4, 1, 5])

    @pytest.mark.parametrize("b", [math.inf, -math.inf, math.nan])
    def test_non_finite_field_rejected(self, b):
        with pytest.raises(ValueError, match="finite"):
            ts.czz_analytic(b, 4)

    @pytest.mark.parametrize("L", [4.5, 4.0, "4", [4, 4.5], [[4, 5]]])
    def test_non_integer_separation_rejected(self, L):
        with pytest.raises(ValueError, match="integer"):
            ts.czz_analytic(0.5, L)

    def test_numpy_integer_separations(self):
        assert ts.czz_analytic(0.5, np.int64(5)) == ts.czz_analytic(0.5, 5)
        values = ts.czz_analytic(0.5, np.arange(4, 8))
        assert values.tolist() == [ts.czz_analytic(0.5, L) for L in range(4, 8)]
        assert ts.czz_analytic(0.5, []).shape == (0,)

    @pytest.mark.parametrize("b", [round(0.1 * i, 10) for i in range(21)] + [0.99, 1.01, 0.999])
    def test_sequence_matches_scalar_calls(self, b):
        # one transform per field, read at each separation: bit for bit the
        # scalar values, also far above the resolved band
        lengths = [*range(4, 41), 10**6, 10**6 + 1]
        values = ts.czz_analytic(b, lengths)
        scalars = [ts.czz_analytic(b, L) for L in lengths]
        assert all(type(v) is float for v in scalars)
        assert isinstance(values, np.ndarray) and values.shape == (len(lengths),)
        assert values.tobytes() == np.array(scalars).tobytes()

    @pytest.mark.parametrize("b,L,written", [
        (0.3, 5, "0.000251633667671"),
        (0.5, 11, "5.3809190703e-06"),
        (0.9, 39, "7.21429900098e-06"),
        (1.0, 21, "0.00101575121446"),
        (1.5, 9, "0.000390620343375"),
        (2.0, 23, "3.1692835663e-10"),
    ])
    def test_pinned_figure2_values(self, b, L, written):
        # rows of the default figure2 czz_series.csv (12 digits), each the
        # 40-digit reference rounded
        assert f"{ts.czz_analytic(b, range(4, 41))[L - 4]:.12g}" == written
        assert f"{ts.czz_analytic(b, L):.12g}" == written

    @pytest.mark.parametrize("b,L,exact", [
        (0.6, 37, 4.8080045785624478399e-12),
        (0.7, 37, 1.2259785519653395924e-9),
        (0.1, 11, 5.6043777476525463793e-13),
        (1.7, 39, 7.7204661716993236284e-13),
        (0.9999, 5, 0.026998297736653924165),
        (0.9999, 39, 0.00028066318293859690572),
        (-0.9999, 39, 0.00028066318293859690572),
        (1.0001, 39, 0.00028096550140768986399),
    ])
    def test_matches_reference_integrals(self, b, L, exact):
        # near the fit's noise floor, and next to the critical band
        assert abs(ts.czz_analytic(b, L) - exact) <= 1e-9 * exact

    @pytest.mark.parametrize("b", [1 + 1e-6, 1 - 1e-9, -1 + 1e-12])
    def test_unresolved_field_raises_typed(self, b):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ts.QuadratureError):
                ts.czz_analytic(b, range(4, 41))

    @pytest.mark.parametrize("b", [1.0, -1.0])
    def test_critical_field_closed_form(self, b):
        lengths = np.arange(2, 10**5 + 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = ts.czz_analytic(b, lengths.tolist())
        odd = lengths % 2 == 1
        exact = 4.0 / (math.pi**2 * lengths[odd] * (lengths[odd] - 2.0))
        assert np.all(np.abs(values[odd] - exact) <= 1e-15 * exact)
        assert np.all(values[~odd] == 0.0)

    def test_sequence_memory_is_one_separation_wide(self):
        # B=0.999 transforms on 2^17 points; separations only read from them
        def peak(L):
            tracemalloc.start()
            try:
                ts.czz_analytic(0.999, L)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(5)  # warm up lazily allocated module state
        assert peak(range(4, 41)) <= 1.5 * peak(5)

    def test_zero_field_vanishes(self):
        # at B=0 the sin and cos coefficients cancel exactly (both 1/2 at L=3,
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
        # the B=0.1 row of figure2's correlation_length.csv; the exact xi is
        # the two-point slope of the 40-digit values at L = 9 and 11
        lengths = list(range(4, 41))
        series = CorrelationSeries(lengths, [ts.czz_analytic(0.1, L) for L in lengths])
        est = correlation_length(series)
        assert est.model == "short_range"
        assert f"{est.xi:.12g}" == "0.397904638378"
        assert abs(est.xi - 0.397904638341158) <= 2e-10 * 0.397904638341158

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
