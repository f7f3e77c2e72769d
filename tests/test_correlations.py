import itertools

import numpy as np
import pytest

import trispin as ts
from trispin.correlations import survey, two_point_connected


@pytest.fixture(scope="module")
def cluster_ground():
    cache = {}

    def get(n, b):
        if (n, b) not in cache:
            cache[(n, b)] = ts.ground_state(ts.cluster_hamiltonian(n, b))[1]
        return cache[(n, b)]

    return get


def cluster_stabilizer_codes(w):
    """Strings over w consecutive sites (codes 0..3 for 1, X, Y, Z) in the
    group generated by the cluster stabilizers X Z X inside the window."""
    gens = [(0b101 << (k - 1), 1 << k) for k in range(1, w - 1)]  # (x bits, z bits)
    codes = set()
    for chosen in itertools.product((0, 1), repeat=len(gens)):
        x = z = 0
        for use, (gx, gz) in zip(chosen, gens):
            if use:
                x, z = x ^ gx, z ^ gz
        codes.add(tuple((0, 3, 1, 2)[((x >> k) & 1) * 2 + ((z >> k) & 1)] for k in range(w)))
    return codes


class TestTwoPoint:
    def test_product_state_uncorrelated(self):
        st = ts.StateVector.basis_state(6, 0)
        for a, b in itertools.product("xyz", repeat=2):
            assert abs(two_point_connected(st, a, b, 1, 4)) < 1e-12

    def test_ghz_perfect_zz(self):
        amps = np.zeros(8, dtype=complex)
        amps[0] = amps[7] = 2**-0.5
        ghz = ts.StateVector(3, amps)
        for i, j in ((0, 1), (0, 2), (1, 2)):
            assert abs(two_point_connected(ghz, "z", "z", i, j) - 1.0) < 1e-12

    def test_distinct_sites_required(self):
        with pytest.raises(ValueError):
            two_point_connected(ts.StateVector.basis_state(4), "z", "z", 2, 2)

    def test_site_range_checked(self):
        with pytest.raises(ValueError):
            two_point_connected(ts.StateVector.basis_state(4), "z", "z", 0, 6)

    def test_unknown_axis_named(self):
        for axes in (("w", "z"), ("x", "w")):
            with pytest.raises(ValueError) as excinfo:
                two_point_connected(ts.StateVector.basis_state(4), *axes, 0, 2)
            assert "'w'" in str(excinfo.value)

    def test_zero_field_matches_analytic(self, cluster_ground):
        gs = cluster_ground(8, 0.0)
        assert abs(two_point_connected(gs, "z", "z", 1, 3) - ts.czz_analytic(0.0, 3)) < 2e-2

    def test_exchange_symmetry(self, cluster_ground):
        gs = cluster_ground(8, 0.7)
        for a, b, i, j in (("x", "z", 0, 3), ("y", "y", 1, 5), ("z", "x", 2, 6)):
            fwd = two_point_connected(gs, a, b, i, j)
            rev = two_point_connected(gs, b, a, j, i)
            assert abs(fwd - rev) < 1e-12

    @pytest.mark.parametrize("n", [5, 6, 7, 8, 9])
    def test_complex_states_match_three_expectations(self, n):
        rng = np.random.default_rng(40 + n)
        amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        state = ts.StateVector(n, amps).normalized()

        def one(*factors):
            return ts.expectation(state, ts.PauliString(1.0, factors))

        for _ in range(3):
            i, j = (int(s) for s in rng.choice(n, size=2, replace=False))
            for a, b in itertools.product("xyz", repeat=2):
                for (p, alpha), (q, beta) in (((i, a), (j, b)), ((j, b), (i, a))):
                    ops = alpha.upper(), beta.upper()
                    want = one((p, ops[0]), (q, ops[1])) - one((p, ops[0])) * one((q, ops[1]))
                    assert abs(two_point_connected(state, alpha, beta, p, q) - want) < 1e-12

    def test_transverse_one_points_vanish(self, cluster_ground):
        for b in (0.0, 0.5, 1.5):
            gs = cluster_ground(8, b)
            for i in (0, 3):
                for axis in ("X", "Y"):
                    val = ts.expectation(gs, ts.PauliString(1.0, ((i, axis),)))
                    assert abs(val) < 1e-9


class TestNPoint:
    def test_three_site_selectivity_at_zero_field(self, cluster_ground):
        gs = cluster_ground(8, 0.0)
        ops = ("I", "X", "Y", "Z")
        for combo in itertools.product(range(4), repeat=3):
            if combo == (0, 0, 0):
                continue
            factors = tuple((site + 1, ops[c]) for site, c in enumerate(combo) if c != 0)
            val = ts.expectation(gs, ts.PauliString(1.0, factors))
            if combo == (1, 3, 1):  # X Z X
                assert abs(val - 1.0) < 1e-10
            else:
                assert abs(val) < 1e-10

    def test_finite_field_zz_nonzero(self, cluster_ground):
        gs = cluster_ground(10, 0.5)
        val = ts.expectation(gs, ts.PauliString(1.0, ((1, "Z"), (2, "Z"))))
        assert abs(val) > 1e-3


class TestSurvey:
    def test_zero_field_exact_fraction(self, cluster_ground):
        gs = cluster_ground(12, 0.0)
        for w in (5, 6):
            rep = survey(gs, w, mode="exhaustive", b_field=0.0)
            assert rep.fraction == 2.0 ** -(2 + w)
            assert rep.nonvanishing == 2 ** (w - 2)
            assert rep.total == 4**w

    def test_window_placement_irrelevant(self, cluster_ground):
        gs = cluster_ground(12, 0.5)
        a = survey(gs, 5, mode="exhaustive", window_start=0)
        b = survey(gs, 5, mode="exhaustive", window_start=3)
        assert a.nonvanishing == b.nonvanishing

    def test_sampled_mode_deterministic(self, cluster_ground):
        gs = cluster_ground(12, 0.5)
        r1 = survey(gs, 6, mode="sampled", samples=2000, seed=11)
        r2 = survey(gs, 6, mode="sampled", samples=2000, seed=11)
        assert r1.fraction == r2.fraction
        exact = survey(gs, 6, mode="exhaustive")
        assert abs(r1.fraction - exact.fraction) < 0.03
        # at B=0 the drawn strings that count are exactly the stabilizers
        # supported in the window; w=12 is above the exhaustive cap.  The
        # draw is replayed from the documented seeded generator.
        hits = []
        for w in (6, 12):
            rows = np.random.default_rng(5).integers(0, 4, size=(4000, w)).tolist()
            stabilizers = cluster_stabilizer_codes(w)
            rep = survey(cluster_ground(12, 0.0), w, mode="sampled", samples=4000, seed=5)
            assert rep.total == 4000
            assert rep.nonvanishing == sum(tuple(row) in stabilizers for row in rows)
            hits.append(rep.nonvanishing)
        assert hits[0] > 0

    def test_exhaustive_matches_per_string_count(self):
        # random complex state with a definite Z parity on sites 0, 2, 4, 6,
        # so that both vanishing and Y-bearing non-vanishing strings occur
        n, w = 8, 5
        rng = np.random.default_rng(3)
        amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        amps[[bin(b & 0b01010101).count("1") % 2 == 1 for b in range(1 << n)]] = 0.0
        state = ts.StateVector(n, amps).normalized()
        for start in (0, 6):
            sites = [(start + k) % n for k in range(w)]
            values = [
                ts.expectation(state, ts.PauliString(1.0, tuple(
                    (site, "IXYZ"[c]) for site, c in zip(sites, row) if c
                )))
                for row in itertools.product(range(4), repeat=w)
            ]
            for threshold in (1e-8, 0.02):
                count = sum(abs(v) > threshold for v in values)
                rep = survey(state, w, mode="exhaustive", window_start=start, threshold=threshold)
                assert rep.nonvanishing == count
            assert 0 < count < 4**w

    def test_small_window_rejected(self, cluster_ground):
        with pytest.raises(ValueError):
            survey(cluster_ground(12, 0.0), 4)

    def test_exhaustive_cap(self, cluster_ground):
        with pytest.raises(ValueError, match="cap"):
            survey(cluster_ground(12, 0.0), 12, mode="exhaustive")

    def test_report_json(self, cluster_ground):
        rep = survey(cluster_ground(12, 0.0), 5, mode="exhaustive", b_field=0.0)
        assert rep.nonvanishing == 8
        assert rep.total == 4**5
        assert rep.fraction == 8 / 4**5
        assert rep.mode == "exhaustive"
