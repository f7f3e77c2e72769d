import json
import math
import warnings

import numpy as np
import pytest

import trispin as ts
from trispin import cli
from trispin.bose_hubbard import FockBasis, validate_perturbation
from trispin.spin_core import ResourceLimitError

# frozen via independent term-by-term evaluation in exact rational arithmetic
GOLDEN_PARAMS = dict(j_a=0.1, j_b=0.05, u_aa=1.0, u_bb=1.2, u_ab=0.9)
GOLDEN = {
    "lambda1": -0.0081082175925925922,
    "lambda2": -0.008068287037037037,
    "lambda3": -0.00037442129629629631,
    "lambda4": -0.0004872685185185185,
    "b_z_comp": -0.020938078703703705,
}


class TestParams:
    def test_nonpositive_collision_rejected(self):
        with pytest.raises(ValueError):
            ts.BoseHubbardParams(0.1, 0.1, 0.0, 1.0, 1.0)

    def test_negative_tunneling_rejected(self):
        with pytest.raises(ValueError):
            ts.BoseHubbardParams(-0.1, 0.1, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, bad):
        for i in range(5):
            values = [0.1, 0.1, 1.0, 1.0, 1.0]
            values[i] = bad
            with pytest.raises(ValueError, match="finite"):
                ts.BoseHubbardParams(*values)

    def test_perturbative_flag(self):
        ok = ts.BoseHubbardParams(0.1, 0.1, 1.0, 1.0, 1.0)
        assert ok.perturbative_ok and ok.perturbative_ratio == 0.1
        bad = ts.BoseHubbardParams(0.3, 0.1, 1.0, 1.0, 1.0)
        assert not bad.perturbative_ok

    def test_nonperturbative_warning(self):
        with pytest.warns(UserWarning, match="unreliable"):
            ts.effective_couplings(ts.BoseHubbardParams(0.5, 0.5, 1.0, 1.0, 1.0))


class TestEffectiveCouplings:
    def test_symmetric_species_kills_odd_channels(self):
        coup = ts.effective_couplings(ts.BoseHubbardParams(0.1, 0.1, 1.0, 1.0, 0.7))
        assert coup.lambda3 == 0.0
        assert coup.lambda4 == 0.0
        assert coup.b_z_comp == 0.0

    def test_zero_tunneling_kills_everything(self):
        coup = ts.effective_couplings(ts.BoseHubbardParams(0.0, 0.0, 1.0, 1.2, 0.9))
        assert (coup.lambda1, coup.lambda2, coup.lambda3, coup.lambda4, coup.b_z_comp) == (
            0.0, 0.0, 0.0, 0.0, 0.0)

    def test_golden_values(self):
        coup = ts.effective_couplings(ts.BoseHubbardParams(**GOLDEN_PARAMS))
        for name, want in GOLDEN.items():
            got = getattr(coup, name)
            assert got == pytest.approx(want, rel=1e-13), name

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_species_exchange_antisymmetry_exact(self, seed):
        rng = np.random.default_rng(seed)
        p = ts.BoseHubbardParams(*rng.uniform(0.01, 0.15, 2), *rng.uniform(0.7, 1.5, 3))
        c, cs = ts.effective_couplings(p), ts.effective_couplings(p.swapped())
        assert c.lambda1 == cs.lambda1
        assert c.lambda2 == cs.lambda2
        assert c.lambda3 == -cs.lambda3
        assert c.lambda4 == -cs.lambda4
        assert c.b_z_comp == -cs.b_z_comp


class TestFockBasis:
    def test_sector_dimension(self):
        assert FockBasis.build(2, 1).dim == 18
        assert FockBasis.build(3, 0).dim == 10

    def test_one_per_site_manifold_size(self):
        total = sum(len(FockBasis.build(3 - k, k).one_per_site_indices()) for k in range(4))
        assert total == 8

    def test_negative_sector_rejected(self):
        with pytest.raises(ValueError):
            FockBasis.build(-1, 2)


class TestFullHamiltonian:
    def test_hermitian_exactly(self):
        h = ts.build_full_hamiltonian(ts.BoseHubbardParams(0.12, 0.07, 1.0, 1.3, 0.8), (2, 1))
        assert np.array_equal(h, h.T)

    def test_no_tunneling_is_diagonal_collision_energy(self):
        p = ts.BoseHubbardParams(0.0, 0.0, 1.0, 1.2, 0.9)
        basis = FockBasis.build(2, 1)
        h = ts.build_full_hamiltonian(p, (2, 1))
        assert np.count_nonzero(h - np.diag(np.diag(h))) == 0
        for k, state in enumerate(basis.states):
            e = sum(
                0.5 * p.u_aa * na * (na - 1) + 0.5 * p.u_bb * nb * (nb - 1) + p.u_ab * na * nb
                for na, nb in state
            )
            assert h[k, k] == pytest.approx(e)

    def test_single_species_sector_ignores_other_species(self):
        h1 = ts.build_full_hamiltonian(ts.BoseHubbardParams(0.1, 0.02, 1.0, 1.2, 0.9), (3, 0))
        h2 = ts.build_full_hamiltonian(ts.BoseHubbardParams(0.1, 0.13, 1.0, 7.7, 2.2), (3, 0))
        assert np.array_equal(h1, h2)

    def test_bosonic_enhancement_factor(self):
        # |2,0,0> -> |1,1,0> carries -J*sqrt(2)
        p = ts.BoseHubbardParams(0.1, 0.0, 1.0, 1.0, 1.0)
        basis = FockBasis.build(2, 0)
        h = ts.build_full_hamiltonian(p, (2, 0))
        idx = basis.index()
        src = idx[((2, 0), (0, 0), (0, 0))]
        dst = idx[((1, 0), (1, 0), (0, 0))]
        assert h[dst, src] == pytest.approx(-0.1 * np.sqrt(2.0))

    def test_dimension_cap(self):
        with pytest.raises(ResourceLimitError):
            ts.build_full_hamiltonian(
                ts.BoseHubbardParams(0.0, 0.0, 1.0, 1.0, 1.0), (200, 0)
            )


class TestValidatePerturbation:
    def test_exact_at_zero_tunneling(self):
        report = validate_perturbation(ts.BoseHubbardParams(0.0, 0.0, 1.0, 1.2, 0.9))
        assert report.max_rel_dev == 0.0
        assert len(report.levels) == 8

    def test_symmetric_regime_within_tolerance(self):
        report = validate_perturbation(ts.BoseHubbardParams(0.1, 0.1, 1.0, 1.0, 1.0))
        assert report.max_rel_dev <= 0.08
        assert not report.ambiguous

    def test_deviation_monotone_in_coupling(self):
        devs = [
            validate_perturbation(ts.BoseHubbardParams(j, j, 1.0, 1.0, 1.0)).max_rel_dev
            for j in (0.12, 0.06, 0.03)
        ]
        assert devs[0] > devs[1] > devs[2]

    def test_asymmetric_species_consistent(self):
        # deviations must vanish faster than the couplings themselves
        big = validate_perturbation(ts.BoseHubbardParams(0.02, 0.012, 1.0, 1.3, 0.8))
        small = validate_perturbation(ts.BoseHubbardParams(0.01, 0.006, 1.0, 1.3, 0.8))
        big_abs = max(lv.abs_dev for lv in big.levels)
        small_abs = max(lv.abs_dev for lv in small.levels)
        assert big_abs / small_abs > 8.0

    def test_nonperturbative_warns_once(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            validate_perturbation(ts.BoseHubbardParams(0.5, 0.5, 1.0, 1.0, 1.0))
        assert len(caught) == 1
        assert "unreliable" in str(caught[0].message)

    def test_report_json_fields(self, tmp_path):
        # the report as ``trispin validate`` writes it
        assert cli.main(["validate", "--j", "0.05", "--u", "1.0", "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "validation.json").read_text())
        assert set(payload) == {"levels", "max_rel_dev", "spread", "ambiguous"}
        assert len(payload["levels"]) == 8
        assert {"full", "effective", "abs_dev", "rel_dev", "sector"} <= set(payload["levels"][0])
        report = validate_perturbation(ts.BoseHubbardParams(0.05, 0.05, 1.0, 1.0, 1.0))
        assert payload["max_rel_dev"] == report.max_rel_dev
        assert [lv["sector"] for lv in payload["levels"]] == [list(lv.sector) for lv in report.levels]
