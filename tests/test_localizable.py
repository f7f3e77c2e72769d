import itertools
import math

import numpy as np
import pytest

import trispin as ts
from trispin import localizable
from trispin.free_fermion import CorrelationSeries
from trispin.localizable import (
    COOLING,
    SIGMA0,
    T_START,
    MeasurementPlan,
    _best_plan,
    _measurement_matrix,
    _plan_bras,
    _read,
    _rotate_all,
    _rotate_site,
    branch_average,
    cluster_scheme_plan,
    concurrence_pure,
    entanglement_length,
    optimize_plan,
    lower_bound_plan,
    scheme_seed_plans,
)
from trispin.spin_core import ResourceLimitError, _sites_last

X = (math.pi / 2.0, 0.0)
Z = (0.0, 0.0)


def cluster_ground(n, b):
    return ts.ground_state(ts.cluster_hamiltonian(n, b))[1]


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return ts.StateVector(n, amps / np.linalg.norm(amps))


def read_copy(a):
    """``_read(a)`` with its arrays copied out of the work arrays, which the
    next read-out overwrites."""
    value, *arrays = _read(a)
    return (value, *(array.copy() for array in arrays))


def brute_force_branches(state, plan):
    """{outcome: (probability, concurrence)} from Kronecker products of the
    per-site measurement bras, outcomes in ascending site order."""
    n = state.n_sites
    measured = sorted(plan.angles)
    out = {}
    for outcome in itertools.product((0, 1), repeat=n - 2):
        bits = dict(zip(measured, outcome))
        op = np.eye(1)
        for site in reversed(range(n)):  # site 0 is the lowest bit
            if site in bits:
                theta, phi = plan.angles[site]
                c, s = math.cos(theta / 2), math.sin(theta / 2)
                ket = [c, np.exp(1j * phi) * s] if bits[site] == 0 else [s, -np.exp(1j * phi) * c]
                factor = np.conj(np.array([ket]))
            else:
                factor = np.eye(2)
            op = np.kron(op, factor)
        amps = op @ state.amplitudes
        prob = float(np.vdot(amps, amps).real)
        out[outcome] = (prob, 2 * abs(amps[0] * amps[3] - amps[1] * amps[2]) / prob)
    return out


def random_plan(n, pair, seed):
    rng = np.random.default_rng(seed)
    angles = {
        s: (rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        for s in range(n)
        if s not in pair
    }
    return MeasurementPlan(n, pair, angles)


def full_evaluation_anneal(state, pair, cfg):
    """The annealer restated with one full ``branch_average`` per proposal,
    drawing its random numbers in the same order as ``optimize_plan``.
    Returns the best plan and its value."""
    n = state.n_sites
    measured = sorted(set(range(n)) - set(pair))
    seeds = scheme_seed_plans(n, pair)
    seed_vals = [branch_average(state, plan).value for plan in seeds]
    best_val = max(seed_vals)
    best_plan = seeds[seed_vals.index(best_val)]
    rng = np.random.default_rng(cfg.seed)
    for restart in range(cfg.restarts):
        if restart == 0:
            current, current_val = best_plan, best_val
        else:
            angles = {
                s: (rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi))
                for s in measured
            }
            current = MeasurementPlan(n, pair, angles)
            current_val = branch_average(state, current).value
            if current_val > best_val:
                best_plan, best_val = current, current_val
        temp = T_START
        for _ in range(cfg.n_temps):
            sigma = SIGMA0 * temp / T_START
            for _ in range(cfg.proposals_per_temp):
                site = measured[rng.integers(len(measured))]
                d_theta, d_phi = sigma * rng.standard_normal(), sigma * rng.standard_normal()
                theta, phi = current.angles[site]
                theta = (theta + d_theta) % (2.0 * math.pi)
                if theta > math.pi:
                    theta = 2.0 * math.pi - theta
                angles = dict(current.angles)
                angles[site] = (theta, (phi + d_phi) % (2.0 * math.pi))
                cand = MeasurementPlan(n, pair, angles)
                cand_val = branch_average(state, cand).value
                delta = cand_val - current_val
                if delta >= 0.0 or rng.random() < math.exp(delta / max(temp, 1e-12)):
                    current, current_val = cand, cand_val
                    if current_val > best_val:
                        best_plan, best_val = current, current_val
            temp *= COOLING
    return best_plan, best_val


class TestConcurrence:
    def test_bell_state(self):
        assert concurrence_pure([2**-0.5, 0, 0, 2**-0.5]) == pytest.approx(1.0)

    def test_product_state(self):
        assert concurrence_pure([0, 1, 0, 0]) == 0.0

    def test_partially_entangled(self):
        amps = [math.cos(math.pi / 8), 0, 0, math.sin(math.pi / 8)]
        assert concurrence_pure(amps) == pytest.approx(math.sin(math.pi / 4))

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            concurrence_pure([1.0, 1.0, 0.0, 0.0])

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            concurrence_pure([1.0, 0.0])

    def test_nan_amplitude_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            concurrence_pure([math.nan, 0.0, 0.0, 0.0])


class TestMeasurementPlan:
    def test_pair_stored_ascending(self):
        assert MeasurementPlan(4, (3, 1), {0: Z, 2: Z}).target_pair == (1, 3)

    def test_identical_pair_rejected(self):
        with pytest.raises(ValueError):
            MeasurementPlan(4, (1, 1), {0: Z, 2: Z, 3: Z})

    def test_missing_angles_rejected(self):
        with pytest.raises(ValueError):
            MeasurementPlan(4, (0, 1), {2: Z})

    def test_theta_range_enforced(self):
        with pytest.raises(ValueError):
            MeasurementPlan(4, (0, 1), {2: (4.0, 0.0), 3: Z})

    @pytest.mark.parametrize("angle", [
        (math.nan, 0.0), (0.5, math.nan), (0.5, math.inf), (0.5, -math.inf),
    ])
    def test_non_finite_angle_rejected(self, angle):
        # a NaN phi used to pass, and branch_average then returned NaN
        angles = dict(random_plan(7, (0, 3), seed=3).angles)
        angles[5] = angle
        with pytest.raises(ValueError, match="non-finite"):
            MeasurementPlan(7, (0, 3), angles)


class TestBranchAverage:
    def test_product_state_gives_zero(self):
        st = ts.StateVector.basis_state(7, 0)
        res = branch_average(st, random_plan(7, (0, 4), seed=5))
        assert res.value < 1e-12

    def test_probabilities_sum_to_one(self):
        gs = cluster_ground(8, 0.6)
        res = branch_average(gs, random_plan(8, (1, 5), seed=8), keep_branches=True)
        total = sum(b.probability for b in res.branches)
        assert abs(total - 1.0) < 1e-10
        for b in res.branches:
            assert abs(np.linalg.norm(b.amplitudes) - 1.0) < 1e-10

    def test_cluster_state_deterministic_bell_pairs(self):
        gs = cluster_ground(8, 0.0)
        res = branch_average(gs, cluster_scheme_plan(8, (0, 4)), keep_branches=True)
        assert res.value == pytest.approx(1.0, abs=1e-9)
        assert all(b.concurrence > 1 - 1e-9 for b in res.branches)

    def test_explicit_path_plan_matches_recipe(self):
        # Z on the interior of one path, X on the rest: deterministic Bell pair
        angles = {1: Z, 2: Z, 3: Z, 5: X, 6: X, 7: X}
        res = branch_average(cluster_ground(8, 0.0), MeasurementPlan(8, (0, 4), angles))
        assert res.value == pytest.approx(1.0, abs=1e-9)

    def test_outcome_flip_convention_invariance(self):
        # theta -> pi - theta, phi -> phi + pi flips which outcome is which
        gs = cluster_ground(7, 0.6)
        plan = random_plan(7, (0, 3), seed=3)
        theta, phi = plan.angles[5]
        flipped_angles = dict(plan.angles)
        flipped_angles[5] = (math.pi - theta, (phi + math.pi) % (2 * math.pi))
        flipped = MeasurementPlan(7, (0, 3), flipped_angles)
        assert branch_average(gs, plan).value == pytest.approx(
            branch_average(gs, flipped).value, abs=1e-12
        )

    def test_measured_cap(self, monkeypatch):
        monkeypatch.setattr(localizable, "MEASURED_CAP", 3)
        with pytest.raises(ResourceLimitError):
            branch_average(ts.StateVector.basis_state(8), random_plan(8, (0, 4), 1))

    def test_unnormalized_state_rejected(self):
        st = ts.StateVector(6, np.ones(64))
        with pytest.raises(ValueError, match="normalized"):
            branch_average(st, random_plan(6, (0, 3), 1))

    def test_nan_state_rejected(self):
        amps = random_state(6, 3).amplitudes.copy()
        amps[5] = math.nan
        with pytest.raises(ValueError, match="normalized"):
            branch_average(ts.StateVector(6, amps), random_plan(6, (0, 3), 1))

    @pytest.mark.parametrize("search", ["branch_average", "optimize_plan"])
    def test_input_check_is_the_probability_sum(self, search):
        # a norm within 1e-10 of 1 whose square, the probability sum that
        # _read checks, is not: rejected at the input, never by _read
        state = random_state(6, 3)
        pair = (0, 3)

        def run(scale):
            st = ts.StateVector(6, scale * state.amplitudes)
            if search == "branch_average":
                return branch_average(st, random_plan(6, pair, 1))
            return optimize_plan(st, pair, ts.AnnealConfig(n_temps=1, proposals_per_temp=1))

        with pytest.raises(ValueError, match="normalized"):
            run(1.0 + 8e-11)
        run(1.0 + 4e-11)

    @pytest.mark.parametrize("n", [6, 7])
    def test_matches_kronecker_oracle(self, n):
        rng = np.random.default_rng(n)
        for trial in range(6):
            state = random_state(n, 100 * n + trial)
            p, q = (int(s) for s in rng.choice(n, size=2, replace=False))
            for pair in ((p, q), (q, p)):
                plan = random_plan(n, pair, seed=10 * n + trial)
                res = branch_average(state, plan, keep_branches=True)
                oracle = brute_force_branches(state, plan)
                kept = {o: v for o, v in oracle.items() if v[0] > 1e-14}
                mass = sum(prob for prob, _ in kept.values())
                value = sum(prob * conc for prob, conc in kept.values()) / mass
                assert res.value == pytest.approx(value, abs=1e-12)
                assert res.branch_count == len(kept)
                for branch in res.branches:
                    prob, conc = kept[branch.outcome]
                    assert branch.probability == pytest.approx(prob, abs=1e-12)
                    assert branch.concurrence == pytest.approx(conc, abs=1e-12)

    def test_pair_amplitude_order(self):
        # amplitudes[2 * bit(larger site) + bit(smaller site)] for every pair
        n = 7
        for p, q in itertools.permutations(range(n), 2):
            plan = MeasurementPlan(n, (p, q), {s: Z for s in range(n) if s not in (p, q)})
            lo, hi = min(p, q), max(p, q)
            for b_hi, b_lo in itertools.product((0, 1), repeat=2):
                state = ts.StateVector.basis_state(n, (b_hi << hi) | (b_lo << lo))
                (branch,) = branch_average(state, plan, keep_branches=True).branches
                assert abs(branch.amplitudes[2 * b_hi + b_lo]) == pytest.approx(1.0)

    def test_frozen_ring_fixture(self):
        # enumeration value frozen at build time: B=0.5, 9-site ring, L=9 recipe
        gs = cluster_ground(9, 0.5)
        res = branch_average(gs, lower_bound_plan(9, 9))
        assert res.value == pytest.approx(0.930092888739, abs=1e-9)


class TestKernels:
    @pytest.mark.parametrize("n", [9, 11, 13])
    def test_rotate_site_matches_tensordot(self, n):
        # every depth k, so both forms on both sides of the crossover (kron
        # from k=6 at n=9, k=7 at n=11, k=8 at n=13)
        rng = np.random.default_rng(n)
        a = random_state(n, 40 + n).amplitudes.reshape(-1, 4)
        before = a.copy()
        for k in range(n - 2):
            u = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            x = a.reshape(2**k, 2, -1)
            ref = np.moveaxis(np.tensordot(u, x, (1, 1)), 0, 1).reshape(a.shape)
            got = _rotate_site(a, u, k)
            assert got.shape == a.shape
            assert np.max(np.abs(got - ref)) <= 1e-15
        assert np.array_equal(a, before)

    def test_z_bras_are_the_identity(self):
        assert np.array_equal(_measurement_matrix(0.0, 0.0), np.eye(2))

    def test_measurement_rows_are_eigenbras(self):
        # row 0 is <+n|, row 1 is <-n|: orthonormal, eigenvalues +1 and -1
        paulis = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1]))
        rng = np.random.default_rng(3)
        for theta, phi in rng.uniform((0.0, 0.0), (math.pi, 2.0 * math.pi), size=(20, 2)):
            u = _measurement_matrix(theta, phi)
            axis = (math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta))
            n_sigma = sum(c * pauli for c, pauli in zip(axis, paulis))
            assert np.max(np.abs(u @ u.conj().T - np.eye(2))) <= 1e-15
            assert np.max(np.abs(u @ n_sigma - np.diag([1, -1]) @ u)) <= 1e-15

    @pytest.mark.parametrize("n", [7, 8, 9, 10, 11])
    def test_skipped_z_bras_change_no_bit(self, n):
        # half the measured sites in Z, skipped by _rotate_all; the reference
        # rotates every site, Z included
        rng = np.random.default_rng(70 + n)
        for trial in range(4):
            state = random_state(n, 700 + 10 * n + trial)
            pair = tuple(int(s) for s in rng.choice(n, size=2, replace=False))
            angles = random_plan(n, pair, seed=70 * n + trial).angles
            for site in rng.choice(sorted(angles), size=(n - 2) // 2, replace=False):
                angles[int(site)] = Z
            plan = MeasurementPlan(n, pair, angles)
            bras = _plan_bras(plan)
            lo, hi = sorted(pair)
            psi = state.amplitudes.reshape((2,) * n)
            a = np.moveaxis(psi, (n - 1 - hi, n - 1 - lo), (-2, -1)).reshape(-1, 4)
            for k, u in enumerate(reversed(bras)):
                a = _rotate_site(a, u, k)
            want = read_copy(a)
            tensor, (value, kept) = _best_plan(state, [plan])[2:]
            assert kept == want[2].sum()
            _, probs, keep, dets = _read(tensor)
            assert value == want[0]
            assert np.array_equal(probs, want[1])
            assert np.array_equal(keep, want[2])
            assert np.array_equal(dets, want[3])

    def test_all_z_plan_is_a_fresh_c_contiguous_tensor(self):
        # no site is rotated, so the pair-last copy is the result
        n = 7
        state = random_state(n, 8)
        for pair in itertools.permutations(range(n), 2):
            plan = MeasurementPlan(n, pair, {s: Z for s in range(n) if s not in pair})
            a = _best_plan(state, [plan])[2]
            assert a.flags.c_contiguous
            assert not np.shares_memory(a, state.amplitudes)

    def test_read_rejects_unnormalized_tensor(self):
        state = random_state(7, 5)
        plan = random_plan(7, (1, 4), seed=5)
        a = _best_plan(state, [plan])[2]
        _read(a)
        with pytest.raises(AssertionError, match="sum to"):
            _read(1.01 * a)
        a[0, 0] = math.nan
        with pytest.raises(AssertionError, match="sum to"):
            _read(a)

    @pytest.mark.parametrize("basis_site", [None, 5])
    def test_all_kept_shortcut_matches_masked_sum(self, basis_site):
        # basis_site=None: a random state, every branch kept (the shortcut).
        # Otherwise that site is |0> up to a 1e-7 admixture of |1> and is
        # measured in Z, so half the branches fall below the cutoff and are
        # dropped (the masked sum), and dropping them shows in the value.
        n = 8
        amps = random_state(n, 9).amplitudes.copy()
        angles = random_plan(n, (0, 3), seed=9).angles
        if basis_site is not None:
            amps[(np.arange(amps.size) >> basis_site) & 1 == 1] *= 1e-7
            amps /= np.linalg.norm(amps)
            angles[basis_site] = Z
        state = ts.StateVector(n, amps)
        tensor, (value, kept) = _best_plan(state, [MeasurementPlan(n, (0, 3), angles)])[2:]
        _, probs, keep, dets = _read(tensor)
        assert kept == keep.sum()
        assert value == float(dets[keep].sum() / probs[keep].sum())
        if basis_site is None:
            assert keep.all()
        else:
            assert keep.sum() == 2 ** (n - 3)
            assert value != float(dets.sum() / probs.sum())
        assert value > 0.1


def forced_complex(state, plan):
    """``plan``'s rotated tensor computed in complex128 throughout: the
    pair-last base cast to complex128 and rotated by complex bras, copied out
    of the work arrays."""
    base = _sites_last(state, plan.target_pair[::-1]).astype(np.complex128)
    return _rotate_all(base, [u.astype(np.complex128) for u in _plan_bras(plan)]).copy()


class TestRealPath:
    # even rings at B = 0 warn of their degenerate ground level
    @pytest.mark.filterwarnings("ignore::trispin.DegenerateGroundStateWarning")
    @pytest.mark.parametrize("n", [5, 6, 7, 8, 9, 10, 11, 12, 13])
    def test_real_rotation_is_the_complex_real_part(self, n):
        for b in (0.0, 0.5, 1.0, 1.5, -1.5):
            gs = ts.ground_state(ts.cluster_hamiltonian(n, b), seed=7)[1]
            assert not gs.amplitudes.imag.any()
            for pair in itertools.permutations(range(n), 2):
                for plan in scheme_seed_plans(n, pair):
                    real = _best_plan(gs, [plan])[2].copy()
                    cplx = forced_complex(gs, plan)
                    assert real.dtype == np.float64 and cplx.dtype == np.complex128
                    assert np.array_equal(real, cplx.real)
                    assert not cplx.imag.any()

    def test_kept_branches_read_the_real_tensor(self):
        n = 9
        gs = ts.ground_state(ts.cluster_hamiltonian(n, 0.5), seed=7)[1]
        for s in range(2, n // 2 + 1):
            for plan in scheme_seed_plans(n, (0, s)):
                result = branch_average(gs, plan, keep_branches=True)
                a = forced_complex(gs, plan).real.copy()  # C-contiguous, as the real path's
                value, probs, keep, _ = _read(a)
                assert result.value == value
                assert len(result.branches) == keep.sum() > 0
                for branch in result.branches:
                    row = np.ravel_multi_index(branch.outcome[::-1], (2,) * (n - 2))
                    assert branch.amplitudes.dtype == np.float64
                    assert branch.probability == probs[row]
                    assert np.array_equal(branch.amplitudes, a[row] / np.sqrt(probs[row]))

    @pytest.mark.filterwarnings("ignore::trispin.DegenerateGroundStateWarning")
    @pytest.mark.parametrize("n", [7, 8, 9, 10, 11, 12, 13])
    def test_mixed_bras_read_as_the_complex_path(self, n):
        # Z, X, real-theta and complex bras in one plan; the largest measured
        # site, rotated first, has a real-theta bra and the smallest a complex
        # one, so the float64 tensor turns complex part-way through
        rng = np.random.default_rng(90 + n)
        for b in (0.0, 0.5, 1.0, 1.5, -1.5):
            gs = ts.ground_state(ts.cluster_hamiltonian(n, b), seed=7)[1]
            for _ in range(3):
                pair = tuple(int(s) for s in rng.choice(n, size=2, replace=False))
                measured = [s for s in range(n) if s not in pair]
                kinds = rng.integers(4, size=len(measured))
                kinds[-1], kinds[0] = 2, 3
                draws = rng.uniform((0.0, 0.0), (math.pi, 2.0 * math.pi), size=(len(measured), 2))
                angles = {
                    s: (Z, X, (theta, 0.0), (theta, phi))[kind]
                    for s, kind, (theta, phi) in zip(measured, kinds, draws)
                }
                plan = MeasurementPlan(n, pair, angles)
                a = forced_complex(gs, plan)
                value, probs, keep, dets = read_copy(a)
                tensor, (got, kept) = _best_plan(gs, [plan])[2:]
                assert got == value and kept == keep.sum()
                for array, want in zip(_read(tensor)[1:], (probs, keep, dets)):
                    assert np.array_equal(array, want)
                result = branch_average(gs, plan, keep_branches=True)
                assert result.value == value
                assert len(result.branches) == keep.sum() > 0
                for branch in result.branches:
                    row = np.ravel_multi_index(branch.outcome[::-1], (2,) * (n - 2))
                    assert branch.probability == probs[row]
                    assert branch.concurrence == float(dets[row] / probs[row])
                    assert np.array_equal(branch.amplitudes, a[row] / np.sqrt(probs[row]))


class TestSeedPass:
    def test_sweep_rows_are_the_best_seed_values(self):
        n, fields = 13, [0.5, 1.0, 1.5]
        channels, failures = localizable.length_sweep(fields, n, 7, None)
        assert not failures
        detail = channels["entanglement"][1]
        for b in fields:
            gs = ts.ground_state(ts.cluster_hamiltonian(n, b), seed=7)[1]
            want = [max(branch_average(gs, plan).value for plan in scheme_seed_plans(n, (0, s)))
                    for s in range(2, n // 2 + 1)]
            assert [row[2] for row in detail if row[0] == b] == want

    def test_best_plan_is_the_first_best(self):
        gs = cluster_ground(9, 0.5)
        plans = scheme_seed_plans(9, (0, 4))
        values = [branch_average(gs, plan).value for plan in plans]
        first = plans[values.index(max(values))]
        twin = MeasurementPlan(9, (0, 4), dict(first.angles))  # an exact tie, listed last
        plan, _, tensor, read = _best_plan(gs, [*plans, twin])
        assert plan is first
        assert read[0] == max(values)
        # the best tensor is kept while the plans after it are rotated
        tensor = tensor.copy()
        alone = _best_plan(gs, [first])
        assert alone[3] == read and np.array_equal(alone[2], tensor)

    @pytest.mark.parametrize("b,pair,restarts,value", [
        pytest.param(0.5, (0, 4), 1, 0.9309815188920395, id="0.5-pair0-0.9309815188920395"),
        # the walk beats the best seed here
        pytest.param(1.5, (0, 5), 1, 0.0658452598887916, id="1.5-pair1-0.0658452598887916"),
        # and the random restart beats both
        pytest.param(1.5, (0, 5), 2, 0.07461586893549266, id="1.5-pair1-restarts2"),
    ])
    def test_short_anneal_keeps_its_value(self, b, pair, restarts, value):
        gs = ts.ground_state(ts.cluster_hamiltonian(13, b), seed=7)[1]
        cfg = ts.AnnealConfig(n_temps=1, restarts=restarts, seed=3)
        assert optimize_plan(gs, pair, cfg).value == value


class TestSchemePlans:
    def test_cluster_scheme_shorter_arc(self):
        plan = cluster_scheme_plan(8, (0, 2))
        assert plan.angles[1] == Z
        for s in (3, 4, 5, 6, 7):
            assert plan.angles[s] == X

    def test_cluster_scheme_tie_break(self):
        # antipodal pair: the arc holding the smaller index is "between"
        plan = cluster_scheme_plan(8, (0, 4))
        assert plan.angles[1] == plan.angles[2] == plan.angles[3] == Z
        assert plan.angles[5] == plan.angles[6] == plan.angles[7] == X

    def test_lower_bound_transcription(self):
        plan = lower_bound_plan(8, 5)
        assert plan.target_pair == (0, 4)
        assert plan.angles[1] == X  # spin 2
        for site in (2, 3):  # spins 3..4
            assert plan.angles[site] == Z
        for site in (5, 6, 7):  # spins 6..8
            assert plan.angles[site] == Z

    def test_lower_bound_far_basis_variant(self):
        plan = lower_bound_plan(8, 5, far_basis="x")
        assert plan.angles[5] == X
        assert plan.angles[2] == Z

    @pytest.mark.parametrize("n", [9, 13])
    def test_seed_plans_are_built_once(self, n, monkeypatch):
        # each lower-bound seed is lower_bound_plan's plan shifted to the pair,
        # validated once
        built = []
        post_init = MeasurementPlan.__post_init__

        def counted(plan):
            built.append(plan)
            post_init(plan)

        for p, q in itertools.permutations(range(n), 2):
            want = [cluster_scheme_plan(n, (p, q))]
            for start, end in ((p, q), (q, p)):
                span = (end - start) % n
                if span >= 2 and span % 2 == 0:
                    for basis in ("x", "z"):
                        ref = lower_bound_plan(n, span + 1, far_basis=basis)
                        angles = {(s + start) % n: a for s, a in ref.angles.items()}
                        want.append(MeasurementPlan(n, (p, q), angles))
            built.clear()
            with monkeypatch.context() as m:
                m.setattr(MeasurementPlan, "__post_init__", counted)
                plans = scheme_seed_plans(n, (p, q))
            assert plans == want
            assert len(built) == len(plans)

    def test_lower_bound_parity_constraint(self):
        with pytest.raises(ValueError, match="odd"):
            lower_bound_plan(6, 4)

    def test_lower_bound_converges_to_limit(self):
        b = 0.8
        limit = (1 - b * b) ** 0.25
        vals = []
        for k in (2, 3, 4):
            n = 2 * k + 1
            vals.append(branch_average(cluster_ground(n, b), lower_bound_plan(n, n)).value)
        assert all(y >= x - 1e-9 for x, y in zip(vals, vals[1:]))
        assert vals[-1] < limit
        assert limit - vals[-1] < 0.05


class TestOptimizer:
    def test_attains_unity_at_zero_field(self):
        gs = cluster_ground(7, 0.0)
        cfg = ts.AnnealConfig(n_temps=5, proposals_per_temp=5, restarts=1, seed=1)
        assert optimize_plan(gs, (0, 3), cfg).value == pytest.approx(1.0, abs=1e-9)

    def test_never_worse_than_schemes(self):
        gs = cluster_ground(10, 0.5)
        ensemble = max(branch_average(gs, p).value for p in scheme_seed_plans(10, (0, 4)))
        cfg = ts.AnnealConfig(n_temps=20, proposals_per_temp=10, restarts=1, seed=2)
        assert optimize_plan(gs, (0, 4), cfg).value >= ensemble - 1e-12

    def test_deterministic(self):
        gs = cluster_ground(8, 1.2)
        cfg = ts.AnnealConfig(n_temps=15, proposals_per_temp=8, restarts=2, seed=42)
        r1 = optimize_plan(gs, (0, 3), cfg)
        r2 = optimize_plan(gs, (0, 3), cfg)
        assert r1.value == r2.value
        assert r1.plan.angles == r2.plan.angles

    @pytest.mark.parametrize("n", [7, 9])
    def test_matches_full_evaluation_annealer(self, n):
        rng = np.random.default_rng(n)
        p, q = (int(s) for s in rng.choice(n, size=2, replace=False))
        for trial, pair in enumerate(((p, q), (q, p))):
            state = random_state(n, 300 + 10 * n + trial)
            cfg = ts.AnnealConfig(n_temps=12, proposals_per_temp=10, restarts=2, seed=n + trial)
            res = optimize_plan(state, pair, cfg)
            plan, value = full_evaluation_anneal(state, pair, cfg)
            assert res.plan.angles == plan.angles
            assert res.value == pytest.approx(value, abs=1e-12)
            assert res.value == branch_average(state, res.plan).value

    @pytest.mark.parametrize("restarts,n_temps,fresh", [
        (1, 0, 0),  # the best seed stays best
        (2, 0, 0),  # a restart's start beats the seeds
        (1, 3, 1),  # a proposal beats the seeds
    ])
    def test_reads_the_best_plan_once(self, monkeypatch, restarts, n_temps, fresh):
        # the best plan's value and branch count are those of branch_average,
        # which runs again only for a plan that a proposal found
        state, pair = random_state(8, 44), (1, 5)
        calls = []

        def recording(*args, **kwargs):
            calls.append(args)
            return branch_average(*args, **kwargs)

        monkeypatch.setattr(localizable, "branch_average", recording)
        cfg = ts.AnnealConfig(n_temps=n_temps, proposals_per_temp=6, restarts=restarts, seed=5)
        res = optimize_plan(state, pair, cfg)
        assert len(calls) == fresh
        seed_best = max(branch_average(state, plan).value for plan in scheme_seed_plans(8, pair))
        assert (res.value > seed_best) == (restarts + n_temps > 1)
        want = branch_average(state, res.plan)
        assert (res.value, res.branch_count, res.branches) == (want.value, want.branch_count, None)

    def test_unnormalized_state_rejected(self):
        st = ts.StateVector(6, np.ones(64))
        with pytest.raises(ValueError, match="normalized"):
            optimize_plan(st, (0, 3), ts.AnnealConfig(n_temps=1, proposals_per_temp=1))

    def test_measured_cap(self, monkeypatch):
        monkeypatch.setattr(localizable, "MEASURED_CAP", 3)
        with pytest.raises(ResourceLimitError):
            optimize_plan(ts.StateVector.basis_state(8), (0, 4))

    @pytest.mark.parametrize("b", [0.5, 1.5])
    def test_distance_monotonicity_within_parity(self, b):
        # E_loc alternates with separation parity (sublattice structure), so
        # monotonic decay holds within each parity class separately
        gs = cluster_ground(12, b)
        cfg = ts.AnnealConfig(n_temps=60, proposals_per_temp=20, restarts=2, seed=13)
        vals = {s: optimize_plan(gs, (0, s), cfg).value for s in range(2, 7)}
        for seq in ([vals[2], vals[4], vals[6]], [vals[3], vals[5]]):
            assert all(later <= earlier + 1e-6 for earlier, later in zip(seq, seq[1:]))


YY = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])


def assistance_concurrence(state, pair):
    """Concurrence of assistance C_a = sum_i lambda_i of the pair's reduced
    state rho, lambda_i^2 the eigenvalues of rho (Y x Y) rho* (Y x Y).

    With rho = R^dagger R (R from a QR of the pair's amplitude matrix), the
    sum is the nuclear norm of R (Y x Y) R^T: no square root of a
    near-zero eigenvalue is taken.
    """
    n = state.n_sites
    psi = state.amplitudes.reshape((2,) * n)
    amps = np.moveaxis(psi, [n - 1 - s for s in pair], (0, 1)).reshape(4, -1)
    r = np.linalg.qr(amps.conj().T, mode="r")
    return float(np.linalg.svd(r @ YY @ r.T, compute_uv=False).sum())


class TestAssistanceBound:
    """Measuring the rest of the chain picks one pure-state decomposition of
    the pair's reduced state, so E_loc <= C_a (Laustsen, Verstraete & van
    Enk, QIC 3, 64 (2003))."""

    def test_matches_eigenvalue_definition(self):
        state = random_state(6, 11)
        psi = state.amplitudes.reshape((2,) * 6)
        amps = np.moveaxis(psi, (5, 2), (0, 1)).reshape(4, -1)
        rho = amps @ amps.conj().T
        lam2 = np.linalg.eigvals(rho @ YY @ rho.conj() @ YY).real
        expected = np.sqrt(np.clip(lam2, 0.0, None)).sum()
        assert assistance_concurrence(state, (0, 3)) == pytest.approx(expected, abs=1e-10)

    def test_bell_pair_and_product_state(self):
        bell = np.zeros(16, dtype=complex)
        bell[0] = bell[0b0101] = 2**-0.5  # sites 0 and 2 entangled, 1 and 3 up
        assert assistance_concurrence(ts.StateVector(4, bell), (0, 2)) == pytest.approx(1.0)
        product = ts.StateVector.basis_state(4, 0b0110)
        assert assistance_concurrence(product, (1, 3)) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("n", [7, 9])
    def test_branch_average_bounded(self, n):
        rng = np.random.default_rng(500 + n)
        for trial in range(6):
            state = random_state(n, 600 + 10 * n + trial)
            pair = tuple(int(s) for s in rng.choice(n, size=2, replace=False))
            value = branch_average(state, random_plan(n, pair, seed=trial)).value
            assert value <= assistance_concurrence(state, pair) + 1e-12

    @pytest.mark.parametrize("n", [9, 11])
    @pytest.mark.parametrize("b", [0.5, 1.5])
    def test_optimized_value_bounded(self, n, b):
        gs = cluster_ground(n, b)
        cfg = ts.AnnealConfig(n_temps=8, proposals_per_temp=8, restarts=2, seed=n)
        for s in range(2, n // 2 + 1):
            value = optimize_plan(gs, (0, s), cfg).value
            assert value <= assistance_concurrence(gs, (0, s)) + 1e-12


class TestEntanglementLength:
    def test_constant_series_diverges(self):
        series = CorrelationSeries(list(range(2, 12)), [0.93] * 10)
        assert entanglement_length(series).diverges

    def test_exponential_series(self):
        lengths = list(range(2, 14))
        series = CorrelationSeries(lengths, [math.exp(-L / 2.0) for L in lengths])
        est = entanglement_length(series)
        assert est.model == "exponential"
        assert est.xi == pytest.approx(2.0, abs=1e-6)
