import functools
import heapq
import importlib.machinery
import importlib.util
import os
import platform
import subprocess
import sys
import warnings
import weakref
from collections import Counter
from operator import itemgetter
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import eigh, eigh_tridiagonal
from scipy.sparse import csr_matrix, diags, identity, kron

import trispin as ts
from trispin import spin_core
from trispin.spin_core import ConvergenceError, ResourceLimitError


PAULI_MATRICES = {
    "I": np.eye(2),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]]),
    "Z": np.diag([1.0, -1.0]),
}


def kron_sparse(spec):
    """H from Kronecker products of 2x2 Paulis, as a sparse matrix; site 0 is
    the lowest bit."""
    h = csr_matrix((1 << spec.n_sites,) * 2, dtype=np.complex128)
    for term in spec.terms:
        ops = dict(term.factors)
        prod = identity(1, format="csr")
        for site in reversed(range(spec.n_sites)):
            prod = kron(prod, PAULI_MATRICES[ops.get(site, "I")], format="csr")
        h = h + term.coeff * prod
    return h


def as_csr(block):
    """A FixedWidthBlock as a scipy CSR matrix on the block's own arrays."""
    rows = block.cols.shape[0]
    return csr_matrix((block.values.ravel(), block.cols.ravel(), block.indptr), shape=(rows, rows))


class Sector:
    """Sector s of a spec's operator, read off its ring: the label, basis,
    dtype and off-diagonal block (built on its first read) of the ring's
    sector s, and the spec's diagonal there."""

    def __init__(self, op, s):
        self.op, self.s = op, s
        self.label, self.basis, self.dtype = op.ring.labels[s], op.ring.bases[s], op.ring.dtype
        self.diag = op.diags[s]

    @property
    def offdiag(self):
        return self.op.ring.block(self.s)


def sectors(spec):
    """The Z-parity sectors of the spec's operator, in the ring's order."""
    op = spec.operator()
    return [Sector(op, s) for s in range(len(op.diags))]


def kron_oracle(spec):
    """H from Kronecker products of 2x2 Paulis; site 0 is the lowest bit."""
    return kron_sparse(spec).toarray()


def random_spec(n, seed):
    rng = np.random.default_rng(seed)
    terms = []
    for _ in range(rng.integers(1, 3 * n)):
        sites = rng.choice(n, size=rng.integers(1, min(n, 4) + 1), replace=False)
        ops = rng.choice(list("XYZ"), size=sites.size)
        terms.append(ts.PauliString(rng.normal(), tuple(zip(sites.tolist(), ops.tolist()))))
    return ts.SpinChainSpec(n, terms)


def invariant_spec(n, seed):
    """random_spec's terms, each copied onto every site shift of the ring."""
    terms = [
        ts.PauliString(term.coeff, tuple(((site + shift) % n, op) for site, op in term.factors))
        for term in random_spec(n, seed).terms
        for shift in range(n)
    ]
    return ts.SpinChainSpec(n, terms)


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return ts.StateVector(n, amps / np.linalg.norm(amps))


class TestPauliString:
    def test_repeated_site_rejected(self):
        with pytest.raises(ValueError):
            ts.PauliString(1.0, ((0, "X"), (0, "Z")))

    def test_unknown_operator_rejected(self):
        with pytest.raises(ValueError):
            ts.PauliString(1.0, ((0, "Q"),))

    def test_negative_site_rejected(self):
        with pytest.raises(ValueError):
            ts.PauliString(1.0, ((-1, "X"),))

    def test_complex_coefficient_rejected(self):
        with pytest.raises(TypeError):
            ts.PauliString(1.0j, ((0, "X"),))

    @pytest.mark.parametrize("coeff", [np.nan, np.inf, -np.inf])
    def test_non_finite_coefficient_rejected(self, coeff):
        with pytest.raises(ValueError, match="finite"):
            ts.PauliString(coeff, ((0, "X"),))
        with pytest.raises(ValueError, match="finite"):
            ts.cluster_hamiltonian(6, coeff)
        with pytest.raises(ValueError, match="finite"):
            ts.triangle_chain_hamiltonian(ts.EffectiveCouplings(coeff, 0, 0, 0, 0), (0, 0, 0), 4)


class TestStateVector:
    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            ts.StateVector(3, np.zeros(7))

    def test_basis_state_and_norm(self):
        st = ts.StateVector.basis_state(4, index=5)
        assert st.norm() == 1.0
        assert st.amplitudes[5] == 1.0

    def test_normalized(self):
        st = ts.StateVector(3, 2.0 * np.ones(8))
        assert abs(st.normalized().norm() - 1.0) < 1e-14


class TestSitesLast:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_index_oracle(self, seed):
        # entry [r, c]: the listed sites' bits are c's (first site most
        # significant), the other sites' bits r's, in descending site order
        rng = np.random.default_rng(300 + seed)
        n = 4 + seed % 5
        for real in (True, False):
            amps = rng.standard_normal(1 << n)
            if not real:
                amps = amps + 1j * rng.standard_normal(1 << n)
            state = ts.StateVector(n, amps)
            for w in (1, 2, 3):
                sites = tuple(int(s) for s in rng.choice(n, size=w, replace=False))
                others = sorted(set(range(n)) - set(sites), reverse=True)
                got = spin_core._sites_last(state, sites)
                assert got.shape == (1 << (n - w), 1 << w)
                assert got.dtype == (np.float64 if real else np.complex128)
                assert got.flags.c_contiguous
                assert not np.shares_memory(got, state.amplitudes)
                for b in range(1 << n):
                    r = sum(((b >> s) & 1) << (n - w - 1 - k) for k, s in enumerate(others))
                    c = sum(((b >> s) & 1) << (w - 1 - k) for k, s in enumerate(sites))
                    assert got[r, c] == amps[b]


class TestBuilders:
    def test_cluster_term_count_without_field(self):
        spec = ts.cluster_hamiltonian(3, 0.0)
        assert len(spec.terms) == 3
        for t in spec.terms:
            assert t.coeff == -1.0
            assert sorted(op for _, op in t.factors) == ["X", "X", "Z"]

    def test_cluster_term_count_with_field(self):
        assert len(ts.cluster_hamiltonian(4, 0.5).terms) == 8

    def test_cluster_too_small(self):
        with pytest.raises(ValueError):
            ts.cluster_hamiltonian(2, 0.0)

    def test_triangle_field_only(self):
        coup = ts.EffectiveCouplings(0.0, 0.0, 0.0, 0.0, 0.0)
        spec = ts.triangle_chain_hamiltonian(coup, (0.0, 0.0, 1.0), 4)
        assert len(spec.terms) == 4
        assert all(t.factors[0][1] == "Z" for t in spec.terms)

    def test_triangle_ising_triangle_eigenvalues(self):
        # 3-site classical ZZ ring: energies are sums over the 3 bonds
        coup = ts.EffectiveCouplings(1.0, 0.0, 0.0, 0.0, 0.0)
        spec = ts.triangle_chain_hamiltonian(coup, (0.0, 0.0, 0.0), 3)
        vals = np.round(ts.dense_spectrum(spec), 9)
        assert sorted(set(vals)) == [-1.0, 3.0]
        assert int(np.sum(vals == -1.0)) == 6
        assert int(np.sum(vals == 3.0)) == 2

    def test_triangle_xzx_spectrum_symmetric(self):
        coup = ts.EffectiveCouplings(0.0, 0.0, 0.0, -1.0, 0.0)
        spec = ts.triangle_chain_hamiltonian(coup, (0.0, 0.0, 0.0), 6)
        vals = ts.dense_spectrum(spec)
        assert np.allclose(vals, -vals[::-1], atol=1e-9)


class TestApply:
    def test_z_on_up(self):
        st = ts.StateVector.basis_state(3, 0)
        out = ts.apply(ts.SpinChainSpec(3, [ts.PauliString(1.0, ((0, "Z"),))]), st)
        assert out.amplitudes[0] == 1.0

    def test_x_flips(self):
        st = ts.StateVector.basis_state(3, 0)
        out = ts.apply(ts.SpinChainSpec(3, [ts.PauliString(1.0, ((1, "X"),))]), st)
        assert out.amplitudes[0b010] == 1.0

    def test_y_phases(self):
        spec = ts.SpinChainSpec(3, [ts.PauliString(1.0, ((0, "Y"),))])
        up = ts.apply(spec, ts.StateVector.basis_state(3, 0))
        assert up.amplitudes[1] == 1.0j
        down = ts.apply(spec, ts.StateVector.basis_state(3, 1))
        assert down.amplitudes[0] == -1.0j

    def test_xzx_on_all_up(self):
        term = ts.PauliString(-1.0, ((0, "X"), (1, "Z"), (2, "X")))
        out = ts.apply(ts.SpinChainSpec(3, [term]), ts.StateVector.basis_state(3, 0))
        assert out.amplitudes[0b101] == -1.0
        assert np.count_nonzero(out.amplitudes) == 1

    def test_linearity(self):
        spec = ts.cluster_hamiltonian(6, 0.7)
        psi, phi = random_state(6, 1), random_state(6, 2)
        a, b = 0.3 - 0.2j, 1.1 + 0.5j
        combo = ts.StateVector(6, a * psi.amplitudes + b * phi.amplitudes)
        lhs = ts.apply(spec, combo).amplitudes
        rhs = a * ts.apply(spec, psi).amplitudes + b * ts.apply(spec, phi).amplitudes
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ts.apply(ts.cluster_hamiltonian(4, 0.0), ts.StateVector.basis_state(5))

    @pytest.mark.parametrize("spec", [
        ts.cluster_hamiltonian(9, 0.7),
        ts.cluster_hamiltonian(12, -1.3),
        ts.triangle_chain_hamiltonian(ts.EffectiveCouplings(0.31, -0.17, 0.05, -0.23, 0.0), (0.1, 0.0, 0.4), 8),
        ts.triangle_chain_hamiltonian(ts.EffectiveCouplings(0.31, -0.17, 0.05, -0.23, 0.0), (0.1, 0.2, 0.4), 8),
    ], ids=["cluster-9", "cluster-12", "triangle-real", "triangle-complex"])
    def test_contiguous_parts_keep_every_bit(self, spec, monkeypatch):
        # the form that gathered the complex amplitudes and handed the kernel
        # their strided real and imaginary views, which it then copied
        def strided_views(spec, state):
            amps = state.amplitudes
            out = np.empty_like(amps)
            for sector in sectors(spec):
                x = amps[sector.basis]
                diag, off = sector.diag, sector.offdiag
                if sector.dtype.kind == "c":
                    out[sector.basis] = spin_core._sector_matvec(diag, off, x, np.empty_like(x))
                    continue
                re = spin_core._sector_matvec(diag, off, x.real, np.empty(x.size))
                if x.imag.any():
                    re = re + 1j * spin_core._sector_matvec(diag, off, x.imag, np.empty(x.size))
                out[sector.basis] = re
            return out

        kernel = spin_core._sparsetools.csr_matvec
        strided = []

        def recording(*args):
            strided.append(not args[-2].flags.c_contiguous)
            return kernel(*args)

        n = spec.n_sites
        amps = random_state(n, 4).amplitudes
        for state in (ts.StateVector(n, amps), ts.StateVector(n, amps.real / np.linalg.norm(amps.real))):
            want = strided_views(spec, state)
            monkeypatch.setattr(spin_core, "_sparsetools", type("Kernels", (), {"csr_matvec": staticmethod(recording)}))
            got = ts.apply(spec, state).amplitudes
            monkeypatch.undo()
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert strided and not any(strided)


class TestSolvers:
    def test_cluster_ground_energy_small(self):
        assert abs(ts.dense_spectrum(ts.cluster_hamiltonian(5, 0.0))[0] + 5.0) < 1e-9

    def test_cluster_ground_energy_n8(self):
        energy, state = ts.ground_state(ts.cluster_hamiltonian(8, 0.0))
        assert abs(energy + 8.0) < 1e-9
        assert abs(state.norm() - 1.0) < 1e-12

    def test_strong_field_limit(self):
        b = 1e3
        energy, _ = ts.ground_state(ts.cluster_hamiltonian(8, b))
        assert abs(energy / b + 8.0) < 1e-2

    def test_frozen_ground_energy_n10(self):
        # dense-ED value frozen at build time
        energy, _ = ts.ground_state(ts.cluster_hamiltonian(10, 0.5))
        assert abs(energy - (-10.619881231213)) < 1e-9

    def test_ground_matches_dense_minimum(self):
        for spec in (
            ts.cluster_hamiltonian(10, 0.5),
            ts.triangle_chain_hamiltonian(
                ts.EffectiveCouplings(0.31, -0.17, 0.05, -0.23, 0.0),
                (0.1, 0.0, 0.4),
                8,
            ),
        ):
            energy, _ = ts.ground_state(spec)
            assert abs(energy - ts.dense_spectrum(spec)[0]) < 1e-9

    def test_ground_deterministic(self):
        e1, s1 = ts.ground_state(ts.cluster_hamiltonian(10, 0.7), seed=3)
        e2, s2 = ts.ground_state(ts.cluster_hamiltonian(10, 0.7), seed=3)
        assert e1 == e2
        assert np.array_equal(s1.amplitudes, s2.amplitudes)

    def test_spectrum_structure_small_rings(self):
        # B=0 spectra sit on {-n + 2m} with the first excited level at ground+2
        for n in (4, 5, 6, 7, 8):
            vals = ts.dense_spectrum(ts.cluster_hamiltonian(n, 0.0))
            assert np.max(np.abs(vals - np.round(vals))) < 1e-9
            assert np.all(np.abs((np.round(vals) + n) % 2) < 1e-12)
            above = vals[vals > vals[0] + 1e-8]
            assert abs(above[0] - vals[0] - 2.0) < 1e-9

    def test_two_site_field_spectrum(self):
        # Z0 + Z1 contributes {-2, 0, 0, 2}; the free third spin doubles each
        spec = ts.SpinChainSpec(
            3,
            [ts.PauliString(1.0, ((0, "Z"),)), ts.PauliString(1.0, ((1, "Z"),))],
        )
        vals = np.round(ts.dense_spectrum(spec), 12)
        assert list(vals) == [-2, -2, 0, 0, 0, 0, 2, 2]

    def test_gap_closes_toward_critical_field(self):
        g_half = ts.spectral_gap(ts.cluster_hamiltonian(8, 0.5))
        g_one = ts.spectral_gap(ts.cluster_hamiltonian(8, 1.0))
        assert g_one < g_half

    def test_dense_cap(self):
        with pytest.raises(ResourceLimitError):
            ts.dense_matrix(ts.cluster_hamiltonian(15, 0.0))

    def test_iterative_cap(self):
        with pytest.raises(ResourceLimitError):
            ts.ground_state(ts.cluster_hamiltonian(21, 0.0))


class TestExpectation:
    def test_identity(self):
        st = random_state(5, 9)
        assert abs(ts.expectation(st, ts.PauliString(1.0)) - 1.0) < 1e-12

    def test_stabilizer_and_one_point_at_zero_field(self):
        _, gs = ts.ground_state(ts.cluster_hamiltonian(8, 0.0))
        xzx = ts.PauliString(1.0, ((0, "X"), (1, "Z"), (2, "X")))
        assert abs(ts.expectation(gs, xzx) - 1.0) < 1e-9
        for i in range(8):
            assert abs(ts.expectation(gs, ts.PauliString(1.0, ((i, "Z"),)))) < 1e-9

    def test_translation_invariance(self):
        _, gs = ts.ground_state(ts.cluster_hamiltonian(8, 0.7))
        vals = [ts.expectation(gs, ts.PauliString(1.0, ((i, "Z"),))) for i in range(8)]
        assert max(vals) - min(vals) < 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_kronecker_oracle(self, seed):
        n = 4 + seed % 3
        psi = random_state(n, seed + 200)
        for term in random_spec(n, seed).terms:
            matrix = kron_oracle(ts.SpinChainSpec(n, [term]))
            oracle = np.vdot(psi.amplitudes, matrix @ psi.amplitudes)
            assert abs(ts.expectation(psi, term) - oracle.real) < 1e-12

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            ts.expectation(ts.StateVector.basis_state(3), ts.PauliString(1.0, ((5, "X"),)))


class TestRaisingOperator:
    @pytest.mark.parametrize("n", [6, 8, 10])
    def test_raises_to_first_excited(self, n):
        spec = ts.cluster_hamiltonian(n, 0.0)
        energy, gs = ts.ground_state(spec)
        k = 2
        x_k = ts.SpinChainSpec(n, [ts.PauliString(1.0, ((k, "X"),))])
        xyx = ts.SpinChainSpec(
            n,
            [ts.PauliString(1.0, ((k - 1, "X"), (k, "Y"), (k + 1, "X")))],
        )
        raised = ts.apply(x_k, gs).amplitudes - 1j * ts.apply(xyx, gs).amplitudes
        raised /= np.linalg.norm(raised)
        out = ts.apply(spec, ts.StateVector(n, raised)).amplitudes
        residual = np.linalg.norm(out - (energy + 2.0) * raised)
        assert residual < 1e-9


class TestBlockedOperator:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_kronecker_oracle(self, seed):
        n = 3 + seed % 4
        spec = random_spec(n, seed)
        oracle = kron_oracle(spec)
        assert np.max(np.abs(ts.dense_matrix(spec) - oracle)) < 1e-12
        psi = random_state(n, seed + 100)
        assert np.max(np.abs(ts.apply(spec, psi).amplitudes - oracle @ psi.amplitudes)) < 1e-12
        # no translation but the identity: every sector its own representative,
        # with one momentum block
        assert spin_core._translations(spec) == tuple((n, s) for s in range(len(spec.operator().diags)))
        assert np.max(np.abs(ts.dense_spectrum(spec) - np.linalg.eigvalsh(oracle))) < 1e-10

    def test_oracle_covers_complex_and_parity_breaking_terms(self):
        specs = [random_spec(3 + seed % 4, seed) for seed in range(12)]
        assert any(ts.dense_matrix(sp).dtype.kind == "c" for sp in specs)
        assert any(len(sp.operator().diags) == 1 for sp in specs)

    def test_builders_match_oracle(self):
        coup = ts.EffectiveCouplings(0.31, -0.17, 0.05, -0.23, 0.0)
        for spec in (
            ts.cluster_hamiltonian(6, 0.7),
            ts.cluster_hamiltonian(5, 0.3),
            ts.triangle_chain_hamiltonian(coup, (0.1, 0.2, 0.4), 5),
            ts.triangle_chain_hamiltonian(coup, (0.0, 0.0, 0.4), 6),
        ):
            oracle = kron_oracle(spec)
            assert np.max(np.abs(ts.dense_matrix(spec) - oracle)) < 1e-12
            assert np.allclose(ts.dense_spectrum(spec), np.linalg.eigvalsh(oracle), atol=1e-10)

    def test_sector_counts(self):
        coup = ts.EffectiveCouplings(0.31, -0.17, 0.05, -0.23, 0.0)
        for n in (4, 6, 8):
            assert len(ts.cluster_hamiltonian(n, 0.5).operator().diags) == 4
        for n in (5, 7, 9):
            assert len(ts.cluster_hamiltonian(n, 0.5).operator().diags) == 2
        tri = ts.triangle_chain_hamiltonian(coup, (0.1, 0.0, 0.4), 6)
        assert len(tri.operator().diags) == 1

    def test_sectors_partition_the_basis(self):
        op = ts.cluster_hamiltonian(8, 0.5).operator()
        basis = np.concatenate(op.ring.bases)
        assert np.array_equal(np.sort(basis), np.arange(1 << 8))


def alternating_ring(n):
    """ZZ bonds and X fields 0.7, 0.3 alternating: period 2, no conserved mask."""
    terms = [ts.PauliString(1.0, ((i, "Z"), ((i + 1) % n, "Z"))) for i in range(n)]
    terms += [ts.PauliString(0.7 if i % 2 == 0 else 0.3, ((i, "X"),)) for i in range(n)]
    return ts.SpinChainSpec(n, terms)


def staggered_cluster_ring(n, b):
    """The cluster ring in the field b + 0.4 (-1)^i: T^2 is a symmetry but T
    is not, so no translation maps one sector onto another."""
    terms = ts.cluster_hamiltonian(n, 0.0).terms
    terms += [ts.PauliString(b + (0.4 if i % 2 == 0 else -0.4), ((i, "Z"),)) for i in range(n)]
    return ts.SpinChainSpec(n, terms)


def rotate(states, k, n):
    """Basis indices with every site i moved to (i + k) mod n."""
    k %= n
    return ((states << k) | (states >> (n - k))) & ((1 << n) - 1)


def momentum_basis(basis, n, d, q):
    """Q_q on the sector ``basis``: per orbit of T^d (T moves every site by
    one), representative r its smallest index, ascending, the normalized sum
    over all M = n/d translates of exp(2 pi i q j / M) |T^(-dj) r>; an orbit
    whose sum vanishes has no column."""
    period = n // d
    reps = np.unique(np.min([rotate(basis, d * j, n) for j in range(period)], axis=0))
    translates = np.array([rotate(reps, -d * j, n) for j in range(period)])
    q_basis = np.zeros((basis.size, reps.size), dtype=np.complex128)
    columns = np.broadcast_to(np.arange(reps.size), translates.shape)
    phases = np.exp(2j * np.pi * q * np.arange(period) / period)
    np.add.at(q_basis, (np.searchsorted(basis, translates), columns),
              np.broadcast_to(phases[:, None], translates.shape))
    norms = np.linalg.norm(q_basis, axis=0)
    return q_basis[:, norms > 0.5] / norms[norms > 0.5]


def solved_blocks(spec, monkeypatch):
    """The blocks dense_spectrum passes to its dense solve, in order."""
    solved = []
    real_solve = spin_core._solve_block

    def recording_solve(block):
        solved.append(block)
        return real_solve(block)

    monkeypatch.setattr(spin_core, "_solve_block", recording_solve)
    ts.dense_spectrum(spec)
    return solved


class TestMomentumBlocks:
    """dense_spectrum's lattice-momentum blocks inside each Z-parity sector."""

    @pytest.mark.parametrize("seed", range(12))
    def test_invariant_specs_match_oracle(self, seed):
        n = 3 + seed % 6
        spec = invariant_spec(n, seed)
        assert spin_core._translations(spec)[0][0] < n  # T^d fixes sector 0, so d_0 = d
        oracle = np.linalg.eigvalsh(kron_oracle(spec))
        assert np.max(np.abs(ts.dense_spectrum(spec) - oracle)) < 1e-10

    def test_invariant_specs_cover_complex_and_parity_breaking_terms(self):
        specs = [invariant_spec(3 + seed % 6, seed) for seed in range(12)]
        assert {sp.n_sites for sp in specs} == set(range(3, 9))
        assert any(ts.dense_matrix(sp).dtype.kind == "c" for sp in specs)
        assert any(len(sp.operator().diags) == 1 for sp in specs)

    @pytest.mark.parametrize("n", [6, 8])
    def test_alternating_field_ring_has_step_two(self, n):
        spec = alternating_ring(n)
        assert spec.operator().ring.masks == ()
        assert spin_core._translations(spec) == ((2, 0),)
        oracle = np.linalg.eigvalsh(kron_oracle(spec))
        assert np.max(np.abs(ts.dense_spectrum(spec) - oracle)) < 1e-10

    def test_translation_steps_of_the_builders(self):
        coup = ts.EffectiveCouplings(0.31, -0.17, 0.05, -0.23, 0.0)
        for n in (4, 6, 10, 12):
            # T swaps the sublattice masks: it fixes even+,odd+ and even-,odd-,
            # and maps even-,odd+ onto even+,odd-, whose step is then 2
            spec = ts.cluster_hamiltonian(n, 0.5)
            assert spec.operator().ring.labels == ("even+,odd+", "even-,odd+", "even+,odd-", "even-,odd-")
            assert spin_core._translations(spec) == ((1, 0), (2, 1), (2, 1), (1, 3))
        for n in (5, 9, 11):
            assert spin_core._translations(ts.cluster_hamiltonian(n, 0.5)) == ((1, 0), (1, 1))
        tri = ts.triangle_chain_hamiltonian(coup, (0.1, 0.2, 0.4), 7)
        assert spin_core._translations(tri) == ((1, 0),)
        for n in (6, 8):  # T^2 alone is a symmetry, and it fixes every mask
            assert spin_core._translations(staggered_cluster_ring(n, 0.5)) == ((2, 0), (2, 1), (2, 2), (2, 3))

    @pytest.mark.parametrize("spec", [
        ts.cluster_hamiltonian(12, 0.5),
        ts.cluster_hamiltonian(13, 0.5),
        ts.triangle_chain_hamiltonian(ts.EffectiveCouplings(0.31, -0.17, 0.05, -0.23, 0.0), (0.0, 0.0, 0.4), 8),
    ], ids=["cluster-12", "cluster-13", "triangle-8"])
    def test_orbits_match_a_search_oracle(self, spec):
        # every table of Orbits from all M translates at once, each
        # representative's sector row found by a search of the basis
        n, ring = spec.n_sites, spec.operator().ring
        assert ring.masks
        steps = set()
        for s, basis in enumerate(ring.bases):
            for d in (1, 2):
                if n % d or not np.array_equal(np.sort(rotate(basis, d, n)), basis):
                    continue  # T^d does not map the sector onto itself
                steps.add(d)
                period = n // d
                translates = np.array([rotate(basis, d * j, n) for j in range(period)])
                rep = translates.min(axis=0)
                is_rep = rep == basis
                reps = np.flatnonzero(is_rep)
                orbits = ring.orbits(s, d)
                assert orbits.period == period
                assert np.array_equal(orbits.reps, reps)
                assert np.array_equal(orbits.length, period // (translates == basis).sum(axis=0)[reps])
                assert np.array_equal(orbits.orbit, (np.cumsum(is_rep) - 1)[np.searchsorted(basis, rep)])
                assert np.array_equal(orbits.back, translates.argmin(axis=0))
        assert steps == ({1, 2} if n % 2 == 0 else {1})

    @pytest.mark.parametrize("n, steps", [(10, (1, 2, 2, 1)), (11, (1, 1))], ids=["10-2", "11-1"])
    def test_blocks_partition_each_sector_and_all_are_solved(self, n, steps, monkeypatch):
        spec = ts.cluster_hamiltonian(n, 0.5)
        translations = spin_core._translations(spec)
        assert tuple(step for step, _ in translations) == steps
        solved = solved_blocks(spec, monkeypatch)
        # H is real here, so only q = 0..M/2 are solved (every momentum has
        # orbits here), and each 0 < q < M - q block also stands for M - q;
        # a translate solves no block, and its representative's stand for it
        for sector, (step, rep) in zip(sectors(spec), translations):
            if rep != sector.s:
                assert sector.basis.size == sectors(spec)[rep].basis.size
                continue
            period = n // step
            half = period // 2 + 1
            blocks, solved = solved[:half], solved[half:]
            copies = [2 if 0 < q < period - q else 1 for q in range(half)]
            assert sum(c * block.shape[0] for c, block in zip(copies, blocks)) == sector.basis.size
        assert solved == []

    @pytest.mark.parametrize("spec", [
        *(invariant_spec(3 + seed % 6, seed) for seed in range(12)),
        alternating_ring(6),
        alternating_ring(8),
        ts.cluster_hamiltonian(10, 0.5),
        ts.cluster_hamiltonian(11, 0.5),
    ], ids=[*(f"invariant{seed}" for seed in range(12)), "alternating6", "alternating8",
            "cluster10", "cluster11"])
    def test_every_block_is_the_kronecker_momentum_block(self, spec, monkeypatch):
        # Q_q^H H Q_q with Q_q summed over every translate of the Kronecker
        # basis at the sector's own step, against each block dense_spectrum
        # solves, in its order; a real sector's block at q > M - q is the
        # conjugate of the one at M - q, which stands for it.  A translate
        # solves none, and some shift by a multiple of d maps its
        # representative's basis onto its own
        n, translations = spec.n_sites, spin_core._translations(spec)
        d = translations[0][0]
        h = kron_sparse(spec)
        moved = rotate(np.arange(1 << n), d, n)
        assert abs(h[moved][:, moved] - h).max() < 1e-12
        expected = []
        for sector, (step, rep) in zip(sectors(spec), translations):
            if rep != sector.s:
                source = sectors(spec)[rep].basis
                assert any(np.array_equal(np.sort(rotate(source, d * j, n)), sector.basis)
                           for j in range(1, n // d))
                continue
            assert step % d == 0 and np.array_equal(np.sort(rotate(sector.basis, step, n)), sector.basis)
            period = n // step
            h_sector = h[sector.basis][:, sector.basis]
            real = sector.offdiag.dtype.kind == "f"
            dims, blocks = 0, {}
            for q in range(period):
                q_basis = momentum_basis(sector.basis, n, step, q)
                dims += q_basis.shape[1]
                if q_basis.shape[1]:
                    blocks[q] = q_basis.conj().T @ (h_sector @ q_basis)
            assert dims == sector.basis.size
            for q, block in blocks.items():
                if real and q > period - q:
                    assert np.max(np.abs(block - blocks[period - q].conj())) < 1e-12
                else:
                    expected.append(block)
        solved = solved_blocks(spec, monkeypatch)
        assert [block.shape for block in solved] == [block.shape for block in expected]
        for block, oracle in zip(solved, expected):
            assert np.max(np.abs(block - oracle)) < 1e-12

    @pytest.mark.parametrize("n", [10, 12])
    def test_paired_blocks_match_the_full_loop_bit_for_bit(self, n):
        # every momentum block of every representative sector solved, as
        # before the pairing, and a translate's levels its representative's.
        # The block at q > M/2 is solved as the conjugate of the one at M - q:
        # its own fold is that conjugate up to the last bit of the phases
        # (exp(2 pi i 6/10) is not the conjugate of exp(2 pi i 4/10) in
        # floating point), which moves its levels by up to 1.2e-14 at n = 10
        for b in (0.0, 0.7):
            spec = ts.cluster_hamiltonian(n, b)
            ring, per_sector = spec.operator().ring, []
            for sector, (step, rep) in zip(sectors(spec), spin_core._translations(spec)):
                if rep != sector.s:
                    per_sector.append(per_sector[rep])
                    continue
                orbits, levels, blocks = ring.orbits(sector.s, step), [], {}
                period = orbits.period
                diag = np.diag(sector.diag[orbits.reps])
                off = sector.offdiag
                stored = [off.cols[orbits.reps], off.values[orbits.reps]]
                for q in range(period):
                    keep = np.flatnonzero(q * orbits.length % period == 0)
                    if keep.size:
                        blocks[q] = (spin_core._fold(*stored, orbits, q).toarray() + diag)[np.ix_(keep, keep)]
                        if q > period - q:
                            assert np.max(np.abs(blocks[q] - blocks[period - q].conj())) < 1e-14
                            blocks[q] = blocks[period - q].conj()
                        levels.append(spin_core._solve_block(blocks[q]))
                per_sector.append(np.concatenate(levels))
            assert [len(levels) for levels in per_sector] == [sector.basis.size for sector in sectors(spec)]
            assert np.array_equal(ts.dense_spectrum(spec), np.sort(np.concatenate(per_sector)))

    def test_complex_triangle_chain_solves_every_block(self):
        coup = ts.EffectiveCouplings(0.31, -0.17, 0.05, -0.23, 0.0)
        spec = ts.triangle_chain_hamiltonian(coup, (0.1, 0.2, 0.4), 9)
        assert [s.offdiag.dtype.kind for s in sectors(spec)] == ["c"]
        oracle = eigh(ts.dense_matrix(spec), eigvals_only=True)
        assert np.max(np.abs(ts.dense_spectrum(spec) - oracle)) < 1e-10


def kron_sector_levels(spec):
    """Every level of the spec, by dense eigvalsh of each Z-parity sector's
    block of the Kronecker-product H (a block-diagonal H: no entry outside
    the blocks), translates solved on their own."""
    h = kron_sparse(spec)
    blocks = [h[sector.basis][:, sector.basis] for sector in sectors(spec)]
    assert sum(block.nnz for block in blocks) == h.nnz
    return np.sort(np.concatenate([np.linalg.eigvalsh(block.toarray()) for block in blocks]))


class TestTranslates:
    """On an even cluster ring T swaps the sublattices: it fixes even+,odd+
    and even-,odd- (one-site momentum blocks) and maps even-,odd+ onto
    even+,odd-, its translate, whose levels are the representative's."""

    @pytest.mark.parametrize("b", [0.0, 0.5, 1.0, -1.5])
    @pytest.mark.parametrize("n", [6, 8, 10, 12])
    def test_dense_spectrum_matches_eigvalsh(self, n, b):
        spec = ts.cluster_hamiltonian(n, b)
        assert spin_core._translations(spec) == ((1, 0), (2, 1), (2, 1), (1, 3))
        assert np.max(np.abs(ts.dense_spectrum(spec) - kron_sector_levels(spec))) < 1e-10

    @pytest.mark.parametrize("b", [0.0, 0.5, 1.0, -1.5])
    @pytest.mark.parametrize("n", [6, 8, 10])
    def test_staggered_field_keeps_every_step_two(self, n, b):
        spec = staggered_cluster_ring(n, b)
        assert spin_core._translations(spec) == ((2, 0), (2, 1), (2, 2), (2, 3))
        assert np.max(np.abs(ts.dense_spectrum(spec) - kron_sector_levels(spec))) < 1e-10

    @pytest.mark.parametrize("b", [0.5, 1.0])
    @pytest.mark.parametrize("n", [10, 12, 14])
    def test_level_streams_count_every_copy(self, n, b):
        # n = 14 takes dense_spectrum as its oracle, checked against the
        # Kronecker H up to n = 12 above; each sector's lowest level, the
        # translate's included, is also solved on its own whole block
        spec = ts.cluster_hamiltonian(n, b)
        oracle = ring_spectrum(n, b) if n == 14 else kron_sector_levels(spec)
        lowest = ts.lowest_eigenvalues(spec, 8)
        assert np.max(np.abs(lowest - oracle[:8])) < 1e-10
        assert abs(ts.spectral_gap(spec) - spin_core._gap_above_ground(oracle)) < 1e-10
        lows = [spin_core._lanczos(sector.diag, sector.offdiag, 7)[0] for sector in sectors(spec)]
        assert abs(lows[1] - lows[2]) < 1e-10
        for level in lows:  # the mirror pair's lowest level twice
            copies = sum(abs(other - level) < 1e-9 for other in lows)
            assert np.count_nonzero(np.abs(lowest - level) < 1e-9) >= copies

    @pytest.mark.parametrize("n", [10, 12])
    def test_a_translate_is_never_solved(self, n, monkeypatch):
        spin_core._ring.cache_clear()
        spec = ts.cluster_hamiltonian(n, 0.5)
        op = spec.operator()
        solved = []
        real_lanczos = spin_core._lanczos

        def recording(diag, *args, **kwargs):
            solved.append(diag)
            return real_lanczos(diag, *args, **kwargs)

        monkeypatch.setattr(spin_core, "_lanczos", recording)
        ts.dense_spectrum(spec)
        ts.ground_state(spec)
        ts.spectral_gap(spec)
        ts.lowest_eigenvalues(spec, 8)
        ring = op.ring
        # the representatives at their own steps, and nothing of sector 2
        assert sorted(ring._orbits) == sorted(ring._symmetric) == [(0, 1), (1, 2), (3, 1)]
        assert ring._blocks[2] is None and all(ring._blocks[s] is not None for s in (0, 1, 3))
        assert solved and not any(diag is op.diags[2] for diag in solved)
        spin_core._ring.cache_clear()


class TestDegenerateGroundState:
    @pytest.mark.parametrize("n", [10, 14])
    def test_seed_independent_at_critical_field(self, n):
        spec = ts.cluster_hamiltonian(n, 1.0)
        czz = []
        for seed in (7, 8):
            with pytest.warns(ts.DegenerateGroundStateWarning, match="even\\+,odd\\+"):
                _, gs = ts.ground_state(spec, seed=seed)
            czz.append(ts.two_point_connected(gs, "z", "z", 0, 3))
        assert abs(czz[0] - czz[1]) < 1e-10

    def test_tie_inside_one_sector_warns(self):
        spec = ts.SpinChainSpec(
            3,
            [ts.PauliString(1.0, ((0, "X"),)), ts.PauliString(1.0, ((1, "X"),))],
        )
        with pytest.warns(ts.DegenerateGroundStateWarning, match="inside"):
            energy, _ = ts.ground_state(spec)
        assert abs(energy + 2.0) < 1e-12


class TestResidualCheck:
    def test_perturbed_eigenvector_raises(self, monkeypatch):
        # every iterative solver sums its vectors in _lanczos's replay; the
        # n = 12 ring's ground sector has a gauge and the odd ring at B <= -1
        # has none, so ground_state reads one candidate of each kind
        specs = [ts.cluster_hamiltonian(12, 0.5), ts.cluster_hamiltonian(13, -1.5)]
        exacts = [ts.ground_state(spec)[0] for spec in specs]
        real_lanczos = spin_core._lanczos
        rng = np.random.default_rng(0)

        def perturbed_lanczos(*args, **kwargs):
            energy, ritz_vector = real_lanczos(*args, **kwargs)

            def perturbed_vector():
                psi = ritz_vector()
                return psi + 1e-4 * rng.standard_normal(psi.shape)

            return energy, perturbed_vector

        monkeypatch.setattr(spin_core, "_lanczos", perturbed_lanczos)
        for spec, exact in zip(specs, exacts):
            for solve in (ts.lowest_eigenvalues, ts.ground_state, ts.spectral_gap):
                with pytest.raises(ConvergenceError) as info:
                    solve(spec)
                assert abs(info.value.best_energy - exact) < 1e-9


def sector_matrix(sector):
    """The sector's whole block H, its diagonal plus its off-diagonal part,
    as a scipy sparse matrix."""
    return as_csr(sector.offdiag) + diags(sector.diag)


@functools.cache
def ring_spectrum(n, b):
    """dense_spectrum of the cluster ring, shared by the tests that need it."""
    return ts.dense_spectrum(ts.cluster_hamiltonian(n, b))


@functools.cache
def dense_sector_levels(n, b):
    """Per sector of the cluster ring: its two lowest levels and the lowest
    level's vector, by dense eigh."""
    return [
        eigh(sector_matrix(sector).toarray(), subset_by_index=(0, 1))
        for sector in sectors(ts.cluster_hamiltonian(n, b))
    ]


def free_site_chain(n, free=1):
    """ZZ bonds and X fields on sites 0..n-free-1; the last ``free`` sites
    carry no term, so every level, the ground level included, is exactly
    2^free-fold."""
    fields = np.linspace(0.3, 1.2, n - free)
    terms = [ts.PauliString(1.0, ((i, "Z"), (i + 1, "Z"))) for i in range(n - free - 1)]
    terms += [ts.PauliString(float(h), ((i, "X"),)) for i, h in enumerate(fields)]
    return ts.SpinChainSpec(n, terms)


def zz_ring(n):
    """Only ZZ bonds: every block is diagonal, so Lanczos breaks down after a
    few steps; the two Neel states tie inside even+,odd+."""
    return ts.SpinChainSpec(
        n, [ts.PauliString(1.0, ((i, "Z"), ((i + 1) % n, "Z"))) for i in range(n)]
    )


class TestLowestRitz:
    """_lowest_ritz (dense eigh of T_j) against scipy's tridiagonal solver."""

    @staticmethod
    def check(alphas, betas):
        theta, s = spin_core._lowest_ritz(alphas, betas)
        values, vectors = eigh_tridiagonal(alphas, betas, select="i", select_range=(0, 0))
        assert s.shape == (len(alphas),)
        assert abs(theta - values[0]) <= 1e-13 * max(1.0, abs(theta))
        assert abs(abs(s[-1]) - abs(vectors[-1, 0])) <= 1e-10
        assert abs(np.linalg.norm(s) - 1.0) < 1e-13

    def test_random_tridiagonals(self):
        rng = np.random.default_rng(5)
        for j in range(1, 201):
            scale = 10.0 ** rng.uniform(-3, 3)
            self.check(scale * rng.standard_normal(j), scale * rng.uniform(0.0, 2.0, j - 1))

    def test_lanczos_tridiagonals(self, monkeypatch):
        # every T_j that _lanczos checks in ground states and gaps of cluster
        # rings, deflated solves included
        seen = []
        lowest_ritz = spin_core._lowest_ritz

        def recording(alphas, betas):
            seen.append((list(alphas), list(betas)))
            return lowest_ritz(alphas, betas)

        monkeypatch.setattr(spin_core, "_lowest_ritz", recording)
        for n, b in ((10, 0.5), (11, 1.0), (12, 0.3)):
            spec = ts.cluster_hamiltonian(n, b)
            ts.spectral_gap(spec)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ts.DegenerateGroundStateWarning)
                ts.ground_state(spec)
        monkeypatch.undo()
        assert len(seen) > 50
        assert max(len(alphas) for alphas, _ in seen) >= 4 * spin_core.LANCZOS_CHECK_EVERY
        for alphas, betas in seen:
            self.check(alphas, betas)


class TestLanczosGroundState:
    """ground_state's Lanczos path on sectors of 1,024 rows and more."""

    @pytest.mark.parametrize("case", [
        (11, 0.0), (11, 0.5), (11, 1.5), (12, 0.0), (12, 0.5), (12, 1.5), "triangle",
    ], ids=lambda c: c if isinstance(c, str) else f"n{c[0]}-B{c[1]}")
    def test_matches_dense_oracle(self, case):
        if case == "triangle":  # by != 0: one complex sector of 1,024 rows
            spec = ts.triangle_chain_hamiltonian(
                ts.EffectiveCouplings(0.31, -0.17, 0.05, -0.23, 0.0), (0.1, 0.2, 0.4), 10
            )
            levels = [eigh(sector_matrix(s).toarray(), subset_by_index=(0, 1))
                      for s in sectors(spec)]
            assert sectors(spec)[0].offdiag.dtype.kind == "c"
        else:
            spec = ts.cluster_hamiltonian(*case)
            levels = dense_sector_levels(*case)
        parts = sectors(spec)
        lows = np.sort(np.concatenate([vals for vals, _ in levels]))
        assert lows[1] - lows[0] > 1e-3  # a unique ground state to compare with
        best = int(np.argmin([vals[0] for vals, _ in levels]))
        oracle = np.zeros(1 << spec.n_sites, dtype=np.complex128)
        oracle[parts[best].basis] = levels[best][1][:, 0]
        energy, state = ts.ground_state(spec)
        assert abs(energy - lows[0]) < 1e-10
        assert abs(np.vdot(oracle, state.amplitudes)) > 1 - 1e-10

    @pytest.mark.parametrize("n", [10, 11, 12])
    def test_tie_in_one_large_sector_warns(self, n):
        spec = free_site_chain(n)
        (sector,) = sectors(spec)
        assert sector.label == "all states" and sector.basis.size == 1 << n
        with pytest.warns(ts.DegenerateGroundStateWarning, match="inside"):
            ts.ground_state(spec)

    def test_breakdown_on_diagonal_ring(self):
        n = 12
        ring = zz_ring(n)
        with pytest.warns(ts.DegenerateGroundStateWarning, match="inside .*even\\+,odd\\+"):
            energy, state = ts.ground_state(ring)
        assert abs(energy + n) < 1e-12
        residual = ts.apply(ring, state).amplitudes - energy * state.amplitudes
        assert np.linalg.norm(residual) < 1e-12

    def test_step_cap_raises_with_best_energy(self, monkeypatch):
        spec = ts.cluster_hamiltonian(12, 0.5)
        exact = min(vals[0] for vals, _ in dense_sector_levels(12, 0.5))
        monkeypatch.setattr(spin_core, "LANCZOS_STEP_CAP", 2 * spin_core.LANCZOS_CHECK_EVERY)
        with pytest.raises(ConvergenceError) as info:
            ts.ground_state(spec)
        # a Ritz value bounds the sector's lowest level from above
        assert exact - 1e-12 <= info.value.best_energy < exact + 1e-3

    def test_deflated_check_finds_every_copy(self):
        # every sector of 1,024 rows on the cluster rings n=11, 12 over
        # B = 0..2: the deflated solve lands on E0 exactly when dense eigh
        # shows a second copy of the sector's lowest level
        tied = found = 0
        for n in (11, 12):
            for b in np.arange(9) * 0.25:
                spec = ts.cluster_hamiltonian(n, b)
                for sector, (vals, _) in zip(sectors(spec), dense_sector_levels(n, b)):
                    assert sector.basis.size == 1024
                    energy, ritz_vector = spin_core._lanczos(sector.diag, sector.offdiag, 7)
                    shifted, _ = spin_core._lanczos(
                        sector.diag, sector.offdiag, 8, deflate=ritz_vector(),
                        shift=spin_core._deflation_shift(spec),
                    )
                    assert abs(energy - vals[0]) < 1e-10
                    is_tied = vals[1] - vals[0] < spin_core.DEGENERACY_TOL
                    tied += is_tied
                    found += is_tied and shifted - energy < spin_core.DEGENERACY_TOL
                    if not is_tied:
                        assert shifted - energy > spin_core.DEGENERACY_TOL
        assert (tied, found) == (20, 20)


class TestLanczosGap:
    """spectral_gap: deflated Lanczos above the ground manifold."""

    def test_cluster_rings_match_dense_oracle(self):
        # every sector has 1,024 rows; the sweep holds the 20 in-sector ties
        # of test_deflated_check_finds_every_copy
        tied = 0
        for n in (11, 12):
            for b in np.arange(9) * 0.25:
                spec = ts.cluster_hamiltonian(n, b)
                assert all(s.basis.size == 1024 for s in sectors(spec))
                tied += sum(vals[1] - vals[0] < spin_core.DEGENERACY_TOL
                            for vals, _ in dense_sector_levels(n, b))
                oracle = spin_core._gap_above_ground(ts.dense_spectrum(spec))
                assert abs(ts.spectral_gap(spec) - oracle) < 1e-10
        assert tied == 20

    @pytest.mark.parametrize("case", [
        "free10", "free11", "free12", "free10-fourfold", "zz12", "triangle",
    ])
    def test_matches_dense_oracle(self, case):
        oracle_spec = None
        if case.startswith("free"):
            free = 2 if "fourfold" in case else 1
            spec = free_site_chain(int(case[4:6]), free)
            # the same levels without the free sites' 2^free-fold copies: the
            # gap is unchanged, and the dense solve is 2^free times smaller
            oracle_spec = ts.SpinChainSpec(spec.n_sites - free, spec.terms)
        elif case == "zz12":
            spec = zz_ring(12)
        else:  # by != 0: one complex sector of 1,024 rows
            spec = ts.triangle_chain_hamiltonian(
                ts.EffectiveCouplings(0.31, -0.17, 0.05, -0.23, 0.0), (0.1, 0.2, 0.4), 10
            )
            assert sectors(spec)[0].offdiag.dtype.kind == "c"
        oracle = spin_core._gap_above_ground(ts.dense_spectrum(oracle_spec or spec))
        assert abs(ts.spectral_gap(spec) - oracle) < 1e-10

    def test_zero_mode_ring_matches_dense_spectrum(self):
        # n = 14 at B = 1: the ground manifold spans two sectors
        spec = ts.cluster_hamiltonian(14, 1.0)
        lows = np.array([spin_core._lanczos(s.diag, s.offdiag, 7)[0] for s in sectors(spec)])
        assert np.count_nonzero(lows - lows.min() < spin_core.DEGENERACY_TOL) == 2
        oracle = spin_core._gap_above_ground(ring_spectrum(14, 1.0))
        assert abs(ts.spectral_gap(spec) - oracle) < 1e-10

    @pytest.mark.parametrize("n", [9, 10])  # one sector of 512 or 1,024 rows
    def test_manifold_at_the_cap_raises(self, n, monkeypatch):
        spec = free_site_chain(n, free=3)  # every level eightfold
        assert spin_core.GAP_LEVELS == 8
        with pytest.raises(ConvergenceError):
            ts.spectral_gap(spec)
        monkeypatch.setattr(spin_core, "GAP_LEVELS", 9)  # one copy more is allowed
        oracle = spin_core._gap_above_ground(
            ts.dense_spectrum(ts.SpinChainSpec(n - 3, spec.terms))
        )
        assert abs(ts.spectral_gap(spec) - oracle) < 1e-10


class TestGapAboveGround:
    """_gap_above_ground: the one rule for a level above the ground manifold."""

    def test_level_at_the_tolerance_is_above(self, monkeypatch):
        levels = [0.0, spin_core.DEGENERACY_TOL, 1.0]
        assert spin_core._gap_above_ground(np.array(levels)) == spin_core.DEGENERACY_TOL
        # spectral_gap reads its merged stream through the same rule
        monkeypatch.setattr(spin_core, "_levels", lambda spec, seed: iter(levels))
        assert ts.spectral_gap(ts.cluster_hamiltonian(6, 0.0)) == spin_core.DEGENERACY_TOL

    def test_stops_at_the_first_level_above(self):
        def stream():
            yield from (-1.0, -1.0 + 1e-9, 0.5)
            raise AssertionError("read past the first level above the ground manifold")

        assert spin_core._gap_above_ground(stream()) == 1.5

    def test_no_level_above_raises(self):
        with pytest.raises(ConvergenceError):
            spin_core._gap_above_ground([0.0, 0.5 * spin_core.DEGENERACY_TOL])


class TestLowestEigenvalues:
    """lowest_eigenvalues: the gap's deflation loop on every sector."""

    @pytest.mark.parametrize("n, free, k", [(12, 1, 2), (12, 2, 4), (13, 1, 2)])
    def test_lists_every_copy_of_a_degenerate_level(self, n, free, k):
        spec = free_site_chain(n, free)
        # the chain without its free sites has the same levels, each 2^free
        # times fewer; written in the X basis (ZZ -> XX, X -> Z), it conserves
        # the Z-parity of all sites, which halves each dense solve
        swap = {"X": "Z", "Z": "X"}
        terms = [ts.PauliString(t.coeff, tuple((s, swap[op]) for s, op in t.factors))
                 for t in spec.terms]
        levels = ts.dense_spectrum(ts.SpinChainSpec(n - free, terms))
        oracle = np.repeat(levels, 1 << free)[:k]
        assert oracle[-1] == oracle[0]  # the k lowest are copies of one level
        assert np.max(np.abs(ts.lowest_eigenvalues(spec, k) - oracle)) < 1e-10

    @pytest.mark.parametrize("n, b", [(13, 0.5), (13, 1.0), (14, 0.5), (14, 1.0)])
    def test_cluster_rings_match_dense_spectrum(self, n, b):
        spec = ts.cluster_hamiltonian(n, b)
        oracle = ring_spectrum(n, b)[:16]
        lowest = ts.lowest_eigenvalues(spec, 16)
        assert np.all(np.diff(lowest) >= 0)
        assert np.max(np.abs(lowest - oracle)) < 1e-10

    @pytest.mark.parametrize("n", [13, 14])
    def test_one_solve_per_level_read(self, n, monkeypatch):
        # the merged stream solves each representative sector's lowest
        # level, then one more level each time the last copy of a level is
        # read, from that level's sector: on the even ring each level of the
        # mirror pair's representative comes twice, and its translate is
        # never solved
        spec = ts.cluster_hamiltonian(n, 0.5)
        op = spec.operator()
        copies = Counter(rep for _, rep in spin_core._translations(spec))
        solves = []
        real_lanczos = spin_core._lanczos

        def counted_lanczos(diag, *args, **kwargs):
            theta, ritz_vector = real_lanczos(diag, *args, **kwargs)
            solves.append(([d is diag for d in op.diags].index(True), theta))
            return theta, ritz_vector

        monkeypatch.setattr(spin_core, "_lanczos", counted_lanczos)
        k = 16
        lowest = ts.lowest_eigenvalues(spec, k)
        assert {s for s, _ in solves} == set(copies)
        # the solved levels merged as the streams merge them, every copy
        # included, each item tagged with its sector and its solve
        solved = {s: [(level, s, i) for i, (t, level) in enumerate(solves) if t == s] for s in copies}
        stream = list(heapq.merge(*([item for item in levels for _ in range(copies[s])]
                                    for s, levels in solved.items()), key=itemgetter(0)))
        assert np.array_equal(lowest, np.sort([level for level, _, _ in stream[:k]]))
        read = Counter(stream[:k - 1])  # a pull follows every read but the k-th
        expected = {s: 1 + sum(count == copies[s] for (_, t, _), count in read.items() if t == s) for s in copies}
        assert Counter(s for s, _ in solves) == expected
        assert max(read.values()) == (2 if n % 2 == 0 else 1)  # some level read in both its copies


def small_spec(family, n, arg):
    """A chain of TestSmallSectors."""
    if family == "random":
        return random_spec(n, arg)
    if family == "invariant":
        return invariant_spec(n, arg)
    if family == "free":
        return free_site_chain(n, arg)
    if family == "zz":
        return zz_ring(n)
    return ts.cluster_hamiltonian(n, arg)


SMALL_CASES = (
    [(family, n, seed) for family in ("random", "invariant")
     for n in range(3, 9) for seed in (n, n + 20)]
    + [("free", n, free) for n in range(4, 11) for free in (1, 2)]
    + [("zz", n, 0) for n in range(4, 11)]
    + [("cluster", n, b) for n in range(4, 11) for b in (0.0, 0.5, 1.0, 1.5)]
)


def dense_warning_kind(spec):
    """ground_state's degeneracy rule applied to each sector's dense
    eigenvalues: "across", "inside" or None."""
    levels = [np.linalg.eigvalsh(sector_matrix(s).toarray()) for s in sectors(spec)]
    lows = np.array([vals[0] for vals in levels])
    tied = np.flatnonzero(lows - lows.min() < spin_core.DEGENERACY_TOL)
    if tied.size > 1:
        return "across"
    vals = levels[tied[0]]
    return "inside" if vals.size > 1 and vals[1] - vals[0] < spin_core.DEGENERACY_TOL else None


class TestSmallSectors:
    """Chains of 3 to 10 sites, whose sectors of 4 to 1,024 rows all take
    the one Lanczos path, against dense eigenvalues."""

    @pytest.mark.parametrize("case", SMALL_CASES, ids=lambda c: "-".join(map(str, c)))
    def test_matches_dense_spectrum(self, case):
        spec = small_spec(*case)
        levels = ts.dense_spectrum(spec)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            energy, state = ts.ground_state(spec)
        kinds = [kind for w in caught if issubclass(w.category, ts.DegenerateGroundStateWarning)
                 for kind in ("across", "inside") if kind in str(w.message)]
        expected = dense_warning_kind(spec)
        assert kinds == ([expected] if expected else [])
        assert abs(energy - levels[0]) < 1e-10
        residual = ts.apply(spec, state).amplitudes - energy * state.amplitudes
        assert np.linalg.norm(residual) < 1e-8
        for k in (1, 2, 5, 16):
            lowest = ts.lowest_eigenvalues(spec, k)
            assert lowest.shape == levels[:k].shape
            assert np.all(np.diff(lowest) >= 0)
            assert np.max(np.abs(lowest - levels[:k])) < 1e-10
        if np.count_nonzero(levels - levels[0] < spin_core.DEGENERACY_TOL) >= spin_core.GAP_LEVELS:
            with pytest.raises(ConvergenceError):
                ts.spectral_gap(spec)
        else:
            oracle = spin_core._gap_above_ground(levels)
            assert abs(ts.spectral_gap(spec) - oracle) < 1e-10

    def test_cases_cover_every_warning_kind_and_the_gap_cap(self):
        specs = [small_spec(*case) for case in SMALL_CASES]
        assert {dense_warning_kind(spec) for spec in specs} == {"across", "inside", None}
        capped = [np.count_nonzero(levels - levels[0] < spin_core.DEGENERACY_TOL)
                  >= spin_core.GAP_LEVELS for levels in map(ts.dense_spectrum, specs)]
        assert 0 < sum(capped) < len(specs)


def cancelling_hop_chain(n):
    """Open XX+YY chain in a staggered Z field: real, and its bond flips
    connect each sector, but XX+YY cancels on every bond whose two spins
    agree, so those stored entries are zero."""
    terms = [ts.PauliString(-1.0, ((i, op), (i + 1, op))) for i in range(n - 1) for op in "XY"]
    terms += [ts.PauliString(0.1 * (i + 1), ((i, "Z"),)) for i in range(n)]
    return ts.SpinChainSpec(n, terms)


def symmetric_blocks(spec):
    """The SymmetricBlock of every sector of the spec at the sector's own
    step: those that ground_state solves, its representatives', and its
    translates' too."""
    ring = spec.operator().ring
    return [ring.symmetric_block(s, step) for s, (step, _) in enumerate(spin_core._translations(spec))]


def orbit_count(spec, sector):
    """Number of orbits of the sector's own translation T^(d_s) in it, d_s
    from ``_translations``, from every translate of every basis state."""
    n, d = spec.n_sites, spin_core._translations(spec)[sector.s][0]
    moved = [sector.basis]
    for _ in range(1, n // d):
        moved.append(spin_core._rotate_sites(moved[-1], d, n))
    return np.unique(np.min(moved, axis=0)).size


class TestPerronFrobenius:
    """ground_state's stoquastic symmetric blocks and sign gauges
    (``_Ring.symmetric_blocks``): the block's lowest level bounds the sector's,
    and a gauge makes it the sector's simple lowest level."""

    def test_certified_sectors_have_a_simple_lowest_level(self):
        cases = [(spec, None) for spec in (small_spec(*case) for case in SMALL_CASES)]
        cases += [(ts.cluster_hamiltonian(n, b), dense_sector_levels(n, b))
                  for n in range(4, 13) for b in np.arange(-4, 5) * 0.5]
        certified = refused = 0
        for spec, levels in cases:
            if levels is None:
                levels = [eigh(sector_matrix(s).toarray(), subset_by_index=(0, min(1, s.basis.size - 1)))
                          for s in sectors(spec)]
            for sector, block, (vals, _) in zip(sectors(spec), symmetric_blocks(spec), levels):
                assert block.orbits.reps.size == orbit_count(spec, sector)
                matrix = block.offdiag.toarray() + np.diag(sector.diag[block.orbits.reps])
                assert np.max(np.abs(matrix - matrix.T), initial=0.0) < 1e-12
                level = np.linalg.eigvalsh(matrix)[0]
                assert level <= vals[0] + 1e-10
                if block.gauge is None:
                    refused += 1
                else:
                    certified += 1
                    assert abs(level - vals[0]) < 1e-10
                    assert vals[1] > vals[0]
        assert certified > 100 and refused > 100

    @pytest.mark.parametrize("case", ["triangle", "free", "zz", "cancelling"])
    def test_refused(self, case):
        specs = {
            # by != 0: one complex sector
            "triangle": lambda: [ts.triangle_chain_hamiltonian(
                ts.EffectiveCouplings(0.31, -0.17, 0.05, -0.23, 0.0), (0.1, 0.2, 0.4), 8
            )],
            # the free site is disconnected, whether or not the fields make
            # every entry negative
            "free": lambda: [free_site_chain(8), ts.SpinChainSpec(8, [
                ts.PauliString(-abs(t.coeff), t.factors) for t in free_site_chain(8).terms
            ])],
            "zz": lambda: [zz_ring(8)],  # no hopping at all: the blocks have empty rows
            "cancelling": lambda: [cancelling_hop_chain(8)],
        }[case]()
        for spec in specs:
            ring = spec.operator().ring
            for sector, block in zip(sectors(spec), symmetric_blocks(spec)):
                assert block.gauge is None
                assert block.orbits.reps.size == orbit_count(spec, sector)
                if case == "zz":
                    assert as_csr(block.offdiag).nnz == 0
                if case == "cancelling":  # real and connected: refused for its zeros alone
                    off = as_csr(sector.offdiag)
                    assert off.dtype.kind == "f" and np.any(off.data == 0.0)
                    # this gauge gives every nonzero entry the right sign, and
                    # opposite signs across every zero entry
                    gauge = (-1.0) ** (np.bitwise_count(sector.basis) // 2)
                    assert not spin_core._is_gauge(sector.basis, ring.steps, ring.groups, gauge)
                    nonzero = off.data != 0.0
                    rows = np.repeat(np.arange(sector.basis.size), off.indptr[1])
                    signs = gauge[rows] * gauge[off.indices] * off.data
                    assert np.all(signs[nonzero] < 0.0)

    @pytest.mark.parametrize("n", [8, 9, 10])
    def test_gauge_makes_every_entry_negative(self, n):
        # H = G S G exactly, S = diag(H) - |offdiag(H)|, on every gauged sector
        gauged = 0
        for b in (0.0, 0.5, -1.5):
            spec = ts.cluster_hamiltonian(n, b)
            for sector, block in zip(sectors(spec), symmetric_blocks(spec)):
                if block.gauge is None:
                    continue
                gauged += 1
                h = sector_matrix(sector).toarray()
                s = np.diag(np.diag(h)) - np.abs(h - np.diag(np.diag(h)))
                assert np.array_equal(block.gauge[:, None] * h * block.gauge[None, :], s)
                assert set(np.unique(block.gauge)) == {-1.0, 1.0}
        assert gauged >= 3

    @pytest.mark.parametrize("spec, blocks, full, deflated", [
        (ts.cluster_hamiltonian(12, 0.5), 3, 0, 0),  # four sectors, one a translate
        (ts.cluster_hamiltonian(13, 0.5), 2, 0, 0),
        (ts.cluster_hamiltonian(13, -1.5), 2, 1, 1),  # odd ring, B <= -1: no gauge
        (free_site_chain(10), 1, 1, 1),
    ], ids=["n12", "n13", "n13-negative-field", "free10"])
    def test_tie_check_only_where_not_proven(self, spec, blocks, full, deflated, monkeypatch):
        # one block solve per representative sector; a full-sector solve
        # only for a sector without a gauge whose bound reaches the ground level
        assert blocks == sum(rep == s for s, (_, rep) in enumerate(spin_core._translations(spec)))
        calls = []
        real_lanczos = spin_core._lanczos

        def counted_lanczos(*args, **kwargs):
            calls.append(kwargs.get("deflate") is not None)
            return real_lanczos(*args, **kwargs)

        monkeypatch.setattr(spin_core, "_lanczos", counted_lanczos)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ts.DegenerateGroundStateWarning)
            ts.ground_state(spec)
        assert len(calls) == blocks + full + deflated
        assert sum(calls) == deflated


class TestSharedOffDiagonal:
    """The field-independent part is one ring, built once per ring."""

    def test_fields_share_it(self):
        low, high = ts.cluster_hamiltonian(9, 0.3), ts.cluster_hamiltonian(9, 1.7)
        assert low.operator().ring is high.operator().ring
        for a, b in zip(sectors(low), sectors(high)):
            assert a.offdiag is b.offdiag and a.basis is b.basis
            assert not np.array_equal(a.diag, b.diag)
        for spec in (low, high):
            assert np.max(np.abs(ts.dense_matrix(spec) - kron_oracle(spec))) < 1e-12

    def test_a_field_sweep_builds_one_symmetric_block_per_ring(self):
        spin_core._ring.cache_clear()
        energies, blocks, orbits = {}, [], []
        for n in (10, 9, 10):  # a ring built again after another one was freed
            for b in (0.3, 0.8, 1.6):
                spec = ts.cluster_hamiltonian(n, b)
                energies.setdefault((n, b), []).append(ts.ground_state(spec)[0])
                ring = spec.operator().ring
                keys = [(s, step) for s, (step, rep) in enumerate(spin_core._translations(spec)) if rep == s]
                blocks.append([ring.symmetric_block(*key) for key in keys])
                orbits.append([ring.orbits(*key) for key in keys])
        assert spin_core._ring.cache_info().misses == 3
        # each ring's first field builds its tables, and the later fields share them
        for built in (blocks, orbits):
            shared = [len(a) == len(b) and all(x is y for x, y in zip(a, b)) for a, b in zip(built, built[1:])]
            assert shared == [True, True, False] * 2 + [True, True]
        for (n, b), found in energies.items():
            oracle = min(vals[0] for vals, _ in dense_sector_levels(n, b))
            assert np.max(np.abs(np.array(found) - oracle)) < 1e-10


    def test_an_evicted_ring_is_freed(self):
        # the ring memoises its tables on itself, so once the cache has moved
        # on and no spec holds the ring, nothing keeps it or its tables alive
        spec = ts.cluster_hamiltonian(9, 0.5)
        ts.ground_state(spec)
        ts.dense_spectrum(spec)
        ts.apply(spec, random_state(9, 1))
        ring = weakref.ref(spec.operator().ring)
        del spec
        assert ring() is not None  # still the cached ring
        ts.cluster_hamiltonian(10, 0.5).operator()
        assert ring() is None


def masked_chain(case):
    """A chain for each set of conserved masks, real and complex, ring and
    open; ``diagonal`` has no off-diagonal term at all (m = 0)."""
    p = ts.PauliString
    fields = lambda n: [p(0.3 + 0.1 * i, ((i, "Z"),)) for i in range(n)]  # noqa: E731
    if case == "both-ring":
        return ts.cluster_hamiltonian(8, 0.5)
    if case == "both-open-complex":  # flips {i, i+2}, one Y each
        return ts.SpinChainSpec(7, [p(0.7, ((i, "X"), (i + 1, "Z"), (i + 2, "Y"))) for i in range(5)]
                                + fields(7))
    if case == "even-open":  # single flips on odd sites only
        return ts.SpinChainSpec(7, [p(0.4, ((i, "X"),)) for i in (1, 3, 5)]
                                + [p(-0.6, ((i, "X"), (i + 2, "X"))) for i in (0, 2, 4)] + fields(7))
    if case == "odd-ring-complex":  # single flips on even sites only
        return ts.SpinChainSpec(8, [p(0.4, ((i, "X"),)) for i in (0, 2, 4, 6)]
                                + [p(-0.6, ((i, "Y"), ((i + 2) % 8, "X"))) for i in (1, 3, 5, 7)] + fields(8))
    if case == "all-ring":
        return ts.cluster_hamiltonian(9, 0.5)
    if case == "all-open-cancelling":  # flips {i, i+1}, XX + YY: explicit zeros
        return cancelling_hop_chain(7)
    if case == "all-open-complex":  # flips {i, i+1}
        return ts.SpinChainSpec(6, [p(0.5 - 0.1 * i, ((i, "X"), (i + 1, "Y"))) for i in range(5)] + fields(6))
    if case == "none-ring-complex":
        coup = ts.EffectiveCouplings(0.31, -0.17, 0.05, -0.23, 0.0)
        return ts.triangle_chain_hamiltonian(coup, (0.1, 0.2, 0.4), 7)
    if case == "none-ring":
        spec = ts.cluster_hamiltonian(8, 0.5)
        return ts.SpinChainSpec(8, spec.terms + [p(0.2, ((i, "X"),)) for i in range(8)])
    assert case == "diagonal"
    return zz_ring(8)


def eager_offdiag(n, sector, groups, is_complex):
    """The sector's off-diagonal ``(columns, values)``, each flattened row by
    row, built on its own position table, flip by flip and term by term."""
    basis = sector.basis
    position = np.full(1 << n, -1, dtype=np.int32)
    position[basis] = np.arange(basis.size)
    data = np.zeros((len(groups), basis.size), dtype=np.complex128 if is_complex else np.float64)
    indices = np.empty((basis.size, len(groups)), dtype=np.int32)
    for j, (flip, terms) in enumerate(groups):
        cols = basis ^ flip
        indices[:, j] = position[cols]
        for zy, pref in terms:
            sign = 1.0 - 2.0 * (np.bitwise_count(cols & zy) & 1) if zy else 1.0
            data[j] += (pref if is_complex else pref.real) * sign
    return indices.ravel(), data.T.ravel()


MASKED_CASES = [
    ("both-ring", ("even", "odd"), "f"),
    ("both-open-complex", ("even", "odd"), "c"),
    ("even-open", ("even",), "f"),
    ("odd-ring-complex", ("odd",), "c"),
    ("all-ring", ("all",), "f"),
    ("all-open-cancelling", ("all",), "f"),
    ("all-open-complex", ("all",), "c"),
    ("none-ring-complex", (), "c"),
    ("none-ring", (), "f"),
    ("diagonal", ("even", "odd"), "f"),
]


class TestColumnTable:
    """In every Z-parity sector row r's column under flip j is r ^ s_j, and
    the sectors that build a table share one."""

    @pytest.mark.parametrize("case, masks, kind", MASKED_CASES)
    def test_every_sector_reads_the_shared_table(self, case, masks, kind):
        spec = masked_chain(case)
        n = spec.n_sites
        ring = spec.operator().ring
        groups, is_complex, steps = ring.groups, ring.is_complex, ring.steps
        named = {"even": sum(1 << i for i in range(0, n, 2)), "odd": sum(1 << i for i in range(1, n, 2)),
                 "all": (1 << n) - 1}
        assert ring.masks == tuple(named[name] for name in masks)
        assert (len(groups) == 0) == (case == "diagonal")
        assert len(steps) == len(groups)
        assert np.array_equal(np.sort(np.concatenate([s.basis for s in sectors(spec)])), np.arange(1 << n))
        for s, sector in enumerate(sectors(spec)):
            basis = sector.basis
            assert np.all(np.diff(basis) > 0)
            for j, mask in enumerate(ring.masks):
                assert np.all(np.bitwise_count(basis & mask) % 2 == (s >> j) & 1)
            position = np.full(1 << n, -1)
            position[basis] = np.arange(basis.size)
            rows = np.arange(basis.size)
            for step, (flip, _) in zip(steps, groups):
                assert np.array_equal(position[basis ^ flip], rows ^ step)
            assert sector.dtype.kind == kind
            off = sector.offdiag
            indices, data = eager_offdiag(n, sector, groups, is_complex)
            assert off.cols.dtype == indices.dtype and np.array_equal(off.cols.ravel(), indices)
            assert off.values.dtype == data.dtype and off.values.tobytes() == data.tobytes()
            assert np.array_equal(off.indptr, np.arange(basis.size + 1) * len(groups))
            # one column table and one indptr for every sector, once built
            assert np.shares_memory(off.cols, ring.block(0).cols) or not groups
            assert np.shares_memory(off.indptr, ring.block(0).indptr)
            assert not (off.values.flags.writeable or off.cols.flags.writeable or off.indptr.flags.writeable)
        assert np.max(np.abs(ts.dense_matrix(spec) - kron_oracle(spec))) < 1e-12


class TestTableFreeCheck:
    """The residual check applies a sector's H flip by flip, with no table."""

    @pytest.mark.parametrize("case", [case for case, _, _ in MASKED_CASES])
    def test_matches_the_table_product(self, case):
        rng = np.random.default_rng(len(case))
        spec = masked_chain(case)
        for sector in sectors(spec):
            x = rng.standard_normal(sector.basis.size).astype(sector.dtype)
            if sector.dtype.kind == "c":
                x += 1j * rng.standard_normal(sector.basis.size)
            got = spin_core._flip_matvec(spec.operator(), sector.s, x)
            want = spin_core._sector_matvec(sector.diag, sector.offdiag, x, np.empty_like(x))
            assert got.dtype == want.dtype
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
            if sector.dtype.kind == "f":  # the same sums in the same order
                assert got.tobytes() == want.tobytes()

    def test_gauged_ground_state_builds_no_table(self):
        # a fresh process: no table of another test, and a peak of its own
        peak = run_fresh(GAUGED_GROUND)
        assert int(peak) < 12 * 2**20


GAUGED_GROUND = """
import tracemalloc
import trispin as ts
from trispin import spin_core


def refuse(*args):
    raise AssertionError("a gauged ground state built a table")


spin_core._Ring.block = refuse
spin_core._Ring._table = property(refuse)
tracemalloc.start()
_, state = ts.ground_state(ts.cluster_hamiltonian(17, 0.5))
print(tracemalloc.get_traced_memory()[1])
"""


class TestLazyValues:
    """A sector's off-diagonal values are built only when its H is applied,
    and at most once per ring."""

    @pytest.fixture(autouse=True)
    def recorded_entries(self, monkeypatch):
        # a fresh ring per test, and the rows of every ``_entries`` call: a
        # sector's block is built from its whole basis, a fold from some rows
        spin_core._ring.cache_clear()
        self.rows = []
        entries = spin_core._entries

        def recording(rows, *args):
            self.rows.append(rows)
            return entries(rows, *args)

        monkeypatch.setattr(spin_core, "_entries", recording)
        yield
        spin_core._ring.cache_clear()

    def builds(self, spec):
        """How many times each sector's values have been built."""
        return [sum(rows is basis for rows in self.rows) for basis in spec.operator().ring.bases]

    def test_gauged_ground_state_builds_no_sector(self):
        # its residual check applies the ground sector's H flip by flip
        spec = ts.cluster_hamiltonian(13, 1.5)
        assert self.builds(spec) == [0, 0]
        _, psi = ts.ground_state(spec)
        ground = [int(np.any(psi.amplitudes[sector.basis])) for sector in sectors(spec)]
        assert sorted(ground) == [0, 1]
        assert self.builds(spec) == [0, 0]

    def test_zero_field_ground_state_builds_the_ungauged_sector(self):
        # the sector without a gauge ties: it is solved in full, by a table
        spec = ts.cluster_hamiltonian(13, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ts.DegenerateGroundStateWarning)
            ts.ground_state(spec)
        blocks = symmetric_blocks(spec)
        assert self.builds(spec) == [int(block.gauge is None) for block in blocks]
        assert sorted(self.builds(spec)) == [0, 1]

    @pytest.mark.parametrize("solve, builds", [
        # the mirror sector even+,odd- is a translate of even-,odd+: its
        # levels are that sector's, and it builds nothing
        (ts.spectral_gap, [1, 1, 0, 1]),
        (lambda spec: ts.apply(spec, random_state(spec.n_sites, 3)), [1, 1, 1, 1]),
    ], ids=["spectral_gap", "apply"])
    def test_solvers_of_every_sector_build_every_sector(self, solve, builds):
        spec = ts.cluster_hamiltonian(10, 0.5)
        solve(spec)
        assert self.builds(spec) == builds

    def test_dense_spectrum_builds_no_sector(self):
        # it folds the representatives' rows alone, and builds no column table
        spec = ts.cluster_hamiltonian(10, 0.5)
        ts.dense_spectrum(spec)
        assert self.builds(spec) == [0, 0, 0, 0]
        assert self.rows and "_table" not in vars(spec.operator().ring)

    def test_symmetric_blocks_and_dtypes_build_none(self):
        spec = ts.cluster_hamiltonian(13, 1.5)
        blocks = symmetric_blocks(spec)
        assert any(block.gauge is not None for block in blocks)
        assert [sector.dtype.kind for sector in sectors(spec)] == ["f", "f"]
        assert self.builds(spec) == [0, 0]

    def test_a_field_sweep_builds_each_sector_once(self):
        specs = [ts.cluster_hamiltonian(13, b) for b in (1.5, 0.0, 0.5, 2.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ts.DegenerateGroundStateWarning)
            for spec in specs:
                ts.ground_state(spec)
                ts.spectral_gap(spec)
        assert self.builds(specs[0]) == [1, 1]


def run_fresh(script, *args):
    """Run ``script`` in a fresh interpreter that imports this checkout's
    trispin; returns its stdout, and fails the test on a nonzero exit."""
    src = str(Path(ts.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script, *args], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout


KERNEL_ORACLE = """
import sys
import numpy as np
if sys.argv[1] == "before":
    import scipy.sparse
import trispin as ts
from trispin import spin_core
from scipy.sparse import csr_matrix


def as_csr(block):
    rows = block.cols.shape[0]
    return csr_matrix((block.values.ravel(), block.cols.ravel(), block.indptr), shape=(rows, rows))


def same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def check_block(block, rng):
    rows = block.cols.shape[0]
    csr = as_csr(block)
    assert same(block.toarray(), csr.toarray())
    x = rng.standard_normal(rows).astype(block.dtype)
    if block.dtype.kind == "c":
        x += 1j * rng.standard_normal(rows)
    assert same(block.matvec_add(x, np.zeros(rows, dtype=block.dtype)), csr @ x)


rng = np.random.default_rng(5)
coup = ts.EffectiveCouplings(0.31, -0.17, 0.05, -0.23, 0.0)
specs = [ts.cluster_hamiltonian(12, 0.5), ts.cluster_hamiltonian(13, -1.5),
         ts.triangle_chain_hamiltonian(coup, (0.1, 0.2, 0.4), 9)]
kinds, folds = set(), set()
for spec in specs:
    op = spec.operator()
    ring = op.ring
    for s, (step, rep) in enumerate(spin_core._translations(spec)):
        diag, off = op.diags[s], ring.block(s)
        kinds.add(off.dtype.kind)
        check_block(off, rng)
        # the whole sector H as one CSR matrix, each row's diagonal first
        rows, m = off.cols.shape
        whole = csr_matrix((np.column_stack([diag, off.values]).ravel(),
                            np.column_stack([np.arange(rows, dtype=np.int32), off.cols]).ravel(),
                            np.arange(rows + 1) * (m + 1)), shape=(rows, rows))
        x = rng.standard_normal(rows).astype(ring.dtype)
        out = spin_core._sector_matvec(diag, off, x, np.empty_like(x))
        assert same(out, whole @ x)
        split = diag * x + as_csr(off) @ x
        assert np.max(np.abs(out - split)) <= 1e-13 * np.max(np.abs(split))
        if rep != s:  # a translate: no fold and no symmetric block
            continue
        orbits = ring.orbits(s, step)
        reps = orbits.reps
        for q in sorted({0, 1, orbits.period // 2}):
            folded = spin_core._fold(off.cols[reps], off.values[reps], orbits, q)
            folds.add((q > 0, folded.dtype.kind))
            check_block(folded, rng)
            # the representatives' rows formed with no block, as dense_spectrum folds them
            assert same(folded.toarray(), spin_core._fold(*ring.rep_rows(s, orbits), orbits, q).toarray())
        check_block(ring.symmetric_block(s, step).offdiag, rng)
assert kinds == {"f", "c"}, kinds
assert folds == {(False, "f"), (True, "f"), (True, "c"), (False, "c")}, folds
import scipy.sparse
print(scipy.sparse._sparsetools.__name__, spin_core._sparsetools.__name__)
"""


class TestStandaloneKernels:
    """The block's two kernels, loaded from scipy's extension file alone,
    are the ones behind scipy's CSR product and dense fill, bit for bit,
    whether ``scipy.sparse`` is imported before trispin or after."""

    @pytest.mark.parametrize("order", ["before", "after"])
    def test_blocks_match_scipy_bit_for_bit(self, order):
        # under its private name the file does not stand in for the
        # submodule that ``import scipy.sparse`` makes its attribute
        assert run_fresh(KERNEL_ORACLE, order).split() == ["scipy.sparse._sparsetools", "trispin._sparsetools"]

    def test_missing_extension_file_raises(self, monkeypatch, tmp_path):
        (tmp_path / "sparse").mkdir()
        scipy_spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        scipy_spec.submodule_search_locations = [str(tmp_path)]
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: scipy_spec)
        with pytest.raises(ImportError, match="_sparsetools"):
            spin_core._load_sparsetools()
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
        with pytest.raises(ImportError, match="any installed scipy"):
            spin_core._load_sparsetools()

    def test_blocks_are_read_only_and_checked(self):
        off = ts.cluster_hamiltonian(8, 0.5).operator().ring.block(0)
        for array in (off.cols, off.values, off.indptr):
            with pytest.raises(ValueError):
                array[0] = 0
        with pytest.raises(ValueError, match="do not match"):
            spin_core.FixedWidthBlock(off.cols, off.values[:-1], off.indptr)
        with pytest.raises(ValueError, match="do not match"):
            spin_core.FixedWidthBlock(off.cols, off.values, off.indptr + 1)
        x = np.ones(off.cols.shape[0])
        with pytest.raises(ValueError, match="rows"):
            off.matvec_add(x[:-1], np.zeros_like(x))


WARM_FAULTS = """
import resource, sys
import numpy as np
import trispin as ts
n, source = int(sys.argv[1]), sys.argv[2]
if source == "ground":
    _, state = ts.ground_state(ts.cluster_hamiltonian(n, 0.5))
else:
    # no ground state, and the state made in place: no array of its size is
    # freed before the read-outs
    amps = np.empty(1 << n, dtype=np.complex128)
    np.random.default_rng(n).standard_normal(out=amps.view(np.float64))
    amps /= np.linalg.norm(amps)
    state = ts.StateVector(n, amps)
pair = (0, n // 2)
plan = ts.cluster_scheme_plan(n, pair)
anneal = ts.AnnealConfig(n_temps=2, proposals_per_temp=3, restarts=2, seed=1)
calls = {
    "branch_average": lambda: ts.branch_average(state, plan),
    "expectation": lambda: ts.expectation(state, ts.PauliString(1.0, ((0, "X"), (1, "Z"), (2, "X")))),
    "two_point_connected": lambda: ts.two_point_connected(state, "z", "z", 0, 3),
    "optimize_plan": lambda: ts.optimize_plan(state, pair, anneal),
}
# Python's small-object allocator touches its pools a page at a time as
# objects come and go; touch them first, so that every fault left is an
# array's.  A chain of pairs, so that no large block of the C heap is made
# and freed on the way
chain = None
for _ in range(4000):
    for size in range(0, 480, 8):
        chain = (chain, bytes(size))
del chain
for name, call in calls.items():
    call()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(3):
        call()
    print(name, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's dynamic mmap threshold")
@pytest.mark.parametrize("n", [16, 17])
def test_warm_calls_make_no_minor_faults(n):
    # in a fresh process: a warm read-out writes into the thread's work
    # arrays and allocates nothing of the state's size.  Without them its
    # 2^n-sized temporaries are fresh mappings, faulted in on every call,
    # unless an earlier free raised glibc's dynamic mmap threshold: after a
    # ground state, and with no such free on a random state
    for source in ("ground", "random"):
        faults = dict(line.split() for line in run_fresh(WARM_FAULTS, str(n), source).splitlines())
        names = ("branch_average", "expectation", "two_point_connected", "optimize_plan")
        assert faults == {name: "0" for name in names}, source
