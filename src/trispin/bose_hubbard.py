"""Two-species Bose-Hubbard triangle: effective spin couplings from the
third-order tunneling expansion, exact diagonalization of the full bosonic
model, and validation of the truncation against the effective spin model.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .spin_core import ResourceLimitError, dense_matrix, triangle_chain_hamiltonian

N_SITES = 3
BONDS = ((0, 1), (1, 2), (2, 0))

#: Ratio max(J)/min(U) above which the expansion is suspect.
PERTURBATIVE_WARN_RATIO = 0.2
#: Largest (N_a, N_b) sector built as a dense matrix.
FULL_DIM_CAP = 20000


@dataclass(frozen=True)
class BoseHubbardParams:
    """Tunneling and collisional couplings of the two-species model (energy units)."""

    j_a: float
    j_b: float
    u_aa: float
    u_bb: float
    u_ab: float

    def __post_init__(self):
        for name in ("j_a", "j_b", "u_aa", "u_bb", "u_ab"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"coupling {name} must be finite")
        for name in ("u_aa", "u_bb", "u_ab"):
            if getattr(self, name) <= 0:
                raise ValueError(f"collisional coupling {name} must be strictly positive")
        for name in ("j_a", "j_b"):
            if getattr(self, name) < 0:
                raise ValueError(f"tunneling amplitude {name} must be non-negative")

    @property
    def perturbative_ratio(self) -> float:
        return max(self.j_a, self.j_b) / min(self.u_aa, self.u_bb, self.u_ab)

    @property
    def perturbative_ok(self) -> bool:
        return self.perturbative_ratio < PERTURBATIVE_WARN_RATIO

    def swapped(self) -> "BoseHubbardParams":
        """Parameters with the two species exchanged."""
        return BoseHubbardParams(self.j_b, self.j_a, self.u_bb, self.u_aa, self.u_ab)


@dataclass(frozen=True)
class EffectiveCouplings:
    """Spin couplings of the effective chain model plus the single-particle
    phase-rotation field that experiments compensate externally."""

    lambda1: float
    lambda2: float
    lambda3: float
    lambda4: float
    b_z_comp: float


def effective_couplings(params: BoseHubbardParams) -> EffectiveCouplings:
    """Closed-form third-order couplings.

    Terms are grouped so the species-exchange symmetry is exact in floating
    point: lambda1 and lambda2 are symmetric under a<->b, while lambda3,
    lambda4 and the compensation field flip sign.  Warns when
    max(J)/min(U) >= ``PERTURBATIVE_WARN_RATIO``.
    """
    ratio = params.perturbative_ratio
    if ratio >= PERTURBATIVE_WARN_RATIO:
        warnings.warn(
            f"max(J)/min(U) = {ratio:.3f} >= {PERTURBATIVE_WARN_RATIO}; "
            "third-order couplings are unreliable here"
        )
    ja, jb = params.j_a, params.j_b
    uaa, ubb, uab = params.u_aa, params.u_bb, params.u_ab

    lam1 = (
        ((-(ja**2) / uaa) + (-(jb**2) / ubb))
        + ((-4.5 * ja**3 / uaa**2) + (-4.5 * jb**3 / ubb**2))
        + 0.5 * (ja**2 + jb**2) / uab
        + 0.5 * (ja**3 + jb**3) / uab**2
        + (ja**3 / uaa + jb**3 / ubb) / uab
    )
    lam2 = -(ja * jb / uab) * (
        1.0 + (ja / uaa + jb / ubb) + 1.5 * (ja + jb) / uab
    ) - 0.5 * ja * jb * (ja / uaa**2 + jb / ubb**2)
    lam3 = -1.5 * (ja**3 / uaa**2 - jb**3 / ubb**2) + (
        ja**3 / uaa - jb**3 / ubb
    ) / uab
    lam4 = -(ja * jb / uab) * (ja / uaa - jb / ubb) - 0.5 * ja * jb * (
        ja / uaa**2 - jb / ubb**2
    )
    bz = -(ja**2 / uaa) * (2.0 + 4.5 * ja / uaa + ja / uab) + (jb**2 / ubb) * (
        2.0 + 4.5 * jb / ubb + jb / uab
    )
    return EffectiveCouplings(lam1, lam2, lam3, lam4, bz)


# --- full two-species triangle ------------------------------------------------

@dataclass(frozen=True)
class FockBasis:
    """Occupation basis of the triangle at fixed atom numbers (N_a, N_b).

    States are 3-tuples of per-site (n_a, n_b) pairs, enumerated in a fixed
    deterministic order (lexicographic in the a-distribution, then the
    b-distribution).
    """

    n_a: int
    n_b: int
    states: tuple[tuple[tuple[int, int], ...], ...]

    @classmethod
    def build(cls, n_a: int, n_b: int) -> "FockBasis":
        if n_a < 0 or n_b < 0:
            raise ValueError("sector totals must be non-negative")
        return cls(n_a, n_b, tuple(
            tuple(zip(dist_a, dist_b))
            for dist_a in _compositions(n_a)
            for dist_b in _compositions(n_b)
        ))

    @property
    def dim(self) -> int:
        return len(self.states)

    def index(self) -> dict:
        return {state: k for k, state in enumerate(self.states)}

    def one_per_site_indices(self) -> list[int]:
        """Basis indices of states with exactly one atom on every site."""
        return [
            k for k, state in enumerate(self.states)
            if all(na + nb == 1 for na, nb in state)
        ]


def _compositions(total: int) -> list[tuple[int, int, int]]:
    return [
        (x, y, total - x - y)
        for x in range(total, -1, -1)
        for y in range(total - x, -1, -1)
    ]


def _collision_energy(state, params: BoseHubbardParams) -> float:
    e = 0.0
    for na, nb in state:
        e += 0.5 * params.u_aa * na * (na - 1)
        e += 0.5 * params.u_bb * nb * (nb - 1)
        e += params.u_ab * na * nb
    return e


def _hamiltonian_on_basis(params: BoseHubbardParams, basis: FockBasis) -> np.ndarray:
    lookup = basis.index()
    dim = basis.dim
    h = np.zeros((dim, dim))
    for k, state in enumerate(basis.states):
        h[k, k] = _collision_energy(state, params)
        for i, j in BONDS:
            for species, coupling in ((0, params.j_a), (1, params.j_b)):
                if coupling == 0.0:
                    continue
                # hop one atom in both directions along the bond
                for src, dst in ((i, j), (j, i)):
                    n_src = state[src][species]
                    if n_src == 0:
                        continue
                    n_dst = state[dst][species]
                    amp = -coupling * np.sqrt(n_src * (n_dst + 1))
                    new = [list(pair) for pair in state]
                    new[src][species] -= 1
                    new[dst][species] += 1
                    target = tuple(tuple(pair) for pair in new)
                    h[lookup[target], k] += amp
    return h


def build_full_hamiltonian(params: BoseHubbardParams, sector: tuple[int, int]) -> np.ndarray:
    """Dense Hermitian matrix of the triangle in the (N_a, N_b) sector.

    Rows/columns follow :meth:`FockBasis.build` ordering.  Bosonic matrix
    elements carry the sqrt(n (m+1)) enhancement factors.
    """
    basis = FockBasis.build(*sector)
    if basis.dim > FULL_DIM_CAP:
        raise ResourceLimitError(
            f"sector {sector} has dimension {basis.dim} > cap {FULL_DIM_CAP}"
        )
    return _hamiltonian_on_basis(params, basis)


# --- truncation validation ------------------------------------------------------

@dataclass
class LevelDeviation:
    sector: tuple[int, int]
    full: float
    effective: float
    abs_dev: float
    rel_dev: float


@dataclass
class TruncationReport:
    """Per-level comparison of the full triangle spectrum (one-atom-per-site
    manifold) against the effective spin model."""

    levels: list[LevelDeviation]
    max_rel_dev: float
    spread: float
    ambiguous: bool


#: Overlap-score margins below which manifold identification is flagged.
_AMBIGUOUS_SCORE = 0.5
_AMBIGUOUS_MARGIN = 0.1


def _manifold_energies(
    params: BoseHubbardParams, sector: tuple[int, int]
) -> tuple[np.ndarray, bool]:
    """Eigenvalues adiabatically connected to the one-atom-per-site states.

    Selection is by maximal total overlap with the one-per-site Fock states,
    not by energy ordering, so near-degeneracies do not scramble the match.
    """
    basis = FockBasis.build(*sector)
    h = _hamiltonian_on_basis(params, basis)
    vals, vecs = np.linalg.eigh(h)
    manifold = basis.one_per_site_indices()
    want = len(manifold)
    scores = np.sum(np.abs(vecs[manifold, :]) ** 2, axis=0)
    order = np.argsort(-scores, kind="stable")
    chosen = order[:want]
    ambiguous = bool(scores[chosen].min() < _AMBIGUOUS_SCORE)
    if basis.dim > want:
        margin = scores[chosen].min() - scores[order[want:]].max()
        ambiguous = bool(ambiguous or margin < _AMBIGUOUS_MARGIN)
    return np.sort(vals[chosen]), ambiguous


def _effective_sector_energies(couplings: EffectiveCouplings) -> dict[int, np.ndarray]:
    """Spectrum of the effective 3-spin model, keyed by number of down spins.

    The intrinsic phase-rotation field b_z_comp is part of the derived model
    (its external compensation is an experimental step the full bosonic
    model does not contain), so it is included here.
    """
    spec = triangle_chain_hamiltonian(couplings, (0.0, 0.0, couplings.b_z_comp), N_SITES)
    h = dense_matrix(spec)
    out: dict[int, np.ndarray] = {}
    for k in range(N_SITES + 1):
        idx = [b for b in range(1 << N_SITES) if bin(b).count("1") == k]
        block = h[np.ix_(idx, idx)]
        out[k] = np.linalg.eigvalsh(block)
    return out


def validate_perturbation(params: BoseHubbardParams) -> TruncationReport:
    """Compare full-triangle manifold energies against the effective model.

    Both 8-level sets are shifted by their own mean (the expansion fixes the
    spectrum only up to the constant absorbed by the interaction picture);
    levels are paired within fixed (N_a, N_b) sectors by energy order.
    Relative deviations are normalized by the spread (max - min) of the
    mean-shifted full manifold.
    """
    couplings = effective_couplings(params)
    eff_blocks = _effective_sector_energies(couplings)

    rows: list[tuple[tuple[int, int], float, float]] = []
    ambiguous = False
    for n_a in range(N_SITES, -1, -1):
        n_b = N_SITES - n_a
        full, amb = _manifold_energies(params, (n_a, n_b))
        ambiguous = ambiguous or amb
        eff = eff_blocks[n_b]  # a down spin holds a b atom
        for f, e in zip(full, eff):
            rows.append(((n_a, n_b), f, e))

    full_all = np.array([r[1] for r in rows])
    eff_all = np.array([r[2] for r in rows])
    full_all -= full_all.mean()
    eff_all -= eff_all.mean()
    spread = float(full_all.max() - full_all.min())

    levels = []
    for (sector, _, _), f, e in zip(rows, full_all, eff_all):
        abs_dev = float(abs(f - e))
        rel_dev = abs_dev / spread if spread > 1e-300 else 0.0
        levels.append(LevelDeviation(sector, float(f), float(e), abs_dev, rel_dev))
    max_rel = max(lv.rel_dev for lv in levels)
    return TruncationReport(levels, max_rel, spread, ambiguous)
