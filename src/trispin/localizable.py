"""Localizable entanglement on exact chain states: exhaustive enumeration of
product-basis measurement branches, the prescribed measurement schemes, a
simulated-annealing basis optimizer, entanglement-length extraction, and the
field sweep of correlation against entanglement length.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .free_fermion import (
    CorrelationSeries,
    LengthEstimate,
    ZeroSeriesError,
    correlation_length,
    czz_analytic,
)
from .spin_core import (
    ResourceLimitError,
    StateVector,
    _sites_last,
    _work,
    cluster_hamiltonian,
    ground_state,
)

#: Branches with joint probability below this are dropped from the average.
PROB_CUTOFF = 1e-14
#: Largest number of measured spins enumerated exhaustively.
MEASURED_CAP = 20
#: Branches per block of ``_read``'s kept-branch compaction, so that each of
#: its temporaries holds at most this many entries whatever n.
_READ_BLOCK = 4096
#: Entries per BLAS dot of ``_read``'s squared norm.  OpenBLAS splits a dot
#: of more than 10,000 entries across its threads, which changes its
#: rounding, so a longer sum would move with the thread count.
_DOT_BLOCK = 8192
#: Annealing schedule: the starting temperature, the cooling factor applied
#: after each temperature step, and the angle step (radians) at ``T_START``,
#: which shrinks in proportion to the temperature.
T_START = 0.5
COOLING = 0.97
SIGMA0 = 0.6


@dataclass(frozen=True)
class MeasurementPlan:
    """Projective single-site measurement directions for all spins except a
    target pair.

    Each measured site carries Bloch angles (theta, phi) defining the axis
    n = (sin(theta) cos(phi), sin(theta) sin(phi), cos(theta)); outcomes
    project onto the +/- n eigenvectors.  theta = 0 measures Z,
    (theta, phi) = (pi/2, 0) measures X.  ``target_pair`` is stored in
    ascending order.
    """

    n_sites: int
    target_pair: tuple[int, int]
    angles: dict[int, tuple[float, float]]

    def __post_init__(self):
        p, q = sorted(self.target_pair)
        if p == q:
            raise ValueError("target pair must be two distinct sites")
        if not (0 <= p < self.n_sites and 0 <= q < self.n_sites):
            raise ValueError("target pair outside the chain")
        object.__setattr__(self, "target_pair", (int(p), int(q)))
        expected = set(range(self.n_sites)) - {p, q}
        if set(self.angles) != expected:
            raise ValueError("plan must assign angles to every site except the pair")
        cleaned = {}
        for site, (theta, phi) in self.angles.items():
            theta = float(theta)
            phi = float(phi)
            if not (math.isfinite(theta) and math.isfinite(phi)):
                raise ValueError(f"non-finite angle ({theta}, {phi}) on site {site}")
            if not (0.0 <= theta <= math.pi + 1e-12):
                raise ValueError(f"theta out of [0, pi] on site {site}")
            cleaned[int(site)] = (theta, phi % (2.0 * math.pi))
        object.__setattr__(self, "angles", cleaned)


@dataclass
class BranchResult:
    """One measurement outcome: its probability and the residual pair state.

    ``outcome`` lists the measured sites' results (0 for +n, 1 for -n) in
    ascending site order.  ``amplitudes[2 * bit(larger site) + bit(smaller
    site)]`` is the normalized residual amplitude, the package's basis
    convention restricted to the target pair.  Its global phase is that of
    the measured bras, (cos(theta/2), e^{-i phi} sin(theta/2)) for +n and
    (-sin(theta/2), e^{-i phi} cos(theta/2)) for -n; it moves neither the
    probability nor the concurrence.
    """

    outcome: tuple[int, ...]
    probability: float
    amplitudes: np.ndarray
    concurrence: float


@dataclass
class LocEntResult:
    """Average residual concurrence of a measurement plan."""

    value: float
    plan: MeasurementPlan
    branch_count: int
    branches: list[BranchResult] | None = None


def concurrence_pure(amplitudes) -> float:
    """Concurrence 2|a00 a11 - a01 a10| of a normalized two-qubit pure state."""
    amps = np.asarray(amplitudes, dtype=np.complex128).ravel()
    if amps.shape != (4,):
        raise ValueError("expected 4 amplitudes")
    nrm = np.linalg.norm(amps)
    if not abs(nrm - 1.0) <= 1e-10:  # NaN fails too
        raise ValueError(f"state not normalized: |psi| = {nrm}")
    return float(2.0 * abs(amps[0] * amps[3] - amps[1] * amps[2]))


#: The Z bras, ``_measurement_matrix(0, 0)``, which ``_rotate_all`` skips.
_IDENTITY = [[1.0, 0.0], [0.0, 1.0]]


def _measurement_matrix(theta: float, phi: float) -> np.ndarray:
    """Rows are the bras <+n| = (cos(theta/2), e^{-i phi} sin(theta/2)) and
    <-n| = (-sin(theta/2), e^{-i phi} cos(theta/2)) in the computational
    basis, so the Z bras (theta = phi = 0) are exactly the identity.  The
    matrix is real (float64) when phi = 0, complex otherwise."""
    ct, st = math.cos(theta / 2.0), math.sin(theta / 2.0)
    if phi == 0.0:
        return np.array([[ct, st], [-st, ct]])
    e = np.exp(-1j * phi)  # conjugate phase: the rows are bras
    return np.array([[ct, e * st], [-st, e * ct]])


def _rotate_site(a: np.ndarray, u: np.ndarray, k: int, *keep: np.ndarray, pair=None) -> np.ndarray:
    """Apply the 2x2 matrix ``u`` to the middle axis of
    ``x = a.reshape(2**k, 2, m)``; returns a work array (``_work``) of
    ``a``'s shape that is neither ``a`` nor any array of ``keep``.  It
    writes views of two work slots, ``pair`` when given (``_rotate_all``
    keeps one pair for all its rotations), else the first two ``free`` of
    ``a`` and ``keep``: each write goes to the slot that does not hold its
    input.  A real ``a`` meeting a complex ``u`` is first cast into one
    slot and then rotated into the other."""
    batch = 1 << k
    m = a.size // (2 * batch)
    work = _work(a.size)
    pair = pair or work.free(a, *keep)
    dtype = u.dtype if u.dtype.kind == "c" else a.dtype  # float64 or complex128, as matmul's
    if a.dtype != dtype:  # cast here, as matmul would, but into a work array
        cast = work.view(pair[a.base is work.slots[pair[0]]], a.shape, dtype)
        np.copyto(cast, a)
        a = cast
    out = work.view(pair[a.base is work.slots[pair[0]]], a.shape, dtype)
    x = a.reshape(batch, 2, m)
    # Three exact forms, picked by shape; each output entry is the same two
    # products in all, the rest exact zeros, and they agree bit for bit on
    # every tensor tested.  The batched matmul makes one small product per
    # batch entry, so its cost grows with 2^k; the kron form is one BLAS
    # product doing m times the needed flops, its (2m, 2m) matrix
    # kron(u^T, 1_m) built by broadcasting; the grouped form makes one
    # (8, 8) x (8, 16) product, kron(1_4, u), per four batch entries.
    # Two timing runs, one BLAS thread, matmul vs kron form:
    #   n=17: k=11, m=32: 1.0-2.1 vs 1.7-1.8 ms; k=12, m=16: 1.6-1.8 vs 0.9-1.1 ms;
    #         k=14, m=4: 5.6-7.3 vs 0.4-0.6 ms
    #   n=13: k=7, m=32: 54-62 vs 100-125 us; k=8, m=16: 101-104 vs 69-78 us
    #   n=11: k=5, m=32: 17-23 vs 50-64 us; k=6, m=16: 28-35 vs 26-36 us;
    #         k=7, m=8: 47-51 vs 18-26 us
    #   n=9:  k=4, m=16: 9-14 vs 18-26 us; k=5, m=8: 13-22 vs 18-20 us;
    #         k=6, m=4: 25-32 vs 12-17 us
    # So a one-product form is taken for m <= 16 once the batch is at least
    # 8m; below that the matmul wins or ties.  From n=13 up every m <= 16
    # meets the batch bound.  Real (float64) tensors, which a real state gives
    # up to its first complex bra, two runs, same setup:
    #   n=17: k=12, m=16: 148-164 vs 194-196 us; k=13, m=8: 265 vs 153-174 us;
    #         k=14, m=4: 464-471 vs 136-170 us
    #   n=13: k=8, m=16: 10-11 vs 14 us; k=9, m=8: 18 vs 10 us; k=10, m=4: 31 vs 8-9 us
    #   n=9:  k=5, m=8: 3 vs 6-7 us; k=6, m=4: 4 vs 5 us
    # In float64 the matmul beats the kron form at m = 16 and at n=9, k=6;
    # one rule serves both dtypes.  At m = 16 the grouped form beats both, in
    # both dtypes; kron vs grouped vs matmul, best of 200 interleaved calls:
    #   n=17, k=12: complex 0.77 vs 0.66 vs 1.24 ms; real 245 vs 106 vs 179 us
    #   n=13, k=8:  complex 55 vs 48 vs 85 us; real 25-28 vs 17-22 vs 19-22 us
    if m == 16 and batch >= 8 * m:
        grouped = (batch // 4, 8, 16)
        kron = (np.eye(4)[:, None, :, None] * u[:, None, :]).reshape(8, 8)
        np.matmul(kron, x.reshape(grouped), out=out.reshape(grouped))
    elif m < 16 and batch >= 8 * m:
        kron = (u.T[:, None, :, None] * np.eye(m)[:, None, :]).reshape(2 * m, 2 * m)
        np.matmul(x.reshape(batch, 2 * m), kron, out=out.reshape(batch, 2 * m))
    else:
        np.matmul(u, x, out=out.reshape(batch, 2, m))
    return out


def _plan_bras(plan: MeasurementPlan) -> list[np.ndarray]:
    """``plan``'s measurement matrices in ascending site order; sites with
    equal angles share one matrix."""
    matrices = {angles: _measurement_matrix(*angles) for angles in set(plan.angles.values())}
    return [matrices[plan.angles[site]] for site in sorted(plan.angles)]


def _rotate_all(a: np.ndarray, bras: list[np.ndarray], *keep: np.ndarray) -> np.ndarray:
    """Pair-last tensor ``a`` (``_best_plan``'s) rotated by ``bras``, one per
    measured site in ascending site order, back and forth between two work
    slots, picked once, that leave ``a`` and every array of ``keep`` as
    they are; identity (Z) bras are skipped, so with no other bra ``a``
    itself is returned."""
    pair = _work(a.size).free(a, *keep)[:2]
    for k, u in enumerate(reversed(bras)):
        if u.tolist() != _IDENTITY:
            a = _rotate_site(a, u, k, pair=pair)
    return a


def _dets(a: np.ndarray) -> np.ndarray:
    """Each row's unnormalized concurrence 2|a00 a11 - a01 a10| of a plan's
    rotated tensor, a work array (``_work``)."""
    work = _work(a.size)
    det = np.multiply(a[:, 0], a[:, 3], out=work.det[a.dtype.kind])
    det -= np.multiply(a[:, 1], a[:, 2], out=work.product[a.dtype.kind])
    dets = np.abs(det, out=work.dets)
    dets *= 2.0
    return dets


def _branches(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(probs, keep, dets)`` of a plan's rotated tensor: each branch's
    probability, the mask of branches above ``PROB_CUTOFF``, and each
    branch's unnormalized concurrence (``_dets``).  The three arrays are
    work arrays (``_work``), overwritten by the next read."""
    work = _work(a.size)
    re_im = a.view(np.float64)
    probs = np.einsum("bi,bi->b", re_im, re_im, out=work.probs)
    return probs, np.greater(probs, PROB_CUTOFF, out=work.keep), _dets(a)


def _read(a: np.ndarray) -> tuple[float, int]:
    """Branch average of a plan's rotated tensor, a ``_rotate_all`` of the
    pair-last copy, float64 or complex128: ``(value, kept)``, the average
    and the number of branches above ``PROB_CUTOFF``.

    A pure pair state's concurrence is at most 1, so each branch's
    probability is at least its unnormalized concurrence 2|det|.  When every
    2|det| exceeds twice the cutoff, a margin that covers the rounding of
    that bound, every branch is kept without forming a probability: the
    value is sum(2|det|) over the squared norm.  Otherwise the branches'
    probabilities (``_branches``) are formed, the ones below the cutoff
    dropped and the rest renormalized.
    """
    flat = a.view(np.float64).ravel()
    rows = flat.reshape(-1, min(flat.size, _DOT_BLOCK))  # one dot a row (_DOT_BLOCK)
    total = float(np.vecdot(rows, rows).sum())
    if not abs(total - 1.0) <= 1e-10:  # NaN fails too
        raise AssertionError(f"branch probabilities sum to {total}, not 1")
    dets = _dets(a)
    if dets.min() > 2.0 * PROB_CUTOFF:
        return float(dets.sum() / total), dets.size
    probs, keep, dets = _branches(a)
    if keep.all():
        return float(dets.sum() / probs.sum()), keep.size
    # the kept entries compacted, one block at a time, into the float views of
    # det and product, free once dets is formed: the values, and so the sums,
    # of dets[keep] and probs[keep].  numpy has no compaction into a given
    # array without a temporary of the kept count (compress(out=) makes two)
    work = _work(a.size)
    kept_dets, kept_probs, stop = work.det["f"], work.product["f"], 0
    for lo in range(0, keep.size, _READ_BLOCK):
        block = slice(lo, lo + _READ_BLOCK)
        start, stop = stop, stop + int(np.count_nonzero(keep[block]))
        kept_dets[start:stop] = dets[block][keep[block]]
        kept_probs[start:stop] = probs[block][keep[block]]
    return float(kept_dets[:stop].sum() / kept_probs[:stop].sum()), stop


def _check_state(state: StateVector) -> None:
    n = state.n_sites
    if n - 2 > MEASURED_CAP:
        raise ResourceLimitError(f"{n - 2} measured spins exceed the cap {MEASURED_CAP}")
    # the squared norm, which _read checks on every rotated tensor
    amps = state.amplitudes
    if not abs(np.vdot(amps, amps).real - 1.0) <= 1e-10:  # NaN fails too
        raise ValueError("input state must be normalized")


def _best_plan(
    state: StateVector, plans: list[MeasurementPlan]
) -> tuple[MeasurementPlan, list[np.ndarray], np.ndarray, tuple[float, int]]:
    """The best of ``plans``, all on one target pair, on ``state``, the first
    on ties: ``(plan, bras, tensor, (value, kept))``, with ``bras`` its
    ``_plan_bras``, ``tensor`` the state rotated into them, a work array
    (``_work``), and ``value`` and ``kept`` the tensor's ``_read`` value and
    count of kept branches.

    The state is checked and its ``_sites_last`` copy (pair last, larger site
    first; float64 for a real state, so rotated in real arithmetic until its
    first complex bra) made once for all plans.  Row r of a tensor holds the
    pair's four amplitudes for the outcome whose bits are the measured sites
    in descending order, so measured site s is the middle axis of
    ``tensor.reshape(2**k, 2, -1)``, k the number of measured sites above s.
    No tensor shares memory with the state; a real one holds the real parts
    of the complex computation, bit for bit.  ``branch_average`` takes the
    same path for its one plan.
    """
    _check_state(state)
    base = _sites_last(state, plans[0].target_pair[::-1])
    best = None
    for plan in plans:
        bras = _plan_bras(plan)
        a = _rotate_all(base, bras, best[2] if best else base)  # the best tensor so far is kept
        read = _read(a)
        if best is None or read[0] > best[3][0]:
            best = (plan, bras, a, read)
    return best


def branch_average(
    state: StateVector,
    plan: MeasurementPlan,
    keep_branches: bool = False,
) -> LocEntResult:
    """Exact enumeration of every measurement outcome of ``plan``.

    All 2^(n-2) outcomes come from rotating each measured site of the state
    tensor into its measurement basis (total work O(n 2^n)) and reading the
    target pair's four amplitudes per outcome; branches with joint probability
    below ``PROB_CUTOFF`` are dropped and the rest renormalized.  The average
    is sum(p * concurrence) / sum(p) over the kept branches (``_read``, which
    forms no probability when no branch can fall below the cutoff).  Only
    ``keep_branches`` forms every branch's probability and concurrence
    (``_branches``).
    """
    n = state.n_sites
    if plan.n_sites != n:
        raise ValueError("plan and state sizes do not match")
    _check_state(state)
    a = _rotate_all(_sites_last(state, plan.target_pair[::-1]), _plan_bras(plan))
    value, kept = _read(a)

    branches = None
    if keep_branches:
        probs, keep, dets = _branches(a)
        branches = []
        for row in np.nonzero(keep)[0]:
            # outcomes in ascending site order
            outcome = tuple(int(bit) for bit in np.unravel_index(row, (2,) * (n - 2))[::-1])
            amps = a[row] / np.sqrt(probs[row])
            branches.append(
                BranchResult(
                    outcome=outcome,
                    probability=float(probs[row]),
                    amplitudes=amps,
                    concurrence=float(dets[row] / probs[row]),
                )
            )
    return LocEntResult(value, plan, kept, branches)


# --- prescribed schemes ---------------------------------------------------------

_Z_ANGLES = (0.0, 0.0)
_X_ANGLES = (math.pi / 2.0, 0.0)


def cluster_scheme_plan(n: int, pair: tuple[int, int]) -> MeasurementPlan:
    """Z on each spin between the targets, X on the rest (the B=0 recipe).

    "Between" means the interior of the shorter arc of the ring; an
    antipodal tie is broken toward the arc containing the smaller site index.
    """
    p, q = sorted(pair)
    fwd = [(p + k) % n for k in range(1, (q - p) % n)]
    bwd = [(q + k) % n for k in range(1, (p - q) % n)]
    if len(fwd) < len(bwd):
        between = fwd
    elif len(bwd) < len(fwd):
        between = bwd
    else:
        between = fwd if min(fwd, default=n) < min(bwd, default=n) else bwd
    angles = {}
    for site in range(n):
        if site in (p, q):
            continue
        angles[site] = _Z_ANGLES if site in between else _X_ANGLES
    return MeasurementPlan(n, (p, q), angles)


def lower_bound_plan(n: int, l_site: int, far_basis: str = "z") -> MeasurementPlan:
    """Lower-bound recipe for |B| < 1, pairing spin 1 with spin L = 2k+1.

    Sites are numbered 1..n here, as measurement recipes usually are (the
    returned plan is 0-based): X on spin 2, Z on the interior spins 3..L-1.
    The far-arc spins (L+1..n) admit either basis; ``far_basis="z"``
    (default) measures them in Z, the variant whose branch average
    converges to the (1 - B^2)^(1/4) limit, while ``far_basis="x"`` keeps
    the non-convergent alternative available for comparison.
    """
    if l_site < 3 or l_site % 2 == 0:
        raise ValueError(
            "the recipe pairs spin 1 with an odd spin L = 2k+1, k >= 1; "
            f"got L = {l_site}"
        )
    if l_site > n:
        raise ValueError(f"L = {l_site} outside a ring of {n} sites")
    if far_basis not in ("x", "z"):
        raise ValueError("far_basis must be 'x' or 'z'")
    far = _X_ANGLES if far_basis == "x" else _Z_ANGLES
    return MeasurementPlan(n, (0, l_site - 1), _lower_bound_angles(n, l_site - 1, far))


def _lower_bound_angles(n: int, span: int, far: tuple[float, float], start: int = 0) -> dict:
    """``lower_bound_plan``'s angles with L = span + 1, every site shifted by
    ``start`` around the ring: X on site start+1, Z up to start+span-1 and
    ``far`` beyond start+span."""
    angles = {(start + 1) % n: _X_ANGLES}
    for k in range(2, n):
        if k != span:
            angles[(start + k) % n] = _Z_ANGLES if k < span else far
    return angles


# --- simulated annealing ---------------------------------------------------------

@dataclass
class AnnealConfig:
    """Length, restarts and seed of the geometric-cooling schedule; its
    temperatures and angle steps are ``T_START``, ``COOLING`` and ``SIGMA0``."""

    n_temps: int = 200
    proposals_per_temp: int = 50
    restarts: int = 2
    seed: int = 0


def scheme_seed_plans(n: int, pair: tuple[int, int]) -> list[MeasurementPlan]:
    """Deterministic starting plans: the B=0 recipe plus, when the pair fits
    the odd-spacing constraint, both readings of the |B|<1 recipe rotated to
    the pair."""
    plans = [cluster_scheme_plan(n, pair)]
    p, q = pair
    for start, end in ((p, q), (q, p)):
        span = (end - start) % n
        if span >= 2 and span % 2 == 0:
            for far in (_X_ANGLES, _Z_ANGLES):
                plans.append(MeasurementPlan(n, pair, _lower_bound_angles(n, span, far, start)))
    return plans


def optimize_plan(
    state: StateVector,
    pair: tuple[int, int],
    config: AnnealConfig | None = None,
) -> LocEntResult:
    """Simulated annealing over the 2(n-2) measurement angles.

    Restart 0 starts from the best deterministic seed plan (so the result is
    never worse than the prescribed schemes); further restarts start from
    random plans.  Deterministic for a fixed config seed.  The walk holds the
    current plan as per-site angle and bra lists, indexed like the measured
    sites, plus its rotated tensor.  Each proposal changes one site's angles,
    so it is scored by rotating only that site's axis from the old bra to the
    new one (O(2^n) instead of O(n 2^n)).  A ``MeasurementPlan`` is built only
    for a new best plan.  When the best plan is one that ``_best_plan`` read
    (the best seed or a restart's start), its value and branch count are
    that read's, bit for bit those of ``branch_average``, which takes the
    same path; when a proposal won, they come from a fresh ``branch_average``.
    """
    cfg = config or AnnealConfig()
    n = state.n_sites
    pair = (int(pair[0]), int(pair[1]))
    measured = sorted(set(range(n)) - set(pair))
    # Restart 0 walks from the best seed; its bras are in ``measured`` order.
    # best_count is None once a proposal's plan is the best
    best_plan, bras, a, (best_val, best_count) = _best_plan(state, scheme_seed_plans(n, pair))
    thetas, phis = (list(x) for x in zip(*(best_plan.angles[site] for site in measured)))
    current_val = best_val

    def plan_of(thetas, phis):
        return MeasurementPlan(n, pair, dict(zip(measured, zip(thetas, phis))))

    rng = np.random.default_rng(cfg.seed)
    for restart in range(cfg.restarts):
        if restart > 0:
            drawn = rng.uniform((0.0, 0.0), (math.pi, 2.0 * math.pi), size=(len(measured), 2))
            thetas, phis = drawn.T.tolist()
            plan, bras, a, (current_val, count) = _best_plan(state, [plan_of(thetas, phis)])
            if current_val > best_val:
                best_plan, best_val, best_count = plan, current_val, count
        temp = T_START
        for _ in range(cfg.n_temps):
            sigma = SIGMA0 * temp / T_START
            for _ in range(cfg.proposals_per_temp):
                idx = int(rng.integers(len(measured)))
                # theta reflects back into [0, pi]; phi wraps into [0, 2 pi)
                theta = (thetas[idx] + sigma * rng.standard_normal()) % (2.0 * math.pi)
                if theta > math.pi:
                    theta = 2.0 * math.pi - theta
                phi = (phis[idx] + sigma * rng.standard_normal()) % (2.0 * math.pi)
                bra = _measurement_matrix(theta, phi)
                k = len(measured) - 1 - idx  # measured sites above this one
                cand_a = _rotate_site(a, bra @ bras[idx].conj().T, k, a)
                cand_val = _read(cand_a)[0]
                delta = cand_val - current_val
                if delta >= 0.0 or rng.random() < math.exp(delta / max(temp, 1e-12)):
                    thetas[idx], phis[idx], bras[idx] = theta, phi, bra
                    a, current_val = cand_a, cand_val
                    if current_val > best_val:
                        best_plan, best_val, best_count = plan_of(thetas, phis), current_val, None
            temp *= COOLING

    if best_count is None:
        return branch_average(state, best_plan)
    return LocEntResult(best_val, best_plan, best_count)


def entanglement_length(series: CorrelationSeries) -> LengthEstimate:
    """Decay length of a localizable-entanglement series.

    Same fitting contract as the correlation-length estimator; series that
    saturate at a nonzero constant are flagged divergent.
    """
    return correlation_length(series)


def length_sweep(fields: list[float], n: int, seed: int,
                 anneal: AnnealConfig | None) -> tuple[dict, list[str]]:
    """Correlation length against entanglement length over ``fields``, serially.

    The "correlation" channel fits ``czz_analytic`` at separations 4..40 with
    ``correlation_length``.  The "entanglement" channel solves the ``n``-site
    cluster ring with solver ``seed`` and fits, with ``entanglement_length``,
    the E_loc of the pairs (0, s), s = 2..n//2: the ``optimize_plan`` optimum
    under ``anneal``, or with ``None`` the best ``scheme_seed_plans`` plan.

    Returns ``(channels, failures)``.  ``channels`` maps each channel, in that
    order, to ``(summary, detail, seconds)``: a summary row ``[B, xi, model,
    diverges]`` per field (``[B, 0.0, "zero", 0]`` for a numerically zero
    series), detail rows ``[B, L, value, diverges]``, and the channel's
    wall-clock seconds.  A field whose series or fit raises ``ValueError`` or
    ``RuntimeError`` adds no rows and the line ``"<channel> B=<b>: <error>"``
    to ``failures``; any other exception propagates.
    """

    def czz_series(b):
        lengths = list(range(4, 41))
        return lengths, czz_analytic(b, lengths).tolist()

    def e_loc_series(b):
        _, gs = ground_state(cluster_hamiltonian(n, b), seed=seed)
        seps = list(range(2, n // 2 + 1))
        if anneal is not None:
            return seps, [optimize_plan(gs, (0, s), anneal).value for s in seps]
        return seps, [_best_plan(gs, scheme_seed_plans(n, (0, s)))[3][0] for s in seps]

    channels, failures = {}, []
    for channel, series, fit in (
        ("correlation", czz_series, correlation_length),
        ("entanglement", e_loc_series, entanglement_length),
    ):
        t0 = time.time()
        summary, detail = [], []
        for b in fields:
            try:
                lengths, values = series(b)
                est = fit(CorrelationSeries(lengths, values))
                row = [b, est.xi, est.model, int(est.diverges)]
            except ZeroSeriesError:  # raised by the fit alone
                row = [b, 0.0, "zero", 0]
            except (ValueError, RuntimeError) as exc:  # logged, the sweep continues
                failures.append(f"{channel} B={b}: {exc}")
                continue
            summary.append(row)
            detail += [[b, L, v, row[3]] for L, v in zip(lengths, values)]
        channels[channel] = (summary, detail, time.time() - t0)
    return channels, failures
