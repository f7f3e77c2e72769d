"""Connected two-point correlators on exact ground states, plus the census
of non-vanishing random operator strings; a plain n-point expectation is
:func:`trispin.spin_core.expectation`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spin_core import PauliString, StateVector, _sites_last, _work, expectation

AXIS_OPS = {"x": "X", "y": "Y", "z": "Z"}

#: Exhaustive surveys must enumerate at most this many strings.
EXHAUSTIVE_CAP = 10_000_000


@dataclass
class SurveyReport:
    """Census of operator strings with non-vanishing ground-state expectation."""

    n_sites_window: int
    b_field: float | None
    mode: str
    total: int
    nonvanishing: int
    fraction: float
    threshold: float


def two_point_connected(
    state: StateVector, alpha: str, beta: str, i: int, j: int
) -> float:
    """<s_i^a s_j^b> - <s_i^a><s_j^b> for axes a, b in {x, y, z}, read off
    the pair's reduced density matrix."""
    if i == j:
        raise ValueError("connected correlator needs two distinct sites")
    n = state.n_sites
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"sites ({i}, {j}) outside [0, {n})")
    for axis in (alpha, beta):
        if axis.lower() not in AXIS_OPS:
            raise ValueError(f"unknown axis {axis!r}; expected one of x, y, z")
    a, b = ("IXYZ".index(AXIS_OPS[axis.lower()]) for axis in (alpha, beta))
    values = _window_pauli_transform(state, [i, j])  # index 4 * code(i) + code(j)
    return float(values[4 * a + b] - values[4 * a] * values[b])


def _window_string(ops_row, sites) -> PauliString:
    factors = tuple(
        (site, "IXYZ"[code]) for site, code in zip(sites, ops_row) if code != 0
    )
    return PauliString(1.0, factors)


#: Stacked single-site Paulis {1, X, Y, Z}: ``_PAULIS[c][j, i]`` = <j|P_c|i>.
_PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def _window_pauli_transform(state: StateVector, sites: list[int]) -> np.ndarray:
    """Real <P> for every string P over ``sites``, in ``itertools.product`` order.

    Forms the window's reduced density matrix rho = A^T conj(A), with A the
    ``_sites_last`` copy of the state, then contracts one site at a time with
    the stacked Paulis, giving Tr(rho P).  Raises if any value's imaginary
    part exceeds 1e-10 relative: every string is Hermitian.
    """
    w = len(sites)
    a = _sites_last(state, sites)
    # a real copy is its own conjugate; a complex one is conjugated into a work array
    conj = a if a.dtype.kind == "f" else np.conjugate(a, out=_work(a.size).spare(a.shape, a.dtype, a))
    t = (a.T @ conj).reshape((2,) * (2 * w))
    # axes: i_k..i_{w-1}, j_k..j_{w-1}, then the Pauli codes of sites[:k]
    for k in range(w):
        t = np.tensordot(t, _PAULIS, axes=([0, w - k], [2, 1]))
    values = t.ravel()
    if np.any(np.abs(values.imag) > 1e-10 * np.maximum(1.0, np.abs(values.real))):
        raise ValueError("expectation of a Hermitian string came out complex")
    return values.real


def survey(
    state: StateVector,
    window_n: int,
    mode: str = "exhaustive",
    samples: int = 10000,
    threshold: float = 1e-8,
    seed: int = 0,
    b_field: float | None = None,
    window_start: int = 0,
) -> SurveyReport:
    """Count operator strings over ``window_n`` consecutive sites whose
    expectation magnitude exceeds ``threshold``.

    Each site of the window carries one of 1, X, Y, Z; the all-identity
    string counts as non-vanishing.  ``mode="exhaustive"`` reads all
    4^window_n expectations off the window's reduced density matrix,
    ``mode="sampled"`` draws ``samples`` strings with a seeded generator
    (deterministic for a fixed seed) and evaluates each on the full state.
    """
    if window_n <= 4:
        raise ValueError("the census is defined for windows of more than 4 sites")
    n = state.n_sites
    if window_n > n:
        raise ValueError("window larger than the ring")
    sites = [(window_start + k) % n for k in range(window_n)]
    if mode == "exhaustive":
        total = 4**window_n
        if total > EXHAUSTIVE_CAP:
            raise ValueError(
                f"exhaustive survey of 4^{window_n} strings exceeds the cap; "
                "use mode='sampled'"
            )
        values = _window_pauli_transform(state, sites)
        hits = int(np.count_nonzero(np.abs(values) > threshold))
    elif mode == "sampled":
        if samples <= 0:
            raise ValueError("sampled mode needs samples > 0")
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, 4, size=(samples, window_n)).tolist()
        total = samples
        hits = sum(
            abs(expectation(state, _window_string(row, sites))) > threshold for row in rows
        )
    else:
        raise ValueError(f"unknown survey mode {mode!r}")

    return SurveyReport(
        n_sites_window=window_n,
        b_field=b_field,
        mode=mode,
        total=total,
        nonvanishing=hits,
        fraction=hits / total,
        threshold=threshold,
    )
