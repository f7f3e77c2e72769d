"""Analytic channel for the periodic three-site-interaction chain in a Z
field: quasiparticle dispersion, many-body gap, thermodynamic-limit ZZ
correlators, and decay-length extraction from correlation series.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

#: Absolute agreement of two successive quadrature refinements.
QUAD_TOL = 1e-9
#: Largest refinement level: 2^MAX_REFINE panels between the splits.
MAX_REFINE = 14

#: Length-fit rules of :func:`correlation_length`.
NOISE_FLOOR = 1e-13
MIN_POINTS = 5
POWER_LAW_FACTOR = 4.0
SATURATION_RATIO = 1.5
SATURATION_FLOOR = 1e-2
MAX_XI_FACTOR = 10.0


class QuadratureError(RuntimeError):
    """The adaptive quadrature did not reach the requested tolerance."""


class ZeroSeriesError(ValueError):
    """Every value of a correlation series lies below the noise floor."""


@dataclass(frozen=True)
class Dispersion:
    """Quasiparticle dispersion Lambda(r) = sqrt(B^2 + 1 + 2 B cos r)."""

    b_field: float

    def __call__(self, r):
        b = self.b_field
        return np.sqrt(b * b + 1.0 + 2.0 * b * np.cos(r))

    def minimum(self) -> float:
        """min_r Lambda(r) = | |B| - 1 |, attained at r = pi for B > 0."""
        return abs(abs(self.b_field) - 1.0)


def energy_gap(b_field: float) -> float:
    """Many-body excitation gap 2 * min_r Lambda(r) = 2 * ||B| - 1|.

    The factor 2 is the single-excitation normalization fixed against the
    known B=0 gap of 2 and re-verified against exact diagonalization in the
    test suite.
    """
    return 2.0 * abs(abs(b_field) - 1.0)


# --- quadrature --------------------------------------------------------------

_GAUSS_ORDER = 16
_GL_NODES, _GL_WEIGHTS = leggauss(_GAUSS_ORDER)
#: Panel splits: r = +/- pi, where the square root vanishes at |B| = 1.
_SPLITS = np.array([-2.0 * np.pi, -np.pi, 0.0, np.pi, 2.0 * np.pi])


def _panel_nodes(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes on 2^level equal panels between each pair of
    ``_SPLITS``: the ``(panels, _GAUSS_ORDER)`` nodes and the ``(panels, 1)``
    panel half-widths."""
    splits = 1 << level
    edges = np.concatenate(
        [np.linspace(_SPLITS[i], _SPLITS[i + 1], splits + 1)[:-1] for i in range(4)]
        + [_SPLITS[-1:]]
    )
    a = edges[:-1]
    b = edges[1:]
    mid = 0.5 * (a + b)[:, None]
    half = 0.5 * (b - a)[:, None]
    return mid + half * _GL_NODES[None, :], half


def czz_analytic(b_field: float, L):
    """Thermodynamic-limit connected <Z_1 Z_L> from the closed-form quadratures.

    Evaluates, with Lambda(r) = sqrt(B^2 + 1 + 2 B cos r) and prefactor
    1/(4 pi) over r in [-2 pi, 2 pi]:

      I1 = (1/4pi) Int sin(r)/Lambda(r) * sin((L-1) r / 2) dr
      I2 = (1/4pi) Int (B + cos r)/Lambda(r) * cos((L-1) r / 2) dr

    and returns I1^2 - I2^2.  ``L`` is an integer separation (a float is
    returned) or a sequence of them (an array is returned, in that order).
    Panels are split at r = +/- pi where the square root vanishes at
    |B| = 1; panel counts are doubled until two successive estimates of a
    separation agree within ``QUAD_TOL`` absolutely, each separation
    stopping at its own level.  The nodes and the L-independent factors of
    both integrands are built once per level for all separations.
    """
    scalar = np.ndim(L) == 0
    try:
        seps = [operator.index(sep) for sep in ([L] if scalar else L)]
    except TypeError:
        raise ValueError(f"separation index L must be an integer, got {L!r}") from None
    if any(sep < 2 for sep in seps):
        raise ValueError("separation index L must be >= 2")
    b = float(b_field)
    if not math.isfinite(b):
        raise ValueError(f"field B must be finite, got {b}")
    lam = Dispersion(b)
    pref = 1.0 / (4.0 * np.pi)
    out = np.empty(len(seps))
    prev = {j: None for j in range(len(seps))}  # unconverged: last (I1, I2)
    for level in range(MAX_REFINE + 1):
        if not prev:
            break
        x, half = _panel_nodes(level)
        lam_x = lam(x)
        sin_lam = np.sin(x) / lam_x
        cos_lam = (b + np.cos(x)) / lam_x
        for j, last in list(prev.items()):
            mx = 0.5 * (seps[j] - 1) * x
            i1 = pref * float(np.sum(sin_lam * np.sin(mx) * _GL_WEIGHTS[None, :] * half))
            i2 = pref * float(np.sum(cos_lam * np.cos(mx) * _GL_WEIGHTS[None, :] * half))
            if last is not None and abs(i1 - last[0]) < QUAD_TOL and abs(i2 - last[1]) < QUAD_TOL:
                out[j] = i1 * i1 - i2 * i2
                del prev[j]
            else:
                prev[j] = (i1, i2)
    if prev:
        missing = ", ".join(str(seps[j]) for j in prev)
        raise QuadratureError(
            f"correlator quadrature did not converge to {QUAD_TOL} at B={b}, L={missing} "
            f"within {MAX_REFINE} refinements"
        )
    return float(out[0]) if scalar else out


# --- series containers and length fitting ------------------------------------

@dataclass
class CorrelationSeries:
    """Values of a correlation-like quantity at strictly increasing separations."""

    lengths: list[int]
    values: list[float]

    def __post_init__(self):
        self.lengths = [int(x) for x in self.lengths]
        self.values = [float(v) for v in self.values]
        if len(self.lengths) != len(self.values):
            raise ValueError("lengths and values must have equal size")
        if any(b <= a for a, b in zip(self.lengths, self.lengths[1:])):
            raise ValueError("lengths must be strictly increasing")


@dataclass
class LengthEstimate:
    """Decay length fitted from a correlation series.

    ``model == "exponential"`` always carries a finite positive ``xi``;
    ``model == "power_law"`` is the divergence flag (``xi`` is ``inf``),
    covering both genuine power-law decay and non-decaying series;
    ``model == "short_range"`` is the two-point estimate from the last two
    values above the noise floor, taken when fewer than ``MIN_POINTS``
    survive (``xi`` is ``inf`` when those two do not decay).
    """

    xi: float
    fit_residual: float
    window: tuple[int, int]
    model: str

    @property
    def diverges(self) -> bool:
        return math.isinf(self.xi)


def _line_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares slope and RMS residual of y against x."""
    coeffs, *_ = np.polynomial.polynomial.polyfit(x, y, 1, full=True)
    resid = y - (coeffs[0] + coeffs[1] * x)
    return float(coeffs[1]), float(np.sqrt(np.mean(resid**2)))


def correlation_length(series: CorrelationSeries) -> LengthEstimate:
    """Fit the decay length of a correlation series.

    Procedure: drop values below ``NOISE_FLOOR``.  Fewer than two survivors
    raise :class:`ZeroSeriesError`; two to ``MIN_POINTS - 1`` survivors give
    model ``short_range`` with xi = -1/slope of log|C| through the last two
    (infinite when that slope is non-negative).  Otherwise keep the
    largest-L window L >= max(4, L_max/2), extended downward if that leaves
    fewer than ``MIN_POINTS`` points; fit log|C| against L and against log L.
    The series is flagged divergent (model ``power_law``, xi infinite) when

      * the surviving values saturate: max/min <= ``SATURATION_RATIO`` while
        staying above ``SATURATION_FLOOR``, or
      * the log-log fit residual beats the log-linear one by
        ``POWER_LAW_FACTOR``, or
      * the log-linear slope is non-negative, or
      * the fitted xi exceeds ``MAX_XI_FACTOR * L_max`` (no decay resolvable
        inside the window).

    Otherwise xi = -1/slope (positive for decaying series; the sign flip
    relative to the raw large-L limit of (1/L) log C is deliberate so that
    decaying correlations report a positive length).
    """
    pairs = [
        (sep, abs(val))
        for sep, val in zip(series.lengths, series.values)
        if abs(val) > NOISE_FLOOR
    ]
    if len(pairs) < 2:
        raise ZeroSeriesError(
            f"correlations numerically zero: {len(pairs)} values above the noise floor"
        )
    if len(pairs) < MIN_POINTS:
        (l1, v1), (l2, v2) = pairs[-2:]
        slope = (np.log(v2) - np.log(v1)) / (l2 - l1)
        xi = -1.0 / slope if slope < 0 else math.inf
        return LengthEstimate(xi, 0.0, (l1, l2), "short_range")
    l_max = pairs[-1][0]
    lo = max(4, l_max // 2)
    window = [(sep, val) for sep, val in pairs if sep >= lo]
    if len(window) < MIN_POINTS:
        window = pairs[-MIN_POINTS:]
    seps = np.array([p[0] for p in window], dtype=float)
    mags = np.array([p[1] for p in window], dtype=float)
    logs = np.log(mags)

    slope_exp, res_exp = _line_fit(seps, logs)
    slope_pow, res_pow = _line_fit(np.log(seps), logs)
    win = (int(seps[0]), int(seps[-1]))

    saturating = (mags.max() / mags.min() <= SATURATION_RATIO) and (
        mags.min() >= SATURATION_FLOOR
    )
    power_law_wins = res_pow <= res_exp / POWER_LAW_FACTOR
    if saturating or power_law_wins or slope_exp >= -1e-9:
        return LengthEstimate(math.inf, res_pow, win, "power_law")
    xi = -1.0 / slope_exp
    if xi > MAX_XI_FACTOR * l_max:
        return LengthEstimate(math.inf, res_pow, win, "power_law")
    return LengthEstimate(xi, res_exp, win, "exponential")
