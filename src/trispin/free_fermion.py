"""Analytic channel for the periodic three-site-interaction chain in a Z
field: quasiparticle dispersion, many-body gap, thermodynamic-limit ZZ
correlators, and decay-length extraction from correlation series.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

#: Absolute agreement, on every shared frequency, of two successive transforms.
QUAD_TOL = 1e-14
#: Most points per period that ``czz_analytic``'s transform may use.
MAX_POINTS = 1 << 20

#: Length-fit rules of :func:`correlation_length`.
NOISE_FLOOR = 1e-13
MIN_POINTS = 5
POWER_LAW_FACTOR = 4.0
SATURATION_RATIO = 1.5
SATURATION_FLOOR = 1e-2
MAX_XI_FACTOR = 10.0


class QuadratureError(RuntimeError):
    """The correlator transform did not reach the requested tolerance."""


class ZeroSeriesError(ValueError):
    """Every value of a correlation series lies below the noise floor."""


@dataclass(frozen=True)
class Dispersion:
    """Quasiparticle dispersion Lambda(r) = sqrt(B^2 + 1 + 2 B cos r).

    Evaluated as sqrt((|B| - 1)^2 + 4 |B| c^2) with c = cos(r/2) for B >= 0
    and sin(r/2) for B < 0: a sum of non-negative terms, which does not
    cancel near the gap momentum when |B| is close to 1.
    """

    b_field: float

    def __call__(self, r):
        a = abs(self.b_field)
        c = np.cos(0.5 * r) if self.b_field >= 0 else np.sin(0.5 * r)
        return np.sqrt((a - 1.0) * (a - 1.0) + 4.0 * a * c * c)

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


# --- Fourier transform -------------------------------------------------------

#: First number of equispaced points per period; doubled until converged.
_START_POINTS = 256


def _coefficients(b: float) -> tuple[np.ndarray, np.ndarray]:
    """Sine coefficients of sin(r)/Lambda(r) and cosine coefficients of
    (B + cos r)/Lambda(r), (1/2pi) Int over one period, at frequencies
    0..N/2: the periodic trapezoid rule on N equispaced points, one rfft
    each.  N doubles from ``_START_POINTS`` until two successive transforms
    agree within ``QUAD_TOL`` on every frequency they share; past
    ``MAX_POINTS`` points :class:`QuadratureError` is raised."""
    lam = Dispersion(b)
    last = None
    n = _START_POINTS
    while n <= MAX_POINTS:
        r = (2.0 * np.pi / n) * np.arange(n)
        lam_r = lam(r)
        sin_k = -np.fft.rfft(np.sin(r) / lam_r).imag / n
        cos_k = np.fft.rfft((b + np.cos(r)) / lam_r).real / n
        if last is not None:
            shared = last[0].size
            if max(np.max(np.abs(sin_k[:shared] - last[0])),
                   np.max(np.abs(cos_k[:shared] - last[1]))) < QUAD_TOL:
                return sin_k, cos_k
        last = sin_k, cos_k
        n *= 2
    raise QuadratureError(
        f"correlator transform did not converge to {QUAD_TOL} at B={b} "
        f"within {MAX_POINTS} points"
    )


def czz_analytic(b_field: float, L):
    """Thermodynamic-limit connected <Z_1 Z_L> from the closed-form integrals.

    With Lambda(r) = sqrt(B^2 + 1 + 2 B cos r) and d = (L-1)/2,

      I1 = (1/4pi) Int_{-2pi}^{2pi} sin(r)/Lambda(r) * sin(d r) dr
      I2 = (1/4pi) Int_{-2pi}^{2pi} (B + cos r)/Lambda(r) * cos(d r) dr

    and the result is I1^2 - I2^2.  ``L`` is an integer separation (a float
    is returned) or a sequence of them (an array is returned, in that order).

    Both integrands are 2pi-periodic, so for odd L, I1 and I2 are the
    Fourier coefficients at the integer frequency d, read from one
    transform per field (``_coefficients``): a periodic trapezoid rule,
    exponentially convergent since the integrands are analytic in the strip
    |Im r| < |ln|B|| (Trefethen & Weideman, SIAM Rev. 56, 385 (2014)).  A
    frequency above the resolved band reads 0.  For even L the frequency is
    a half-integer and both integrals over 4pi vanish, so the result is
    exactly 0.  At |B| = 1 the integrands have a kink at the gap momentum
    and the exact form 4 / (pi^2 L (L - 2)) (odd L; Pfeuty, Ann. Phys. 57,
    79 (1970)) is returned instead.  The number of points depends on B
    alone, so a sequence's values equal its scalar calls' bit for bit.  A
    field whose transform has not converged at ``MAX_POINTS`` points raises
    :class:`QuadratureError`; with the default cap that is every field with
    0 < ||B| - 1| below about 8e-5.
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
    if abs(b) == 1.0:
        def value(sep):
            return 4.0 / (math.pi**2 * sep * (sep - 2))
    else:
        sin_k, cos_k = _coefficients(b)

        def value(sep):
            d = (sep - 1) // 2
            if d >= sin_k.size:
                return 0.0
            i1, i2 = float(sin_k[d]), float(cos_k[d])
            return i1 * i1 - i2 * i2
    out = np.array([value(sep) if sep % 2 else 0.0 for sep in seps])
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
