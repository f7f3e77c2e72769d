"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see them).
"""

import itertools
import math

import numpy as np
import pytest

import trispin as ts
from trispin import cli
from trispin.correlations import survey, two_point_connected
from trispin.free_fermion import CorrelationSeries, correlation_length
from trispin.localizable import branch_average, cluster_scheme_plan, lower_bound_plan

_GROUND_CACHE = {}


def cluster_ground(n, b):
    if (n, b) not in _GROUND_CACHE:
        _GROUND_CACHE[(n, b)] = ts.ground_state(ts.cluster_hamiltonian(n, b))[1]
    return _GROUND_CACHE[(n, b)]


def report(number, name, ok, detail=""):
    print(f"criterion {number:2d} ({name}): {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_01_gap_and_spectrum_structure_at_zero_field():
    ok = True
    detail = []
    for n in (6, 8, 10, 12):
        vals = ts.dense_spectrum(ts.cluster_hamiltonian(n, 0.0))
        gap = vals[vals > vals[0] + 1e-8][0] - vals[0]
        integral = np.max(np.abs(vals - np.round(vals)))
        parity = np.max(np.abs((np.round(vals) + n) % 2))
        ok = ok and abs(gap - 2.0) < 1e-9 and integral < 1e-9 and parity < 1e-12
        detail.append(f"n={n}: gap-2={gap - 2:+.1e}")
    report(1, "zero-field gap 2 and even-level spectrum", ok, " ".join(detail))


def test_criterion_02_gap_closes_at_critical_field():
    gaps_b = {b: ts.spectral_gap(ts.cluster_hamiltonian(12, b)) for b in (0.5, 1.0, 1.5)}
    ordering = gaps_b[1.0] < gaps_b[0.5] and gaps_b[1.0] < gaps_b[1.5]
    gaps_n = [ts.spectral_gap(ts.cluster_hamiltonian(n, 1.0)) for n in (8, 10, 12, 14)]
    shrinking = all(b < a for a, b in zip(gaps_n, gaps_n[1:]))
    report(
        2, "gap minimal at |B|=1 and closing with n",
        ordering and shrinking,
        f"n=12 gaps {gaps_b}; ladder {['%.3f' % g for g in gaps_n]}",
    )


def test_criterion_03_analytic_correlator_matches_ring():
    worst = 0.0
    for b in (0.0, 0.3, 0.5, 2.0):
        gs = cluster_ground(16, b)
        for L in range(3, 9):
            diff = abs(ts.czz_analytic(b, L) - two_point_connected(gs, "z", "z", 0, L - 1))
            worst = max(worst, diff)
    report(3, "closed-form C^zz within 2e-2 of 16-site ring", worst < 2e-2,
           f"worst |diff| = {worst:.2e}")


def test_criterion_04_criticality_classification():
    results = {}
    for b in (0.5, 1.0, 2.0):
        lengths = list(range(4, 41))
        series = CorrelationSeries(lengths, [ts.czz_analytic(b, L) for L in lengths])
        results[b] = correlation_length(series)
    ok = (
        results[0.5].model == "exponential"
        and results[2.0].model == "exponential"
        and results[1.0].model == "power_law"
        and results[1.0].diverges
    )
    report(4, "exponential off criticality, power law at |B|=1", ok,
           f"models: {({b: r.model for b, r in results.items()})}")


def test_criterion_05_deterministic_localization_at_zero_field():
    gs = cluster_ground(10, 0.0)
    worst = 1.0
    for p, q in itertools.combinations(range(10), 2):
        res = branch_average(gs, cluster_scheme_plan(10, (p, q)), keep_branches=True)
        worst = min(worst, min(b.concurrence for b in res.branches))
    report(5, "unit concurrence on every branch at B=0", worst > 1 - 1e-9,
           f"min branch concurrence = {worst:.12f}")


def test_criterion_06_lower_bound_limit():
    ok = True
    detail = []
    for b in (0.3, 0.5, 0.8):
        limit = (1 - b * b) ** 0.25
        vals = []
        for k in (2, 3, 4, 5):
            n = 2 * k + 1
            vals.append(branch_average(cluster_ground(n, b), lower_bound_plan(n, n)).value)
        monotone = all(later >= earlier - 1e-9 for earlier, later in zip(vals, vals[1:]))
        dev = abs(limit - vals[-1])
        ok = ok and monotone and dev < 0.03
        detail.append(f"B={b}: dev={dev:.4f} monotone={monotone}")
    report(6, "scheme average approaches (1-B^2)^(1/4)", ok, "; ".join(detail))


def test_criterion_07_figure_reproduction(tmp_path):
    out = tmp_path / "figure2"
    code = cli.main(["figure2", "--seed", "7", "--out", str(out)])
    assert code == 0
    corr_rows = (out / "correlation_length.csv").read_text().splitlines()[1:]
    ent_rows = (out / "entanglement_length.csv").read_text().splitlines()[1:]
    corr = {float(r.split(",")[0]): r.split(",") for r in corr_rows}
    ent = {float(r.split(",")[0]): r.split(",") for r in ent_rows}
    ok = True
    for b, row in ent.items():
        if b <= 0.9:
            ok = ok and row[3] == "1"
        elif b >= 1.2:
            ok = ok and row[3] == "0"
    for b, row in corr.items():
        if abs(b - 1.0) > 1e-9:
            ok = ok and row[3] == "0"
        else:
            ok = ok and row[3] == "1" and row[2] == "power_law"
    report(7, "diverging entanglement length for |B|<1 only", ok,
           f"grid of {len(ent)} fields")


def test_criterion_08_census_fractions_and_rate():
    gs0 = cluster_ground(12, 0.0)
    exact = all(
        survey(gs0, w, mode="exhaustive").fraction == 2.0 ** -(2 + w) for w in (5, 6)
    )
    gs = cluster_ground(12, 0.5)
    fracs = [survey(gs, w, mode="exhaustive").fraction for w in (5, 6, 7, 8)]
    slope = np.polynomial.polynomial.polyfit(
        np.array([5.0, 6.0, 7.0, 8.0]), np.log(fracs), 1
    )[1]
    rate = float(np.exp(slope))
    ok = exact and 0.80 <= rate <= 0.92
    report(8, "census: exact 2^-(2+n) at B=0, rate near 0.858 at B=0.5", ok,
           f"exact={exact}, measured rate={rate:.4f}")


def test_criterion_09_three_point_selectivity():
    gs = cluster_ground(8, 0.0)
    ops = ("I", "X", "Y", "Z")
    ok = True
    for combo in itertools.product(range(4), repeat=3):
        if combo == (0, 0, 0):
            continue
        factors = tuple((site + 2, ops[c]) for site, c in enumerate(combo) if c != 0)
        val = ts.expectation(gs, ts.PauliString(1.0, factors))
        if combo == (1, 3, 1):
            ok = ok and abs(val - 1.0) < 1e-10
        else:
            ok = ok and abs(val) < 1e-10
    report(9, "only XZX survives among 3-site strings at B=0", ok)


def test_criterion_10_truncation_validity_and_scaling():
    rep1 = ts.validate_perturbation(ts.BoseHubbardParams(0.1, 0.1, 1.0, 1.0, 1.0))
    rep2 = ts.validate_perturbation(ts.BoseHubbardParams(0.05, 0.05, 1.0, 1.0, 1.0))
    abs1 = max(lv.abs_dev for lv in rep1.levels)
    abs2 = max(lv.abs_dev for lv in rep2.levels)
    ratio = abs1 / abs2
    ok = rep1.max_rel_dev <= 0.08 and ratio >= 8.0
    report(10, "third-order truncation within 8%, quartic shrinkage", ok,
           f"max_rel={rep1.max_rel_dev:.4f}, halving ratio={ratio:.1f}")


def test_criterion_11_raising_operator():
    ok = True
    detail = []
    for n in (6, 8, 10):
        spec = ts.cluster_hamiltonian(n, 0.0)
        energy, gs = ts.ground_state(spec)
        k = 2
        x_k = ts.SpinChainSpec(n, [ts.PauliString(1.0, ((k, "X"),))])
        xyx = ts.SpinChainSpec(
            n, [ts.PauliString(1.0, ((k - 1, "X"), (k, "Y"), (k + 1, "X")))]
        )
        raised = ts.apply(x_k, gs).amplitudes - 1j * ts.apply(xyx, gs).amplitudes
        raised /= np.linalg.norm(raised)
        residual = np.linalg.norm(
            ts.apply(spec, ts.StateVector(n, raised)).amplitudes - (energy + 2.0) * raised
        )
        ok = ok and residual < 1e-9
        detail.append(f"n={n}: {residual:.1e}")
    report(11, "ladder operator lands on the first excited level", ok, " ".join(detail))
