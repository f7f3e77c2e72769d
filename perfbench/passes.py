"""One workload pass in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/passes.py WORKLOAD SEED MODE WORKDIR

Imports trispin, makes one tiny warm-up call per layer the workload uses,
runs the pass and prints one JSON line: the CLOCK_MONOTONIC time at which
warm-up ended (the parent measures set-up from launch to it), the pass wall
time, the peak resident memory, the outputs the gate checks and, when MODE
is ``trace``, per-function span statistics plus the ``spin_core.apply``
kernel probe.  MODE ``pass`` runs the pass untraced; MODE ``setup`` stops
after the warm-up and prints only the time it ended.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import trispin as ts
from trispin import cli

from tracing import FIGURE2_SPAN, Tracer
from workloads import FIGURE2, ed_calls

FIGURE2_FILES = ("correlation_length", "entanglement_length", "czz_series", "e_loc_series")
#: Ring sizes and call counts of the ``spin_core.apply`` probe.
APPLY_PROBE = ((13, 21), (17, 7))
MODES = ("pass", "trace", "setup")


# --- warm-up -----------------------------------------------------------------

def warm_up(workload: str) -> None:
    """One tiny call into each layer the workload uses."""
    _, gs = ts.ground_state(ts.cluster_hamiltonian(10, 0.5))  # spin_core, iterative path
    ts.czz_analytic(0.5, 4)  # free_fermion
    if workload in FIGURE2:
        ts.branch_average(gs, ts.cluster_scheme_plan(10, (0, 4)))  # localizable
        ts.optimize_plan(gs, (0, 4), ts.AnnealConfig(n_temps=1, proposals_per_temp=1, restarts=1))
        ts.entanglement_length(ts.CorrelationSeries([2, 3, 4, 5, 6], [0.9, 0.8, 0.7, 0.6, 0.5]))
        cli.build_parser().parse_args(["figure2"])  # cli
    else:
        ts.dense_spectrum(ts.cluster_hamiltonian(6, 0.0))
        ts.spectral_gap(ts.cluster_hamiltonian(10, 1.0))
        ts.two_point_connected(gs, "z", "z", 0, 3)  # correlations
        ts.survey(ts.ground_state(ts.cluster_hamiltonian(6, 0.5))[1], 5)
        ts.validate_perturbation(ts.BoseHubbardParams(0.1, 0.1, 1.0, 1.0, 1.0))  # bose_hubbard


# --- figure2 -----------------------------------------------------------------

def figure2_pass(workload: str, seed: int, workdir: Path, tracer: Tracer | None) -> dict:
    out = workdir / f"figure2-{os.getpid()}"
    argv = ["figure2", *FIGURE2[workload], "--seed", str(seed), "--out", str(out)]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            if tracer is None:
                code = cli.main(argv)
            else:
                with tracer.span(FIGURE2_SPAN):
                    code = cli.main(argv)
        files = {}
        for name in FIGURE2_FILES:
            with open(out / f"{name}.csv") as fh:
                files[name] = list(csv.reader(fh))[1:]
        log = out / "failures.log"
        failures = log.read_text().splitlines() if log.exists() else []
        return {"exit_code": code, "files": files, "failures": failures}
    finally:
        shutil.rmtree(out, ignore_errors=True)


# --- ED and observables ------------------------------------------------------

def _dense(n: int, seed: int) -> dict:
    vals = ts.dense_spectrum(ts.cluster_hamiltonian(n, 0.0))
    return {
        "lowest": vals[:8].tolist(),
        "gap": float(vals[vals > vals[0] + 1e-8][0] - vals[0]),
        "integral": float(np.max(np.abs(vals - np.round(vals)))),
        "parity": float(np.max(np.abs((np.round(vals) + n) % 2))),
    }


def _gap(n: int, b: float, seed: int) -> float:
    return ts.spectral_gap(ts.cluster_hamiltonian(n, b), seed=seed)


def _ground(n: int, b: float, lengths, seed: int) -> dict:
    energy, gs = ts.ground_state(ts.cluster_hamiltonian(n, b), seed=seed)
    return {
        "energy": energy,
        "czz_ring": [ts.two_point_connected(gs, "z", "z", 0, L - 1) for L in lengths],
        "czz_analytic": [ts.czz_analytic(b, L) for L in lengths],
    }


def _survey(n: int, b: float, windows, seed: int) -> dict:
    _, gs = ts.ground_state(ts.cluster_hamiltonian(n, b), seed=seed)
    return {str(w): ts.survey(gs, w, seed=seed, b_field=b).nonvanishing for w in windows}


def _validate(j: float, seed: int) -> dict:
    rep = ts.validate_perturbation(ts.BoseHubbardParams(j, j, 1.0, 1.0, 1.0))
    return {"max_rel_dev": rep.max_rel_dev, "abs_dev": [lv.abs_dev for lv in rep.levels]}


ED_CALLS = {"dense": _dense, "gap": _gap, "ground": _ground, "survey": _survey, "validate": _validate}


def ed_pass(workload: str, seed: int) -> dict:
    items = {}
    for key, kind, args in ed_calls(workload):
        try:
            items[key] = ED_CALLS[kind](*args, seed)
        except Exception:  # counted as a failed item by the gate
            items[key] = {"error": traceback.format_exc(limit=2)}
    return {"items": items}


# --- kernel probe ------------------------------------------------------------

def apply_probe(seed: int) -> dict[str, float]:
    """Median ``spin_core.apply`` time at n=13 and n=17, after one warm call."""
    rng = np.random.default_rng(seed)
    out = {}
    for n, calls in APPLY_PROBE:
        spec = ts.cluster_hamiltonian(n, 0.5)
        state = ts.StateVector(n, rng.standard_normal(1 << n)).normalized()
        ts.apply(spec, state)
        times = []
        for _ in range(calls):
            t0 = time.perf_counter()
            ts.apply(spec, state)
            times.append(time.perf_counter() - t0)
        out[f"spin_core.apply.n{n}.p50_ms"] = 1e3 * statistics.median(times)
    return out


def main(argv: list[str]) -> int:
    workload, seed, mode, workdir = argv[0], int(argv[1]), argv[2], Path(argv[3])
    if mode not in MODES:
        raise SystemExit(f"MODE must be one of {MODES}, not {mode!r}")
    warm_up(workload)
    ready_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    if mode == "setup":
        print(json.dumps({"ready_at": ready_at}), flush=True)
        return 0

    tracer = Tracer() if mode == "trace" else None
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        if workload in FIGURE2:
            outputs = figure2_pass(workload, seed, workdir, tracer)
        else:
            outputs = ed_pass(workload, seed)
    except Exception:  # the gate fails every item of a pass that raised
        outputs = {"error": traceback.format_exc(limit=4)}
    wall = time.perf_counter() - t0
    result = {
        "ready_at": ready_at,
        "wall_s": wall,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outputs": outputs,
    }
    if tracer is not None:
        tracer.uninstall()
        tracer.write_spans(workdir / f"spans-{workload}-seed{seed}.jsonl")
        result["layers"] = tracer.stats()
        result["counters"] = tracer.counters
        result["apply_probe"] = apply_probe(seed)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
