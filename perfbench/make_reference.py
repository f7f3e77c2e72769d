"""Regenerate reference.json, the values the correctness gate compares with.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/make_reference.py

Runs the scheme-only figure2 passes (one per ring size) and every ED pass
in-process with seed 7.  Run
it only at a commit whose outputs are known to be right: every later commit
is checked against these values.
"""

from __future__ import annotations

import json
from pathlib import Path

import passes
from gate import REFERENCE
from workloads import ED, REFERENCE_PASSES


def figure2_reference(files: dict) -> dict:
    czz: dict[str, dict] = {}
    for b, L, value in files["czz_series"]:
        czz.setdefault(b, {})[L] = value
    e_loc: dict[str, dict] = {}
    for b, L, value, flag in files["e_loc_series"]:
        e_loc.setdefault(b, {})[L] = [value, flag]
    return {
        "correlation_length": {row[0]: row for row in files["correlation_length"]},
        "entanglement_length": {row[0]: row for row in files["entanglement_length"]},
        "czz_series": czz,
        "e_loc_series": e_loc,
    }


def main() -> None:
    work = Path(__file__).with_name("_work")
    work.mkdir(exist_ok=True)
    figure2 = {}
    for workload in REFERENCE_PASSES:
        fig = passes.figure2_pass(workload, 7, work, None)
        if fig["exit_code"] != 0 or fig["failures"]:
            raise SystemExit(f"{workload} failed: {fig['failures']}")
        figure2[workload] = figure2_reference(fig["files"])
    ed = {}
    for workload in ED:
        for key, got in passes.ed_pass(workload, 7)["items"].items():
            if isinstance(got, dict) and "error" in got:
                raise SystemExit(f"{key}: {got['error']}")
            ed[key] = got
    REFERENCE.write_text(json.dumps({"figure2": figure2, "ed": ed}, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
