"""Correctness gate: checks the seed-independent outputs of one pass.

``check(workload, outputs, reference)`` returns ``(attempted, failures)``:
the number of items checked and one message per failed item.  An item is
one (field, channel) point of figure2, or one library call or one
cross-call oracle of the ED workload.  Only seed-independent values are
compared; annealed E_loc values are checked against bounds, not values.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

from workloads import ED, FIGURE2, ed_calls, field_key, figure2_fields, reference_pass, seed_dependent

REFERENCE = Path(__file__).with_name("reference.json")
#: Relative tolerance for values compared with the reference.
TOL = 1e-8
#: Slack on the annealed-E_loc bounds (scheme value <= E_loc <= 1).
BOUND_SLACK = 1e-9
#: Criterion 3 compares the closed form with this ring size; smaller rings
#: (the smoke workload) differ by finite-size terms and are compared with
#: the reference only.
CRITERION3_RING = 16


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def _close(got, want) -> bool:
    got, want = float(got), float(want)
    if math.isinf(want) or math.isinf(got):
        return got == want
    return abs(got - want) <= TOL * max(1.0, abs(want))


def _all_close(got, want) -> bool:
    return len(got) == len(want) and all(_close(g, w) for g, w in zip(got, want))


# --- figure2 -----------------------------------------------------------------

def _criterion7(channel: str, b: float, row: list[str]) -> str | None:
    """Divergence flags of acceptance criterion 7, exactly."""
    model, flag = row[2], row[3]
    if channel == "entanglement":
        if b <= 0.9 and flag != "1":
            return "xi_E should diverge for |B| <= 0.9"
        if b >= 1.2 and flag != "0":
            return "xi_E should be finite for |B| >= 1.2"
    elif abs(b - 1.0) > 1e-9:
        if flag != "0":
            return "xi should be finite off |B|=1"
    elif flag != "1" or model != "power_law":
        return "xi should diverge as a power law at |B|=1"
    return None


def _figure2_item(channel, b, files, ref, annealed) -> str | None:
    key = field_key(b)
    table = "correlation_length" if channel == "correlation" else "entanglement_length"
    rows = [r for r in files[table] if r[0] == key]
    if len(rows) != 1:
        return "row missing"
    row = rows[0]
    bad = _criterion7(channel, b, row)
    if bad:
        return bad
    want_row = ref[table][key]
    if not (channel == "entanglement" and annealed):
        if not (_close(row[1], want_row[1]) and row[2:] == want_row[2:]):
            return f"row {row} differs from reference {want_row}"
    if channel == "correlation":
        series = {r[1]: r[2] for r in files["czz_series"] if r[0] == key}
        want = ref["czz_series"][key]
        if series.keys() != want.keys() or not all(_close(series[L], want[L]) for L in want):
            return "czz_series differs from reference"
        return None
    series = {r[1]: r[2:] for r in files["e_loc_series"] if r[0] == key}
    want = ref["e_loc_series"][key]
    if series.keys() != want.keys():
        return f"e_loc_series separations {sorted(series)} differ from {sorted(want)}"
    if any(flag != row[3] for _, flag in series.values()):
        return "e_loc_series xi_flag disagrees with the entanglement_length row"
    for L, (val, _) in series.items():
        if annealed and not (float(want[L][0]) - BOUND_SLACK <= float(val) <= 1.0 + BOUND_SLACK):
            return f"annealed E_loc({L}) = {val} outside [scheme {want[L][0]}, 1]"
        if not annealed and not _close(val, want[L][0]):
            return f"E_loc({L}) = {val} differs from reference {want[L][0]}"
    return None


def check_figure2(workload: str, outputs: dict, reference: dict) -> tuple[int, list[str]]:
    argv = FIGURE2[workload]
    points = [(c, b) for c in ("correlation", "entanglement") for b in figure2_fields(argv)]
    if "error" in outputs:
        return len(points), [f"pass raised: {outputs['error']}"] * len(points)
    logged = set()
    for line in outputs["failures"]:
        # "<channel> B=<field>: <message>"; a multi-line message continues
        # on lines that do not match.
        match = re.match(r"(correlation|entanglement) B=([-+.0-9e]+):", line)
        if match:
            logged.add((match[1], field_key(float(match[2]))))
    failures = []
    for channel, b in points:
        if (channel, field_key(b)) in logged:
            failures.append(f"{channel} B={b}: logged in failures.log")
            continue
        bad = _figure2_item(
            channel,
            b,
            outputs["files"],
            reference["figure2"][reference_pass(workload)],
            "--no-anneal" not in argv,
        )
        if bad:
            failures.append(f"{channel} B={b}: {bad}")
    if outputs["exit_code"] != 0 and not failures:
        failures.append(f"figure2 exited with code {outputs['exit_code']}")
    return len(points), failures


# --- ED and observables ------------------------------------------------------

def _ed_item(kind: str, args: tuple, got, want) -> str | None:
    if isinstance(got, dict) and "error" in got:
        return f"raised: {got['error']}"
    if kind == "dense":
        if not (abs(got["gap"] - 2.0) < 1e-9 and got["integral"] < 1e-9 and got["parity"] < 1e-12):
            return f"criterion 1 oracle fails: {got}"
        if not _all_close(got["lowest"], want["lowest"]):
            return "lowest levels differ from reference"
    elif kind == "gap":
        if not _close(got, want):
            return f"gap {got} differs from reference {want}"
    elif kind == "ground":
        n, b = args[0], args[1]
        if not _close(got["energy"], want["energy"]):
            return f"energy {got['energy']} differs from reference {want['energy']}"
        if not _all_close(got["czz_analytic"], want["czz_analytic"]):
            return "czz_analytic differs from reference"
        if seed_dependent(n, b):
            return None
        if not _all_close(got["czz_ring"], want["czz_ring"]):
            return "ring ZZ correlators differ from reference"
        worst = max(abs(a - r) for a, r in zip(got["czz_analytic"], got["czz_ring"]))
        if n >= CRITERION3_RING and worst >= 2e-2:
            return f"criterion 3 oracle fails: worst |diff| = {worst:.3e}"
    elif kind == "survey":
        if got != want:
            return f"census counts {got} differ from reference {want}"
    elif kind == "validate":
        if not (_close(got["max_rel_dev"], want["max_rel_dev"]) and _all_close(got["abs_dev"], want["abs_dev"])):
            return "truncation deviations differ from reference"
    return None


def _ed_oracles(workload: str, items: dict) -> list[tuple[str, str | None]]:
    """Cross-call oracles of acceptance criteria 2 and 10."""
    spec = ED[workload]

    def value(key):
        got = items.get(key)
        return None if got is None or (isinstance(got, dict) and "error" in got) else got

    ladder = [value(f"gap n={n} B=1") for n in spec["ladder"]]
    n_f, fields = spec["fields"]
    at_one = value(f"gap n={n_f} B=1")
    off = [value(f"gap n={n_f} B={b}") for b in fields]
    lo, hi = (value(f"validate J={j}") for j in spec["validate"])
    out = []
    if None in ladder:
        out.append(("criterion 2 ladder", "a gap is missing"))
    elif not all(b < a for a, b in zip(ladder, ladder[1:])):
        out.append(("criterion 2 ladder", f"gap at B=1 does not shrink with n: {ladder}"))
    else:
        out.append(("criterion 2 ladder", None))
    if at_one is None or None in off:
        out.append(("criterion 2 minimum", "a gap is missing"))
    elif not all(at_one < g for g in off):
        out.append(("criterion 2 minimum", f"gap at B=1 ({at_one}) not below {off}"))
    else:
        out.append(("criterion 2 minimum", None))
    if lo is None or hi is None:
        out.append(("criterion 10", "a validation is missing"))
    else:
        ratio = max(lo["abs_dev"]) / max(hi["abs_dev"])
        ok = lo["max_rel_dev"] <= 0.08 and ratio >= 8.0
        out.append(("criterion 10", None if ok else f"max_rel={lo['max_rel_dev']}, ratio={ratio}"))
    return out


def check_ed(workload: str, outputs: dict, reference: dict) -> tuple[int, list[str]]:
    calls = ed_calls(workload)
    items = outputs.get("items", {})
    oracles = _ed_oracles(workload, items)
    attempted = len(calls) + len(oracles)
    if "error" in outputs:
        return attempted, [f"pass raised: {outputs['error']}"] * attempted
    failures = []
    for key, kind, args in calls:
        if key not in items:
            bad = "missing"
        else:
            bad = _ed_item(kind, args, items[key], reference["ed"][key])
        if bad:
            failures.append(f"{key}: {bad}")
    for name, bad in oracles:
        if bad:
            failures.append(f"{name}: {bad}")
    return attempted, failures


def check(workload: str, outputs: dict, reference: dict) -> tuple[int, list[str]]:
    if workload in FIGURE2:
        return check_figure2(workload, outputs, reference)
    return check_ed(workload, outputs, reference)
