"""Workload definitions shared by the pass runner and the correctness gate.

Each figure2 workload is the argument list given to ``trispin figure2``
after ``--seed`` and ``--out``; each ED workload is a table of library
calls.  ``smoke-*`` workloads are the tiny variants the self-test runs;
they are not listed in BENCHMARK.json.
"""

from __future__ import annotations

FIGURE2 = {
    # Headline computation, annealed, on the CLI's large ring (n=17), one
    # field on each side of |B|=1.  The short schedule (6 temps x 4
    # proposals, 1 restart) keeps a pass near 18 s.  The n=17 kernels are
    # array-bound and move about half as much with the host's speed as the
    # n=13 ones, whose per-call cost is mostly interpreter overhead.
    "figure2-anneal": [
        "--large", "--b-grid", "0.5:1.5:1.0", "--threads", "1",
        "--anneal-temps", "6", "--anneal-proposals", "4",
    ],
    # Same command with the optimizer bypassed, on the default 21-field grid.
    "figure2-scheme": ["--n", "13", "--b-grid", "0:2:0.1", "--no-anneal", "--threads", "1"],
    # The default annealing schedule (50 temps x 16 proposals, 1 restart) on
    # the n=13 ring: branch_average is about 95% of it.  Not in
    # BENCHMARK.json: its wall time follows the host's speed too closely to
    # be gated, but its traced run is the clearest view of the annealer.
    "figure2-anneal-n13": ["--n", "13", "--b-grid", "0.5:1.5:1.0", "--threads", "1"],
    # Scheme-only twin of figure2-anneal; its values are the reference the
    # annealed values are bounded by.
    "figure2-large-scheme": ["--large", "--b-grid", "0.5:1.5:1.0", "--no-anneal", "--threads", "1"],
    "smoke-figure2": [
        "--n", "13", "--b-grid", "0.5:1.5:1.0", "--threads", "1",
        "--anneal-temps", "2", "--anneal-proposals", "2",
    ],
}
#: Scheme-only figure2 workloads whose outputs make up reference.json, one
#: per ring size.
REFERENCE_PASSES = ("figure2-scheme", "figure2-large-scheme")

# Library calls modelled on acceptance criteria 1, 2, 3, 8 and 10.
ED = {
    "ed-observables": {
        "dense": (10, 12),                      # dense_spectrum at B=0
        "ladder": (8, 9, 10, 11, 12, 13, 14),   # spectral_gap at B=1
        "fields": (12, (0.5, 1.5)),             # spectral_gap off |B|=1
        "ground": (16, (0.0, 0.3, 0.5, 2.0)),   # ground_state + ZZ correlators
        "lengths": (3, 4, 5, 6, 7, 8),
        "survey": (12, 0.5, (5, 6, 7)),         # census windows
        "validate": (0.1, 0.05),                # validate_perturbation J
    },
    "smoke-ed": {
        "dense": (8, 10),
        "ladder": (8, 9, 10),
        "fields": (10, (0.5, 1.5)),
        "ground": (10, (0.0, 0.5, 2.0)),
        "lengths": (3, 4, 5),
        "survey": (10, 0.5, (5,)),
        "validate": (0.1, 0.05),
    },
}

ALL = (*FIGURE2, *ED)


def ed_calls(workload: str) -> list[tuple[str, str, tuple]]:
    """(key, kind, args) for every library call of an ED pass, in order."""
    spec = ED[workload]
    calls = [(f"dense n={n}", "dense", (n,)) for n in spec["dense"]]
    calls += [(f"gap n={n} B=1", "gap", (n, 1.0)) for n in spec["ladder"]]
    n_f, fields = spec["fields"]
    calls += [(f"gap n={n_f} B={b}", "gap", (n_f, b)) for b in fields]
    n_g, fields = spec["ground"]
    calls += [(f"ground n={n_g} B={b}", "ground", (n_g, b, spec["lengths"])) for b in fields]
    n_s, b_s, windows = spec["survey"]
    calls.append((f"survey n={n_s} B={b_s}", "survey", (n_s, b_s, windows)))
    calls += [(f"validate J={j}", "validate", (j,)) for j in spec["validate"]]
    return calls


def figure2_fields(argv: list[str]) -> list[float]:
    """The B values of a figure2 argument list's ``--b-grid``."""
    start, stop, step = (float(tok) for tok in argv[argv.index("--b-grid") + 1].split(":"))
    count = int(round((stop - start) / step)) + 1
    return [round(start + i * step, 10) for i in range(count)]


def figure2_ring(argv: list[str]) -> int:
    """Ring size of the entanglement channel of a figure2 argument list."""
    return 17 if "--large" in argv else int(argv[argv.index("--n") + 1])


def reference_pass(workload: str) -> str:
    """The reference pass that holds a figure2 workload's reference values:
    the scheme-only pass on the same ring."""
    ring = figure2_ring(FIGURE2[workload])
    return next(w for w in REFERENCE_PASSES if figure2_ring(FIGURE2[w]) == ring)


def field_key(b: float) -> str:
    """B as figure2 writes it in its CSV files (12 significant digits)."""
    return f"{b:.12g}"


def seed_dependent(n: int, b: float) -> bool:
    """Ground-state observables that depend on the solver seed.

    At |B|=1 rings with n = 2 (mod 4) have a two-fold degenerate ground
    level and the solver returns a seed-dependent vector in it, so the gate
    does not compare their observables to the reference.
    """
    return abs(abs(b) - 1.0) < 1e-12 and n % 4 == 2
