"""Spin-1/2 chains as weighted Pauli strings, with a Z-parity-blocked sparse
operator and exact eigensolvers.

Conventions shared by every module in this package:

* A basis state of an ``n``-site chain is indexed by an integer ``b``;
  bit ``i`` of ``b`` is the state of spin ``i`` with ``0 = |up>`` and
  ``1 = |down>``.
* Pauli action on a single bit: ``Z|0> = +|0>``, ``Z|1> = -|1>``;
  ``X`` flips the bit; ``Y|0> = i|1>``, ``Y|1> = -i|0>``.
* Hamiltonians carry real coefficients only; complex combinations (e.g.
  ladder operators) are formed by the caller from separate applications.
* Every solver works on :class:`BlockedOperator`, the Hamiltonian split
  into the joint eigenspaces ("sectors") of the products of Z over the
  conserved sublattice masks.  A translation that commutes with H maps
  sectors onto sectors (``_translations``), so every solver solves one
  representative sector per orbit and counts its levels again for each
  translate.  :func:`dense_spectrum` splits a representative further into
  every lattice-momentum block of its own step, and :func:`ground_state`
  takes one such block of a related matrix (below), both by one fold
  (``_fold``) over the ring's orbit tables (``_Ring.orbits``).  Each
  sector is a real diagonal plus m off-diagonal entries per row, one per
  flip mask.  In every sector row r's column under flip j is r ^ s_j, with
  s_j the flip with each conserved mask's lowest bit deleted.  Everything
  but the diagonals depends only on n and the off-diagonal terms, and one
  object, the ring (``_Ring``), owns it all, made once for consecutive
  specs that differ only in their Z fields (a field sweep).  Only the
  solvers of whole sectors (``_lanczos_levels``, :func:`apply`,
  :func:`dense_matrix`) store a sector's entries, as a
  :class:`FixedWidthBlock` built the first time its H is applied
  (``_Ring.block``), over one column table per ring.  A gauged ground
  state builds none: its residual check applies the sector's H flip by
  flip (``_flip_matvec``); nor does :func:`dense_spectrum`, which folds
  the representatives' rows alone.
* The read-outs of a state (``localizable``'s branch averages,
  :func:`expectation`, ``correlations``' Pauli transforms) work in one set
  of work arrays per thread, sized for one n at a time (``_work``), so a
  warm read-out allocates nothing of the state's size.
* Every sector, whatever its size, has one eigensolver, a three-term
  Lanczos (``_lanczos``), and one stream of levels, ``_lanczos_levels``:
  an energy-only pass for the sector's lowest level, then for each next
  level a solve deflated against the residual-checked vectors of the
  levels below it.  :func:`lowest_eigenvalues` and :func:`spectral_gap`
  read the representative sectors' streams, each level repeated once per
  sector of its orbit, merged in ascending order (``_levels``).
* :func:`ground_state` first solves each representative sector's small
  stoquastic symmetric block (``SymmetricBlock``, built once per ring,
  ``_Ring.symmetric_block``): the q = 0 lattice-momentum block of S =
  diag(H) - |offdiag(H)|, whose lowest level bounds the sector's from
  below.  Where an exact sign gauge G gives H = G
  S G, that level is the sector's, simple, and its vector is the block's
  spread over each orbit and gauged; no seed enters.  A sector without a
  gauge is solved in full, by its stream, only when its bound comes within
  ``DEGENERACY_TOL`` of the lowest level found, and when it is chosen its
  second level is the tie check.
* Dense eigensolves are numpy's LAPACK: ``_lowest_ritz`` on each Lanczos
  tridiagonal, and :func:`dense_spectrum`, the independent oracle, on every
  lattice-momentum block.  Of scipy only one compiled extension file is
  loaded, ``scipy/sparse/_sparsetools``, for the two CSR kernels behind
  scipy's sparse product and dense fill (``_load_sparsetools``); no scipy
  subpackage is imported, but scipy stays a runtime dependency for that
  file.
"""

from __future__ import annotations

import functools
import heapq
import importlib.machinery
import importlib.util
import math
import os
import threading
import warnings
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice, repeat
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import only for annotations
    from .bose_hubbard import EffectiveCouplings

PAULI_OPS = ("X", "Y", "Z")

#: Largest chain for which dense 2^n x 2^n solves are permitted.
DENSE_SITE_CAP = 14
#: Largest chain for which the iterative ground-state solver is permitted.
GROUND_SITE_CAP = 20
#: Levels closer than this count as one degenerate level.
DEGENERACY_TOL = 1e-8
#: Bound on the residual |H psi - E psi| of an iterative eigenpair, in units
#: of max(1, |E|).
RESIDUAL_TOL = 1e-8
#: Stopping bound of the ground-state Lanczos (``_lanczos``): the residual
#: estimate |beta_j s_j| of the lowest Ritz pair, in units of max(1, |theta|).
GROUND_TOL = 1e-10
#: Lanczos steps after which ``_lanczos`` gives up (a multiple of the next),
#: and steps between its Ritz checks.  Each check is a dense O(j^3) solve of
#: the j x j tridiagonal (``_lowest_ritz``), so a solve forced to the cap on
#: an n = 13 sector of 4,096 rows takes about 8 s at 1,024 steps and would
#: take about 19 min at 4,000.  No solve in the tests or benchmarks passes
#: 152 steps; the n = 17 ground state at B = 0.2 takes 88.
LANCZOS_STEP_CAP = 1024
LANCZOS_CHECK_EVERY = 8
#: Cap on the ground-manifold copies, over all sectors, that ``spectral_gap``
#: reads before it gives up.  ``lowest_eigenvalues`` has no such cap: it
#: reads k levels, so it deflates k - 1 of them.
GAP_LEVELS = 8
#: Seed of the random start vectors of the level streams (``_lanczos_levels``).
START_SEED = 7


class ResourceLimitError(RuntimeError):
    """A solve would exceed the configured size caps."""


class ConvergenceError(RuntimeError):
    """The iterative eigensolver did not converge; carries the best estimate."""

    def __init__(self, message: str, best_energy: float | None = None):
        super().__init__(message)
        self.best_energy = best_energy


class DegenerateGroundStateWarning(UserWarning):
    """The ground level is degenerate within :data:`DEGENERACY_TOL`."""


def _load_sparsetools():
    """scipy's compiled sparse kernels, ``scipy/sparse/_sparsetools``, loaded
    from that extension file alone under the private name
    ``trispin._sparsetools``, so that ``scipy/sparse/__init__.py`` never runs.
    Loaded as ``scipy.sparse._sparsetools`` it would take that name in
    ``sys.modules``, and a later ``import scipy.sparse`` would then lack it
    as an attribute.
    Raises ImportError when scipy or the file is missing."""
    name = "trispin._sparsetools"
    scipy_spec = importlib.util.find_spec("scipy")
    locations = (scipy_spec.submodule_search_locations or []) if scipy_spec else []
    for location in locations:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(location, "sparse", "_sparsetools" + suffix)
            if os.path.isfile(path):
                loader = importlib.machinery.ExtensionFileLoader(name, path)
                module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
                loader.exec_module(module)
                return module
    raise ImportError(
        f"trispin needs scipy's compiled sparse kernels: no scipy/sparse/_sparsetools "
        f"extension under {list(locations) or 'any installed scipy'}"
    )


_sparsetools = _load_sparsetools()


def _row_pointers(rows: int, m: int) -> np.ndarray:
    """CSR row pointers of ``rows`` rows of m entries each, int32 as the
    column tables unless the entry count needs int64."""
    return np.arange(rows + 1, dtype=np.int32 if rows * m < 2**31 else np.int64) * m


@dataclass(frozen=True)
class FixedWidthBlock:
    """A square block with exactly m stored entries in every row: the form
    of every off-diagonal block here, one entry per flip mask.

    ``cols`` is the (rows, m) int32 column table and ``values`` the (rows,
    m) entries, row r's entry j at column ``cols[r, j]``; a column may repeat
    within a row, and its entries then add.  ``indptr``, m times 0..rows, is
    the pair's CSR row pointer array, so that scipy's compiled CSR kernels
    read the tables as they stand; blocks of one shape may share it.  Each
    array is made C-contiguous and read-only: one ring's blocks serve every
    spec with its terms, and an in-place edit would move every later
    product's bits.
    """

    cols: np.ndarray
    values: np.ndarray
    indptr: np.ndarray

    def __post_init__(self):
        for name in ("cols", "values", "indptr"):
            array = np.ascontiguousarray(getattr(self, name))
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        rows = self.cols.shape[0]
        if (self.values.shape != self.cols.shape or self.indptr.shape != (rows + 1,)
                or self.indptr[-1] != self.cols.size):
            raise ValueError(f"block tables of shapes {self.cols.shape}, {self.values.shape} "
                             f"and {self.indptr.shape} do not match")

    @property
    def dtype(self) -> np.dtype:
        return self.values.dtype

    def matvec_add(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out += A x in place, each row summed onto out's entry in stored
        order: the kernel of scipy's CSR product with a vector, which reads
        and writes rows entries of each without bounds checks."""
        rows = self.cols.shape[0]
        if x.shape != (rows,) or out.shape != (rows,):
            raise ValueError(f"vectors of shapes {x.shape} and {out.shape} on a block of {rows} rows")
        _sparsetools.csr_matvec(rows, rows, self.indptr, self.cols, self.values, x, out)
        return out

    def toarray(self) -> np.ndarray:
        """A as a dense C-ordered array, repeated columns summed: the kernel
        of scipy's CSR ``toarray``."""
        rows = self.cols.shape[0]
        out = np.zeros((rows, rows), dtype=self.dtype)
        _sparsetools.csr_todense(rows, rows, self.indptr, self.cols, self.values, out)
        return out


@dataclass(frozen=True)
class PauliString:
    """Real-weighted product of single-site Pauli operators.

    ``factors`` holds ``(site, op)`` pairs with distinct sites and
    ``op in {"X", "Y", "Z"}``; identity factors are simply omitted.
    """

    coeff: float
    factors: tuple[tuple[int, str], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "coeff", float(self.coeff))
        if not math.isfinite(self.coeff):
            raise ValueError(f"Pauli string coefficient must be finite, got {self.coeff}")
        factors = tuple((int(s), str(op)) for s, op in self.factors)
        object.__setattr__(self, "factors", factors)
        sites = [s for s, _ in factors]
        if len(set(sites)) != len(sites):
            raise ValueError(f"repeated site index in Pauli string: {sites}")
        for s, op in factors:
            if s < 0:
                raise ValueError(f"negative site index {s}")
            if op not in PAULI_OPS:
                raise ValueError(f"unknown Pauli operator {op!r}")

    @property
    def sites(self) -> tuple[int, ...]:
        return tuple(s for s, _ in self.factors)


@dataclass
class StateVector:
    """Normalized (or intermediate unnormalized) amplitude vector.

    ``amplitudes[b]`` is the coefficient of the configuration whose bit ``i``
    gives the state of spin ``i``.
    """

    n_sites: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (1 << self.n_sites,):
            raise ValueError(
                f"amplitude vector of length {amps.shape} does not match "
                f"{self.n_sites} sites"
            )
        self.amplitudes = amps

    @classmethod
    def basis_state(cls, n_sites: int, index: int = 0) -> "StateVector":
        amps = np.zeros(1 << n_sites, dtype=np.complex128)
        amps[index] = 1.0
        return cls(n_sites, amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "StateVector":
        nrm = self.norm()
        if nrm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return StateVector(self.n_sites, self.amplitudes / nrm)


class _Work:
    """One thread's work arrays for the read-outs of states of ``size``
    amplitudes (``_work``), so that a warm read-out allocates nothing of
    the state's size.

    ``slots`` are four complex128 arrays of ``size`` entries, and a real
    tensor is the float64 view of a slot's first half.  ``_sites_last``
    writes slot 0 and every other user takes a ``free`` slot.  ``probs``,
    ``keep``, ``dets`` and, per dtype, ``det`` and ``product`` hold one
    entry per row of a pair-last tensor, ``size // 4``, for the localizable
    read (``probs`` and ``keep`` only when it forms the probabilities);
    ``index``, ``parity`` and ``states`` serve ``expectation``.  A page
    counts as resident only once it is written.
    """

    def __init__(self, size: int):
        self.size = size
        self.slots = [np.empty(size, dtype=np.complex128) for _ in range(4)]
        self._views: dict = {}
        rows = size // 4
        self.probs, self.dets = np.empty(rows), np.empty(rows)
        self.keep = np.empty(rows, dtype=bool)
        det, product = np.empty(rows, dtype=np.complex128), np.empty(rows, dtype=np.complex128)
        self.det = {"c": det, "f": det.view(np.float64)[:rows]}
        self.product = {"c": product, "f": product.view(np.float64)[:rows]}
        self.index = np.empty(size, dtype=np.int64)
        self.parity = np.empty(size, dtype=np.uint8)

    @functools.cached_property
    def states(self) -> np.ndarray:
        return np.arange(self.size, dtype=np.int64)

    def free(self, *busy) -> list[int]:
        """The indices of the slots that are the base of none of the arrays
        ``busy``: every view of a slot has the slot as its base."""
        taken = {id(array.base) for array in busy}
        return [i for i, slot in enumerate(self.slots) if id(slot) not in taken]

    def view(self, i: int, shape, dtype) -> np.ndarray:
        """A C-contiguous view of ``shape`` and ``dtype`` (complex128 or
        float64) of slot i."""
        key = (i, shape, dtype)
        view = self._views.get(key)
        if view is None:
            view = self._views[key] = self.slots[i].view(dtype)[:math.prod(shape)].reshape(shape)
        return view

    def spare(self, shape, dtype, *busy) -> np.ndarray:
        """A view of ``shape`` and ``dtype`` of the first ``free`` slot."""
        free = self.free(*busy)
        if not free:
            raise RuntimeError("every work slot is busy")
        return self.view(free[0], shape, dtype)


_WORK = threading.local()


def _work(size: int) -> _Work:
    """This thread's :class:`_Work` for states of ``size`` amplitudes, made
    anew when the size changes: one n at a time.  Its arrays hold their
    values only until the next read-out on this thread, so no public
    function returns or keeps one."""
    work = getattr(_WORK, "work", None)
    if work is None or work.size != size:
        work = _WORK.work = _Work(size)
    return work


def _sites_last(state: StateVector, sites: Sequence[int]) -> np.ndarray:
    """The state tensor as a C-contiguous ``(2^(n-w), 2^w)`` copy with the
    axes of the w listed ``sites`` last, in the order given (the first site
    most significant), and the other sites' axes before them in descending
    site order.  The copy is float64 when every imaginary part of the state is
    exactly zero, and it is slot 0 of the work arrays (``_work``).  The one
    place that maps sites to tensor axes."""
    n, w = state.n_sites, len(sites)
    amps = state.amplitudes
    if not amps.imag.any():
        amps = amps.real
    psi = amps.reshape((2,) * n)  # axis k is site n-1-k
    moved = np.moveaxis(psi, [n - 1 - s for s in sites], range(n - w, n))
    out = _work(amps.size).slots[0].view(amps.dtype)[:amps.size].reshape(-1, 1 << w)
    np.copyto(out.reshape(moved.shape), moved)
    return out


@dataclass
class SpinChainSpec:
    """Symbolic chain Hamiltonian: a list of weighted Pauli strings.  The
    terms alone fix the boundary: a ring's terms wrap around from n-1 to 0.

    Treated as immutable after construction; the :class:`BlockedOperator`
    behind :func:`apply` and the solvers is built lazily and cached.
    """

    n_sites: int
    terms: list[PauliString]
    _operator: "BlockedOperator | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.n_sites < 3:
            raise ValueError("chain needs at least 3 sites")
        self.terms = list(self.terms)
        for t in self.terms:
            if not isinstance(t, PauliString):
                raise TypeError("terms must be PauliString instances")
            if any(not (0 <= s < self.n_sites) for s in t.sites):
                raise ValueError(f"term {t} references sites outside [0, {self.n_sites})")

    def operator(self) -> "BlockedOperator":
        if self._operator is None:
            self._operator = _build_operator(self)
        return self._operator


# --- the blocked operator ---------------------------------------------------

def _term_masks(factors) -> tuple[int, int, int]:
    """Bit masks describing a Pauli string: (flip, phase-mask, #Y factors)."""
    flip = 0
    zy = 0
    n_y = 0
    for site, op in factors:
        bit = 1 << site
        if op == "X":
            flip |= bit
        elif op == "Y":
            flip |= bit
            zy |= bit
            n_y += 1
        else:
            zy |= bit
    return flip, zy, n_y


@dataclass(frozen=True)
class BlockedOperator:
    """H split into the sectors of the conserved Z-parity masks: on sector
    s, rows and columns in ``ring.bases[s]`` order, H is ``diag(diags[s]) +
    ring.block(s)``, a real diagonal that depends on the fields plus the
    off-diagonal block of the ring (``_Ring``), which does not."""

    ring: "_Ring"
    diags: tuple[np.ndarray, ...]


def _conserved_masks(n: int, flips) -> tuple[tuple[str, int], ...]:
    """Named Z-parity masks conserved by every flip mask: both sublattices
    when they are conserved, else the one that is, else all sites."""

    def conserved(mask: int) -> bool:
        return all((f & mask).bit_count() % 2 == 0 for f in flips)

    full = (1 << n) - 1
    even = sum(1 << i for i in range(0, n, 2))
    found = tuple((name, m) for name, m in (("even", even), ("odd", full ^ even)) if conserved(m))
    if not found and conserved(full):
        found = (("all", full),)
    return found


def _gf2_basis(masks) -> list[int]:
    """Indices of the integer bit masks that, taken in order, each lie outside
    the GF(2) span of the masks before them: a basis of their span."""
    pivots: dict[int, int] = {}
    basis = []
    for index, mask in enumerate(masks):
        while mask:
            top = mask.bit_length() - 1
            if top not in pivots:
                pivots[top] = mask
                basis.append(index)
                break
            mask ^= pivots[top]
    return basis


def _sign(states: np.ndarray, zy: int):
    """(-1)^{popcount(state & zy)} as float64, formed in float because
    bitwise_count returns uint8; the scalar 1.0 when zy is 0."""
    return 1.0 - 2.0 * (np.bitwise_count(states & zy) & 1) if zy else 1.0


def _build_operator(spec: SpinChainSpec) -> BlockedOperator:
    """Sum the terms per flip mask: the flip-0 terms give each sector's
    diagonal, and the rest the ring (``_ring``).

    Row b of H holds sum_t coeff_t i^{n_Y,t} (-1)^{popcount((b ^ flip) & zy_t)}
    at column b ^ flip for each distinct flip; flip 0 has no Y factor, so
    the diagonal is real.
    """
    groups: dict[int, list[tuple[int, complex]]] = {}
    is_complex = False
    for term in spec.terms:
        flip, zy, n_y = _term_masks(term.factors)
        groups.setdefault(flip, []).append((zy, term.coeff * 1j**n_y))
        is_complex = is_complex or n_y % 2 == 1
    diagonal = groups.pop(0, ())
    ring = _ring(spec.n_sites, tuple((flip, tuple(groups[flip])) for flip in sorted(groups)), is_complex)
    diags = []
    for basis in ring.bases:
        diag = np.zeros(basis.size)
        for zy, pref in diagonal:
            diag += pref.real * _sign(basis, zy)
        diags.append(diag)
    return BlockedOperator(ring, tuple(diags))


class _Ring:
    """The field-independent part of the operator of every spec with n
    sites and the off-diagonal terms ``groups``, ``(flip, ((zy, coeff
    i^{n_Y}), ...))`` in ascending flip order: all of it but the diagonals.
    Its entries are complex (``dtype``) when some term has an odd number of
    Y factors.

    A mask M is conserved when every term flips an even number of the sites
    in M, so prod_{i in M} Z_i commutes with H.  Sector s, named
    ``labels[s]``, has parity bit j of s for ``masks[j]``, and ``bases[s]``
    holds its basis-state indices in ascending order, read-only.  ``steps``
    holds one row step s_j per flip: flip_j with each conserved mask's
    lowest bit deleted.  In every sector row r's column under flip j is r ^
    s_j.  A mask's lowest bit is fixed by its higher bits and the sector's
    parity, so deleting those bits maps each sector's basis, in ascending
    order, onto 0..dim-1, and it maps b ^ flip_j to r ^ s_j because it is
    linear over XOR.  Sector s's basis is the first sector's XOR the lowest
    bit of each mask whose parity s flips.

    The rest is built on first use and kept with the ring: each sector's
    off-diagonal block (``block``) and, per sector and translation step, its
    :class:`Orbits` (``orbits``) and :class:`SymmetricBlock`
    (``symmetric_block``), which the solvers ask for only for a
    representative sector at its own step (``_translations``).  They are
    memoised on the instance, so they go when ``_ring`` drops the ring and
    no spec holds it.
    """

    def __init__(self, n: int, groups: tuple, is_complex: bool):
        self.n, self.groups, self.is_complex = n, groups, is_complex
        self.dtype = np.dtype(np.complex128 if is_complex else np.float64)
        named = _conserved_masks(n, [flip for flip, _ in groups])
        states = np.arange(1 << n, dtype=np.int64)
        parity = np.zeros(1 << n, dtype=np.uint8)
        for _, mask in named:
            parity |= np.bitwise_count(states & mask) & 1
        first = np.flatnonzero(parity == 0)
        self.masks = tuple(mask for _, mask in named)
        self.steps = tuple(self._row(flip) for flip, _ in groups)
        labels, bases = [], []
        for s in range(1 << len(named)):
            moved = [j for j in range(len(named)) if (s >> j) & 1]
            basis = first ^ sum(named[j][1] & -named[j][1] for j in moved)
            basis.flags.writeable = False
            bases.append(basis)
            labels.append(",".join(f"{name}{'-' if j in moved else '+'}"
                                   for j, (name, _) in enumerate(named)) or "all states")
        self.labels, self.bases = tuple(labels), tuple(bases)
        self._blocks: list[FixedWidthBlock | None] = [None] * len(bases)
        self._orbits: dict[tuple[int, int], Orbits] = {}
        self._symmetric: dict[tuple[int, int], SymmetricBlock] = {}

    def _row(self, x):
        """``x``, an int or an int array, with each conserved mask's lowest
        bit deleted: a basis index's sector row, a flip's row step.  An array
        is overwritten, so that one temporary of its size is made."""
        # the highest bit first, so the lower ones stay put
        for bit in sorted((mask & -mask for mask in self.masks), reverse=True):
            low = x & (bit - 1)
            x >>= 1
            x &= ~(bit - 1)
            x |= low
        return x

    @functools.cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray]:
        """The (dim, m) int32 column table ``cols[r, j] = r ^ s_j`` of every
        sector, and its row pointers."""
        dim = self.bases[0].size
        return (np.arange(dim, dtype=np.int32)[:, None] ^ np.array(self.steps, dtype=np.int32),
                _row_pointers(dim, len(self.steps)))

    def block(self, s: int) -> FixedWidthBlock:
        """Sector s's off-diagonal block, built on the first call: the shared
        column table (``_table``) and the sector's entries (``_entries``),
        an entry whose terms cancel stored as an explicit zero.  Only the
        solvers of whole sectors call it, so a field sweep builds each
        sector's block once, and a sector whose H is never applied none."""
        if self._blocks[s] is None:
            cols, indptr = self._table
            self._blocks[s] = FixedWidthBlock(cols, _entries(self.bases[s], self.groups, self.is_complex),
                                              indptr)
        return self._blocks[s]

    def rep_rows(self, s: int, orbits: Orbits) -> tuple[np.ndarray, np.ndarray]:
        """The (reps, m) columns ``reps ^ s_j`` and entries of sector s's
        off-diagonal rows at ``orbits.reps``, formed with no block."""
        reps = orbits.reps
        return (reps[:, None] ^ np.array(self.steps, dtype=np.intp),
                _entries(self.bases[s][reps], self.groups, self.is_complex))

    def orbits(self, s: int, d: int) -> Orbits:
        """Sector s's read-only :class:`Orbits` under T^d, a translation that
        maps the sector onto itself, built on the first call for (s, d) from
        one running minimum over the translates, so no (M, sector) array of
        them is made.  Each state's representative is in the sector, so its
        sector row is the representative with the conserved masks' lowest
        bits deleted (``_row``), as a flip's row step is: no search."""
        if (s, d) not in self._orbits:
            basis, period = self.bases[s], self.n // d
            rep, moved = basis.copy(), basis
            back = np.zeros(basis.size, dtype=np.uint8)  # back < n <= GROUND_SITE_CAP
            count = np.ones(basis.size, dtype=np.int64)  # T^(dj) s = s for M/p of the j
            for j in range(1, period):
                moved = _rotate_sites(moved, d, self.n)
                lower = moved < rep
                np.copyto(rep, moved, where=lower)
                back[lower] = j
                count += moved == basis
            is_rep = rep == basis
            reps = np.flatnonzero(is_rep)
            orbit = (np.cumsum(is_rep, dtype=np.int32) - 1)[self._row(rep)]  # rep is spent
            orbits = Orbits(period, reps, (period // count)[reps], orbit, back)
            for array in (orbits.reps, orbits.length, orbits.orbit, orbits.back):
                array.flags.writeable = False
            self._orbits[s, d] = orbits
        return self._orbits[s, d]

    def symmetric_block(self, s: int, d: int) -> SymmetricBlock:
        """Sector s's :class:`SymmetricBlock` under T^d, built on the first
        call for (s, d).  It folds the representatives' rows alone
        (``rep_rows``), and the gauge reads one flip's entries at a time, so
        no sector block is built here.  The gauge is sought only when the
        blocks are real and a GF(2) basis of the flips has n - len(masks)
        members, so that the flips connect every sector (``_sign_gauge``)."""
        if (s, d) not in self._symmetric:
            orbits = self.orbits(s, d)
            cols, entries = self.rep_rows(s, orbits)
            spanning = _gf2_basis([flip for flip, _ in self.groups])
            connected = not self.is_complex and len(spanning) == self.n - len(self.masks)
            gauge = _sign_gauge(self.bases[s], self.steps, self.groups, spanning) if connected else None
            if gauge is not None:
                gauge.flags.writeable = False
            self._symmetric[s, d] = SymmetricBlock(orbits, _fold(cols, -np.abs(entries), orbits, 0), gauge)
        return self._symmetric[s, d]


#: The ring of the latest spec built, made anew when n or the off-diagonal
#: terms change: the one cache of field-independent tables.
_ring = functools.lru_cache(maxsize=1)(_Ring)


def _flip_entries(rows: np.ndarray, flip: int, terms, is_complex: bool) -> np.ndarray:
    """H[r, r ^ flip] for each basis state r of ``rows``, from the flip's
    ``terms`` ``((zy, coeff i^{n_Y}), ...)`` added in order; complex when
    ``is_complex``, else the real parts.  Each term adds pref or -pref by
    the parity of (r ^ flip) & zy, which is that of r & zy, flipped when
    flip & zy has odd parity: the sum pref times ``_sign``'s +-1 gives,
    with no r ^ flip array and two 2^n-sized temporaries fewer per term."""
    out = np.zeros(rows.size, dtype=np.complex128 if is_complex else np.float64)
    for zy, pref in terms:
        pref = pref if is_complex else pref.real
        if (flip & zy).bit_count() % 2:
            pref = -pref
        out += np.where(np.bitwise_count(rows & zy) & 1, -pref, pref) if zy else pref
    return out


def _entries(rows: np.ndarray, groups, is_complex: bool) -> np.ndarray:
    """The (len(rows), m) stored entries of ``rows`` in row layout, column j
    from the j-th flip of ``groups`` (``_flip_entries``)."""
    out = np.empty((rows.size, len(groups)), dtype=np.complex128 if is_complex else np.float64)
    for j, (flip, terms) in enumerate(groups):
        out[:, j] = _flip_entries(rows, flip, terms, is_complex)
    return out


# --- Hamiltonian builders ---------------------------------------------------

def cluster_hamiltonian(n: int, b_field: float) -> SpinChainSpec:
    """Periodic chain with three-site -XZX terms plus a uniform Z field.

    H = sum_i ( -X_{i-1} Z_i X_{i+1} + b_field * Z_i ).
    Zero-coefficient field terms are dropped.
    """
    if n < 3:
        raise ValueError("cluster chain needs n >= 3")
    terms = [
        PauliString(-1.0, (((i - 1) % n, "X"), (i, "Z"), ((i + 1) % n, "X")))
        for i in range(n)
    ]
    if b_field != 0.0:
        terms.extend(PauliString(float(b_field), ((i, "Z"),)) for i in range(n))
    return SpinChainSpec(n, terms)


def triangle_chain_hamiltonian(
    couplings: "EffectiveCouplings",
    b_vec: Sequence[float],
    n: int,
) -> SpinChainSpec:
    """Periodic chain with the two- and three-spin terms of the derived
    triangular-lattice model.

    Per site i (indices mod n):
      B.sigma_i
      + lambda1 Z_i Z_{i+1} + lambda2 (X_i X_{i+1} + Y_i Y_{i+1})
      + lambda3 Z_i Z_{i+1} Z_{i+2}
      + lambda4 (X_i Z_{i+1} X_{i+2} + Y_i Z_{i+1} Y_{i+2}).
    Zero-coefficient terms are dropped.
    """
    if n < 3:
        raise ValueError("chain needs n >= 3")
    bx, by, bz = (float(v) for v in b_vec)
    l1 = float(couplings.lambda1)
    l2 = float(couplings.lambda2)
    l3 = float(couplings.lambda3)
    l4 = float(couplings.lambda4)
    terms: list[PauliString] = []
    for i in range(n):
        j, k = (i + 1) % n, (i + 2) % n
        for op, bval in (("X", bx), ("Y", by), ("Z", bz)):
            if bval != 0.0:
                terms.append(PauliString(bval, ((i, op),)))
        if l1 != 0.0:
            terms.append(PauliString(l1, ((i, "Z"), (j, "Z"))))
        if l2 != 0.0:
            terms.append(PauliString(l2, ((i, "X"), (j, "X"))))
            terms.append(PauliString(l2, ((i, "Y"), (j, "Y"))))
        if l3 != 0.0:
            terms.append(PauliString(l3, ((i, "Z"), (j, "Z"), (k, "Z"))))
        if l4 != 0.0:
            terms.append(PauliString(l4, ((i, "X"), (j, "Z"), (k, "X"))))
            terms.append(PauliString(l4, ((i, "Y"), (j, "Z"), (k, "Y"))))
    return SpinChainSpec(n, terms)


# --- application and solvers ------------------------------------------------

def apply(spec: SpinChainSpec, state: StateVector) -> StateVector:
    """H|psi>, unnormalized, one sector block at a time."""
    if state.n_sites != spec.n_sites:
        raise ValueError("state and Hamiltonian dimensions do not match")
    amps = state.amplitudes
    out = np.empty_like(amps)
    op = spec.operator()
    for s, (basis, diag) in enumerate(zip(op.ring.bases, op.diags)):
        block = op.ring.block(s)
        if block.dtype.kind == "c":
            x = amps[basis]
            out[basis] = _sector_matvec(diag, block, x, np.empty_like(x))
            continue
        # a real block takes the real and imaginary parts apart, each gathered
        # contiguous, so that its data is never cast to complex and the kernel
        # copies no strided view; a real x costs one product
        re = _sector_matvec(diag, block, amps.real[basis], np.empty(basis.size))
        imag = amps.imag[basis]
        if imag.any():
            re = re + 1j * _sector_matvec(diag, block, imag, np.empty(basis.size))
        out[basis] = re
    return StateVector(spec.n_sites, out)


def _sector_matvec(diag: np.ndarray, block: FixedWidthBlock, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out <- (diag(diag) + block) x, without allocating: out = diag x
    first, then the off-diagonal block adds its part in place
    (``matvec_add``).  Each row is summed in the order of one CSR product
    over the whole block with the diagonal first."""
    np.multiply(diag, x, out=out)
    return block.matvec_add(x, out)


def _check_dense_cap(n: int) -> None:
    if n > DENSE_SITE_CAP:
        raise ResourceLimitError(
            f"dense matrix for n={n} exceeds the n<={DENSE_SITE_CAP} cap"
        )


def _check_iterative_cap(n: int) -> None:
    if n > GROUND_SITE_CAP:
        raise ResourceLimitError(f"n={n} exceeds the iterative cap {GROUND_SITE_CAP}")


def dense_matrix(spec: SpinChainSpec) -> np.ndarray:
    """Explicit 2^n x 2^n matrix; real when every term has an even Y count."""
    _check_dense_cap(spec.n_sites)
    op = spec.operator()
    dim = 1 << spec.n_sites
    h = np.zeros((dim, dim), dtype=op.ring.dtype)
    for s, (basis, diag) in enumerate(zip(op.ring.bases, op.diags)):
        h[np.ix_(basis, basis)] = op.ring.block(s).toarray()
        h[basis, basis] = diag
    return h


def _solve_block(block: np.ndarray) -> np.ndarray:
    """Every eigenvalue of one dense momentum block, ascending, by
    ``eigvalsh`` of the symmetrized block."""
    return np.linalg.eigvalsh((block + block.conj().T) / 2.0)


def _lowest_ritz(alphas: Sequence[float], betas: Sequence[float]) -> tuple[float, np.ndarray]:
    """Lowest eigenpair (theta, s) of the symmetric tridiagonal T with
    diagonal ``alphas`` and off-diagonal ``betas`` (one shorter), by dense
    ``eigh`` of its upper triangle; s is normalized, its sign LAPACK's."""
    t = np.diag(alphas)
    np.fill_diagonal(t[:, 1:], betas)
    values, vectors = np.linalg.eigh(t, UPLO="U")
    return float(values[0]), vectors[:, 0]


def _flip_matvec(op: BlockedOperator, s: int, x: np.ndarray) -> np.ndarray:
    """H x on sector s from the ring's flips, with no table: diag x, then
    each flip's entries (``_flip_entries``) times x at the rows r ^ s_j,
    added in ascending flip order, the order in which ``_sector_matvec``
    sums each row.  The same bits as ``_sector_matvec`` on a real sector;
    a complex product may round differently in the last bit."""
    ring = op.ring
    rows = np.arange(x.size)
    out = op.diags[s] * x
    for step, (flip, terms) in zip(ring.steps, ring.groups):
        out += _flip_entries(ring.bases[s], flip, terms, ring.is_complex) * x[rows ^ step]
    return out


def _check_residual(op: BlockedOperator, s: int, energy: float, psi: np.ndarray) -> None:
    """Raise :class:`ConvergenceError` unless the normalized pair (``psi``,
    ``energy``) of sector s has |H psi - E psi| <= ``RESIDUAL_TOL`` max(1,
    |E|).  H psi is ``_flip_matvec``'s, so a check builds no table."""
    residual = _flip_matvec(op, s, psi)
    residual -= energy * psi
    norm = float(np.linalg.norm(residual))
    bound = RESIDUAL_TOL * max(1.0, abs(energy))
    if not norm <= bound:  # a NaN residual fails too
        raise ConvergenceError(
            f"Lanczos eigenpair on a sector of dimension {psi.size} has residual "
            f"{norm:.3g} > {bound:.3g}",
            best_energy=energy,
        )


def _lanczos(
    diag: np.ndarray,
    block: FixedWidthBlock,
    start: int | np.ndarray,
    deflate: np.ndarray | None = None,
    shift: float | None = None,
):
    """Lowest eigenvalue of H = diag(diag) + block, a sector's or a folded
    block's, or of H + shift Psi Psi^H for ``deflate=Psi``, a normalized
    vector or a matrix of orthonormal columns (``shift`` is then required;
    see ``_deflation_shift``), by plain three-term Lanczos from ``start``
    normalized when it is an array, else from a random vector drawn from
    the seed ``start``.

    Returns ``(theta, ritz_vector)``.  Only three Krylov vectors are kept and
    none is reorthogonalized: lost orthogonality adds spurious copies of
    converged Ritz values above the lowest one but leaves that one accurate
    (Paige, J. Inst. Math. Appl. 18, 373 (1976)).  Every
    ``LANCZOS_CHECK_EVERY`` steps the lowest Ritz pair (theta, s) of the j x
    j tridiagonal T_j is formed by a dense solve (``_lowest_ritz``), cheap
    at the few dozen steps a solve takes and O(j^3) near the cap, and the
    loop stops once |beta_j s_j| <= ``GROUND_TOL`` max(1, |theta|); a beta
    that small also stops it at once, since the Krylov space is then
    invariant.  Raises :class:`ConvergenceError` after ``LANCZOS_STEP_CAP``
    steps.

    ``ritz_vector()`` sums the normalized Ritz vector sum_j s_j v_j on a
    second pass that replays the recurrence from the stored coefficients, so
    its v_j are bit-equal to the first pass's; the caller checks its residual.
    Each pass works in place in three preallocated vectors (a fourth holds
    the deflation term).
    """
    dim, dtype = diag.size, block.dtype

    def start_vector() -> np.ndarray:  # formed again for the replay, not kept
        v = start if isinstance(start, np.ndarray) else np.random.default_rng(start).standard_normal(dim)
        return (v / np.linalg.norm(v)).astype(dtype)

    if deflate is not None:
        deflate = deflate.reshape(dim, -1)
        deflate_h = deflate.conj().T
        extra = np.empty(dim, dtype=dtype)

    def step(v_prev, v, w, beta_prev, alpha=None):
        """w <- H v - alpha v - beta_prev v_prev, unnormalized, with alpha =
        <v|H v> unless given; leaves v_prev as scratch and returns alpha."""
        _sector_matvec(diag, block, v, w)
        if deflate is not None:
            np.dot(deflate, shift * (deflate_h @ v), out=extra)
            w += extra
        if beta_prev is not None:
            v_prev *= beta_prev
            w -= v_prev
        if alpha is None:
            alpha = np.vdot(v, w).real
        np.multiply(v, alpha, out=v_prev)
        w -= v_prev
        return alpha

    alphas: list[float] = []
    betas: list[float] = []
    v = start_vector()
    v_prev, w = np.empty_like(v), np.empty_like(v)
    for j in range(LANCZOS_STEP_CAP):
        alphas.append(step(v_prev, v, w, betas[-1] if j else None))
        beta = float(np.linalg.norm(w))
        betas.append(beta)
        if beta <= GROUND_TOL or (j + 1) % LANCZOS_CHECK_EVERY == 0:
            theta, s = _lowest_ritz(alphas, betas[:-1])
            if abs(beta * s[-1]) <= GROUND_TOL * max(1.0, abs(theta)):
                break
        np.divide(w, beta, out=w)
        v_prev, v, w = v, w, v_prev
    else:  # the cap is a multiple of the check interval, so theta is current
        raise ConvergenceError(
            f"Lanczos did not converge in {LANCZOS_STEP_CAP} steps on a sector of "
            f"dimension {dim}",
            best_energy=theta,
        )

    def ritz_vector() -> np.ndarray:
        v = start_vector()
        psi = s[0] * v
        v_prev, w = np.empty_like(v), np.empty_like(v)
        for j in range(1, s.size):
            step(v_prev, v, w, betas[j - 2] if j > 1 else None, alphas[j - 1])
            np.divide(w, betas[j - 1], out=w)
            v_prev, v, w = v, w, v_prev
            np.multiply(v, s[j], out=w)
            psi += w
        return psi / np.linalg.norm(psi)

    return theta, ritz_vector


def _rotate_sites(x, d: int, n: int):
    """Basis index (or mask) x with every site i moved to (i + d) mod n."""
    return ((x << d) | (x >> (n - d))) & ((1 << n) - 1)


def _translations(spec: SpinChainSpec) -> tuple[tuple[int, int], ...]:
    """Per sector s of the spec's ring, ``(d_s, r_s)``: the smallest step d_s
    whose translation T^(d_s) maps the sector onto itself, and its
    representative r_s, the lowest sector of its orbit under T^d.

    d is the smallest divisor of n such that shifting every site by d maps
    the summed Pauli strings onto themselves, with coefficients compared
    exactly, and each conserved mask onto a conserved mask (d = n, the
    identity, always does).  T^d maps sector s onto the sector whose parity
    for the image of mask j is that of s for mask j, and d_s is d times the
    length of s's cycle.  T^d commutes with H, so a sector has the levels of
    its representative: on an even cluster ring T swaps the two
    sublattices, the two mixed sectors are one orbit with d_s = 2, and the
    other two have d_s = 1.
    """
    n = spec.n_sites
    coeffs: dict[tuple[int, int, int], float] = {}
    for term in spec.terms:
        key = _term_masks(term.factors)
        coeffs[key] = coeffs.get(key, 0.0) + term.coeff
    coeffs = {key: c for key, c in coeffs.items() if c != 0.0}
    masks = spec.operator().ring.masks
    for d in range(1, n + 1):
        moved = [_rotate_sites(m, d, n) for m in masks]
        if n % d or not set(moved) <= set(masks):
            continue
        if coeffs == {(_rotate_sites(flip, d, n), _rotate_sites(zy, d, n), n_y): c
                      for (flip, zy, n_y), c in coeffs.items()}:
            break
    image = [masks.index(m) for m in moved]  # T^d moves mask j onto mask image[j]

    def shifted(s: int) -> int:  # the sector that T^d maps sector s onto
        return sum(((s >> j) & 1) << i for j, i in enumerate(image))

    out = []
    for s in range(1 << len(masks)):
        cycle = [s]
        while shifted(cycle[-1]) != s:
            cycle.append(shifted(cycle[-1]))
        out.append((d * len(cycle), min(cycle)))
    return tuple(out)


@dataclass(frozen=True)
class Orbits:
    """The orbits of T^d (T moves every site by one) in one sector that T^d
    maps onto itself, M = n/d = ``period``; the solvers take d = d_s, the
    sector's own step (``_translations``).  ``reps``: the sector rows of the
    representatives (each orbit's smallest basis index), ascending;
    ``length``: their orbit lengths p.  Per sector row s, ``orbit`` is the
    index into ``reps`` of its orbit and ``back`` the j < p with T^(dj) s
    its representative."""

    period: int
    reps: np.ndarray
    length: np.ndarray
    orbit: np.ndarray
    back: np.ndarray


def _fold(cols: np.ndarray, data: np.ndarray, orbits: Orbits, q: int) -> FixedWidthBlock:
    """The off-diagonal part of the momentum-q block Q_q^H H Q_q from the
    (reps, m) columns ``cols`` and entries ``data`` of a sector's stored
    off-diagonal entries in the rows of ``orbits.reps``; with ``data`` their
    -|entries|, that of S = diag(H) - |offdiag(H)|.  T^d is the translation
    of ``orbits``, which maps the sector onto itself: in the solvers, a
    representative sector's own step d_s (``_translations``).

    Column r of Q_q is p^(-1/2) sum_{j<p} exp(2 pi i q j / M) |T^(-dj) r>,
    for each orbit with q p = 0 (mod M).  As H commutes with T^d, entry (r,
    t) sums sqrt(p_r / p_t) exp(2 pi i q j_c / M) H[r, c] over row r's
    stored entries with c = T^(-d j_c) t: one per flip, so a column may
    repeat (``toarray`` sums them).  Rows and columns of the other orbits are
    not entries of the block.  A real ``data`` at q = 0 or M/2 folds real.
    """
    period = orbits.period
    column = orbits.orbit[cols]
    data = np.sqrt(orbits.length[:, None] / orbits.length[column]) * data
    if q:
        phase = np.exp(2j * np.pi * (q * np.arange(period) % period) / period)[orbits.back[cols]]
        data = data * (phase.real if data.dtype.kind == "f" and 2 * q == period else phase)
    return FixedWidthBlock(column, data, _row_pointers(*cols.shape))


def dense_spectrum(spec: SpinChainSpec) -> np.ndarray:
    """All 2^n eigenvalues, ascending, from dense lattice-momentum blocks.

    Each representative Z-parity sector (``_translations``) is split into
    its blocks at each momentum q = 0..M-1 under T^(d_s), M = n/d_s (d_s =
    n, so M = 1, for a chain that is not exactly invariant): its ``_fold``
    of the representatives' rows (``_Ring.rep_rows``) plus the diagonal at
    the representatives, on the orbits with q p = 0 (mod M); every block
    that is not empty is solved dense.  A translate of a representative
    solves nothing: its levels are the representative's, counted again.
    Only this solver reads every momentum block of H, and it builds no
    sector block.

    In a real sector the block at M - q is the complex conjugate of the
    block at q, on the same orbits, so it has the same levels: only q =
    0..M/2 are solved there, and each 0 < q < M - q block's levels are
    counted twice.  A complex sector solves every q.
    """
    _check_dense_cap(spec.n_sites)
    op = spec.operator()
    real = op.ring.dtype.kind == "f"
    sectors = []
    for s, (step, rep) in enumerate(_translations(spec)):
        if rep != s:
            sectors.append(sectors[rep])
            continue
        orbits = op.ring.orbits(s, step)
        diag = np.diag(op.diags[s][orbits.reps])
        cols, data = op.ring.rep_rows(s, orbits)
        period, levels = orbits.period, []
        for q in range(period // 2 + 1 if real else period):
            keep = np.flatnonzero(q * orbits.length % period == 0)
            if keep.size:
                block = _fold(cols, data, orbits, q).toarray() + diag
                solved = _solve_block(block[np.ix_(keep, keep)])
                levels.extend([solved] * (2 if real and 0 < q < period - q else 1))
        sectors.append(np.concatenate(levels))
    return np.sort(np.concatenate(sectors))


def lowest_eigenvalues(spec: SpinChainSpec, k: int = 2) -> np.ndarray:
    """The k lowest levels over all Z-parity sectors, ascending, every
    degenerate copy included: the first k of the merged level stream
    ``_levels``, so a sector solves its next level only once every copy of
    its latest one is among them."""
    _check_iterative_cap(spec.n_sites)
    # a stream may step down by rounding inside a degenerate level
    return np.sort(list(islice(_levels(spec, START_SEED), k)))


def _deflation_shift(spec: SpinChainSpec) -> float:
    """Shift c of every deflated solve H + c Psi Psi^H: c = 2 sum_t |coeff_t|
    + 1 exceeds the spectral width, so the deflated minimum is the next level
    of H and never a found level plus c.  Once Psi spans a whole sector the
    minimum is at least E_min + c, above every level of H."""
    return 2.0 * sum(abs(t.coeff) for t in spec.terms) + 1.0


def _lanczos_levels(op: BlockedOperator, s: int, seed: int, shift: float):
    """Yield ``(level, vector)`` for the levels of sector s's block in
    ascending order, every degenerate copy included; ``vector()`` returns
    the level's normalized vector, replayed and residual-checked on the
    first call only (``_checked_vector``).

    The first level is the energy-only ``_lanczos`` pass from ``seed``.
    Reading a level's vector costs its replay alone.  Moving past a level
    appends its vector to Psi, and the next level is the lowest of H +
    ``shift`` Psi Psi^H (see ``_deflation_shift``) from the start vector of
    ``seed`` plus the number of columns of Psi.  It never stops by itself,
    and only its first dim(block) levels are levels of H; the caller stops
    it.
    """
    diag, block = op.diags[s], op.ring.block(s)
    below = np.empty((diag.size, 0), dtype=block.dtype)
    theta, ritz_vector = _lanczos(diag, block, seed)
    while True:
        vector = _checked_vector(op, s, theta, ritz_vector)
        yield theta, vector
        below = np.column_stack([below, vector()])
        theta, ritz_vector = _lanczos(diag, block, seed + below.shape[1], deflate=below, shift=shift)


def _checked_vector(op: BlockedOperator, s: int, energy: float, ritz_vector):
    """Memoised thunk of ``ritz_vector()``, a vector of sector s,
    residual-checked against ``energy`` (``_check_residual``) when it is
    first called."""

    @functools.cache
    def vector() -> np.ndarray:
        psi = ritz_vector()
        _check_residual(op, s, energy, psi)
        return psi

    return vector


def _levels(spec: SpinChainSpec, seed: int):
    """The levels of every representative sector's ``_lanczos_levels``
    stream (``_translations``), cut at the sector's dimension, each repeated
    once per sector of its orbit, since a translate has its
    representative's levels, merged in ascending order: a sector solves its
    next level only after every copy of its latest level has been read."""
    shift = _deflation_shift(spec)
    op = spec.operator()
    copies = Counter(rep for _, rep in _translations(spec))

    def stream(s: int):
        for level, _ in islice(_lanczos_levels(op, s, seed, shift), op.ring.bases[s].size):
            yield from repeat(level, copies[s])

    return heapq.merge(*map(stream, copies))


@dataclass(frozen=True)
class SymmetricBlock:
    """One sector's stoquastic form S = diag(H) - |offdiag(H)| on its q = 0
    momentum block under a translation T^d that maps the sector onto itself
    (the solvers take the sector's own step d_s), and the sector's sign
    gauge.

    For any x, |x|^T S |x| <= x^H H x, so S's lowest level bounds H's from
    below; and since S commutes with T^d and its off-diagonal entries are
    not positive, S has a lowest vector that is nonnegative and invariant
    under T^d, so its lowest level is that of the block.  The block's rows
    and columns are the sector's ``orbits``; ``offdiag`` is S's off-diagonal
    part folded onto them (``_fold``), and sqrt(p) is the block's image of
    the uniform vector.

    ``gauge`` is g = +-1 per sector row with g_r g_c H[r, c] < 0 for every
    stored off-diagonal entry, so that H = G S G with G = diag(g); None when
    there is none.  It exists only for a real sector whose off-diagonal
    flips connect it and whose stored entries are all nonzero; S is then
    irreducible, and its lowest level is simple (Perron-Frobenius; Bravyi,
    DiVincenzo, Oliveira & Terhal, QIC 8, 361 (2008)) and that of H.
    """

    orbits: Orbits
    offdiag: FixedWidthBlock
    gauge: np.ndarray | None

    def expand(self, vector: np.ndarray) -> np.ndarray:
        """G Q u: the sector vector of the block vector u, each orbit's
        entry spread over the orbit with weight 1/sqrt(p), then gauged."""
        return self.gauge * (vector / np.sqrt(self.orbits.length))[self.orbits.orbit]


def _sign_gauge(basis: np.ndarray, steps: tuple, groups, spanning) -> np.ndarray | None:
    """The gauge g = +-1 of the real sector with rows ``basis``, row steps
    ``steps`` and flips ``groups``, whose flips ``spanning`` (indices
    into ``groups``) form a GF(2) basis that spans the sector, or None when
    none exists.

    Row 0 gets +1; each flip of ``spanning`` in turn carries the signs of
    the rows reached so far across its entries, doubling them, so that
    g_r g_c H[r, c] < 0 on those entries.  Then every stored entry is
    checked (``_is_gauge``), with no tolerance.
    """
    gauge = np.ones(basis.size)
    reached = np.zeros(1, dtype=np.intp)
    for j in spanning:
        flip, terms = groups[j]
        ahead = reached ^ steps[j]
        negative = np.signbit(_flip_entries(basis[reached], flip, terms, False))
        gauge[ahead] = np.where(negative, gauge[reached], -gauge[reached])
        reached = np.concatenate([reached, ahead])
    return gauge if _is_gauge(basis, steps, groups, gauge) else None


def _is_gauge(basis: np.ndarray, steps: tuple, groups, gauge: np.ndarray) -> bool:
    """Whether every stored off-diagonal entry of the real sector with rows
    ``basis``, row steps ``steps`` and flips ``groups`` is nonzero and has
    g_r g_c H[r, c] < 0, by sign bits alone."""
    negative = np.signbit(gauge)
    rows = np.arange(basis.size)
    for step, (flip, terms) in zip(steps, groups):  # one flip at a time keeps the temporaries small
        entries = _flip_entries(basis, flip, terms, False)
        if not (entries.all() and np.all(np.signbit(entries) ^ negative ^ negative[rows ^ step])):
            return False
    return True


def ground_state(spec: SpinChainSpec, seed: int = START_SEED) -> tuple[float, StateVector]:
    """Lowest eigenpair over all Z-parity sectors.

    Each representative sector's :class:`SymmetricBlock` at its own step
    (``_translations``; built once per ring, ``_Ring.symmetric_block``),
    with H's diagonal at its representatives, is solved first, by
    ``_lanczos`` from its image of the uniform vector, sqrt(p), which
    overlaps every nonnegative lowest vector of the block; no seed enters.
    The sectors are then walked once, in ascending order of block level, up
    to the first that lies ``DEGENERACY_TOL`` or more above the lowest level
    recorded.  A translate records its representative's level, so a
    representative's level ties with its translates' and is never read
    from a translate.
    * A sector with a gauge has H = G S G: its block level is its lowest
      level, which is simple, and it records that level and G Q times the
      block's vector.
    * A sector without one has only a lower bound; it records the first
      level of its ``_lanczos_levels`` stream from ``seed``.
    The chosen sector's vector is read through its ``_checked_vector``, so
    it is residual-checked against the whole sector H before any warning.

    Degeneracy rule: when the lowest levels of two or more sectors agree
    within ``DEGENERACY_TOL``, the ground state of the first tied sector in
    the fixed order of the ring's sectors is returned, and a
    :class:`DegenerateGroundStateWarning` names the tied sectors.  The state
    returned at a cross-sector degeneracy therefore does not depend on
    ``seed``.  Otherwise a chosen sector with a gauge has a simple lowest
    level, so it is not searched for a second level closer than
    ``DEGENERACY_TOL``.  A chosen sector without one reads its second level
    from its stream: the lowest of H + c psi psi^H from a second start
    vector, with the shift c of ``_deflation_shift`` (E0 + c, above every
    level, in a one-row sector).  A second level within ``DEGENERACY_TOL``
    of the lowest warns the same way, and any normalized minimizer is
    returned.  So ``seed`` can move the digits of the result only where the
    chosen sector has no gauge.
    """
    n = spec.n_sites
    _check_iterative_cap(n)
    op = spec.operator()
    labels = op.ring.labels
    translations = _translations(spec)
    reps = [rep for _, rep in translations]
    blocks = {s: op.ring.symmetric_block(s, step) for s, (step, rep) in enumerate(translations) if rep == s}
    solved = {s: _lanczos(op.diags[s][block.orbits.reps], block.offdiag, np.sqrt(block.orbits.length))
              for s, block in blocks.items()}
    lows = np.full(len(reps), np.inf)
    streams, vectors = {}, {}
    shift = _deflation_shift(spec)
    # stable: a translate follows its representative, whose level it shares
    for i in sorted(range(len(reps)), key=lambda i: solved[reps[i]][0]):
        level, ritz_vector = solved[reps[i]]
        if level - lows.min() >= DEGENERACY_TOL:
            break  # this sector and every later one lie above the ground level
        if reps[i] != i:
            lows[i] = lows[reps[i]]
        elif blocks[i].gauge is None:
            streams[i] = _lanczos_levels(op, i, seed, shift)
            lows[i], vectors[i] = next(streams[i])
        else:
            lows[i] = level
            vectors[i] = _checked_vector(
                op, i, level,
                lambda expand=blocks[i].expand, ritz_vector=ritz_vector: expand(ritz_vector()))
    tied = np.flatnonzero(lows - lows.min() < DEGENERACY_TOL)
    first = int(tied[0])
    energy = float(lows[first])
    psi = vectors[first]()
    degenerate = None
    if tied.size > 1:
        names = ", ".join(labels[i] for i in tied)
        degenerate = (f"across Z-parity sectors {names}; returning the state of "
                      f"sector {labels[first]}")
    elif first in streams and next(streams[first])[0] - energy < DEGENERACY_TOL:
        degenerate = f"inside Z-parity sector {labels[first]}; returning one minimizer"
    if degenerate:
        warnings.warn(f"ground level degenerate within {DEGENERACY_TOL:g} {degenerate}",
                      DegenerateGroundStateWarning)
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[op.ring.bases[first]] = psi
    return energy, StateVector(n, amps)


def spectral_gap(spec: SpinChainSpec, seed: int = START_SEED) -> float:
    """First excitation energy above the (possibly degenerate) ground level.

    At |B| = 1 rings with n = 2 (mod 4) carry an exact zero mode, so the
    literal E1 - E0 vanishes there; the gap above the ground manifold is the
    quantity that closes smoothly with 1/n and is what this returns.

    Method: ``_gap_above_ground`` reads at most the first ``GAP_LEVELS``
    levels of the merged level stream ``_levels``.  Raises
    :class:`ConvergenceError` when the ground manifold has ``GAP_LEVELS`` or
    more copies over all sectors.
    """
    _check_iterative_cap(spec.n_sites)
    return _gap_above_ground(islice(_levels(spec, seed), GAP_LEVELS))


def _gap_above_ground(levels) -> float:
    """Distance from the first of the ascending ``levels``, any iterable, to
    the first level at or above it plus ``DEGENERACY_TOL``, the one rule for
    "above the ground manifold"; no level after that one is read.  Raises
    :class:`ConvergenceError` when no level lies that far above the first."""
    levels = iter(levels)
    e0 = next(levels)
    for level in levels:
        if level - e0 >= DEGENERACY_TOL:
            return float(level - e0)
    raise ConvergenceError("no level above the ground manifold among the levels read")


def expectation(state: StateVector, op: PauliString) -> float:
    """<psi|P|psi>.  Raises if the imaginary part exceeds 1e-10."""
    n = state.n_sites
    if any(s >= n for s in op.sites):
        raise ValueError("operator acts outside the state's sites")
    flip, zy, n_y = _term_masks(op.factors)
    amps = state.amplitudes
    work = _work(amps.size)
    # P|b> = coeff i^{n_Y} (-1)^{popcount(b & zy)} |b ^ flip>, in work arrays.
    # The signs are the complex (+-1, +0) that a float sign casts to, so the
    # product has the bits of the float sign times the state
    signed = work.spare(amps.shape, np.complex128)
    if zy:
        parity = np.bitwise_count(np.bitwise_and(work.states, zy, out=work.index), out=work.parity)
        parity &= 1
        sign = signed.real
        np.copyto(sign, parity)
        sign *= -2.0
        sign += 1.0
        signed.imag = 0.0
        np.multiply(signed, amps, out=signed)
    else:
        np.multiply(1.0, amps, out=signed)
    # a Z string flips nothing, so its bra is the state itself
    bra = amps
    if flip:
        bra = np.take(amps, np.bitwise_xor(work.states, flip, out=work.index), mode="clip",
                      out=work.spare(amps.shape, np.complex128, signed))
    val = op.coeff * 1j**n_y * np.vdot(bra, signed)
    if abs(val.imag) > 1e-10 * max(1.0, abs(val.real)):
        raise ValueError(f"expectation of Hermitian string came out complex: {val}")
    return float(val.real)
