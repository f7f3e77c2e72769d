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
  conserved sublattice masks; :func:`dense_spectrum` splits each sector
  further into every lattice-momentum block, and :func:`ground_state`
  takes one such block of a related matrix (below), both by one fold
  (``_fold``) over one orbit table per ring (``_orbits``).  Each sector is
  a real diagonal plus m off-diagonal entries per row, one per flip mask.
  In every sector row r's column under flip j is r ^ s_j, with s_j the
  flip with each conserved mask's lowest bit deleted (``_off_diagonal``).
  The off-diagonal part depends only on n and the off-diagonal terms, so
  consecutive specs that differ only in their Z fields (a field sweep)
  share it.  Only the solvers of whole sectors (``_lanczos_levels``,
  :func:`apply`, :func:`dense_spectrum`, :func:`dense_matrix`) store it,
  as a :class:`FixedWidthBlock` per sector built the first time its H is
  applied, over one column table per ring.  A gauged ground state builds
  none: its residual check applies the sector's H flip by flip
  (``_flip_matvec``).
* The read-outs of a state (``localizable``'s branch averages,
  :func:`expectation`, ``correlations``' Pauli transforms) work in one set
  of work arrays per thread, sized for one n at a time (``_work``), so a
  warm read-out allocates nothing of the state's size.
* Every sector, whatever its size, has one eigensolver, a three-term
  Lanczos (``_lanczos``), and one stream of levels, ``_lanczos_levels``:
  an energy-only pass for the sector's lowest level, then for each next
  level a solve deflated against the residual-checked vectors of the
  levels below it.  :func:`lowest_eigenvalues` and :func:`spectral_gap`
  read the sectors' streams merged in ascending order (``_levels``).
* :func:`ground_state` first solves each sector's small stoquastic
  symmetric block (``SymmetricBlock``, built once per ring): the q = 0
  lattice-momentum block of S = diag(H) - |offdiag(H)|, whose lowest level
  bounds the sector's from below.  Where an exact sign gauge G gives H = G
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
from dataclasses import dataclass, field
from itertools import islice
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Sequence

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
    writes slot 0 and every other user takes a ``spare`` slot.  ``probs``,
    ``keep``, ``dets`` and, per dtype, ``det`` and ``product`` hold one
    entry per row of a pair-last tensor, ``size // 4``, for ``_read``;
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

    def spare(self, shape, dtype, *busy) -> np.ndarray:
        """A C-contiguous view of ``shape`` and ``dtype`` (complex128 or
        float64) of the first slot that is the base of none of the arrays
        ``busy``: every view of a slot has the slot as its base."""
        taken = {id(array.base) for array in busy}
        for i, slot in enumerate(self.slots):
            if id(slot) not in taken:
                key = (i, shape, dtype)
                view = self._views.get(key)
                if view is None:
                    view = self._views[key] = slot.view(dtype)[:math.prod(shape)].reshape(shape)
                return view
        raise RuntimeError("every work slot is busy")


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
class Sector:
    """One joint eigenspace of the conserved Z-parity operators.

    ``basis`` holds the sector's basis-state indices in ascending order.  H
    restricted to them, rows and columns in ``basis`` order, is
    ``diag(diag) + offdiag``: ``diag`` is real, and ``offdiag``, a
    :class:`FixedWidthBlock` of dtype ``dtype``, holds every off-diagonal
    entry, one per row and off-diagonal flip mask, in ascending flip order.
    ``flips`` holds ``(s_j, flip_j, terms_j)`` per flip in that order: row
    r's entry j is at column r ^ s_j and is the sum of ``terms_j``
    (``_flip_entries``), so the entries can be formed one flip at a time
    with no table (``_flip_matvec``); it is None on a folded block.

    ``basis``, ``flips`` and ``offdiag`` depend only on n and the
    off-diagonal terms, and consecutive specs with those terms share them
    (``_off_diagonal``).  ``offdiag`` is built on its first read, by the
    ring's memoised ``_offdiag``, over the ring's one column table: only the
    solvers of whole sectors read it, once per ring.  ``dtype`` is known
    without that build.
    """

    label: str
    basis: np.ndarray
    diag: np.ndarray
    dtype: np.dtype
    flips: tuple | None = field(repr=False, compare=False)
    _offdiag: Callable[[], FixedWidthBlock] = field(repr=False, compare=False)

    @property
    def offdiag(self) -> FixedWidthBlock:
        return self._offdiag()


@dataclass(frozen=True)
class BlockedOperator:
    """H as a diagonal plus an off-diagonal :class:`FixedWidthBlock` per
    sector of the conserved Z-parity masks.

    A mask M is conserved when every term flips an even number of the sites
    in M, so prod_{i in M} Z_i commutes with H.  ``sectors`` is ordered by
    the parities: sector s has parity bit j of s for ``masks[j]``.
    ``offdiag_key`` is ``(n, groups, is_complex)``, the hashable arguments
    of ``_off_diagonal`` that made the sectors.  In every sector row r's
    column under flip j is r ^ s_j, so the sectors share one column table,
    and each builds its block only when a solver of the whole sector first
    applies its H: a gauged ground state builds none.
    """

    masks: tuple[int, ...]
    sectors: tuple[Sector, ...]
    offdiag_key: tuple


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
    diagonal, and the rest the shared off-diagonal blocks of
    ``_off_diagonal``.

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
    key = (spec.n_sites, tuple((flip, tuple(groups[flip])) for flip in sorted(groups)), is_complex)
    masks, steps, blocks = _off_diagonal(*key)
    dtype = np.dtype(np.complex128 if is_complex else np.float64)
    flips = tuple((step, flip, terms) for step, (flip, terms) in zip(steps, key[1]))
    sectors = []
    for label, basis, offdiag in blocks:
        diag = np.zeros(basis.size)
        for zy, pref in diagonal:
            diag += pref.real * _sign(basis, zy)
        sectors.append(Sector(label, basis, diag, dtype, flips, offdiag))
    return BlockedOperator(masks, tuple(sectors), key)


@functools.lru_cache(maxsize=1)
def _off_diagonal(n: int, groups: tuple, is_complex: bool):
    """The field-independent part of ``_build_operator``, made once for
    consecutive specs with the same n and off-diagonal terms ``groups``,
    ``(flip, ((zy, coeff i^{n_Y}), ...))`` in ascending flip order; the
    blocks are complex when some term has an odd number of Y factors.

    Returns ``(masks, steps, blocks)``.  ``steps`` holds one row step s_j
    per flip: flip_j with each conserved mask's lowest bit deleted.  In
    every sector row r's column under flip j is r ^ s_j.  A mask's lowest
    bit is fixed by its higher bits and the sector's parity, so deleting
    those bits maps each sector's basis, in ascending order, onto 0..dim-1,
    and it maps b ^ flip_j to r ^ s_j because it is linear over XOR.
    Sector s's basis is the first sector's XOR the lowest bit of each mask
    whose parity s flips.

    ``blocks`` holds one ``(label, basis, offdiag)`` per sector, ``basis``
    read-only and ``offdiag`` a memoised thunk of ``_offdiag_block``: a
    sector's values are built on the first call, so a sector whose H is
    never applied never builds them, and a field sweep builds each once.
    The sectors share one (dim, m) int32 column table, ``cols[r, j] = r ^
    s_j``, built with the first sector's values.
    """
    flips = [flip for flip, _ in groups]
    named = _conserved_masks(n, flips)

    states = np.arange(1 << n, dtype=np.int64)
    parity = np.zeros(1 << n, dtype=np.uint8)
    for _, mask in named:
        parity |= np.bitwise_count(states & mask) & 1
    first = np.flatnonzero(parity == 0)
    lowest = sorted(mask & -mask for _, mask in named)
    steps = []
    for flip in flips:
        for bit in reversed(lowest):  # the highest first, so the lower ones stay put
            flip = ((flip >> 1) & ~(bit - 1)) | (flip & (bit - 1))
        steps.append(flip)
    table = functools.cache(functools.partial(_column_table, first.size, tuple(steps)))

    blocks = []
    for s in range(1 << len(named)):
        moved = [j for j in range(len(named)) if (s >> j) & 1]
        basis = first ^ sum(named[j][1] & -named[j][1] for j in moved)
        basis.flags.writeable = False
        label = ",".join(f"{name}{'-' if j in moved else '+'}" for j, (name, _) in enumerate(named))
        offdiag = functools.partial(_offdiag_block, basis, table, groups, is_complex)
        blocks.append((label or "all states", basis, functools.cache(offdiag)))
    return tuple(mask for _, mask in named), tuple(steps), tuple(blocks)


def _column_table(dim: int, steps: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The read-only (dim, m) int32 column table ``cols[r, j] = r ^ steps[j]``
    of every sector of a ring, and its row pointers."""
    cols = np.arange(dim, dtype=np.int32)[:, None] ^ np.array(steps, dtype=np.int32)
    indptr = _row_pointers(dim, len(steps))
    cols.flags.writeable = indptr.flags.writeable = False
    return cols, indptr


def _offdiag_block(basis, table, groups, is_complex: bool) -> FixedWidthBlock:
    """One sector's off-diagonal block: the ring's shared column table and
    row pointers from the memoised ``table``, and the sector's values from
    ``_entries``.  An entry whose terms cancel is stored as an explicit
    zero."""
    cols, indptr = table()
    return FixedWidthBlock(cols, _entries(basis, groups, is_complex), indptr)


def _flip_entries(rows: np.ndarray, flip: int, terms, is_complex: bool) -> np.ndarray:
    """H[r, r ^ flip] for each basis state r of ``rows``, from the flip's
    ``terms`` ``((zy, coeff i^{n_Y}), ...)`` added in order; complex when
    ``is_complex``, else the real parts.  Each term adds pref or -pref by
    the parity of its zy bits: the sum pref times ``_sign``'s +-1 gives, with
    two 2^n-sized temporaries fewer per term."""
    cols = rows ^ flip
    out = np.zeros(rows.size, dtype=np.complex128 if is_complex else np.float64)
    for zy, pref in terms:
        pref = pref if is_complex else pref.real
        out += np.where(np.bitwise_count(cols & zy) & 1, -pref, pref) if zy else pref
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
    for sector in spec.operator().sectors:
        basis = sector.basis
        if sector.dtype.kind == "c":
            x = amps[basis]
            out[basis] = _sector_matvec(sector, x, np.empty_like(x))
            continue
        # a real block takes the real and imaginary parts apart, each gathered
        # contiguous, so that its data is never cast to complex and the kernel
        # copies no strided view; a real x costs one product
        re = _sector_matvec(sector, amps.real[basis], np.empty(basis.size))
        imag = amps.imag[basis]
        if imag.any():
            re = re + 1j * _sector_matvec(sector, imag, np.empty(basis.size))
        out[basis] = re
    return StateVector(spec.n_sites, out)


def _sector_matvec(sector: Sector, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out <- H x on one sector, without allocating: out = diag x first, then
    the off-diagonal block adds its part in place (``matvec_add``).  Each row
    is summed in the order of one CSR product over the whole sector block
    with the diagonal first."""
    np.multiply(sector.diag, x, out=out)
    return sector.offdiag.matvec_add(x, out)


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
    h = np.zeros((dim, dim), dtype=op.sectors[0].dtype)
    for sector in op.sectors:
        h[np.ix_(sector.basis, sector.basis)] = sector.offdiag.toarray()
        h[sector.basis, sector.basis] = sector.diag
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


def _flip_matvec(sector: Sector, x: np.ndarray) -> np.ndarray:
    """H x on one sector from its ``flips``, with no table: diag x, then
    each flip's entries (``_flip_entries``) times x at the rows r ^ s_j,
    added in ascending flip order, the order in which ``_sector_matvec``
    sums each row.  The same bits as ``_sector_matvec`` on a real sector;
    a complex product may round differently in the last bit."""
    rows = np.arange(x.size)
    out = sector.diag * x
    is_complex = sector.dtype.kind == "c"
    for step, flip, terms in sector.flips:
        out += _flip_entries(sector.basis, flip, terms, is_complex) * x[rows ^ step]
    return out


def _check_residual(sector: Sector, energy: float, psi: np.ndarray) -> None:
    """Raise :class:`ConvergenceError` unless the normalized pair (``psi``,
    ``energy``) has |H psi - E psi| <= ``RESIDUAL_TOL`` max(1, |E|).  H psi
    is ``_flip_matvec``'s, so a check builds no table of the sector."""
    residual = _flip_matvec(sector, psi)
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
    sector: Sector,
    start: int | np.ndarray,
    deflate: np.ndarray | None = None,
    shift: float | None = None,
):
    """Lowest eigenvalue of the sector's block H, or of H + shift Psi Psi^H for
    ``deflate=Psi``, a normalized vector or a matrix of orthonormal columns
    (``shift`` is then required; see ``_deflation_shift``), by plain
    three-term Lanczos from ``start`` normalized when it is an array, else
    from a random vector drawn from the seed ``start``.

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
    dim, dtype = sector.basis.size, sector.dtype

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
        _sector_matvec(sector, v, w)
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


def _translation_step(spec: SpinChainSpec) -> int:
    """Smallest divisor d of n such that shifting every site by d maps the
    summed Pauli strings and every conserved mask onto themselves, with
    coefficients compared exactly; n when there is none."""
    n = spec.n_sites
    coeffs: dict[tuple[int, int, int], float] = {}
    for term in spec.terms:
        key = _term_masks(term.factors)
        coeffs[key] = coeffs.get(key, 0.0) + term.coeff
    coeffs = {key: c for key, c in coeffs.items() if c != 0.0}
    masks = spec.operator().masks
    for d in range(1, n):
        if n % d or any(_rotate_sites(m, d, n) != m for m in masks):
            continue
        moved = {
            (_rotate_sites(flip, d, n), _rotate_sites(zy, d, n), n_y): c
            for (flip, zy, n_y), c in coeffs.items()
        }
        if moved == coeffs:
            return d
    return n


@dataclass(frozen=True)
class Orbits:
    """The orbits of T^d (T moves every site by one) in one sector, M = n/d
    = ``period``.  ``reps``: the sector rows of the representatives (each
    orbit's smallest basis index), ascending; ``length``: their orbit
    lengths p.  Per sector row s, ``orbit`` is the index into ``reps`` of its
    orbit and ``back`` the j < p with T^(dj) s its representative."""

    period: int
    reps: np.ndarray
    length: np.ndarray
    orbit: np.ndarray
    back: np.ndarray


@functools.lru_cache(maxsize=1)
def _orbits(n: int, groups: tuple, is_complex: bool, d: int) -> tuple[Orbits, ...]:
    """One :class:`Orbits` per sector of ``_off_diagonal(n, groups,
    is_complex)`` under T^d, read-only and built once for consecutive calls
    with these arguments (a field sweep), from one running minimum over the
    translates, so no (M, sector) array of them is made."""
    period = n // d
    out = []
    for _, basis, _ in _off_diagonal(n, groups, is_complex)[2]:
        rep, moved = basis.copy(), basis
        back = np.zeros(basis.size, dtype=np.uint8)  # back < n <= GROUND_SITE_CAP
        count = np.ones(basis.size, dtype=np.int64)  # T^(dj) s = s for M/p of the j
        for j in range(1, period):
            moved = _rotate_sites(moved, d, n)
            lower = moved < rep
            np.copyto(rep, moved, where=lower)
            back[lower] = j
            count += moved == basis
        is_rep = rep == basis
        reps = np.flatnonzero(is_rep)
        orbit = (np.cumsum(is_rep, dtype=np.int32) - 1)[np.searchsorted(basis, rep)]
        orbits = Orbits(period, reps, (period // count)[reps], orbit, back)
        for array in (orbits.reps, orbits.length, orbits.orbit, orbits.back):
            array.flags.writeable = False
        out.append(orbits)
    return tuple(out)


def _fold(cols: np.ndarray, data: np.ndarray, orbits: Orbits, q: int) -> FixedWidthBlock:
    """The off-diagonal part of the momentum-q block Q_q^H H Q_q from the
    (reps, m) columns ``cols`` and entries ``data`` of a sector's stored
    off-diagonal entries in the rows of ``orbits.reps``; with ``data`` their
    -|entries|, that of S = diag(H) - |offdiag(H)|.

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

    Each Z-parity sector's block at each momentum q = 0..M-1 under T^d
    (``_translation_step``; d = n, so M = 1, for a chain that is not exactly
    invariant) is its ``_fold`` plus the diagonal at the representatives, on
    the orbits with q p = 0 (mod M); every block that is not empty is solved
    dense.  Only this solver reads every momentum block of H.

    In a real sector the block at M - q is the complex conjugate of the
    block at q, on the same orbits, so it has the same levels: only q =
    0..M/2 are solved there, and each 0 < q < M - q block's levels are
    counted twice.  A complex sector solves every q.
    """
    _check_dense_cap(spec.n_sites)
    op = spec.operator()
    levels = []
    for sector, orbits in zip(op.sectors, _orbits(*op.offdiag_key, _translation_step(spec))):
        reps = orbits.reps
        diag = np.diag(sector.diag[reps])
        # the stored entries, the very blocks the iterative solvers apply
        off = sector.offdiag
        cols, data = off.cols[reps], off.values[reps]
        period = orbits.period
        real = sector.dtype.kind == "f"
        for q in range(period // 2 + 1 if real else period):
            keep = np.flatnonzero(q * orbits.length % period == 0)
            if keep.size:
                block = _fold(cols, data, orbits, q).toarray() + diag
                solved = _solve_block(block[np.ix_(keep, keep)])
                levels.extend([solved] * (2 if real and 0 < q < period - q else 1))
    return np.sort(np.concatenate(levels))


def lowest_eigenvalues(spec: SpinChainSpec, k: int = 2) -> np.ndarray:
    """The k lowest levels over all Z-parity sectors, ascending, every
    degenerate copy included: the first k of the merged level stream
    ``_levels``, so a sector solves its next level only once its latest
    one is among them."""
    _check_iterative_cap(spec.n_sites)
    # a stream may step down by rounding inside a degenerate level
    return np.sort([level for level, _ in islice(_levels(spec, START_SEED), k)])


def _deflation_shift(spec: SpinChainSpec) -> float:
    """Shift c of every deflated solve H + c Psi Psi^H: c = 2 sum_t |coeff_t|
    + 1 exceeds the spectral width, so the deflated minimum is the next level
    of H and never a found level plus c.  Once Psi spans a whole sector the
    minimum is at least E_min + c, above every level of H."""
    return 2.0 * sum(abs(t.coeff) for t in spec.terms) + 1.0


def _lanczos_levels(sector: Sector, seed: int, shift: float):
    """Yield ``(level, vector)`` for the levels of the sector's block in
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
    below = np.empty((sector.basis.size, 0), dtype=sector.dtype)
    theta, ritz_vector = _lanczos(sector, seed)
    while True:
        vector = _checked_vector(sector, theta, ritz_vector)
        yield theta, vector
        below = np.column_stack([below, vector()])
        theta, ritz_vector = _lanczos(sector, seed + below.shape[1], deflate=below, shift=shift)


def _checked_vector(sector: Sector, energy: float, ritz_vector):
    """Memoised thunk of ``ritz_vector()``, residual-checked against
    ``energy`` (``_check_residual``) when it is first called."""

    @functools.cache
    def vector() -> np.ndarray:
        psi = ritz_vector()
        _check_residual(sector, energy, psi)
        return psi

    return vector


def _levels(spec: SpinChainSpec, seed: int):
    """Every sector's ``_lanczos_levels`` stream, cut at the sector's
    dimension, merged in ascending order of level: a sector solves its next
    level only after its latest level has been read."""
    shift = _deflation_shift(spec)
    return heapq.merge(
        *(islice(_lanczos_levels(sector, seed, shift), sector.basis.size)
          for sector in spec.operator().sectors),
        key=itemgetter(0),
    )


@dataclass(frozen=True)
class SymmetricBlock:
    """One sector's stoquastic form S = diag(H) - |offdiag(H)| on its q = 0
    momentum block under the translation T^d, and the sector's sign gauge.

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

    def at(self, sector: Sector) -> Sector:
        """The block at the fields of ``sector``: its diagonal is H's at the
        representatives."""
        reps = self.orbits.reps
        return Sector(sector.label, sector.basis[reps], sector.diag[reps], self.offdiag.dtype,
                      None, lambda: self.offdiag)

    def expand(self, vector: np.ndarray) -> np.ndarray:
        """G Q u: the sector vector of the block vector u, each orbit's
        entry spread over the orbit with weight 1/sqrt(p), then gauged."""
        return self.gauge * (vector / np.sqrt(self.orbits.length))[self.orbits.orbit]


@functools.lru_cache(maxsize=1)
def _symmetric_blocks(n: int, groups: tuple, is_complex: bool, d: int) -> tuple[SymmetricBlock, ...]:
    """One :class:`SymmetricBlock` per sector of ``_off_diagonal(n, groups,
    is_complex)`` under T^d, read-only and built once per ring as
    ``_orbits`` is.  Each folds the entries of its representatives' rows
    alone, and the gauge reads one flip's entries at a time, so no sector's
    values are built here.  The gauge is sought only when the blocks are
    real and a GF(2) basis of the flips has n - len(masks) members, so that
    the flips connect every sector (``_sign_gauge``)."""
    masks, steps, blocks = _off_diagonal(n, groups, is_complex)
    spanning = _gf2_basis([flip for flip, _ in groups])
    connected = not is_complex and len(spanning) == n - len(masks)
    out = []
    for (_, basis, _), orbits in zip(blocks, _orbits(n, groups, is_complex, d)):
        reps = orbits.reps
        stoquastic = -np.abs(_entries(basis[reps], groups, is_complex))
        folded = _fold(reps[:, None] ^ np.array(steps, dtype=np.intp), stoquastic, orbits, 0)
        gauge = _sign_gauge(basis, steps, groups, spanning) if connected else None
        if gauge is not None:
            gauge.flags.writeable = False
        out.append(SymmetricBlock(orbits, folded, gauge))
    return tuple(out)


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

    Each sector's :class:`SymmetricBlock` (built once per ring,
    ``_symmetric_blocks``) is solved first, by ``_lanczos`` from its image
    of the uniform vector, sqrt(p), which overlaps every nonnegative lowest
    vector of the block; no seed enters.  The sectors are then walked once,
    in ascending order of block level, up to the first that lies
    ``DEGENERACY_TOL`` or more above the lowest level recorded.
    * A sector with a gauge has H = G S G: its block level is its lowest
      level, which is simple, and it records that level and G Q times the
      block's vector.
    * A sector without one has only a lower bound; it records the first
      level of its ``_lanczos_levels`` stream from ``seed``.
    The chosen sector's vector is read through its ``_checked_vector``, so
    it is residual-checked against the whole sector H before any warning.

    Degeneracy rule: when the lowest levels of two or more sectors agree
    within ``DEGENERACY_TOL``, the ground state of the first tied sector in
    the fixed order of ``spec.operator().sectors`` is returned, and a
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
    sectors = op.sectors
    blocks = _symmetric_blocks(*op.offdiag_key, _translation_step(spec))
    solved = [_lanczos(block.at(sector), np.sqrt(block.orbits.length))
              for sector, block in zip(sectors, blocks)]
    lows = np.full(len(sectors), np.inf)
    streams, vectors = {}, {}
    shift = _deflation_shift(spec)
    for i in sorted(range(len(sectors)), key=lambda i: solved[i][0]):
        level, ritz_vector = solved[i]
        if level - lows.min() >= DEGENERACY_TOL:
            break  # this sector and every later one lie above the ground level
        if blocks[i].gauge is None:
            streams[i] = _lanczos_levels(sectors[i], seed, shift)
            lows[i], vectors[i] = next(streams[i])
        else:
            lows[i] = level
            vectors[i] = _checked_vector(
                sectors[i], level,
                lambda expand=blocks[i].expand, ritz_vector=ritz_vector: expand(ritz_vector()))
    tied = np.flatnonzero(lows - lows.min() < DEGENERACY_TOL)
    first = int(tied[0])
    energy = float(lows[first])
    psi = vectors[first]()
    degenerate = None
    if tied.size > 1:
        names = ", ".join(sectors[i].label for i in tied)
        degenerate = (f"across Z-parity sectors {names}; returning the state of "
                      f"sector {sectors[first].label}")
    elif first in streams and next(streams[first])[0] - energy < DEGENERACY_TOL:
        degenerate = f"inside Z-parity sector {sectors[first].label}; returning one minimizer"
    if degenerate:
        warnings.warn(f"ground level degenerate within {DEGENERACY_TOL:g} {degenerate}",
                      DegenerateGroundStateWarning)
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[sectors[first].basis] = psi
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
    return _gap_above_ground(level for level, _ in islice(_levels(spec, seed), GAP_LEVELS))


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
