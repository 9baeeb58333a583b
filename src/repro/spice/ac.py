"""Frequency-domain small-signal (AC) analysis.

The missing third analysis next to DC (:mod:`repro.spice.solver`) and
transient (:mod:`repro.spice.transient`): linearise the circuit at a
solved operating point and sweep the complex system

    (G + j w C) x = b

over frequency.  The three matrices come from machinery that already
exists:

* ``G`` is the DC Jacobian at the operating point — exactly what
  :meth:`MNASystem.assemble` produces (compiled linear cache plus the
  nonlinear COO scatter), including the gmin regularisation, so the AC
  system is singular precisely when the DC one would be;
* ``C`` is assembled once per operating point from the elements'
  :meth:`~repro.spice.elements.base.Element.ac_stamp` — analytic
  ``dQ/dV`` for linear capacitors, BJT junction capacitances and the
  op-amp macro's single pole, with a finite-difference fallback on
  :meth:`charge_at` for dynamic elements that declare no analytic
  stamp.  Entries are collected as COO triplets (preallocated from
  ``capacitance_slots``, mirroring the compiled assembler) and
  scattered dense below the solver's sparse threshold or built as a
  ``scipy.sparse`` matrix above it;
* ``b`` is the independent sources' AC excitation
  (``ac_mag``/``ac_phase_deg``), the SPICE ``AC mag phase`` convention.

Factorization policy mirrors the DC workspace: one complex LU per
frequency point when ``C`` is non-zero, ONE factorization for the whole
sweep when the circuit is purely resistive (the matrix is then
frequency-independent), sparse ``splu`` above the size threshold, and a
``numpy.linalg.solve`` fallback without scipy.  Counters land in
:data:`repro.spice.stats.STATS` (``ac_solves`` / ``ac_factorizations``
/ ``ac_factor_reuses``) so ``--bench`` reports the reuse rate.

Sweeps run through the Session API: ``Session.run(plans.ACSweep(...))``
solves one warm-chained operating point per temperature and builds one
:class:`ACSystem` at each.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..errors import NetlistError
from ..telemetry import tracer as _tele
from .analysis import ACResult, OperatingPoint, _wrap_point
from .elements.base import ACStamp
from .mna import MNASystem
from .netlist import Circuit
from .solver import SolverOptions, solve_dc_system
from .stats import STATS

try:  # scipy is an optional accelerator, not a hard dependency
    from scipy.linalg import get_lapack_funcs
    from scipy.sparse import coo_matrix as _coo_matrix
    from scipy.sparse import csc_matrix as _csc_matrix
    from scipy.sparse import issparse as _sp_issparse
    from scipy.sparse.linalg import splu as _splu

    _zgetrf, _zgetrs = get_lapack_funcs(
        ("getrf", "getrs"), dtype=np.complex128
    )
    _HAVE_SCIPY = True
except ImportError:  # pragma: no cover - exercised only without scipy
    _HAVE_SCIPY = False

    def _sp_issparse(matrix) -> bool:
        return False


def log_frequencies(
    f_start: float, f_stop: float, points_per_decade: int = 10
) -> np.ndarray:
    """Log-spaced frequency grid [Hz], endpoints included (SPICE ``DEC``)."""
    if f_start <= 0.0 or f_stop <= f_start:
        raise NetlistError(
            f"need 0 < f_start < f_stop, got ({f_start}, {f_stop})"
        )
    if points_per_decade < 1:
        raise NetlistError("points_per_decade must be at least 1")
    decades = np.log10(f_stop / f_start)
    n_points = max(2, int(round(decades * points_per_decade)) + 1)
    return np.logspace(np.log10(f_start), np.log10(f_stop), n_points)


class _COOACStamp(ACStamp):
    """AC stamp backend collecting C entries as COO triplets.

    Preallocated from the elements' ``capacitance_slots`` reservations
    (grown, rarely, if an element under-declared) so the assembly makes
    no per-entry allocations — the same idiom as the compiled DC
    assembler's ``_COOStamp``.
    """

    __slots__ = ("rows", "cols", "vals", "n_entries")

    def __init__(self, x: np.ndarray, temperature_k: float,
                 rhs: np.ndarray, capacity: int):
        super().__init__(x, temperature_k, None, rhs)
        self.rows = np.zeros(max(capacity, 1), dtype=np.intp)
        self.cols = np.zeros(max(capacity, 1), dtype=np.intp)
        self.vals = np.zeros(max(capacity, 1), dtype=float)
        self.n_entries = 0

    def add_capacitance(self, row: int, col: int, value: float) -> None:
        if row >= 0 and col >= 0:
            n = self.n_entries
            if n == len(self.rows):
                self.rows = np.concatenate([self.rows, np.zeros_like(self.rows)])
                self.cols = np.concatenate([self.cols, np.zeros_like(self.cols)])
                self.vals = np.concatenate([self.vals, np.zeros_like(self.vals)])
            self.rows[n] = row
            self.cols[n] = col
            self.vals[n] = value
            self.n_entries = n + 1

    def add_capacitance_block(self, rows, cols, vals) -> None:
        """Bulk append of pre-masked COO triplets (the grouped path)."""
        count = len(vals)
        if count == 0:
            return
        n = self.n_entries
        while n + count > len(self.rows):
            self.rows = np.concatenate([self.rows, np.zeros_like(self.rows)])
            self.cols = np.concatenate([self.cols, np.zeros_like(self.cols)])
            self.vals = np.concatenate([self.vals, np.zeros_like(self.vals)])
        self.rows[n : n + count] = rows
        self.cols[n : n + count] = cols
        self.vals[n : n + count] = vals
        self.n_entries = n + count


class _ACFactorization:
    """One complex factorization of ``G + j w C`` (dense, sparse, or the
    scipy-free fallback), with the frequency key it was taken at."""

    __slots__ = ("kind", "data", "omega_key")

    def __init__(self, kind: str, data, omega_key: float):
        self.kind = kind
        self.data = data
        self.omega_key = omega_key

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        if self.kind == "sparse":
            return self.data.solve(rhs)
        if self.kind == "dense":
            lu, piv = self.data
            solution, info = _zgetrs(lu, piv, rhs)
            if info != 0:
                raise NetlistError("AC back-substitution failed")
            return solution
        return np.linalg.solve(self.data, rhs)  # pragma: no cover - no scipy


class ACSystem:
    """The linearised ``(G, C, b)`` of one circuit at one operating point.

    Build it with :meth:`from_circuit` (solves the DC point itself) or
    directly from a caller-owned :class:`MNASystem` plus a solved
    unknown vector — the path ``Session`` uses so one re-temperatured
    system serves a whole temperature grid.

    Attributes of interest to tests and diagnostics: ``G`` (real DC
    Jacobian at the operating point), ``C`` (real capacitance matrix,
    dense ndarray below the sparse threshold, ``scipy.sparse.csc`` above
    it), ``b`` (complex excitation vector), ``x_op`` (the operating
    point) and ``frequency_flat`` (True when ``C`` has no entries, i.e.
    one factorization serves every frequency).
    """

    def __init__(
        self,
        system: MNASystem,
        x_op: np.ndarray,
        options: Optional[SolverOptions] = None,
        op: Optional[OperatingPoint] = None,
    ):
        options = options or SolverOptions()
        self.system = system
        self.circuit = system.circuit
        self.temperature_k = system.temperature_k
        self.options = options
        self.x_op = np.asarray(x_op, dtype=float)
        if self.x_op.shape != (system.size,):
            raise NetlistError(
                f"operating point has {self.x_op.shape} unknowns, "
                f"system needs {system.size}"
            )
        self.op = op
        size = system.size
        self.G, _ = system.assemble(self.x_op, gmin=options.gmin)
        self._sparse = _HAVE_SCIPY and (
            size >= options.sparse_threshold or _sp_issparse(self.G)
        )

        elements = self.circuit.elements
        capacity = sum(el.capacitance_slots() for el in elements)
        rhs = np.zeros(size, dtype=complex)
        stamp = _COOACStamp(self.x_op, self.temperature_k, rhs, capacity)
        # Grouped fast path: vectorized devices assemble their junction
        # dQ/dV in one pass per group; everything else (and every
        # element when REPRO_VECTORIZED=0) stamps scalar, so the two
        # paths stay comparable term for term.
        grouped_ids = set()
        groups = system._assembler.groups
        if groups:
            x_ext = np.append(self.x_op, 0.0)
            for group in groups:
                rows, cols, vals = group.ac_capacitance(
                    x_ext, self.temperature_k
                )
                stamp.add_capacitance_block(rows, cols, vals)
                grouped_ids.update(id(el) for el in group.devices)
                STATS.group_evals += 1
                STATS.grouped_device_evals += group.n
        for element in elements:
            if id(element) in grouped_ids:
                continue
            element.ac_stamp(stamp)
        self.b = rhs
        n = stamp.n_entries
        if self._sparse:
            self.C = _coo_matrix(
                (stamp.vals[:n], (stamp.rows[:n], stamp.cols[:n])),
                shape=(size, size),
            ).tocsc()
            # Pass an already-CSC G straight through (the sparse
            # assembly mode emits CSC natively).
            if _sp_issparse(self.G) and self.G.format == "csc":
                self._g_sparse = self.G
            else:
                self._g_sparse = _csc_matrix(self.G)
            self.frequency_flat = self.C.nnz == 0
        else:
            self.C = np.zeros((size, size))
            if n:
                np.add.at(
                    self.C, (stamp.rows[:n], stamp.cols[:n]), stamp.vals[:n]
                )
            self.frequency_flat = not np.any(self.C)
        self._factorization: Optional[_ACFactorization] = None

    @classmethod
    def from_circuit(
        cls,
        circuit: Circuit,
        temperature_k: float = 300.15,
        options: Optional[SolverOptions] = None,
        x0: Optional[np.ndarray] = None,
    ) -> "ACSystem":
        """Solve the DC operating point, then linearise there."""
        options = options or SolverOptions()
        system = MNASystem(circuit, temperature_k=temperature_k)
        raw = solve_dc_system(system, options=options, x0=x0)
        return cls(
            system, raw.x, options=options,
            op=_wrap_point(circuit, temperature_k, raw),
        )

    # ------------------------------------------------------------------
    def _factor(self, omega: float) -> _ACFactorization:
        """Factor ``G + j w C``, reusing across frequencies when legal.

        A purely resistive system (``frequency_flat``) keys every
        frequency to the same factorization; otherwise the key is the
        angular frequency itself, so repeated solves at one frequency
        (or a caller probing DC twice) still reuse.
        """
        omega_key = 0.0 if self.frequency_flat else omega
        held = self._factorization
        if held is not None and held.omega_key == omega_key:
            STATS.ac_factor_reuses += 1
            return held
        STATS.ac_factorizations += 1
        if self._sparse:
            matrix = (self._g_sparse + 1j * omega_key * self.C).astype(
                np.complex128
            )
            if matrix.format != "csc":
                matrix = _csc_matrix(matrix)
                STATS.sparse_conversions += 1
            factorization = _ACFactorization(
                "sparse",
                _splu(matrix, permc_spec=self.options.sparse_permc),
                omega_key,
            )
        else:
            matrix = self.G + 1j * omega_key * self.C
            if _HAVE_SCIPY:
                lu, piv, info = _zgetrf(matrix, overwrite_a=True)
                if info != 0:
                    raise NetlistError(
                        f"AC matrix is singular at "
                        f"{omega / (2.0 * np.pi):.4g} Hz "
                        f"for circuit {self.circuit.title!r}"
                    )
                factorization = _ACFactorization("dense", (lu, piv), omega_key)
            else:  # pragma: no cover - exercised only without scipy
                factorization = _ACFactorization("numpy", matrix, omega_key)
        self._factorization = factorization
        return factorization

    def solve(self, frequencies_hz: Sequence[float]) -> ACResult:
        """Sweep the AC system over a frequency grid."""
        freqs = np.asarray(frequencies_hz, dtype=float)
        if freqs.ndim != 1 or len(freqs) == 0:
            raise NetlistError("AC analysis needs a 1-D, non-empty frequency grid")
        if np.any(freqs < 0.0):
            raise NetlistError("AC frequencies must be non-negative")
        trc = _tele.ACTIVE
        sweep = (
            trc.begin("ac_sweep", points=len(freqs)) if trc is not None else None
        )
        detailed = trc is not None and trc.detailed
        reused = 0
        try:
            solution = np.empty((len(freqs), self.system.size), dtype=complex)
            for index, frequency in enumerate(freqs):
                omega = 2.0 * np.pi * float(frequency)
                held = self._factorization
                t0 = trc.clock() if detailed else 0.0
                factorization = self._factor(omega)
                if factorization is held:
                    reused += 1
                solution[index] = factorization.solve(self.b)
                STATS.ac_solves += 1
                if detailed:
                    trc.leaf(
                        "ac_point", t0,
                        frequency_hz=float(frequency),
                        factored=factorization is not held,
                    )
        finally:
            if sweep is not None:
                sweep.attrs["reused_factor"] = reused
                trc.end(sweep)
        op = self.op
        if op is None:
            op = OperatingPoint(
                circuit=self.circuit,
                temperature_k=self.temperature_k,
                x=self.x_op,
                iterations=0,
                residual=float("nan"),
                strategy="external",
            )
        return ACResult(
            circuit=self.circuit,
            temperature_k=self.temperature_k,
            frequencies_hz=freqs,
            x=solution,
            op=op,
        )
