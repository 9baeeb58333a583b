"""Modified nodal analysis: every matrix the engine factors.

The system solves ``F(x) = 0`` with unknowns ``x = [node voltages,
branch currents]``.  Every element contributes directly to the residual
and Jacobian at the current iterate — identical maths for linear and
nonlinear elements.  :class:`MNASystem` builds the Jacobian the DC and
transient Newton loops factor (:meth:`MNASystem.assemble`) and the
small-signal ``(G, C, b)`` the AC analysis factors
(:meth:`MNASystem.linearise`); both kinds go through one LU routine,
:func:`repro.spice.solver.lu`.

Assembly is **compiled**: the elements are partitioned once at build
time.  Elements whose stamp is affine in ``x`` (``Element.is_linear``)
are pre-stamped *once per configuration* into a cached constant matrix
``G_lin`` and offset ``b_lin``; a Newton iteration then assembles
``F = G_lin @ x + b_lin + F_nl(x)`` with a vectorized COO scatter
(``np.add.at`` over preallocated slot arrays) for only the nonlinear
group.  This removes the per-float Python dispatch of the linear
elements — resistors, sources, controlled sources, capacitor
companions — from the hot loop, which profiles show dominates every
sweep and transient in the repo.  The test suite keeps an
element-by-element oracle (``tests/spice/reference_assembly.py``) that
this path must match to 1e-12.

Two further layers ride on the compiled path, and this module alone
picks them, from the circuit's size and device count:

* **vectorized device groups** (:mod:`repro.spice.groups`):
  homogeneous nonlinear devices (all plain BJTs, all diodes) are packed
  into contiguous parameter/index arrays at build time and each Newton
  evaluation computes a whole group's currents and conductances in one
  NumPy pass, removing the remaining per-element Python dispatch from
  the hot loop.  Grouping is *size-adaptive*: a class groups at
  :data:`~repro.spice.groups.GROUP_MIN` (12, the measured
  NumPy-dispatch crossover) or more instances; below that the scalar
  loop is faster and is kept.  Elements that do not group (op-amp
  macros, substrate-attached BJTs, custom classes) keep their scalar
  stamp.  The groups also supply their junction ``dQ/dV`` to ``C``;
* a **sparse assembly mode**: at :data:`SPARSE_MIN_UNKNOWNS` (200) or
  more unknowns every matrix — ``G_lin``, each Jacobian (linear part
  plus the nonlinear COO scatter) and ``C`` — is built as a
  ``scipy.sparse`` CSC matrix, so large netlists never materialise a
  dense ``N x N`` matrix anywhere in the solve.  The one ``_matrix``
  helper sums every triplet list, so ``C`` is CSC exactly when ``G`` is.

``MNASystem(vectorized=, sparse=)`` pins either choice for one system;
the equivalence tests use it to compare the paths.

Residual-only assembly (:meth:`MNASystem.assemble_residual`, what line
searches and LU-reuse probes call) hands the ungrouped nonlinear
elements a :class:`_ResidualOnlyStamp`, whose ``wants_jacobian`` is
False: the scalar BJT, diode and op-amp then compute only their
terminal currents, as a group's ``stamp_residual`` does.  The BJT and
op-amp memoise that currents stage, so a full assembly at the iterate
a probe just evaluated adds only the derivatives.  Either way the
residual is bit-identical to :meth:`MNASystem.assemble`'s.

Cache correctness: the linear part depends only on (temperature,
``gmin``, ``source_scale``, ``time``, and the integration context's
alpha/state), all of which key the cache.  Every static pass fills one
layout of Jacobian slots: the gmin diagonal, then each static element's
triplets in circuit order.  Every plain resistor's conductance comes
from one NumPy expression over its packed values, and only the other
static elements (sources, controlled sources, ``Resistor`` subclasses)
stamp, into their slots; a source-scale or time change re-stamps only
those others into ``b_lin`` (a resistor adds exactly zero at
``x = 0``).  The slots are built on a topology's first static pass and
again when an element stamps a different number of triplets; a new
temperature (:meth:`MNASystem.set_temperature`) or gmin keeps them.
Mutating element *values* (resistance, source dc, gains of linear
controlled sources, the model parameters of a *grouped* nonlinear
device) or ``temperature_override`` on a live system is not tracked —
call :meth:`MNASystem.invalidate` after doing so (it drops the linear
caches and re-packs the layout's resistor values and the device
groups), or build a fresh system (a new
:class:`~repro.spice.session.Session` builds one, which is why mutating
values between one-shot ``Session(circuit).solve_raw()`` calls is
safe).

A ``gmin`` conductance from every node to ground is always present (it
bounds the matrix condition number and is the knob the solver's gmin
stepping turns); ``source_scale`` in [0, 1] scales all independent
sources for source stepping.
"""

from __future__ import annotations

import sys
from itertools import chain, compress
from operator import attrgetter
from typing import Optional, Tuple

import numpy as np
from scipy.sparse import coo_matrix as _coo_matrix

from ..errors import NetlistError
from ..telemetry import tracer as _tele
from .elements.base import ACStamp, DynamicState, Stamp, TransientContext
from .elements.passives import Resistor, resistance_law
from .groups import build_groups
from .netlist import Circuit
from .stats import STATS

#: Unknown count at which assembly goes ``scipy.sparse``.  MNA matrices
#: of netlist-level circuits hold a handful of entries per row, so past a
#: few hundred unknowns ``splu`` beats dense LAPACK LU.
SPARSE_MIN_UNKNOWNS = 200


class _ResidualOnlyStamp(Stamp):
    """Stamp variant that discards Jacobian contributions.

    Used by residual-only assembly (line searches evaluate |F| many
    times per Newton iteration and never look at J).  With
    ``wants_jacobian`` False the scalar nonlinear devices (BJT, diode,
    op-amp) compute only their terminal currents and make no
    ``add_jacobian`` call; for every other element (sources, controlled
    sources, capacitors, custom classes) :meth:`add_jacobian` stays a
    no-op.
    """

    __slots__ = ()
    wants_jacobian = False

    def add_jacobian(self, row: int, col: int, value: float) -> None:
        return None


def _grow(stamp, needed: int) -> None:
    """Double a COO stamp's slot arrays until ``needed`` entries fit."""
    while needed > len(stamp.rows):
        stamp.rows = np.concatenate([stamp.rows, np.zeros_like(stamp.rows)])
        stamp.cols = np.concatenate([stamp.cols, np.zeros_like(stamp.cols)])
        stamp.vals = np.concatenate([stamp.vals, np.zeros_like(stamp.vals)])


def _coo_buffers(capacity: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fresh ``(rows, cols, vals)`` slot arrays for ``capacity`` triplets."""
    capacity = max(capacity, 1)
    return (
        np.zeros(capacity, dtype=np.intp),
        np.zeros(capacity, dtype=np.intp),
        np.zeros(capacity, dtype=float),
    )


class _COOStamp(Stamp):
    """Stamp collecting Jacobian entries as COO triplets.

    Every element stamp of a Jacobian collects through it: the static
    pass's non-resistor elements, the capacitance pattern and the
    per-iteration scatter of the ungrouped nonlinear elements, whose
    triplets are summed into the Jacobian in one vectorized call.  The
    ``(rows, cols, vals)`` slot arrays are sized from the elements'
    ``jacobian_slots`` reservations and grown (rarely) if an element
    under-declared; the nonlinear scatter hands in the same arrays every
    iteration.
    """

    __slots__ = ("rows", "cols", "vals", "n_entries")

    def collect_into(self, buffers) -> None:
        """Collect from the start of the ``(rows, cols, vals)`` arrays."""
        self.rows, self.cols, self.vals = buffers
        self.n_entries = 0

    def add_jacobian(self, row: int, col: int, value: float) -> None:
        if row >= 0 and col >= 0:
            n = self.n_entries
            if n == len(self.rows):
                _grow(self, n + 1)
            self.rows[n] = row
            self.cols[n] = col
            self.vals[n] = value
            self.n_entries = n + 1

    def triplets(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The collected ``(rows, cols, vals)``, in stamping order."""
        n = self.n_entries
        return self.rows[:n], self.cols[:n], self.vals[:n]


class _COOACStamp(ACStamp):
    """AC stamp collecting C entries as COO triplets.

    Preallocated from the elements' ``capacitance_slots`` reservations
    and grown (rarely) if an element under-declared, like
    :class:`_COOStamp`.
    """

    __slots__ = ("rows", "cols", "vals", "n_entries")

    def __init__(self, x: np.ndarray, temperature_k: float,
                 rhs: np.ndarray, capacity: int):
        super().__init__(x, temperature_k, None, rhs)
        self.rows, self.cols, self.vals = _coo_buffers(capacity)
        self.n_entries = 0

    def add_capacitance(self, row: int, col: int, value: float) -> None:
        if row >= 0 and col >= 0:
            n = self.n_entries
            if n == len(self.rows):
                _grow(self, n + 1)
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
        _grow(self, n + count)
        self.rows[n : n + count] = rows
        self.cols[n : n + count] = cols
        self.vals[n : n + count] = vals
        self.n_entries = n + count


#: ``stamp_conductance``'s Jacobian signs at (a,a) (a,b) (b,a) (b,b).
_CONDUCTANCE_SIGNS = np.array([1.0, -1.0, -1.0, 1.0])


def _packed(elements, getter, dtype, width: int) -> np.ndarray:
    """One row per element of the ``width`` values ``getter`` reads."""
    return np.fromiter(
        chain.from_iterable(map(getter, elements)), dtype, width * len(elements)
    ).reshape(-1, width)


class _StaticLayout:
    """The slots of the static linear group's Jacobian triplets.

    ``rows``/``cols``/``vals`` hold the triplets in stamping order: the
    gmin diagonal first, then each static element's entries in circuit
    order, so a matrix summed from them adds every entry in the same
    order as stamping element by element would.  A plain resistor's
    slots come from its two node indices (``stamp_conductance``'s
    ``(a,a) (a,b) (b,a) (b,b)``, ground entries dropped); every other
    element's from the triplets it stamped, counted per element by
    ``other_counts``.  The slots depend only on the topology and those
    counts; :meth:`fill` writes one static pass's values into them.
    The resistors' values are packed snapshots: :meth:`pack` re-reads
    them, and :meth:`MNASystem.invalidate` calls it.
    """

    __slots__ = (
        "rows", "cols", "vals", "n_gmin", "other_counts", "other_slots",
        "res_slots", "res_owner", "res_sign", "resistors", "r0", "tc1",
        "tc2", "tnom", "override_idx", "override_t",
    )

    def __init__(self, n_nodes: int, elements, other_counts):
        is_res = [type(el) is Resistor for el in elements]
        self.resistors = list(compress(elements, is_res))
        nodes = _packed(self.resistors, attrgetter("_node_idx"), np.intp, 2)
        # stamp_conductance's (a,a) (a,b) (b,a) (b,b): rows a a b b,
        # columns a b a b.
        res_rows = nodes.repeat(2, axis=1)
        res_cols = np.concatenate((nodes, nodes), axis=1)
        keep = (res_rows >= 0) & (res_cols >= 0)
        self.res_owner, corner = keep.nonzero()
        self.res_sign = _CONDUCTANCE_SIGNS[corner]
        # Slots per element in circuit order, then each slot's kind.
        is_res = np.array(is_res, dtype=bool)
        counts = np.empty(is_res.size, dtype=np.intp)
        counts[is_res] = keep.sum(axis=1)
        counts[~is_res] = other_counts
        res_slot = is_res.repeat(counts)
        self.n_gmin = n_nodes
        self.res_slots = n_nodes + res_slot.nonzero()[0]
        self.other_slots = n_nodes + (~res_slot).nonzero()[0]
        self.other_counts = other_counts
        size = n_nodes + res_slot.size
        self.rows = np.empty(size, dtype=np.intp)
        self.cols = np.empty(size, dtype=np.intp)
        self.vals = np.empty(size, dtype=float)
        self.rows[:n_nodes] = self.cols[:n_nodes] = np.arange(n_nodes)
        self.rows[self.res_slots] = res_rows[keep]
        self.cols[self.res_slots] = res_cols[keep]
        self.pack()

    def pack(self) -> None:
        """(Re)pack the resistors' values and temperature overrides."""
        self.r0, self.tc1, self.tc2, self.tnom = _packed(
            self.resistors, attrgetter("resistance", "tc1", "tc2", "tnom"),
            float, 4,
        ).T
        self.override_idx = [
            index
            for index, el in enumerate(self.resistors)
            if el.temperature_override is not None
        ]
        self.override_t = [
            self.resistors[index].temperature_override
            for index in self.override_idx
        ]

    def fill(self, stamp: _COOStamp) -> None:
        """Write a static pass's values into the slots.

        ``stamp`` holds the triplets the non-resistor elements stamped
        (in order, as counted by ``other_counts``); the resistors'
        conductances come from one :func:`resistance_law` expression
        over the packed values.  A non-positive law raises
        :meth:`Resistor.resistance_at`'s error for the first such
        resistor in circuit order.
        """
        temperature = stamp.temperature_k
        if self.override_idx:
            temperature = np.full(self.r0.size, temperature, dtype=float)
            temperature[self.override_idx] = self.override_t
        resistance = resistance_law(
            self.r0, self.tc1, self.tc2, self.tnom, temperature
        )
        non_positive = resistance <= 0.0
        if non_positive.any():
            # The first such resistor raises as its own stamp would.
            first = self.resistors[int(np.argmax(non_positive))]
            first.resistance_at(first.device_temperature(stamp))
        self.vals[: self.n_gmin] = stamp.gmin
        self.vals[self.res_slots] = self.res_sign * (1.0 / resistance)[self.res_owner]
        rows, cols, vals = stamp.triplets()
        self.rows[self.other_slots] = rows
        self.cols[self.other_slots] = cols
        self.vals[self.other_slots] = vals


class MNASystem:
    """Assembles F(x), J(x) and the small-signal (G, C, b) of a circuit.

    Cached pieces (all dropped on a temperature change):

    ``G_static``
        Jacobian of the non-dynamic linear elements plus the gmin
        diagonal; keyed by ``gmin``.  Summed from the
        :class:`_StaticLayout`, whose slots outlive a temperature change
        and :meth:`invalidate`.
    ``b_static``
        Residual of the same group at ``x = 0`` (source injections,
        branch-equation targets); keyed by ``(source_scale, time)``.
    ``C_pattern``
        Jacobian of the dynamic linear elements at unit alpha — a
        capacitance pattern; computed once, scaled by the step's alpha.
    ``b_dynamic``
        Companion-model residual offsets (``-alpha*q_prev - beta*i_prev``
        terms); keyed by the integration context's ``serial``.

    Nonlinear elements split again: homogeneous devices go through the
    vectorized groups of :mod:`repro.spice.groups` (one NumPy pass per
    group per iteration), the rest stay on their scalar ``stamp``.  In
    sparse mode (:attr:`sparse_assembly`) every linear cache is a
    ``scipy.sparse`` CSC matrix and :meth:`assemble` returns a CSC
    Jacobian — splu's native format — so nothing ever densifies and
    nothing is format-converted per iteration.
    """

    def __init__(
        self,
        circuit: Circuit,
        temperature_k: float = 300.15,
        vectorized: Optional[bool] = None,
        sparse: Optional[bool] = None,
    ):
        """Build the system and bind every element's global indices.

        ``vectorized``/``sparse`` override the size rules
        (:data:`~repro.spice.groups.GROUP_MIN` devices per group,
        :data:`SPARSE_MIN_UNKNOWNS` unknowns) for this system — hooks
        that serve the tests, which pin one path per instance.
        """
        circuit.validate()
        self.circuit = circuit
        self.temperature_k = temperature_k
        self.n_nodes = len(circuit.nodes)
        offset = self.n_nodes
        elements = circuit.elements
        for element in elements:
            indices = [circuit.node_index(node) for node in element.nodes]
            element.bind(indices, offset)
            offset += element.branch_count
        self.size = offset
        if self.size == 0:
            raise NetlistError("circuit has no unknowns")
        self.linear_static = [
            el for el in elements if el.is_linear and not el.is_dynamic
        ]
        #: Static elements that stamp on every static pass: everything
        #: but plain resistors (sources, controlled sources, Resistor
        #: subclasses).
        self.static_scalar = [
            el for el in self.linear_static if type(el) is not Resistor
        ]
        self._static_capacity = sum(el.jacobian_slots() for el in self.static_scalar)
        self.linear_dynamic = [el for el in elements if el.is_linear and el.is_dynamic]
        self.nonlinear = [el for el in elements if not el.is_linear]
        # Smallest class that groups: None reads GROUP_MIN at every
        # (re)pack; True groups every class regardless of size, False
        # none (the equivalence tests pin one path this way).
        self._group_min = (
            None if vectorized is None else 1 if vectorized else sys.maxsize
        )
        self._build_groups()
        #: True when every matrix is built ``scipy.sparse`` (CSC).
        self.sparse_assembly = (
            self.size >= SPARSE_MIN_UNKNOWNS if sparse is None else bool(sparse)
        )
        self._coo = _coo_buffers(
            sum(el.jacobian_slots() for el in self.scalar_nonlinear)
        )
        #: Extended-iterate buffer [x, 0.0] the groups gather from (the
        #: trailing zero is the ground slot).
        self._x_ext = np.zeros(self.size + 1)
        self._layout: Optional[_StaticLayout] = None
        self._g_static: Optional[np.ndarray] = None
        self._g_static_key: Optional[float] = None
        self._b_static: Optional[np.ndarray] = None
        self._b_static_key: Optional[Tuple[float, Optional[float]]] = None
        self._c_pattern: Optional[np.ndarray] = None
        self._g_lin: Optional[np.ndarray] = None
        self._g_lin_key: Optional[Tuple[float, float]] = None
        self._b_dyn: Optional[np.ndarray] = None
        self._b_dyn_key: Optional[int] = None
        self._b_comb: Optional[np.ndarray] = None
        self._b_comb_key: Optional[Tuple] = None

    @property
    def vectorized(self) -> bool:
        """True when at least one vectorized device group is active."""
        return bool(self.groups)

    def _build_groups(self) -> None:
        """(Re)pack the vectorized device groups from the live elements.

        Called at build time and again from :meth:`invalidate`: the
        packed parameter arrays are snapshots, so mutating a grouped
        device's model values (or ``temperature_override``) on a live
        system follows the same invalidate contract as mutating a
        linear element's value.
        """
        self.groups, self.scalar_nonlinear = build_groups(
            self.nonlinear, self.size, min_size=self._group_min
        )

    def set_temperature(self, temperature_k: float) -> None:
        """Re-temperature the system in place, keeping the topology.

        Sweeps call this instead of rebuilding an :class:`MNASystem` per
        point: bindings, slot reservations and the Newton workspace all
        survive, so LU reuse and the compiled caches span sweep points.
        Only the linear caches are dropped (resistor tempcos and
        temperature-law sources make ``G_lin``/``b_lin``
        temperature-dependent): the next static pass refills the kept
        static layout, stamping only the non-resistor elements.  The
        packed device groups are kept — their laws key on the ambient
        temperature themselves, as do the element-level memos.
        """
        if temperature_k == self.temperature_k:
            return
        self.temperature_k = temperature_k
        self._drop_linear_caches()

    def _drop_linear_caches(self) -> None:
        """Drop every cached linear part, keeping the static layout and
        the packed device groups."""
        self._g_static_key = None
        self._b_static_key = None
        self._c_pattern = None
        self._g_lin_key = None
        self._b_dyn_key = None
        self._b_comb_key = None

    def invalidate(self) -> None:
        """Invalidate cached state after mutating element values.

        Needed when a *linear* element's value (resistance, source dc,
        controlled-source gain), a *grouped* nonlinear device's model
        values, or any element's ``temperature_override`` is changed on
        a live system: the linear caches, the static layout's packed
        resistor values and the groups' packed parameter arrays are all
        snapshots.  This call drops the linear caches and re-packs the
        other two now; the layout's slots depend only on the topology
        and survive.  Ungrouped nonlinear elements and the non-resistor
        static elements stamp every pass regardless.
        """
        self._drop_linear_caches()
        if self._layout is not None:
            self._layout.pack()
        self._build_groups()

    def invalidate_sources(self) -> None:
        """Invalidate ``b_static`` only, after changing an independent
        source's ``dc``.

        A source value enters the residual alone (a voltage source's
        branch target, a current source's injections), so the Jacobian
        caches, the packed resistor values and the device groups all
        stay; the next pass re-stamps just the residual of the static
        group.
        """
        self._b_static_key = None
        self._b_comb_key = None

    # -- linear-group passes -------------------------------------------
    def _stamp(self, cls, x, residual, gmin, source_scale, time, transient):
        return cls(
            x=x,
            jacobian=None,
            residual=residual,
            temperature_k=self.temperature_k,
            gmin=gmin,
            source_scale=source_scale,
            time=time,
            transient=transient,
        )

    def _matrix(self, rows, cols, vals):
        """Sum COO triplets, in order, into a CSC (sparse mode) or dense
        matrix.

        CSC is ``splu``'s native format: emitting it here keeps the
        whole sparse pipeline — cached linear parts, per-iteration
        deltas, ``C``, factorization — in one format, so the solver never
        pays a per-factorization conversion (``STATS.sparse_conversions``).
        The dense sum (``np.add.at``) accumulates in triplet order, as
        stamping element by element into the matrix would.
        """
        size = self.size
        if self.sparse_assembly:
            return _coo_matrix((vals, (rows, cols)), shape=(size, size)).tocsc()
        matrix = np.zeros((size, size))
        np.add.at(matrix, (rows, cols), vals)
        return matrix

    def _extended(self, x: np.ndarray) -> np.ndarray:
        """``x`` in the groups' gather buffer ``[x, 0.0]``."""
        self._x_ext[:-1] = x
        return self._x_ext

    def _static_pass(self, gmin: float, source_scale: float,
                     time: Optional[float]) -> None:
        """Full (J, F) stamp of the static linear group at ``x = 0``.

        The non-resistor elements stamp (residual included) and the
        plain resistors' conductances come from the layout's packed
        values (a resistor adds exactly zero to the residual at
        ``x = 0``).  The layout's slots are built on the first pass and
        again whenever an element stamps a different number of
        triplets.
        """
        residual = np.zeros(self.size)
        stamp = self._stamp(
            _COOStamp, np.zeros(self.size), residual, gmin, source_scale,
            time, None,
        )
        stamp.collect_into(_coo_buffers(self._static_capacity))
        counts = []
        for el in self.static_scalar:
            start = stamp.n_entries
            el.stamp(stamp)
            counts.append(stamp.n_entries - start)
        STATS.linear_stamps += len(self.static_scalar)
        layout = self._layout
        if layout is None or layout.other_counts != counts:
            layout = self._layout = _StaticLayout(
                self.n_nodes, self.linear_static, counts
            )
        layout.fill(stamp)
        self._g_static = self._matrix(layout.rows, layout.cols, layout.vals)
        self._g_static_key = gmin
        self._b_static = residual
        self._b_static_key = (source_scale, time)
        # Derived caches are built from G_static: drop them.
        self._g_lin_key = None
        self._b_comb_key = None

    def _static_residual_pass(self, gmin: float, source_scale: float,
                              time: Optional[float]) -> None:
        """Refresh only ``b_static`` (source values moved, J unchanged).

        A plain resistor adds exactly zero at ``x = 0``, so only the
        non-resistor elements stamp.
        """
        residual = np.zeros(self.size)
        stamp = self._stamp(
            _ResidualOnlyStamp, np.zeros(self.size), residual, gmin,
            source_scale, time, None,
        )
        for el in self.static_scalar:
            el.stamp(stamp)
        STATS.linear_stamps += len(self.static_scalar)
        self._b_static = residual
        self._b_static_key = (source_scale, time)
        self._b_comb_key = None

    def _capacitance_pattern(self) -> np.ndarray:
        """Jacobian of the dynamic linear group at alpha=1 (computed once)."""
        if self._c_pattern is None:
            states = {el.name: DynamicState() for el in self.linear_dynamic}
            unit_ctx = TransientContext(dt=1.0, method="be", states=states)
            stamp = self._stamp(
                _COOStamp, np.zeros(self.size), np.zeros(self.size), 0.0,
                1.0, None, unit_ctx,
            )
            stamp.collect_into(_coo_buffers(
                sum(el.jacobian_slots() for el in self.linear_dynamic)
            ))
            for el in self.linear_dynamic:
                el.stamp(stamp)
            self._c_pattern = self._matrix(*stamp.triplets())
        return self._c_pattern

    def _dynamic_residual(self, gmin: float, source_scale: float,
                          time: Optional[float],
                          transient: TransientContext) -> np.ndarray:
        """Companion residual of the dynamic group at ``x = 0``."""
        residual = np.zeros(self.size)
        stamp = self._stamp(
            _ResidualOnlyStamp, np.zeros(self.size), residual,
            gmin, source_scale, time, transient,
        )
        for el in self.linear_dynamic:
            el.stamp(stamp)
        return residual

    def _linear_parts(
        self,
        gmin: float,
        source_scale: float,
        time: Optional[float],
        transient: Optional[TransientContext],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Return the cached ``(G_lin, b_lin)`` for this configuration."""
        if self._g_static_key != gmin:
            self._static_pass(gmin, source_scale, time)
        elif self._b_static_key != (source_scale, time):
            self._static_residual_pass(gmin, source_scale, time)
        if transient is None:
            return self._g_static, self._b_static
        g_key = (gmin, transient.alpha)
        if self._g_lin_key != g_key:
            self._g_lin = self._g_static + transient.alpha * self._capacitance_pattern()
            self._g_lin_key = g_key
        if self._b_dyn_key != transient.serial:
            self._b_dyn = self._dynamic_residual(gmin, source_scale, time, transient)
            self._b_dyn_key = transient.serial
            self._b_comb_key = None
        b_key = (self._b_static_key, transient.serial)
        if self._b_comb_key != b_key:
            self._b_comb = self._b_static + self._b_dyn
            self._b_comb_key = b_key
        return self._g_lin, self._b_comb

    # -- public assembly -----------------------------------------------
    def _scalar_nonlinear_coo(self, x, residual, gmin, source_scale, time,
                              transient) -> _COOStamp:
        """Stamp the ungrouped nonlinear elements into the COO slots."""
        stamp = self._stamp(
            _COOStamp, x, residual, gmin, source_scale, time, transient
        )
        stamp.collect_into(self._coo)
        for el in self.scalar_nonlinear:
            el.stamp(stamp)
        # Keep (possibly grown) slot arrays for the next iteration.
        self._coo = stamp.rows, stamp.cols, stamp.vals
        return stamp

    def assemble(
        self,
        x: np.ndarray,
        gmin: float = 1e-12,
        source_scale: float = 1.0,
        time: Optional[float] = None,
        transient: Optional[TransientContext] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(J, F)`` at the iterate ``x``.

        ``time`` (seconds) selects the instantaneous value of waveform
        sources (``None`` = DC, i.e. their t=0 value); ``transient`` is
        the integration context of the timestep being solved (``None``
        = DC, i.e. charge-storage elements stamp nothing).  In sparse
        assembly mode (:attr:`sparse_assembly`) ``J`` is a
        ``scipy.sparse`` CSC matrix; :func:`repro.spice.solver.lu`
        factors either kind.
        """
        STATS.compiled_assemblies += 1
        trc = _tele.ACTIVE
        if trc is None or not trc.detailed:
            return self._assemble(x, gmin, source_scale, time, transient)
        t0 = trc.clock()
        out = self._assemble(x, gmin, source_scale, time, transient)
        trc.leaf("assembly", t0)
        return out

    def _assemble(self, x, gmin, source_scale, time, transient):
        g_lin, b_lin = self._linear_parts(gmin, source_scale, time, transient)
        residual = g_lin @ x + b_lin
        triplets = []
        if self.groups:
            x_ext = self._extended(x)
            for group in self.groups:
                STATS.group_evals += 1
                STATS.grouped_device_evals += group.n
                triplets.append(
                    group.stamp_full(x_ext, residual, gmin, self.temperature_k)
                )
        stamp = self._scalar_nonlinear_coo(
            x, residual, gmin, source_scale, time, transient
        )
        if stamp.n_entries:
            triplets.append(stamp.triplets())
        if self.sparse_assembly:
            STATS.sparse_assemblies += 1
            if not triplets:
                return g_lin.copy(), residual
            rows, cols, vals = (np.concatenate(part) for part in zip(*triplets))
            delta = _coo_matrix((vals, (rows, cols)), shape=(self.size, self.size))
            # CSC + CSC stays CSC all the way into splu.
            return (g_lin + delta.tocsc()), residual
        jacobian = g_lin.copy()
        for rows, cols, vals in triplets:
            np.add.at(jacobian, (rows, cols), vals)
        return jacobian, residual

    def assemble_residual(
        self,
        x: np.ndarray,
        gmin: float = 1e-12,
        source_scale: float = 1.0,
        time: Optional[float] = None,
        transient: Optional[TransientContext] = None,
    ) -> np.ndarray:
        """Return ``F(x)`` only — no Jacobian allocation or stamping.

        The Newton line search evaluates the residual norm at several
        trial damping factors per iteration; skipping the ``N x N``
        Jacobian there roughly halves the cost of the hottest loop of
        the transient engine — and the compiled path further reduces the
        linear group to one cached matrix-vector product.
        """
        STATS.residual_evaluations += 1
        g_lin, b_lin = self._linear_parts(gmin, source_scale, time, transient)
        residual = g_lin @ x + b_lin
        if self.groups:
            x_ext = self._extended(x)
            for group in self.groups:
                STATS.group_evals += 1
                STATS.grouped_device_evals += group.n
                group.stamp_residual(x_ext, residual, gmin, self.temperature_k)
        if self.scalar_nonlinear:
            stamp = self._stamp(
                _ResidualOnlyStamp, x, residual, gmin, source_scale, time,
                transient,
            )
            for el in self.scalar_nonlinear:
                el.stamp(stamp)
        return residual

    def linearise(
        self, x: np.ndarray, gmin: float = 1e-12
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return the small-signal ``(G, C, b)`` at the operating point ``x``.

        ``G`` is :meth:`assemble`'s DC Jacobian there (gmin included, so
        the AC system is singular precisely when the DC one is).  ``C``
        sums every element's ``dQ/dV``: each device group's
        ``ac_capacitance`` first, then every other element's
        ``ac_stamp`` in circuit order; it is built in ``G``'s format.
        ``b`` is the independent sources' complex AC excitation.
        """
        G, _ = self.assemble(x, gmin=gmin)
        elements = self.circuit.elements
        b = np.zeros(self.size, dtype=complex)
        stamp = _COOACStamp(
            x, self.temperature_k, b,
            sum(el.capacitance_slots() for el in elements),
        )
        grouped = set()
        if self.groups:
            x_ext = self._extended(x)
            for group in self.groups:
                stamp.add_capacitance_block(
                    *group.ac_capacitance(x_ext, self.temperature_k)
                )
                grouped.update(id(el) for el in group.devices)
                STATS.group_evals += 1
                STATS.grouped_device_evals += group.n
        for element in elements:
            if id(element) not in grouped:
                element.ac_stamp(stamp)
        n = stamp.n_entries
        return G, self._matrix(stamp.rows[:n], stamp.cols[:n], stamp.vals[:n]), b

    def kcl_residual(self, x: np.ndarray, gmin: float = 1e-12) -> float:
        """Infinity norm of the node-current residuals at ``x`` [A]."""
        residual = self.assemble_residual(x, gmin=gmin)
        return float(np.max(np.abs(residual[: self.n_nodes]))) if self.n_nodes else 0.0

    def total_source_power(self, x: np.ndarray, gmin: float = 1e-12) -> float:
        """Total power delivered by independent sources at ``x`` [W].

        At a DC operating point this equals the total dissipated power —
        the quantity the self-heating loop feeds into the thermal model.
        Uses the residual-only stamp context (source ``power`` reads the
        iterate, never the Jacobian), so no ``N x N`` matrix is built.
        """
        stamp = _ResidualOnlyStamp(
            x=x,
            jacobian=None,
            residual=np.zeros(self.size),
            temperature_k=self.temperature_k,
            gmin=gmin,
            source_scale=1.0,
        )
        from .elements.sources import CurrentSource, VoltageSource

        total = 0.0
        for element in self.circuit.elements:
            if isinstance(element, (VoltageSource, CurrentSource)):
                total += element.power(stamp)
        return total
