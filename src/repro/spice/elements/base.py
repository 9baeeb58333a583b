"""Element protocol and the stamping helper.

Residual convention (what :meth:`Element.stamp` must produce):

* For each non-ground node ``n``, ``F[n]`` accumulates the current
  *leaving* the node into the elements (KCL: the converged solution has
  ``F[n] = 0``).
* Voltage-defined elements own one extra unknown (a branch current) and
  one extra residual row (their branch equation, in volts).

``stamp`` receives a :class:`Stamp` context exposing the current iterate,
the global Jacobian/residual and the ambient conditions.  Elements are
bound to their global indices once, at system build time, via
:meth:`Element.bind`.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional, Sequence, Tuple

import numpy as np

#: Exponential arguments beyond this are linearised to keep Newton finite.
#: The cap must sit ABOVE any physically converged junction argument, or
#: the linear continuation manufactures spurious equilibria: at 193 K the
#: library's PNPs run at vbe/(n*VT) ~ 54 because IS(193 K) ~ 1e-28 A, so
#: a conservative 120 covers the whole -80..+145 C range of the paper
#: while exp(120) ~ 1.3e52 stays comfortably inside float64.
_MAX_EXP_ARG = 120.0


def limited_exp(arg: float) -> Tuple[float, float]:
    """Return ``(exp(arg), d/darg exp(arg))`` with linear continuation.

    Beyond the cap the function continues linearly with the slope at the
    boundary; this keeps junction stamps finite for the wild intermediate
    iterates Newton can produce, without affecting converged solutions
    (see the cap's comment for why it must clear every physical bias).

    Overflow audit: ``math.exp`` is only ever evaluated at or below the
    cap (``exp(120) ~ 1.3e52``), so this scalar path can neither raise
    ``OverflowError`` nor produce ``inf``.  The vectorized twin
    (``repro.spice.groups._limited_exp_array``) upholds the same
    invariant by clamping the argument *before* ``np.exp`` — the test
    suite promotes warnings to errors to keep both paths silent on
    arbitrarily extreme trial points.
    """
    if arg <= _MAX_EXP_ARG:
        value = math.exp(arg)
        return value, value
    edge = math.exp(_MAX_EXP_ARG)
    return edge * (1.0 + (arg - _MAX_EXP_ARG)), edge


class DynamicState:
    """Integrator history of one charge-storage element.

    ``charge`` and ``current`` are the values at the last *accepted*
    timepoint; the companion models in the transient stamps difference
    against them.
    """

    __slots__ = ("charge", "current")

    def __init__(self, charge: float = 0.0, current: float = 0.0):
        self.charge = charge
        self.current = current


class TransientContext:
    """Per-step integration context shared by all dynamic elements.

    The discretised branch current of a charge-storage element is

        i_n = alpha * (q_n - q_prev) - beta * i_prev

    with ``alpha = 1/dt, beta = 0`` for backward Euler and
    ``alpha = 2/dt, beta = 1`` for the trapezoidal rule.  ``states`` maps
    element name -> :class:`DynamicState` holding ``q_prev``/``i_prev``;
    the transient engine owns the dict and advances it only when a step
    is accepted, so stamping is free of side effects and Newton may
    re-evaluate at will.

    ``serial`` is a process-unique id of this context instance.
    :class:`~repro.spice.mna.MNASystem` keys its cached linear residual
    on it: a new context means a new timestep (possibly with advanced
    integrator state), while re-stamps under the *same* context — Newton
    iterations and line-search probes of one step — may reuse the cache.
    Object identity (``id``) cannot serve here because ids are recycled.
    """

    __slots__ = ("dt", "method", "alpha", "beta", "states", "serial")

    _serials = itertools.count(1)

    def __init__(self, dt: float, method: str, states: dict):
        if dt <= 0.0:
            raise ValueError(f"non-positive timestep {dt}")
        if method == "be":
            self.alpha = 1.0 / dt
            self.beta = 0.0
        elif method == "trap":
            self.alpha = 2.0 / dt
            self.beta = 1.0
        else:
            raise ValueError(f"unknown integration method {method!r}")
        self.dt = dt
        self.method = method
        self.states = states
        self.serial = next(TransientContext._serials)

    def discretised_current(self, element: "Element", charge: float) -> float:
        """Companion-model branch current for the iterate's charge."""
        state = self.states[element.name]
        return self.alpha * (charge - state.charge) - self.beta * state.current


class Stamp:
    """Assembly context handed to every element's ``stamp``.

    Wraps the residual vector ``F``, Jacobian ``J`` and current iterate
    ``x``; all index arguments are *global* unknown indices, with ``-1``
    meaning ground (contributions to ground are discarded).

    ``time`` is the simulation time in seconds, or ``None`` for DC
    analyses (time-varying sources then report their t=0 value);
    ``transient`` is the :class:`TransientContext` of the step being
    solved, or ``None`` for DC (charge-storage elements then stamp
    nothing — a capacitor is an open circuit at DC).

    ``wants_jacobian`` is False on a stamp that discards every
    :meth:`add_jacobian` call (residual-only assembly).  An element may
    then skip its derivative work and make no ``add_jacobian`` call at
    all, but the residual it adds must stay bit-identical to the one a
    full stamp adds at the same iterate: same expressions, same
    arithmetic order, same ``add_residual`` sequence.
    """

    #: False when every Jacobian entry is discarded (see class docstring).
    wants_jacobian = True

    __slots__ = (
        "x",
        "jacobian",
        "residual",
        "temperature_k",
        "gmin",
        "source_scale",
        "time",
        "transient",
    )

    def __init__(
        self,
        x: np.ndarray,
        jacobian: Optional[np.ndarray],
        residual: np.ndarray,
        temperature_k: float,
        gmin: float,
        source_scale: float,
        time: Optional[float] = None,
        transient: Optional["TransientContext"] = None,
    ):
        self.x = x
        self.jacobian = jacobian
        self.residual = residual
        self.temperature_k = temperature_k
        self.gmin = gmin
        self.source_scale = source_scale
        self.time = time
        self.transient = transient

    def v(self, index: int) -> float:
        """Voltage (or branch current) unknown at ``index``; 0 for ground."""
        if index < 0:
            return 0.0
        return float(self.x[index])

    def add_residual(self, row: int, value: float) -> None:
        if row >= 0:
            self.residual[row] += value

    def add_jacobian(self, row: int, col: int, value: float) -> None:
        if row >= 0 and col >= 0:
            self.jacobian[row, col] += value

    def stamp_conductance(self, a: int, b: int, g: float) -> None:
        """Stamp a linear conductance between unknowns ``a`` and ``b``.

        Adds both the Jacobian entries and the residual contribution
        ``g*(va - vb)`` so the same call serves linear and Newton paths.
        """
        va, vb = self.v(a), self.v(b)
        current = g * (va - vb)
        self.add_residual(a, current)
        self.add_residual(b, -current)
        self.add_jacobian(a, a, g)
        self.add_jacobian(a, b, -g)
        self.add_jacobian(b, a, -g)
        self.add_jacobian(b, b, g)


class ACStamp:
    """Small-signal assembly context handed to :meth:`Element.ac_stamp`.

    The AC subsystem solves ``(G + j w C) x = b`` where ``G`` is the DC
    Jacobian at the operating point (assembled by the existing MNA
    paths, nothing for elements to do here); this context collects the
    two frequency-domain pieces the DC assembly cannot provide:

    * ``C`` entries — ``dQ/dV`` capacitances at the operating point,
      via :meth:`add_capacitance` (global row/col indices, farads; the
      same index convention as Jacobian stamping, ground ``-1``
      discarded).  A branch-row entry is in seconds instead (the
      single-pole op-amp model stamps ``1/w_pole`` there).
    * ``b`` entries — the complex AC excitation of independent sources,
      via :meth:`add_rhs`.  The value must be ``-dF/du * u_ac`` for a
      source value ``u`` (the linearised source term moved to the right
      hand side), which for the standard stamps means ``+ac`` on a
      voltage source's branch row and ``-ac``/``+ac`` on a current
      source's node rows.

    ``x`` is the solved DC operating point; voltage-dependent
    capacitances (junction ``dQ/dV``) evaluate there via :meth:`v`.
    """

    __slots__ = ("x", "temperature_k", "capacitance", "rhs")

    def __init__(self, x: np.ndarray, temperature_k: float,
                 capacitance: np.ndarray, rhs: np.ndarray):
        self.x = x
        self.temperature_k = temperature_k
        self.capacitance = capacitance
        self.rhs = rhs

    def v(self, index: int) -> float:
        """Operating-point unknown at ``index``; 0 for ground."""
        if index < 0:
            return 0.0
        return float(self.x[index])

    def add_capacitance(self, row: int, col: int, value: float) -> None:
        if row >= 0 and col >= 0:
            self.capacitance[row, col] += value

    def add_two_terminal_capacitance(self, a: int, b: int, c: float) -> None:
        """Stamp a capacitance ``c`` between unknowns ``a`` and ``b``
        (the standard symmetric four-entry pattern)."""
        self.add_capacitance(a, a, c)
        self.add_capacitance(a, b, -c)
        self.add_capacitance(b, a, -c)
        self.add_capacitance(b, b, c)

    def add_rhs(self, row: int, value: complex) -> None:
        if row >= 0:
            self.rhs[row] += value


#: Relative step of the finite-difference ``dQ/dV`` fallback.
_FD_CHARGE_STEP = 1e-6


class Element:
    """Base class for all circuit elements.

    Attributes
    ----------
    name:
        Unique element name within a circuit.
    nodes:
        Node names in the element's canonical terminal order.
    branch_count:
        Number of extra unknowns (branch currents) the element owns.
    is_nonlinear:
        Hint for diagnostics; the solver treats everything uniformly.
    temperature_override:
        When set (kelvin), the element evaluates at this temperature
        instead of the ambient one — the hook the self-heating loop and
        per-device thermal studies use.
    """

    branch_count: int = 0
    is_nonlinear: bool = False
    #: True for charge-storage elements that participate in transient
    #: integration (they must implement :meth:`charge_at`).
    is_dynamic: bool = False
    #: Contract for compiled assembly: a linear element's stamp is
    #: *affine in the unknown vector* for fixed ambient conditions
    #: (temperature, gmin, source_scale, time, integration context) — its
    #: Jacobian contribution is constant and its residual is
    #: ``J_el @ x + F_el(0)``.  The compiled path pre-stamps such
    #: elements once per configuration instead of once per Newton
    #: iteration.  The default is ``False`` (always correct, never
    #: cached); element classes opt in explicitly.
    is_linear: bool = False

    @property
    def groupable(self) -> bool:
        """Contract for the vectorized device-group engine
        (:mod:`repro.spice.groups`): True when *this instance's* stamp
        is exactly reproduced by its class's packed group evaluator.
        The default is ``False`` (scalar stamp, always correct); device
        classes with a group evaluator opt in, and may refuse per
        instance (a BJT with an attached substrate transistor stays
        scalar).  Subclasses that override :meth:`stamp` are never
        grouped regardless — the partition checks the exact class.
        """
        return False

    def __init__(self, name: str, nodes: Sequence[str]):
        self.name = name
        self.nodes = tuple(nodes)
        self.temperature_override: Optional[float] = None
        self._node_idx: Tuple[int, ...] = ()
        self._branch_offset: int = -1

    # -- binding -------------------------------------------------------
    def bind(self, node_indices: Sequence[int], branch_offset: int) -> None:
        """Store global unknown indices (called once by the MNA builder)."""
        self._node_idx = tuple(node_indices)
        self._branch_offset = branch_offset

    def branch_index(self, k: int = 0) -> int:
        """Global index of the element's k-th branch unknown."""
        if self.branch_count == 0:
            raise IndexError(f"{self.name} has no branch unknowns")
        return self._branch_offset + k

    def device_temperature(self, stamp: Stamp) -> float:
        """Element temperature: override if set, else ambient."""
        if self.temperature_override is not None:
            return self.temperature_override
        return stamp.temperature_k

    def jacobian_slots(self) -> int:
        """Upper bound on Jacobian entries one :meth:`stamp` call emits.

        :class:`~repro.spice.mna.MNASystem` reserves this many COO
        slots per nonlinear element up front so the per-iteration
        scatter never reallocates.  The default bound — every unknown
        the element can touch (terminals, branch rows, plus one
        gmin-style helper) squared — is safe for any stamp built from
        the element's own indices; classes with exactly known
        footprints override it.
        """
        return (len(self.nodes) + self.branch_count + 1) ** 2

    def capacitance_slots(self) -> int:
        """Upper bound on C-matrix entries :meth:`ac_stamp` emits.

        Mirrors :meth:`jacobian_slots` for
        :meth:`~repro.spice.mna.MNASystem.linearise`: the sum over
        elements sizes the COO buffers the capacitance matrix is built
        from.  The default covers the two-terminal fallback below;
        classes with richer capacitance footprints (BJT junctions) or
        none at all override it.
        """
        return 4 if self.is_dynamic else 0

    # -- behaviour -----------------------------------------------------
    def stamp(self, stamp: Stamp) -> None:
        raise NotImplementedError

    def ac_stamp(self, stamp: "ACStamp") -> None:
        """Small-signal contribution: ``dQ/dV`` capacitances + AC sources.

        The default covers any *two-terminal* charge-storage element by
        central finite differences on :meth:`charge_at` around the
        operating point, using the repo-wide dynamic-element convention
        that the charge current ``dQ/dt`` enters the first terminal and
        leaves the second.  Elements with an analytic ``dQ/dV`` (the
        linear capacitor, junction capacitances) override this; elements
        with no charge storage and no AC excitation inherit the no-op
        branch.
        """
        if not self.is_dynamic:
            return
        if len(self._node_idx) != 2:
            raise NotImplementedError(
                f"{self.name}: the finite-difference ac_stamp fallback only "
                "covers two-terminal elements; override ac_stamp"
            )
        a, b = self._node_idx
        x = stamp.x
        for index in (a, b):
            if index < 0:
                continue
            step = _FD_CHARGE_STEP * max(1.0, abs(float(x[index])))
            probe = x.copy()
            probe[index] += step
            q_plus = self.charge_at(probe)
            probe[index] -= 2.0 * step
            q_minus = self.charge_at(probe)
            dq_dv = (q_plus - q_minus) / (2.0 * step)
            stamp.add_capacitance(a, index, dq_dv)
            stamp.add_capacitance(b, index, -dq_dv)

    def charge_at(self, x: np.ndarray) -> float:
        """Stored charge at the unknown vector ``x`` [C].

        Dynamic elements (``is_dynamic = True``) must override; the
        transient engine calls this to seed and advance the integrator
        state (:class:`DynamicState`) at accepted timepoints.
        """
        raise NotImplementedError(f"{self.name} stores no charge")

    def charge_scale(self) -> float:
        """Charge-to-voltage conversion for LTE normalisation [F].

        ``charge_at(x) / charge_scale()`` must be in volts; the
        transient engine estimates local truncation error on exactly
        this quantity (the SPICE convention: step control watches the
        charge-storage elements, not the stiff algebraic nodes).
        """
        raise NotImplementedError(f"{self.name} stores no charge")

    def power(self, stamp: Stamp) -> float:
        """Dissipated power at the current iterate [W] (0 by default).

        Only elements that dissipate (resistors, devices) or deliver
        (sources, negative) meaningful DC power need to override; the
        self-heating loop sums source-delivered power instead, so this is
        informational.
        """
        return 0.0

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, nodes={self.nodes})"
