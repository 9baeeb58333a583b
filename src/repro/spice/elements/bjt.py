"""Gummel-Poon BJT element for the MNA solver.

The element evaluates the *junction-level* device (transport current with
base-charge normalisation, ideal + leakage base current) directly from a
:class:`repro.bjt.BJTParameters` card.  Series resistances ``RB/RE/RC``
are not folded into the element's equations; use :func:`add_bjt` to
expand them into explicit resistors on internal nodes, exactly as SPICE
does internally.

Polarity: NPN and PNP are both supported; internally the device works in
forward-junction convention and the sign ``s`` (+1 NPN, -1 PNP) maps
node voltages and terminal currents.

The optional parasitic substrate transistor (paper sections 4/6) is
attached with :meth:`SpiceBJT.attach_substrate`; its leakage is a
temperature-law current diverted from the collector node to the substrate
node, gated by a saturation-drive factor (fixed, or derived from the
collector-emitter headroom at the current iterate).
"""

from __future__ import annotations

import math
from typing import Optional

from ...bjt.model import GummelPoonModel
from ...bjt.parameters import BJTParameters
from ...bjt.substrate import SubstratePNP
from ...constants import thermal_voltage
from ...errors import NetlistError
from .base import Element, Stamp, limited_exp
from .passives import Resistor


class SpiceBJT(Element):
    """Three-terminal Gummel-Poon transistor (collector, base, emitter).

    Overflow audit (the vectorized group evaluator must replicate this
    stamp warning-free at arbitrary trial points): every exponential in
    the junction math goes through :func:`limited_exp` — never evaluated
    past the cap — the base-charge denominator is clamped at 0.05, the
    knee ``sqrt`` argument at 0, and the depletion law is linearised
    past FC*VJ, so no operand of this model can overflow or go NaN for
    any finite iterate.
    """

    is_nonlinear = True

    @property
    def groupable(self) -> bool:
        """Grouped by :class:`repro.spice.groups.BJTGroup` unless a
        substrate transistor is attached (its saturation-drive law reads
        the iterate in a way the packed arrays do not model)."""
        return self.substrate is None

    def jacobian_slots(self) -> int:
        # The 3x3 terminal block (gmin junction terms folded in).
        return 9

    def __init__(self, name: str, collector: str, base: str, emitter: str,
                 params: BJTParameters):
        super().__init__(name, (collector, base, emitter))
        self.params = params
        self.sign = 1.0 if params.polarity == "npn" else -1.0
        self.substrate: Optional[SubstratePNP] = None
        self.substrate_node: str = "0"
        self.substrate_drive: Optional[float] = None
        #: Memo of the temperature-law evaluations (IS, ISE, BF, n*VT
        #: products) at the last requested temperature.  The stamp is
        #: re-evaluated hundreds of times per solve at a single device
        #: temperature, and each law costs a pow+exp.
        self._tcache: Optional[tuple] = None
        #: Memo of the last (vbe, vbc, t) currents stage
        #: (:meth:`_currents`).  The solver evaluates the residual at an
        #: accepted candidate and then assembles the Jacobian at that
        #: same iterate — back to back — so the full stamp there adds
        #: only the derivative tail.
        self._op_cache: Optional[tuple] = None

    # ------------------------------------------------------------------
    def attach_substrate(
        self,
        substrate: SubstratePNP,
        substrate_node: str = "0",
        drive: Optional[float] = None,
    ) -> "SpiceBJT":
        """Attach the parasitic substrate transistor.

        ``drive`` fixes the saturation-drive factor in [0, 1]; ``None``
        derives it from the collector-emitter headroom at each iterate.
        Must be called before the circuit is assembled (the substrate
        node has to be registered).
        """
        if drive is not None and not 0.0 <= drive <= 1.0:
            raise NetlistError(f"{self.name}: substrate drive must be in [0, 1]")
        self.substrate = substrate
        self.substrate_node = substrate_node
        self.substrate_drive = drive
        self.nodes = (self.nodes[0], self.nodes[1], self.nodes[2], substrate_node)
        return self

    # ------------------------------------------------------------------
    def _laws_at(self, t: float) -> tuple:
        """Memoised temperature laws ``(is, ise, bf, nf*vt, nr*vt, ne*vt)``
        (the card's SPICE laws, :class:`~repro.bjt.model.GummelPoonModel`)."""
        cache = self._tcache
        if cache is not None and cache[0] == t:
            return cache
        p = self.params
        laws = GummelPoonModel(p)
        vt = thermal_voltage(t)
        cache = (
            t,
            laws.is_at(t),
            laws.ise_at(t),
            laws.bf_at(t),
            p.nf * vt,
            p.nr * vt,
            p.ne * vt,
        )
        self._tcache = cache
        return cache

    def _currents(self, vbe: float, vbc: float, t: float):
        """Junction-convention ``(ic, ib, core)`` at temperature ``t``.

        The base-charge denominator ``1 - vbe/VAR - vbc/VAF`` is clamped
        at 0.05 to keep intermediate Newton iterates finite; converged
        operating points sit far from the clamp.  ``core`` carries every
        intermediate the derivative completion (:meth:`_derivatives`)
        needs, so a full stamp at the iterate a residual-only stamp just
        evaluated pays only the derivative tail — the scalar mirror of
        ``BJTGroup._currents``/``_derivatives``.
        """
        key = (vbe, vbc, t)
        cached = self._op_cache
        if cached is not None and cached[0] == key:
            return cached[1]
        p = self.params
        laws = self._laws_at(t)
        _, is_t, ise_t, bf_t, nf_vt, nr_vt, ne_vt = laws

        ef, def_ = limited_exp(vbe / nf_vt)
        er, der = limited_exp(vbc / nr_vt)
        i_f = is_t * (ef - 1.0)
        i_r = is_t * (er - 1.0)

        # Base charge qb = q1 * (1 + sqrt(1 + 4 q2)) / 2
        inv_var = 0.0 if math.isinf(p.var) else 1.0 / p.var
        inv_vaf = 0.0 if math.isinf(p.vaf) else 1.0 / p.vaf
        d = 1.0 - vbe * inv_var - vbc * inv_vaf
        clamped = d < 0.05
        if clamped:
            d = 0.05
        q1 = 1.0 / d
        q2 = 0.0 if math.isinf(p.ikf) else i_f / p.ikf
        root = math.sqrt(1.0 + 4.0 * max(q2, 0.0))
        h = 0.5 * (1.0 + root)
        qb = q1 * h
        icc = (i_f - i_r) / qb

        ele, dele = limited_exp(vbe / ne_vt)

        ic = icc - i_r / p.br
        ib = i_f / bf_t + ise_t * (ele - 1.0) + i_r / p.br
        core = (laws, def_, der, dele, inv_var, inv_vaf, clamped, q1, root, h,
                qb, icc)
        result = (ic, ib, core)
        self._op_cache = (key, result)
        return result

    def _derivatives(self, core):
        """``(dic_dvbe, dic_dvbc, dib_dvbe, dib_dvbc)`` from a
        :meth:`_currents` core."""
        p = self.params
        laws, def_, der, dele, inv_var, inv_vaf, clamped, q1, root, h, qb, icc = core
        _, is_t, ise_t, bf_t, nf_vt, nr_vt, ne_vt = laws
        gif = is_t * def_ / nf_vt
        gir = is_t * der / nr_vt
        dq1_dvbe = 0.0 if clamped else q1 * q1 * inv_var
        dq1_dvbc = 0.0 if clamped else q1 * q1 * inv_vaf
        dq2_dvbe = 0.0 if math.isinf(p.ikf) else gif / p.ikf
        dh_dq2 = 1.0 / root
        dqb_dvbe = dq1_dvbe * h + q1 * dh_dq2 * dq2_dvbe
        dqb_dvbc = dq1_dvbc * h
        dicc_dvbe = gif / qb - icc * dqb_dvbe / qb
        dicc_dvbc = -gir / qb - icc * dqb_dvbc / qb
        dic_dvbc = dicc_dvbc - gir / p.br
        dib_dvbe = gif / bf_t + ise_t * dele / ne_vt
        dib_dvbc = gir / p.br
        return dicc_dvbe, dic_dvbc, dib_dvbe, dib_dvbc

    def currents_and_derivatives(self, vbe: float, vbc: float, t: float):
        """Junction-convention ``(ic, ib, dic_dvbe, dic_dvbc, dib_dvbe,
        dib_dvbc)`` at temperature ``t`` (see :meth:`_currents`)."""
        ic, ib, core = self._currents(vbe, vbc, t)
        return (ic, ib) + self._derivatives(core)

    # ------------------------------------------------------------------
    def stamp(self, stamp: Stamp) -> None:
        has_substrate = self.substrate is not None
        if has_substrate:
            c, b, e, sub = self._node_idx
        else:
            c, b, e = self._node_idx
            sub = -1
        s = self.sign
        t = self.device_temperature(stamp)
        x = stamp.x
        vc = float(x[c]) if c >= 0 else 0.0
        vb = float(x[b]) if b >= 0 else 0.0
        ve = float(x[e]) if e >= 0 else 0.0
        vbe = s * (vb - ve)
        vbc = s * (vb - vc)
        ic, ib, core = self._currents(vbe, vbc, t)

        # Terminal currents leaving each node into the device, with the
        # gmin junction conductances (B-E and B-C, for Jacobian
        # regularity at zero/reverse bias) folded into the same adds.
        gmin = stamp.gmin
        i_be = gmin * (vb - ve)
        i_bc = gmin * (vb - vc)
        i_c = s * ic
        i_b = s * ib
        stamp.add_residual(c, i_c - i_bc)
        stamp.add_residual(b, i_b + i_be + i_bc)
        stamp.add_residual(e, -(i_c + i_b) - i_be)

        if stamp.wants_jacobian:
            dic_dvbe, dic_dvbc, dib_dvbe, dib_dvbc = self._derivatives(core)
            # Chain rule: d vbe/dVb = s etc.; the s*s products cancel.
            stamp.add_jacobian(c, b, dic_dvbe + dic_dvbc - gmin)
            stamp.add_jacobian(c, e, -dic_dvbe)
            stamp.add_jacobian(c, c, -dic_dvbc + gmin)
            stamp.add_jacobian(b, b, dib_dvbe + dib_dvbc + gmin + gmin)
            stamp.add_jacobian(b, e, -dib_dvbe - gmin)
            stamp.add_jacobian(b, c, -dib_dvbc - gmin)
            stamp.add_jacobian(
                e, b, -(dic_dvbe + dic_dvbc) - (dib_dvbe + dib_dvbc) - gmin
            )
            stamp.add_jacobian(e, e, dic_dvbe + dib_dvbe + gmin)
            stamp.add_jacobian(e, c, dic_dvbc + dib_dvbc)

        if has_substrate:
            if self.substrate_drive is not None:
                drive = self.substrate_drive
            else:
                drive = self.substrate.saturation_drive(abs(vc - ve))
            if drive > 0.0:
                leak = self.substrate.leakage_current(t) * drive
                # Leakage is diverted from the collector node into the
                # substrate.  Its voltage dependence (through the drive
                # ramp) is deliberately left out of the Jacobian: the
                # term is tiny and a lagged Jacobian keeps Newton simple.
                stamp.add_residual(c, leak)
                stamp.add_residual(sub, -leak)

    # ------------------------------------------------------------------
    def capacitance_slots(self) -> int:
        # Two symmetric two-terminal blocks (B-E and B-C junctions).
        return 8

    @staticmethod
    def _depletion_capacitance(cj0: float, vj: float, m: float, v: float) -> float:
        """SPICE depletion law ``cj0 / (1 - v/vj)^m`` with the standard
        FC = 0.5 linearisation in forward bias (the raw law diverges at
        ``v = vj``; converged junctions routinely sit past FC*vj)."""
        fc = 0.5
        if v < fc * vj:
            return cj0 / (1.0 - v / vj) ** m
        # Linear continuation: C(fc*vj) + C'(fc*vj) * (v - fc*vj).
        edge = cj0 / (1.0 - fc) ** m
        slope = edge * m / (vj * (1.0 - fc))
        return edge + slope * (v - fc * vj)

    def junction_capacitances(self, vbe: float, vbc: float, t: float):
        """Small-signal ``(C_be, C_bc)`` at a junction-convention bias [F].

        ``C_be`` is depletion plus diffusion (``tf * gm`` with the
        transport transconductance at the operating point); ``C_bc`` is
        depletion only (reverse transit time is not modelled).
        """
        p = self.params
        c_be = c_bc = 0.0
        if p.cje > 0.0:
            c_be += self._depletion_capacitance(p.cje, p.vje, p.mje, vbe)
        if p.cjc > 0.0:
            c_bc += self._depletion_capacitance(p.cjc, p.vjc, p.mjc, vbc)
        if p.tf > 0.0:
            gm = self.currents_and_derivatives(vbe, vbc, t)[2]
            c_be += p.tf * abs(gm)
        return c_be, c_bc

    def ac_stamp(self, stamp) -> None:
        """Junction ``dQ/dV`` at the operating point.

        Each junction capacitance is a two-terminal capacitor between
        the (internal) device nodes; the polarity sign cancels out of
        the symmetric stamp, so NPN and PNP share the pattern.  The
        substrate leakage's lagged drive dependence is left out, exactly
        as in the DC Jacobian.
        """
        c, b, e = self._node_idx[:3]
        s = self.sign
        vbe = s * (stamp.v(b) - stamp.v(e))
        vbc = s * (stamp.v(b) - stamp.v(c))
        c_be, c_bc = self.junction_capacitances(
            vbe, vbc, self.device_temperature(stamp)
        )
        if c_be > 0.0:
            stamp.add_two_terminal_capacitance(b, e, c_be)
        if c_bc > 0.0:
            stamp.add_two_terminal_capacitance(b, c, c_bc)

    def power(self, stamp: Stamp) -> float:
        """Dissipated power V_CE*I_C + V_BE*I_B at the iterate [W]."""
        if self.substrate is not None:
            c, b, e = self._node_idx[:3]
        else:
            c, b, e = self._node_idx
        s = self.sign
        t = self.device_temperature(stamp)
        vc, vb, ve = stamp.v(c), stamp.v(b), stamp.v(e)
        ic, ib, _ = self._currents(s * (vb - ve), s * (vb - vc), t)
        return (vc - ve) * s * ic + (vb - ve) * s * ib


def add_bjt(
    circuit,
    name: str,
    collector: str,
    base: str,
    emitter: str,
    params: BJTParameters,
    substrate: Optional[SubstratePNP] = None,
    substrate_node: str = "0",
    substrate_drive: Optional[float] = None,
) -> SpiceBJT:
    """Add a BJT to ``circuit``, expanding RB/RE/RC into real resistors.

    Internal nodes are named ``{name}#b`` / ``{name}#e`` / ``{name}#c``
    (only created for non-zero resistances).  Returns the core element so
    callers can attach temperature overrides.
    """
    inner_b, inner_e, inner_c = base, emitter, collector
    if params.rb > 0.0:
        inner_b = f"{name}#b"
        circuit.add(Resistor(f"{name}.rb", base, inner_b, params.rb))
    if params.re > 0.0:
        inner_e = f"{name}#e"
        circuit.add(Resistor(f"{name}.re", emitter, inner_e, params.re))
    if params.rc > 0.0:
        inner_c = f"{name}#c"
        circuit.add(Resistor(f"{name}.rc", collector, inner_c, params.rc))
    device = SpiceBJT(name, inner_c, inner_b, inner_e, params)
    if substrate is not None:
        device.attach_substrate(substrate, substrate_node, substrate_drive)
    circuit.add(device)
    return device
