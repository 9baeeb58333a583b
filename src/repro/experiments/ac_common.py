"""Shared circuit recipes of the AC small-signal experiment family.

The three frequency-domain experiments (``psrr_vref``, ``loop_gain``,
``zout_vref``) probe the *same* AC-ready variant of the paper's Fig. 3
test cell, so its recipe lives here once:

* the amplifier senses a real ``vdd`` rail (the PSRR path: supply
  ripple couples into the output through the macro's rail-tracking
  window), drives the reference through a finite output resistance and
  carries a single dominant open-loop pole;
* the reference node carries a load/compensation capacitor and the
  amplifier inputs small parasitic capacitors — the poles that shape
  the loop's phase profile;
* the PNPs get representative junction capacitances (``CJE``/``CJC``/
  ``TF`` on top of the DC card — the DC-only experiments keep the
  historic zero-capacitance card, which this module never touches).

All builders are module-level functions of plain-data arguments,
ready for ``Session(builder, args=...)``
(:class:`repro.spice.session.Session`).
"""

from __future__ import annotations

from dataclasses import replace

from ..bjt.parameters import PAPER_PNP_SMALL
from ..circuits.bandgap_cell import BandgapCellConfig, CellNodes, build_bandgap_cell
from ..spice.elements import VCVS, Capacitor, CurrentSource, VoltageSource
from ..spice.netlist import Circuit

#: The sensed supply rail (same node name as the startup experiments).
SUPPLY_NODE = "vdd"
#: DC supply the AC experiments linearise around [V].
VDD_DC = 5.0
#: Amplifier output resistance [ohm] — with the load capacitor this is
#: the output pole of the loop.
AMP_ROUT = 10e3
#: Load/compensation capacitor on the reference output [F].
C_LOAD = 100e-12
#: Parasitic capacitance on each amplifier input node [F] (the
#: far-out poles that eventually bring the loop phase past -180 deg).
C_PARASITIC = 5e-12
#: Dominant open-loop pole of the amplifier macro [Hz].
AMP_POLE_HZ = 100.0
#: Node carrying the loop's return ratio in the broken-loop circuit.
LOOP_RETURN_NODE = "lret"

#: The Fig. 3 PNP card with the charge-storage subset filled in:
#: ~40 fF B-E / ~25 fF B-C zero-bias depletion for the 6 um^2 unit
#: device (QB scales by its area ratio) and a 400 ps transit time.
AC_PNP_PARAMS = replace(PAPER_PNP_SMALL, cje=40e-15, cjc=25e-15, tf=400e-12)


def ac_cell_config() -> BandgapCellConfig:
    """The nominal cell configuration with the AC-enabled device card."""
    return BandgapCellConfig(params=AC_PNP_PARAMS)


def _add_output_capacitors(circuit: Circuit, output_node: str) -> None:
    nodes = CellNodes()
    circuit.add(Capacitor("CLOAD", output_node, "0", C_LOAD))
    circuit.add(Capacitor("CP4", nodes.p4, "0", C_PARASITIC))
    circuit.add(Capacitor("CNB", nodes.nb, "0", C_PARASITIC))


def build_psrr_cell(vdd_ac: float = 1.0) -> Circuit:
    """The closed-loop cell with a unit AC excitation on the supply.

    With ``ac_mag = 1`` on VDD, the ``vref`` phasor IS the supply-to-
    output transfer, so PSRR in dB is just ``-magnitude_db("vref")``.
    """
    circuit = build_bandgap_cell(
        ac_cell_config(),
        supply_node=SUPPLY_NODE,
        amp_output_resistance=AMP_ROUT,
        amp_pole_hz=AMP_POLE_HZ,
    )
    circuit.add(VoltageSource("VDD", SUPPLY_NODE, "0", VDD_DC, ac_mag=vdd_ac))
    _add_output_capacitors(circuit, CellNodes().vref)
    return circuit


def build_zout_cell() -> Circuit:
    """The closed-loop cell with a unit AC current pushed into ``vref``.

    The ``vref`` phasor is then the output impedance in ohms.
    """
    circuit = build_psrr_cell(vdd_ac=0.0)
    circuit.add(CurrentSource("ITEST", "0", CellNodes().vref, 0.0, ac_mag=1.0))
    return circuit


def build_loop_gain_cell(p4_dc: float, nb_dc: float) -> Circuit:
    """The cell with the feedback loop broken at the amplifier input.

    The amplifier senses a test pair ``(tp, tn)`` pinned at the
    *closed-loop* DC values of ``p4``/``nb`` instead of the real branch
    tops; since the macro's inputs draw no current, nothing else in the
    circuit notices — the amplifier still drives ``vref`` through its
    output resistance into the load capacitor and the feedback network,
    so the broken circuit linearises at the closed loop's own operating
    point with all loading intact (the reason the loop is NOT broken at
    the output: the network's input impedance loads the amplifier's
    output resistance, and an output break would lose that divider).

    A unit AC excitation on ``tp`` walks the loop once —
    ``vdiff -> amplifier -> network -> (p4 - nb)`` — and a gain ``-1``
    VCVS renders the returned difference on :data:`LOOP_RETURN_NODE`,
    so the node phasor there IS the negative-feedback return ratio
    ``L(jw)`` (positive real at DC).  The VCVS control pins draw no
    current and its output drives nothing, so it observes without
    perturbing.
    """
    nodes = CellNodes()
    circuit = build_bandgap_cell(
        ac_cell_config(),
        supply_node=SUPPLY_NODE,
        amp_output_resistance=AMP_ROUT,
        amp_pole_hz=AMP_POLE_HZ,
        amp_inputs=("tp", "tn"),
    )
    circuit.add(VoltageSource("VDD", SUPPLY_NODE, "0", VDD_DC))
    _add_output_capacitors(circuit, nodes.vref)
    circuit.add(VoltageSource("VTP", "tp", "0", p4_dc, ac_mag=1.0))
    circuit.add(VoltageSource("VTN", "tn", "0", nb_dc))
    circuit.add(
        VCVS("ELOOP", LOOP_RETURN_NODE, "0", nodes.p4, nodes.nb, gain=-1.0)
    )
    return circuit
