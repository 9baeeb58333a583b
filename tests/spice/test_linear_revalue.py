"""The static linear group's one layout and every pass that fills it.

Every static pass of a topology, the first one included, fills one
``_StaticLayout``: plain resistors' conductances come from one NumPy
expression over their packed values, and every other static element
stamps into its own slots.  The slots are built from the circuit on the
first pass and built again only when an element stamps a different
number of triplets; a new temperature, gmin or ``invalidate()`` keeps
them.  The contract: every assembly stays *byte-equal* to a freshly
built :class:`MNASystem` at the same conditions, on the dense and the
sparse path.
"""

import numpy as np
import pytest

from repro.errors import NetlistError
from repro.spice import (
    VCCS,
    VCVS,
    Circuit,
    CurrentSource,
    Resistor,
    VoltageSource,
)
from repro.spice.elements.base import Element
from repro.spice.elements.controlled import CCCS, CCVS
from repro.spice.elements.diode import Diode
from repro.spice.elements.sources import Pulse
from repro.spice.mna import MNASystem
from repro.spice.plans import TempSweep
from repro.spice.session import Session
from repro.spice.stats import STATS

from families import assert_stamps_close
from reference_assembly import ReferenceSystem

pytestmark = pytest.mark.usefixtures("device_eval_path")

TEMPERATURES = (300.15, 250.0, 398.15, 193.15, 300.15)

#: (gmin, source_scale, time) at every temperature: the solver's final
#: gmin, a gmin-ladder rung, a source-stepping scale and a transient
#: time past the PULSE edge.
CONDITIONS = [
    (1e-12, 1.0, None),
    (1e-5, 1.0, None),
    (1e-12, 0.4, None),
    (1e-12, 1.0, 2.5e-6),
]


class _TrimmedResistor(Resistor):
    """A Resistor subclass with its own law: it keeps its scalar stamp."""

    def __init__(self, *args, trim: float = 0.05, **kwargs):
        super().__init__(*args, **kwargs)
        self.trim = trim

    def resistance_at(self, temperature_k: float) -> float:
        return super().resistance_at(temperature_k) * (1.0 + self.trim)


class _ThermalSwitch(Element):
    """A conductance to ground that exists only above 320 K, so its
    triplet count changes with temperature."""

    is_linear = True

    def __init__(self, name: str, a: str, g: float):
        super().__init__(name, (a, "0"))
        self.g = g

    def stamp(self, stamp) -> None:
        if stamp.temperature_k > 320.0:
            a, b = self._node_idx
            stamp.stamp_conductance(a, b, self.g)


def _zoo() -> Circuit:
    circuit = Circuit("re-value zoo")
    circuit.add(
        VoltageSource("V1", "in", "0", Pulse(v1=0.2, v2=1.8, delay=1e-6, rise=1e-6))
    )
    circuit.add(Resistor("R1", "in", "a", 1e3, tc1=2e-3, tc2=4e-6))
    circuit.add(Resistor("R2", "a", "0", 2.2e3, tc1=-1.5e-3))
    hot = Resistor("R3", "a", "b", 4.7e3, tc1=3e-3)
    hot.temperature_override = 360.0
    circuit.add(hot)
    circuit.add(_TrimmedResistor("RT", "b", "0", 1e4, tc1=1e-3))
    circuit.add(CurrentSource("I1", "0", "b", lambda t: 2e-8 * t))
    circuit.add(VCVS("E1", "c", "0", "a", "b", 2.0))
    circuit.add(Resistor("R4", "c", "d", 1e3))
    circuit.add(VCCS("G1", "0", "d", "c", "0", 1e-4))
    sense = VoltageSource("VS", "d", "e", 0.0)
    circuit.add(sense)
    circuit.add(CCCS("F1", "0", "a", sense, 2.0))
    circuit.add(CCVS("H1", "e", "0", sense, 50.0))
    circuit.add(Resistor("R5", "e", "f", 3.3e3, tc2=1e-5))
    circuit.add(Diode("D1", "f", "0"))
    circuit.add(Diode("D2", "b", "0"))
    # Irregular tempcos: enough of them that a law evaluated in another
    # operation order rounds differently somewhere.
    for k in range(12):
        circuit.add(
            Resistor(
                f"RC{k}", ("a", "b")[k % 2], "0", 1e4 * (1 + 0.37 * k),
                tc1=1e-3 * (1 + 0.29 * k) * (-1) ** k,
                tc2=1e-6 * (1.3 + 0.71 * k),
            )
        )
    return circuit


def _raw(matrix) -> bytes:
    """The exact bytes of a dense or CSC matrix (or a vector)."""
    if hasattr(matrix, "tocsc"):
        return b"|".join(
            np.ascontiguousarray(part).tobytes()
            for part in (matrix.data, matrix.indices, matrix.indptr)
        )
    return np.ascontiguousarray(matrix).tobytes()


def _assert_byte_equal(live, fresh, x, gmin, source_scale, time):
    kwargs = dict(gmin=gmin, source_scale=source_scale, time=time)
    j_live, f_live = live.assemble(x, **kwargs)
    j_fresh, f_fresh = fresh.assemble(x, **kwargs)
    assert _raw(j_live) == _raw(j_fresh)
    assert _raw(f_live) == _raw(f_fresh)
    assert _raw(live.assemble_residual(x, **kwargs)) == _raw(
        fresh.assemble_residual(x, **kwargs)
    )
    return j_live, f_live


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_revalue_is_byte_equal_to_a_fresh_system(sparse):
    circuit = _zoo()
    live = MNASystem(circuit, sparse=sparse)
    x = np.random.default_rng(20261017).normal(0.3, 0.6, live.size)
    for temperature in TEMPERATURES:
        live.set_temperature(temperature)
        for gmin, source_scale, time in CONDITIONS:
            fresh = MNASystem(circuit, temperature_k=temperature, sparse=sparse)
            jacobian, residual = _assert_byte_equal(
                live, fresh, x, gmin, source_scale, time
            )
            j_ref, f_ref = ReferenceSystem(
                circuit, temperature_k=temperature
            ).assemble(x, gmin=gmin, source_scale=source_scale, time=time)
            dense = jacobian.toarray() if sparse else jacobian
            assert_stamps_close(dense, j_ref)
            assert_stamps_close(residual, f_ref)


def _linear_zoo() -> Circuit:
    """The zoo without its diodes: every Jacobian entry is static."""
    circuit = Circuit("linear re-value zoo")
    for element in _zoo().elements:
        if not isinstance(element, Diode):
            circuit.add(element)
    return circuit


def _assert_reference_bytes(system, circuit, x):
    """Every condition's dense J equals the element-by-element oracle's."""
    reference = ReferenceSystem(circuit, temperature_k=system.temperature_k)
    for gmin, source_scale, time in CONDITIONS:
        kwargs = dict(gmin=gmin, source_scale=source_scale, time=time)
        assert _raw(system.assemble(x, **kwargs)[0]) == _raw(
            reference.assemble(x, **kwargs)[0]
        )


def test_linear_deck_is_byte_equal_to_the_reference():
    circuit = _linear_zoo()
    live = MNASystem(circuit, sparse=False)
    x = np.random.default_rng(20261018).normal(0.3, 0.6, live.size)
    for temperature in TEMPERATURES:
        fresh = MNASystem(circuit, temperature_k=temperature, sparse=False)
        _assert_reference_bytes(fresh, circuit, x)
        live.set_temperature(temperature)
        _assert_reference_bytes(live, circuit, x)
    circuit.element("R2").resistance = 6.8e3
    circuit.element("R3").temperature_override = 250.0
    live.invalidate()
    for temperature in TEMPERATURES:
        live.set_temperature(temperature)
        _assert_reference_bytes(live, circuit, x)


def test_layout_and_groups_survive_set_temperature():
    circuit = _zoo()
    system = MNASystem(circuit, vectorized=True)
    x = np.full(system.size, 0.4)
    system.assemble(x)
    layout, groups = system._layout, list(system.groups)
    assert layout is not None and groups
    system.set_temperature(350.0)
    system.assemble(x)
    assert system._layout is layout
    assert all(a is b for a, b in zip(system.groups, groups))
    system.invalidate()
    assert system._layout is layout  # slots kept, resistor values re-packed
    assert not any(a is b for a, b in zip(system.groups, groups))


def test_invalidated_mutation_is_picked_up_at_the_next_temperature():
    circuit = _zoo()
    live = MNASystem(circuit)
    x = np.full(live.size, 0.4)
    live.assemble(x)
    circuit.element("R2").resistance = 6.8e3
    circuit.element("R3").temperature_override = 250.0
    live.invalidate()
    live.set_temperature(350.0)
    fresh = MNASystem(circuit, temperature_k=350.0)
    _assert_byte_equal(live, fresh, x, 1e-12, 1.0, None)


def test_changed_triplet_count_records_the_layout_again():
    circuit = _zoo()
    circuit.add(_ThermalSwitch("S1", "c", 2e-3))
    live = MNASystem(circuit)
    x = np.full(live.size, 0.4)
    live.assemble(x)
    first = live._layout
    for temperature in (340.0, 300.0):
        live.set_temperature(temperature)
        fresh = MNASystem(circuit, temperature_k=temperature)
        _assert_byte_equal(live, fresh, x, 1e-12, 1.0, None)
        assert live._layout is not first
        first = live._layout


def test_non_positive_tempco_raises_the_fresh_system_error():
    circuit = _zoo()
    circuit.add(Resistor("RN", "f", "0", 5e3, tc1=-4e-3))  # <= 0 above 550 K
    live = MNASystem(circuit)
    x = np.zeros(live.size)
    live.assemble(x)
    live.set_temperature(560.0)
    with pytest.raises(NetlistError) as from_live:
        live.assemble(x)
    with pytest.raises(NetlistError) as from_fresh:
        MNASystem(circuit, temperature_k=560.0).assemble(x)
    assert str(from_live.value) == str(from_fresh.value)
    assert "RN" in str(from_live.value)
    with pytest.raises(NetlistError) as from_law:
        circuit.element("RN").resistance_at(560.0)
    assert str(from_live.value) == str(from_law.value)
    # Back in range the layout still serves, byte-equal.
    live.set_temperature(400.0)
    fresh = MNASystem(circuit, temperature_k=400.0)
    _assert_byte_equal(live, fresh, x, 1e-12, 1.0, None)


def _bias_deck() -> Circuit:
    circuit = Circuit("counter deck")
    circuit.add(VoltageSource("V1", "in", "0", 3.0))
    circuit.add(CurrentSource("I1", "0", "a", 1e-5))
    circuit.add(VCCS("G1", "0", "b", "a", "0", 1e-4))
    for index, (a, b) in enumerate([("in", "a"), ("a", "0"), ("b", "0"),
                                    ("in", "m"), ("m", "0")]):
        circuit.add(Resistor(f"R{index}", a, b, 1e3 * (index + 1), tc1=1e-3))
    circuit.add(Diode("D1", "a", "0"))
    return circuit


def test_linear_stamps_grow_by_the_scalar_elements_per_temperature():
    circuit = _bias_deck()
    static = [el for el in circuit.elements if el.is_linear and not el.is_dynamic]
    n_static = len(static)
    n_scalar = sum(type(el) is not Resistor for el in static)
    assert (n_static, n_scalar) == (8, 3)

    def stamps(temperatures):
        before = STATS.linear_stamps
        Session(_bias_deck()).run(TempSweep(temperatures_k=temperatures))
        return STATS.linear_stamps - before

    base = stamps([260.0, 290.0])
    assert stamps([260.0, 290.0, 320.0, 350.0, 380.0]) - base == 3 * n_scalar


def test_first_static_pass_stamps_only_the_non_resistors():
    system = MNASystem(_bias_deck())
    before = STATS.linear_stamps
    system.assemble(np.zeros(system.size))
    assert STATS.linear_stamps - before == len(system.static_scalar) == 3
