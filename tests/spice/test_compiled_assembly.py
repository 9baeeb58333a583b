"""Equivalence contract of the compiled assembly engine.

The compiled path (cached linear stamps + COO scatter for the nonlinear
group) must produce the same ``(J, F)`` as the element-by-element
oracle (:mod:`reference_assembly`) — on every registered circuit, at
arbitrary iterates, under every configuration knob the solver turns
(gmin, source_scale, time) and for a mid-transient companion-model
step with non-trivial integrator state.
"""

import numpy as np
import pytest

from repro.spice import Circuit, Resistor, Session, VoltageSource
from repro.spice.elements.base import DynamicState, TransientContext
from repro.spice.mna import MNASystem
from repro.spice.solver import solve_dc_system

from families import CIRCUITS
from reference_assembly import ReferenceSystem

#: Both device-evaluator paths (the conftest fixture patches the
#: group-size rule): the compiled-vs-reference contract must hold
#: whether the nonlinear devices evaluate grouped or scalar.
pytestmark = pytest.mark.usefixtures("device_eval_path")

#: Matching tolerance: the two paths may only differ by summation-order
#: rounding, parts in 1e16 of the largest stamped term.
ATOL = 1e-12
RTOL = 1e-12

#: (gmin, source_scale) corners the stepping strategies exercise.
CONDITIONS = [(1e-12, 1.0), (1e-3, 1.0), (1e-12, 0.3)]


def _iterates(size: int):
    """A deterministic spread of iterates: origin, offsets, random."""
    rng = np.random.default_rng(1234)
    return [
        np.zeros(size),
        np.full(size, 0.61),
        rng.normal(0.4, 0.8, size),
    ]


def _transient_context(circuit, x):
    """A mid-run integration context with non-trivial history."""
    dynamic = [el for el in circuit.elements if el.is_dynamic]
    if not dynamic:
        return None
    states = {
        el.name: DynamicState(
            charge=el.charge_at(x) * 0.7 + 1e-12, current=1e-6 * (1 + index)
        )
        for index, el in enumerate(dynamic)
    }
    return TransientContext(dt=2.5e-7, method="trap", states=states)


@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_dc_assembly_matches_reference(name):
    circuit = CIRCUITS[name]()
    compiled = MNASystem(circuit)
    reference = ReferenceSystem(circuit)
    for x in _iterates(compiled.size):
        for gmin, scale in CONDITIONS:
            jc, fc = compiled.assemble(x, gmin=gmin, source_scale=scale)
            jr, fr = reference.assemble(x, gmin=gmin, source_scale=scale)
            np.testing.assert_allclose(jc, jr, rtol=RTOL, atol=ATOL)
            np.testing.assert_allclose(fc, fr, rtol=RTOL, atol=ATOL)
            rc = compiled.assemble_residual(x, gmin=gmin, source_scale=scale)
            np.testing.assert_allclose(rc, fr, rtol=RTOL, atol=ATOL)


@pytest.mark.parametrize(
    "name",
    [n for n in sorted(CIRCUITS)
     if any(el.is_dynamic for el in CIRCUITS[n]().elements)],
)
def test_transient_step_assembly_matches_reference(name):
    circuit = CIRCUITS[name]()
    compiled = MNASystem(circuit)
    reference = ReferenceSystem(circuit)
    for x in _iterates(compiled.size):
        ctx = _transient_context(circuit, x)
        jc, fc = compiled.assemble(x, time=3e-6, transient=ctx)
        jr, fr = reference.assemble(x, time=3e-6, transient=ctx)
        np.testing.assert_allclose(jc, jr, rtol=RTOL, atol=ATOL)
        np.testing.assert_allclose(fc, fr, rtol=RTOL, atol=ATOL)
        rc = compiled.assemble_residual(x, time=3e-6, transient=ctx)
        np.testing.assert_allclose(rc, fr, rtol=RTOL, atol=ATOL)


def test_fresh_context_refreshes_companion_history():
    """Advancing the integrator state must invalidate the cached b_lin."""
    circuit = CIRCUITS["rc_ladder"]()
    compiled = MNASystem(circuit)
    reference = ReferenceSystem(circuit)
    x = np.full(compiled.size, 0.5)
    dynamic = [el for el in circuit.elements if el.is_dynamic]
    states = {el.name: DynamicState() for el in dynamic}
    ctx = TransientContext(dt=1e-7, method="be", states=states)
    _, f0 = compiled.assemble(x, transient=ctx)
    # Advance the history (as the engine does on step acceptance) and
    # open a new context — the compiled residual must track it.
    for el in dynamic:
        states[el.name].charge = el.charge_at(x)
        states[el.name].current = 3e-5
    ctx2 = TransientContext(dt=1e-7, method="be", states=states)
    _, fc = compiled.assemble(x, transient=ctx2)
    _, fr = reference.assemble(x, transient=ctx2)
    np.testing.assert_allclose(fc, fr, rtol=RTOL, atol=ATOL)
    assert not np.allclose(fc, f0)  # the state change is visible


def test_invalidate_tracks_linear_value_mutation():
    """Mutating a linear element on a live system needs invalidate()."""
    circuit = Circuit("divider")
    circuit.add(VoltageSource("V1", "in", "0", 2.0))
    resistor = Resistor("R1", "in", "out", 1e3)
    circuit.add(resistor)
    circuit.add(Resistor("R2", "out", "0", 1e3))
    system = MNASystem(circuit)
    x = np.zeros(system.size)
    system.assemble(x)
    resistor.resistance = 2e3
    system.invalidate()
    jc, fc = system.assemble(x)
    jr, fr = ReferenceSystem(circuit).assemble(x)
    np.testing.assert_allclose(jc, jr, rtol=RTOL, atol=ATOL)
    np.testing.assert_allclose(fc, fr, rtol=RTOL, atol=ATOL)


@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_compiled_and_reference_solve_to_same_point(name):
    """End to end: compiled and oracle assembly land on the same point,
    by the same strategy, for every registered circuit family."""
    compiled = Session(CIRCUITS[name]()).solve_raw()
    reference = solve_dc_system(ReferenceSystem(CIRCUITS[name]()))
    assert compiled.x == pytest.approx(reference.x, abs=1e-9)
    assert compiled.strategy == reference.strategy


def test_total_source_power_matches_elementwise_sum():
    """The residual-only power path equals a hand sum over sources."""
    circuit = CIRCUITS["rc_ladder"]()
    solution = Session(circuit).solve_raw()
    system = MNASystem(circuit)
    total = system.total_source_power(solution.x)
    # V1 drives the ladder; I1 injects into mid.  Recompute by hand.
    v_in = solution.x[circuit.node_index("in")]
    v_mid = solution.x[circuit.node_index("mid")]
    i_v1 = solution.x[circuit.element("V1").branch_index()]
    by_hand = -(v_in - 0.0) * i_v1 + (1e-6 * 300.15) * (v_mid - 0.0)
    assert total == pytest.approx(by_hand, rel=1e-9)
