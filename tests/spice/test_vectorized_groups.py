"""Equivalence contract of the vectorized device-group engine.

The grouped evaluator (packed parameter arrays, one NumPy pass per
device class) must reproduce the scalar per-element stamps to float64
rounding — ``<= 1e-12`` relative — on every registered circuit family,
at arbitrary iterates, for DC, mid-transient and AC assembly, in both
the dense and the sparse assembly modes.  The scalar path is forced per
system through ``MNASystem(vectorized=False)``; the grouped path
through ``vectorized=True`` (which also drops the adaptive group-size
threshold, so even two-device families exercise the vectorized math).
"""

import numpy as np
import pytest
import scipy.sparse

from repro.bjt.parameters import PAPER_PNP_SMALL
from repro.experiments.ac_common import build_psrr_cell, build_zout_cell
from repro.spice import Circuit, Resistor, VoltageSource
from repro.spice.ac import ACSystem
from repro.spice.elements.base import DynamicState, TransientContext
from repro.spice.elements.bjt import SpiceBJT
from repro.spice.elements.diode import Diode
from repro.spice.groups import build_groups
from repro.spice.mna import MNASystem
from repro.spice.solver import SolverOptions, solve_dc_system
from repro.spice.stats import STATS

from families import CIRCUITS, assert_stamps_close
from reference_assembly import ReferenceSystem

ATOL = 1e-12
RTOL = 1e-12

CONDITIONS = [(1e-12, 1.0), (1e-3, 1.0), (1e-12, 0.3)]

#: The circuit families plus the device bank the group engine was built
#: for: 64 BJTs and 32 diodes, far past the grouping crossover.
BUILDERS = {**CIRCUITS, "bjt_bank_64_32": lambda: _bjt_bank(64, sections=32)}


def _iterates(size: int):
    rng = np.random.default_rng(97)
    return [
        np.zeros(size),
        np.full(size, 0.58),
        rng.normal(0.4, 0.8, size),
        rng.normal(0.0, 2.5, size),  # wild Newton-trial territory
    ]


def _pair(name):
    circuit = BUILDERS[name]()
    return (
        circuit,
        MNASystem(circuit, vectorized=True),
        MNASystem(circuit, vectorized=False),
    )


def _transient_context(circuit, x):
    dynamic = [el for el in circuit.elements if el.is_dynamic]
    if not dynamic:
        return None
    states = {
        el.name: DynamicState(
            charge=el.charge_at(x) * 0.8 + 2e-12, current=2e-6 * (1 + index)
        )
        for index, el in enumerate(dynamic)
    }
    return TransientContext(dt=1.5e-7, method="trap", states=states)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_dc_assembly_vectorized_matches_scalar(name):
    circuit, vectorized, scalar = _pair(name)
    for x in _iterates(vectorized.size):
        for gmin, scale in CONDITIONS:
            jv, fv = vectorized.assemble(x, gmin=gmin, source_scale=scale)
            js, fs = scalar.assemble(x, gmin=gmin, source_scale=scale)
            assert_stamps_close(jv, js)
            assert_stamps_close(fv, fs)
            rv = vectorized.assemble_residual(x, gmin=gmin, source_scale=scale)
            assert_stamps_close(rv, fs)


@pytest.mark.parametrize(
    "name",
    [n for n in sorted(CIRCUITS)
     if any(el.is_dynamic for el in CIRCUITS[n]().elements)],
)
def test_transient_assembly_vectorized_matches_scalar(name):
    circuit, vectorized, scalar = _pair(name)
    for x in _iterates(vectorized.size):
        ctx = _transient_context(circuit, x)
        jv, fv = vectorized.assemble(x, time=2e-6, transient=ctx)
        js, fs = scalar.assemble(x, time=2e-6, transient=ctx)
        assert_stamps_close(jv, js)
        assert_stamps_close(fv, fs)
        rv = vectorized.assemble_residual(x, time=2e-6, transient=ctx)
        assert_stamps_close(rv, fs)


@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_ac_capacitance_vectorized_matches_scalar(name):
    """The grouped junction dQ/dV assembly equals the scalar ac_stamp.

    The solved operating point keeps the comparison honest (junction
    capacitances are bias-dependent); the families without junction
    caps (zero CJE/CJC model cards) must agree on an *empty* C too —
    the grouped path may not break ``frequency_flat``.
    """
    options = SolverOptions()
    circuit = CIRCUITS[name]()
    vectorized = MNASystem(circuit, vectorized=True)
    raw = solve_dc_system(vectorized, options=options)
    scalar = MNASystem(circuit, vectorized=False)
    ac_vec = ACSystem(vectorized, raw.x, options=options)
    ac_sca = ACSystem(scalar, raw.x, options=options)
    np.testing.assert_allclose(ac_vec.C, ac_sca.C, rtol=RTOL, atol=1e-25)
    np.testing.assert_allclose(ac_vec.G, ac_sca.G, rtol=RTOL, atol=ATOL)
    np.testing.assert_allclose(ac_vec.b, ac_sca.b, rtol=RTOL, atol=ATOL)
    assert ac_vec.frequency_flat == ac_sca.frequency_flat


def test_ac_junction_caps_grouped_matches_scalar():
    """With non-zero junction caps the grouped C must match entrywise."""
    import dataclasses

    from repro.circuits.bandgap_cell import BandgapCellConfig, build_bandgap_cell

    params = dataclasses.replace(
        PAPER_PNP_SMALL, cje=2e-13, cjc=1.2e-13, tf=3e-10
    )
    circuit = build_bandgap_cell(
        BandgapCellConfig(params=params), amp_pole_hz=2e5
    )
    options = SolverOptions()
    vectorized = MNASystem(circuit, vectorized=True)
    raw = solve_dc_system(vectorized, options=options)
    ac_vec = ACSystem(vectorized, raw.x, options=options)
    ac_sca = ACSystem(
        MNASystem(circuit, vectorized=False), raw.x, options=options
    )
    assert np.count_nonzero(ac_vec.C) > 0
    np.testing.assert_allclose(ac_vec.C, ac_sca.C, rtol=RTOL, atol=1e-28)
    # End to end: identical transfer solutions over a frequency grid.
    freqs = np.logspace(1, 7, 13)
    xv = ac_vec.solve(freqs).x
    xs = ac_sca.solve(freqs).x
    np.testing.assert_allclose(xv, xs, rtol=1e-10, atol=1e-18)


def _bjt_bank(count: int, sections: int = 0) -> Circuit:
    """A bank of diode-connected PNPs (plus optional diode sections)."""
    circuit = Circuit(f"bank-{count}")
    circuit.add(VoltageSource("V1", "vcc", "0", 3.0))
    for index in range(count):
        circuit.add(Resistor(f"R{index}", "vcc", f"e{index}", 30e3))
        circuit.add(SpiceBJT(f"Q{index}", "0", "0", f"e{index}", PAPER_PNP_SMALL))
    for index in range(sections):
        circuit.add(Resistor(f"RD{index}", "vcc", f"d{index}", 50e3))
        circuit.add(Diode(f"D{index}", f"d{index}", "0"))
    return circuit


def test_sparse_assembly_matches_dense_reference():
    """Above the threshold the sparse-mode Jacobian (scipy.sparse) must
    equal the dense reference entry for entry, and the solver must land
    on the same operating point through pure-sparse factorizations."""
    circuit = _bjt_bank(150, sections=60)  # ~212 unknowns, over the 200 switch
    system = MNASystem(circuit, vectorized=True)
    assert system.sparse_assembly
    reference = ReferenceSystem(circuit)
    x = np.random.default_rng(11).normal(0.4, 0.6, system.size)
    js, fs = system.assemble(x)
    jr, fr = reference.assemble(x)
    assert scipy.sparse.issparse(js)
    assert js.format == "csc"  # splu's native format: no conversion
    assert_stamps_close(js.toarray(), jr)
    assert_stamps_close(fs, fr)

    STATS.reset()
    solution = solve_dc_system(MNASystem(circuit, vectorized=True))
    assert STATS.sparse_assemblies > 0
    assert STATS.sparse_factorizations > 0
    assert STATS.group_evals > 0
    emitters = [circuit.node_index(f"e{i}") for i in range(150)]
    voltages = solution.x[emitters]
    assert np.all((0.3 < voltages) & (voltages < 1.0))


#: Small circuits the sparse mode is forced on: the bandgap cell, and
#: the AC cells whose junction and load capacitors fill ``C``.
SMALL_SPARSE_CASES = {
    "bandgap_cell": CIRCUITS["bandgap_cell"],
    "psrr_cell": build_psrr_cell,
    "zout_cell": build_zout_cell,
}


@pytest.mark.parametrize("name", sorted(SMALL_SPARSE_CASES))
def test_sparse_mode_forced_on_small_system_matches(name):
    """The sparse mode is size-gated but must stay correct at any size:
    the same Jacobian and residual and, on the AC cells, the same
    ``(G, C, b)``, small-signal solution and factorization counts."""
    circuit = SMALL_SPARSE_CASES[name]()
    sparse_sys = MNASystem(circuit, vectorized=True, sparse=True)
    dense_sys = MNASystem(circuit, vectorized=True, sparse=False)
    x = np.full(sparse_sys.size, 0.45)
    js, fs = sparse_sys.assemble(x)
    jd, fd = dense_sys.assemble(x)
    assert_stamps_close(js.toarray(), jd)
    assert_stamps_close(fs, fd)
    if name == "bandgap_cell":
        return
    x_op = solve_dc_system(dense_sys).x

    def sweep(system):
        before = (STATS.ac_factorizations, STATS.ac_factor_reuses)
        ac = ACSystem(system, x_op)
        solution = ac.solve(np.logspace(0, 8, 17)).x
        after = (STATS.ac_factorizations, STATS.ac_factor_reuses)
        return ac, solution, (after[0] - before[0], after[1] - before[1])

    sparse_ac, xs, sparse_counts = sweep(sparse_sys)
    dense_ac, xd, dense_counts = sweep(dense_sys)
    assert scipy.sparse.issparse(sparse_ac.C) and sparse_ac.C.format == "csc"
    np.testing.assert_array_equal(sparse_ac.C.toarray(), dense_ac.C)
    np.testing.assert_array_equal(sparse_ac.G.toarray(), dense_ac.G)
    np.testing.assert_array_equal(sparse_ac.b, dense_ac.b)
    assert sparse_ac.frequency_flat == dense_ac.frequency_flat
    # Relative to the solution scale: near-cancelling entries differ by
    # far more than 1e-10 of themselves, and some entries are zero.
    assert np.abs(xs - xd).max() <= 1e-10 * np.abs(xd).max()
    assert sparse_counts == dense_counts


def test_group_partition_policy():
    """Grouping: exact classes only, substrate BJTs stay scalar, and
    the adaptive size threshold keeps tiny classes on the scalar path."""
    from repro.bjt.substrate import SubstratePNP

    circuit = _bjt_bank(3, sections=2)
    sub = SpiceBJT("QSUB", "c", "b", "e", PAPER_PNP_SMALL)
    sub.attach_substrate(SubstratePNP(area=1.0), "0", drive=1.0)
    circuit.add(sub)
    circuit.add(Resistor("RB1", "vcc", "c", 1e4))
    circuit.add(Resistor("RB2", "vcc", "b", 1e4))
    circuit.add(Resistor("RB3", "e", "0", 1e4))
    system = MNASystem(circuit, vectorized=True)
    groups = system.groups
    kinds = {group.kind: group.n for group in groups}
    assert kinds == {"bjt": 3, "diode": 2}
    leftover = [el.name for el in system.scalar_nonlinear]
    assert "QSUB" in leftover

    # Adaptive threshold: below the crossover nothing groups.
    nonlinear = [el for el in circuit.elements if not el.is_linear]
    groups, leftover = build_groups(nonlinear, system.size, min_size=4)
    assert groups == [] and len(leftover) == len(nonlinear)


@pytest.fixture
def retired_selectors(monkeypatch):
    """Set the environment variables that once overrode the size rules;
    a default-built system must ignore them."""
    monkeypatch.setenv("REPRO_VECTORIZED", "0")
    monkeypatch.setenv("REPRO_GROUP_MIN", "1")
    monkeypatch.setenv("REPRO_SPARSE_THRESHOLD", "10")


@pytest.mark.usefixtures("retired_selectors")
@pytest.mark.parametrize("diodes, grouped", [(11, False), (12, True)])
def test_group_size_rule_is_the_module_constant(diodes, grouped):
    """A device class groups at GROUP_MIN = 12 instances or more."""
    system = MNASystem(_bjt_bank(0, sections=diodes))
    assert [group.kind for group in system.groups] == (
        ["diode"] if grouped else []
    )
    assert len(system.scalar_nonlinear) == (0 if grouped else diodes)


@pytest.mark.usefixtures("retired_selectors")
@pytest.mark.parametrize("unknowns, sparse", [(199, False), (200, True)])
def test_sparse_size_rule_is_the_module_constant(unknowns, sparse):
    """A system assembles sparse at SPARSE_MIN_UNKNOWNS = 200 unknowns
    or more (one source branch plus a resistor chain's nodes)."""
    circuit = Circuit(f"chain-{unknowns}")
    circuit.add(VoltageSource("V1", "n0", "0", 1.0))
    for index in range(1, unknowns - 1):
        circuit.add(Resistor(f"R{index}", f"n{index - 1}", f"n{index}", 1e3))
    circuit.add(Resistor("RL", f"n{unknowns - 2}", "0", 1e3))
    system = MNASystem(circuit)
    assert system.size == unknowns
    assert system.sparse_assembly == sparse
    jacobian, _ = system.assemble(np.zeros(system.size))
    assert scipy.sparse.issparse(jacobian) == sparse


def test_group_counters_accumulate():
    """The grouped path reports itself through the STATS counters."""
    circuit = _bjt_bank(4)
    system = MNASystem(circuit, vectorized=True)
    x = np.zeros(system.size)
    STATS.reset()
    system.assemble_residual(x)
    system.assemble(x)
    assert STATS.group_evals == 2
    assert STATS.grouped_device_evals == 8


def test_temperature_override_follows_invalidate_contract():
    """Overrides snapshot at build; invalidate() re-snapshots them —
    after which grouped and scalar paths agree again."""
    circuit = _bjt_bank(3)
    vectorized = MNASystem(circuit, vectorized=True)
    scalar = MNASystem(circuit, vectorized=False)
    x = np.full(vectorized.size, 0.5)
    for element in circuit.elements:
        if isinstance(element, SpiceBJT):
            element.temperature_override = 353.15
    vectorized.invalidate()
    scalar.invalidate()
    jv, fv = vectorized.assemble(x)
    js, fs = scalar.assemble(x)
    assert_stamps_close(jv, js)
    assert_stamps_close(fv, fs)


def test_set_temperature_retemperatures_groups():
    """set_temperature must re-key the cached group temperature laws."""
    circuit = CIRCUITS["bandgap_cell"]()
    vectorized = MNASystem(circuit, vectorized=True)
    scalar = MNASystem(circuit, vectorized=False)
    x = np.full(vectorized.size, 0.5)
    vectorized.assemble(x)
    for temperature in (233.15, 418.15):
        vectorized.set_temperature(temperature)
        scalar.set_temperature(temperature)
        jv, fv = vectorized.assemble(x)
        js, fs = scalar.assemble(x)
        assert_stamps_close(jv, js)
        assert_stamps_close(fv, fs)


@pytest.mark.parametrize("count, sections", [(6, 3), (64, 32)])
def test_solve_lands_on_same_point_both_paths(count, sections):
    """End to end on a groupable netlist: same operating point, and each
    solve really ran on the path it was pinned to."""
    circuit_a = _bjt_bank(count, sections=sections)
    circuit_b = _bjt_bank(count, sections=sections)
    STATS.reset()
    vec = solve_dc_system(MNASystem(circuit_a, vectorized=True))
    assert STATS.group_evals > 0
    STATS.reset()
    sca = solve_dc_system(MNASystem(circuit_b, vectorized=False))
    assert STATS.group_evals == 0
    assert vec.x == pytest.approx(sca.x, abs=1e-9)
    assert 0.3 < float(vec.x[circuit_a.node_index("e0")]) < 1.0


def test_sparse_mode_transient_and_ac_end_to_end():
    """Transient and AC must run end to end through the sparse assembly
    mode (sparse G_lin + capacitance pattern, splu factorizations) and
    agree with the dense path."""
    from repro.spice import Capacitor, Session, Transient
    from repro.spice.transient import TransientOptions

    def build():
        circuit = _bjt_bank(150, sections=60)
        circuit.add(Capacitor("CL", "e0", "0", 1e-9))
        return circuit

    options = TransientOptions(dt_init=2e-7, adaptive=False)
    # The session builds a default system: at this size that is
    # the sparse assembly mode, so the whole stepping loop (companion
    # stamps, splu factorizations, LU reuse) runs on sparse Jacobians.
    transient = Session(build()).run(Transient(t_stop=2e-6, options=options)).result
    circuit = build()
    system = MNASystem(circuit, vectorized=True)
    assert system.sparse_assembly
    raw = solve_dc_system(system)
    # AC through the sparse path: linearise and sweep.
    ac = ACSystem(system, raw.x)
    result = ac.solve([1e3, 1e6])
    assert np.all(np.isfinite(result.x.real))
    # The transient settles to the independently solved DC point.
    assert transient.voltage("e1")[-1] == pytest.approx(
        raw.x[circuit.node_index("e1")], abs=1e-6
    )


def test_device_value_mutation_follows_invalidate_contract():
    """Mutating a grouped device's model values on a live system is
    picked up by invalidate() — which re-packs the parameter arrays —
    exactly like a linear element's value mutation (regression: the
    groups used to keep the build-time snapshot forever)."""
    circuit = Circuit("mutable diode")
    circuit.add(VoltageSource("V1", "in", "0", 1.0))
    circuit.add(Resistor("R1", "in", "d", 1e4))
    diode = Diode("D1", "d", "0", is_=1e-15)
    circuit.add(diode)
    vectorized = MNASystem(circuit, vectorized=True)
    scalar = MNASystem(circuit, vectorized=False)
    x = np.full(vectorized.size, 0.6)
    vectorized.assemble(x)  # warm the packed arrays and memo
    diode.is_ = 5e-14
    vectorized.invalidate()
    scalar.invalidate()
    jv, fv = vectorized.assemble(x)
    js, fs = scalar.assemble(x)
    assert_stamps_close(jv, js)
    assert_stamps_close(fv, fs)
