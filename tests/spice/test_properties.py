"""Property-based tests of the DC solver on randomly generated circuits.

These pin down solver *invariants* rather than specific answers:
Kirchhoff conservation, superposition on linear networks,
monotonicity/ordering properties of nonlinear networks, and — for the
vectorized device-group engine — stamp-level equivalence against the
scalar reference under random model cards and random bias points,
including finite-difference cross-checks of the assembled Jacobian.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bjt.parameters import BJTParameters
from repro.spice import (
    OP,
    Circuit,
    CurrentSource,
    Diode,
    Resistor,
    Session,
    VoltageSource,
)
from repro.spice.elements.bjt import SpiceBJT
from repro.spice.mna import MNASystem

resistances = st.floats(min_value=10.0, max_value=1e6)
sources = st.floats(min_value=-50.0, max_value=50.0)


def ladder(resistor_values, v_source):
    """A series-resistor ladder from a source to ground."""
    circuit = Circuit("ladder")
    circuit.add(VoltageSource("V1", "n0", "0", v_source))
    for i, value in enumerate(resistor_values):
        circuit.add(Resistor(f"R{i}", f"n{i}", f"n{i + 1}", value))
    circuit.add(Resistor("RL", f"n{len(resistor_values)}", "0", 1e3))
    return circuit


class TestKirchhoffInvariants:
    @settings(max_examples=30, deadline=None)
    @given(values=st.lists(resistances, min_size=1, max_size=6), v=sources)
    def test_ladder_kcl(self, values, v):
        circuit = ladder(values, v)
        op = Session(circuit).run(OP()).op
        system = MNASystem(circuit)
        assert system.kcl_residual(op.x) < 1e-9

    @settings(max_examples=30, deadline=None)
    @given(values=st.lists(resistances, min_size=1, max_size=6), v=sources)
    def test_ladder_voltages_monotone(self, values, v):
        # Voltages along a single current path decay monotonically in
        # magnitude from the source to ground.
        circuit = ladder(values, v)
        op = Session(circuit).run(OP()).op
        nodes = [f"n{i}" for i in range(len(values) + 1)]
        magnitudes = [abs(op.voltage(node)) for node in nodes]
        assert all(a >= b - 1e-9 for a, b in zip(magnitudes, magnitudes[1:]))

    @settings(max_examples=25, deadline=None)
    @given(
        r=resistances,
        v1=st.floats(min_value=-20.0, max_value=20.0),
        v2=st.floats(min_value=-20.0, max_value=20.0),
    )
    def test_superposition(self, r, v1, v2):
        # Linear network: response to v1 + v2 equals the sum of the
        # individual responses.
        def solve(value):
            circuit = Circuit()
            circuit.add(VoltageSource("V1", "a", "0", value))
            circuit.add(Resistor("R1", "a", "b", r))
            circuit.add(Resistor("R2", "b", "0", 2.0 * r))
            return Session(circuit).run(OP()).voltage("b")

        assert solve(v1) + solve(v2) == pytest.approx(
            solve(v1 + v2), rel=1e-7, abs=1e-9
        )

    @settings(max_examples=25, deadline=None)
    @given(
        i1=st.floats(min_value=1e-6, max_value=1e-3),
        scale=st.floats(min_value=0.1, max_value=10.0),
    )
    def test_linearity_in_current(self, i1, scale):
        def solve(value):
            circuit = Circuit()
            circuit.add(CurrentSource("I1", "0", "out", value))
            circuit.add(Resistor("R1", "out", "0", 3.3e3))
            return Session(circuit).run(OP()).voltage("out")

        assert solve(i1 * scale) == pytest.approx(solve(i1) * scale, rel=1e-7)


class TestNonlinearInvariants:
    @settings(max_examples=20, deadline=None)
    @given(
        v=st.floats(min_value=1.0, max_value=20.0),
        r=st.floats(min_value=100.0, max_value=1e5),
    )
    def test_diode_dissipation_positive(self, v, r):
        circuit = Circuit()
        circuit.add(VoltageSource("V1", "in", "0", v))
        circuit.add(Resistor("R1", "in", "d", r))
        circuit.add(Diode("D1", "d", "0"))
        op = Session(circuit).run(OP()).op
        # The diode conducts: its voltage is positive and below the rail.
        assert 0.0 < op.voltage("d") < v

    @settings(max_examples=20, deadline=None)
    @given(
        v=st.floats(min_value=2.0, max_value=10.0),
        n_diodes=st.integers(min_value=1, max_value=3),
    )
    def test_diode_stack_shares_voltage(self, v, n_diodes):
        # A stack of identical diodes splits the total junction voltage
        # equally.
        circuit = Circuit()
        circuit.add(VoltageSource("V1", "in", "0", v))
        circuit.add(Resistor("R1", "in", "d0", 1e4))
        for i in range(n_diodes):
            circuit.add(Diode(f"D{i}", f"d{i}", f"d{i + 1}" if i + 1 < n_diodes else "0"))
        op = Session(circuit).run(OP()).op
        drops = []
        for i in range(n_diodes):
            top = op.voltage(f"d{i}")
            bottom = op.voltage(f"d{i + 1}") if i + 1 < n_diodes else 0.0
            drops.append(top - bottom)
        assert np.allclose(drops, drops[0], atol=1e-6)

    @settings(max_examples=15, deadline=None)
    @given(t=st.floats(min_value=230.0, max_value=400.0))
    def test_warmer_diode_drops_less(self, t):
        def drop(temperature):
            circuit = Circuit()
            circuit.add(CurrentSource("I1", "0", "d", 1e-5))
            circuit.add(Diode("D1", "d", "0"))
            return Session(circuit).run(OP(temperature_k=temperature)).voltage("d")

        assert drop(t + 10.0) < drop(t)


# ----------------------------------------------------------------------
# Vectorized-vs-scalar device equivalence under random cards and biases
# ----------------------------------------------------------------------

#: Stamp-level matching tolerance of the two evaluator paths.
EQ_RTOL = 1e-12
EQ_ATOL = 1e-12

#: Random-but-physical BJT card draws.  ``inf`` draws for VAF/VAR/IKF
#: exercise the disabled-Early/disabled-knee branches of both paths.
bjt_cards = st.builds(
    BJTParameters,
    is_=st.floats(min_value=1e-18, max_value=1e-14),
    bf=st.floats(min_value=20.0, max_value=400.0),
    br=st.floats(min_value=0.5, max_value=10.0),
    nf=st.floats(min_value=0.9, max_value=1.2),
    nr=st.floats(min_value=0.9, max_value=1.2),
    ise=st.floats(min_value=1e-18, max_value=1e-14),
    ne=st.floats(min_value=1.2, max_value=2.2),
    vaf=st.one_of(st.just(float("inf")), st.floats(min_value=10.0, max_value=150.0)),
    var=st.one_of(st.just(float("inf")), st.floats(min_value=4.0, max_value=60.0)),
    ikf=st.one_of(st.just(float("inf")), st.floats(min_value=1e-4, max_value=1e-2)),
    rb=st.just(0.0),
    re=st.just(0.0),
    rc=st.just(0.0),
    eg=st.floats(min_value=0.8, max_value=1.3),
    xti=st.floats(min_value=2.0, max_value=4.0),
    xtb=st.floats(min_value=-1.0, max_value=1.5),
    polarity=st.sampled_from(["npn", "pnp"]),
)

biases = st.floats(min_value=-2.0, max_value=1.0)
temperatures = st.floats(min_value=220.0, max_value=420.0)


def _bjt_fixture(params):
    """One three-terminal BJT with every node registered via resistors."""
    circuit = Circuit("bjt under test")
    circuit.add(Resistor("RC", "c", "0", 1e5))
    circuit.add(Resistor("RB", "b", "0", 1e5))
    circuit.add(Resistor("RE", "e", "0", 1e5))
    circuit.add(SpiceBJT("Q1", "c", "b", "e", params))
    return circuit


def _diode_fixture(is_, n, eg, xti):
    circuit = Circuit("diode under test")
    circuit.add(Resistor("RA", "a", "0", 1e5))
    circuit.add(Resistor("RK", "k", "0", 1e5))
    circuit.add(Diode("D1", "a", "k", is_=is_, n=n, eg=eg, xti=xti))
    return circuit


def _assert_paths_match(circuit, x, temperature_k):
    from families import assert_stamps_close

    vectorized = MNASystem(circuit, temperature_k=temperature_k,
                           vectorized=True)
    scalar = MNASystem(circuit, temperature_k=temperature_k,
                       vectorized=False)
    assert vectorized.vectorized and not scalar.vectorized
    jv, fv = vectorized.assemble(x)
    js, fs = scalar.assemble(x)
    assert_stamps_close(jv, js)
    assert_stamps_close(fv, fs)
    rv = vectorized.assemble_residual(x)
    assert_stamps_close(rv, fs)
    return vectorized, jv, fv


def _assert_jacobian_matches_fd(system, x, jacobian, columns):
    """Central-difference cross-check of selected Jacobian columns.

    The junction residual spans ~15 decades over the bias draws, so the
    comparison is scaled: a column entry must match its FD estimate to
    0.1 % of the largest magnitude in that column (exponential curvature
    makes tighter absolute demands meaningless).
    """
    for col in columns:
        step = 1e-7 * max(1.0, abs(float(x[col])))
        probe = x.copy()
        probe[col] += step
        f_plus = system.assemble_residual(probe)
        probe[col] -= 2.0 * step
        f_minus = system.assemble_residual(probe)
        fd = (f_plus - f_minus) / (2.0 * step)
        analytic = jacobian[:, col]
        scale = max(float(np.max(np.abs(analytic))), 1e-12)
        np.testing.assert_allclose(
            analytic, fd, rtol=2e-3, atol=1e-3 * scale,
            err_msg=f"Jacobian column {col} disagrees with finite differences",
        )


class TestVectorizedScalarEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(params=bjt_cards, vc=biases, vb=biases, ve=biases, t=temperatures)
    def test_bjt_stamps_match(self, params, vc, vb, ve, t):
        circuit = _bjt_fixture(params)
        vectorized = MNASystem(circuit, temperature_k=t, vectorized=True)
        x = np.zeros(vectorized.size)
        x[circuit.node_index("c")] = vc
        x[circuit.node_index("b")] = vb
        x[circuit.node_index("e")] = ve
        _assert_paths_match(circuit, x, t)

    @settings(max_examples=25, deadline=None)
    @given(params=bjt_cards, vbe=st.floats(-0.6, 0.55),
           vbc=st.floats(-0.6, 0.55), ve=st.floats(-0.3, 0.3))
    def test_bjt_jacobian_matches_finite_differences(self, params, vbe, vbc, ve):
        """FD cross-check in the well-conditioned bias regime.

        The *junction* voltages are drawn directly (|forward bias| <=
        0.55 V -> junction currents below ~uA).  Past that, the
        exponential currents reach amps and the finite difference of
        the residual is dominated by float64 rounding of those huge
        near-cancelling terms (ulp(i)/2h), telling us nothing about the
        analytic derivatives; the deep-bias regime is covered by the
        exact vectorized-vs-scalar equivalence tests instead.
        """
        circuit = _bjt_fixture(params)
        vectorized = MNASystem(circuit, vectorized=True)
        sign = 1.0 if params.polarity == "npn" else -1.0
        x = np.zeros(vectorized.size)
        vb = ve + sign * vbe
        x[circuit.node_index("b")] = vb
        x[circuit.node_index("e")] = ve
        x[circuit.node_index("c")] = vb - sign * vbc
        system, jacobian, _ = _assert_paths_match(circuit, x, 300.15)
        columns = [circuit.node_index(node) for node in ("c", "b", "e")]
        _assert_jacobian_matches_fd(system, x, jacobian, columns)

    @settings(max_examples=40, deadline=None)
    @given(
        is_=st.floats(min_value=1e-18, max_value=1e-12),
        n=st.floats(min_value=0.9, max_value=2.2),
        eg=st.floats(min_value=0.8, max_value=1.3),
        xti=st.floats(min_value=2.0, max_value=4.0),
        va=biases, vk=biases, t=temperatures,
    )
    def test_diode_stamps_match(self, is_, n, eg, xti, va, vk, t):
        circuit = _diode_fixture(is_, n, eg, xti)
        vectorized = MNASystem(circuit, temperature_k=t, vectorized=True)
        x = np.zeros(vectorized.size)
        x[circuit.node_index("a")] = va
        x[circuit.node_index("k")] = vk
        _assert_paths_match(circuit, x, t)

    @settings(max_examples=20, deadline=None)
    @given(
        is_=st.floats(min_value=1e-18, max_value=1e-12),
        n=st.floats(min_value=0.9, max_value=2.2),
        va=st.floats(-0.5, 0.7), vk=st.floats(-0.5, 0.7),
    )
    def test_diode_jacobian_matches_finite_differences(self, is_, n, va, vk):
        circuit = _diode_fixture(is_, n, 1.11, 3.0)
        vectorized = MNASystem(circuit, vectorized=True)
        x = np.zeros(vectorized.size)
        x[circuit.node_index("a")] = va
        x[circuit.node_index("k")] = vk
        system, jacobian, _ = _assert_paths_match(circuit, x, 300.15)
        columns = [circuit.node_index(node) for node in ("a", "k")]
        _assert_jacobian_matches_fd(system, x, jacobian, columns)

    @settings(max_examples=15, deadline=None)
    @given(
        cards=st.lists(bjt_cards, min_size=2, max_size=6),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        t=temperatures,
    )
    def test_heterogeneous_bank_matches(self, cards, seed, t):
        """Many BJTs with *different* cards in one group: the packed
        parameter arrays must keep every device's own model."""
        circuit = Circuit("mixed bank")
        circuit.add(VoltageSource("V1", "vcc", "0", 3.0))
        for index, params in enumerate(cards):
            circuit.add(Resistor(f"R{index}", "vcc", f"e{index}", 50e3))
            circuit.add(SpiceBJT(f"Q{index}", "0", "0", f"e{index}", params))
        vectorized = MNASystem(circuit, temperature_k=t, vectorized=True)
        rng = np.random.default_rng(seed)
        x = rng.normal(0.3, 0.6, vectorized.size)
        _assert_paths_match(circuit, x, t)

    @settings(max_examples=10, deadline=None)
    @given(params=bjt_cards, scale=st.floats(min_value=3.0, max_value=40.0))
    def test_extreme_trial_points_stay_finite_and_matched(self, params, scale):
        """Wild Newton-trial iterates (far past the exp clamp) must stay
        finite and identical on both paths — no overflow warnings, no
        NaNs (the suite promotes warnings to errors)."""
        circuit = _bjt_fixture(params)
        vectorized = MNASystem(circuit, vectorized=True)
        rng = np.random.default_rng(7)
        x = rng.normal(0.0, scale, vectorized.size)
        _, jacobian, residual = _assert_paths_match(circuit, x, 300.15)
        assert np.all(np.isfinite(jacobian))
        assert np.all(np.isfinite(residual))
