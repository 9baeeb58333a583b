"""Tests for the frequency-domain small-signal subsystem.

Closed-form anchors (RC low-pass, RC divider), the C-matrix contract
(analytic stamps vs finite differences on ``charge_at``, including the
base-class fallback), the factorization-reuse policy, temperature
chains and cross-topology batches, and the single-pole op-amp model.
"""

import numpy as np
import pytest

#: The AC linearisation (G from the compiled Jacobian, C from grouped
#: or scalar ac_stamp) runs on both evaluator paths via the conftest
#: fixture.
pytestmark = pytest.mark.usefixtures("device_eval_path")

from repro.errors import NetlistError
from repro.spice import (
    ACSweep,
    ACSystem,
    Capacitor,
    Circuit,
    CurrentSource,
    OpAmp,
    Resistor,
    Session,
    SessionRecipe,
    SolverOptions,
    VoltageSource,
    log_frequencies,
    run_plans,
    solve_dc,
)
from repro.spice.elements.base import Element
from repro.spice.mna import MNASystem
from repro.spice.stats import STATS

#: Tight gmin so the analytic comparisons are not polluted by the
#: gmin-to-ground leakage (gmin * R ~ 1e-9 relative at the default).
TIGHT = SolverOptions(gmin=1e-18)


def rc_lowpass(r=1e3, c=1e-9):
    circuit = Circuit("rc lowpass")
    circuit.add(VoltageSource("V1", "in", "0", 1.0, ac_mag=1.0))
    circuit.add(Resistor("R1", "in", "out", r))
    circuit.add(Capacitor("C1", "out", "0", c))
    return circuit


class TestRCLowPass:
    R, C = 1e3, 1e-9

    def corner_hz(self):
        return 1.0 / (2.0 * np.pi * self.R * self.C)

    def test_matches_closed_form_across_five_decades(self):
        freqs = log_frequencies(1e3, 1e8, points_per_decade=7)
        result = Session(rc_lowpass(self.R, self.C), options=TIGHT).run(
            ACSweep(frequencies_hz=freqs)
        ).ac_results[0]
        measured = result.phasor("out")
        exact = 1.0 / (1.0 + 2j * np.pi * freqs * self.R * self.C)
        np.testing.assert_allclose(measured, exact, rtol=1e-9)

    def test_magnitude_and_phase_at_the_corner(self):
        result = Session(rc_lowpass(self.R, self.C), options=TIGHT).run(
            ACSweep(frequencies_hz=[self.corner_hz()])
        ).ac_results[0]
        phasor = result.phasor("out")[0]
        assert abs(phasor) == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-9)
        assert np.degrees(np.angle(phasor)) == pytest.approx(-45.0, rel=1e-9)

    def test_corner_extraction(self):
        freqs = log_frequencies(1e3, 1e8, points_per_decade=20)
        result = Session(rc_lowpass(self.R, self.C), options=TIGHT).run(
            ACSweep(frequencies_hz=freqs)
        ).ac_results[0]
        # The half-power point is 10*log10(2) = 3.0103 dB down; the
        # round "-3 dB" default lands 0.24% below the true corner.
        corner = result.corner_frequency("out", drop_db=10.0 * np.log10(2.0))
        assert corner == pytest.approx(self.corner_hz(), rel=1e-3)
        nominal = result.corner_frequency("out")
        assert nominal == pytest.approx(self.corner_hz(), rel=5e-3)

    def test_input_node_is_the_excitation(self):
        result = Session(rc_lowpass(), options=TIGHT).run(
            ACSweep(frequencies_hz=[1e4])
        ).ac_results[0]
        assert result.phasor("in")[0] == pytest.approx(1.0 + 0.0j, rel=1e-12)

    def test_bode_shape(self):
        freqs = log_frequencies(1e3, 1e6, points_per_decade=3)
        result = Session(rc_lowpass(), options=TIGHT).run(
            ACSweep(frequencies_hz=freqs)
        ).ac_results[0]
        f, mag, phase = result.bode("out")
        assert len(f) == len(mag) == len(phase) == len(freqs)
        assert np.all(np.diff(mag) < 0.0)
        assert np.all(np.diff(phase) < 0.0)


class TestRCDivider:
    def divider(self):
        circuit = Circuit("resistive divider")
        circuit.add(VoltageSource("V1", "in", "0", 1.0, ac_mag=1.0))
        circuit.add(Resistor("R1", "in", "mid", 3e3))
        circuit.add(Resistor("R2", "mid", "0", 1e3))
        return circuit

    def test_flat_across_frequency_at_the_dc_ratio(self):
        freqs = log_frequencies(1.0, 1e9, points_per_decade=3)
        result = Session(self.divider(), options=TIGHT).run(
            ACSweep(frequencies_hz=freqs)
        ).ac_results[0]
        measured = result.phasor("mid")
        np.testing.assert_allclose(measured, 0.25 + 0.0j, rtol=1e-9)

    def test_resistive_sweep_factors_once(self):
        STATS.reset()
        freqs = log_frequencies(1.0, 1e6, points_per_decade=2)
        Session(self.divider(), options=TIGHT).run(ACSweep(frequencies_hz=freqs))
        assert STATS.ac_solves == len(freqs)
        assert STATS.ac_factorizations == 1
        assert STATS.ac_factor_reuses == len(freqs) - 1

    def test_reactive_sweep_factors_per_frequency(self):
        STATS.reset()
        freqs = log_frequencies(1e3, 1e6, points_per_decade=2)
        Session(rc_lowpass(), options=TIGHT).run(ACSweep(frequencies_hz=freqs))
        assert STATS.ac_factorizations == len(freqs)
        assert STATS.ac_factor_reuses == 0


class _SquareLawCapacitor(Element):
    """Two-terminal dynamic element with charge q = k*v + 0.5*g*v^2 and
    NO analytic ac_stamp — exercises the finite-difference fallback."""

    is_dynamic = True
    is_linear = False

    def __init__(self, name, a, b, k, g):
        super().__init__(name, (a, b))
        self.k = k
        self.g = g

    def _dv(self, x):
        a, b = self._node_idx
        va = float(x[a]) if a >= 0 else 0.0
        vb = float(x[b]) if b >= 0 else 0.0
        return va - vb

    def charge_at(self, x):
        v = self._dv(x)
        return self.k * v + 0.5 * self.g * v * v

    def charge_scale(self):
        return self.k

    def stamp(self, stamp):
        return None  # open at DC, like the linear capacitor


class TestCMatrixContract:
    def test_linear_capacitor_analytic_equals_fd_fallback(self):
        """The Capacitor's analytic stamp and the base-class FD fallback
        must produce the same C matrix."""
        circuit = rc_lowpass()
        raw = solve_dc(circuit)
        system = MNASystem(circuit)
        analytic = ACSystem(system, raw.x).C

        fd = np.zeros_like(analytic)

        class _Probe:
            x = raw.x
            temperature_k = 300.15

            @staticmethod
            def add_capacitance(row, col, value):
                if row >= 0 and col >= 0:
                    fd[row, col] += value

        Element.ac_stamp(circuit.element("C1"), _Probe)
        np.testing.assert_allclose(fd, analytic, rtol=1e-6)

    def test_fd_fallback_matches_derivative_of_nonlinear_charge(self):
        """dQ/dV of a nonlinear charge law, at a non-zero bias."""
        circuit = Circuit("nonlinear cap")
        circuit.add(VoltageSource("V1", "a", "0", 2.0, ac_mag=1.0))
        circuit.add(Resistor("R1", "a", "b", 1e3))
        k, g = 1e-9, 3e-10
        circuit.add(_SquareLawCapacitor("CN", "b", "0", k, g))
        raw = solve_dc(circuit)
        system = MNASystem(circuit)
        ac_system = ACSystem(system, raw.x)
        b_index = circuit.node_index("b")
        v_b = raw.x[b_index]  # ~2 V: the capacitor is open at DC
        expected = k + g * v_b
        assert ac_system.C[b_index, b_index] == pytest.approx(expected, rel=1e-6)

    def test_bandgap_cell_c_matrix_matches_charge_at_derivatives(self):
        """Acceptance check: on the AC-ready bandgap cell, every dynamic
        element's C contribution equals the central finite difference of
        its charge_at around the solved operating point."""
        from repro.experiments.ac_common import build_psrr_cell

        circuit = build_psrr_cell()
        raw = solve_dc(circuit)
        system = MNASystem(circuit)
        ac_system = ACSystem(system, raw.x)

        fd = np.zeros_like(ac_system.C)
        analytic_dynamic = np.zeros_like(ac_system.C)

        class _Collect:
            x = raw.x
            temperature_k = system.temperature_k

            @staticmethod
            def add_capacitance(row, col, value):
                if row >= 0 and col >= 0:
                    analytic_dynamic[row, col] += value

            @staticmethod
            def add_two_terminal_capacitance(a, b, c):
                _Collect.add_capacitance(a, a, c)
                _Collect.add_capacitance(a, b, -c)
                _Collect.add_capacitance(b, a, -c)
                _Collect.add_capacitance(b, b, c)

            @staticmethod
            def add_rhs(row, value):
                return None

        for element in circuit.elements:
            if not element.is_dynamic:
                continue
            element.ac_stamp(_Collect)  # the analytic stamps
            Element.ac_stamp(element, _FD(fd, raw.x))  # the FD fallback
        np.testing.assert_allclose(fd, analytic_dynamic, rtol=1e-6, atol=1e-22)

    def test_capacitance_slots_cover_actual_entries(self):
        """No element may under-declare its C footprint (the COO buffers
        are sized from capacitance_slots)."""
        from repro.experiments.ac_common import build_loop_gain_cell, build_psrr_cell

        from repro.spice.elements.base import ACStamp

        class _Count(ACStamp):
            __slots__ = ("n",)

            def __init__(self, x, temperature_k):
                super().__init__(x, temperature_k, None, None)
                self.n = 0

            def add_capacitance(self, row, col, value):
                if row >= 0 and col >= 0:
                    self.n += 1

            def add_rhs(self, row, value):
                return None

        for circuit in (build_psrr_cell(), build_loop_gain_cell(0.57, 0.52)):
            raw = solve_dc(circuit)
            system = MNASystem(circuit)
            for element in circuit.elements:
                counter = _Count(raw.x, system.temperature_k)
                element.ac_stamp(counter)
                assert counter.n <= element.capacitance_slots(), element.name


class _FD:
    """Finite-difference C collector reusing the base-class fallback."""

    def __init__(self, matrix, x):
        self.matrix = matrix
        self.x = x
        self.temperature_k = 300.15

    def add_capacitance(self, row, col, value):
        if row >= 0 and col >= 0:
            self.matrix[row, col] += value


class TestOpAmpPole:
    def test_open_loop_single_pole_corner(self):
        gain, pole = 200.0, 1e4
        circuit = Circuit("open-loop amp")
        circuit.add(VoltageSource("VIN", "in", "0", 0.0, ac_mag=1.0))
        circuit.add(
            OpAmp("A1", "in", "0", "out", gain=gain, rail_low=-5.0,
                  rail_high=5.0, pole_hz=pole)
        )
        freqs = log_frequencies(1e2, 1e7, points_per_decade=10)
        result = Session(circuit, options=TIGHT).run(
            ACSweep(frequencies_hz=freqs)
        ).ac_results[0]
        measured = result.phasor("out")
        exact = gain / (1.0 + 1j * freqs / pole)
        np.testing.assert_allclose(measured, exact, rtol=1e-9)

    def test_no_pole_means_frequency_flat(self):
        circuit = Circuit("flat amp")
        circuit.add(VoltageSource("VIN", "in", "0", 0.0, ac_mag=1.0))
        circuit.add(
            OpAmp("A1", "in", "0", "out", gain=50.0, rail_low=-5.0, rail_high=5.0)
        )
        result = Session(circuit, options=TIGHT).run(
            ACSweep(frequencies_hz=log_frequencies(1.0, 1e9, 2))
        ).ac_results[0]
        np.testing.assert_allclose(result.phasor("out"), 50.0 + 0.0j, rtol=1e-9)

    def test_rejects_non_positive_pole(self):
        with pytest.raises(NetlistError):
            OpAmp("A1", "p", "n", "o", pole_hz=0.0)


class TestCurrentExcitation:
    def test_unit_current_reads_impedance(self):
        circuit = Circuit("parallel rc")
        r, c = 2e3, 1e-9
        circuit.add(Resistor("R1", "n", "0", r))
        circuit.add(Capacitor("C1", "n", "0", c))
        circuit.add(CurrentSource("I1", "0", "n", 0.0, ac_mag=1.0))
        freqs = log_frequencies(1e3, 1e7, points_per_decade=5)
        result = Session(circuit, options=TIGHT).run(
            ACSweep(frequencies_hz=freqs)
        ).ac_results[0]
        exact = r / (1.0 + 2j * np.pi * freqs * r * c)
        np.testing.assert_allclose(result.phasor("n"), exact, rtol=1e-9)


class TestSourceValueSplit:
    def test_dc_and_ac_values_are_independent_channels(self):
        source = VoltageSource("V1", "a", "0", 3.3, ac_mag=2.0, ac_phase_deg=90.0)
        assert source.dc_value(300.0) == pytest.approx(3.3)
        assert source.ac_value() == pytest.approx(2.0j)
        assert source.waveform is None

    def test_value_at_alias_preserved(self):
        source = CurrentSource("I1", "a", "0", 1e-3)
        assert source.value_at(300.0) == source.dc_value(300.0) == pytest.approx(1e-3)
        assert source.ac_value() == 0.0

    def test_waveform_property_exposes_time_varying_sources(self):
        from repro.spice import Pulse

        wave = Pulse(0.0, 5.0, delay=1e-6, rise=1e-6)
        source = VoltageSource("V1", "a", "0", wave)
        assert source.waveform is wave
        assert source.dc_value(300.0) == pytest.approx(0.0)
        assert source.dc_value(300.0, time=1e-3) == pytest.approx(5.0)

    def test_negative_ac_magnitude_rejected(self):
        with pytest.raises(NetlistError):
            VoltageSource("V1", "a", "0", 1.0, ac_mag=-1.0)

    def test_phase_convention(self):
        source = CurrentSource("I1", "a", "0", 0.0, ac_mag=1.0, ac_phase_deg=-90.0)
        assert source.ac_value() == pytest.approx(-1.0j)


class TestACBatch:
    FREQS = tuple(log_frequencies(1e3, 1e6, 2))

    def test_chain_results_match_direct_analysis(self):
        temperatures = (280.0, 300.0, 320.0)
        plan = ACSweep(frequencies_hz=self.FREQS, temperatures_k=temperatures)
        results = Session(rc_lowpass).run(plan).ac_results
        assert len(results) == 3
        for temperature, result in zip(temperatures, results):
            direct = Session(rc_lowpass()).run(
                ACSweep(frequencies_hz=self.FREQS, temperatures_k=(temperature,))
            ).ac_results[0]
            np.testing.assert_allclose(result.x, direct.x, rtol=1e-12)

    def test_batch_equals_serial_chains(self):
        plan = ACSweep(frequencies_hz=self.FREQS)
        recipes = [
            SessionRecipe(builder=rc_lowpass, args=(1e3, capacitance))
            for capacitance in (1e-9, 2e-9)
        ]
        batches = run_plans([(recipe, plan) for recipe in recipes])
        for recipe, batch in zip(recipes, batches):
            expected = recipe.build().run(plan).ac_results
            assert len(batch.ac_results) == len(expected)
            for got, want in zip(batch.ac_results, expected):
                np.testing.assert_allclose(got.x, want.x, rtol=1e-12)
                assert got.op.strategy == want.op.strategy

    def test_batch_rehydrates_named_accessors(self):
        # Two distinct recipes fan out to two worker processes, so each
        # result comes back as a payload rehydrated against the parent's
        # session.
        plan = ACSweep(frequencies_hz=self.FREQS)
        recipes = [
            SessionRecipe(builder=rc_lowpass, args=(1e3, capacitance))
            for capacitance in (1e-9, 2e-9)
        ]
        batches = run_plans([(recipe, plan) for recipe in recipes], workers=2)
        for batch in batches:
            [result] = batch.ac_results
            assert result.phasor("out").shape == (len(self.FREQS),)
            assert result.op.voltage("in") == pytest.approx(1.0)


class TestValidation:
    def test_rejects_empty_frequency_grid(self):
        with pytest.raises(NetlistError):
            Session(rc_lowpass()).run(ACSweep(frequencies_hz=[]))

    def test_rejects_negative_frequency(self):
        with pytest.raises(NetlistError):
            Session(rc_lowpass()).run(ACSweep(frequencies_hz=[-1.0]))

    def test_zero_frequency_is_the_dc_limit(self):
        result = Session(rc_lowpass(), options=TIGHT).run(
            ACSweep(frequencies_hz=[0.0, 1.0])
        ).ac_results[0]
        assert result.phasor("out")[0] == pytest.approx(1.0 + 0.0j, rel=1e-9)

    def test_crossing_bracketed_by_zero_frequency_is_finite(self):
        # A grid starting at 0 Hz has no log coordinate for its first
        # interval; the crossing must come back finite (linear interp),
        # never NaN.
        result = Session(rc_lowpass(), options=TIGHT).run(
            ACSweep(frequencies_hz=[0.0, 1e6, 1e7, 1e8])
        ).ac_results[0]
        corner = result.corner_frequency("out")
        assert corner is not None and np.isfinite(corner)
        assert 0.0 < corner < 1e6

    def test_log_frequencies_validation(self):
        with pytest.raises(NetlistError):
            log_frequencies(0.0, 1e3)
        with pytest.raises(NetlistError):
            log_frequencies(1e4, 1e3)
