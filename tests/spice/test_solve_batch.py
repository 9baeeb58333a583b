"""Cross-topology batches and the process fan-out helper.

One fresh ``Session`` per configuration must return the same sweep
independent of how many worker processes the configurations are
mapped over, and a policy-free ``supervised_map`` must preserve item
order and fall back to serial execution gracefully.
"""

import os

import numpy as np

from repro.circuits.bandgap_cell import BandgapCellConfig, build_bandgap_cell
from repro.parallel import resolve_workers, supervised_map
from repro.spice import Session, TempSweep
from repro.units import celsius_to_kelvin

TEMPS = tuple(celsius_to_kelvin(t) for t in (-20.0, 25.0, 85.0))


def mapped(func, items, max_workers):
    return [o.value for o in supervised_map(func, items, max_workers=max_workers)]


def run_pair(item):
    """One ``(builder, args, plan)`` item on its own session."""
    builder, args, plan = item
    return Session(builder, args=args).run(plan)


def vref_points(item):
    """Pool work: one ``(builder, args, TempSweep)`` item, its points as
    plain data.  The built bandgap cell holds closures, so its results
    cannot cross the pool; their readings can."""
    result = run_pair(item)
    return [
        (point.temperature_k, point.voltage("vref"), point.iterations, point.strategy)
        for point in result.points
    ]


class _EveryVariableSet(dict):
    """An environment in which every variable reads "2"."""

    def get(self, key, default=None):
        return "2"

    def __getitem__(self, key):
        return "2"

    def __contains__(self, key):
        return True


class TestPolicyFreeMap:
    def test_preserves_order_serial(self):
        assert mapped(abs, [-3, 1, -2], max_workers=1) == [3, 1, 2]

    def test_preserves_order_with_workers(self):
        # celsius_to_kelvin is a module-level (picklable) function, so
        # this exercises the real process pool where the host allows it
        # and the serial fallback where it does not — identical output
        # either way, which is the contract under test.
        temps = [0.0, 25.0, 100.0, -40.0]
        expected = [celsius_to_kelvin(v) for v in temps]
        assert mapped(celsius_to_kelvin, temps, max_workers=2) == expected

    def test_unpicklable_work_falls_back_to_serial(self):
        offset = 10

        def local_closure(value):  # not picklable: defined in a test body
            return value + offset

        assert mapped(local_closure, [1, 2], max_workers=2) == [11, 12]

    def test_worker_resolution(self, monkeypatch):
        # The count is the argument alone: with every environment
        # variable set to 2 — the retired worker-count variable among
        # them — None still means serial.
        monkeypatch.setattr(os, "environ", _EveryVariableSet())
        assert resolve_workers(None) == 1
        assert resolve_workers(3) == 3
        assert resolve_workers(0) >= 1  # all cores
        assert resolve_workers(-1) == resolve_workers(0)


class TestRunPlansBatch:
    def _pairs(self):
        # Two distinct configurations, each on a session of its own, so
        # neither sweep warm-starts off the other.
        return [
            (build_bandgap_cell, (config,), TempSweep(temperatures_k=temps))
            for config, temps in (
                (BandgapCellConfig(), TEMPS),
                (BandgapCellConfig(radja=2.7e3), TEMPS[::-1]),
            )
        ]

    def test_results_do_not_depend_on_run_order(self):
        # The sessions share no solved points, so running the
        # configurations in the other order changes no reading.
        forward = [vref_points(item) for item in self._pairs()]
        backward = [vref_points(item) for item in reversed(self._pairs())]
        assert forward == backward[::-1]

    def test_worker_count_does_not_change_results(self):
        serial = [run_pair(item) for item in self._pairs()]
        outcomes = supervised_map(vref_points, self._pairs(), max_workers=2)
        assert all(outcome.worker_pid != os.getpid() for outcome in outcomes)
        for result, outcome in zip(serial, outcomes):
            points = outcome.value
            np.testing.assert_allclose(
                [vref for _t, vref, _i, _s in points],
                result.voltage("vref"),
                atol=0.0,
            )
            assert [s for _t, _v, _i, s in points] == [
                p.strategy for p in result.points
            ]

    def test_fanned_points_carry_their_readings(self):
        for points in mapped(vref_points, self._pairs(), max_workers=2):
            assert len(points) == len(TEMPS)
            temperature_k, vref, iterations, _strategy = points[1]
            assert temperature_k == TEMPS[1]
            assert 1.1 < vref < 1.3
            assert iterations > 0

