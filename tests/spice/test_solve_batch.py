"""Cross-topology batches and the process fan-out helper.

``run_plans`` over distinct recipes must return exactly what one fresh
``Session`` per recipe returns, independent of how many worker
processes the pairs are mapped over, and a policy-free
``supervised_map`` must preserve item order and fall back to serial
execution gracefully.
"""

import os

import numpy as np

from repro.circuits.bandgap_cell import BandgapCellConfig, build_bandgap_cell
from repro.parallel import resolve_workers, supervised_map
from repro.spice import SessionRecipe, TempSweep, run_plans
from repro.units import celsius_to_kelvin

TEMPS = tuple(celsius_to_kelvin(t) for t in (-20.0, 25.0, 85.0))


def mapped(func, items, max_workers):
    return [o.value for o in supervised_map(func, items, max_workers=max_workers)]


def vref_points(pair):
    """Pool work: one ``(recipe, TempSweep)`` pair, its points as plain
    data.  The built bandgap cell holds closures, so its results cannot
    cross the pool; their readings can."""
    result = run_plans([pair])[0]
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
        # Two distinct configurations make two session groups, so
        # neither sweep warm-starts off the other.
        return [
            (
                SessionRecipe(builder=build_bandgap_cell, args=(config,)),
                TempSweep(temperatures_k=temps),
            )
            for config, temps in (
                (BandgapCellConfig(), TEMPS),
                (BandgapCellConfig(radja=2.7e3), TEMPS[::-1]),
            )
        ]

    def test_matches_one_session_per_recipe(self):
        batch = run_plans(self._pairs())
        for (recipe, plan), result in zip(self._pairs(), batch):
            sequential = recipe.build().run(plan)
            np.testing.assert_allclose(
                result.voltage("vref"), sequential.voltage("vref"), atol=1e-9
            )
            assert [p.strategy for p in result.points] == [
                p.strategy for p in sequential.points
            ]

    def test_worker_count_does_not_change_results(self):
        serial = run_plans(self._pairs())
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


class TestMonteCarloFanOut:
    def test_worker_count_does_not_change_summary(self):
        from repro.analysis.montecarlo import run_extraction_montecarlo

        serial = run_extraction_montecarlo(lot_size=3, include_noise=False)
        fanned = run_extraction_montecarlo(
            lot_size=3, include_noise=False, max_workers=2
        )
        np.testing.assert_allclose(serial.eg_values, fanned.eg_values, atol=0.0)
        np.testing.assert_allclose(serial.xti_values, fanned.xti_values, atol=0.0)
