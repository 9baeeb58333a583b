"""Cross-topology batches and the process fan-out helper.

``run_plans`` over distinct recipes must return exactly what one fresh
``Session`` per recipe returns, independent of worker count, and
``parallel_map`` must preserve item order and fall back to serial
execution gracefully.
"""

import numpy as np

from repro.circuits.bandgap_cell import BandgapCellConfig, build_bandgap_cell
from repro.parallel import parallel_map, resolve_workers
from repro.spice import SessionRecipe, TempSweep, run_plans
from repro.units import celsius_to_kelvin

TEMPS = tuple(celsius_to_kelvin(t) for t in (-20.0, 25.0, 85.0))


class TestParallelMap:
    def test_preserves_order_serial(self):
        assert parallel_map(abs, [-3, 1, -2], max_workers=1) == [3, 1, 2]

    def test_preserves_order_with_workers(self):
        # celsius_to_kelvin is a module-level (picklable) function, so
        # this exercises the real process pool where the host allows it
        # and the serial fallback where it does not — identical output
        # either way, which is the contract under test.
        values = [0.0, 25.0, 100.0, -40.0]
        expected = [celsius_to_kelvin(v) for v in values]
        assert parallel_map(celsius_to_kelvin, values, max_workers=2) == expected

    def test_unpicklable_work_falls_back_to_serial(self):
        offset = 10

        def local_closure(value):  # not picklable: defined in a test body
            return value + offset

        assert parallel_map(local_closure, [1, 2], max_workers=2) == [11, 12]

    def test_worker_resolution(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(None) == 1
        assert resolve_workers(3) == 3
        assert resolve_workers(0) >= 1  # all cores
        monkeypatch.setenv("REPRO_WORKERS", "2")
        assert resolve_workers(None) == 2
        monkeypatch.setenv("REPRO_WORKERS", "nonsense")
        assert resolve_workers(None) == 1


class TestRunPlansBatch:
    def _pairs(self):
        # build_bandgap_cell is module-level and takes plain-data
        # arguments, so the recipes survive a process boundary even
        # though the built circuit holds closures.  Two distinct
        # configurations make two session groups, so neither sweep
        # warm-starts off the other.
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
        batch = run_plans(self._pairs(), workers=1)
        for (recipe, plan), result in zip(self._pairs(), batch):
            sequential = recipe.build().run(plan)
            np.testing.assert_allclose(
                result.voltage("vref"), sequential.voltage("vref"), atol=1e-9
            )
            assert [p.strategy for p in result.points] == [
                p.strategy for p in sequential.points
            ]

    def test_worker_count_does_not_change_results(self):
        serial = run_plans(self._pairs(), workers=1)
        fanned = run_plans(self._pairs(), workers=2)
        for a, b in zip(serial, fanned):
            np.testing.assert_allclose(
                a.voltage("vref"), b.voltage("vref"), atol=0.0
            )

    def test_rehydrated_points_expose_named_accessors(self):
        # Fanned results cross the process boundary as payloads and are
        # rebuilt against the parent-side sessions.
        for result in run_plans(self._pairs(), workers=2):
            assert len(result) == len(TEMPS)
            point = result.points[1]
            assert point.temperature_k == TEMPS[1]
            assert 1.1 < point.voltage("vref") < 1.3
            assert point.iterations > 0


class TestMonteCarloFanOut:
    def test_worker_count_does_not_change_summary(self):
        from repro.analysis.montecarlo import run_extraction_montecarlo

        serial = run_extraction_montecarlo(lot_size=3, include_noise=False)
        fanned = run_extraction_montecarlo(
            lot_size=3, include_noise=False, max_workers=2
        )
        np.testing.assert_allclose(serial.eg_values, fanned.eg_values, atol=0.0)
        np.testing.assert_allclose(serial.xti_values, fanned.xti_values, atol=0.0)
