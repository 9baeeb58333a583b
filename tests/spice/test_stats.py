"""Tests for the SolverStats lifecycle: reset / as_dict round-trip,
snapshot-delta bookkeeping, cross-accumulator merge, and the fanned-vs-
serial counter-equality regression that the worker telemetry merge
exists to guarantee.

Everything here is field-driven on purpose: a counter added to
``SolverStats`` must round-trip, reset, and merge without this file
changing — the dataclass fields are the single source of truth.
"""

from dataclasses import fields

from repro.parallel import supervised_map
from repro.spice import OP, Session, TempSweep
from repro.spice import Circuit, Diode, Resistor, VoltageSource
from repro.spice.stats import STATS, SolverStats


def diode_circuit():
    c = Circuit("diode under drive")
    c.add(VoltageSource("V1", "in", "0", 5.0))
    c.add(Resistor("R1", "in", "d", 1e3))
    c.add(Diode("D1", "d", "0"))
    return c


def rc_circuit():
    c = Circuit("rc divider")
    c.add(VoltageSource("V1", "in", "0", 1.0))
    c.add(Resistor("R1", "in", "out", 1e3))
    c.add(Resistor("R2", "out", "0", 1e3))
    return c


def run_pair(item):
    """Pool work: one ``(builder, args, plan)`` item on its own session
    (module-level, so it pickles)."""
    builder, args, plan = item
    Session(builder, args=args).run(plan)


def distinct_stats() -> SolverStats:
    """A SolverStats with every scalar field set to a distinct value."""
    stats = SolverStats()
    for position, spec in enumerate(fields(stats)):
        if spec.name == "strategies":
            stats.strategies = {"newton": 3, "gain-stepping": 5}
        else:
            setattr(stats, spec.name, 10 + position)
    return stats


class TestRoundTrip:
    def test_as_dict_covers_every_field(self):
        stats = distinct_stats()
        snapshot = stats.as_dict()
        assert set(snapshot) == {spec.name for spec in fields(stats)}
        for spec in fields(stats):
            assert snapshot[spec.name] == getattr(stats, spec.name)

    def test_as_dict_copies_the_strategies_dict(self):
        stats = distinct_stats()
        snapshot = stats.as_dict()
        snapshot["strategies"]["newton"] = 999
        assert stats.strategies["newton"] == 3

    def test_merge_of_a_snapshot_reproduces_the_original(self):
        stats = distinct_stats()
        rebuilt = SolverStats()
        rebuilt.merge(stats.as_dict())
        assert rebuilt.as_dict() == stats.as_dict()

    def test_reset_zeroes_every_field(self):
        stats = distinct_stats()
        stats.reset()
        for spec in fields(stats):
            expected = {} if spec.name == "strategies" else 0
            assert getattr(stats, spec.name) == expected, spec.name

    def test_snapshot_is_an_alias_of_as_dict(self):
        stats = distinct_stats()
        assert stats.snapshot() == stats.as_dict()


class TestDeltaAndMerge:
    def test_delta_since_reports_movement_with_zeros(self):
        stats = SolverStats()
        before = stats.snapshot()
        stats.iterations += 7
        stats.record_strategy("newton")
        delta = stats.delta_since(before)
        assert delta["iterations"] == 7
        assert delta["newton_solves"] == 0  # zeros included by contract
        assert delta["strategies"] == {"newton": 1}

    def test_delta_since_diffs_preexisting_strategy_counts(self):
        stats = SolverStats()
        stats.record_strategy("newton")
        before = stats.snapshot()
        stats.record_strategy("newton")
        stats.record_strategy("gmin-stepping")
        delta = stats.delta_since(before)
        assert delta["strategies"] == {"gmin-stepping": 1, "newton": 1}

    def test_delta_since_drops_strategies_that_did_not_move(self):
        # A strategy already in the baseline that did not move is left
        # out, as the telemetry span deltas leave it out; scalar fields
        # keep their zeros.
        stats = SolverStats()
        stats.record_strategy("gain-stepping")
        before = stats.snapshot()
        stats.record_strategy("newton")
        delta = stats.delta_since(before)
        assert delta["strategies"] == {"newton": 1}
        assert delta["newton_solves"] == 0

    def test_merge_adds_solverstats_and_mappings_alike(self):
        target = distinct_stats()
        expected = {
            name: (
                {key: 2 * count for key, count in value.items()}
                if isinstance(value, dict)
                else 2 * value
            )
            for name, value in target.as_dict().items()
        }
        target.merge(distinct_stats())  # SolverStats operand
        assert target.as_dict() == expected
        target.merge(SolverStats().as_dict())  # zero mapping operand
        assert target.as_dict() == expected

    def test_merge_unions_strategy_keys(self):
        target = SolverStats()
        target.record_strategy("newton")
        target.merge({"strategies": {"newton": 2, "source-stepping": 1}})
        assert target.strategies == {"newton": 3, "source-stepping": 1}

    def test_merge_ignores_missing_keys(self):
        target = distinct_stats()
        before = target.as_dict()
        target.merge({"iterations": 1})
        assert target.iterations == before["iterations"] + 1
        assert target.newton_solves == before["newton_solves"]


def _sweep_pairs():
    return [
        (diode_circuit, (), TempSweep(temperatures_k=(280.0, 300.0, 320.0))),
        (rc_circuit, (), OP()),
    ]


def _stats_after_map(workers):
    STATS.reset()
    supervised_map(run_pair, _sweep_pairs(), max_workers=workers)
    return STATS.as_dict()


class TestFannedCountersMatchSerial:
    """Worker STATS deltas ship home in the pool envelope and merge, so
    the process counters after a fanned map of plan work equal the
    serial map's — the regression the telemetry transport pins down."""

    def test_supervised_map_workers_count(self):
        serial = _stats_after_map(workers=None)
        fanned = _stats_after_map(workers=2)
        assert fanned == serial
        assert serial["session_plans"] == 2
        assert serial["newton_solves"] >= 2

    def test_fanned_pairs_count_like_one_run_plans_call(self):
        # Each pair runs on a session of its own, so mapping the pairs
        # one per worker does the work of running them in a plain
        # in-process loop, counter for counter.
        STATS.reset()
        for item in _sweep_pairs():
            run_pair(item)
        in_process = STATS.as_dict()
        assert _stats_after_map(workers=2) == in_process
        assert in_process["op_cache_misses"] >= 2
