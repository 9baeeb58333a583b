"""Tests for what a session's store flush hands the store.

:meth:`Session.flush_store` offers :meth:`CacheStore.absorb` the
points inserted since the last flush that returned, so a flush with
nothing new hands it an empty list.  A failed flush leaves its points
to the next one, a compaction makes the next flush offer the whole
cache (so a point compaction dropped is appended again), and the
store's own dedupe still holds across sessions sharing it.
"""

import json

import pytest

from repro.serve.cachestore import CacheStore
from repro.serve.jobs import JobService
from repro.spice import Circuit, Diode, OP, Resistor, Session, VoltageSource
from repro.spice.stats import STATS


def diode_circuit():
    c = Circuit("flush diode")
    c.add(VoltageSource("V1", "in", "0", 5.0))
    c.add(Resistor("R1", "in", "d", 1e3))
    c.add(Diode("D1", "d", "0"))
    return c


NETLIST = ".model DM D (IS=1e-15 N=1.0)\nV1 in 0 5\nR1 in d 1k\nD1 d 0 DM\n"


@pytest.fixture(autouse=True)
def _reset_stats():
    STATS.reset()
    yield
    STATS.reset()


class RecordingStore(CacheStore):
    """A store that records the temperatures of every absorb call."""

    def __init__(self, path, **kwargs):
        super().__init__(path, **kwargs)
        self.calls = []

    def absorb(self, exported):
        self.calls.append([key[4] for key, _value in exported])
        return super().absorb(exported)


def stored_temperatures(path):
    lines = path.read_text().splitlines()[1:]
    return [json.loads(line)["k"][4] for line in lines]


class TestFlushOffersOnlyNewPoints:
    def test_a_flush_with_nothing_new_hands_absorb_an_empty_list(self, tmp_path):
        store = RecordingStore(tmp_path / "op.jsonl")
        session = Session(diode_circuit(), store=store)
        session.run(OP(temperature_k=300.0))
        session.run(OP(temperature_k=310.0))
        assert session.flush_store() == 2
        session.run(OP(temperature_k=300.0))  # an exact hit: nothing new
        assert session.flush_store() == 0
        session.run(OP(temperature_k=320.0))
        assert session.flush_store() == 1
        assert store.calls == [[300.0, 310.0], [], [320.0]]
        assert STATS.op_store_flushes == 3  # absorb ran on every flush

    @pytest.mark.parametrize("solve_after_failure", [False, True])
    def test_a_failed_flush_leaves_its_points_for_the_next(
        self, tmp_path, monkeypatch, solve_after_failure
    ):
        path = tmp_path / "op.jsonl"
        store = RecordingStore(path)
        session = Session(diode_circuit(), store=store)
        session.run(OP(temperature_k=300.0))

        def refuse(exported):
            raise OSError("disk full")

        monkeypatch.setattr(store, "absorb", refuse)
        with pytest.raises(OSError, match="disk full"):
            session.flush_store()
        monkeypatch.undo()
        expected = [300.0]
        if solve_after_failure:
            session.run(OP(temperature_k=310.0))
            expected.append(310.0)
        assert session.flush_store() == len(expected)
        assert store.calls == [expected]
        assert stored_temperatures(path) == expected

    def test_loaded_points_are_not_offered_back(self, tmp_path):
        path = tmp_path / "op.jsonl"
        with Session(diode_circuit(), store=path) as session:
            session.run(OP(temperature_k=300.0))
        store = RecordingStore(path)
        reopened = Session(diode_circuit(), store=store)
        assert len(reopened.cache) == 1
        reopened.run(OP(temperature_k=300.0))  # served from the store
        reopened.run(OP(temperature_k=320.0))
        assert reopened.flush_store() == 1
        assert store.calls == [[320.0]]
        assert stored_temperatures(path) == [300.0, 320.0]

    def test_a_point_compaction_dropped_is_offered_again(self, tmp_path):
        # 300 K is hit after every job but never solved again, so it is
        # the oldest record when the store compacts past 2 x 4 records.
        # The next flush re-offers the cache, and a reload still holds
        # the hot point.
        path = tmp_path / "op.jsonl"
        store = RecordingStore(path, max_points=4)
        session = Session(diode_circuit(), store=store)
        for temperature in (300.0,) + tuple(301.0 + i for i in range(8)):
            session.run(OP(temperature_k=temperature))
            session.run(OP(temperature_k=300.0))
            session.flush_store()
        assert store.compactions == 1
        assert 300.0 not in stored_temperatures(path)
        session.run(OP(temperature_k=300.0))  # a hit: nothing new
        session.flush_store()
        assert 300.0 in store.calls[-1]
        reloaded = Session(diode_circuit(), store=CacheStore(path, max_points=4))
        STATS.reset()
        reloaded.run(OP(temperature_k=300.0))
        assert (STATS.op_cache_hits, STATS.newton_solves) == (1, 0)

    def test_an_evicted_point_is_not_offered(self, tmp_path):
        store = RecordingStore(tmp_path / "op.jsonl")
        session = Session(diode_circuit(), store=store, cache_points=2)
        for temperature in (300.0, 301.0, 302.0):
            session.run(OP(temperature_k=temperature))
        assert session.flush_store() == 2
        assert store.calls == [[301.0, 302.0]]

    def test_two_sessions_sharing_a_store_write_each_point_once(self, tmp_path):
        path = tmp_path / "op.jsonl"
        store = CacheStore(path)
        first = Session(diode_circuit(), store=store)
        second = Session(diode_circuit(), store=store)
        first.run(OP(temperature_k=300.0))
        second.run(OP(temperature_k=300.0))
        second.run(OP(temperature_k=310.0))
        assert first.flush_store() == 1
        assert second.flush_store() == 1  # 300 K is on disk already
        first.run(OP(temperature_k=310.0))
        assert first.flush_store() == 0
        assert sorted(stored_temperatures(path)) == [300.0, 310.0]


class TestServedRepeats:
    def test_a_repeated_job_writes_nothing_and_takes_only_hits(self, tmp_path):
        service = JobService(cache_dir=tmp_path)
        request = {
            "circuit": {"netlist": NETLIST, "title": "repeat"},
            "plan": {"analysis": "TempSweep", "temperatures_k": [280.0, 300.0, 320.0]},
        }
        try:
            first = service.submit(request)
            assert service.drain(timeout=60)
            written = STATS.op_store_points_written
            STATS.reset()
            second = service.submit(request)
            assert service.drain(timeout=60)
            repeat = STATS.as_dict()
        finally:
            service.stop()
        assert written == 3
        assert (first.state, second.state) == ("done", "done")
        assert second.result == first.result
        assert repeat["op_cache_hits"] == 3
        assert repeat["newton_solves"] == 0
        # The job's own flush still ran, and wrote nothing.
        assert repeat["op_store_flushes"] == 1
        assert repeat["op_store_points_written"] == 0
