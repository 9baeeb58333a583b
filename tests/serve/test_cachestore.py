"""Tests for the persistent solved-point store.

Four contracts:

* **format round trip** — a session's solved points survive the disk
  trip bit-for-bit (keys, vectors, diagnostics), under the versioned
  ``repro-opcache/1`` header, and reloading serves exact cache hits;
* **corruption tolerance** — garbage headers, truncated tails and junk
  lines make the store read as empty/partial (counted, repaired by
  compaction), never crash a solve;
* **capacity** — load and compaction keep the newest ``max_points``;
  the append log compacts once it doubles the bound;
* **warm-start gates** — store-loaded points pass through the same
  ``SolvedPointCache`` screens as in-process ones: the pinned-time key
  and the value band still refuse a dead-supply seed for a powered
  solve after a restart-like reload, and a session loads only its own
  topology's points from a store shared by several circuits.
"""

import json

import numpy as np
import pytest

from repro.serve.cachestore import CacheStore, OPCACHE_SCHEMA
from repro.spice import (
    Circuit,
    Diode,
    OP,
    Resistor,
    Session,
    VoltageSource,
    bandgap_array,
    parse_netlist,
    resistor_ladder,
)
from repro.spice.stats import STATS


def diode_circuit():
    c = Circuit("store diode")
    c.add(VoltageSource("V1", "in", "0", 5.0))
    c.add(Resistor("R1", "in", "d", 1e3))
    c.add(Diode("D1", "d", "0"))
    return c


@pytest.fixture(autouse=True)
def _reset_stats():
    STATS.reset()
    yield
    STATS.reset()


class TestFormatRoundTrip:
    def test_header_is_schema_versioned(self, tmp_path):
        store = CacheStore(tmp_path / "op.jsonl")
        with Session(diode_circuit(), store=store) as session:
            session.run(OP())
        first_line = (tmp_path / "op.jsonl").read_text().splitlines()[0]
        assert json.loads(first_line) == {"schema": OPCACHE_SCHEMA}

    def test_solved_points_round_trip_exactly(self, tmp_path):
        path = tmp_path / "op.jsonl"
        session = Session(diode_circuit(), store=CacheStore(path))
        result = session.run(OP())
        session.close()

        fresh = Session(diode_circuit(), store=CacheStore(path))
        exported = dict(fresh.cache.export())
        original = dict(session.cache.export())
        assert set(exported) == set(original)
        for key, value in original.items():
            temp, time_key, okey, coords, x, iterations, residual, strategy = value
            reloaded = exported[key]
            assert reloaded[0] == temp
            assert reloaded[1] == time_key
            assert reloaded[2] == okey
            assert dict(reloaded[3]) == dict(coords)
            assert np.array_equal(np.asarray(reloaded[4]), np.asarray(x))
            assert reloaded[5:] == (iterations, residual, strategy)

        STATS.reset()
        replay = fresh.run(OP())
        assert STATS.op_cache_hits == 1
        assert STATS.newton_solves == 0
        assert replay.voltage("d") == result.voltage("d")

    def test_session_accepts_bare_path(self, tmp_path):
        path = tmp_path / "op.jsonl"
        with Session(diode_circuit(), store=path) as session:
            session.run(OP())
        assert len(CacheStore(path)) == 1

    def test_flush_is_incremental(self, tmp_path):
        store = CacheStore(tmp_path / "op.jsonl")
        session = Session(diode_circuit(), store=store)
        session.run(OP())
        assert session.flush_store() == 1
        assert session.flush_store() == 0  # already persisted
        session.run(OP(temperature_k=320.15))
        assert session.flush_store() == 1

    def test_no_store_is_a_noop(self):
        with Session(diode_circuit()) as session:
            session.run(OP())
            assert session.flush_store() == 0


class TestCorruptionTolerance:
    def test_garbage_header_reads_empty(self, tmp_path):
        path = tmp_path / "op.jsonl"
        path.write_text("this is not a store\n")
        store = CacheStore(path)
        assert store.load() == []
        assert store.corrupt_records == 1
        assert STATS.op_store_corrupt_records == 1

    def test_wrong_schema_reads_empty(self, tmp_path):
        path = tmp_path / "op.jsonl"
        path.write_text(json.dumps({"schema": "repro-opcache/999"}) + "\n")
        assert CacheStore(path).load() == []

    def test_truncated_tail_record_is_skipped(self, tmp_path):
        path = tmp_path / "op.jsonl"
        with Session(diode_circuit(), store=CacheStore(path)) as session:
            session.run(OP())
            session.run(OP(temperature_k=320.15))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1] + [lines[-1][: len(lines[-1]) // 2]]) + "\n")
        store = CacheStore(path)
        assert len(store.load()) == 1
        assert store.corrupt_records == 1

    def test_junk_line_is_skipped_and_counted(self, tmp_path):
        path = tmp_path / "op.jsonl"
        with Session(diode_circuit(), store=CacheStore(path)) as session:
            session.run(OP())
        with open(path, "a") as fh:
            fh.write("{{{{ garbage\n")
        store = CacheStore(path)
        assert len(store.load()) == 1
        assert store.corrupt_records == 1

    def test_missing_file_reads_empty(self, tmp_path):
        store = CacheStore(tmp_path / "never-written.jsonl")
        assert store.load() == []
        assert store.corrupt_records == 0

    def test_corrupt_store_never_crashes_a_solve(self, tmp_path):
        path = tmp_path / "op.jsonl"
        path.write_text("\x00\x01 binary junk")
        session = Session(diode_circuit(), store=CacheStore(path))
        op = session.run(OP())
        assert 0.6 < op.voltage("d") < 0.9
        session.close()
        # The flush replaced the unreadable file, so the solved point
        # is visible to the next open.
        assert len(CacheStore(path)) == 1

    def test_compaction_repairs_corruption(self, tmp_path):
        path = tmp_path / "op.jsonl"
        with Session(diode_circuit(), store=CacheStore(path)) as session:
            session.run(OP())
        with open(path, "a") as fh:
            fh.write("not json\n")
        store = CacheStore(path)
        assert store.compact() == 1
        fresh = CacheStore(path)
        assert len(fresh.load()) == 1
        assert fresh.corrupt_records == 0


class TestCapacity:
    def test_load_keeps_newest_max_points(self, tmp_path):
        path = tmp_path / "op.jsonl"
        temps = [280.15 + i for i in range(6)]
        with Session(diode_circuit(), store=CacheStore(path)) as session:
            for t in temps:
                session.run(OP(temperature_k=t))
        bounded = CacheStore(path, max_points=3)
        loaded = bounded.load()
        assert len(loaded) == 3
        kept = sorted(key[4] for key, _value in loaded)
        assert kept == temps[-3:]  # newest appends win

    def test_append_log_compacts_past_twice_the_bound(self, tmp_path):
        path = tmp_path / "op.jsonl"
        store = CacheStore(path, max_points=2)
        session = Session(diode_circuit(), store=store)
        for i in range(6):
            session.run(OP(temperature_k=290.15 + i))
        session.flush_store()
        lines = path.read_text().splitlines()
        assert len(lines) - 1 <= 2 * store.max_points
        assert len(CacheStore(path, max_points=2)) == 2

    def test_rejects_non_positive_bound(self, tmp_path):
        with pytest.raises(ValueError):
            CacheStore(tmp_path / "op.jsonl", max_points=0)


class TestWarmStartGatesSurviveReload:
    def test_dead_supply_point_never_seeds_powered_solve(self, tmp_path):
        """The ISSUE's explicit gate: a 0 V-supply state loaded from
        disk must not warm-start a 5 V solve in a new process."""
        path = tmp_path / "op.jsonl"
        with Session(diode_circuit(), store=CacheStore(path)) as dead:
            dead_op = dead.run(OP(overrides=(("V1", "dc", 0.0),)))
            assert abs(dead_op.voltage("d")) < 1e-6

        STATS.reset()
        powered = Session(diode_circuit(), store=CacheStore(path))
        assert len(powered.cache) == 1  # the dead point did reload...
        op = powered.run(OP())
        assert STATS.op_cache_warm_starts == 0  # ...but never seeded
        assert STATS.op_cache_hits == 0
        assert STATS.op_cache_misses == 1
        assert 0.6 < op.voltage("d") < 0.9

    def test_pinned_time_key_survives_reload(self, tmp_path):
        path = tmp_path / "op.jsonl"
        with Session(diode_circuit(), store=CacheStore(path)) as session:
            session.run(OP(time=0.0))

        STATS.reset()
        fresh = Session(diode_circuit(), store=CacheStore(path))
        fresh.run(OP())  # un-pinned: a different key, never a hit
        assert STATS.op_cache_hits == 0
        STATS.reset()
        fresh.run(OP(time=0.0))
        assert STATS.op_cache_hits == 1

    def test_temperature_band_survives_reload(self, tmp_path):
        path = tmp_path / "op.jsonl"
        with Session(diode_circuit(), store=CacheStore(path)) as session:
            session.run(OP(temperature_k=300.15))

        STATS.reset()
        fresh = Session(diode_circuit(), store=CacheStore(path))
        fresh.run(OP(temperature_k=420.15))  # 120 K away: outside the band
        assert STATS.op_cache_warm_starts == 0
        STATS.reset()
        fresh.run(OP(temperature_k=310.15))  # 10 K away: inside
        assert STATS.op_cache_warm_starts == 1

    def test_distinct_topologies_never_share_points(self, tmp_path):
        path = tmp_path / "op.jsonl"
        with Session(diode_circuit(), store=CacheStore(path)) as session:
            session.run(OP())

        def other_circuit():
            c = Circuit("store diode")  # same title, different topology
            c.add(VoltageSource("V1", "in", "0", 5.0))
            c.add(Resistor("R1", "in", "d", 1e3))
            c.add(Resistor("R2", "d", "0", 1e3))
            return c

        STATS.reset()
        other = Session(other_circuit(), store=CacheStore(path))
        other.run(OP())
        assert STATS.op_cache_hits == 0  # fingerprint differs

    def test_other_topology_with_other_size_solves_cold(self, tmp_path):
        """A store shared by circuits of different unknown counts: the
        second circuit loads only its own points, so a foreign vector
        never seeds its solve, and the first circuit's points stay on
        disk."""
        path = tmp_path / "op.jsonl"
        ladder = Session(parse_netlist(resistor_ladder(sections=2)), store=path)
        with ladder:
            ladder.run(OP())

        STATS.reset()
        array = Session(parse_netlist(bandgap_array(cells=3)), store=path)
        with array:
            op = array.run(OP())
        assert len(op.op.x) != len(ladder.cache.export()[0][1][4])
        assert STATS.op_cache_misses == 1
        assert STATS.op_cache_warm_starts == STATS.op_cache_hits == 0
        assert {key[0] for key, _value in array.cache.export()} == {array.fingerprint}
        stored = {key[0] for key, _value in CacheStore(path).load()}
        assert stored == {ladder.fingerprint, array.fingerprint}

    def test_shared_store_still_serves_each_topology_its_own_points(
        self, tmp_path
    ):
        """The fingerprint filter drops only foreign points: reopening
        the first circuit over the shared store is an exact hit."""
        path = tmp_path / "op.jsonl"
        with Session(parse_netlist(resistor_ladder(sections=2)), store=path) as s:
            ladder_op = s.run(OP())
        with Session(parse_netlist(bandgap_array(cells=3)), store=path) as s:
            s.run(OP())

        STATS.reset()
        reopened = Session(parse_netlist(resistor_ladder(sections=2)), store=path)
        assert len(reopened.cache) == 1
        replay = reopened.run(OP())
        assert STATS.op_cache_hits == 1
        assert STATS.newton_solves == 0
        np.testing.assert_array_equal(replay.op.x, ladder_op.op.x)

    def test_compaction_keeps_the_other_topology_on_disk(self, tmp_path):
        """Compaction works from the file, not from one session's
        cache, so a store shared by two circuits keeps both."""
        path = tmp_path / "op.jsonl"
        ladder = Session(parse_netlist(resistor_ladder(sections=2)), store=path)
        with ladder:
            ladder.run(OP())
        array = Session(parse_netlist(bandgap_array(cells=3)), store=path)
        with array:
            array.run(OP())
            assert array.flush_store() == 1
            assert array.store.compact() == 2
        stored = {key[0] for key, _value in CacheStore(path).load()}
        assert stored == {ladder.fingerprint, array.fingerprint}
