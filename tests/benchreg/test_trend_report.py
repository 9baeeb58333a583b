"""Trend-report rendering: golden output on a fake two-campaign index
built with an injectable clock, plus the annotation logic."""

from datetime import datetime, timezone

from repro.benchreg import report, schema
from repro.benchreg.record import record_campaign

#: 2026-07-28T00:00:00Z and one day later — the injectable clock makes
#: the whole index (and therefore the report) byte-stable.
T0 = datetime(2026, 7, 28, tzinfo=timezone.utc).timestamp()


def fake_host():
    return {"machine": "x86_64", "python": "3.12.0", "numpy": "2.0.0",
            "scipy": "1.14.0", "cpus": 4, "platform": "TestOS",
            "fingerprint": "test-host"}


def build_two_campaign_index(tmp_path):
    path = tmp_path / "index.json"
    record_campaign(
        path,
        [{"experiment": "demo", "wall_s": 1.0, "factorizations": 100,
          "strategies": {"newton": 2}}],
        command="cmd one",
        label="first",
        pr=4,
        clock=lambda: T0,
        host=fake_host(),
        sha="aaaaaaaaaaaaaaaa",
    )
    record_campaign(
        path,
        [{"experiment": "demo", "wall_s": 0.5, "factorizations": 80,
          "op_cache_hits": 3, "strategies": {"newton": 2}}],
        command="cmd two",
        label="second",
        pr=5,
        clock=lambda: T0 + 86400,
        host=fake_host(),
        sha="bbbbbbbbbbbbbbbb-dirty",
    )
    return schema.load_index(path)


GOLDEN = """\
# Benchmark trend report

2 campaign(s) in a `repro-bench-index/1` index · latest c0002 (2026-07-29, second)

Counters marked *hard* gate `--bench-check`; *advisory* metrics classify against a tolerance band but never fail; metrics flat for 2+ campaigns carry a saturation note.  Regenerate with `PYTHONPATH=src python -m repro --bench-report`.

## Campaigns

| id | date | label | pr | git | host | source |
|---|---|---|---|---|---|---|
| c0001 | 2026-07-28 | first | 4 | aaaaaaaaaaaa | test-host | — |
| c0002 | 2026-07-29 | second | 5 | bbbbbbbbbbbb-dirty | test-host | — |

## demo

| metric | gate | c0001 → c0002 | notes |
|---|---|---|---|
| wall_s | advisory | 1 → 0.5 | last changed @c0002 |
| factorizations | hard | 100 → 80 | last changed @c0002 |
| op_cache_hits | hard | · → 3 | first @c0002 |
| strategies.newton | info | 2 → 2 | flat ×2 (saturated) |
"""


class TestGolden:
    def test_two_campaign_golden(self, tmp_path):
        index = build_two_campaign_index(tmp_path)
        assert report.render_trend(index, flat_n=2) == GOLDEN

    def test_write_trend_round_trips(self, tmp_path):
        index = build_two_campaign_index(tmp_path)
        path = report.write_trend(index, tmp_path / "TREND.md", flat_n=2)
        assert path.read_text() == GOLDEN

    def test_render_is_pure_function_of_index(self, tmp_path):
        index = build_two_campaign_index(tmp_path)
        assert report.render_trend(index) == report.render_trend(index)


class TestAnnotations:
    def test_empty_index_renders_placeholder(self):
        text = report.render_trend(schema.new_index())
        assert "No campaigns recorded yet" in text

    def test_saturation_note_requires_flat_n(self, tmp_path):
        path = tmp_path / "index.json"
        for i, value in enumerate([100, 100, 100]):
            record_campaign(
                path,
                [{"experiment": "demo", "wall_s": 1.0, "factorizations": value}],
                clock=lambda i=i: T0 + i * 86400,
                host=fake_host(),
                sha="abc",
            )
        text = report.render_trend(schema.load_index(path), flat_n=3)
        assert "flat ×3 (saturated)" in text
        # Not yet saturated at a higher threshold.
        assert "saturated" not in report.render_trend(
            schema.load_index(path), flat_n=4
        )

    def test_changed_metric_resets_saturation_window(self, tmp_path):
        path = tmp_path / "index.json"
        for i, value in enumerate([100, 100, 90]):
            record_campaign(
                path,
                [{"experiment": "demo", "wall_s": 1.0, "factorizations": value}],
                clock=lambda i=i: T0 + i * 86400,
                host=fake_host(),
                sha="abc",
            )
        text = report.render_trend(schema.load_index(path), flat_n=2)
        line = [l for l in text.splitlines() if l.startswith("| factorizations")][0]
        assert "last changed @c0003" in line
        assert "saturated" not in line

    def test_gap_campaigns_render_as_dots_and_dont_break_annotations(
        self, tmp_path
    ):
        path = tmp_path / "index.json"
        record_campaign(path, [{"experiment": "demo", "wall_s": 1.0,
                                "factorizations": 100}],
                        clock=lambda: T0, host=fake_host(), sha="abc")
        record_campaign(path, [{"experiment": "unrelated", "wall_s": 1.0}],
                        clock=lambda: T0 + 86400, host=fake_host(), sha="abc")
        record_campaign(path, [{"experiment": "demo", "wall_s": 1.0,
                                "factorizations": 100}],
                        clock=lambda: T0 + 2 * 86400, host=fake_host(), sha="abc")
        text = report.render_trend(schema.load_index(path), flat_n=2)
        line = [l for l in text.splitlines() if l.startswith("| factorizations")][0]
        assert "100 → · → 100" in line
        assert "flat ×2 (saturated)" in line

    def test_all_zero_metrics_are_suppressed(self, tmp_path):
        path = tmp_path / "index.json"
        record_campaign(path, [{"experiment": "demo", "wall_s": 1.0,
                                "retries": 0, "factorizations": 5}],
                        clock=lambda: T0, host=fake_host(), sha="abc")
        text = report.render_trend(schema.load_index(path))
        assert "| retries |" not in text
        assert "| factorizations |" in text

    def test_pipes_in_host_fingerprints_are_escaped(self, tmp_path):
        path = tmp_path / "index.json"
        host = dict(fake_host(), fingerprint="a|b|c")
        record_campaign(path, [{"experiment": "demo", "wall_s": 1.0}],
                        clock=lambda: T0, host=host, sha="abc")
        text = report.render_trend(schema.load_index(path))
        assert "a\\|b\\|c" in text
