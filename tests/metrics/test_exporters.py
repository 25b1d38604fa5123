"""Golden-format and round-trip tests for the metrics wire formats."""

import pytest

from repro.metrics import (
    json_line,
    parse_json_lines,
    parse_prometheus,
    prometheus_name,
    read_metrics_log,
    render_prometheus,
)

SAMPLE = {
    "seq": 3,
    "t_ms": 90000.0,
    "counters": {"net.messages_sent": 12},
    "gauges": {"nodes.live": 5.0},
}

GOLDEN_PROMETHEUS = """\
# HELP dharma_virtual_time_ms virtual time of this sample (ms)
# TYPE dharma_virtual_time_ms gauge
dharma_virtual_time_ms 90000.0
# HELP dharma_sample_seq sample sequence number
# TYPE dharma_sample_seq gauge
dharma_sample_seq 3
# HELP dharma_net_messages_sent_total cumulative counter net.messages_sent
# TYPE dharma_net_messages_sent_total counter
dharma_net_messages_sent_total 12
# HELP dharma_nodes_live gauge nodes.live
# TYPE dharma_nodes_live gauge
dharma_nodes_live 5.0
"""


class TestJsonLines:
    def test_golden_line(self):
        sample = {
            "seq": 0, "t_ms": 1000.0,
            "counters": {"a": 1}, "gauges": {"g": 0.5}, "deltas": {"a": 1},
        }
        assert json_line(sample) == (
            '{"counters":{"a":1},"deltas":{"a":1},"gauges":{"g":0.5},"seq":0,"t_ms":1000.0}'
        )

    def test_key_order_does_not_matter(self):
        a = {"x": 1, "y": 2}
        b = {"y": 2, "x": 1}
        assert json_line(a) == json_line(b)

    def test_parse_round_trip(self):
        samples = [SAMPLE, {**SAMPLE, "seq": 4, "t_ms": 120000.0}]
        text = "\n".join(json_line(s) for s in samples) + "\n\n"
        assert parse_json_lines(text) == samples

    def test_parse_rejects_non_object(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_json_lines('{"ok": 1}\n[1, 2]\n')

    def test_parse_rejects_invalid_json(self):
        with pytest.raises(ValueError, match="invalid JSON"):
            parse_json_lines("{broken\n")

    def test_read_metrics_log(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        path.write_text(json_line(SAMPLE) + "\n", encoding="utf-8")
        assert read_metrics_log(path) == [SAMPLE]


class TestPrometheusNames:
    @pytest.mark.parametrize(
        "dotted, expected",
        [
            ("net.messages_sent", "dharma_net_messages_sent"),
            ("maint.blocks_handed_off", "dharma_maint_blocks_handed_off"),
            ("maint.blocks_skipped", "dharma_maint_blocks_skipped"),
            ("maint.buckets_skipped", "dharma_maint_buckets_skipped"),
            ("perf.maint.republish_skips", "dharma_perf_maint_republish_skips"),
            ("perf.maint.refresh_skips", "dharma_perf_maint_refresh_skips"),
            ("weird name!", "dharma_weird_name_"),
            ("9lives", "dharma_9lives"),
        ],
    )
    def test_sanitisation(self, dotted, expected):
        assert prometheus_name(dotted) == expected

    def test_no_prefix_still_legal(self):
        assert prometheus_name("9lives", prefix="") == "_9lives"


class TestPrometheusExposition:
    def test_golden_rendering(self):
        assert render_prometheus(SAMPLE) == GOLDEN_PROMETHEUS

    def test_parse_round_trip(self):
        parsed = parse_prometheus(render_prometheus(SAMPLE))
        assert parsed["dharma_virtual_time_ms"] == ("gauge", 90000.0)
        assert parsed["dharma_sample_seq"] == ("gauge", 3.0)
        assert parsed["dharma_net_messages_sent_total"] == ("counter", 12.0)
        assert parsed["dharma_nodes_live"] == ("gauge", 5.0)
        assert len(parsed) == 4

    def test_counter_suffix_not_doubled(self):
        sample = {**SAMPLE, "counters": {"net.bytes_transferred_total": 7}}
        text = render_prometheus(sample)
        assert "dharma_net_bytes_transferred_total 7" in text
        assert "_total_total" not in text

    def test_rendering_is_deterministic(self):
        shuffled = {
            "seq": SAMPLE["seq"],
            "t_ms": SAMPLE["t_ms"],
            "counters": dict(reversed(list(SAMPLE["counters"].items()))),
            "gauges": dict(SAMPLE["gauges"]),
        }
        assert render_prometheus(shuffled) == render_prometheus(SAMPLE)

    @pytest.mark.parametrize(
        "text, match",
        [
            ("dharma_x 1\n", "no TYPE"),
            ("# TYPE dharma_x histogram\ndharma_x 1\n", "bad TYPE"),
            ("# TYPE dharma_x gauge\ndharma_x one\n", "bad value"),
            ("# TYPE dharma_x gauge\ndharma_x 1 2 3\n", "expected 'name value'"),
            ("# TYPE dharma_x gauge\ndharma_x 1\ndharma_x 2\n", "duplicate sample"),
        ],
    )
    def test_parse_rejects_malformed(self, text, match):
        with pytest.raises(ValueError, match=match):
            parse_prometheus(text)
