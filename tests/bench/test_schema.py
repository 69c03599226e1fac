"""Normalized bench-record schema and the legacy-shape adapters."""

import json
from pathlib import Path

import pytest

from repro.bench.schema import (
    SCHEMA,
    BenchSchemaError,
    Metric,
    load_bench_file,
    normalize,
    to_json,
)

ROOT = Path(__file__).resolve().parent.parent.parent


CAMPAIGN_KERNEL = {
    "benchmark": "campaign+kernel",
    "python": "3.12.0",
    "platform": "test",
    "cores": 2,
    "campaign": {
        "experiments": ["fig8"],
        "scale": 0.01,
        "jobs": 2,
        "serial_s": 1.0,
        "parallel_s": 0.5,
        "speedup": 2.0,
        "outputs_identical": True,
    },
    "event_throughput": {"events": 1000, "elapsed_s": 0.01, "events_per_s": 100000},
    "seek_time": {"calls": 10, "lut_s": 0.1, "closed_form_s": 0.2, "lut_speedup": 2.0},
    "trace_generation": {"requests": 10, "elapsed_s": 0.01, "requests_per_s": 1000},
}

ANALYTIC = {
    "benchmark": "analytic-vs-des",
    "python": "3.12.0",
    "platform": "test",
    "cores": 2,
    "campaigns": [
        {
            "experiment": "fig5",
            "points": 32,
            "des_s": 10.0,
            "analytic_s": 0.5,
            "speedup": 20.0,
            "max_rel_error": 0.3,
            "mean_abs_rel_error": 0.1,
            "tolerance": 0.5,
            "within_tolerance": True,
        }
    ],
    "best_speedup": 20.0,
}


class TestAdapters:
    def test_campaign_kernel_shape(self):
        record = normalize(CAMPAIGN_KERNEL, source="t")
        assert record.bench_id == "campaign+kernel"
        campaign = "campaign[scale=0.01,jobs=2]"
        assert record.metrics[f"{campaign}.speedup"].value == 2.0
        assert record.metrics[f"{campaign}.speedup"].direction == "higher"
        assert record.metrics[f"{campaign}.serial_s"].direction == "lower"
        assert record.metrics["event_throughput.events_per_s"].value == 100000
        assert record.metrics[f"{campaign}.outputs_identical"].value == 1.0
        assert record.context["cores"] == 2
        assert record.raw is CAMPAIGN_KERNEL

    def test_campaign_metrics_keyed_by_scale_and_jobs(self):
        other = dict(CAMPAIGN_KERNEL, campaign=dict(CAMPAIGN_KERNEL["campaign"], scale=0.02))
        a = normalize(CAMPAIGN_KERNEL, source="a").metrics
        b = normalize(other, source="b").metrics
        assert "campaign[scale=0.01,jobs=2].serial_s" in a
        assert "campaign[scale=0.02,jobs=2].serial_s" in b
        assert not {n for n in a if n.startswith("campaign")} & set(b)
        # Kernel metrics do not depend on the campaign scale.
        assert "event_throughput.events_per_s" in a and "event_throughput.events_per_s" in b

    def test_campaign_without_scale_keeps_plain_names(self):
        doc = dict(CAMPAIGN_KERNEL, campaign={"serial_s": 1.0})
        assert "campaign.serial_s" in normalize(doc, source="t").metrics

    def test_analytic_shape(self):
        record = normalize(ANALYTIC, source="t")
        assert record.bench_id == "analytic-vs-des"
        assert record.metrics["analytic.fig5.analytic_speedup"].value == 20.0
        assert record.metrics["analytic.fig5.max_rel_error"].direction == "lower"
        assert record.metrics["analytic.best_speedup"].value == 20.0

    def test_normalized_round_trip(self):
        record = normalize(CAMPAIGN_KERNEL, source="t")
        doc = to_json(record)
        assert doc["schema"] == SCHEMA
        again = normalize(doc, source="t2")
        assert again.metrics == record.metrics
        assert again.bench_id == record.bench_id
        # The original raw document survives the round trip.
        assert again.raw == CAMPAIGN_KERNEL

    def test_unknown_shape_rejected(self):
        with pytest.raises(BenchSchemaError, match="unrecognized"):
            normalize({"benchmark": "mystery"}, source="t")

    def test_unknown_schema_version_rejected(self):
        with pytest.raises(BenchSchemaError, match="unknown schema"):
            normalize({"schema": "repro-bench/999", "bench_id": "x"}, source="t")

    def test_non_numeric_metric_rejected(self):
        doc = {
            "schema": SCHEMA,
            "bench_id": "x",
            "metrics": {"m": {"value": "fast"}},
        }
        with pytest.raises(BenchSchemaError):
            normalize(doc, source="t")

    def test_bad_direction_rejected(self):
        with pytest.raises(BenchSchemaError, match="direction"):
            Metric(1.0, direction="sideways")

    def test_empty_metrics_rejected(self):
        with pytest.raises(BenchSchemaError, match="metrics"):
            normalize({"schema": SCHEMA, "bench_id": "x", "metrics": {}}, source="t")


class TestCommittedFiles:
    """Every committed BENCH_*.json must parse under the shared schema."""

    @pytest.mark.parametrize(
        "path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name
    )
    def test_committed_bench_file_parses(self, path):
        record = load_bench_file(path)
        assert record.metrics, f"{path.name} normalized to zero metrics"
        assert record.bench_id

    def test_committed_normalized_records_key_campaign_by_scale(self):
        record = load_bench_file(ROOT / "BENCH_5.json")
        assert "campaign[scale=0.01,jobs=2].serial_s" in record.metrics
        assert "campaign.serial_s" not in record.metrics

    def test_at_least_two_committed_files(self):
        # The trajectory gate needs history to compare against.
        assert len(list(ROOT.glob("BENCH_*.json"))) >= 2


class TestLoadFile:
    def test_missing_file(self, tmp_path):
        with pytest.raises(BenchSchemaError, match="cannot read"):
            load_bench_file(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(BenchSchemaError, match="not JSON"):
            load_bench_file(p)

    def test_load_normalized_file(self, tmp_path):
        p = tmp_path / "BENCH_x.json"
        p.write_text(json.dumps(to_json(normalize(ANALYTIC, source="t"))))
        record = load_bench_file(p)
        assert record.source == str(p)
        assert "analytic.fig5.analytic_speedup" in record.metrics
