"""Tests for the run ledger (repro.obs.ledger)."""

import json
import re

import pytest

from repro.errors import InputError
from repro.obs.ledger import (
    LEDGER_SCHEMA_VERSION,
    RunLedger,
    RunManifest,
    active_run,
    active_run_id,
    config_digest,
    record_event,
    run_context,
)


def _manifest(**overrides):
    defaults = dict(
        workload="test", config={"reads": 40, "psize": 2000}, seed=7,
        pipelines=4, workers=1, mode="dense",
    )
    defaults.update(overrides)
    return RunManifest(**defaults)


class TestManifest:
    def test_digest_is_stable_under_key_order(self):
        assert config_digest({"a": 1, "b": 2}) == config_digest({"b": 2, "a": 1})

    def test_digest_differs_on_value_change(self):
        assert config_digest({"reads": 40}) != config_digest({"reads": 41})

    def test_run_ids_are_unique(self):
        assert _manifest().run_id != _manifest().run_id

    def test_package_version_autofilled(self):
        from repro import __version__

        assert _manifest().package_version == __version__

    def test_host_info_present(self):
        manifest = _manifest()
        assert manifest.host["python"]
        assert manifest.host["cpus"] >= 1

    def test_round_trip(self):
        manifest = _manifest()
        rebuilt = RunManifest.from_dict(manifest.to_dict())
        assert rebuilt.run_id == manifest.run_id
        assert rebuilt.digest == manifest.digest
        assert rebuilt.config == manifest.config
        assert rebuilt.seed == 7 and rebuilt.mode == "dense"


class TestLedger:
    def test_append_and_read(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "ledger.jsonl"))
        ledger.append({"event": "x", "value": 1})
        ledger.append({"event": "y", "value": 2})
        records = ledger.read()
        assert [r["event"] for r in records] == ["x", "y"]
        assert all(r["schema"] == LEDGER_SCHEMA_VERSION for r in records)

    def test_read_missing_file_is_empty(self, tmp_path):
        assert RunLedger(str(tmp_path / "nope.jsonl")).read() == []

    @pytest.mark.parametrize(
        "line", [b"not json", b"\xff\xfe{}"], ids=["text", "bytes"]
    )
    def test_malformed_line_refused(self, tmp_path, line):
        path = tmp_path / "ledger.jsonl"
        path.write_bytes(b'{"event": "ok"}\n\n' + line + b"\n")
        with pytest.raises(
            InputError, match=f"^{re.escape(str(path))}:3: not a ledger record"
        ):
            RunLedger(str(path)).read()

    def test_append_after_a_cut_starts_a_fresh_line(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text('{"event": "ok"}\n{"event": "cu')
        ledger = RunLedger(str(path))
        ledger.append({"event": "next"})
        lines = path.read_text().splitlines()
        assert lines[1] == '{"event": "cu'
        assert json.loads(lines[2])["event"] == "next"
        with pytest.raises(InputError, match=f"^{re.escape(str(path))}:2: "):
            ledger.read()

    def test_creates_parent_directory(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "deep" / "dir" / "ledger.jsonl"))
        ledger.append({"event": "x"})
        assert ledger.read()

    def test_records_are_json_lines(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "ledger.jsonl"))
        ledger.record(_manifest(), "run.start")
        lines = (tmp_path / "ledger.jsonl").read_text().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["event"] == "run.start"
        assert record["manifest"]["config_digest"]

    def test_runs_grouped_by_run_id(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "ledger.jsonl"))
        first, second = _manifest(), _manifest()
        ledger.record(first, "run.start")
        ledger.record(second, "run.start")
        ledger.record(first, "run.end")
        grouped = ledger.runs()
        assert len(grouped[first.run_id]) == 2
        assert len(grouped[second.run_id]) == 1


class TestRunContext:
    def test_start_and_end_recorded(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "ledger.jsonl"))
        manifest = _manifest()
        with run_context(manifest, ledger):
            record_event("wave", cycles=123)
        events = [r["event"] for r in ledger.read()]
        assert events == ["run.start", "wave", "run.end"]
        assert all(r["run_id"] == manifest.run_id for r in ledger.read())

    def test_error_recorded_and_reraised(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "ledger.jsonl"))
        with pytest.raises(ValueError):
            with run_context(_manifest(), ledger):
                raise ValueError("boom")
        events = [r["event"] for r in ledger.read()]
        assert events == ["run.start", "run.error"]
        assert "boom" in ledger.read()[-1]["error"]

    def test_context_cleared_on_exit(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "ledger.jsonl"))
        with run_context(_manifest(), ledger):
            assert active_run() is not None
            assert active_run_id()
        assert active_run() is None
        assert active_run_id() is None
        # ... and never set when the ledger cannot take run.start
        with pytest.raises(IsADirectoryError):
            with run_context(_manifest(), RunLedger(str(tmp_path))):
                pass
        assert active_run() is None

    def test_record_event_without_context_is_noop(self, tmp_path):
        record_event("orphan", value=1)  # must not raise or write anywhere
        assert not list(tmp_path.iterdir())

    def test_scheduler_records_waves_under_context(self, tmp_path, workload):
        from repro.accel import MarkdupWaveDriver
        from repro.accel.sharding import run_sharded

        ledger = RunLedger(str(tmp_path / "ledger.jsonl"))
        with run_context(_manifest(), ledger):
            _results, stats = run_sharded(
                MarkdupWaveDriver(), workload.partitions, 4
            )
        events = [r["event"] for r in ledger.read()]
        assert events.count("scheduler.wave") == stats.waves
        assert "scheduler.run" in events
        run_record = next(
            r for r in ledger.read() if r["event"] == "scheduler.run"
        )
        assert run_record["total_cycles"] == stats.total_cycles
        assert run_record["stage"] == "markdup"


class TestSchemaVersion:
    def test_appended_records_carry_both_version_keys(self, tmp_path):
        """v2 stamps the explicit ``schema_version`` alongside the
        historical ``schema`` key, both at the current version."""
        ledger = RunLedger(str(tmp_path / "ledger.jsonl"))
        ledger.append({"event": "x"})
        record = ledger.read()[0]
        assert record["schema"] == LEDGER_SCHEMA_VERSION
        assert record["schema_version"] == LEDGER_SCHEMA_VERSION

    def test_record_schema_version_reads_either_key(self):
        from repro.obs.ledger import record_schema_version

        assert record_schema_version({"schema_version": 2}) == 2
        assert record_schema_version({"schema": 1}) == 1
        # the explicit key wins when both are present
        assert record_schema_version({"schema": 1, "schema_version": 3}) == 3

    def test_record_schema_version_defaults_v1(self):
        from repro.obs.ledger import record_schema_version

        assert record_schema_version({}) == 1
        assert record_schema_version({"schema": "garbage"}) == 1

    def test_old_ledger_files_still_read(self, tmp_path):
        """A v1 ledger (no schema_version, extra unknown keys) reads
        cleanly — readers tolerate keys they do not know."""
        path = tmp_path / "old.jsonl"
        path.write_text(
            '{"schema": 1, "event": "serve.job.done", "job": 0, '
            '"someday_key": {"nested": true}}\n'
            '{"event": "versionless", "mystery": [1, 2, 3]}\n'
        )
        records = RunLedger(str(path)).read()
        assert [r["event"] for r in records] == [
            "serve.job.done", "versionless"
        ]

    def test_non_object_json_line_refused(self, tmp_path):
        path = tmp_path / "odd.jsonl"
        for number, odd in enumerate(['[1, 2, 3]', '"just a string"'], 2):
            path.write_text('{"event": "ok"}\n' * (number - 1) + odd + "\n")
            with pytest.raises(
                InputError,
                match=f"^{re.escape(str(path))}:{number}: .*got (list|str)$",
            ):
                RunLedger(str(path)).read()
