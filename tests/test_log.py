"""Tests for the structured JSON-lines logger (repro.obs.log)."""

import io
import json
import logging

from repro.obs.ledger import RunLedger, RunManifest, run_context
from repro.obs.log import (
    HumanFormatter,
    configure_logging,
    get_logger,
    set_worker_id,
)


def _capture(json_lines=False, verbosity=0, quiet=False):
    stream = io.StringIO()
    configure_logging(
        json_lines=json_lines, verbosity=verbosity, quiet=quiet,
        stream=stream,
    )
    return stream


def _reset():
    # Leave the package logger unconfigured for other tests.
    root = logging.getLogger("repro")
    for handler in list(root.handlers):
        root.removeHandler(handler)
    root.setLevel(logging.NOTSET)
    root.propagate = True
    set_worker_id(None)


def teardown_function(_fn):
    _reset()


def test_get_logger_namespacing():
    assert get_logger("scheduler").name == "repro.scheduler"
    assert get_logger("repro.runtime").name == "repro.runtime"


def test_json_lines_shape():
    stream = _capture(json_lines=True)
    get_logger("test").info("hello %s", "world", extra={"cycles": 42})
    record = json.loads(stream.getvalue())
    assert record["msg"] == "hello world"
    assert record["level"] == "info"
    assert record["logger"] == "repro.test"
    assert record["cycles"] == 42
    assert "ts" in record
    assert "run_id" not in record  # no active run context


def test_json_records_carry_run_and_worker_ids(tmp_path):
    stream = _capture(json_lines=True)
    manifest = RunManifest(
        workload="t", config={}, seed=0, pipelines=1, workers=1,
        mode="dense",
    )
    ledger = RunLedger(str(tmp_path / "ledger.jsonl"))
    set_worker_id("w99")
    try:
        with run_context(manifest, ledger):
            get_logger("test").info("inside")
    finally:
        set_worker_id(None)
    record = json.loads(stream.getvalue())
    assert record["run_id"] == manifest.run_id
    assert record["worker_id"] == "w99"


def test_human_format_shape():
    stream = _capture()
    get_logger("scheduler").info("4 waves")
    line = stream.getvalue().strip()
    assert line.endswith("scheduler: 4 waves")
    assert "repro." not in line  # prefix stripped for the terminal


def test_human_format_worker_prefix():
    formatter = HumanFormatter()
    record = logging.LogRecord(
        "repro.x", logging.INFO, "", 0, "msg", (), None
    )
    record.worker_id = "w7"
    assert "[w7] " in formatter.format(record)


def test_verbosity_levels():
    stream = _capture()  # default: INFO
    log = get_logger("test")
    log.debug("hidden")
    log.info("shown")
    assert "hidden" not in stream.getvalue()
    assert "shown" in stream.getvalue()

    stream = _capture(verbosity=1)
    get_logger("test").debug("now visible")
    assert "now visible" in stream.getvalue()

    stream = _capture(quiet=True)
    log = get_logger("test")
    log.info("suppressed")
    log.warning("still shown")
    assert "suppressed" not in stream.getvalue()
    assert "still shown" in stream.getvalue()


def test_configure_is_idempotent():
    _capture()
    stream = _capture()
    get_logger("test").info("once")
    # Reconfiguring replaced (not stacked) the handler: one line only.
    assert len(stream.getvalue().strip().splitlines()) == 1


def test_exception_rendering():
    stream = _capture(json_lines=True)
    try:
        raise RuntimeError("boom")
    except RuntimeError:
        get_logger("test").error("failed", exc_info=True)
    record = json.loads(stream.getvalue())
    assert "boom" in record["exc"]
