"""The run ledger: persisted evidence of every run, across processes
and across PRs.

In-run observability (:mod:`repro.obs.profile`) evaporates when the
process exits; the ledger is the part that survives.  Two pieces:

* :class:`RunManifest` — the identity of one run: what was executed
  (workload id, config digest, seed, pipelines/workers, engine mode),
  on what (package version, host fingerprint), under which ``run_id``.
  The config digest is a SHA-256 over the sorted config items, so two
  runs are comparable exactly when their digests match.
* :class:`RunLedger` — an append-only JSON-lines file (default
  ``.repro/ledger.jsonl``).  Every record carries the manifest's
  ``run_id``, an ``event`` name, and the event's payload; appends are
  single ``write()`` calls of one line, so concurrent workers interleave
  records without corrupting them.

The pieces meet in the **run context**: the CLI opens one around each
command (:func:`run_context`), and instrumented code deep in the stack —
``run_sharded`` waves, the runtime API — records events against the
ambient run via :func:`record_event` without threading a ledger handle
through every signature.  With no context active, :func:`record_event`
is a no-op, so library and test callers never touch the filesystem.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from ..errors import check_writable

DEFAULT_LEDGER_DIR = ".repro"
DEFAULT_LEDGER_NAME = "ledger.jsonl"

#: Bumped when the record shape changes.  v2 added the explicit
#: ``schema_version`` field (v1 records carried only ``schema``);
#: readers tolerate records from either version and ignore unknown
#: keys, so an old ``.repro/ledger.jsonl`` still analyzes cleanly.
LEDGER_SCHEMA_VERSION = 2


def record_schema_version(record: Dict[str, object]) -> int:
    """The schema version a ledger record was written under.

    v1 records stamped ``schema``; v2 stamps both ``schema`` and
    ``schema_version``.  Records predating the stamp read as v1."""
    version = record.get("schema_version", record.get("schema", 1))
    try:
        return int(version)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return 1


def config_digest(config: Dict[str, object]) -> str:
    """A short stable digest of one run configuration (sorted-key JSON,
    SHA-256, first 12 hex chars — enough to compare, short enough to
    read)."""
    canonical = json.dumps(config, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def host_info() -> Dict[str, object]:
    """The host fingerprint embedded in every manifest."""
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }


@dataclass
class RunManifest:
    """The identity of one run, embedded in its ledger records."""

    workload: str
    config: Dict[str, object] = field(default_factory=dict)
    seed: Optional[int] = None
    pipelines: Optional[int] = None
    workers: Optional[int] = None
    mode: Optional[str] = None
    run_id: str = field(default_factory=lambda: uuid.uuid4().hex[:12])
    package_version: str = ""
    host: Dict[str, object] = field(default_factory=host_info)
    created_at: float = field(default_factory=time.time)

    def __post_init__(self) -> None:
        if not self.package_version:
            from .. import __version__

            self.package_version = __version__

    @property
    def digest(self) -> str:
        """The config digest identifying comparable runs."""
        return config_digest(self.config)

    def to_dict(self) -> Dict[str, object]:
        """The JSON shape written into ledger records."""
        return {
            "run_id": self.run_id,
            "workload": self.workload,
            "config": dict(self.config),
            "config_digest": self.digest,
            "seed": self.seed,
            "pipelines": self.pipelines,
            "workers": self.workers,
            "mode": self.mode,
            "package_version": self.package_version,
            "host": dict(self.host),
            "created_at": self.created_at,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunManifest":
        """Rebuild a manifest from its :meth:`to_dict` shape."""
        return cls(
            workload=str(data.get("workload", "")),
            config=dict(data.get("config", {})),
            seed=data.get("seed"),
            pipelines=data.get("pipelines"),
            workers=data.get("workers"),
            mode=data.get("mode"),
            run_id=str(data.get("run_id", "")) or uuid.uuid4().hex[:12],
            package_version=str(data.get("package_version", "")),
            host=dict(data.get("host", {})),
            created_at=float(data.get("created_at", 0.0)),
        )


class RunLedger:
    """Append-only JSON-lines record of runs under one directory."""

    def __init__(self, path: Optional[str] = None):
        self.path = path or os.path.join(DEFAULT_LEDGER_DIR, DEFAULT_LEDGER_NAME)

    def append(self, record: Dict[str, object]) -> None:
        """Append one record (``schema``/``schema_version`` stamped on;
        ``schema`` is kept alongside the explicit name so v1 readers of
        this file keep working too)."""
        record = {
            "schema": LEDGER_SCHEMA_VERSION,
            "schema_version": LEDGER_SCHEMA_VERSION,
            **record,
        }
        with self._open_for_append() as handle:
            handle.write(json.dumps(record, default=str) + "\n")

    def check_writable(self) -> None:
        """Refuse the ledger before a run starts rather than from its
        first record (``error: cannot write ledger <path>: …``): the
        path is a directory, or cannot be created or opened for append."""
        check_writable(self.path, "ledger ", make_parent=True)

    def _open_for_append(self):
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        return open(self.path, "a")

    def record(
        self,
        manifest: RunManifest,
        event: str,
        **fields: object,
    ) -> None:
        """Append one event of ``manifest``'s run.

        ``run.start`` embeds the full manifest; every other event carries
        just the correlating ``run_id``.
        """
        record: Dict[str, object] = {
            "ts": time.time(),
            "run_id": manifest.run_id,
            "event": event,
        }
        if event == "run.start":
            record["manifest"] = manifest.to_dict()
        record.update(fields)
        self.append(record)

    def read(self) -> List[Dict[str, object]]:
        """Every record in the ledger, oldest first (empty when the file
        does not exist; malformed or non-object lines are skipped, not
        fatal).  Unknown keys — fields stamped by newer writers — pass
        through untouched: every reader queries by ``.get``, so ledgers
        written before or after a schema bump both analyze cleanly."""
        if not os.path.exists(self.path):
            return []
        records: List[Dict[str, object]] = []
        with open(self.path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if isinstance(record, dict):
                    records.append(record)
        return records

    def runs(self) -> Dict[str, List[Dict[str, object]]]:
        """Records grouped by ``run_id``, preserving order within each."""
        grouped: Dict[str, List[Dict[str, object]]] = {}
        for record in self.read():
            grouped.setdefault(str(record.get("run_id")), []).append(record)
        return grouped

    def events(
        self,
        event: Optional[str] = None,
        run_id: Optional[str] = None,
        **fields: object,
    ) -> List[Dict[str, object]]:
        """Records filtered by event name (exact, or a ``"fault."``-style
        prefix when it ends with a dot), ``run_id``, and any extra
        payload field equalities — the query the resilience tests and
        doctors run against fault/retry events."""
        out: List[Dict[str, object]] = []
        for record in self.read():
            name = str(record.get("event", ""))
            if event is not None:
                if event.endswith("."):
                    if not name.startswith(event):
                        continue
                elif name != event:
                    continue
            if run_id is not None and record.get("run_id") != run_id:
                continue
            if any(record.get(key) != value for key, value in fields.items()):
                continue
            out.append(record)
        return out


# -- the ambient run context ---------------------------------------------------------

@dataclass
class ActiveRun:
    """One (manifest, ledger) pair currently collecting events."""

    manifest: RunManifest
    ledger: RunLedger


_active: Optional[ActiveRun] = None


def active_run() -> Optional[ActiveRun]:
    """The ambient run, or ``None`` outside any :func:`run_context`."""
    return _active


def active_run_id() -> Optional[str]:
    """The ambient run's id (log records stamp this)."""
    return _active.manifest.run_id if _active is not None else None


@contextmanager
def run_context(
    manifest: RunManifest, ledger: Optional[RunLedger] = None
) -> Iterator[ActiveRun]:
    """Open a run: records ``run.start`` (with the embedded manifest) on
    entry and ``run.end``/``run.error`` on exit, and makes the run the
    ambient target of :func:`record_event` in between."""
    global _active
    run = ActiveRun(manifest, ledger if ledger is not None else RunLedger())
    previous = _active
    run.ledger.record(manifest, "run.start")
    _active = run
    started = time.perf_counter()
    try:
        yield run
    except BaseException as error:
        run.ledger.record(
            manifest, "run.error",
            elapsed_seconds=time.perf_counter() - started,
            error=f"{type(error).__name__}: {error}",
        )
        raise
    else:
        run.ledger.record(
            manifest, "run.end",
            elapsed_seconds=time.perf_counter() - started,
        )
    finally:
        _active = previous


def record_event(event: str, **fields: object) -> None:
    """Record one event against the ambient run (no-op without one).

    This is the hook instrumented code calls from deep in the stack:
    ``run_sharded`` records its waves and totals here without knowing
    whether a ledger exists.
    """
    if _active is not None:
        _active.ledger.record(_active.manifest, event, **fields)
