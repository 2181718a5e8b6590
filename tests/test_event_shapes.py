"""Shape pin for what a run writes down: the ledger events of
``run_sharded`` over devices {1, 2} x storage {off, on} x faults {off,
on}, one run that exhausts a wave's retry budget, and one served trace
with a drain — and the trace spans ``repro.obs.spans.trace_spans`` folds
from exactly those events (nothing else is recorded during a run).

Each case is reduced to two multisets — ``event name | sorted field
keys`` and ``span lane | category`` — and compared against
``tests/data/event_shapes.json``.  Values (cycles, seconds, worker
labels) are deliberately not pinned; what is pinned is which records
exist, how many, and which fields they carry, so a refactor of the
execution path cannot silently drop a field, a lane or an event.

Regenerate (only when a shape change is intended and declared)::

    PYTHONPATH=src:tests python tests/test_event_shapes.py

The same ten cases are also pinned *by value* against
``tests/data/event_values.json``: every ledger record minus its
host-clock fields (:data:`HOST_FIELDS`) and every span's lane, category,
name, interval, parent linkage and attributes — everything the modelled
clock determines.  A refactor that claims "same records, same spans"
passes it unchanged; ``--values`` regenerates that file alone.

The same cases carry the checks no golden can: every card's lane adds
up to what its card was charged, the failed run traces the waves that
ran, and a direct run's ledger does not depend on its host fan-out.
"""

import contextlib
import json
import os
import sys
from collections import Counter

import pytest

from repro.accel import MetadataWaveDriver
from repro.accel.scheduler import WAVE_FAULT_SITE
from repro.accel.sharding import run_sharded
from repro.constants import CLOCK_HZ
from repro.errors import InputError
from repro.eval.workloads import make_workload
from repro.faults.injector import RetryBudgetExceeded
from repro.faults.plan import FaultPlan, FaultSpec
from repro.faults.retry import RetryPolicy
from repro.obs.ledger import RunLedger, RunManifest, run_context
from repro.obs.spans import WAVE_SEGMENTS, trace_spans
from repro.serve import JobService, JobSpec
from repro.accel.stages import STAGES
from repro.serve.trace import SERVE_STAGES
from repro.storage import plan_storage_filter

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "event_shapes.json")
VALUES = os.path.join(os.path.dirname(__file__), "data", "event_values.json")

#: Fields that carry the host clock or host identity (or are derived
#: from them) — the only ones the value-level golden leaves out.
HOST_FIELDS = frozenset([
    "ts", "run_id", "elapsed_seconds", "worker", "host", "created_at",
    "host_parallelism",
])

#: The global wave the fault plans name.  The sharded workload packs
#: five metadata waves that hash onto two devices as [1, 2, 3] / [0, 4],
#: so wave 2 sits at queue slot 1: slot and global index differ.
FAULTED_WAVE = 2

SHARDED_CASES = [
    (devices, storage, faults)
    for devices in (1, 2)
    for storage in (False, True)
    for faults in (False, True)
]


def _workload(psize=600):
    return make_workload(
        n_reads=80, read_length=50, chromosomes=(20, 21),
        genome_scale=4.5e-5, psize=psize, seed=105,
    )


def _shapes(events, spans):
    return {
        "events": dict(sorted(Counter(
            f"{name}|{','.join(sorted(fields))}" for name, fields in events
        ).items())),
        "spans": dict(sorted(Counter(
            f"{span.lane}|{span.cat}" for span in spans
        ).items())),
    }


def _values(events, spans):
    """Events sorted by content, not arrival: a pooled run (two device
    queues) ledgers its waves in completion order."""
    return {
        "events": sorted(
            (
                [name, {
                    key: value for key, value in sorted(fields.items())
                    if key not in HOST_FIELDS
                }]
                for name, fields in events
            ),
            key=json.dumps,
        ),
        "spans": [
            [span.lane, span.cat, span.name, span.start, span.end,
             span.span_id, span.parent_id, span.trace_id, span.tenant,
             dict(sorted(span.attrs.items()))]
            for span in spans
        ],
    }


def _ledger_events(ledger):
    envelope = {"schema", "schema_version", "ts", "run_id", "event"}
    return [
        (record["event"], {
            key: value for key, value in record.items()
            if key not in envelope
        })
        for record in ledger.read()
        if not record["event"].startswith("run.")
    ]


def sharded_case(
    workload, tmp_path, devices, storage, faults, exhaust=False, workers=1,
    plan=None, name="",
):
    """One ``run_sharded`` metadata stage, ledgered.

    ``faults`` injects one retried fault at :data:`FAULTED_WAVE` (its
    backoff, a millisecond or so, is the wave's penalty on its card);
    ``exhaust`` makes it outlast the retry budget, so the run raises once
    every other wave has run: the ledger of a failed run.  A ``plan``
    given instead is run under a budget of two retries."""
    max_retries = 1 if plan is None else 2
    if faults or exhaust:
        plan = FaultPlan(seed=3, specs=(FaultSpec(
            "transfer_error", site="scheduler.wave", at=(FAULTED_WAVE,),
            attempts=2 if exhaust else 1,
        ),))
    ledger = RunLedger(os.path.join(
        str(tmp_path),
        f"d{devices}s{storage:d}f{faults:d}x{exhaust:d}w{workers}{name}.jsonl",
    ))
    manifest = RunManifest(workload="event-shapes", config={"devices": devices})
    with run_context(manifest, ledger), pytest.raises(
        RetryBudgetExceeded
    ) if exhaust else contextlib.nullcontext():
        run_sharded(
            MetadataWaveDriver(reference=workload.reference),
            workload.partitions, 2, devices=devices, workers=workers,
            fault_plan=plan,
            retry_policy=RetryPolicy(
                max_retries=max_retries, backoff_base=0.001
            ),
            storage=(
                plan_storage_filter(
                    workload.partitions, workload.reference, record=False
                ) if storage else None
            ),
        )
    return ledger


def served_case(workload, drain_at=3):
    """Six jobs on two devices behind the filter, one retried fault on
    the second dispatch, drained after ``drain_at`` dispatches (``None``:
    never) and resumed to idle; returns the service that ran last."""
    storage = plan_storage_filter(
        list(workload.partitions) + list(workload.group_partitions),
        workload.reference, record=False,
    )
    service = JobService(
        devices=2, workers=1, storage=storage,
        fault_plan=FaultPlan(seed=5, specs=(
            FaultSpec("transfer_error", site=WAVE_FAULT_SITE, at=(1,)),
        )),
        retry_policy=RetryPolicy(max_retries=2),
    )
    for index in range(6):
        stage = SERVE_STAGES[index % len(SERVE_STAGES)]
        service.schedule(
            JobSpec(
                tenant=f"t{index % 2}",
                driver=STAGES[stage].over(workload),
                partitions=STAGES[stage].items(workload),
                n_pipelines=2,
            ),
            at_cycles=index * 1000,
        )
    if drain_at is not None:
        service.run(max_dispatches=drain_at)
        service = JobService.resume(service.drain())
    service.run_until_idle()
    return service


def collect_cases(tmp_path):
    """Every pinned case as ``(events, spans)``, values and all — the
    spans folded from the case's events."""
    workload = _workload()
    cases = {}
    for devices, storage, faults in SHARDED_CASES:
        ledger = sharded_case(workload, tmp_path, devices, storage, faults)
        key = f"sharded-d{devices}-s{storage:d}-f{faults:d}"
        cases[key] = _ledger_events(ledger)
    cases["sharded-d2-budget-exhausted"] = _ledger_events(
        sharded_case(workload, tmp_path, 2, False, True, exhaust=True)
    )
    cases["served-d2-s1-f1-drain3"] = served_case(_workload(psize=1500)).events
    return {
        case: (events, trace_spans(events)) for case, events in cases.items()
    }


@pytest.fixture(scope="module")
def cases(tmp_path_factory):
    return collect_cases(tmp_path_factory.mktemp("shapes"))


@pytest.fixture(scope="module")
def shapes(cases):
    return {
        case: _shapes(events, spans)
        for case, (events, spans) in cases.items()
    }


def _golden(path=GOLDEN):
    with open(path) as handle:
        return json.load(handle)


def test_every_case_is_pinned(shapes):
    assert sorted(shapes) == sorted(_golden())


@pytest.mark.parametrize("case", sorted(_golden()) if os.path.exists(GOLDEN) else [])
def test_event_and_span_shapes(shapes, case):
    want = _golden()[case]
    assert shapes[case]["events"] == want["events"]
    assert shapes[case]["spans"] == want["spans"]


@pytest.mark.parametrize("case", sorted(_golden()) if os.path.exists(GOLDEN) else [])
def test_event_and_span_values(cases, case):
    """The value-level pin: same records and spans, to the last modelled
    cycle and second (compared after a JSON round trip, which is exact
    for the ints and floats the ledger writes)."""
    got = json.loads(json.dumps(_values(*cases[case])))
    want = _golden(VALUES)[case]
    assert got["events"] == want["events"]
    assert got["spans"] == want["spans"]


def test_sharded_fault_ledger_joins_on_device_and_wave(tmp_path):
    """The single wave identity, end to end: on two devices behind the
    filter, ``scheduler.wave``, ``storage.wave`` and ``fault.retry``
    join on ``(device, wave)`` without a miss, and the faulted wave is
    the one the plan named — by its global index."""
    ledger = sharded_case(_workload(), tmp_path, 2, True, True)
    ran = {
        (e["device"], e["wave"]) for e in ledger.events("scheduler.wave")
    }
    stored = {
        (e["device"], e["wave"]) for e in ledger.events("storage.wave")
    }
    assert ran == stored and len(ran) > FAULTED_WAVE
    assert sorted(wave for _device, wave in ran) == list(range(len(ran)))
    (retry,) = ledger.events("fault.retry")
    (injected,) = ledger.events("fault.injected")
    assert retry["wave"] == injected["slot"] == FAULTED_WAVE
    assert (retry["device"], retry["wave"]) in ran
    assert injected["device"] == retry["device"]
    # the queue slot differs from the global index, or this proves nothing
    queue = sorted(w for device, w in ran if device == retry["device"])
    assert queue.index(FAULTED_WAVE) != FAULTED_WAVE


def _card_balances(spans, device, waves, transfer_seconds, load, kernel,
                   backoff_seconds):
    """Card ``device``'s lane adds up: its summed ``transfer`` segments
    are the card's charged transfer seconds (within a cycle per wave),
    its ``spm_load`` and ``kernel`` segments the load and kernel cycles
    it ran, its ``fault_penalty`` segments the retry backoff charged to
    it, in cycles."""
    laid = Counter()
    for span in spans:
        if span.lane == f"device:{device}" and span.cat in WAVE_SEGMENTS:
            laid[span.cat] += span.end - span.start
    assert abs(laid["transfer"] - transfer_seconds * CLOCK_HZ) <= waves
    assert laid["spm_load"] == load
    assert laid["kernel"] == kernel
    assert laid["fault_penalty"] == round(backoff_seconds * CLOCK_HZ)


@pytest.mark.parametrize("case", [
    f"sharded-d{devices}-s{storage:d}-f{faults:d}"
    for devices, storage, faults in SHARDED_CASES
])
def test_each_direct_card_balances(cases, case):
    """Every card of a direct run, one or two, filtered or not, faulted
    or not, balances against its queue's ``shard.device`` summary and
    the ``fault.retry`` backoffs of its waves."""
    events, spans = cases[case]
    queues = [fields for name, fields in events if name == "shard.device"]
    assert queues
    for queue in queues:
        _card_balances(
            spans, queue["device"], queue["waves"],
            queue["transfer_seconds"], queue["spm_load_cycles"],
            queue["cycles"], sum(
                fields["backoff_seconds"] for name, fields in events
                if name == "fault.retry" and fields["device"] == queue["device"]
            ),
        )


def test_each_served_card_balances():
    """The served case, undrained: every card balances against the
    pool's transfer seconds, its ``serve.wave.done`` records and the
    ``serve.retry`` backoffs of the waves it ran."""
    service = served_case(_workload(psize=1500), drain_at=None)
    summary = service.summary()
    assert summary.retries == 1
    for device, transfer_seconds in enumerate(
        summary.device_transfer_seconds
    ):
        done = [
            fields for name, fields in service.events
            if name == "serve.wave.done" and fields["device"] == device
        ]
        ran = {(fields["job"], fields["wave"]) for fields in done}
        _card_balances(
            service.spans(), device, len(done), transfer_seconds,
            sum(fields["load_cycles"] for fields in done),
            sum(fields["cycles"] for fields in done), sum(
                fields["backoff_seconds"]
                for name, fields in service.events
                if name == "serve.retry" and (fields["job"], fields["wave"]) in ran
            ),
        )


def test_a_failed_direct_run_still_traces(cases):
    """A run whose retry budget ran out traces every wave that ran —
    each laid once, on its card — and no span names a parent that is
    never laid."""
    events, spans = cases["sharded-d2-budget-exhausted"]
    ran = [
        (fields["device"], fields["wave"]) for name, fields in events
        if name == "scheduler.wave"
    ]
    assert [wave for _device, wave in ran] == [
        wave for wave in range(5) if wave != FAULTED_WAVE
    ]
    waves = [span for span in spans if span.cat == "wave"]
    assert [(span.attrs["device"], span.attrs["wave"]) for span in waves] == ran
    assert all(span.lane == f"device:{span.attrs['device']}" for span in waves)
    ids = {span.span_id for span in spans}
    assert all(span.parent_id in ids | {None} for span in spans)


@pytest.mark.parametrize("devices", (1, 2))
def test_a_direct_ledger_is_the_same_at_every_worker_count(tmp_path, devices):
    """A direct run writes each wave once, in global order, whatever its
    host fan-out: inline or pooled, filtered and faulted, its ledger
    minus the host fields (and the fan-out itself) is one sequence."""
    workload = _workload()

    def ledgered(workers):
        return [
            (name, {
                key: value for key, value in fields.items()
                if key not in HOST_FIELDS | {"workers"}
            })
            for name, fields in _ledger_events(sharded_case(
                workload, tmp_path, devices, True, True, workers=workers
            ))
        ]

    assert ledgered(1) == ledgered(2)


def test_a_pooled_direct_ledger_writes_its_faults_in_ladder_order(tmp_path):
    """Two waves each failing two attempts: a pooled run's attempts
    complete in whatever order the workers finish them, yet its
    ``fault.injected`` records come in the ``(slot, attempt)`` order an
    inline run writes — the whole ledger is the inline one, every time."""
    workload = _workload()
    plan = FaultPlan(seed=3, specs=(FaultSpec(
        "transfer_error", site="scheduler.wave", at=(1, 3), attempts=2,
    ),))

    def ledgered(workers, run):
        return [
            (name, {
                key: value for key, value in fields.items()
                if key not in HOST_FIELDS | {"workers"}
            })
            for name, fields in _ledger_events(sharded_case(
                workload, tmp_path, 2, False, False, workers=workers,
                plan=plan, name=f"twice{run}",
            ))
        ]

    inline = ledgered(1, 0)
    assert [
        (fields["slot"], fields["attempt"])
        for name, fields in inline if name == "fault.injected"
    ] == [(1, 0), (1, 1), (3, 0), (3, 1)]
    for run in range(1, 4):
        assert ledgered(2, run) == inline


def test_an_old_direct_wave_is_refused():
    """A ``scheduler.wave`` from before direct waves were charged (no
    ``start_cycles``, no ``device`` on a lone card) is refused by name,
    not laid from cycle 0 or crashed on."""
    old = dict(stage="metadata", wave=0, replicas=2, cycles=900,
               load_cycles=40)
    with pytest.raises(InputError, match="scheduler.wave.*start_cycles"):
        trace_spans([("scheduler.wave", dict(old, device=0))])
    with pytest.raises(InputError, match="scheduler.wave.*device"):
        trace_spans([("scheduler.wave", old)])


if __name__ == "__main__":
    import tempfile

    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    values = "--values" in sys.argv[1:]
    with tempfile.TemporaryDirectory() as scratch:
        collected = {
            case: (_values if values else _shapes)(events, spans)
            for case, (events, spans) in collect_cases(scratch).items()
        }
    target = VALUES if values else GOLDEN
    with open(target, "w") as handle:
        json.dump(collected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {target}")
