"""The one retry ladder against the loops it replaced.

``repro.faults.retry.RetryLadder`` is walked by the wave executor, for
direct and served waves alike (the device model walked it too, until
its fault sites were retired).  Each of those used to spell the loop
out itself; the loops are kept here (minus their bookkeeping) as
references, restated with the budget counted from
attempt 0 — a start attempt only says where to resume — and the ladder,
configured the way each caller configures it, must reproduce them over
random plans x budgets x start attempts: the same clean attempt, the
same fault sequence, the same backoffs, the same exception type and
message, and the injected fault as ``__cause__``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedFaultError,
    RetryBudgetExceeded,
    RetryLadder,
    RetryPolicy,
    WAVE_FAULT_SITE as SITE,
)


# -- the parent's loops, kept as references ----------------------------------


def scheduler_loop(injector, policy, index, start_attempt, seen):
    """``run_wave_serial`` in ``accel/scheduler.py`` before the ladder,
    its budget counted from attempt 0."""
    attempt = start_attempt
    while True:
        fault = injector.poll(SITE, index, attempt)
        if fault is None:
            return attempt
        seen["faults"].append((fault.kind, attempt))
        if attempt >= policy.max_retries:
            raise RetryBudgetExceeded(
                f"wave {index} failed {attempt + 1} "
                f"attempt(s); retry budget ({policy.max_retries}) "
                "exhausted"
            ) from fault.to_exception()
        seen["backoffs"].append(policy.backoff_seconds(index, attempt))
        attempt += 1


def device_loop(injector, policy, slot, start_attempt, seen):
    """The retired ``GenesisDevice._retry_loop`` (always from attempt 0
    there; the start is honoured so one driver serves all): the
    reference of a ladder built without a ``subject``."""
    attempt = start_attempt
    while True:
        fault = injector.poll(SITE, slot, attempt)
        if fault is None:
            return attempt
        seen["faults"].append((fault.kind, attempt))
        if attempt >= policy.max_retries:
            raise RetryBudgetExceeded(
                f"{SITE} slot {slot} failed "
                f"{attempt + 1} attempt(s); "
                f"retry budget ({policy.max_retries}) exhausted"
            ) from fault.to_exception()
        seen["backoffs"].append(policy.backoff_seconds(slot, attempt))
        attempt += 1


#: reference loop -> how that caller builds its ladder
CALLERS = {
    "scheduler": (
        scheduler_loop, lambda slot: dict(subject=f"wave {slot}"),
    ),
    "device": (device_loop, lambda slot: {}),
}


def walk_ladder(injector, policy, slot, start_attempt, seen, **how):
    charged = []
    ladder = RetryLadder(
        injector, policy, SITE, slot, start_attempt,
        clock=charged.append, **how,
    )
    try:
        for failed in ladder:
            seen["faults"].append((failed.kind, failed.attempt))
            if not failed.exhausted:
                seen["backoffs"].append(failed.backoff_seconds)
    finally:
        # the clock saw exactly the non-zero backoffs, in order
        assert charged == [b for b in seen["backoffs"] if b > 0]
    return ladder.attempt


def outcome(run, *args):
    seen = {"faults": [], "backoffs": []}
    try:
        seen["clean"] = run(*args, seen)
    except RetryBudgetExceeded as error:
        seen["error"] = (type(error), str(error))
        seen["cause"] = error.__cause__
    return seen


SPECS = st.lists(
    st.builds(
        FaultSpec,
        kind=st.sampled_from(
            ["worker_crash", "wave_timeout", "transfer_error", "launch_error"]
        ),
        site=st.just(SITE),
        at=st.lists(st.integers(0, 3), min_size=1, max_size=3).map(tuple),
        attempts=st.integers(1, 5),
    ),
    max_size=3,
)


@settings(max_examples=200, deadline=None)
@given(
    specs=SPECS,
    max_retries=st.integers(0, 4),
    backoff_base=st.sampled_from([0.0, 0.005]),
    start_attempt=st.integers(0, 3),
    slot=st.integers(0, 3),
    caller=st.sampled_from(sorted(CALLERS)),
)
def test_ladder_matches_the_loops_it_replaced(
    specs, max_retries, backoff_base, start_attempt, slot, caller
):
    plan = FaultPlan(seed=1, specs=tuple(specs))
    policy = RetryPolicy(
        max_retries=max_retries, backoff_base=backoff_base, seed=9
    )
    loop, how = CALLERS[caller]
    want = outcome(loop, FaultInjector(plan), policy, slot, start_attempt)
    got = outcome(
        lambda *args: walk_ladder(*args, **how(slot)),
        FaultInjector(plan), policy, slot, start_attempt,
    )
    assert got["faults"] == want["faults"]
    assert got["backoffs"] == want["backoffs"]
    assert got.get("clean") == want.get("clean")
    assert got.get("error") == want.get("error")
    if "error" in got:
        # the injected fault is chained on every path
        kind, attempt = got["faults"][-1]
        cause = got["cause"]
        assert isinstance(cause, InjectedFaultError)
        assert (cause.kind, cause.site, cause.slot, cause.attempt) == (
            kind, SITE, slot, attempt
        )
        assert str(cause) == str(want["cause"])


def test_exhausted_ladder_leaves_attempt_past_the_failure():
    """The ladder ends on the next attempt to run — the clean one, or one
    past the failure that spent the budget — and a ladder resumed from
    there spends what is left of the same budget, not a fresh one."""
    plan = FaultPlan(specs=(
        FaultSpec("transfer_error", site=SITE, at=(0,), attempts=3),
    ))
    policy = RetryPolicy(max_retries=1, backoff_base=0.0)
    ladder = RetryLadder(FaultInjector(plan), policy, SITE, 0)
    with pytest.raises(RetryBudgetExceeded):
        list(ladder)
    assert ladder.attempt == 2
    # resumed there: its one fault left is past the budget at once, and
    # the message counts every failed attempt since attempt 0
    again = RetryLadder(
        FaultInjector(plan), policy, SITE, 0, start_attempt=ladder.attempt
    )
    seen = []
    with pytest.raises(RetryBudgetExceeded, match="failed 3 attempt"):
        for failed in again:
            seen.append((failed.attempt, failed.exhausted))
    assert seen == [(2, True)]
    assert again.attempt == 3


def test_ladder_without_injector_is_clean():
    assert list(RetryLadder(None, RetryPolicy(), SITE, 0)) == []
