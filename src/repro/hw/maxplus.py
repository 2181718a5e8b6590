"""The ``maxplus`` engine mode: solve a wave instead of ticking it.

Section III-C's modules move at most one flit per cycle over bounded,
registered queues, so a wave is a Kahn process network: the flits on
every queue do not depend on timing, only the cycle each one moves does.
This mode therefore runs a wave in two passes.

1. **Functional pass.**  Each module's :meth:`plan` (written beside its
   ``tick``) consumes its whole input streams, in topological order, and
   returns a :class:`Plan`: its output streams (each a column-wise
   :class:`~repro.hw.flit.Stream`; no :class:`~repro.hw.flit.Flit` is
   built) and its *action list* —
   one entry per tick that changes state, naming the :class:`Step` that
   tick takes (what it pops, which heads it must see, what it pushes,
   which outputs must have room).
2. **Timing pass.**  Every action gets its cycle from the max-plus
   recurrence the dense loop obeys::

       t = max(prev + 1,                    # one action per module-cycle
               push of each head + 1,       # registered queues
               pop of flit n - cap + delta, # room on each output it needs
               gate)                        # memory response, RMW hazard

   ``delta`` is 0 when the consumer ticks before the producer in
   registration order (its pop frees the slot the same cycle), else 1.
   Each action is evaluated once; modules are swept in topological order,
   each advancing until a constraint it needs is not known yet.

Memory stays a request-level, per-channel round-robin simulation: the
readers' requests are paced by their prefetch windows alone, the writers'
come out of the timing pass, and the two are iterated until the writers'
requests stop moving the readers' responses.

The mode reproduces the dense loop's cycles, flit and busy counts, memory
traffic and every side effect.  It never observes a tick; what ticks
would have counted between actions is derived from the :class:`Solution`
it leaves (:mod:`repro.obs.profile`).  :func:`run_maxplus` returns
``None`` wherever it cannot apply — a module without a plan for the tick
it runs, a queue graph with a cycle or a loose end, a wave that would
deadlock or diverge, a memory iteration that does not settle — and the
engine then ticks the wave in the dense loop instead.
"""

from __future__ import annotations

import heapq
import operator
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .flit import EMPTY, Stream
from .spm import RmwInterlock

#: Rounds of the memory / timing iteration after which the mode gives up
#: and the dense loop runs the wave.
MEMORY_ROUNDS = 16

#: Cycles an RMW update occupies the SPM Updater's read/modify/write
#: stages.
RMW_STAGES = RmwInterlock.STAGES

#: The pseudo input port a Memory Reader's payload steps pop: the data
#: elements its memory responses delivered.
RESPONSES = "@responses"


class Step(NamedTuple):
    """One kind of state-changing tick of a module, by port name."""

    #: Input ports whose head the tick pops (it waits for each).
    pops: Tuple[str, ...] = ()
    #: Input ports whose head the tick must see but leaves in place.
    peeks: Tuple[str, ...] = ()
    #: Output ports the tick pushes one flit to.
    pushes: Tuple[str, ...] = ()
    #: Output ports that must have room for the tick to act at all.
    rooms: Tuple[str, ...] = ()
    #: Input ports the tick pops without waiting: their head must already
    #: be there (the tick raises otherwise — the wave then falls back).
    assumes: Tuple[str, ...] = ()
    #: True when the tick counts as busy though it pushes nothing (a
    #: writer's pop); a tick that pushes always does.
    busy: bool = False


class Timed(NamedTuple):
    """What the timing pass hands back to a plan's ``commit``."""

    #: Cycles the module's hazard-gated actions waited on the interlock.
    stalls: int = 0
    #: Address -> cycle of its last entry into the RMW interlock.
    entered: Optional[Dict[object, int]] = None


@dataclass
class Plan:
    """A module's run, computed without touching the module.

    ``commit`` applies the module's end state (collected values,
    scratchpad words, stall counts; a stateless module has none) once
    the wave is known to run under this mode; until then the module is
    as it was.  The run counts the module's busy cycles and flits
    itself, from ``actions``.
    """

    outputs: Dict[str, Stream]
    steps: Sequence[Step]
    #: Index into ``steps`` per action, in order.
    actions: List[int]
    commit: Callable[[Timed], None] = lambda _timed: None
    #: False when the module would end holding state (the wave deadlocks).
    idle: bool = True
    #: The module's memory port, for a Memory Reader or Writer.
    port: Optional[int] = None
    #: Memory Reader: lines to request, its prefetch window, and the
    #: response elements it holds (``credits``) and each line brings.
    #: Its payload steps pop :data:`RESPONSES`, one element per flit.
    fetch: int = 0
    window: int = 0
    credits: int = 0
    per_line: int = 1
    #: Memory Writer: an input port and the indices of its flits whose
    #: pop issues a write request.
    stores: Optional[Tuple[str, List[int]]] = None
    #: SPM Updater (rmw), whose every action pops its input: per action
    #: the address it enters the interlock with (None: the action does
    #: not enter), and the interlock's entries (address -> cycle entered)
    #: as the run starts.
    hazards: Optional[list] = None
    interlock: Optional[Dict[object, int]] = None
    #: The scratchpad the module reads / writes during the run.
    reads_spm: object = None
    writes_spm: object = None


class Solution(NamedTuple):
    """What a solved run leaves on its engine (``engine.solution``)."""

    start: int
    #: The run's :class:`~repro.hw.engine.RunStats`.
    stats: object
    #: Module ``id`` -> ``(steps, actions, view)``: ``view`` maps its
    #: queues' ``id`` (and :data:`RESPONSES`) to ``(pushes, pops)`` cycles.
    actors: Dict[int, tuple]
    #: Memory channel -> requests it granted in the run.
    grants: Dict[int, int]


# -- eligibility ---------------------------------------------------------------------


def planned(module) -> bool:
    """True when ``module``'s :meth:`plan` describes the ``tick`` it
    actually runs: the class defining ``plan`` is (a subclass of) the one
    defining ``tick`` and ``is_idle``, and no instance overrides any of
    them."""
    hooks = ("plan", "tick", "is_idle")
    owners = {}
    for cls in type(module).__mro__:
        for name in hooks:
            if name not in owners and name in cls.__dict__:
                owners[name] = cls
    plan = owners.get("plan")
    return (
        plan is not None
        and all(issubclass(plan, owners[name]) for name in hooks)
        and vars(module).keys().isdisjoint(hooks)
    )


def _topological(engine) -> Optional[list]:
    """The engine's modules in a dataflow order (registration order
    among ready modules), or None when the queue graph is not a set of
    one-producer, one-consumer, empty queues without a cycle."""
    modules = engine.modules
    queues = set(map(id, engine.queues))
    indegree = dict.fromkeys(map(id, modules), 0)
    for queue in engine.queues:
        if len(queue.producers) != 1 or len(queue.consumers) != 1:
            return None
        producer, consumer = queue.producers[0], queue.consumers[0]
        if id(producer) not in indegree or id(consumer) not in indegree:
            return None
        if not queue.is_empty():
            return None
        indegree[id(consumer)] += 1
    for module in modules:
        for queue in (*module.inputs.values(), *module.outputs.values()):
            if id(queue) not in queues:
                return None
    ready = [(m._index, m) for m in modules if not indegree[id(m)]]
    heapq.heapify(ready)
    order = []
    while ready:
        _index, module = heapq.heappop(ready)
        order.append(module)
        for queue in module.outputs.values():
            consumer = queue.consumers[0]
            indegree[id(consumer)] -= 1
            if not indegree[id(consumer)]:
                heapq.heappush(ready, (consumer._index, consumer))
    return order if len(order) == len(modules) else None


# -- the functional pass -------------------------------------------------------------


def _plan_all(order) -> Optional[Tuple[list, list]]:
    """Every module's plan, in ``order``, and per plan its busy actions
    (those whose step pushes or is :attr:`Step.busy`); None when a module
    would not finish its streams or two modules share a scratchpad one
    writes."""
    streams: Dict[int, Stream] = {}
    plans, busy = [], []
    for module in order:
        try:
            plan = module.plan(
                {port: streams[id(q)] for port, q in module.inputs.items()}
            )
        except Exception:  # the dense loop raises it where it arises
            return None
        if not plan.idle:
            return None
        for port, stream in plan.outputs.items():
            queue = module.outputs.get(port)
            if queue is None:
                if len(stream):
                    return None
                continue
            streams[id(queue)] = stream
        for port, queue in module.outputs.items():
            streams.setdefault(id(queue), EMPTY)
        popped = Counter()
        acted = 0
        for index, count in Counter(plan.actions).items():
            step = plan.steps[index]
            inputs = {*step.pops, *step.peeks, *step.assumes} - {RESPONSES}
            if not (
                inputs <= module.inputs.keys()
                and {*step.pushes, *step.rooms} <= module.outputs.keys()
            ):
                return None  # the tick would raise on an unconnected port
            for port in (*step.pops, *step.assumes):
                popped[port] += count
            if step.pushes or step.busy:
                acted += count
        for port, queue in module.inputs.items():
            if popped[port] != len(streams[id(queue)]):
                return None
        plans.append(plan)
        busy.append(acted)
    written = [plan.writes_spm for plan in plans if plan.writes_spm is not None]
    for spm in written:
        touching = [
            plan for plan in plans
            if plan.reads_spm is spm or plan.writes_spm is spm
        ]
        if len(touching) > 1:
            return None
    return plans, busy


# -- the memory system ---------------------------------------------------------------


def _simulate_memory(memory, start: int, fetches, stores):
    """The memory system's grants for one wave: ``fetches`` maps a
    reader port to ``(lines, window)`` (it requests one line a cycle
    while fewer than ``window`` are outstanding), ``stores`` a writer
    port to its request cycles.  Returns ``(completions, arbiters)``:
    each port's completion cycles in request order, and per channel its
    arbiter's final pointer and grant count."""
    latency = memory.config.latency_cycles
    completions: Dict[int, List[int]] = {}
    arbiters = {}
    for channel, ports in enumerate(memory._ports_by_channel):
        if not any(port in fetches or port in stores for port in ports):
            continue
        n = len(ports)
        pointer = memory._arbiters[channel]._next
        pending = [0] * n
        done = [completions.setdefault(p, []) for p in ports]
        readers = []  # [slot, lines, window, issued, last issue]
        writers = []  # [slot, cycles, cursor]
        for slot, port in enumerate(ports):
            if port in fetches:
                lines, window = fetches[port]
                if lines:
                    readers.append([slot, lines, window, 0, start - 1])
            elif port in stores and stores[port]:
                writers.append([slot, stores[port], 0])
        waiting = 0
        grants = 0
        cycle = start
        while True:
            for reader in readers:
                slot, lines, window, issued, last = reader
                if issued < lines and cycle > last and (
                    issued < window or (
                        len(done[slot]) > issued - window
                        and done[slot][issued - window] < cycle
                    )
                ):
                    pending[slot] += 1
                    waiting += 1
                    reader[3] = issued + 1
                    reader[4] = cycle
            for writer in writers:
                slot, cycles, cursor = writer
                while cursor < len(cycles) and cycles[cursor] <= cycle:
                    pending[slot] += 1
                    waiting += 1
                    cursor += 1
                writer[2] = cursor
            if waiting:
                for offset in range(n):
                    slot = (pointer + offset) % n
                    if pending[slot]:
                        break
                pending[slot] -= 1
                waiting -= 1
                pointer = (slot + 1) % n
                grants += 1
                done[slot].append(cycle + latency)
                cycle += 1
                continue
            # Nothing waits for a grant: jump to the next request.
            upcoming = [
                cycles[cursor] for _slot, cycles, cursor in writers
                if cursor < len(cycles)
            ]
            for slot, lines, window, issued, last in readers:
                if issued < lines:
                    ready = last + 1
                    if issued >= window:
                        ready = max(ready, done[slot][issued - window] + 1)
                    upcoming.append(ready)
            if not upcoming:
                break
            cycle = max(cycle + 1, min(upcoming))
        arbiters[channel] = (pointer, grants)
    return completions, arbiters


# -- the timing pass -----------------------------------------------------------------


# A compiled step takes one of five shapes.  All but the last cover the
# steps nearly every action takes: one head popped (plus, for QUAL, one
# popped unwaited) with at most one push, waiting for room (readers'
# payload flits, filters, ALUs, MdGen, ReadToBases) or not (writers,
# updaters, a reducer folding); no head, one push and its room (a
# source's flit, an SPM Reader's word); one head popped onto every output
# (a Fork).
_ONE_IN, _SINK, _NO_IN, _FORK, _ANY = range(5)


def _compile(step: Step, ends, outputs):
    """``step`` over the timing lists: ``ends(port)`` is an input's
    ``(push cycles, pop cycles)``, ``outputs(port)`` an output's plus its
    capacity and ``delta``."""
    heads = [ends(p) for p in (*step.pops, *step.peeks)]
    popped = [ends(p)[1] for p in (*step.pops, *step.assumes)]
    pushes = [outputs(p)[0] for p in step.pushes]
    rooms = [outputs(p) for p in step.rooms]
    if len(step.pops) == 1 and not step.peeks and len(step.assumes) <= 1:
        pushed, pops = heads[0]
        also = popped[1].append if step.assumes else None
        if len(pushes) <= 1 and len(rooms) == 1:
            push = pushes[0].append if pushes else None
            return (_ONE_IN, pushed, pops, pops.append, also, push, *rooms[0])
        if not pushes and not rooms and also is None:
            return (_SINK, pushed, pops, pops.append)
        if pushes and step.pushes == step.rooms and also is None:
            return (_FORK, pushed, pops, pops.append, tuple(rooms))
    if not step.pops and not step.peeks and len(pushes) == 1 and len(rooms) == 1:
        return (_NO_IN, pushes[0].append, *rooms[0])
    return (_ANY, tuple(heads), tuple(popped), tuple(pushes), tuple(rooms))


class _Actor:
    """One module's actions as the timing pass walks them, each run of
    equal steps with its step unpacked once."""

    __slots__ = ("plan", "steps", "actions", "done", "prev", "wait", "active")

    def __init__(self, module, plan: Plan, queues, start: int):
        def ends(port):  # (push cycles, pop cycles) of the queue on port
            return queues[port if port == RESPONSES else id(module.inputs[port])]

        def outputs(port):
            queue = module.outputs[port]
            pushes, pops = queues[id(queue)]
            delta = 0 if queue.consumers[0]._index < module._index else 1
            return pushes, pops, queue.capacity, delta

        used = set(plan.actions)
        self.plan = plan
        # a step never taken is not compiled: its ports need not be wired
        self.steps = [
            _compile(step, ends, outputs) if index in used else None
            for index, step in enumerate(plan.steps)
        ]
        self.actions = plan.actions
        self.done = 0
        self.prev = start - 1
        #: ``(list, k)``: the actor may move once ``len(list) > k``.
        self.wait = ([None], 0)
        self.active = bool(self.actions)

    def advance(self) -> bool:
        """Time every action whose constraints are known; True when at
        least one was.  Stops at the first unknown one, noting in
        ``wait`` the timing list entry it waits for."""
        actions, steps = self.actions, self.steps
        i, prev, n = self.done, self.prev, len(actions)
        first = i
        wait = None
        while i < n:
            index = actions[i]
            step = steps[index]
            shape = step[0]
            # Within a visit no other actor runs: the lists this one reads
            # hold still, and those it appends to it counts itself.
            if shape == _ONE_IN:
                _, pushed, pops, pop, also, push, rpushed, rpops, capacity, delta = step
                j, arrived = len(pops), len(pushed)
                k, freed = len(rpushed) - capacity, len(rpops)
                while i < n and actions[i] == index:
                    if j >= arrived:
                        wait = pushed, j
                        break
                    t = prev + 1
                    ready = pushed[j] + 1
                    if ready > t:
                        t = ready
                    if k >= 0:
                        if k >= freed:
                            wait = rpops, k
                            break
                        ready = rpops[k] + delta
                        if ready > t:
                            t = ready
                    pop(t)
                    j += 1
                    if also is not None:
                        also(t)
                    if push is not None:
                        push(t)
                        k += 1
                    prev = t
                    i += 1
            elif shape == _SINK:
                _, pushed, pops, pop = step
                j, arrived = len(pops), len(pushed)
                while i < n and actions[i] == index:
                    if j >= arrived:
                        wait = pushed, j
                        break
                    t = prev + 1
                    ready = pushed[j] + 1
                    if ready > t:
                        t = ready
                    pop(t)
                    j += 1
                    prev = t
                    i += 1
            elif shape == _NO_IN:
                _, push, rpushed, rpops, capacity, delta = step
                k, freed = len(rpushed) - capacity, len(rpops)
                while i < n and actions[i] == index:
                    t = prev + 1
                    if k >= 0:
                        if k >= freed:
                            wait = rpops, k
                            break
                        ready = rpops[k] + delta
                        if ready > t:
                            t = ready
                    push(t)
                    k += 1
                    prev = t
                    i += 1
            elif shape == _FORK:
                _, pushed, pops, pop, rooms = step
                while i < n and actions[i] == index:
                    j = len(pops)
                    if j >= len(pushed):
                        wait = pushed, j
                        break
                    t = prev + 1
                    ready = pushed[j] + 1
                    if ready > t:
                        t = ready
                    for rpushed, rpops, capacity, delta in rooms:
                        k = len(rpushed) - capacity
                        if k >= 0:
                            if k >= len(rpops):
                                wait = rpops, k
                                break
                            ready = rpops[k] + delta
                            if ready > t:
                                t = ready
                    if wait is not None:
                        break
                    pop(t)
                    for rpushed, _rpops, _capacity, _delta in rooms:
                        rpushed.append(t)
                    prev = t
                    i += 1
            else:
                _, heads, popped, pushes, rooms = step
                while i < n and actions[i] == index:
                    t = prev + 1
                    for pushed, pops in heads:
                        j = len(pops)
                        if j >= len(pushed):
                            wait = pushed, j
                            break
                        ready = pushed[j] + 1
                        if ready > t:
                            t = ready
                    else:
                        for pushed, pops, capacity, delta in rooms:
                            k = len(pushed) - capacity
                            if k >= 0:
                                if k >= len(pops):
                                    wait = pops, k
                                    break
                                ready = pops[k] + delta
                                if ready > t:
                                    t = ready
                    if wait is not None:
                        break
                    for pops in popped:
                        pops.append(t)
                    for pushed in pushes:
                        pushed.append(t)
                    prev = t
                    i += 1
            if wait is not None:
                self.wait = wait
                break
        self.done, self.prev = i, prev
        self.active = i < n
        return i > first


class _GatedActor(_Actor):
    """An SPM Updater in ``rmw`` mode, whose every action pops its input,
    walked action by action: an update also waits until its address left
    the interlock's stages, and the wait is counted."""

    __slots__ = ("entered", "stalls")

    def __init__(self, module, plan: Plan, queues, start: int):
        super().__init__(module, plan, queues, start)
        self.entered = dict(plan.interlock or {})
        self.stalls = 0

    def advance(self) -> bool:
        actions, steps = self.actions, self.steps
        hazards, entered = self.plan.hazards, self.entered
        i, prev, n = self.done, self.prev, len(actions)
        first = i
        wait = None
        while i < n and wait is None:
            index = actions[i]
            _, pushed, pops, pop = steps[index]
            j, arrived = len(pops), len(pushed)
            while i < n and actions[i] == index:
                if j >= arrived:
                    wait = self.wait = pushed, j
                    break
                t = prev + 1
                ready = pushed[j] + 1
                if ready > t:
                    t = ready
                address = hazards[i]
                if address is not None:
                    if address in entered:
                        ready = entered[address] + RMW_STAGES
                        if ready > t:
                            self.stalls += ready - t
                            t = ready
                    entered[address] = t
                pop(t)
                j += 1
                prev = t
                i += 1
        self.done, self.prev = i, prev
        self.active = i < n
        return i > first


def _responses(plan: Plan, completions: List[int], start: int) -> List[int]:
    """A Memory Reader's responses as a queue it pops one element per
    payload flit from: its credits are there as the run starts, each
    line's elements once the line completes."""
    elements = [start - 1] * plan.credits
    for cycle in completions:
        elements.extend([cycle] * plan.per_line)
    return elements


def _time(order, plans, completions, start: int):
    """One timing pass under the given memory completions; returns the
    actors, each queue's ``(push cycles, pop cycles)`` by ``id`` and each
    actor's view of them (its queues plus :data:`RESPONSES`), or None
    when the wave cannot finish (a deadlock) or a tick pops a head it
    assumed had arrived but had not."""
    actors = []
    owner = {}
    assumed = []
    views = []
    for module, plan in zip(order, plans):
        queues = {id(q): ([], []) for q in module.outputs.values()}
        views.append(queues)
        for port, queue in module.inputs.items():
            queues[id(queue)] = owner[id(queue)][1]
        if plan.fetch or plan.credits:
            queues[RESPONSES] = (
                _responses(plan, completions.get(plan.port, []), start), []
            )
        actor = (_GatedActor if plan.hazards is not None else _Actor)(
            module, plan, queues, start
        )
        for queue in module.outputs.values():
            owner[id(queue)] = (actor, queues[id(queue)])
        assumed.extend(
            owner[id(module.inputs[port])][1]
            for port in {p for step in plan.steps for p in step.assumes}
            if port in module.inputs
        )
        actors.append(actor)
    # Sweep in dataflow order while anything moves; a sweep in which
    # nothing does, with work left, is a deadlock.
    waiting = [actor for actor in actors if actor.active]
    while waiting:
        progressed = finished = False
        for actor in waiting:
            wait, k = actor.wait
            if len(wait) > k and actor.advance():
                progressed = True
                finished = finished or not actor.active
        if not progressed:
            return None
        if finished:
            waiting = [actor for actor in waiting if actor.active]
    for pushed, pops in assumed:  # each head there before its pop
        if not all(map(operator.lt, pushed, pops)):
            return None
    return actors, {key: ends for key, (_actor, ends) in owner.items()}, views


# -- the mode ------------------------------------------------------------------------


def run_maxplus(engine, max_cycles: int):
    """Run ``engine`` to quiescence under the max-plus mode and return its
    :class:`~repro.hw.engine.RunStats`, or ``None`` — leaving every
    module, queue and the memory untouched — where the mode cannot
    apply.  A solved run leaves its :class:`Solution` on the engine."""
    t0 = time.perf_counter()
    if not engine.memory.is_idle():
        return None
    if not all(planned(module) for module in engine.modules):
        return None
    order = _topological(engine)
    if order is None:
        return None
    planned_all = _plan_all(order)
    if planned_all is None:
        return None
    plans, busy = planned_all

    start = engine.cycle
    memory = engine.memory
    fetches = {p.port: (p.fetch, p.window) for p in plans if p.fetch}
    stores = {p.port: [] for p in plans if p.stores is not None}
    completions, arbiters = _simulate_memory(memory, start, fetches, stores)
    for _round in range(MEMORY_ROUNDS):
        timed = _time(order, plans, completions, start)
        if timed is None:
            return None
        actors, queues, views = timed
        for module, plan in zip(order, plans):
            if plan.stores is not None:
                port, flits = plan.stores
                pops = queues[id(module.inputs[port])][1]
                stores[plan.port] = [pops[index] for index in flits]
        settled, arbiters = _simulate_memory(memory, start, fetches, stores)
        if all(settled[port] == completions[port] for port in fetches):
            completions = settled
            break
        completions = settled
    else:
        return None

    last = max(
        [actor.prev for actor in actors if actor.plan.actions]
        + [done[-1] for done in completions.values() if done],
        default=None,
    )
    cycles = 2 if last is None else last - start + 2
    if cycles + 2 > max_cycles:
        return None  # the dense loop raises its overflow report

    for actor in actors:
        if isinstance(actor, _GatedActor):
            actor.plan.commit(Timed(actor.stalls, actor.entered))
        else:
            actor.plan.commit(Timed())
    for module, plan, acted in zip(order, plans, busy):
        module.busy_cycles += acted
        module.flits_out += acted
        for port, queue in module.outputs.items():
            queue.total_pushed += len(plan.outputs.get(port, ()))
    requests = sum(len(done) for done in completions.values())
    memory.requests_served += requests
    memory.bytes_transferred += requests * memory.config.access_bytes
    memory.busy_channel_cycles += requests
    memory.responses_completed += requests
    for channel, (pointer, grants) in arbiters.items():
        arbiter = memory._arbiters[channel]
        arbiter._next = pointer
        arbiter.grants += grants
        memory.channel_grants[channel] += grants
    engine.cycle = start + cycles
    stats = engine._stats(
        cycles,
        mode="maxplus",
        wall_seconds=time.perf_counter() - t0,
        ticks_executed=sum(len(plan.actions) for plan in plans),
    )
    engine.solution = Solution(
        start, stats,
        {
            id(module): (plan.steps, plan.actions, view)
            for module, plan, view in zip(order, plans, views)
        },
        {channel: grants for channel, (_pointer, grants) in arbiters.items()},
    )
    return stats
