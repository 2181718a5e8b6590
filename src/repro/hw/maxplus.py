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


#: What an ungated module's commit is handed.
_UNTIMED = Timed()


@dataclass(slots=True)
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
    #: Index into ``steps`` per action, in order (a bool indexes a
    #: two-step table: a stream's ``filled`` can be an action list).
    actions: Sequence[int]
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


class Solution:
    """What a solved run leaves on its engine (``engine.solution``)."""

    __slots__ = ("start", "stats", "grants", "_order", "_plans", "_wiring", "_actors")

    def __init__(self, start: int, stats, grants: Dict[int, int], order, plans, wiring):
        self.start = start
        #: The run's :class:`~repro.hw.engine.RunStats`.
        self.stats = stats
        #: Memory channel -> requests it granted in the run.
        self.grants = grants
        self._order, self._plans, self._wiring = order, plans, wiring
        self._actors: Optional[Dict[int, tuple]] = None

    @property
    def actors(self) -> Dict[int, tuple]:
        """Module ``id`` -> ``(steps, actions, view)``: ``view`` maps its
        queues' ``id`` (and :data:`RESPONSES`) to ``(pushes, pops)``
        cycles.  Gathered when first asked for (by a profile), not by
        every run."""
        if self._actors is None:
            queues = self._wiring.queues
            self._actors = {}
            for module, plan, responses in zip(
                self._order, self._plans, self._wiring.responses
            ):
                view = {id(q): queues[id(q)] for q in module.outputs.values()}
                for queue in module.inputs.values():
                    view[id(queue)] = queues[id(queue)]
                if responses is not None:
                    view[RESPONSES] = responses
                self._actors[id(module)] = (plan.steps, plan.actions, view)
        return self._actors


# -- eligibility ---------------------------------------------------------------------


#: The hooks a plan must describe.
_HOOKS = ("plan", "tick", "is_idle")

#: Class -> ``(its MRO, where its hooks resolve, whether they are
#: planned)``.  The verdict depends on which class of the MRO owns each
#: hook, and on nothing else.  Where a hook resolves is held as
#: ``(name, namespace, defines)`` for the owner's namespace (which
#: defines it) and each one passed over to find it (which does not): the
#: class is judged again once its MRO changes or one of those flips —
#: whichever class of the MRO a patch went to.
_PLANNED: Dict[type, tuple] = {}


def _judge(cls: type) -> tuple:
    """``cls``'s entry of :data:`_PLANNED`."""
    owners, where = {}, []
    for name in _HOOKS:
        for owner in cls.__mro__:
            defines = name in owner.__dict__
            where.append((name, owner.__dict__, defines))
            if defines:
                owners[name] = owner
                break
    plan = owners.get("plan")
    verdict = plan is not None and all(
        issubclass(plan, owners[name]) for name in _HOOKS
    )
    return cls.__mro__, tuple(where), verdict


def planned(module) -> bool:
    """True when ``module``'s :meth:`plan` describes the ``tick`` it
    actually runs: the class defining ``plan`` is (a subclass of) the one
    defining ``tick`` and ``is_idle``, and no instance overrides any of
    them.  The class's verdict is judged once per class, and again when
    a patch moves one of its hooks to another class."""
    cls = type(module)
    known = _PLANNED.get(cls)
    if known is None or known[0] is not cls.__mro__:
        known = _PLANNED[cls] = _judge(cls)
    else:
        for name, namespace, defines in known[1]:
            if (name in namespace) is not defines:  # the hook moved
                known = _PLANNED[cls] = _judge(cls)
                break
    return known[2] and vars(module).keys().isdisjoint(_HOOKS)


def _topological(engine) -> Optional[list]:
    """The engine's modules in a dataflow order (registration order
    among ready modules), or None when the queue graph is not a set of
    one-producer, one-consumer, empty queues without a cycle."""
    modules = engine.modules
    members = set(map(id, modules))
    queues = set()
    forward = True  # does every queue run forward in registration order?
    for queue in engine.queues:
        producers, consumers = queue.producers, queue.consumers
        if len(producers) != 1 or len(consumers) != 1 or not queue.is_empty():
            return None
        producer, consumer = producers[0], consumers[0]
        if id(producer) not in members or id(consumer) not in members:
            return None
        if producer._index >= consumer._index:
            forward = False
        queues.add(id(queue))
    for position, module in enumerate(modules):
        if module._index != position:
            forward = False
        for ports in (module.inputs, module.outputs):
            for queue in ports.values():
                if id(queue) not in queues:
                    return None
    if forward:  # then registration order is the order the heap takes
        return list(modules)
    indegree = dict.fromkeys(members, 0)
    for queue in engine.queues:
        indegree[id(queue.consumers[0])] += 1
    ready = [(m._index, m) for m in modules if not indegree[id(m)]]
    heapq.heapify(ready)
    order = []
    while ready:
        _index, module = heapq.heappop(ready)
        order.append(module)
        for queue in module.outputs.values():
            consumer = queue.consumers[0]
            key = id(consumer)
            indegree[key] -= 1
            if not indegree[key]:
                heapq.heappush(ready, (consumer._index, consumer))
    return order if len(order) == len(modules) else None


# -- the functional pass -------------------------------------------------------------


class _Facts(NamedTuple):
    """What a run needs of a :class:`Step` besides its cycles: a pure
    function of the step, derived once per step (:func:`_facts`)."""

    #: Input ports the tick reads (bar :data:`RESPONSES`) and output
    #: ports it pushes to or needs room on: each must be connected.
    inputs: frozenset
    outputs: frozenset
    #: Input ports the tick pops (bar :data:`RESPONSES`).
    popped: Tuple[str, ...]
    #: True when the tick counts as busy: it pushes, or is :attr:`Step.busy`.
    busy: bool
    #: Which of the compiled shapes it takes (:func:`_compile`).
    shape: int


#: Step -> its facts.  Steps are declared in code, so this stays small.
_FACTS: Dict[Step, _Facts] = {}


def _facts(step: Step) -> _Facts:
    facts = _FACTS.get(step)
    if facts is None:
        popped = (*step.pops, *step.assumes)
        facts = _FACTS[step] = _Facts(
            frozenset((*step.pops, *step.peeks, *step.assumes)) - {RESPONSES},
            frozenset((*step.pushes, *step.rooms)),
            tuple(port for port in popped if port != RESPONSES),
            bool(step.pushes or step.busy),
            _shape(step),
        )
    return facts


def _plan_all(order) -> Optional[Tuple[list, list, list]]:
    """Every module's plan, in ``order``; per plan its busy actions
    (those whose step pushes or is :attr:`Step.busy`) and the indices of
    the steps it takes.  None when a module would not finish its
    streams, a step it takes names an unconnected port, or two modules
    share a scratchpad one writes."""
    streams: Dict[int, Stream] = {}
    plans, busy, taken = [], [], []
    users: Dict[int, int] = {}  # scratchpad id -> plans reading or writing it
    written = []
    for module in order:
        inputs, outputs = module.inputs, module.outputs
        given = {port: streams[id(q)] for port, q in inputs.items()}
        try:
            plan = module.plan(given)
        except Exception:  # the dense loop raises it where it arises
            return None
        if not plan.idle:
            return None
        produced = plan.outputs
        for port, queue in outputs.items():
            streams[id(queue)] = produced.get(port, EMPTY)
        if not produced.keys() <= outputs.keys() and any(
            len(stream) for port, stream in produced.items()
            if port not in outputs
        ):
            return None  # the tick would push to an unconnected port
        try:  # one byte per action: a step's actions count at C speed
            actions = bytearray(plan.actions)
            counts = [actions.count(index) for index in range(len(plan.steps))]
        except (TypeError, ValueError):
            return None  # an action, or a step table, no byte can index
        if sum(counts) != len(actions):
            return None  # an action that indexes no step
        popped = dict.fromkeys(inputs, 0)
        acted = 0
        used = []
        for index, count in enumerate(counts):
            if not count:
                continue
            used.append(index)
            facts = _facts(plan.steps[index])
            if not (
                inputs.keys() >= facts.inputs and outputs.keys() >= facts.outputs
            ):
                return None  # the tick would raise on an unconnected port
            for port in facts.popped:
                popped[port] += count
            if facts.busy:
                acted += count
        for port, stream in given.items():
            if popped[port] != len(stream):
                return None
        plans.append(plan)
        busy.append(acted)
        taken.append(used)
        read, write = plan.reads_spm, plan.writes_spm
        if read is not None:
            users[id(read)] = users.get(id(read), 0) + 1
        if write is not None:
            written.append(write)
            if write is not read:
                users[id(write)] = users.get(id(write), 0) + 1
    if any(users[id(spm)] > 1 for spm in written):
        return None
    return plans, busy, taken


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


def _shape(step: Step) -> int:
    """The shape ``step`` compiles to."""
    if len(step.pops) == 1 and not step.peeks and len(step.assumes) <= 1:
        if len(step.pushes) <= 1 and len(step.rooms) == 1:
            return _ONE_IN
        if not step.pushes and not step.rooms and not step.assumes:
            return _SINK
        if step.pushes and step.pushes == step.rooms and not step.assumes:
            return _FORK
    if (
        not step.pops and not step.peeks
        and len(step.pushes) == 1 and len(step.rooms) == 1
    ):
        return _NO_IN
    return _ANY


def _compile(step: Step, ends, outputs):
    """``step`` over the timing lists: ``ends[port]`` is an input's
    ``(push cycles, pop cycles)``, ``outputs[port]`` an output's plus its
    capacity and ``delta``."""
    shape = _facts(step).shape
    if shape == _NO_IN:
        return (_NO_IN, outputs[step.pushes[0]][0].append, *outputs[step.rooms[0]])
    if shape == _ANY:
        return (
            _ANY,
            tuple(ends[p] for p in (*step.pops, *step.peeks)),
            tuple(ends[p][1] for p in (*step.pops, *step.assumes)),
            tuple(outputs[p][0] for p in step.pushes),
            tuple(outputs[p] for p in step.rooms),
        )
    pushed, pops = ends[step.pops[0]]
    if shape == _SINK:
        return (_SINK, pushed, pops, pops.append)
    if shape == _FORK:
        return (_FORK, pushed, pops, pops.append, tuple(outputs[p] for p in step.rooms))
    also = ends[step.assumes[0]][1].append if step.assumes else None
    push = outputs[step.pushes[0]][0].append if step.pushes else None
    return (_ONE_IN, pushed, pops, pops.append, also, push, *outputs[step.rooms[0]])


#: The wait of an actor that has not moved yet: always met.
_READY = ([None], 0)


class _Actor:
    """One module's actions as the timing pass walks them, each run of
    equal steps with its step unpacked once."""

    __slots__ = ("plan", "steps", "actions", "done", "prev", "wait", "active")

    def __init__(self, plan: Plan, steps: list, start: int):
        """``steps``: per step of the plan, the step compiled (None for
        a step it never takes: its ports need not be wired)."""
        self.plan = plan
        self.steps = steps
        self.actions = plan.actions
        self.done = 0
        self.prev = start - 1
        #: ``(list, k)``: the actor may move once ``len(list) > k``.
        self.wait = _READY
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

    def __init__(self, plan: Plan, steps: list, start: int):
        super().__init__(plan, steps, start)
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


class _Wiring(NamedTuple):
    """The timing lists of one run, made once and refilled by every
    timing pass, and every module's steps compiled over them."""

    #: Queue ``id`` -> its ``(push cycles, pop cycles)``.
    queues: Dict[int, tuple]
    #: Per module (in dataflow order): a Memory Reader's
    #: :data:`RESPONSES` lists (else None), and its compiled steps.
    responses: List[Optional[tuple]]
    steps: List[list]
    #: The queues whose heads some step pops without waiting.
    assumed: List[tuple]


def _wire(order, plans, taken) -> _Wiring:
    """The lists and compiled steps of a run of ``plans``, each module
    compiling only the steps it takes (``taken``)."""
    queues: Dict[int, tuple] = {}
    responses, compiled, assumed = [], [], {}
    for module, plan, used in zip(order, plans, taken):
        ends, outputs = {}, {}
        me = module._index
        for port, queue in module.outputs.items():
            lists = queues[id(queue)] = ([], [])
            delta = 0 if queue.consumers[0]._index < me else 1
            outputs[port] = (*lists, queue.capacity, delta)
        inputs = module.inputs
        for port, queue in inputs.items():
            ends[port] = queues[id(queue)]
        if plan.fetch or plan.credits:
            ends[RESPONSES] = ([], [])
        responses.append(ends.get(RESPONSES))
        steps = [None] * len(plan.steps)
        for index in used:
            step = plan.steps[index]
            steps[index] = _compile(step, ends, outputs)
            for port in step.assumes:
                if port in inputs:
                    assumed[id(inputs[port])] = ends[port]
        compiled.append(steps)
    return _Wiring(queues, responses, compiled, list(assumed.values()))


def _time(plans, wiring: _Wiring, completions, start: int):
    """One timing pass under the given memory completions, over
    ``wiring``'s lists (refilled); returns the actors, or None when the
    wave cannot finish (a deadlock) or a tick pops a head it assumed had
    arrived but had not."""
    for pushes, pops in wiring.queues.values():
        pushes.clear()
        pops.clear()
    actors = []
    for plan, responses, steps in zip(plans, wiring.responses, wiring.steps):
        if responses is not None:
            responses[0][:] = _responses(
                plan, completions.get(plan.port, []), start
            )
            responses[1].clear()
        actors.append(
            (_GatedActor if plan.hazards is not None else _Actor)(
                plan, steps, start
            )
        )
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
    for pushed, pops in wiring.assumed:  # each head there before its pop
        if not all(map(operator.lt, pushed, pops)):
            return None
    return actors


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
    plans, busy, taken = planned_all
    wiring = _wire(order, plans, taken)

    start = engine.cycle
    memory = engine.memory
    fetches = {p.port: (p.fetch, p.window) for p in plans if p.fetch}
    stores = {p.port: [] for p in plans if p.stores is not None}
    completions, arbiters = _simulate_memory(memory, start, fetches, stores)
    for _round in range(MEMORY_ROUNDS):
        actors = _time(plans, wiring, completions, start)
        if actors is None:
            return None
        if not stores:  # no write request: the grants cannot move
            break
        for module, plan in zip(order, plans):
            if plan.stores is not None:
                port, flits = plan.stores
                pops = wiring.queues[id(module.inputs[port])][1]
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

    for actor, module, acted in zip(actors, order, busy):
        plan = actor.plan
        plan.commit(
            Timed(actor.stalls, actor.entered) if plan.hazards is not None
            else _UNTIMED
        )
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
        {channel: grants for channel, (_pointer, grants) in arbiters.items()},
        order, plans, wiring,
    )
    return stats
