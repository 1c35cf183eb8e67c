"""Lock-step batched trials: many seeds advance slot-by-slot together.

A sweep cell runs one (graph, model, protocol) configuration across many
seeds.  The serial path (:func:`repro.sim.batch.run_trials`) replays the
engine once per seed; this module instead keeps *all* trials in flight
and alternates two phases:

1. **collect** — every live trial advances its private event loop to its
   next active slot (waking sleepers, classifying yielded actions),
   stopping right before reception resolution;
2. **resolve** — all pending slots are resolved in one call through a
   :mod:`repro.sim.resolution` backend's ``batch_resolver``.  Under the
   numpy backend that is a single vectorized sweep: one transmit mask
   per trial, one gather over the shared ``uint64`` mask table, one
   popcount pass for every listener of every trial.

Trials are independent (each has its own rng chain seeded from its own
master seed), so lock-step interleaving cannot change any trial's
outcome: results are byte-identical to the serial path, and the
differential suite (tests/test_lockstep.py) pins that.

The per-trial state machine below mirrors :meth:`repro.sim.engine.
Simulator.run` exactly — same bucket/heap scheduling, same wake
semantics, same phase-plan caching, same duration bookkeeping.  Any
semantic change to the engine loop must be made in both places; the
equivalence tests will catch a drift.  The one deliberate difference is
the engine's *leap* over slots that repeat the previous one exactly: a
result-neutral shortcut of ``Simulator.run`` only.  The per-trial driver
keeps per-slot advance, so it stays the slot-by-slot lock-step oracle
the leap is pinned against.

The per-trial bookkeeping *is* now vectorized across trials:
:func:`run_trials_lockstep` dispatches eligible cells (numpy resolution,
shared count-based stateless model, no per-slot observation hooks — see
:func:`repro.sim.trialsoa.soa_engaged`) to the struct-of-arrays engine in
:mod:`repro.sim.trialsoa`, which holds plan counters, wake times, and
energy meters as 2-D ``[trial, node]`` arrays and advances whole runs
per leap of slots as array operations.  That flip took the
``lockstep_trials`` curve in ``BENCH_engine.json`` from break-even to
multiplicative — on the synthetic many-seed SR-frame cell, CI-gated at
>= 2x.  On the paper's own campaigns it still loses to the serial
engine: on the Table 1 ``dtime`` and ``nocd`` rows (n=8, 2-3 seeds,
measured in process on a 2-core box) SoA ran ~17x and ~9x slower
before it leapt over rounds whose feedback cannot change, and ~5-6x
and ~7-8x slower after (20,961 -> 5,195 and 9,489 -> 7,409 loop
iterations).  The per-trial
driver below remains both the universal fallback (bitmask/list backends,
per-seed model/observer factories, traces, no-numpy environments) and
the lock-step differential oracle the SoA engine is pinned against.
"""

from __future__ import annotations

import heapq
import random
from typing import Any, Dict, List, Optional, Sequence

from repro.graphs.graph import Graph
from repro.sim.actions import Idle, Listen, Send, SendListen
from repro.sim.config import (
    UNSET,
    ExecutionConfig,
    ExecutionConfigError,
    resolve_exec_config,
)
from repro.sim.engine import (
    DEFAULT_TIME_LIMIT,
    ProtocolError,
    ProtocolFactory,
    SimResult,
    SimulationTimeout,
    _RESUME,
)
from repro.sim.faults import GilbertElliottModel, parse_fault_specs
from repro.sim.feedback import BEEP, NOISE, SILENCE
from repro.sim.models import ChannelModel, LossyModel
from repro.sim.node import Knowledge, NodeCtx, validate_input_keys
from repro.sim.observers import (
    EnergyObserver,
    SlotObserver,
    TraceObserver,
    _ZeroEnergyObserver,
)
from repro.sim.plan import (
    OP_LISTEN,
    OP_SEND,
    OP_STEPS,
    OP_UNTIL,
    Plan,
    expand_plans,
    plan_feedback,
    plan_resume,
    start_plan,
)
from repro.sim.resolution import NumpyBackend, create_backend
from repro.sim.trace import Trace
from repro.sim.trialsoa import run_trials_soa, soa_engaged

__all__ = ["run_trials_lockstep"]


class _LockstepTrial:
    """One seed's engine state, advanced in externally resolved steps."""

    __slots__ = (
        "graph", "model", "seed", "time_limit", "count_based",
        "gens", "ctxs", "plans", "outputs", "finish_slot", "remaining",
        "duration", "entries",
        "heap", "bucket_slot", "bucket_senders", "bucket_listeners",
        "bucket_duplexers", "observers", "energy", "trace",
        "slot", "senders", "listeners", "duplexers",
        "transmitting", "receivers", "feedbacks",
        "churn", "slot_aware", "air", "live", "down_fb",
    )

    def __init__(
        self,
        graph: Graph,
        model: ChannelModel,
        protocol_factory: ProtocolFactory,
        seed: int,
        *,
        knowledge: Knowledge,
        uids: Sequence[int],
        inputs: Dict[int, Dict[str, Any]],
        time_limit: int,
        meter_energy: bool,
        record_trace: bool,
        extra_observers: Sequence[SlotObserver],
        stepping: str = "phase",
        churn=None,
    ) -> None:
        self.graph = graph
        self.model = model
        self.seed = seed
        self.time_limit = time_limit
        self.count_based = model.supports_count
        self.churn = churn
        self.slot_aware = getattr(model, "slot_aware", False)
        if churn is None:
            self.down_fb = SILENCE
        else:
            from repro.sim.faults import down_feedback

            self.down_fb = down_feedback(model)
        master = random.Random(seed)

        energy = EnergyObserver() if meter_energy else _ZeroEnergyObserver()
        self.energy = energy
        observers: List[SlotObserver] = [energy]
        self.trace = Trace() if record_trace else None
        if self.trace is not None:
            observers.append(TraceObserver(self.trace))
        observers.extend(extra_observers)
        self.observers = observers
        for observer in observers:
            observer.on_run_start(graph.n)

        n = graph.n
        self.gens = gens = [None] * n
        self.ctxs = ctxs = [None] * n
        self.plans = plans = [None] * n
        self.outputs = outputs = [None] * n
        self.finish_slot = [-1] * n
        self.entries = 0
        self.heap = heap = []
        self.bucket_slot = 0
        self.bucket_senders: Dict[int, Any] = {}
        self.bucket_listeners: List[int] = []
        self.bucket_duplexers: Dict[int, Any] = {}
        self.duration = 0
        full_duplex = model.full_duplex
        slot_stepping = stepping == "slot"

        remaining = 0
        for v in range(n):
            ctx = NodeCtx(
                index=v,
                uid=uids[v],
                knowledge=knowledge,
                rng=random.Random(master.getrandbits(64)),
                inputs=dict(inputs.get(v, ())),
            )
            ctxs[v] = ctx
            gen = protocol_factory(ctx)
            if slot_stepping:
                gen = expand_plans(gen, ctx.rng)
            gens[v] = gen
            self.entries += 1
            try:
                action = next(gen)
            except StopIteration as stop:
                outputs[v] = stop.value
                continue
            remaining += 1
            while True:
                if isinstance(action, Idle):
                    heapq.heappush(heap, (action.duration, v, _RESUME))
                elif isinstance(action, Send):
                    self.bucket_senders[v] = action.message
                elif isinstance(action, Listen):
                    self.bucket_listeners.append(v)
                elif isinstance(action, SendListen):
                    if not full_duplex:
                        raise ProtocolError(
                            f"SendListen is illegal in the {model.name} model"
                        )
                    self.bucket_duplexers[v] = action.message
                elif isinstance(action, Plan):
                    plans[v], action = start_plan(action, ctx.rng)
                    continue
                else:
                    raise ProtocolError(
                        f"protocol yielded non-action {action!r}"
                    )
                break
        self.remaining = remaining

    def collect(self) -> bool:
        """Advance to the next slot with at least one active device.

        Returns True with the slot's activity staged in ``transmitting``
        / ``receivers`` / ``feedbacks`` (feedbacks empty, to be filled by
        the resolver), or False when every protocol has terminated.
        """
        heap = self.heap
        heappush, heappop = heapq.heappush, heapq.heappop
        gens, ctxs, outputs = self.gens, self.ctxs, self.outputs
        plans = self.plans
        finish_slot = self.finish_slot
        full_duplex = self.model.full_duplex
        model_name = self.model.name
        while self.remaining:
            if self.bucket_senders or self.bucket_listeners or self.bucket_duplexers:
                slot = self.bucket_slot
                senders = self.bucket_senders
                listeners = self.bucket_listeners
                duplexers = self.bucket_duplexers
            else:
                slot = heap[0][0]
                senders, listeners, duplexers = {}, [], {}
            self.bucket_senders, self.bucket_listeners, self.bucket_duplexers = (
                {}, [], {}
            )
            if slot > self.time_limit:
                raise SimulationTimeout(
                    f"simulation exceeded {self.time_limit} slots "
                    f"({self.remaining} protocols still running, "
                    f"seed {self.seed})"
                )

            # Wake every sleeper due at this slot; a resumed generator
            # (or plan) may immediately act, joining the slot it woke
            # in.  The bucket references were swapped out above, so
            # wake-joiners go into the local senders/listeners — exactly
            # like the engine loop.
            while heap and heap[0][0] == slot:
                _, v, _ = heappop(heap)
                ps = plans[v]
                result = None
                if ps is not None:
                    action, result = plan_resume(ps)
                    if action is None:
                        plans[v] = None
                if ps is None or action is None:
                    ctxs[v].time = slot
                    self.entries += 1
                    try:
                        action = gens[v].send(result)
                    except StopIteration as stop:
                        outputs[v] = stop.value
                        finish_slot[v] = slot - 1
                        self.remaining -= 1
                        if self.duration < slot:
                            self.duration = slot
                        continue
                while True:
                    cls = action.__class__
                    if cls is Idle or isinstance(action, Idle):
                        heappush(heap, (slot + action.duration, v, _RESUME))
                    elif cls is Send or isinstance(action, Send):
                        senders[v] = action.message
                    elif cls is Listen or isinstance(action, Listen):
                        listeners.append(v)
                    elif cls is SendListen or isinstance(action, SendListen):
                        if not full_duplex:
                            raise ProtocolError(
                                f"SendListen is illegal in the {model_name} model"
                            )
                        duplexers[v] = action.message
                    elif isinstance(action, Plan):
                        plans[v], action = start_plan(action, ctxs[v].rng)
                        continue
                    else:
                        raise ProtocolError(
                            f"protocol yielded non-action {action!r}"
                        )
                    break

            if not (senders or listeners or duplexers):
                continue

            if duplexers:
                transmitting = dict(senders)
                transmitting.update(duplexers)
                receivers = listeners + list(duplexers)
            else:
                transmitting = senders
                receivers = listeners
            if not self.count_based:
                # Stateful models consume channel randomness per
                # reception: ascending vertex order, like the oracle.
                receivers = sorted(receivers)

            # Churn filter, mirroring the engine: crashed transmissions
            # vanish from the air, crashed listeners leave the live set
            # (apply() forces their feedback to silence).  The clean
            # path aliases the unfiltered sets.
            churn = self.churn
            if churn is None:
                air = transmitting
                live = receivers
            else:
                down = churn.down
                air = {
                    v: m for v, m in transmitting.items()
                    if not down(v, slot)
                }
                live = [v for v in receivers if not down(v, slot)]
            if self.slot_aware:
                self.model.begin_slot(slot, len(air))

            self.slot = slot
            self.senders = senders
            self.listeners = listeners
            self.duplexers = duplexers
            self.transmitting = transmitting
            self.receivers = receivers
            self.air = air
            self.live = live
            self.feedbacks = {}
            return True
        return False

    def apply(self) -> None:
        """Consume the resolved feedbacks: observers fire, actors advance."""
        slot = self.slot
        senders = self.senders
        feedbacks = self.feedbacks
        if self.live is not self.receivers:
            for v in self.receivers:
                if v not in feedbacks:
                    feedbacks[v] = self.down_fb
        for v in senders:
            feedbacks[v] = None
        for observer in self.observers:
            observer.on_slot(
                slot, senders, self.listeners, self.duplexers, feedbacks
            )
        next_slot = slot + 1
        self.bucket_slot = next_slot
        if self.duration < next_slot:
            self.duration = next_slot
        receivers = self.receivers
        gens, ctxs, outputs = self.gens, self.ctxs, self.outputs
        plans = self.plans
        finish_slot = self.finish_slot
        heap = self.heap
        heappush = heapq.heappush
        bucket_senders = self.bucket_senders
        bucket_listeners = self.bucket_listeners
        bucket_duplexers = self.bucket_duplexers
        full_duplex = self.model.full_duplex
        model_name = self.model.name
        for v in list(senders) + receivers if senders else receivers:
            # Mirror of the engine's advance loop, inline plan fast
            # paths included — see Simulator.run for the commentary.
            ps = plans[v]
            if ps is not None:
                op = ps[0]
                if op == OP_SEND:
                    rem = ps[1]
                    if rem > 1:
                        ps[1] = rem - 1
                        bucket_senders[v] = ps[2]
                        continue
                    action, result = plan_feedback(ps, None)
                elif op == OP_LISTEN:
                    ps[3].append(feedbacks[v])
                    rem = ps[1]
                    if rem > 1:
                        ps[1] = rem - 1
                        bucket_listeners.append(v)
                        continue
                    action, result = plan_resume(ps)
                elif op == OP_UNTIL:
                    fb = feedbacks[v]
                    if (
                        fb is None
                        or fb is SILENCE
                        or fb is NOISE
                        or fb is BEEP
                        or (fb.__class__ is tuple and not fb)
                    ):
                        rem = ps[1]
                        if rem > 1:
                            ps[1] = rem - 1
                            bucket_listeners.append(v)
                            continue
                    action, result = plan_feedback(ps, fb)
                elif op == OP_STEPS:
                    acts = ps[2]
                    i = ps[1]
                    pcls = acts[i - 1].__class__
                    if pcls is Listen or pcls is SendListen:
                        ps[3].append(feedbacks[v])
                    if i < len(acts):
                        act = acts[i]
                        ps[1] = i + 1
                        acls = act.__class__
                        if acls is Send:
                            bucket_senders[v] = act.message
                            continue
                        if acls is Listen:
                            bucket_listeners.append(v)
                            continue
                        if acls is Idle:
                            heappush(
                                heap, (next_slot + act.duration, v, _RESUME)
                            )
                            continue
                        if not full_duplex:
                            raise ProtocolError(
                                f"SendListen is illegal in the "
                                f"{model_name} model"
                            )
                        bucket_duplexers[v] = act.message
                        continue
                    action, result = plan_resume(ps)
                else:
                    action, result = plan_feedback(ps, feedbacks[v])
                if action is None:
                    plans[v] = None
                    ctxs[v].time = next_slot
                    self.entries += 1
                    try:
                        action = gens[v].send(result)
                    except StopIteration as stop:
                        outputs[v] = stop.value
                        finish_slot[v] = slot
                        self.remaining -= 1
                        continue
            else:
                ctxs[v].time = next_slot
                self.entries += 1
                try:
                    action = gens[v].send(feedbacks[v])
                except StopIteration as stop:
                    outputs[v] = stop.value
                    finish_slot[v] = slot
                    self.remaining -= 1
                    continue
            while True:
                cls = action.__class__
                if cls is Idle or isinstance(action, Idle):
                    heappush(heap, (next_slot + action.duration, v, _RESUME))
                elif cls is Send or isinstance(action, Send):
                    bucket_senders[v] = action.message
                elif cls is Listen or isinstance(action, Listen):
                    bucket_listeners.append(v)
                elif cls is SendListen or isinstance(action, SendListen):
                    if not full_duplex:
                        raise ProtocolError(
                            f"SendListen is illegal in the {model_name} model"
                        )
                    bucket_duplexers[v] = action.message
                elif isinstance(action, Plan):
                    plans[v], action = start_plan(action, ctxs[v].rng)
                    continue
                else:
                    raise ProtocolError(
                        f"protocol yielded non-action {action!r}"
                    )
                break

    def result(self) -> SimResult:
        return SimResult(
            outputs=self.outputs,
            energy=self.energy.reports(),
            finish_slot=self.finish_slot,
            duration=self.duration,
            trace=self.trace,
            seed=self.seed,
            gen_entries=self.entries,
        )


def run_trials_lockstep(
    graph: Graph,
    model: ChannelModel,
    protocol_factory: ProtocolFactory,
    seeds: Sequence[int],
    *,
    inputs: Optional[Dict[int, Dict[str, Any]]] = None,
    knowledge: Optional[Knowledge] = None,
    uids: Optional[Sequence[int]] = None,
    exec_config: Optional[ExecutionConfig] = None,
    time_limit: Any = UNSET,
    record_trace: Any = UNSET,
    resolution: Any = UNSET,
    stepping: Any = UNSET,
    meter_energy: Any = UNSET,
    observer_factory: Any = UNSET,
    model_factory: Any = UNSET,
) -> List[SimResult]:
    """Run one cell's seeds in lock-step slot batches.

    Semantics and arguments match :func:`repro.sim.batch.run_trials`
    (which delegates here for ``exec_config.lockstep=True``); results
    are byte-identical to the serial path, in ``seeds`` order.
    ``exec_config.observer_factory(seed)`` builds per-trial observers —
    lock-step trials interleave, so sharing one observer instance across
    seeds would scramble its per-run state.  The per-knob keyword
    arguments are the deprecated forms of the matching config fields.
    """
    config = resolve_exec_config(
        exec_config,
        dict(
            time_limit=time_limit,
            record_trace=record_trace,
            resolution=resolution,
            stepping=stepping,
            meter_energy=meter_energy,
            observer_factory=observer_factory,
            model_factory=model_factory,
        ),
        where="run_trials_lockstep",
    )
    if config.contention_hist:
        raise ExecutionConfigError(
            "contention_hist is consumed by run_cells()/sweep(); pass "
            "observer_factory= here instead"
        )
    model_factory = config.model_factory
    observer_factory = config.observer_factory
    time_limit = config.resolved_time_limit(DEFAULT_TIME_LIMIT)
    record_trace = config.record_trace
    meter_energy = config.meter_energy
    stepping = config.stepping
    if knowledge is None:
        knowledge = Knowledge(
            n=graph.n, max_degree=max(graph.max_degree, 1), diameter=None
        )
    if uids is None:
        uids = list(range(1, graph.n + 1))
    if len(uids) != graph.n or len(set(uids)) != graph.n:
        raise ValueError("uids must be distinct and cover every vertex")
    inputs = inputs or {}
    validate_input_keys(inputs, graph.n)

    backend = create_backend(config.resolution, graph)

    shared_model = model_factory is None
    # Materialize every per-seed factory product exactly once, before
    # routing: factories may carry side effects (run_cells' contention
    # wrapper registers each seed's histogram observer at build time),
    # and both the SoA path and the fallback driver reuse these same
    # instances.
    trial_models = (
        None if shared_model else [model_factory(seed) for seed in seeds]
    )
    trial_observers = (
        None if observer_factory is None
        else [tuple(observer_factory(seed)) for seed in seeds]
    )

    # Fault injection (repro.sim.faults): realize the per-trial fault
    # objects from each trial seed — the same FaultPlan.for_trial the
    # serial engine and the oracle-form reference use, so all paths see
    # identical fault realizations.  Jam/burst wrap the channel model
    # (per-trial state), churn rides alongside as a slot filter.
    fault_plan = parse_fault_specs(config)
    churns = None
    if fault_plan is not None:
        base_models = (
            trial_models if trial_models is not None
            else [model] * len(seeds)
        )
        faulted = [
            fault_plan.for_trial(m, seed)
            for m, seed in zip(base_models, seeds)
        ]
        if fault_plan.wraps_model():
            trial_models = [m for m, _ in faulted]
            shared_model = False
        if fault_plan.churn_params is not None:
            churns = [c for _, c in faulted]

    soa_reason = _soa_fallback_reason(
        model, config, backend, trial_models, trial_observers
    )
    if seeds and soa_reason is None:
        # Vectorizable cell: hand the whole batch to the trial-axis
        # struct-of-arrays engine (byte-identical, see trialsoa.py).
        results = run_trials_soa(
            graph,
            model,
            protocol_factory,
            seeds,
            knowledge=knowledge,
            uids=uids,
            inputs=inputs,
            time_limit=time_limit,
            meter_energy=meter_energy,
            stepping=stepping,
            backend=backend,
            trial_models=trial_models,
            trial_observers=trial_observers,
        )
        for result in results:
            result.soa_reason = "ok"
        return results
    trials = []
    for i, seed in enumerate(seeds):
        trial_model = model if shared_model else trial_models[i]
        trials.append(_LockstepTrial(
            graph,
            trial_model,
            protocol_factory,
            seed,
            knowledge=knowledge,
            uids=uids,
            inputs=inputs,
            time_limit=time_limit,
            meter_energy=meter_energy,
            record_trace=record_trace,
            extra_observers=(
                trial_observers[i] if trial_observers is not None else ()
            ),
            stepping=stepping,
            churn=churns[i] if churns is not None else None,
        ))

    if shared_model:
        batch_fn = backend.batch_resolver(model)

        def resolve_live(live):
            batch_fn([
                (trial.air, trial.live, trial.feedbacks)
                for trial in live
            ])
    else:
        # Per-trial models (stateful channels): resolve each trial's slot
        # with its own model-bound resolver, in trial order.
        resolvers = {
            id(trial): backend.slot_resolver(trial.model) for trial in trials
        }

        def resolve_live(live):
            for trial in live:
                resolvers[id(trial)](
                    trial.air, trial.live, trial.feedbacks
                )

    live = [trial for trial in trials if trial.collect()]
    while live:
        resolve_live(live)
        for trial in live:
            trial.apply()
        live = [trial for trial in live if trial.collect()]
    results = [trial.result() for trial in trials]
    for result in results:
        result.soa_reason = soa_reason
    return results


def _soa_fallback_reason(
    model: ChannelModel,
    config: ExecutionConfig,
    backend,
    trial_models: Optional[Sequence[ChannelModel]],
    trial_observers: Optional[Sequence[Sequence[SlotObserver]]],
) -> Optional[str]:
    """Why this batch must run on the per-trial fallback driver, or None
    when the SoA engine can take it.

    This is the dispatch-level superset of :func:`~repro.sim.trialsoa.
    soa_engaged`: with the per-seed factory products already
    materialized it can additionally admit uniform ``LossyModel``
    batches over a shared stateless inner (vectorized drop masks) and
    observer sets whose every member advertises the batch ABI.  The
    returned string lands in ``SimResult.soa_reason`` so fallbacks are
    diagnosable instead of silent.
    """
    if config.resolution != "numpy" or not isinstance(backend, NumpyBackend):
        return "resolution"
    if config.record_trace:
        return "record_trace"
    # Fault verdicts: churn needs per-trial slot filtering and jamming
    # per-slot adversary state — neither is vectorized yet, so both fall
    # back with their own reason.  Burst loss (Gilbert-Elliott) *is*
    # vectorizable when the batch is uniform over one shared stateless
    # count-based inner (admitted below); anything else reports
    # "burst_loss".
    if config.churn:
        return "churn"
    if config.jam:
        return "jammer"
    if trial_models is not None:
        first = trial_models[0] if trial_models else None
        if first is not None and type(first) is GilbertElliottModel:
            if not (
                first.inner.supports_count
                and not first.inner.stateful
                and all(
                    type(m) is GilbertElliottModel
                    and m.inner is first.inner
                    and m.p_gb == first.p_gb
                    and m.p_bg == first.p_bg
                    and m.good_rate == first.good_rate
                    and m.bad_rate == first.bad_rate
                    for m in trial_models
                )
            ):
                return "burst_loss"
        elif not (
            first is not None
            and type(first) is LossyModel
            and first.inner.supports_count
            and not first.inner.stateful
            and all(
                type(m) is LossyModel and m.inner is first.inner
                for m in trial_models
            )
        ):
            return "burst_loss" if config.burst_loss else "model_factory"
    elif model.stateful:
        # A shared stateful channel consumes one rng stream across
        # interleaved trials; neither lock-step driver can reorder that
        # (run_trials rejects it outright under lockstep).
        return "stateful_model"
    elif not model.supports_count:
        return "model"
    if trial_observers is not None and not all(
        getattr(observer, "batch_capable", False)
        for observers in trial_observers
        for observer in observers
    ):
        return "observers"
    return None
