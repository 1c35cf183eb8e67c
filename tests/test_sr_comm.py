"""Tests for SR-communication (Lemmas 7, 8, 24; Remark 9)."""

from __future__ import annotations

import random

import pytest

from repro.core.sr_comm import (
    _ACK,
    _PROBE,
    CDParams,
    DecayParams,
    Role,
    _Controller,
    det_frame_length,
    sr_cd,
    sr_det_cd,
    sr_det_cd_payload,
    sr_local,
    sr_nocd,
)
from repro.graphs import (
    Graph,
    clique,
    k2k_gadget,
    path_graph,
    random_gnp,
    star_graph,
)
from repro.sim import (
    CD,
    CD_STAR,
    LOCAL,
    NO_CD,
    SILENCE,
    ExecutionConfig,
    Idle,
    Knowledge,
    Listen,
    NodeCtx,
    Send,
    Simulator,
    Steps,
)
from repro.sim.feedback import is_message


def _run_sr(graph, model, roles, messages, maker, seed=0):
    """Drive one SR frame: roles/messages are per-vertex; maker(ctx, role,
    message) returns the generator."""

    def proto(ctx):
        role = roles[ctx.index]
        message = messages.get(ctx.index)
        result = yield from maker(ctx, role, message)
        return result

    return Simulator(graph, model, seed=seed).run(proto)


class TestDecayNoCD:
    def test_single_sender_delivers(self):
        params = DecayParams.for_graph(2, 0.01)
        roles = {0: Role.SENDER, 1: Role.RECEIVER}
        result = _run_sr(
            path_graph(2),
            NO_CD,
            roles,
            {0: "m"},
            lambda c, r, m: sr_nocd(c, r, m, params),
        )
        assert result.outputs[1] == "m"

    def test_high_contention_star(self):
        # Star center listens; all leaves send.  Decay must break the tie.
        n = 17
        g = star_graph(n)
        params = DecayParams.for_graph(n - 1, 0.01)
        roles = {0: Role.RECEIVER}
        roles.update({v: Role.SENDER for v in range(1, n)})
        messages = {v: f"m{v}" for v in range(1, n)}
        delivered = 0
        for seed in range(8):
            result = _run_sr(
                g, NO_CD, roles, messages, lambda c, r, m: sr_nocd(c, r, m, params),
                seed=seed,
            )
            if result.outputs[0] in messages.values():
                delivered += 1
        assert delivered >= 7  # f = 0.01 per frame

    def test_receiver_stops_listening_after_reception(self):
        params = DecayParams.for_graph(2, 0.001)
        roles = {0: Role.SENDER, 1: Role.RECEIVER}
        result = _run_sr(
            path_graph(2), NO_CD, roles, {0: "m"},
            lambda c, r, m: sr_nocd(c, r, m, params),
        )
        # Energy far below the full frame once the message lands early.
        assert result.energy[1].total <= 2 * params.slots_per_phase

    def test_idle_role_consumes_frame_without_energy(self):
        params = DecayParams.for_graph(4, 0.05)
        g = path_graph(3)
        roles = {0: Role.SENDER, 1: Role.RECEIVER, 2: Role.IDLE}
        result = _run_sr(g, NO_CD, roles, {0: "m"},
                         lambda c, r, m: sr_nocd(c, r, m, params))
        assert result.energy[2].total == 0
        assert result.outputs[1] == "m"

    def test_frame_lengths_align(self):
        params = DecayParams.for_graph(8, 0.02)
        g = path_graph(3)
        roles = {0: Role.SENDER, 1: Role.RECEIVER, 2: Role.IDLE}

        def proto(ctx):
            yield from sr_nocd(ctx, roles[ctx.index], "m", params)
            return ctx.time

        result = Simulator(g, NO_CD, seed=0).run(proto)
        assert len(set(result.outputs)) == 1
        assert result.outputs[0] == params.frame_length

    def test_params_validation(self):
        with pytest.raises(ValueError):
            DecayParams.for_graph(4, 0.0)


class TestCDGeneric:
    def test_single_sender(self):
        params = CDParams.for_graph(2, 0.01)
        roles = {0: Role.SENDER, 1: Role.RECEIVER}
        result = _run_sr(
            path_graph(2), CD, roles, {0: "m"},
            lambda c, r, m: sr_cd(c, r, m, params),
        )
        assert result.outputs[1] == "m"

    def test_high_contention_receiver_energy_is_small(self):
        n = 33
        g = star_graph(n)
        params = CDParams.for_graph(n - 1, 0.02)
        roles = {0: Role.RECEIVER}
        roles.update({v: Role.SENDER for v in range(1, n)})
        messages = {v: f"m{v}" for v in range(1, n)}
        got = 0
        max_receiver_energy = 0
        for seed in range(8):
            result = _run_sr(
                g, CD, roles, messages, lambda c, r, m: sr_cd(c, r, m, params),
                seed=seed,
            )
            if result.outputs[0] in messages.values():
                got += 1
            max_receiver_energy = max(max_receiver_energy, result.energy[0].total)
        assert got >= 7
        # Receiver listens once per epoch: energy <= #epochs, far below the
        # full frame length.
        assert max_receiver_energy <= params.epochs
        assert params.frame_length > 3 * params.epochs

    def test_probe_opt_out_saves_energy(self):
        # Receiver with no sender neighbor pays O(1) with probes.
        g = path_graph(3)  # 0 - 1 - 2; sender 0, receiver 2 (not adjacent)
        params = CDParams.for_graph(2, 0.02, probe=True)
        roles = {0: Role.SENDER, 1: Role.IDLE, 2: Role.RECEIVER}
        result = _run_sr(g, CD, roles, {0: "m"},
                         lambda c, r, m: sr_cd(c, r, m, params))
        assert result.outputs[2] is None
        assert result.energy[2].total <= 2

    def test_probe_sender_without_receiver_opts_out(self):
        g = path_graph(3)
        params = CDParams.for_graph(2, 0.02, probe=True)
        roles = {0: Role.RECEIVER, 1: Role.IDLE, 2: Role.SENDER}
        result = _run_sr(g, CD, roles, {2: "m"},
                         lambda c, r, m: sr_cd(c, r, m, params))
        assert result.energy[2].total <= 2

    def test_probe_still_delivers_when_adjacent(self):
        params = CDParams.for_graph(2, 0.01, probe=True)
        roles = {0: Role.SENDER, 1: Role.RECEIVER}
        result = _run_sr(path_graph(2), CD, roles, {0: "m"},
                         lambda c, r, m: sr_cd(c, r, m, params))
        assert result.outputs[1] == "m"

    def test_ack_lets_senders_terminate_early(self):
        # K_{2,k} flipped: middle vertices send, s and t receive; each
        # sender is adjacent to both receivers, so use a star to honour the
        # <=1 receiver-neighbor precondition of the ack variant.
        n = 9
        g = star_graph(n)
        params = CDParams.for_graph(n - 1, 0.01, ack=True)
        params_no = CDParams.for_graph(n - 1, 0.01, ack=False)
        roles = {0: Role.RECEIVER}
        roles.update({v: Role.SENDER for v in range(1, n)})
        messages = {v: f"m{v}" for v in range(1, n)}
        with_ack = _run_sr(g, CD, roles, messages,
                           lambda c, r, m: sr_cd(c, r, m, params), seed=3)
        without = _run_sr(g, CD, roles, messages,
                          lambda c, r, m: sr_cd(c, r, m, params_no), seed=3)
        assert with_ack.outputs[0] in messages.values()
        sender_ack = max(with_ack.energy[v].total for v in range(1, n))
        sender_no = max(without.energy[v].total for v in range(1, n))
        assert sender_ack <= sender_no

    def test_frame_lengths_align(self):
        params = CDParams.for_graph(8, 0.02, probe=True)
        g = path_graph(3)
        roles = {0: Role.SENDER, 1: Role.RECEIVER, 2: Role.IDLE}

        def proto(ctx):
            yield from sr_cd(ctx, roles[ctx.index], "m", params)
            return ctx.time

        result = Simulator(g, CD, seed=0).run(proto)
        assert set(result.outputs) == {params.frame_length}


def _sr_cd_per_epoch(ctx, role, message, params, accept=None):
    """Frozen copy of the per-epoch ``sr_cd``: one sender ``Steps`` per
    epoch and one receiver ``Idle`` per epoch once satisfied.  The
    whole-frame rewrite must reproduce it slot for slot."""
    total = params.frame_length
    spent = 0

    def idle_rest():
        if total - spent > 0:
            yield Idle(total - spent)

    if role is Role.IDLE:
        yield from idle_rest()
        return None
    if params.probe:
        if role is Role.SENDER:
            yield Send(_PROBE)
            fb_r = None
        else:
            fb_r = yield Listen()
        if role is Role.RECEIVER:
            yield Send(_PROBE)
        else:
            fb_s = yield Listen()
        spent += 2
        if role is Role.RECEIVER and fb_r is SILENCE:
            yield from idle_rest()
            return None
        if role is Role.SENDER and fb_s is SILENCE:
            yield from idle_rest()
            return None
    slots = params.slots_per_epoch
    if role is Role.SENDER:
        for _ in range(params.epochs):
            picks = [
                i for i in range(slots) if ctx.rng.random() < 2.0 ** -(i + 1)
            ][:2]
            acts = []
            cursor = 0
            for i in picks:
                if i > cursor:
                    acts.append(Idle(i - cursor))
                acts.append(Send(message))
                cursor = i + 1
            if slots > cursor:
                acts.append(Idle(slots - cursor))
            if len(acts) == 1:
                yield acts[0]
            else:
                yield Steps(tuple(acts))
            spent += slots
            if params.ack:
                feedback = yield Listen()
                spent += 1
                if feedback is not SILENCE:
                    yield from idle_rest()
                    return None
        return None
    controller = _Controller(max_k=slots)
    received = None
    for _ in range(params.epochs):
        if received is None:
            k = controller.next_k()
            acts = []
            if k > 1:
                acts.append(Idle(k - 1))
            acts.append(Listen())
            if slots > k:
                acts.append(Idle(slots - k))
            if len(acts) == 1:
                feedback = yield acts[0]
            else:
                feedback = (yield Steps(tuple(acts)))[0]
            if is_message(feedback):
                if accept is None or accept(feedback):
                    received = feedback
            else:
                controller.observe(k, feedback)
            spent += slots
            if params.ack:
                if received is not None:
                    yield Send(_ACK)
                else:
                    yield Idle(1)
                spent += 1
        else:
            if params.ack:
                yield from idle_rest()
                break
            yield Idle(slots)
            spent += slots
    return received


class TestCDWholeFrame:
    """``sr_cd``'s whole-frame sender plan and single satisfied-receiver
    Idle reproduce the per-epoch frame: same slots, same rng draws."""

    @staticmethod
    def _protocol(frame, params, roles, accept):
        def protocol(ctx):
            outs = []
            for r in range(2):  # two frames, roles swapped in the second
                role = roles[(ctx.index + r) % len(roles)]
                outs.append((yield from frame(
                    ctx, role, ("m", ctx.index), params, accept=accept
                )))
            # A raw draw pins the rng stream position after both frames.
            return (outs, ctx.time, ctx.rng.random())

        return protocol

    @pytest.mark.parametrize("model", (CD, CD_STAR), ids=("CD", "CD*"))
    @pytest.mark.parametrize("probe", (False, True))
    @pytest.mark.parametrize("ack", (False, True))
    @pytest.mark.parametrize("rejecting", (False, True))
    def test_matches_per_epoch_frame(self, model, probe, ack, rejecting):
        graph = random_gnp(12, 0.35, random.Random(4))
        params = CDParams.for_graph(graph.max_degree, 0.05, probe=probe, ack=ack)
        roles = (Role.SENDER, Role.RECEIVER, Role.SENDER, Role.IDLE,
                 Role.RECEIVER)
        accept = (lambda m: m[1] % 3 != 0) if rejecting else None
        for seed in range(4):
            runs = {}
            for name, frame in (("new", sr_cd), ("old", _sr_cd_per_epoch)):
                protocol = self._protocol(frame, params, roles, accept)
                traced = Simulator(
                    graph, model, seed=seed,
                    exec_config=ExecutionConfig(record_trace=True),
                ).run(protocol)
                plain = Simulator(graph, model, seed=seed).run(protocol)
                runs[name] = (traced, plain)
            (new_traced, new), (old_traced, old) = runs["new"], runs["old"]
            assert list(new_traced.trace) == list(old_traced.trace)
            for a, b in ((new_traced, old_traced), (new, old)):
                assert a.outputs == b.outputs
                assert a.energy == b.energy
                assert a.finish_slot == b.finish_slot
                assert a.duration == b.duration
            assert new.gen_entries <= old.gen_entries
            if not ack:
                assert new.gen_entries < old.gen_entries

    def test_sender_frame_is_one_plan(self):
        params = CDParams.for_graph(8, 0.05)
        yielded = []
        ctx = NodeCtx(
            index=0, uid=1, knowledge=Knowledge(n=2, max_degree=8),
            rng=random.Random(7), inputs={},
        )
        gen = sr_cd(ctx, Role.SENDER, "m", params)
        for action in gen:
            yielded.append(action)
        assert len(yielded) == 1 and isinstance(yielded[0], Steps)
        assert sum(
            a.duration if isinstance(a, Idle) else 1
            for a in yielded[0].actions
        ) == params.frame_length
        # No two idles in a row: epoch-boundary idles are merged.
        kinds = [type(a) for a in yielded[0].actions]
        assert all(
            not (a is Idle and b is Idle) for a, b in zip(kinds, kinds[1:])
        )


class TestLocal:
    def test_one_slot_delivery(self):
        roles = {0: Role.SENDER, 1: Role.RECEIVER}
        result = _run_sr(path_graph(2), LOCAL, roles, {0: "m"}, sr_local)
        assert result.outputs[1] == "m"
        assert result.duration == 1

    def test_receiver_gets_lowest_index_message(self):
        g = star_graph(4)
        roles = {0: Role.RECEIVER, 1: Role.SENDER, 2: Role.SENDER, 3: Role.SENDER}
        result = _run_sr(g, LOCAL, roles, {1: "a", 2: "b", 3: "c"}, sr_local)
        assert result.outputs[0] == "a"

    def test_slots_argument_guard(self):
        with pytest.raises(ValueError):
            list(sr_local(None, Role.IDLE, None, slots=2))


class TestDeterministicCD:
    def test_min_value_learned(self):
        g = star_graph(5)
        space = 16
        values = {1: 9, 2: 3, 3: 12, 4: 7}
        roles = {0: Role.RECEIVER}
        roles.update({v: Role.SENDER for v in values})
        result = _run_sr(g, CD, roles, values,
                         lambda c, r, m: sr_det_cd(c, r, m, space))
        assert result.outputs[0] == 3

    def test_both_role_folds_own_value(self):
        g = path_graph(2)
        space = 8
        roles = {0: Role.BOTH, 1: Role.BOTH}
        values = {0: 5, 1: 2}

        def maker(ctx, role, message):
            return sr_det_cd(ctx, role, values[ctx.index], space)

        result = _run_sr(g, CD, roles, values, maker)
        assert result.outputs == [2, 2]

    def test_receiver_with_no_sender_returns_none(self):
        g = path_graph(3)
        roles = {0: Role.SENDER, 1: Role.IDLE, 2: Role.RECEIVER}
        result = _run_sr(g, CD, roles, {0: 1},
                         lambda c, r, m: sr_det_cd(c, r, m, 8))
        assert result.outputs[2] is None

    def test_energy_logarithmic_in_space(self):
        space = 256
        g = star_graph(9)
        values = {v: (v * 29) % space for v in range(1, 9)}
        roles = {0: Role.RECEIVER}
        roles.update({v: Role.SENDER for v in values})
        result = _run_sr(g, CD, roles, values,
                         lambda c, r, m: sr_det_cd(c, r, m, space))
        assert result.outputs[0] == min(values.values())
        # Receiver: <=2 listens per bit; senders: 1 send per bit.
        assert result.energy[0].total <= 2 * 8
        assert all(result.energy[v].total <= 8 for v in range(1, 9))
        assert result.duration <= det_frame_length(space)

    def test_frame_alignment(self):
        space = 32
        g = path_graph(3)
        roles = {0: Role.SENDER, 1: Role.RECEIVER, 2: Role.IDLE}

        def proto(ctx):
            value = 4 if roles[ctx.index] is Role.SENDER else None
            yield from sr_det_cd(ctx, roles[ctx.index], value, space)
            return ctx.time

        result = Simulator(g, CD, seed=0).run(proto)
        assert set(result.outputs) == {det_frame_length(space)}

    def test_sender_needs_value(self):
        with pytest.raises(ValueError):
            list(sr_det_cd(None, Role.SENDER, None, 8))

    def test_value_range_checked(self):
        with pytest.raises(ValueError):
            list(sr_det_cd(None, Role.SENDER, 99, 8))

    def test_payload_variant_delivers_arbitrary_objects(self):
        g = star_graph(4)
        id_space = 8
        payloads = {1: ("big", "object", 1), 2: ("x",), 3: ("y", 2)}
        roles = {0: Role.RECEIVER, 1: Role.SENDER, 2: Role.SENDER, 3: Role.SENDER}

        def proto(ctx):
            role = roles[ctx.index]
            payload = payloads.get(ctx.index)
            result = yield from sr_det_cd_payload(
                ctx, role, ctx.uid if role is Role.SENDER else None,
                payload, id_space,
            )
            return result

        result = Simulator(g, CD, seed=0).run(proto)
        # Lowest sender uid is vertex 1 (uid 2).
        assert result.outputs[0] == (2, payloads[1])
