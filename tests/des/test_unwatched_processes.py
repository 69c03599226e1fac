"""Processes nobody waits on: exits settled in place, start-now.

A process that returns while nobody is subscribed to it is marked
processed without a heap trip; one that has a subscriber, or that
raises, still goes through the heap.  :meth:`Environment.process_now`
runs a new process to its first ``yield`` inside the caller's step.
"""

import pytest

from repro.des import AllOf, Environment


@pytest.fixture
def env():
    return Environment()


def _sleeper(env, delay, value=None):
    yield env.timeout(delay)
    return value


class TestSettledExit:
    def test_unwatched_exit_leaves_seq_unchanged(self, env):
        seqs = []

        def body(env):
            yield env.timeout(1.0)
            seqs.append(env._seq)
            return "done"

        proc = env.process(body(env))
        env.run()
        assert env._seq == seqs[0]
        assert proc.processed
        assert proc.ok and proc.value == "done"
        assert not proc.is_alive

    def test_watched_exit_goes_through_heap_in_order(self, env):
        order = []

        def child(env, name, delay):
            yield env.timeout(delay)
            order.append(("exit", name))
            return name

        def waiter(env, proc, name):
            value = yield proc
            order.append(("woke", name, value, env.now))

        a = env.process(child(env, "a", 1.0))
        b = env.process(child(env, "b", 1.0))
        env.process(waiter(env, b, "wb"))
        env.process(waiter(env, a, "wa"))
        seen = []
        env.on_event(lambda t, ev: seen.append(ev))
        env.run()
        # Both exits are delivered as events of their own, in the order
        # the children finished (a before b), not the order of the waits.
        assert [ev for ev in seen if ev is a or ev is b] == [a, b]
        assert order == [
            ("exit", "a"),
            ("exit", "b"),
            ("woke", "wa", "a", 1.0),
            ("woke", "wb", "b", 1.0),
        ]

    def test_unwatched_failure_still_raises(self, env):
        def crash(env):
            yield env.timeout(1.0)
            raise KeyError("lost")

        proc = env.process(crash(env))
        with pytest.raises(KeyError, match="lost"):
            env.run()
        assert not proc.ok

    def test_later_yield_on_settled_process_continues_at_once(self, env):
        child = env.process(_sleeper(env, 1.0, 7))
        log = []

        def late(env):
            yield env.timeout(5.0)
            assert child.processed
            seq = env._seq
            value = yield child
            log.append((env.now, value, env._seq - seq))

        env.process(late(env))
        env.run()
        assert log == [(5.0, 7, 0)]

    def test_later_all_of_on_settled_process_counts_it_at_once(self, env):
        done = env.process(_sleeper(env, 1.0, "x"))
        log = []

        def late(env):
            yield env.timeout(2.0)
            pending = env.process(_sleeper(env, 3.0, "y"))
            result = yield AllOf(env, [done, pending])
            log.append((env.now, result[done], result[pending]))

        env.process(late(env))
        env.run()
        assert log == [(5.0, "x", "y")]


class TestProcessNow:
    def test_runs_body_to_first_yield_before_returning(self, env):
        log = []

        def body(env):
            log.append(("start", env.now))
            yield env.timeout(2.0)
            log.append(("resume", env.now))

        seq = env._seq
        proc = env.process_now(body(env))
        assert log == [("start", 0.0)]
        assert env._seq == seq + 1  # the timeout only: no init event
        assert proc.is_alive
        env.run()
        assert log == [("start", 0.0), ("resume", 2.0)]

    def test_outside_any_process(self, env):
        seen = []

        def body(env):
            seen.append(env.active_process)
            yield env.timeout(1.0)

        proc = env.process_now(body(env))
        assert seen == [proc]
        assert env.active_process is None
        assert proc.parent is None

    def test_inside_a_process_keeps_the_starter_active(self, env):
        seen = {}

        def child(env):
            seen["child"] = env.active_process
            yield env.timeout(1.0)

        def starter(env):
            yield env.timeout(1.0)
            me = env.active_process
            proc = env.process_now(child(env))
            seen["after"] = env.active_process
            seen["proc"] = proc
            seen["me"] = me
            yield env.timeout(1.0)

        top = env.process(starter(env))
        env.run()
        assert seen["me"] is top
        assert seen["child"] is seen["proc"]
        assert seen["after"] is top
        assert seen["proc"].parent is top

    def test_body_that_returns_at_once_is_settled(self, env):
        def body(env):
            return "quick"
            yield  # pragma: no cover - makes this a generator

        seq = env._seq
        proc = env.process_now(body(env))
        assert env._seq == seq
        assert proc.processed and proc.value == "quick"

    def test_body_that_raises_at_once_fails_run(self, env):
        def body(env):
            raise ValueError("early")
            yield  # pragma: no cover - makes this a generator

        proc = env.process_now(body(env))
        assert not proc.ok
        with pytest.raises(ValueError, match="early"):
            env.run()

    def test_deferred_children_of_a_started_process_see_their_parent(self, env):
        parents = []

        def grandchild(env):
            parents.append(env.active_process.parent)
            yield env.timeout(1.0)

        def child(env):
            yield env.all_of([env.process(grandchild(env)) for _ in range(2)])

        proc = env.process_now(child(env))
        env.run()
        assert parents == [proc, proc]
