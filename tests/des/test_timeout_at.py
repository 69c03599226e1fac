"""Absolute-time timeouts and settle-in-place events."""

import pytest

from repro.des import AllOf, Environment, Event

#: A pair for which ``now + (when - now)`` rounds away from ``when``
#: (``when > 2 * now``, so Sterbenz does not apply).
DRIFT_NOW = 0.00863071637757784
DRIFT_WHEN = 44.08313151409718


@pytest.fixture
def env():
    return Environment()


def _landing_time(env, make):
    """Clock value at which a process yielding ``make()`` resumes."""
    seen = []

    def sleeper(env):
        yield make()
        seen.append(env.now)

    env.process(sleeper(env))
    env.run()
    return seen[0]


class TestTimeoutAt:
    def test_drift_pair_really_drifts(self):
        assert DRIFT_NOW + (DRIFT_WHEN - DRIFT_NOW) != DRIFT_WHEN

    def test_lands_exactly_in_the_drift_case(self):
        env = Environment(initial_time=DRIFT_NOW)
        assert _landing_time(env, lambda: env.timeout_at(DRIFT_WHEN)) == DRIFT_WHEN

    def test_relative_timeout_misses_in_the_drift_case(self):
        env = Environment(initial_time=DRIFT_NOW)
        landed = _landing_time(env, lambda: env.timeout(DRIFT_WHEN - DRIFT_NOW))
        assert landed != DRIFT_WHEN

    def test_lands_exactly_without_drift(self, env):
        env.run(until=100.0)
        assert _landing_time(env, lambda: env.timeout_at(137.25)) == 137.25

    def test_value_and_now(self, env):
        got = []

        def proc(env):
            got.append((yield env.timeout_at(0.0, value="now")))

        env.process(proc(env))
        env.run()
        assert got == ["now"] and env.now == 0.0

    def test_past_time_raises(self, env):
        env.run(until=5.0)
        with pytest.raises(ValueError):
            env.timeout_at(4.999)

    def test_reuses_the_freelist(self, env):
        def sleeper(env):
            yield env.timeout(1.0)

        env.process(sleeper(env))
        env.run()
        assert env._timeout_pool
        recycled = env._timeout_pool[-1]
        assert env.timeout_at(3.0) is recycled
        assert not env._timeout_pool

    def test_same_instant_order_is_schedule_order(self, env):
        env.run(until=10.0)
        order = []

        def waiter(env, tag, make):
            yield make()
            order.append(tag)

        env.process(waiter(env, "abs-first", lambda: env.timeout_at(12.5)))
        env.process(waiter(env, "rel", lambda: env.timeout(2.5)))
        env.process(waiter(env, "abs-last", lambda: env.timeout_at(12.5)))
        env.run()
        assert order == ["abs-first", "rel", "abs-last"]

    def test_rekeyed_entries_keep_schedule_order(self):
        env = Environment(initial_time=DRIFT_NOW)
        order = []

        def waiter(env, tag):
            yield env.timeout_at(DRIFT_WHEN)
            order.append((tag, env.now))

        for tag in range(5):
            env.process(waiter(env, tag))
        env.run()
        assert order == [(tag, DRIFT_WHEN) for tag in range(5)]

    def test_rekeyed_entry_sorts_among_other_events(self):
        env = Environment(initial_time=DRIFT_NOW)
        order = []

        def waiter(env, tag, make):
            yield make()
            order.append(tag)

        env.process(waiter(env, "early", lambda: env.timeout(1.0)))
        env.process(waiter(env, "abs", lambda: env.timeout_at(DRIFT_WHEN)))
        env.process(waiter(env, "late", lambda: env.timeout(50.0)))
        env.run()
        assert order == ["early", "abs", "late"]


class TestSettle:
    def test_subscriber_is_woken_through_the_heap(self, env):
        ev = Event(env)
        got = []

        def waiter(env):
            got.append((yield ev))

        def trigger(env):
            yield env.timeout(1.0)
            ev.settle("v")
            assert not ev.processed  # queued like succeed()
            got.append("trigger-continues")

        env.process(waiter(env))
        env.process(trigger(env))
        env.run()
        assert got == ["trigger-continues", "v"]
        assert ev.processed

    def test_without_subscriber_it_is_processed_in_place(self, env):
        ev = Event(env)
        seq = env._seq
        ev.settle(7)
        assert ev.processed and ev.triggered and ev.value == 7
        assert env._seq == seq and not env._queue

    def test_later_yielder_continues_synchronously(self, env):
        ev = Event(env)
        got = []

        def late(env):
            yield env.timeout(2.0)
            ev.settle("x")
            seq = env._seq
            got.append((yield ev))
            got.append(env._seq - seq)  # no event was scheduled for it

        env.process(late(env))
        env.run()
        assert got == ["x", 0]

    def test_later_condition_counts_it_at_once(self, env):
        a, b = Event(env), Event(env)
        a.settle(1)
        cond = AllOf(env, [a, b])
        b.succeed(2)
        env.run()
        assert cond.value == {a: 1, b: 2}

    def test_settle_twice_raises(self, env):
        ev = Event(env)
        ev.settle()
        with pytest.raises(RuntimeError):
            ev.settle()
        queued = Event(env)
        queued.succeed()
        with pytest.raises(RuntimeError):
            queued.settle()
