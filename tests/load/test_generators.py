"""Open- and closed-loop generators against the virtual-time clock."""

import asyncio
import time

import pytest

from repro.load import ClosedLoopGenerator, OpenLoopGenerator
from repro.net.clock import AsyncClock
from repro.sim.kernel import Simulator


def drain(sim, limit=100_000):
    steps = 0
    while sim.step():
        steps += 1
        assert steps < limit, "simulator did not drain"


class CountingClock:
    """A clock front that counts timers: armed, fired, and pending (armed
    but neither fired nor cancelled) — with the peak of the last."""

    def __init__(self, inner):
        self.inner = inner
        self.armed = self.fired = self.pending = self.peak = 0

    @property
    def now(self):
        return self.inner.now

    def rng(self, name):
        return self.inner.rng(name)

    def schedule_at(self, at, action):
        self.armed += 1
        self.pending += 1
        self.peak = max(self.peak, self.pending)
        token = _Pending(self)

        def fire():
            token.settle()
            self.fired += 1
            action()

        token.handle = self.inner.schedule_at(at, fire)
        return token


class _Pending:
    def __init__(self, clock):
        self.clock = clock
        self.handle = None
        self.settled = False

    def settle(self):
        if not self.settled:
            self.settled = True
            self.clock.pending -= 1

    def cancel(self):
        self.settle()
        self.handle.cancel()


class ManualClock:
    """Time moves only when the test says so; timers fire only when the
    test fires them."""

    def __init__(self, seed):
        self._rngs = Simulator(seed=seed)
        self.now = 0.0
        self.timers = []

    def rng(self, name):
        return self._rngs.rng(name)

    def schedule_at(self, at, action):
        timer = [at, action, False]
        self.timers.append(timer)

        class Handle:
            def cancel(self):
                timer[2] = True

        return Handle()

    def live(self):
        return [t for t in self.timers if not t[2]]

    def fire_next(self):
        timer = min(self.live(), key=lambda t: t[0])
        self.timers.remove(timer)
        timer[1]()


def expected(gen):
    n = len(gen.pids)
    assert [epoch for _, epoch in gen.plan()] == [i // n for i in range(gen.total_offers)]
    return [(i, epoch) for i, (_, epoch) in enumerate(gen.plan())]


def emitted(offers):
    return [(o.index, o.epoch) for o in offers]


class TestOneTimer:
    """The open-loop generator keeps one timer pending over its plan,
    however many offers the plan holds."""

    def test_one_pending_timer_in_virtual_time(self):
        clock = CountingClock(Simulator(seed=2))
        seen = []
        gen = OpenLoopGenerator(
            clock, [0, 1, 2], seen.append, rate=1000.0, total_offers=300
        )
        gen.start(at=0.5)
        assert clock.pending == 1
        drain(clock.inner)
        assert clock.peak == 1 and clock.pending == 0
        assert emitted(seen) == expected(gen)
        # Virtual time fires each timer exactly when its offer is due.
        assert [o.issued_at for o in seen] == [0.5 + at for at, _ in gen.plan()]
        assert gen.done

    def test_stalled_loop_catches_up_in_one_firing(self):
        clock = ManualClock(seed=3)
        seen = []
        gen = OpenLoopGenerator(
            clock, [0, 1], seen.append, rate=200.0, total_offers=50
        )
        gen.start(at=0.0)
        plan = gen.plan()
        (armed,) = clock.live()
        assert armed[0] == plan[0][0]
        # The loop stalls well past the first due time: one firing emits
        # every offer due by now, in plan order, and arms the next one.
        clock.now = plan[9][0] + 1e-6
        clock.fire_next()
        assert emitted(seen) == expected(gen)[:10]
        assert all(o.issued_at == clock.now for o in seen)
        (armed,) = clock.live()
        assert armed[0] == plan[10][0]
        # Caught up, it walks the rest one due time at a time.
        while clock.live():
            clock.now = clock.live()[0][0]
            clock.fire_next()
        assert emitted(seen) == expected(gen)
        assert gen.done

    def test_stalled_event_loop_keeps_one_timer(self):
        async def scenario():
            clock = CountingClock(AsyncClock(seed=5))
            seen = []
            batches = []
            drained = asyncio.get_running_loop().create_future()

            def intake(offer):
                seen.append(offer)
                batches.append(clock.fired)
                if gen.done:
                    drained.set_result(None)

            gen = OpenLoopGenerator(
                clock, [0, 1, 2], intake, rate=2000.0, total_offers=100
            )
            gen.start(at=clock.now + 0.001)
            time.sleep(0.03)  # stall the loop past ~60 due times
            await asyncio.wait_for(drained, 10)
            return clock, gen, seen, batches

        clock, gen, seen, batches = asyncio.run(scenario())
        assert clock.peak == 1 and clock.pending == 0
        assert emitted(seen) == expected(gen)
        # The stall was caught up by the first firing, in one go.
        assert batches.count(1) >= 2
        assert clock.fired < len(seen)

    def test_stop_cancels_the_pending_timer(self):
        clock = CountingClock(Simulator(seed=4))
        seen = []
        gen = OpenLoopGenerator(
            clock, [0, 1], seen.append, rate=100.0, total_offers=40
        )
        gen.start(at=0.0)
        for _ in range(5):
            clock.inner.step()
        assert emitted(seen) == expected(gen)[:5]
        assert clock.pending == 1
        gen.stop()
        assert clock.pending == 0 and gen.done
        drain(clock.inner)
        assert len(seen) == 5 and clock.armed == 6


class TestOpenLoop:
    def test_plan_is_a_pure_function_of_the_seed(self):
        def build(seed):
            gen = OpenLoopGenerator(
                Simulator(seed=seed), [0, 1, 2], lambda o: None,
                rate=100.0, total_offers=50,
            )
            return gen.plan()

        assert build(7) == build(7)
        assert build(7) != build(8)

    def test_plan_gaps_are_one_exponential_draw_each(self):
        # Poisson arrivals: each gap is one draw of mean 1/rate from the
        # ``load-arrivals`` stream, nothing else
        gen = OpenLoopGenerator(
            Simulator(seed=7), [0, 1, 2], lambda o: None, rate=50.0, total_offers=20
        )
        arrivals = Simulator(seed=7).rng("load-arrivals")
        offsets = [offset for offset, _ in gen.plan()]
        gaps = [b - a for a, b in zip([0.0] + offsets, offsets)]
        assert gaps == pytest.approx(
            [float(arrivals.exponential(0.02)) for _ in range(20)], rel=1e-12
        )

    def test_plan_is_pinned_for_seed_1(self):
        # the offer schedule the benchmark's tcp7_steady rate draws on
        # seed 1, as the arrival-model sampler drew it before it was cut
        # down to the one Poisson draw per gap
        gen = OpenLoopGenerator(
            Simulator(seed=1), list(range(7)), lambda o: None, rate=700.0, total_offers=6
        )
        # (six offers on seven processes: all of epoch 0)
        assert gen.plan() == [
            (0.00010886242968645757, 0),
            (0.00035374534408251593, 0),
            (0.0006983398698672951, 0),
            (0.0016545971948353057, 0),
            (0.003078431155143975, 0),
            (0.005567806330560476, 0),
        ]

    def test_emits_exactly_total_offers_in_order(self):
        sim = Simulator(seed=1)
        seen = []
        gen = OpenLoopGenerator(
            sim, [0, 1], seen.append, rate=500.0, total_offers=40
        )
        gen.start(at=0.0)
        assert not gen.done
        drain(sim)
        assert gen.done
        assert [o.index for o in seen] == list(range(40))
        assert all(o.user == -1 for o in seen)
        assert [o.epoch for o in seen] == [i // 2 for i in range(40)]
        # issued_at carries the virtual arrival time, monotone by plan
        times = [o.issued_at for o in seen]
        assert times == sorted(times)

    def test_stop_cancels_pending_arrivals(self):
        sim = Simulator(seed=1)
        seen = []
        gen = OpenLoopGenerator(
            sim, [0], seen.append, rate=100.0, total_offers=30
        )
        gen.start(at=0.0)
        gen.stop()
        drain(sim)
        assert seen == []
        assert gen.done

    def test_validation(self):
        sim = Simulator(seed=1)
        with pytest.raises(ValueError):
            OpenLoopGenerator(sim, [0], lambda o: None, rate=0.0, total_offers=1)
        with pytest.raises(ValueError):
            OpenLoopGenerator(sim, [0], lambda o: None, rate=1.0, total_offers=0)


class TestEpochIds:
    """Epoch ids are assigned at the source as ``index // len(pids)`` —
    a pure function of the seeded offer schedule, so they agree across
    sharded workers and across the sim↔socket clock scopes."""

    def test_open_loop_offers_carry_epoch_ids(self):
        sim = Simulator(seed=4)
        seen = []
        gen = OpenLoopGenerator(
            sim, [0, 1, 2, 3, 4, 5, 6], seen.append,
            rate=500.0, total_offers=21,
        )
        gen.start(at=0.0)
        drain(sim)
        assert [o.epoch for o in seen] == [o.index // 7 for o in seen]
        assert [o.epoch for o in seen] == [i // 7 for i in range(21)]

    def test_closed_loop_offers_carry_epoch_ids(self):
        sim = Simulator(seed=4)
        seen = []
        epochs = []
        gen = ClosedLoopGenerator(
            sim, [0, 1, 2], lambda o: seen.append(o),
            users=2, total_offers=9, think_time=0.005,
        )
        gen.start(at=0.0)
        while not gen.done:
            if not sim.step() and not seen:
                break
            while seen:
                offer = seen.pop()
                epochs.append((offer.index, offer.epoch))
                gen.offer_resolved(offer, "completed")
        assert sorted(epochs) == [(i, i // 3) for i in range(9)]

    def test_plan_identical_across_sim_and_socket_clocks(self):
        # AsyncClock's named rng streams derive (seed, name) exactly like
        # the simulator's, and plan() never reads the loop — the offer
        # schedule (and with it every epoch id) is scope-independent.
        pids = [0, 1, 2, 3, 4, 5, 6]

        def plan(clock):
            return OpenLoopGenerator(
                clock, pids, lambda o: None, rate=800.0, total_offers=35
            ).plan()

        assert plan(Simulator(seed=11)) == plan(AsyncClock(seed=11))
        assert plan(Simulator(seed=11)) != plan(AsyncClock(seed=12))


class TestClosedLoop:
    def test_one_offer_in_flight_per_user(self):
        sim = Simulator(seed=3)
        pending = []
        gen = ClosedLoopGenerator(
            sim, [0, 1, 2], lambda o: pending.append(o),
            users=4, total_offers=24, think_time=0.01,
        )
        gen.start(at=0.0)
        issued = 0
        max_parallel = 0
        steps = 0
        while not gen.done:
            if not sim.step():
                # generator waits on resolutions: resolve everything pending
                assert pending, "closed loop stalled with nothing in flight"
            max_parallel = max(max_parallel, len(pending))
            # resolve in batches to exercise the release path
            while pending:
                issued += 1
                gen.offer_resolved(pending.pop(), "completed")
            steps += 1
            assert steps < 100_000
        assert issued == 24
        assert max_parallel <= 4  # never more than one offer per user

    def test_resolution_releases_the_user(self):
        sim = Simulator(seed=5)
        pending = []
        gen = ClosedLoopGenerator(
            sim, [0], lambda o: pending.append(o),
            users=1, total_offers=3, think_time=0.01,
        )
        gen.start(at=0.0)
        drain(sim)
        assert len(pending) == 1  # user stuck until we resolve
        gen.offer_resolved(pending.pop(), "completed")
        drain(sim)
        assert len(pending) == 1  # exactly one more, not a burst
        gen.offer_resolved(pending.pop(), "shed")
        drain(sim)
        gen.offer_resolved(pending.pop(), "completed")
        assert gen.done

    def test_keeps_only_pending_handles(self):
        sim = Simulator(seed=6)
        pending = []
        gen = ClosedLoopGenerator(
            sim, [0, 1, 2], pending.append,
            users=3, total_offers=200, think_time=0.01,
        )
        gen.start(at=0.0)
        resolved = 0
        while sim.step():
            while pending:
                gen.offer_resolved(pending.pop(), "completed")
                resolved += 1
            # one think timer per user at most, however many offers ran
            assert len(gen._handles) <= 3
        assert resolved == 200 and gen.done
        assert not gen._handles

    def test_validation(self):
        sim = Simulator(seed=1)
        with pytest.raises(ValueError):
            ClosedLoopGenerator(sim, [0], lambda o: None, users=0, total_offers=1)
        with pytest.raises(ValueError):
            ClosedLoopGenerator(
                sim, [0], lambda o: None, users=1, total_offers=1, think_time=0.0
            )
