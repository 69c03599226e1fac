"""Regression tests for cross-disk circular-wait hazards.

Two deadlock classes were found under concurrent parity updates:

1. **SI holding**: a parity RMW holding disk A spinning for old data
   queued on disk B, while disk B's in-service parity RMW spins for old
   data queued on disk A.  Broken by the bounded hold
   (``si_max_hold_revolutions``) with requeue.
2. **Priority reconstruct parity**: an RF/PR or DF/PR reconstruct
   parity write jumping (priority) ahead of another update's stripe
   reads on its disk while its own reads queue behind a symmetric
   parity write.  Broken by submitting reconstruct parity only after
   its reads complete.

A third hazard is a lost wake-up in the cache's slot waiters:

3. **Tiny cache**: a miss that finds every resident block mid-destage
   waits for a slot.  Only a destage completion or an eviction woke it,
   so a block that became evictable by a write or a fetch left it
   waiting forever.  Broken by notifying after each write and fetch.
"""

import numpy as np
import pytest

from repro.des import Environment
from repro.sim import Organization, SystemConfig
from repro.sim.system import build_system

BPD = 2640


def flood(org, sync, writes, n=4, nblocks=1, seed=0):
    """Issue many concurrent updates and require all to finish."""
    env = Environment()
    cfg = SystemConfig(
        organization=Organization.parse(org),
        n=n,
        blocks_per_disk=BPD,
        sync_policy=sync,
    )
    system = build_system(env, cfg, 1)
    ctrl = system.controllers[0]
    rng = np.random.default_rng(seed)
    finished = []

    def writer(env, lb, k):
        yield from ctrl.handle(lb, k, True)
        finished.append(lb)

    for _ in range(writes):
        lb = int(rng.integers(0, n * BPD - nblocks))
        env.process(writer(env, lb, nblocks))
    env.run(until=600_000)
    return finished, writes, ctrl


class TestSIHoldBound:
    def test_si_concurrent_single_block_updates_all_finish(self):
        finished, total, _ = flood("raid5", "SI", writes=150)
        assert len(finished) == total

    def test_si_parity_striping_all_finish(self):
        finished, total, _ = flood("parity_striping", "SI", writes=150)
        assert len(finished) == total

    def test_si_hold_retries_counted_under_contention(self):
        """The bounded hold is actually exercised: under a write flood
        some parity accesses give up and requeue."""
        from repro.disk.request import DiskRequest  # noqa: F401

        finished, total, ctrl = flood("raid5", "SI", writes=300, seed=3)
        assert len(finished) == total
        # Spins happen under SI (the policy's signature cost).
        assert all(d.completed > 0 for d in ctrl.disks)

    def test_si_hold_bound_config_validation(self):
        cfg = SystemConfig(si_max_hold_revolutions=2)
        assert cfg.si_max_hold_revolutions == 2


class TestPriorityReconstructParity:
    @pytest.mark.parametrize("sync", ["RF/PR", "DF/PR"])
    def test_concurrent_reconstruct_writes_all_finish(self, sync):
        # 3-of-4-unit writes -> reconstruct path, many in flight.
        finished, total, _ = flood("raid5", sync, writes=120, nblocks=3, seed=1)
        assert len(finished) == total

    @pytest.mark.parametrize("sync", ["SI", "RF", "RF/PR", "DF", "DF/PR"])
    def test_mixed_sizes_all_policies(self, sync):
        env = Environment()
        cfg = SystemConfig(
            organization=Organization.RAID5,
            n=4,
            blocks_per_disk=BPD,
            sync_policy=sync,
        )
        system = build_system(env, cfg, 1)
        ctrl = system.controllers[0]
        rng = np.random.default_rng(7)
        finished = []

        def writer(env, lb, k):
            yield from ctrl.handle(lb, k, True)
            finished.append(lb)

        total = 0
        for _ in range(120):
            k = int(rng.choice([1, 1, 1, 2, 3, 4, 8]))
            lb = int(rng.integers(0, 4 * BPD - k))
            env.process(writer(env, lb, k))
            total += 1
        env.run(until=600_000)
        assert len(finished) == total


class TestSlotWaiterWakeUp:
    @pytest.mark.parametrize("policy", ["lru_demand", "periodic"])
    @pytest.mark.parametrize("org", ["base", "raid5"])
    def test_one_block_cache_burst_all_finish(self, org, policy):
        env = Environment()
        cfg = SystemConfig(
            organization=Organization.parse(org),
            n=4,
            blocks_per_disk=BPD,
            cached=True,
            cache_mb=4096 / 2**20,  # one block
            destage_policy=policy,
        )
        ctrl = build_system(env, cfg, 1).controllers[0]
        assert ctrl.cache.capacity == 1
        finished = []

        def request(env, at, lb, is_write):
            yield env.timeout(at)
            yield from ctrl.handle(lb, 1, is_write)
            finished.append(lb)

        # Four writes 1 ms apart queue behind each other's sync
        # writebacks; the read arrives while all of them wait.
        for i in range(4):
            env.process(request(env, 1.0 + i, 500 + 7 * i, True))
        env.process(request(env, 5.0, 100, False))
        env.run(until=60_000)
        assert sorted(finished) == [100, 500, 507, 514, 521]
