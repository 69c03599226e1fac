"""Parity/data synchronization policies (§3.3).

Updating a block in a parity organization requires reading the old data
and old parity, then writing both anew; the *parity* write cannot happen
until the old data has been read.  When and with what priority the
parity access is issued is the synchronization policy:

``SI`` (Simultaneous Issue)
    Parity access queued at the same time as the data access.  If the
    old data is not available when the parity disk has read the old
    parity and completed a revolution, the parity disk is *held*,
    spinning whole revolutions, until it is.
``RF`` (Read First)
    Parity access issued only after the old data has been read —
    minimal disk utilization, longer update response time.
``RF/PR``
    RF, with the parity access jumping ahead of non-parity accesses in
    the parity disk's queue.
``DF`` (Disk First)
    Parity access issued when the data access reaches the head of its
    queue and acquires the disk.
``DF/PR``
    DF with priority (the policy Chen & Towsley modelled) — the paper's
    overall winner.
"""

from __future__ import annotations

import enum
from typing import Sequence

from repro.des import AllOf, Environment, Event
from repro.disk.request import DiskRequest, Priority

__all__ = ["SyncPolicy", "parity_priority", "parity_issue_gate"]


class SyncPolicy(enum.Enum):
    """When the parity access of an update is issued."""

    SI = "SI"
    RF = "RF"
    RF_PR = "RF/PR"
    DF = "DF"
    DF_PR = "DF/PR"

    @classmethod
    def parse(cls, text: "str | SyncPolicy") -> "SyncPolicy":
        """Accept the paper's spellings: ``SI, RF, RF/PR, DF, DF/PR``
        (any case; a member passes through)."""
        if isinstance(text, cls):
            return text
        for member in cls:
            if isinstance(text, str) and member.value == text.upper():
                return member
        raise ValueError(
            f"unknown sync policy {text!r}; expected one of "
            f"{[m.value for m in cls]}"
        )


def parity_priority(policy: SyncPolicy) -> float:
    """Queue priority for parity accesses under *policy*."""
    if policy in (SyncPolicy.RF_PR, SyncPolicy.DF_PR):
        return Priority.PARITY_URGENT
    return Priority.NORMAL


def parity_issue_gate(
    policy: SyncPolicy, env: Environment, data_requests: Sequence[DiskRequest]
) -> Event | None:
    """Event after which the parity access may be submitted.

    ``None`` means submit immediately (SI).  For RF the gate is the
    completion of all old-data reads; for DF it is all data accesses
    having acquired their disks.
    """
    if policy is SyncPolicy.SI:
        return None
    if policy in (SyncPolicy.RF, SyncPolicy.RF_PR):
        return AllOf(env, [r.read_complete for r in data_requests])
    return AllOf(env, [r.started for r in data_requests])
