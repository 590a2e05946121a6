"""Skewed-clock lease regression: deadlines live in claimed *filenames*.

The filesystem spool embeds each lease deadline in the claimed entry's
name, stamped by the claiming host in the same atomic rename that wins
the claim.  Reclaim is then a pure name comparison against the
reclaimer's clock — mtime (stamped by whichever host happened to write
the file) plays no part, so clock skew between spool hosts shifts
*when* reclaim happens by exactly the skew, never by the difference
between two hosts' file-timestamp conventions.  The differential skew
sites (``queue.clock.claim`` vs ``queue.clock.reclaim``) simulate the
two hosts disagreeing.
"""

import os
import time

import pytest

from repro import faults
from repro.distributed.queue import FileSpoolQueue, Task, decode_result
from repro.exceptions import RemoteTaskError

# Generous lease so a loaded box can't lapse a live claim between two
# statements; expiry in these tests always comes from *injected skew*
# (immediate), never from really waiting the lease out.
LEASE = 5.0


@pytest.fixture
def spool(tmp_path):
    return FileSpoolQueue(tmp_path / "q", lease=LEASE, retries=2)


def submit(queue, task_id="t0"):
    queue.submit(Task(task_id=task_id, context_id="", payload=b"work"))


def claimed_names(queue):
    return sorted(os.listdir(os.path.join(queue.root, "claimed")))


class TestDeadlineInFilename:
    def test_claimed_entry_name_embeds_the_deadline(self, spool):
        submit(spool)
        before = time.time()
        assert spool.claim("w") is not None
        (name,) = claimed_names(spool)
        task_id, attempts, deadline_ms = spool._parse_entry(name)
        assert (task_id, attempts) == ("t0", 0)
        assert deadline_ms is not None
        # deadline is stored in whole milliseconds: allow the truncation
        assert before + LEASE - 0.002 <= deadline_ms / 1000.0 <= \
            time.time() + LEASE + 0.5

    def test_mtime_is_irrelevant_to_reclaim(self, spool):
        """The regression: backdating the claimed file's mtime by an hour
        (what a skewed NFS host's timestamps look like) must NOT make a
        live lease reclaimable."""
        submit(spool)
        assert spool.claim("w") is not None
        (name,) = claimed_names(spool)
        path = os.path.join(spool.root, "claimed", name)
        ancient = time.time() - 3600
        os.utime(path, (ancient, ancient))
        assert spool.reclaim_expired() == 0
        assert claimed_names(spool) == [name]

    def test_extend_renames_to_a_fresh_deadline(self, spool):
        submit(spool)
        assert spool.claim("w") is not None
        (before,) = claimed_names(spool)
        time.sleep(0.05)
        spool.extend("t0")
        (after,) = claimed_names(spool)
        assert spool._parse_entry(after)[2] > spool._parse_entry(before)[2]


class TestDifferentialSkew:
    def test_slow_claimer_clock_expires_early(self, spool):
        """A claimer whose clock runs behind stamps a deadline that an
        on-time reclaimer sees as already lapsed — the task requeues
        immediately (costing a retry, never correctness)."""
        with faults.use_plan(
                faults.FaultPlan(f"queue.clock.claim:skew=-{LEASE * 10}")):
            submit(spool)
            assert spool.claim("w") is not None
            assert spool.reclaim_expired() == 1
        task = spool.claim("w")
        assert task is not None and task.attempts == 1

    def test_fast_reclaimer_clock_expires_early(self, spool):
        with faults.use_plan(
                faults.FaultPlan(f"queue.clock.reclaim:skew={LEASE * 10}")):
            submit(spool)
            assert spool.claim("w") is not None
            assert spool.reclaim_expired() == 1

    def test_uniform_skew_cancels(self, spool):
        """Both hosts equally wrong is the healthy case: absolute clock
        error must not cause reclaim, only *relative* skew can."""
        with faults.use_plan(faults.FaultPlan(
                "queue.clock.claim:skew=500;"
                "queue.clock.reclaim:skew=500")):
            submit(spool)
            assert spool.claim("w") is not None
            assert spool.reclaim_expired() == 0

    def test_skew_past_the_budget_quarantines(self, spool):
        """A hopelessly fast reclaimer burns the retry budget; the task
        fails explicitly and its record lands in quarantine/."""
        with faults.use_plan(
                faults.FaultPlan("queue.clock.reclaim:skew=10000")):
            submit(spool)
            for _ in range(spool.retries):
                assert spool.claim("w") is not None
                assert spool.reclaim_expired() == 1
            assert spool.claim("w") is not None
            spool.reclaim_expired()  # budget exhausted -> explicit failure
        with pytest.raises(RemoteTaskError, match="retry budget"):
            decode_result(spool.result("t0"))
        assert os.listdir(os.path.join(spool.root, "quarantine"))


class TestDeadlineLessEntries:
    def test_deadline_less_entry_requeues(self, spool):
        """A claimed entry without a deadline field is expired whatever
        its mtime: the next reclaim requeues it, and the original
        claimer's late completion stays idempotent."""
        submit(spool)
        assert spool.claim("w") is not None
        (name,) = claimed_names(spool)
        os.rename(os.path.join(spool.root, "claimed", name),
                  os.path.join(spool.root, "claimed",
                               spool._entry_name("t0", 0)))
        assert spool.reclaim_expired() == 1
        assert claimed_names(spool) == []
        assert os.listdir(os.path.join(spool.root, "tasks")) == [
            spool._entry_name("t0", 1)]
        spool.complete("t0", b"done")
        spool.complete("t0", b"done")
        assert spool.result("t0") == b"done"
        assert os.listdir(os.path.join(spool.root, "tasks")) == []
        assert spool.claim("w") is None
