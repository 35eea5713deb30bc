"""Crash recovery: journal replay, checkpoint restore, supervised respawn.

The serving tier's recovery contract (``docs/SERVING.md``): a service
rebuilt over the same checkpoint directory and admission journal after a
hard crash (``os._exit``, ``kill -9``) delivers results **bit-identical**
to an uninterrupted run — request seeds are content-derived, the engine
snapshot restores the full solver state (Q15.16 currents, RNG cursors,
window bookkeeping), and the write-ahead journal replays every
admitted-but-unfinished request.  Damage that atomic writes cannot
explain fails loudly with typed errors; damage a crash *can* explain
(a torn tail, a torn newest snapshot) degrades to the last good state.
"""

import asyncio
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.csp.scenarios import make_instance
from repro.runtime.checkpoint import FaultPlan
from repro.serve import (
    AdmissionJournal,
    JournalCorruptError,
    OpenLoopLoad,
    ServeSupervisor,
    SolveService,
    SupervisorError,
    run_open_loop_sync,
)

_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


# --------------------------------------------------------------------- #
# Admission journal
# --------------------------------------------------------------------- #
def _graph():
    return make_instance("coloring", seed=1, num_vertices=9, num_colors=3)[0]


def test_journal_roundtrip_preserves_order(tmp_path):
    journal = AdmissionJournal(tmp_path / "wal")
    graph = _graph()
    for i in range(3):
        journal.admit(key=f"k{i}", client="c", graph=graph, clamps=[], seed=i, max_steps=100)
    journal.done("k1")
    journal.close()

    records, torn = AdmissionJournal(tmp_path / "wal").replay()
    assert not torn
    assert [r["kind"] for r in records] == ["admit", "admit", "admit", "done"]
    assert [r["key"] for r in records] == ["k0", "k1", "k2", "k1"]
    assert records[2]["seed"] == 2 and records[2]["max_steps"] == 100


def test_missing_or_empty_journal_is_no_history(tmp_path):
    assert AdmissionJournal(tmp_path / "absent").replay() == ([], False)
    (tmp_path / "empty").write_bytes(b"")
    assert AdmissionJournal(tmp_path / "empty").replay() == ([], False)


def test_torn_tail_is_tolerated_and_repairable(tmp_path):
    fault = FaultPlan(truncate_journal_at=3)
    journal = AdmissionJournal(tmp_path / "wal", fault=fault)
    graph = _graph()
    for i in range(3):  # the third append is chopped mid-record
        journal.admit(key=f"k{i}", client="c", graph=graph, clamps=[], seed=i, max_steps=100)
    journal.close()

    replayer = AdmissionJournal(tmp_path / "wal")
    records, torn = replayer.replay(repair=True)
    assert torn and [r["key"] for r in records] == ["k0", "k1"]

    # After repair the tail is clean: appends land and replay is whole.
    replayer.admit(key="k3", client="c", graph=graph, clamps=[], seed=3, max_steps=100)
    replayer.close()
    records, torn = AdmissionJournal(tmp_path / "wal").replay()
    assert not torn and [r["key"] for r in records] == ["k0", "k1", "k3"]


def test_mid_file_corruption_fails_loudly(tmp_path):
    journal = AdmissionJournal(tmp_path / "wal")
    graph = _graph()
    for i in range(3):
        journal.admit(key=f"k{i}", client="c", graph=graph, clamps=[], seed=i, max_steps=100)
    journal.close()

    blob = bytearray((tmp_path / "wal").read_bytes())
    blob[len(blob) // 2] ^= 0xFF  # inside record 2, with record 3 beyond it
    (tmp_path / "wal").write_bytes(bytes(blob))
    with pytest.raises(JournalCorruptError, match="beyond"):
        AdmissionJournal(tmp_path / "wal").replay()


def test_bad_magic_fails_loudly(tmp_path):
    (tmp_path / "wal").write_bytes(b"definitely not a journal")
    with pytest.raises(JournalCorruptError, match="magic"):
        AdmissionJournal(tmp_path / "wal").replay()


# --------------------------------------------------------------------- #
# Service recovery differential: crash -> restore -> bit-identical
# --------------------------------------------------------------------- #
N_REQUESTS = 6
MAX_STEPS = 1500
SERVICE_KW = dict(capacity=2, check_interval=10, default_max_steps=MAX_STEPS, seed=11)


def _request_instances(count=N_REQUESTS):
    return [
        make_instance("coloring", seed=100 + i, num_vertices=9, num_colors=3)
        for i in range(count)
    ]


def _submit_all(service_kwargs, count=N_REQUESTS, max_steps=MAX_STEPS):
    """Submit the canonical request set to a fresh service; return results."""

    async def main():
        async with SolveService(clock="steps", **service_kwargs) as service:
            results = await asyncio.gather(
                *[
                    service.submit(*instance, client=f"c{i}", max_steps=max_steps)
                    for i, instance in enumerate(_request_instances(count))
                ]
            )
            await service.stop(drain=True)
            return list(results), service.metrics()

    return asyncio.run(main())


def _assert_serve_results_identical(actual, expected):
    assert len(actual) == len(expected)
    for got, ref in zip(actual, expected):
        assert got.seed == ref.seed and got.max_steps == ref.max_steps
        assert got.result.solved == ref.result.solved
        assert got.result.steps == ref.result.steps
        assert got.result.total_spikes == ref.result.total_spikes
        assert got.result.neuron_updates == ref.result.neuron_updates
        np.testing.assert_array_equal(got.result.values, ref.result.values)
        np.testing.assert_array_equal(got.result.decided, ref.result.decided)


def _run_crashing_service(tmp_path, *, crash_at_step=120):
    """A subprocess service that takes the request set and dies mid-solve."""
    ckpt_dir = tmp_path / "ckpts"
    journal = tmp_path / "journal.wal"
    script = tmp_path / "crashing_service.py"
    script.write_text(
        "import asyncio, sys\n"
        f"sys.path.insert(0, {_SRC!r})\n"
        "from repro.csp.scenarios import make_instance\n"
        "from repro.runtime.checkpoint import FaultPlan\n"
        "from repro.serve import SolveService\n"
        "\n"
        "async def main():\n"
        "    service = SolveService(\n"
        "        capacity=2, check_interval=10, default_max_steps=1500, seed=11,\n"
        f"        clock='steps', checkpoint_dir={str(ckpt_dir)!r}, checkpoint_every=40,\n"
        f"        journal_path={str(journal)!r},\n"
        f"        fault=FaultPlan(crash_at_step={crash_at_step}),\n"
        "    )\n"
        "    async with service:\n"
        "        instances = [make_instance('coloring', seed=100 + i,\n"
        "                                   num_vertices=9, num_colors=3)\n"
        f"                     for i in range({N_REQUESTS})]\n"
        "        await asyncio.gather(*[\n"
        "            service.submit(*instance, client=f'c{i}', max_steps=1500)\n"
        "            for i, instance in enumerate(instances)])\n"
        "\n"
        "asyncio.run(main())\n"
    )
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == FaultPlan.CRASH_EXIT_CODE, proc.stderr
    assert journal.exists()
    assert len(list(ckpt_dir.glob("*.ckpt"))) >= 1
    return ckpt_dir, journal


def test_crashed_service_recovers_bit_identically(tmp_path):
    ckpt_dir, journal = _run_crashing_service(tmp_path)

    recovered, metrics = _submit_all(
        dict(SERVICE_KW, checkpoint_dir=str(ckpt_dir), journal_path=str(journal))
    )
    reference, _ = _submit_all(SERVICE_KW)
    _assert_serve_results_identical(recovered, reference)

    assert metrics.restores == 1
    assert metrics.restored_rows >= 1  # rows were mid-solve at the crash
    assert metrics.restored_rows + metrics.replayed >= 1
    assert metrics.served == N_REQUESTS


def test_corrupt_newest_snapshot_falls_back_to_previous(tmp_path):
    """Snapshot rot degrades recovery to the older snapshot, loudly counted."""
    ckpt_dir, journal = _run_crashing_service(tmp_path)
    snapshots = sorted(ckpt_dir.glob("*.ckpt"))
    assert len(snapshots) >= 2  # rotation kept a fallback
    blob = bytearray(snapshots[-1].read_bytes())
    blob[-1] ^= 0xFF
    snapshots[-1].write_bytes(bytes(blob))

    recovered, metrics = _submit_all(
        dict(SERVICE_KW, checkpoint_dir=str(ckpt_dir), journal_path=str(journal))
    )
    reference, _ = _submit_all(SERVICE_KW)
    _assert_serve_results_identical(recovered, reference)
    assert metrics.restores == 1
    assert metrics.checkpoint_failures >= 1  # the corrupt snapshot is counted


def test_recovery_without_history_is_a_cold_start(tmp_path):
    results, metrics = _submit_all(
        dict(
            SERVICE_KW,
            checkpoint_dir=str(tmp_path / "ckpts"),
            journal_path=str(tmp_path / "journal.wal"),
        )
    )
    reference, _ = _submit_all(SERVICE_KW)
    _assert_serve_results_identical(results, reference)
    assert metrics.restores == 0 and metrics.replayed == 0
    assert metrics.checkpoints >= 1  # it checkpointed while serving


# --------------------------------------------------------------------- #
# Supervised serving: kill -9 the child, lose no request
# --------------------------------------------------------------------- #
@pytest.mark.chaos
def test_supervisor_kill9_delivers_bit_identical_results(tmp_path):
    count, max_steps = 10, 2500
    service_kwargs = dict(
        SERVICE_KW,
        default_max_steps=max_steps,
        clock="steps",
        checkpoint_dir=str(tmp_path / "ckpts"),
        checkpoint_every=40,
        journal_path=str(tmp_path / "journal.wal"),
    )
    instances = _request_instances(count)
    results = {}

    with ServeSupervisor(service_kwargs=service_kwargs, max_restarts=5) as supervisor:

        def worker(index, instance):
            results[index] = supervisor.submit(
                *instance, client=f"c{index}", max_steps=max_steps, timeout=240.0
            )

        threads = [
            threading.Thread(target=worker, args=(i, instance), daemon=True)
            for i, instance in enumerate(instances)
        ]
        for thread in threads:
            thread.start()

        # Kill only once the child has durable state to recover from.
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline and not list((tmp_path / "ckpts").glob("*.ckpt")):
            time.sleep(0.02)
        assert list((tmp_path / "ckpts").glob("*.ckpt")), "child never checkpointed"
        supervisor.kill()

        for thread in threads:
            thread.join(timeout=240.0)
        assert not any(thread.is_alive() for thread in threads)
        restarts = supervisor.restarts

    assert restarts >= 1  # the crash really happened and was survived
    assert sorted(results) == list(range(count))

    reference, _ = _submit_all(
        dict(SERVICE_KW, default_max_steps=max_steps), count=count, max_steps=max_steps
    )
    _assert_serve_results_identical([results[i] for i in range(count)], reference)


@pytest.mark.chaos
def test_submit_during_respawn_backoff_spawns_no_second_child():
    """A submit while the child is down only books the request: the
    respawn loop spawns the one next child and resubmits it."""
    supervisor = ServeSupervisor(
        service_kwargs=dict(SERVICE_KW, clock="steps"), backoff_base=1.0, backoff_cap=1.0
    )
    spawns, children = [], []
    spawn = supervisor._spawn

    def recording_spawn(*, first):
        spawns.append(first)
        spawn(first=first)
        children.append(supervisor._process)

    supervisor._spawn = recording_spawn
    instance = _request_instances(1)[0]
    results = []
    with supervisor:
        supervisor.kill()
        deadline = time.monotonic() + 30.0
        while supervisor.child_pid is not None and time.monotonic() < deadline:
            time.sleep(0.01)
        assert supervisor.child_pid is None  # inside the 1 s respawn backoff

        def worker():
            results.append(supervisor.submit(*instance, client="c0", timeout=120.0))

        thread = threading.Thread(target=worker, daemon=True)
        thread.start()
        time.sleep(1.5)  # past the backoff
        thread.join(timeout=120.0)
        assert spawns == [True, False]
        assert sum(child.is_alive() for child in children) == 1

    reference, _ = _submit_all(SERVICE_KW, count=1)
    _assert_serve_results_identical(results, reference)


@pytest.mark.chaos
def test_submit_after_giving_up_raises_at_once():
    """Once the restart budget is spent, a submit fails without a new child."""
    with ServeSupervisor(service_kwargs=dict(SERVICE_KW, clock="steps"), max_restarts=0) as sup:
        sup.kill()
        deadline = time.monotonic() + 30.0
        while sup.child_pid is not None and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.5)  # the listener reaps the child and gives up
        with pytest.raises(SupervisorError, match="gave up"):
            sup.submit(*_request_instances(1)[0], timeout=30.0)
        assert sup.child_pid is None


# --------------------------------------------------------------------- #
# Client-side resilience: loadgen retry with jittered backoff
# --------------------------------------------------------------------- #
def test_loadgen_retries_recover_shed_requests():
    base = dict(
        num_clients=6,
        requests_per_client=4,
        mean_interarrival_steps=5.0,
        scenario="coloring",
        scenario_params={"num_vertices": 9, "num_colors": 3},
        unique_instances=24,
        seed=7,
        max_steps=1200,
    )
    service = dict(
        capacity=2, queue_limit=1, check_interval=10, seed=7, clock="steps",
        default_max_steps=1200,
    )

    rows_plain, _, stats_plain = run_open_loop_sync(OpenLoopLoad(**base), **service)
    assert stats_plain["retries"] == 0 and stats_plain["recovered_by_retry"] == 0
    assert stats_plain["shed"] == sum(1 for _, _, r in rows_plain if r is None) > 0

    spec = OpenLoopLoad(
        **base,
        retry_budget=4,
        retry_base_steps=16.0,
        retry_cap_steps=256.0,
        retry_deadline_steps=2000.0,
    )
    rows, metrics, stats = run_open_loop_sync(spec, **service)
    rows2, metrics2, stats2 = run_open_loop_sync(spec, **service)

    # Deterministic: seeded jitter makes retried runs exactly repeatable.
    assert stats == stats2 and metrics.as_dict() == metrics2.as_dict()
    for (c1, p1, r1), (c2, p2, r2) in zip(rows, rows2):
        assert (c1, p1) == (c2, p2) and (r1 is None) == (r2 is None)
        if r1 is not None:
            assert r1.result.steps == r2.result.steps

    assert stats["retries"] > 0
    assert stats["recovered_by_retry"] > 0
    assert stats["shed"] == sum(1 for _, _, r in rows if r is None)
    assert stats["shed"] < stats_plain["shed"]  # retries reduced ultimate sheds
