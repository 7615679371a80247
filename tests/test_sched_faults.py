"""Pool failure modes, each in a child process so a wedge is a timeout.

Three ways a pool can fail its parent, each driven for real:

* a worker SIGKILLed while blocked sending a result batch larger than
  its pipe buffer (the run must finish byte-identical to inline);
* the parent SIGKILLed mid-run (its workers must exit, not linger);
* SIGINT to the parent mid-run (a prompt exit with status 130 and one
  stderr line, a valid ledger ending ``interrupted``, no artifact, no
  worker left).

A reparented worker that has exited stays a zombie until something
reaps it, which a container's init may never do, so "gone" here means
absent from ``/proc`` or in state ``Z``.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import repro
from repro.obs import read_ledger_jsonl, validate_ledger

ENV = dict(os.environ,
           PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))

#: A 1/1000 run keeps two workers busy for a few seconds.
GENERATE = [sys.executable, "-m", "repro", "generate", "--scale", "1000",
            "--seed", "2023", "--workers", "2"]

_KILLED_WHILE_SENDING = """
import os, signal, sys, time

from repro.obs import use_metrics
from repro.sched import PoolBackend, generate_scheduled
from repro.workload.config import ScenarioConfig

# At 1/4000 the first batch of four results pickles to over 400 KB, more
# than a default 208 KB socket buffer holds.
CONFIG = ScenarioConfig.from_denominator(4000)


class HeldPool(PoolBackend):
    # The first round dispatches, then holds off reading until the worker
    # has emitted its first batch and blocked sending it, and kills it.
    held = False

    def collect(self, timeout=0.25):
        if not self.held:
            self.held = True
            self._dispatch()
            time.sleep(3.0)
            victim = self._workers[0].proc
            os.kill(victim.pid, signal.SIGKILL)
            victim.join()
        return super().collect(timeout)


inline = generate_scheduled(CONFIG, backend="inline").store.content_digest()
pool = HeldPool(workers=1)
with use_metrics() as metrics:
    dataset = generate_scheduled(CONFIG, backend=pool, workers=1)
print(pool.deaths, metrics.counter("sched.tasks_retried"), pool.depth,
      dataset.store.content_digest() == inline)
"""


def _running(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return False
    return state != "Z"


def _children(pid: int):
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except (FileNotFoundError, ProcessLookupError):
            continue
        if int(fields[1]) == pid and fields[0] != "Z":
            out.append(int(entry))
    return sorted(out)


def _workers_of(proc: subprocess.Popen, count: int):
    """Wait (up to 120 s) for ``proc`` to have ``count`` live children."""
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        assert proc.poll() is None, "generate finished before its pool existed"
        found = _children(proc.pid)
        if len(found) >= count:
            return found
        time.sleep(0.02)
    raise AssertionError(f"no {count} pool workers under pid {proc.pid}")


def _gone_within(pids, seconds: float) -> bool:
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        if not any(_running(pid) for pid in pids):
            return True
        time.sleep(0.05)
    return False


def _stop(proc: subprocess.Popen, pids=()) -> None:
    """Kill whatever a failed assertion left running."""
    proc.kill()  # a no-op once the child has been reaped
    proc.wait()
    for pid in pids:
        if _running(pid):
            os.kill(pid, signal.SIGKILL)


def test_worker_killed_while_sending_finishes_byte_identical():
    done = subprocess.run([sys.executable, "-c", _KILLED_WHILE_SENDING],
                          env=ENV, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr[-2000:]
    deaths, retried, depth, identical = done.stdout.split()
    assert deaths == "1"
    # The cut batch's tasks had started, so they come back as errors; the
    # tasks queued behind them were never picked up and go back to the
    # backlog without spending an attempt.
    assert 1 <= int(retried) < int(depth)
    assert identical == "True"


def test_parent_sigkill_leaves_no_orphan_workers(tmp_path):
    proc = subprocess.Popen(GENERATE + ["--out", str(tmp_path / "x.npz")],
                            env=ENV, cwd=tmp_path,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    workers = []
    try:
        workers = _workers_of(proc, 2)
        proc.kill()
        assert proc.wait(timeout=10) == -signal.SIGKILL
        assert _gone_within(workers, 5.0), \
            [pid for pid in workers if _running(pid)]
    finally:
        _stop(proc, workers)


def test_sigint_mid_generate_exits_promptly_and_cleanly(tmp_path):
    ledger, out = tmp_path / "L.jsonl", tmp_path / "X.npz"
    stderr = tmp_path / "stderr.txt"
    with open(stderr, "wb") as err:
        proc = subprocess.Popen(
            GENERATE + ["--ledger", str(ledger), "--out", str(out)],
            env=ENV, cwd=tmp_path, stdout=subprocess.DEVNULL, stderr=err,
        )
    workers = []
    try:
        workers = _workers_of(proc, 2)
        start = time.monotonic()
        proc.send_signal(signal.SIGINT)
        proc.wait(timeout=30)
        elapsed = time.monotonic() - start
        assert elapsed <= 2.0, f"SIGINT exit took {elapsed:.2f} s"
        assert proc.returncode == 130
        records = read_ledger_jsonl(ledger)
        assert validate_ledger(records) == []
        assert records[-1]["record"] == "final"
        assert records[-1]["status"] == "interrupted"
        text = stderr.read_text()
        assert "Traceback" not in text
        assert text.count("repro: interrupted") == 1
        assert not out.exists()
        assert sorted(tmp_path.glob(".X.npz.*.tmp")) == []
        assert not any(_running(pid) for pid in workers)
    finally:
        _stop(proc, workers)
