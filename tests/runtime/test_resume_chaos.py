"""Resume bit-identity under real SIGKILL, on every engine.

Satellite of the chaos PR (DESIGN.md §13): a checkpointed sweep is
run in a child process, SIGKILLed mid-run at three different seeded
points (after 1, 2, and 3 completed manifest lines), then resumed
in-process with ``resume=True``.  The resumed records must be
bit-identical — on every deterministic field — to an unfaulted run of
the same grid, on both engines (the DES engines are pure
functions of their inputs, so a kill/resume must be invisible in the
results).  The in-process ``kill_resume`` emulation lives in
``repro.runtime.chaos``; this is the real-signal version.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.runtime.chaos import record_identity
from repro.runtime.checkpoint import SweepCheckpoint
from repro.runtime.runner import run_sweep, spmm_task
from repro.piuma.config import ENGINES

pytestmark = [pytest.mark.slow, pytest.mark.timeout(600)]

_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

#: The sweep under the axe: four small points, one per (kernel, K).
_GRID = (("dma", 4), ("dma", 8), ("loop", 4), ("loop", 8))

_CHILD = """
import json
import sys
import time
from dataclasses import dataclass

sys.path.insert(0, {src!r})

from repro.runtime.checkpoint import SweepCheckpoint
from repro.runtime.runner import run_sweep, spmm_task


@dataclass(frozen=True)
class SlowTask:
    # Same cache/checkpoint identity as the victim; the pause between
    # points just widens the window for the parent's SIGKILL.
    victim: object
    delay_s: float

    def label(self):
        return self.victim.label()

    def key_payload(self):
        return self.victim.key_payload()

    def run(self):
        time.sleep(self.delay_s)
        return self.victim.run()

    def fallback_record(self, error=None):
        return self.victim.fallback_record(error)


knobs = json.loads(sys.argv[1])
grid = json.loads(sys.argv[2])
manifest_dir = sys.argv[3]
tasks = [
    spmm_task("products", k, kernel=kernel, max_vertices=512, seed=3,
              **knobs)
    for kernel, k in grid
]
checkpoint = SweepCheckpoint.for_tasks(tasks, directory=manifest_dir)
run_sweep([SlowTask(task, 0.3) for task in tasks], workers=1,
          checkpoint=checkpoint)
"""


def _tasks(knobs):
    return [
        spmm_task("products", k, kernel=kernel, max_vertices=512,
                  seed=3, **knobs)
        for kernel, k in _GRID
    ]


_BASELINES = {}


def _baseline(engine):
    if engine not in _BASELINES:
        report = run_sweep(_tasks({"engine": engine}),
                           workers=1)
        _BASELINES[engine] = report.records
    return _BASELINES[engine]


def _kill_after(n_lines, knobs, manifest_dir, script_path):
    """Run the child sweep; SIGKILL it once ``n_lines`` points are
    durably in the manifest.  Returns the manifest line count seen."""
    script_path.write_text(_CHILD.format(src=os.path.abspath(_SRC)))
    child = subprocess.Popen(
        [sys.executable, str(script_path), json.dumps(knobs),
         json.dumps(list(_GRID)), str(manifest_dir)],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    manifest = SweepCheckpoint.for_tasks(_tasks(knobs),
                                         directory=manifest_dir)
    try:
        deadline = time.time() + 120
        while time.time() < deadline:
            if child.poll() is not None:
                pytest.fail(
                    f"child finished (rc={child.returncode}) before "
                    f"reaching kill point {n_lines}"
                )
            if len(manifest.load()) >= n_lines:
                break
            time.sleep(0.02)
        else:
            pytest.fail("child never reached the kill point")
        os.kill(child.pid, signal.SIGKILL)
        child.wait(30)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait(30)
    assert child.returncode == -signal.SIGKILL
    return len(manifest.load())


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("kill_point", (1, 2, 3))
def test_sigkill_resume_is_bit_identical(engine, kill_point, tmp_path):
    knobs = {"engine": engine}
    flushed = _kill_after(kill_point, knobs, tmp_path,
                          tmp_path / "child.py")
    assert flushed >= kill_point

    tasks = _tasks(knobs)
    checkpoint = SweepCheckpoint.for_tasks(tasks, directory=tmp_path)
    report = run_sweep(tasks, workers=1, checkpoint=checkpoint,
                       resume=True)

    # Everything the killed child durably completed was restored, not
    # recomputed; and every record — restored or recomputed — is
    # bit-identical to the unfaulted sweep.
    assert report.resumed == flushed
    baseline = _baseline(engine)
    assert len(report.records) == len(baseline)
    for got, want in zip(report.records, baseline):
        assert got["source"] == "simulation"
        assert record_identity(got) == record_identity(want)
