"""Deterministic cost budget for the simulated per-task path.

Wall time on shared machines drifts by tens of percent; the number of
Python calls a seeded run makes does not.  This test drives a fixed,
seeded batch of about two hundred :mod:`repro.workloads` workflows through
one :class:`~repro.engine.EngineHost` with heartbeat crash detection and
counts every call into ``repro`` code (``sys.setprofile``, attributed by
the calling frame's module, so dataclass-generated methods of ``repro``
classes count).  Comprehension and generator-expression frames are left
out: Python 3.12 inlines comprehensions, and the count must agree between
interpreter versions.

The budget is the count measured when the per-task path was flattened,
plus 5%.  The implementation before that made 202,669 calls on this
batch (247.8 per task), 1.9 times the budget.
"""

from __future__ import annotations

import sys

from tests.helpers import SeededBatch

WORKFLOWS = 200
#: Calls into repro code on the batch when the budget was set (127.2 per
#: task over its 818 tasks), and the 5% allowance above it.
MEASURED_CALLS = 104_014
BUDGET = int(MEASURED_CALLS * 1.05)

_COMPREHENSIONS = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"})


def count_repro_calls(run) -> int:
    """Python calls into ``repro`` modules made while *run* executes."""
    calls = 0

    def profile(frame, event, _arg):
        nonlocal calls
        if (
            event == "call"
            and frame.f_code.co_name not in _COMPREHENSIONS
            and frame.f_globals.get("__name__", "").startswith("repro.")
        ):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return calls


def batch_tasks(batch: SeededBatch) -> int:
    """Non-dummy activities of the batch (each completes once)."""
    return sum(
        1
        for spec in batch.specs
        for activity in spec.activities()
        if not activity.dummy
    )


def test_per_task_calls_within_budget():
    batch = SeededBatch(WORKFLOWS, seed=11, mttf=2000.0, rate=10.0)
    results = []
    calls = count_repro_calls(lambda: results.extend(batch.run()))
    assert all(result.succeeded for result in results)
    tasks = batch_tasks(batch)
    assert calls <= BUDGET, (
        f"{calls} calls ({calls / tasks:.1f} per task) exceed the budget of "
        f"{BUDGET} ({BUDGET / tasks:.1f} per task)"
    )
