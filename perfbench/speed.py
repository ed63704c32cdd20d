"""The host's current speed, read from a fixed task that shares no code with dspc.

The task is one Dijkstra sweep over a fixed random DAG, in the pure Python of
``checker.distances_from``. Its graph comes from a constant seed, never from
``--seed``, so every run of every workload times the same task. A speed
factor is the task's measured CPU time over REFERENCE_S: 1.0 at the
reference speed, 1.3 when the host runs this process 30% slower.
"""

from __future__ import annotations

import gc
import random
import time

import checker

# The task's CPU time at the reference speed: about its median on the 2-vCPU
# x86-64 VM (Python 3.11) where the benchmark's first figures were taken.
# Scaled times are in seconds at that speed. Changing the task or this value
# changes the scale of every figure.
REFERENCE_S = 0.0003

TASK_VERTICES = 120
TASK_REACH = 8


def _task_problem() -> checker.Problem:
    rng = random.Random("perfbench-speed-task")
    weights = {}
    for u in range(1, TASK_VERTICES):
        for v in range(u + 1, min(TASK_VERTICES, u + TASK_REACH) + 1):
            if v == u + 1 or rng.random() < 0.5:
                weights[(u, v)] = rng.randint(1, 3)
    return checker.Problem(TASK_VERTICES, weights, (), 1, "vertex")


_PROBLEM = _task_problem()


def run(at_least: float) -> tuple[int, float]:
    """Run the task once, then again until ``at_least`` CPU seconds have passed.

    Returns how many tasks ran and the CPU seconds they took. The garbage
    collector is off meanwhile, so that objects dspc left alive cannot make
    the task slower.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        tasks, spent = 0, 0.0
        while True:
            t0 = time.thread_time()
            checker.distances_from(_PROBLEM, 1)
            spent += time.thread_time() - t0
            tasks += 1
            if spent >= at_least:
                return tasks, spent
    finally:
        if was_enabled:
            gc.enable()


def factor(tasks: int, spent: float) -> float:
    """The speed factor of ``tasks`` runs of the task that took ``spent`` seconds."""
    return spent / (tasks * REFERENCE_S)


def local_factors(stamps: list, tasks: list, spent: list, window: float) -> list:
    """Each sample's speed factor over the samples stamped within ``window`` of it.

    ``stamps`` are the samples' wall-clock times, in order; ``tasks`` and
    ``spent`` are what the task took at each.
    """
    tasks_sum, spent_sum = [0], [0.0]
    for n, s in zip(tasks, spent):
        tasks_sum.append(tasks_sum[-1] + n)
        spent_sum.append(spent_sum[-1] + s)
    out, lo, hi = [], 0, 0
    for stamp in stamps:
        while stamps[lo] < stamp - window:
            lo += 1
        while hi < len(stamps) and stamps[hi] <= stamp + window:
            hi += 1
        out.append(factor(tasks_sum[hi] - tasks_sum[lo], spent_sum[hi] - spent_sum[lo]))
    return out
