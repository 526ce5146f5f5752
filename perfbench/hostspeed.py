"""Host-speed probes, for scaling trial times on a shared host.

On a shared host the same work runs up to twice as slow from one second to
the next, and work on the interpreter and work streaming large arrays slow
down by different amounts.  A probe times a fixed piece of one kind of work
that shares no code and no memory with the package: it calls nothing in
the package and takes no memory from the heap the package allocates from,
so a change to the package's code or allocation pattern does not reach it
(it still shares the core and its caches, as any probe in the process
must).  A probe runs right before and right after each trial or set-up
run, whose time is scaled by ``nominal / mean of the two probe times``:
the result is its time on a host running the probe in its nominal time.
Over repeated passes of the same trials, bracketing each trial this way
left the least spread; the probe before it alone, or the median of 7 to 81
neighbouring probes, left more.
"""

import mmap
import subprocess
import sys
import time

import numpy as np

# Probe times that define nominal host speed; about what each probe takes
# on an uncontended core of a 2 GHz Xeon with one BLAS thread.
NOMINAL_S = {"interpreter": 1.0e-4, "array": 5.0e-3, "process": 0.15}


def make_probe(kind: str):
    """A callable returning the seconds one run of the probe work takes.

    ``interpreter``: a short loop of tuple, dict, float and tiny-array
    work, like the association and fitting code; it allocates only small
    objects that free lists recycle.  ``array``: scale the rows of a
    512x640 complex matrix into fresh memory, then multiply it by a vector,
    like the waveform path's steering-matrix products.  The scaled copy is
    written to pages mapped from the kernel for each run and unmapped
    after it, never to the heap, so the probe pays for fresh pages on
    every run whatever the package's allocations left behind.  Over passes
    of the waveform workload this tracked the slowdowns better than the
    same work into a buffer kept for the run or taken from the heap each
    time (spread of the scaled pass totals 5.6%, against 10% and 7.8%).
    ``process``: start a fresh interpreter that imports numpy and exits,
    like the first part of a set-up run; set-up times are scaled by it.
    Neither interpreter work nor array work follows set-up time, and this
    does: in ``steadiness.json`` the run-to-run spread of set-up time is
    14-30% unscaled and 5-10% scaled.
    """
    if kind == "interpreter":
        v = np.arange(4.0)

        def work():
            acc = 0.0
            for i in range(60):
                point = (0.5 * i, 1.5)
                items = {"x": point[0], "y": point[1]}
                acc += (items["x"] ** 2 + items["y"] ** 2) ** 0.5 + float(v @ v)
                acc += sorted((i, 3, 1))[1]
            return acc

    elif kind == "array":
        m = np.exp(-2j * np.pi * np.outer(np.arange(512.0), np.arange(640.0)) / 2048)
        rows = np.exp(0.5j * np.pi * np.arange(512.0))
        # Row scaling spelled out in full: a broadcast product would take a
        # scratch buffer from the heap.
        scale = np.broadcast_to(rows[:, None], m.shape).copy()
        x = np.ones(640, dtype=complex)
        y = np.empty(512, dtype=complex)

        def work():
            pages = mmap.mmap(-1, m.nbytes)
            try:
                out = np.frombuffer(pages, dtype=complex).reshape(m.shape)
                np.multiply(m, scale, out=out)
                np.matmul(out, x, out=y)
                del out
            finally:
                pages.close()

    elif kind == "process":
        command = [sys.executable, "-c", "import numpy"]

        def work():
            subprocess.run(command, check=True, timeout=60)

    else:
        raise ValueError(f"unknown probe kind {kind!r}")

    def probe() -> float:
        start = time.perf_counter()
        work()
        return time.perf_counter() - start

    return probe


def scaled(samples, kind: str) -> list[float]:
    """Scale each ``(wall_s, probe_s)`` sample to nominal host speed.

    ``probe_s`` is the mean of the probe times just before and just after
    the sample.
    """
    return [wall * NOMINAL_S[kind] / probe for wall, probe in samples]
