"""A fixed piece of work that measures how fast the machine runs right now.

The machine is a guest on a shared host, and other tenants' load slows every
round by up to 1.7x, for seconds to tens of minutes at a time.  probe() does
the same work on every call and takes none of it from capitula, so the ratio
of its time now to REFERENCE_S is the slowdown the host imposes now.  run.py
runs this file, in a process of its own, just before and just after each
round, and divides every time the round measured by the mean slowdown.  A
process of its own keeps the probe apart from the worker's memory: it
neither sets the worker's peak nor reuses memory the program freed.

    python3 perfbench/calibrate.py    # prints the times of two probes

The work mixes three kinds that slow apart under load: products of short
polynomials in Python lists, as the ring set-up computes them; a dict built
like a dlog table; and page faults on fresh anonymous memory.  Measured on
a 2-vCPU guest over 300 back-to-back rounds of the three workloads, the
round time followed this probe with a correlation of 0.65 to 0.8; over
windows of 9 to 12 rounds, the divided times spread 4 to 6 % where the raw
times spread 8 to 25 % (interquartile range over median).
"""

import json
import mmap
import time

# the median probe() time over 1,244 probes on the reference machine (2
# vCPUs at 2.1 GHz on a shared host, Python 3.11), so that divided times
# read as seconds on that machine under its typical load
REFERENCE_S = 0.079

_POLY_STEPS = 3000
_POLY_MOD = 7**6
_TABLE = 7**6  # entries of a p = 7, n = 1 dlog table
_PRIME = 2_470_631
_FRESH_CHUNKS = 16
_CHUNK_BYTES = 2 << 20  # mapped one at a time, to keep the peak memory low
_PAGE = mmap.PAGESIZE


def _poly():
    a, b = [3, 1, 4, 1, 5, 9, 2, 6], [2, 7, 1, 8, 2, 8]
    for _ in range(_POLY_STEPS):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % _POLY_MOD
        a = out[:len(a)]
    return a


def _table():
    table, e = {}, 1
    for i in range(_TABLE):
        table[e] = i
        e = e * 5 % _PRIME
    return len(table)


def _fresh_pages():
    for _ in range(_FRESH_CHUNKS):
        with mmap.mmap(-1, _CHUNK_BYTES) as m:
            for off in range(0, _CHUNK_BYTES, _PAGE):
                m[off] = 1


def probe():
    """Seconds taken by one round of the fixed work."""
    start = time.perf_counter()
    _poly()
    _table()
    _fresh_pages()
    return time.perf_counter() - start


if __name__ == "__main__":
    print(json.dumps([probe(), probe()]))
