"""CPU time, scaled to a reference speed by a routine timed around each operation.

The benchmark runs on a few cores of a shared host.  Even counted in CPU
time, the same work there takes up to twice as long from one minute to the
next, as other tenants load the caches and execution units the CPU shares.
A small routine run just before and just after an operation slows down with
it, so on the workloads run.SCALED names each operation's CPU time is
reported at a fixed reference speed:

    reported = measured * CAL_REF_S / median(calibration samples around it)

The routine uses no functorlab code, so a change to the package moves the
reported times exactly as it moves the measured ones.  It does what the
package's hot loops do: products of small integer matrices held as tuples.
Calibration runs between operations, never inside a timed region.
"""

import resource
import time
from statistics import median

# Median CPU seconds of one `unit()` on the reference machine (a 2-vCPU
# Intel Xeon VM, CPython 3.11).  A fixed scale: it sets the unit of every
# reported time and must not change once figures have been recorded with it.
CAL_REF_S = 1.0e-3
BLOCK_FIRST = 20                # samples in the block before the first operation
BLOCK_MIN, BLOCK_MAX = 3, 100   # and in each block after an operation,
BLOCK_SHARE = 0.1               # which lasts about this share of the operation
POOL_MIN = 100                  # samples that scale one operation's time

_SEED = tuple(tuple((i * 7 + j * 3) % 5 for j in range(8)) for i in range(8))


def cpu_time():
    """CPU seconds of this process and of its children that have ended.

    The benchmark times work by the CPU it takes, not by the wall clock: on
    a shared host the wall clock also counts the time other tenants hold
    the CPU.
    """
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + c.ru_utime + c.ru_stime


def unit():
    """Eight 8x8 integer matrix products, the work one sample times."""
    a = _SEED
    for _ in range(8):
        cols = tuple(zip(*a))
        a = tuple(tuple(sum(x * y for x, y in zip(row, col)) % 5 for col in cols) for row in a)
    return a


def block_after(op_s):
    """A calibration block after an operation that took `op_s` CPU seconds."""
    return block(min(BLOCK_MAX, max(BLOCK_MIN, round(BLOCK_SHARE * op_s / CAL_REF_S))))


def block(k):
    """CPU seconds of each of `k` consecutive `unit` calls."""
    clock, out = time.process_time, []
    for _ in range(k):
        t0 = clock()
        unit()
        out.append(clock() - t0)
    return out


def at_reference(times, blocks):
    """Each time scaled to the reference speed by the blocks either side of it.

    blocks[i] was taken just before times[i] and blocks[i + 1] just after.
    Blocks after short operations are small, so neighbouring blocks are
    pooled, nearest first, until at least POOL_MIN samples scale the time.
    """
    out = []
    for i, t in enumerate(times):
        lo, hi = i, i + 1
        pool = blocks[lo] + blocks[hi]
        while len(pool) < POOL_MIN and (lo > 0 or hi < len(blocks) - 1):
            if lo > 0:
                lo -= 1
                pool += blocks[lo]
            if hi < len(blocks) - 1:
                hi += 1
                pool += blocks[hi]
        out.append(t * CAL_REF_S / median(pool))
    return out
