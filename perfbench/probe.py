"""Machine-speed probe for normalising timings on a shared host.

On a host whose cores are shared with other tenants, the same Python code
runs 20-50% slower in some minutes than in others, and the slowdown is
not visible as steal time.  The benchmark therefore runs this fixed
kernel, which is the benchmark's own code and independent of monotri,
every PROBE_EVERY_S seconds between items.  It divides each measured
time by the mean slowness of the probes in the same batch.  A normalised
time is the time the work would have taken on a host where the probe
takes REFERENCE_S.  Raw times are kept in the results file.
"""

import time

# Mean probe time on an unloaded 2-vCPU Intel Xeon guest under CPython
# 3.11; it only sets the scale of normalised times.
REFERENCE_S = 0.0012
PROBE_EVERY_S = 0.05


def _kernel():
    # interpreter dispatch on small ints ...
    x = 3
    for i in range(12000):
        x = (x * x + i) % 1000000007
    # ... and a recurrence on multi-thousand-bit ints, the two kinds of
    # work monotri's hot loops do.
    prev, cur = 2, 7
    for _ in range(700):
        prev, cur = cur, 7 * cur + prev
    return x, cur


def probe_s():
    """Duration of one run of the kernel."""
    t = time.perf_counter()
    _kernel()
    return time.perf_counter() - t
