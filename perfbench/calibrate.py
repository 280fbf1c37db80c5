"""Reference probe of the machine's current speed.

The shared machines this benchmark runs on change speed by up to 1.8x over
tens of seconds, as other tenants come and go, which moves raw wall times by
more than any useful regression bound.  Every timed operation is therefore
reported in units of this probe, measured right before and after it in the
same process tree: the machine's share of a slowdown cancels, while a change
in the library shows in full because the probe never calls it.  Set-up
times keep their unit: they are scaled to the speed at which the probe takes
``NOMINAL_S``.
"""

import time

import numpy as np

# The probe's duration on the 2-CPU x86-64 machine this was tuned on, when
# no other tenant slowed it down.
NOMINAL_S = 0.020


def probe():
    """Seconds taken by fixed work in the library's idiom.

    Interpreted dict and loop code, many calls on small arrays (the shape of
    the samplers and membership tests) and a few 50 x 50 products.
    """
    start = time.perf_counter()
    table = {}
    for i in range(60000):
        table[i % 97] = table.get(i % 97, 0) + i
    L = np.arange(144.0).reshape(12, 12) / 144.0
    v = np.ones(12)
    acc = 0.0
    for i in range(1400):
        w = L @ v
        acc += float(np.linalg.norm(w))
        acc += len(np.flatnonzero(w < 0.5 * acc / (i + 1))) * 1e-9
        v = np.asarray(v * 0.999 + 0.001, dtype=float)
    a = np.linspace(0.0, 1.0, 2500).reshape(50, 50)
    for _ in range(400):
        a = np.tanh(a @ a.T / 50.0 + 0.01)
    return time.perf_counter() - start


def at_nominal_speed(seconds, probe_s):
    """``seconds`` measured next to a probe of ``probe_s``, scaled to NOMINAL_S."""
    return seconds * NOMINAL_S / probe_s
