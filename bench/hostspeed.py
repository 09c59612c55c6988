"""Host-speed scaling of the benchmark's end-to-end times.

On a shared host the CPU runs the same work up to twice as slowly for
seconds to minutes at a time, with process CPU time tracking wall time
(see NOTES.md, "Host speed"). Raw times of two runs minutes apart then
differ by more than any change of the program worth catching. So every
timed interval also samples the host's speed with a fixed *probe* that
uses no code of the package: ``EDGE_PROBES`` samples just before the
interval and just after it and, while it runs, one every ``INTERVAL_S``
seconds from a timer signal. The interval's raw time is its elapsed time
less the samples taken inside it. Its scaled time, in *reference
seconds*, is ``raw * REFERENCE_PROBE_S / m`` with ``m`` the trimmed mean
of the probe times: the seconds the interval would take on a host that
runs the probe in ``REFERENCE_PROBE_S``.

An import is timed in a fresh interpreter, where it mostly loads and
runs the code of numpy and scipy; its time follows the probe less than
it varies on its own. So an import is scaled instead by an import of the
package's dependencies alone (``REFERENCE_IMPORT``), timed just before it.

The probe only measures the host. A program change moves the raw time
and leaves the probe alone, so it moves the scaled time by the same share.
"""

from __future__ import annotations

import signal
import time

#: seconds between samples inside an interval (a sample costs about 1 % of that)
INTERVAL_S = 0.015
#: samples taken just before and just after every interval
EDGE_PROBES = 8
#: share of samples left out at either end of their mean: a sample that
#: the host descheduled for milliseconds says little about its speed
TRIM = 0.1
#: probe time on the baseline machine in its fast spells, rounded
REFERENCE_PROBE_S = 45e-6
#: the import that stands in for the probe when an import is timed: the
#: package's dependencies, and no code of the package
REFERENCE_IMPORT = "numpy, scipy.special"
#: its time in a fresh interpreter on the baseline machine in its fast
#: spells, rounded
REFERENCE_IMPORT_S = 0.30


def probe() -> float:
    """Seconds for fixed work in the package's own mix of scalar complex
    arithmetic, list and dict work and number formatting."""
    t0 = time.perf_counter()
    z, s = 0.3 + 0.2j, 0.0
    for _ in range(150):
        z = z * z * 0.5 + 0.1j
        s += abs(z)
    table = {i: z.real * i for i in range(48)}
    s += sum(sorted(table.values(), key=abs))
    s += len(",".join([f"{z.real:.17g},{s:.9e}" for _ in range(15)]))
    return time.perf_counter() - t0


def sample() -> float:
    """One probe time, from the second of two probes: the first warms the
    caches that the interrupted work left cold, so that the sample sees the
    host and not the working set of the code it interrupted."""
    probe()
    return probe()


def trimmed_mean(values: list[float]) -> float:
    """Mean of ``values`` without the ``TRIM`` share at either end."""
    values = sorted(values)
    k = int(TRIM * len(values))
    kept = values[k:len(values) - k]
    return sum(kept) / len(kept)


class Timed:
    """Times the block it wraps, with probes before, during and after it."""

    def __init__(self) -> None:
        self.probes: list[float] = []
        self.elapsed_s = 0.0
        self.raw_s = 0.0
        self._inside_s = 0.0

    def _on_timer(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.probes.append(sample())
        self._inside_s += time.perf_counter() - t0

    def __enter__(self) -> "Timed":
        self.probes = [sample() for _ in range(EDGE_PROBES)]
        self._inside_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed_s = time.perf_counter() - self._t0
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.raw_s = self.elapsed_s - self._inside_s
        self.probes += [sample() for _ in range(EDGE_PROBES)]

    @property
    def scaled_s(self) -> float:
        """The raw time in reference seconds, at the host speed the samples saw."""
        return self.raw_s * REFERENCE_PROBE_S / trimmed_mean(self.probes)
