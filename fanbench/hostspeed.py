"""Host-speed calibration for timings taken on a shared machine.

The machines this benchmark runs on share their cores with other
tenants, and their speed for single-threaded Python changes by up to 2x
for minutes at a time: a fixed loop timed back to back for five minutes
took 11-13 ms in some minutes and 21-26 ms in others. A median over one
run cannot remove that, because it depends on which phase the run fell
in. So every timed interval is bracketed by a fixed pure-Python workload
of the same kind (regex tokenizing, lowercasing, dict counting, JSON)
and scaled to what it would have taken at the reference speed:

    scaled = measured * REFERENCE_S / mean(calibration before, after)

The workload is benchmark code, so a change to fanlex cannot move it.
Raw wall times are reported next to the scaled ones.
"""

from __future__ import annotations

import json
import os
import re
import time

# Seconds of one calibration on the reference host in its fast phase
# (2-CPU VM, Python 3.11). Only sets the unit of scaled times.
REFERENCE_S = 0.040

# About 6k distinct tokens: a working set of a few MB, like a small
# lexicon's, tracks the children's slowdown better than a cache-resident
# loop does (per-child spread after scaling 13% against 18% over 140
# evaluate children, measured while the other CPU was busy).
# One calibration takes 40-80 ms, long enough to average the host's
# speed over a stretch, short next to a child's run.
_TEXT = " ".join(
    f"Kelime{i}ler, ŞÖZ{i % 1300}dan ırmak{i % 3100}. " for i in range(2500)
)
_TOKEN = re.compile(r"[^\W_]+")


def _work() -> int:
    counts: dict[str, int] = {}
    for token in _TOKEN.findall(_TEXT):
        token = token.lower()
        counts[token] = counts.get(token, 0) + 1
    lines = [json.dumps({"t": t, "c": c}, ensure_ascii=False) for t, c in sorted(counts.items())]
    return sum(json.loads(line)["c"] for line in lines)


def calibrate() -> float:
    """Seconds for one calibration workload, measured now."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


class Clock:
    """Scales intervals by the calibrations taken just before and after them.

    Call factor() (or scale()) right after each timed interval; the
    calibration it takes then also serves as the next interval's "before".
    """

    def __init__(self) -> None:
        self.last = calibrate()
        self.calibrations = [self.last]

    def factor(self) -> float:
        now = calibrate()
        factor = 2 * REFERENCE_S / (self.last + now)
        self.last = now
        self.calibrations.append(now)
        return factor

    def scale(self, seconds: float) -> float:
        return seconds * self.factor()


def pin_to_one_cpu() -> int:
    """Run this process and its children on one CPU, so calibrations and
    the measured children see the same core's contention."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu
