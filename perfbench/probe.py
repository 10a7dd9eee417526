"""CPU-rate probe, and the set-up sample that uses it.

Usage: python3 perfbench/probe.py SRC_DIR

On a shared host the speed at which a CPU runs Python drifts by up to 2x, in
phases that last from seconds to minutes, and the CPUs of a small machine
drift independently.  ``probe_rate`` times a fixed piece of big-integer
arithmetic on the calling process's CPU and returns how many of those fit
in a second; ``run.py`` rescales each timing by the rate measured during it.

Run as a script, this is one set-up sample: it times importing
``degenums.cli`` from SRC_DIR and building its parser, and prints
``{"setup_s": ..., "cpu_rate": ...}``.  It imports nothing else first, so
the import costs what it costs a fresh CLI process.
"""

import sys
from time import perf_counter


def probe_rate() -> float:
    """Runs per second of a fixed ~30 us piece of big-integer arithmetic."""
    start = perf_counter()
    x = 7**60
    for i in range(60):
        x = (x * 0x9E3779B97F4A7C15 + i) % (1 << 400)
    return 1.0 / (perf_counter() - start)


def setup_sample(src: str) -> None:
    # The import takes ~0.1 s, so probes right before and right after it
    # give the rate it ran at.
    rates = [probe_rate() for _ in range(5)]
    start = perf_counter()
    sys.path.insert(0, src)
    import degenums.cli

    degenums.cli.build_parser()
    setup_s = perf_counter() - start
    rates += [probe_rate() for _ in range(5)]
    print(f'{{"setup_s": {setup_s!r}, "cpu_rate": {sum(rates) / len(rates)!r}}}')


if __name__ == "__main__":
    setup_sample(sys.argv[1])
