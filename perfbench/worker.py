"""One benchmark pass in a fresh interpreter.

Usage: python3 perfbench/worker.py SPEC.json

SPEC names the source directory to import ``degenums`` from, the job list
(argv, output file, error file) and whether to trace.  The worker imports
the package, then times the job list run through ``degenums.cli.main``
with stdout and stderr sent to each job's files, so the captured output
never grows this process.  While the jobs run, a timer signal samples the
CPU rate (see ``probe.py``) every PROBE_INTERVAL_S.  The worker writes its
result next to SPEC as ``<SPEC>.result.json``: exit status per job,
``pass_s`` (import excluded), the mean CPU rate, peak resident memory and,
when traced, the tracer's snapshot.
"""

from __future__ import annotations

import json
import resource
import signal
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

from probe import probe_rate

PROBE_INTERVAL_S = 0.02


class RateSampler:
    """Samples ``probe_rate`` on a wall-clock timer while the block runs.

    Samples are evenly spaced in wall time, so their mean rate is the work
    per second the CPU delivered over the block.
    """

    def __init__(self) -> None:
        self.rates: list[float] = []

    def _sample(self, signum, frame) -> None:
        self.rates.append(probe_rate())

    def __enter__(self) -> "RateSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.rates:
            self.rates.append(probe_rate())

    @property
    def rate(self) -> float:
        return statistics.fmean(self.rates)


def run_job(cli, job: dict) -> int:
    saved = sys.stdout, sys.stderr
    with open(job["out"], "w", encoding="utf-8") as out, \
            open(job["err"], "w", encoding="utf-8") as err:
        sys.stdout, sys.stderr = out, err
        try:
            return cli.main(job["argv"])
        except SystemExit as exc:  # argparse usage errors exit through here
            return exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an uncaught error exits 1 in the real CLI too
            traceback.print_exc()
            return 1
        finally:
            sys.stdout, sys.stderr = saved


def run_pass(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    import degenums.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(spec["src"]).resolve()):
        raise SystemExit(f"degenums imported from {cli.__file__}, not from {spec['src']}")
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    with RateSampler() as sampler:
        start = perf_counter()
        statuses = [run_job(cli, job) for job in spec["jobs"]]
        pass_s = perf_counter() - start
    result = {
        "statuses": statuses,
        "pass_s": pass_s,
        "cpu_rate": sampler.rate,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.snapshot()
    Path(spec_path + ".result.json").write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    run_pass(sys.argv[1])
