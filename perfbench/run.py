"""Benchmark runner for degenums.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A single-threaded closed loop with one client: each pass starts a fresh
worker interpreter (``worker.py``), which imports ``degenums`` from ``src/``
and runs the workload's job list through ``degenums.cli.main``, as a CLI
user pays for a fresh process on every call.  Passes repeat until S seconds
of passes have run.  After each pass ``run.py`` checks every job's output
against the oracles; an output byte-identical to one already checked gets
that check's verdict.

Every timing is rescaled to a reference CPU speed: it is multiplied by the
rate ``probe.probe_rate`` measured on the same CPU while the timed work ran,
times REF_PROBE_S.  On a shared host the raw times of identical runs drift
by up to 2x; ``probe.py`` says why.  The raw wall times are reported on
stderr as ``*_wall_s``.

``--trace 0`` reports the end-to-end metrics (medians over the passes, and
over the set-up samples for ``setup_s``).  ``--trace 1`` alternates untraced
and traced passes and reports the per-layer metrics of the traced ones.
The last line of stdout is the result as one JSON object; a summary with
quartiles and sample counts goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads
from tracer import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

SETUP_SAMPLES = 25
WORKER_TIMEOUT_S = 120
# The reference speed: the CPU speed at which one probe takes 30 us.
REF_PROBE_S = 30e-6

END_TO_END = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {"_s": "s", "_calls": "count", "_cells": "count",
                   "_degree": "count", "_bits": "bit", "_bytes": "byte"}
# Per-layer counts that must repeat exactly from one traced pass to the next.
COUNTS = ("_calls", "_cells", "max_degree", "max_coeff_bits", "output_bytes")


class Bench:
    def __init__(self, jobs, work: Path) -> None:
        self.jobs = jobs
        self.work = work
        self.env = dict(os.environ, PYTHONPYCACHEPREFIX=str(work / "pycache"))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.verified: dict[tuple[int, int], tuple[Path, str | None, dict]] = {}
        self.attempted = 0
        self.failed = 0

    def spawn(self, script: str, arg: str) -> tuple[float, str]:
        """Run a script of the benchmark; return its wall time and stdout."""
        start = perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / script), arg], cwd=ROOT,
                              env=self.env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
        elapsed = perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"{script} exited {proc.returncode}: {proc.stderr[-2000:]}")
        return elapsed, proc.stdout

    def setup_sample(self) -> dict:
        return json.loads(self.spawn("probe.py", str(SRC))[1])

    def run_pass(self, traced: bool) -> tuple[dict, float, dict]:
        """Run one pass; return the worker's result, its wall time and the
        summed cost drivers of the outputs."""
        spec = {
            "src": str(SRC),
            "trace": traced,
            "jobs": [{"argv": job.argv, "out": str(self.work / f"job{i}.out"),
                      "err": str(self.work / f"job{i}.err")}
                     for i, job in enumerate(self.jobs)],
        }
        spec_path = self.work / "pass.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        wall, _ = self.spawn("worker.py", str(spec_path))
        result = json.loads(Path(f"{spec_path}.result.json").read_text(encoding="utf-8"))
        drivers = {"max_degree": 0, "max_coeff_bits": 0, "output_bytes": 0}
        for i, (job, status) in enumerate(zip(self.jobs, result["statuses"])):
            out = Path(spec["jobs"][i]["out"])
            drivers["output_bytes"] += out.stat().st_size
            failure, stats = self.check(i, job, out, status)
            self.attempted += 1
            if failure is not None:
                self.failed += 1
                err = Path(spec["jobs"][i]["err"]).read_text(encoding="utf-8")[-500:]
                print(f"FAILED {job.name}: {failure} {err}", file=sys.stderr)
            drivers["max_degree"] = max(drivers["max_degree"], stats.get("max_degree", 0))
            drivers["max_coeff_bits"] = max(drivers["max_coeff_bits"],
                                            stats.get("max_coeff_bits", 0))
        return result, wall, drivers

    def check(self, i: int, job, out: Path, status: int) -> tuple[str | None, dict]:
        """Check one output; reuse the verdict for a byte-identical output."""
        key = (i, status)
        if key in self.verified and same_bytes(out, self.verified[key][0]):
            return self.verified[key][1:]
        try:
            verdict = None, job.check(out.read_text(encoding="utf-8"), status)
        except Exception as exc:  # any malformed output is a failed job, not a crash
            verdict = f"{type(exc).__name__}: {exc}", {}
        kept = self.work / f"verified{i}_{status}.out"
        out.replace(kept)
        self.verified[key] = (kept, *verdict)
        return verdict


def same_bytes(a: Path, b: Path) -> bool:
    if a.stat().st_size != b.stat().st_size:
        return False
    with open(a, "rb") as fa, open(b, "rb") as fb:
        while True:
            chunk = fa.read(1 << 20)
            if chunk != fb.read(1 << 20):
                return False
            if not chunk:
                return True


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(samples: dict[str, list[float]]) -> None:
    for name, values in samples.items():
        q1, med, q3 = quartiles(values)
        print(f"{name}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} n {len(values)}",
              file=sys.stderr)


def layer_unit(name: str) -> str:
    return next(u for suffix, u in PER_LAYER_UNITS.items() if name.endswith(suffix))


def at_reference_speed(seconds: float, cpu_rate: float) -> float:
    return seconds * cpu_rate * REF_PROBE_S


def measure(bench: Bench, seconds: float, trace: bool) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = {}
    if not trace:
        bench.setup_sample()  # fills the bytecode cache
        for _ in range(SETUP_SAMPLES):
            s = bench.setup_sample()
            samples.setdefault("setup_s", []).append(
                at_reference_speed(s["setup_s"], s["cpu_rate"]))
            samples.setdefault("setup_wall_s", []).append(s["setup_s"])

    untraced: list[float] = []
    traced: list[dict] = []
    spent = 0.0
    while spent < seconds or not untraced or (trace and not traced):
        with_trace = trace and len(traced) < len(untraced)
        result, wall, drivers = bench.run_pass(with_trace)
        spent += wall
        rate = result["cpu_rate"]
        if not with_trace:
            untraced.append(at_reference_speed(result["pass_s"], rate))
            samples.setdefault("pass_wall_s", []).append(result["pass_s"])
            samples.setdefault("peak_rss_mb", []).append(result["peak_rss_mb"])
            continue
        metrics = {name: at_reference_speed(v, rate) if name.endswith("_s") else v
                   for name, v in layer_metrics(result["trace"]).items()}
        # max_degree, max_coeff_bits and output_bytes come from the checked
        # outputs, not from the tracer.
        metrics["exact.max_degree"] = drivers["max_degree"]
        metrics["exact.max_coeff_bits"] = drivers["max_coeff_bits"]
        metrics["cli.output_bytes"] = drivers["output_bytes"]
        metrics["trace.pass_s"] = at_reference_speed(result["pass_s"], rate)
        traced.append(metrics)
    samples["pass_s"] = untraced
    if not trace:
        return samples
    layer = {name: [m[name] for m in traced] for name in traced[0]}
    for name, values in layer.items():
        if not name.endswith(COUNTS):
            continue
        if len(set(values)) != 1:
            bench.failed += 1
            print(f"FAILED: count {name} differs between traced passes: {values}",
                  file=sys.stderr)
        layer[name] = values[:1]  # report the count itself, never an average of two
    traced_pass = statistics.median(layer.pop("trace.pass_s"))
    layer["trace.overhead_s"] = [traced_pass - statistics.median(untraced)]
    return layer


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "degenums" / "cli.py").is_file():
        print(f"error: no degenums sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(1, str(SRC))  # the checks parse output with LambdaPoly.parse
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        bench = Bench(workloads.make_jobs(args.workload, args.seed, WORK), WORK)
        samples = measure(bench, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    summarize(samples)
    if args.trace:
        metrics = {name: {"value": statistics.median(v), "unit": layer_unit(name)}
                   for name, v in samples.items()}
    else:
        metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
