"""Fast self-test of the benchmark at small sizes.

Usage (from the repository root):  python3 perfbench/selftest.py

Shows that the output checks catch real errors and that the tracing is
complete, reversible and deterministic:

- every workload passes its checks at small sizes;
- ``verify --inject-fault NAME`` counts as a failed job;
- one corrupted coefficient in a captured ``numbers`` or ``matrix`` output,
  symbolic or at ``--lambda``, fails the check;
- the tracer wraps every alias (``stirling2_table`` in ``algorithms`` and
  ``audit``, ``build_table`` in ``audit`` and ``cli``, the CLI's dispatch
  tables, ``LambdaPoly.__radd__``) and restores every original;
- two traced runs with the same seed give identical counts, and the series
  counts are 0 where no series code runs;
- the metrics printed are exactly those ``BENCHMARK.json`` lists.
Exits 1 on the first failed expectation.
"""

from __future__ import annotations

import json
import re
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from checks import Job  # noqa: E402
from tracer import Tracer  # noqa: E402

WORK = HERE / ".work-selftest"
SEED = 3


def expect(cond: bool, what: str) -> None:
    if not cond:
        print(f"FAIL {what}")
        sys.exit(1)
    print(f"ok   {what}")


def small_bench(name: str) -> run.Bench:
    work = WORK / name
    work.mkdir(parents=True, exist_ok=True)
    return run.Bench(workloads.make_jobs(name, SEED, work, workloads.SMALL), work)


def test_workloads_pass() -> dict[str, run.Bench]:
    benches = {}
    for name in workloads.WORKLOADS:
        bench = small_bench(name)
        bench.run_pass(traced=False)
        expect(bench.failed == 0 and bench.attempted == len(bench.jobs),
               f"{name}: every job passes its check")
        benches[name] = bench
    return benches


def test_injected_faults() -> None:
    bench = small_bench("verify_suite")
    verify = bench.jobs[0]
    faults = ["ogf_egf_transforms", "stirling2_three_way", "derivation_operator_rows"]
    bench.jobs = [Job(f"verify_fault_{f}", verify.argv + ["--inject-fault", f], verify.check)
                  for f in faults]
    bench.run_pass(traced=False)
    expect(bench.failed == len(faults), "verify --inject-fault counts as a failed job")


_TERM = re.compile(r"(-?\d+)(?:/(\d+))?")


def corrupt(cell: str, last: bool) -> str:
    """Add 1 to the first or last coefficient of a rendered cell, keeping it
    canonical: (p + q)/q is reduced whenever p/q is."""
    matches = list(_TERM.finditer(cell))
    # "*L^12" exponents are not coefficients
    matches = [m for m in matches if m.start() == 0 or cell[m.start() - 1] == " "]
    m = matches[-1] if last else matches[0]
    p, q = int(m.group(1)), int(m.group(2) or 1)
    new = p + q if p + q else p - q
    text = str(new) if q == 1 else f"{new}/{q}"
    return cell[: m.start()] + text + cell[m.end():]


def test_corrupted_outputs(benches: dict[str, run.Bench]) -> None:
    for name, bench in benches.items():
        for i, job in enumerate(bench.jobs):
            if job.name in ("verify", "audit"):
                continue
            path, failure, _ = bench.verified[(i, 0)]
            text = path.read_text(encoding="utf-8")
            for last in (False, True):
                bad = _corrupt_output(text, last)
                # through Bench.check, past the verdict of the clean output
                out = bench.work / "corrupted.out"
                out.write_text(bad, encoding="utf-8")
                caught, _ = bench.check(i, job, out, 0)
                where = "last" if last else "first"
                expect(failure is None and bad != text and caught is not None,
                       f"{name}/{job.name}: corrupted {where} coefficient is caught")


def _corrupt_output(text: str, last: bool) -> str:
    if text.startswith("{"):
        record = json.loads(text)
        payload = record["payload"]
        cells = payload["values"] if "values" in payload else payload["table"][2]
        k = 3 if len(cells) > 3 else 1
        cells[k] = corrupt(cells[k], last)
        return json.dumps(record, indent=2) + "\n"
    lines = text.splitlines(keepends=True)
    i = len(lines) // 2
    n, m, cell = lines[i].rstrip("\n").split("\t")
    lines[i] = f"{n}\t{m}\t{corrupt(cell, last)}\n"
    return "".join(lines)


def test_tracer_reversible() -> None:
    import degenums
    from degenums import algorithms, audit, cli, exact, numbers, series
    from degenums.exact import LambdaPoly

    modules = [degenums, exact, series, numbers, algorithms, audit, cli]

    def bindings():
        out = {}
        for mod in modules:
            for name, value in vars(mod).items():
                out[(mod.__name__, name)] = value
                if isinstance(value, dict):
                    for key, item in value.items():
                        out[(mod.__name__, name, key)] = item
                if isinstance(value, type):
                    for attr, member in vars(value).items():
                        out[(mod.__name__, name, attr)] = member
        return out

    before = bindings()
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = numbers.stirling2_table
        expect(algorithms.stirling2_table is wrapped and audit.stirling2_table is wrapped
               and cli._TRIANGLE_FAMILIES["stirling2"] is wrapped
               and degenums.stirling2_table is wrapped and wrapped.__wrapped__ is not None,
               "stirling2_table is wrapped in every namespace that bound it")
        expect(audit.build_table is algorithms.build_table is cli.build_table
               and hasattr(cli.build_table, "__wrapped__"),
               "build_table is wrapped in algorithms, audit and cli")
        cli._SEED_NAMES["bernoulli"]()
        _ = 1 + LambdaPoly((1, 2))
        _ = 2 * LambdaPoly((1, 2))
        snap = tracer.snapshot()["names"]
        expect(snap["exact.LambdaPoly.__radd__"]["calls"] == 1
               and snap["exact.LambdaPoly.__rmul__"]["calls"] == 1
               and snap["algorithms.SequenceSpec.bernoulli"]["calls"] == 1,
               "__radd__, __rmul__ and the CLI's bound seed classmethods are traced")
    finally:
        tracer.uninstall()
    after = bindings()
    changed = [key for key in before if after.get(key) is not before[key]]
    expect(not changed and before.keys() == after.keys(),
           f"tracer restores all {len(before)} bindings (changed: {changed[:3]})")


def test_traced_counts(benchmark_json: dict) -> None:
    names = {m["name"]: m["unit"] for m in benchmark_json["per_layer"]}
    for name in workloads.WORKLOADS:
        runs = [run.measure(small_bench(name), 0, trace=True) for _ in range(2)]
        expect(set(runs[0]) == set(names)
               and all(run.layer_unit(n) == u for n, u in names.items()),
               f"{name}: traced run reports exactly the per-layer metrics")
        counts = [{k: v for k, v in r.items() if k.endswith(run.COUNTS)} for r in runs]
        expect(counts[0] == counts[1], f"{name}: counts repeat across two traced runs")
        if name != "verify_suite":
            series = {k: v[0] for k, v in runs[0].items()
                      if k.startswith("series.") and k.endswith("_calls")}
            expect(all(v == 0 for v in series.values()), f"{name}: series counts are 0")
    e2e = {m["name"]: m["unit"] for m in benchmark_json["end_to_end"]}
    expect(e2e == run.END_TO_END, "end-to-end metrics match BENCHMARK.json")


def main() -> None:
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        benchmark_json = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        benches = test_workloads_pass()
        test_injected_faults()
        test_corrupted_outputs(benches)
        test_tracer_reversible()
        test_traced_counts(benchmark_json)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
