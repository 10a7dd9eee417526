"""Alternated parent/change benchmark pairs, written to BENCH_<label>.json.

Usage (from the repository root):

    python3 tools/bench_pairs.py --label NAME [--parent REF] [--seeds 40-49]
        [--trace-seed N]
    python3 tools/bench_pairs.py --compare BENCH_new.json [BENCH_earlier.json]

The change is the current checkout, working-tree edits included; the parent
is REF, by default HEAD when files under src/ or perfbench/ differ from HEAD
(the change is not committed yet) and HEAD~1 otherwise, so edits to files
the benchmark never reads do not make a committed change its own parent.
The parent is unpacked with ``git archive`` into a temporary directory
(under $TMPDIR) and removed afterwards.  The file names the
measured change by its commit and, when the tree has edits, by the tree of
``git stash create``.  Every workload in BENCHMARK.json runs for the
benchmark's ``run_seconds``.  For each seed the two sides run
``perfbench/run.py --trace 0`` on the same workload one after the other,
the parent first on even pairs and the change first on odd ones, so slow
drift of the host's speed falls on both sides alike.  One ``--trace 1`` run
per side and workload records the per-layer cost drivers (degree in L,
coefficient bits, poly-op counts).

The file holds, per workload and end-to-end metric, the values of every
pair, their median and quartiles on each side, the change/parent ratio of
the medians and the number of pairs the change won.  ``--compare`` prints
those ratios, or with a second file the ratios of the first file's change
medians to the second's; beside each it prints the median and quartiles of
the first file's per-pair change/parent ratios.  Nothing here is a gate: it
only measures.
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
BETTER = {m["name"]: m["better"] for m in SPEC["end_to_end"]}


def parse_seeds(text: str) -> list[int]:
    """The seeds named by "40-49" or "40,41,45"."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def default_parent() -> str:
    """HEAD when the benchmark's inputs have uncommitted edits, else HEAD~1."""
    return "HEAD" if git("status", "--porcelain", "--", "src", "perfbench") else "HEAD~1"


def unpack(commit: str, into: Path) -> Path:
    """The committed tree of ``commit`` as a plain directory (no git metadata)."""
    archive = into / "parent.tar"
    with archive.open("wb") as fh:
        subprocess.run(["git", "archive", commit], cwd=ROOT, check=True, stdout=fh)
    tree = into / "parent"
    with tarfile.open(archive) as tar:
        tar.extractall(tree)
    archive.unlink()
    return tree


def run_once(tree: Path, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1 = med = q3 = values[0]
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "values": values}


def measure(args: argparse.Namespace) -> dict:
    seeds = parse_seeds(args.seeds)
    stash = git("stash", "create")
    commit = git("rev-parse", args.parent or default_parent())
    workdir = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    try:
        sides = {"parent": unpack(commit, workdir), "change": ROOT}
        result = {
            "label": args.label,
            "parent": {"commit": commit},
            "change": {"commit": git("rev-parse", "HEAD"),
                       "edited_tree": git("rev-parse", f"{stash}^{{tree}}") if stash else None},
            "python": platform.python_version(),
            "seconds": SPEC["run_seconds"],
            "seeds": seeds,
            "trace_seed": args.trace_seed,
            "order": "alternated: the parent runs first on even pairs, the change on odd ones",
            "workloads": {},
        }
        for workload in (w["name"] for w in SPEC["workloads"]):
            runs: dict[str, list[dict]] = {"parent": [], "change": []}
            for i, seed in enumerate(seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    runs[side].append(run_once(sides[side], workload, seed, 0))
                line = "  ".join(f"{side} {runs[side][-1]['metrics']['pass_s']['value']:.3f}"
                                 for side in ("parent", "change"))
                print(f"{workload} seed {seed}: pass_s {line}", file=sys.stderr, flush=True)
            entry: dict = {"end_to_end": {}, "failed": {}, "per_layer": {"seed": args.trace_seed}}
            for metric, better in BETTER.items():
                per_side = {side: [r["metrics"][metric]["value"] for r in runs[side]]
                            for side in runs}
                sign = 1 if better == "lower" else -1
                wins = sum(sign * (c - p) < 0 for p, c in zip(per_side["parent"], per_side["change"]))
                stats = {side: summary(v) for side, v in per_side.items()}
                entry["end_to_end"][metric] = {
                    **stats,
                    "unit": runs["parent"][0]["metrics"][metric]["unit"],
                    "ratio": stats["change"]["median"] / stats["parent"]["median"],
                    "change_wins": wins,
                    "pairs": len(seeds),
                }
            for side in runs:
                entry["failed"][side] = sum(r["failed"] for r in runs[side])
                traced = run_once(sides[side], workload, args.trace_seed, 1)
                entry["per_layer"][side] = {k: v["value"] for k, v in traced["metrics"].items()}
            result["workloads"][workload] = entry
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def pair_ratios(stats: dict) -> str:
    """The median and quartiles of the change/parent ratios of each pair.  A
    host phase change moves both runs of a pair alike, so these stay steady
    where the two sides' own quartiles do not."""
    ratios = summary([c / p for p, c in zip(stats["parent"]["values"], stats["change"]["values"])])
    return f"pair ratios {ratios['median']:.3f} q1..q3 {ratios['q1']:.3f}..{ratios['q3']:.3f}"


def compare(new_path: Path, old_path: Path | None) -> None:
    new = json.loads(new_path.read_text(encoding="utf-8"))
    old = json.loads(old_path.read_text(encoding="utf-8")) if old_path else None
    for workload, entry in new["workloads"].items():
        for metric, stats in entry["end_to_end"].items():
            if old is None:
                p, c = stats["parent"], stats["change"]
                print(f"{workload:16s} {metric:12s} {p['median']:10.4g} -> {c['median']:10.4g} "
                      f"ratio {stats['ratio']:.3f}  wins {stats['change_wins']}/{stats['pairs']}  "
                      f"parent q1..q3 {p['q1']:.4g}..{p['q3']:.4g}  {pair_ratios(stats)}")
                continue
            before = old["workloads"].get(workload, {}).get("end_to_end", {}).get(metric)
            if before is None:
                print(f"{workload:16s} {metric:12s} not in {old_path}")
                continue
            ratio = stats["change"]["median"] / before["change"]["median"]
            print(f"{workload:16s} {metric:12s} {before['change']['median']:10.4g} -> "
                  f"{stats['change']['median']:10.4g} ratio {ratio:.3f}  "
                  f"({new_path.name} {pair_ratios(stats)})")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label")
    parser.add_argument("--parent")
    parser.add_argument("--seeds", default="40-49")
    parser.add_argument("--trace-seed", type=int, default=50)
    parser.add_argument("--compare", nargs="+", type=Path, metavar="FILE")
    args = parser.parse_args()
    if args.compare:
        if len(args.compare) > 2:
            parser.error("--compare takes one or two files")
        compare(args.compare[0], args.compare[1] if len(args.compare) == 2 else None)
        return 0
    if not args.label:
        parser.error("--label is required unless --compare is given")
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(measure(args), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out.relative_to(ROOT)}", file=sys.stderr)
    compare(out, None)
    return 0


if __name__ == "__main__":
    sys.exit(main())
