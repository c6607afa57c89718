"""Paired benchmark runs of two commits, written as a ``BENCH_<n>.json`` file.

Each side is a ``git archive`` of its commit, unpacked into its own
directory, and runs its own unchanged ``perfbench/run.py``:

    python3 tools/bench_pairs.py --parent e7e8aba --change HEAD --number 9 \\
        --runs ennea_chain3:10:1301 --runs deform_chain2:10:1321 \\
        --runs dim3_sweep:4:1341 --claim ennea_chain3:pass_s \\
        --trace-seeds 1401 1402

``--runs W:N:S`` runs N pairs of workload W on seeds S, S+1, ...; each
pair runs both sides on the same seed, one run at a time, and the side
that runs first alternates from pair to pair.  Every end-to-end metric is
summarised per side (median, quartiles, every run), with the pairs the
change won (lower is better), the parent's interquartile range and the
gap between the medians, and a no-regression verdict (``worse``,
``unresolved`` or ``within_bound``) against the metric's bound in
``BENCHMARK.json``.  The claim is met when the change wins at least
nine tenths of the pairs, its median beats the parent's by more than the
parent's interquartile range, and no larger share of its commands failed
than of the parent's.  Each run lasts as long as ``perfbench/run.py``'s
own default.  ``--trace-seeds`` adds ``--trace 1``
runs of the claimed workload on both sides and records the per-pass layer
metrics in ``TRACE_METRICS``.

The file is rewritten after every pair, so an interrupted session leaves
the pairs run so far.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
TRACE_METRICS = (
    "jsonio.encode_s", "jsonio.decode_s", "exactlin.tensor_build_s",
    "bialgebra.ennea_on_end_s", "relations.check_system_s", "unit_action.check_s",
    "cli.self_s", "trace.pass_s", "trace.absent", "exactlin.tensors_built",
    "report.checks_run",
)


def unpack(rev: str, target: Path) -> str:
    """Unpack the tree of ``rev`` into ``target``; returns the full commit id."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()
    target.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", commit], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(target)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {commit} failed")
    return commit


def run_bench(tree: Path, workload: str, seed: int, trace: bool) -> dict:
    """The summary line of one ``perfbench/run.py`` run in ``tree``."""
    args = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--trace", str(int(trace)),
    ]
    done = subprocess.run(args, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{tree.name}: {' '.join(args[1:])} printed no summary:\n{done.stderr}")
    return json.loads(lines[-1])


def spread(runs: list[float]) -> dict:
    """Median and quartiles (``statistics.quantiles``, exclusive method) of
    one side's runs, with the runs in pair order."""
    q1, _, q3 = statistics.quantiles(runs, n=4) if len(runs) > 1 else (runs[0],) * 3
    return {
        "median": round(statistics.median(runs), 5),
        "q1": round(q1, 5),
        "q3": round(q3, 5),
        "runs": [round(value, 5) for value in runs],
    }


def compare(parent: list[float], change: list[float], unit: str, bound: float) -> dict:
    """One metric over paired runs; lower is better for every end-to-end metric."""
    p, c = spread(parent), spread(change)
    return {
        "unit": unit,
        "bound": bound,
        "parent": p,
        "change": c,
        "change_over_parent": round(statistics.median(change) / statistics.median(parent), 4),
        "change_better_pairs": sum(b < a for a, b in zip(parent, change)),
        "parent_iqr": round(p["q3"] - p["q1"], 5),
        "median_gain": round(p["median"] - c["median"], 5),
    }


def verdict(result: dict) -> str:
    """No-regression verdict on one ``compare`` summary, lower being better:
    ``worse`` when the change's median exceeds the parent's by more than the
    bound; ``unresolved`` when either side's interquartile range exceeds the
    bound (both relative to the parent's median) and not every run of the
    change beats every run of the parent; ``within_bound`` otherwise."""
    parent, change = result["parent"], result["change"]
    limit = result["bound"] * parent["median"]
    if change["median"] - parent["median"] > limit:
        return "worse"
    widest = max(side["q3"] - side["q1"] for side in (parent, change))
    if widest > limit and max(change["runs"]) >= min(parent["runs"]):
        return "unresolved"
    return "within_bound"


def claim_met(workload: dict, metric: str) -> bool:
    """Whether ``metric`` gained in one workload's summary: the change won
    nine tenths of the pairs, its median gain exceeds the parent's IQR and
    it failed no larger share of its commands."""
    result = workload["metrics"][metric]
    failed, attempted = workload["commands_failed"], workload["commands_attempted"]
    return (
        result["change_better_pairs"] >= 0.9 * workload["pairs"]
        and result["median_gain"] > result["parent_iqr"]
        and sum(failed["change"]) * sum(attempted["parent"])
        <= sum(failed["parent"]) * sum(attempted["change"])
    )


def summarize(raw: dict, bounds: dict[str, float]) -> dict:
    """Per-workload summaries of the runs recorded so far."""
    out = {}
    for workload, record in raw.items():
        pairs = min(len(record["runs"][side]) for side in SIDES)
        if not pairs:
            continue
        runs = {side: record["runs"][side][:pairs] for side in SIDES}
        metrics = {}
        for name, bound in bounds.items():
            values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
            unit = runs["parent"][0]["metrics"][name]["unit"]
            metrics[name] = compare(values["parent"], values["change"], unit, bound)
        out[workload] = {
            "seeds": record["seeds"][:pairs],
            "pairs": pairs,
            "first_in_pair": record["first"][:pairs],
            "commands_attempted": {s: [r["attempted"] for r in runs[s]] for s in SIDES},
            "commands_failed": {s: [r["failed"] for r in runs[s]] for s in SIDES},
            "metrics": metrics,
            "verdicts": {name: verdict(result) for name, result in metrics.items()},
        }
    return out


def host() -> str:
    """The host in one line.  The usable CPUs (this process's affinity mask,
    where the platform has one) bound how many workers a check forks."""
    cache = "off" if os.environ.get("PYTHONDONTWRITEBYTECODE") else "on"
    usable = f" ({len(os.sched_getaffinity(0))} usable)" if hasattr(os, "sched_getaffinity") else ""
    return (
        f"{os.cpu_count()}-core{usable} {platform.machine()}, "
        f"Python {platform.python_version()}, bytecode cache {cache}"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="parent commit")
    parser.add_argument("--change", default="HEAD", help="changed commit (default HEAD)")
    parser.add_argument("--number", type=int, required=True, help="writes BENCH_<number>.json")
    parser.add_argument("--title", default="", help="what the change does")
    parser.add_argument(
        "--runs", action="append", required=True, metavar="WORKLOAD:PAIRS:FIRST_SEED"
    )
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC", help="the claimed gain")
    parser.add_argument("--trace-seeds", type=int, nargs="*", default=[])
    parser.add_argument("--work", help="directory for the two trees (default: a temporary one)")
    args = parser.parse_args()
    if args.trace_seeds and not args.claim:
        parser.error("--trace-seeds traces the claimed workload, so it needs --claim")
    if args.work:
        return run_pairs(args, Path(args.work))
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as work:
        return run_pairs(args, Path(work))


def run_pairs(args: argparse.Namespace, work: Path) -> int:
    """Unpack both trees under ``work``, run the planned pairs and traced
    runs, and write the BENCH file after each pair."""
    plan = []
    for spec in args.runs:
        workload, pairs, first = spec.split(":")
        plan.append((workload, int(pairs), int(first)))
    claim_workload, claim_metric = args.claim.split(":") if args.claim else (None, None)
    bounds = {
        item["name"]: item["bound"]
        for item in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    }
    out_path = ROOT / f"BENCH_{args.number}.json"
    trees = {side: work / side for side in SIDES}
    for tree in trees.values():
        if tree.exists():
            shutil.rmtree(tree)
    commits = {side: unpack(rev, trees[side]) for side, rev in zip(SIDES, (args.parent, args.change))}

    raw = {w: {"seeds": [], "first": [], "runs": {s: [] for s in SIDES}} for w, _, _ in plan}
    traced: dict[str, dict[str, dict]] = {side: {} for side in SIDES}

    def write() -> None:
        summary = summarize(raw, bounds)
        doc = {
            "change": args.title,
            "parent_commit": commits["parent"],
            "change_commit": commits["change"],
            "command": "python3 perfbench/run.py --workload W --seed S",
            "method": (
                "tools/bench_pairs.py: parent and change each run from its own git archive "
                "copy, one run at a time; each pair runs both sides on one seed, and the side "
                "that runs first alternates; quartiles by statistics.quantiles (exclusive)"
            ),
            "host": host(),
        }
        if claim_workload in summary:
            result = summary[claim_workload]["metrics"][claim_metric]
            doc["claim"] = {
                "workload": claim_workload,
                "metric": claim_metric,
                "change_better_pairs": result["change_better_pairs"],
                "pairs": summary[claim_workload]["pairs"],
                "median_gain": result["median_gain"],
                "parent_iqr": result["parent_iqr"],
                "met": claim_met(summary[claim_workload], claim_metric),
            }
        doc["workloads"] = summary
        if args.trace_seeds:
            doc["traced"] = {
                "command": (
                    f"python3 perfbench/run.py --workload {claim_workload} --seed S --trace 1"
                ),
                "per_traced_pass": traced,
            }
        out_path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")

    count = 0
    for workload, pairs, first_seed in plan:
        for n in range(pairs):
            seed = first_seed + n
            order = SIDES if count % 2 == 0 else SIDES[::-1]
            count += 1
            raw[workload]["seeds"].append(seed)
            raw[workload]["first"].append(order[0])
            for side in order:
                result = run_bench(trees[side], workload, seed, trace=False)
                raw[workload]["runs"][side].append(result)
                values = {k: round(v["value"], 5) for k, v in result["metrics"].items()}
                print(f"{workload} seed {seed} {side}: {values} failed={result['failed']}",
                      file=sys.stderr, flush=True)
            write()
    for n, seed in enumerate(args.trace_seeds):
        for side in SIDES if n % 2 == 0 else SIDES[::-1]:
            result = run_bench(trees[side], claim_workload, seed, trace=True)
            traced[side][str(seed)] = {
                name: round(result["metrics"][name]["value"], 6)
                for name in TRACE_METRICS
                if name in result["metrics"]
            }
            print(f"traced {claim_workload} seed {seed} {side}: {traced[side][str(seed)]}",
                  file=sys.stderr, flush=True)
        write()
    write()
    print(out_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
