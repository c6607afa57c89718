"""splitalg benchmark: drives ``splitalg.cli.main`` on seeded workloads.

    python3 perfbench/run.py                               # all workloads
    python3 perfbench/run.py --workload ennea_chain3 --seed 3 --seconds 30 --trace 0

Load shape: one closed-loop client in one process; each CLI command starts
after the previous one returns (the program is single-threaded; 2 cores
leave one for the rest of the machine).  Each workload is measured in a
fresh child process, so its peak RSS is its own; set-up time is the median
of several fresh interpreters that import the program and write the first
pass's inputs.  Times are scaled to a fixed host speed with a reference
computation timed between commands (calibrate.py), because the shared host
drifts by up to 2x.  See DESIGN.md for why each workload and metric was
chosen.

With ``--trace 0`` the last line holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics from a traced run.  The last line is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 0 when every command's output checked out, 1 when some did not,
and 2 when the benchmark could not run at all (nothing is printed then).
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 7
DEADLINE_S = 170  # a run must end within 180 s

# the metrics of the last output line, with their units
END_TO_END_UNITS = {"pass_s": "s", "key_cmd_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {f"{layer}_s": "s" for layer in tracer.LAYERS}
LAYER_UNITS.update({
    "cli.self_s": "s",
    "exactlin.compose_calls": "count",
    "exactlin.compose_out_entries": "count",
    "exactlin.tensors_built": "count",
    "exactlin.dense_slots": "count",
    "exactlin.nnz": "count",
    "exactlin.nnz_ratio": "ratio",
    "exactlin.matrix_apply_calls": "count",
    "exactlin.tensor_apply_calls": "count",
    "exactlin.rank_entries": "count",
    "relations.resolve_hit_ratio": "ratio",
    "bialgebra.convolution_calls": "count",
    "unit_action.skipped": "count",
    "jsonio.bytes_read": "B",
    "jsonio.bytes_written": "B",
    "graphalg.coproduct_legs": "count",
    "report.checks_run": "count",
    "report.witnesses": "count",
    "trace.pass_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.absent": "count",
})


def pass_seconds(passes: list[list[float]]) -> float:
    """Pass time, command by command: each command's median over passes, summed.

    Every pass runs the same command list, so the k-th command of each pass
    does the same kind of work.  A slowdown of the host that hits a few
    commands moves one sample of each, not the whole estimate.
    """
    return sum(statistics.median(times) for times in zip(*passes))


class BenchError(Exception):
    """The benchmark itself could not run."""


def child(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    command = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        done = subprocess.run(command, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{' '.join(args[:3])} did not finish within {timeout:.0f} s") from exc
    if done.returncode != 0:
        raise BenchError(f"{' '.join(args[:3])} exited {done.returncode}: {done.stderr.strip()[-800:]}")
    return done


def layer_metrics(raw: dict) -> dict[str, float]:
    """Per-layer values, each the mean over traced passes of its per-pass sum."""
    traced = raw["traced"]
    keys = set().union(*traced) - {"times"}
    mean = {key: statistics.fmean(p.get(key, 0) for p in traced) for key in keys}
    calls, hits = mean.pop("relations.resolve_calls", 0), mean.pop("relations.resolve_hits", 0)
    out = {key: mean.get(key, 0.0) for key in LAYER_UNITS}
    out["relations.resolve_hit_ratio"] = hits / calls if calls else 0.0
    slots = mean.get("exactlin.dense_slots", 0)
    out["exactlin.nnz_ratio"] = mean.get("exactlin.nnz", 0) / slots if slots else 0.0
    traced_wall = pass_seconds([p["times"] for p in traced])
    out["trace.overhead_frac"] = traced_wall / pass_seconds(raw["passes"]) - 1
    out["trace.absent"] = len(raw["absent"])
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    started = perf_counter()
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch))
    common = ["--workload", name, "--seed", str(seed), "--work", str(workdir)]
    try:
        setups, references = [], []
        for _ in range(0 if trace else SETUP_SAMPLES):
            start = perf_counter()
            child(["setup", *common], timeout=60)
            setups.append(perf_counter() - start)
            references += [calibrate.reference() for _ in range(3)]
        remaining = DEADLINE_S - (perf_counter() - started)
        done = child(
            ["measure", *common, "--seconds", str(seconds), "--trace", str(int(trace))],
            timeout=remaining,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    raw = json.loads(done.stdout.strip().splitlines()[-1])
    raw["setup"] = setups
    raw["setup_references"] = references
    return raw


def scale(references: list[float]) -> float:
    """Factor that takes times measured now to the reference speed."""
    return calibrate.REFERENCE_S / statistics.median(references)


def end_to_end(name: str, raw: dict) -> dict[str, float]:
    """Times scaled to the reference speed (see calibrate.py), and peak RSS."""
    key = workloads.WORKLOADS[name].key
    run_scale = scale(raw["references"])
    return {
        "pass_s": pass_seconds(raw["passes"]) * run_scale,
        "key_cmd_s": statistics.median(raw["samples"][key]) * run_scale,
        "setup_s": statistics.median(raw["setup"]) * scale(raw["setup_references"]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def describe(name: str, raw: dict, trace: bool) -> list[str]:
    attempted, failed = raw["attempted"], raw["failed"]
    lines = [
        f"workload {name}: {len(raw['passes']) + len(raw['traced'])} passes "
        f"({len(raw['traced'])} traced), {attempted} commands, {failed} failed",
        f"  ops_failed_frac        {failed / attempted:.4f} (of {attempted} commands)",
    ]
    lines += [f"  error: {message}" for message in raw["errors"]]
    run_scale = scale(raw["references"])
    lines.append(
        f"  host speed             reference {statistics.median(raw['references']) * 1000:.2f} ms "
        f"(median of {len(raw['references'])}); times below x{run_scale:.3f}, measured in ()"
    )
    if not trace:
        metrics = end_to_end(name, raw)
        lines += [
            f"  setup_s                {metrics['setup_s']:.4f} s "
            f"({statistics.median(raw['setup']):.4f}; median of {len(raw['setup'])} interpreters)",
            f"  pass_s                 {metrics['pass_s']:.4f} s "
            f"({pass_seconds(raw['passes']):.4f}; command medians over {len(raw['passes'])} passes)",
            f"  peak_rss_mb            {raw['peak_rss_mb']:.1f} MB (child process)",
        ]
    key = workloads.WORKLOADS[name].key
    for label, samples in sorted(raw["samples"].items()):
        median = statistics.median(samples)
        marker = "   = key_cmd_s" if label == key else ""
        lines.append(
            f"  {label + '_s':<22} {median * run_scale:.4f} s ({median:.4f}; median of {len(samples)}){marker}"
        )
    if trace:
        for path in raw["absent"]:
            lines.append(f"  trace: {path} is absent")
        for path in raw["broken_counters"]:
            lines.append(f"  trace: counter on {path} unavailable")
    return lines


def describe_layers(metrics: dict[str, float]) -> list[str]:
    lines = [f"  {key:<34} {value:.6g} {LAYER_UNITS[key]}" for key, value in metrics.items()]
    covered = sum(v for k, v in metrics.items() if k.endswith("_s") and not k.startswith("trace."))
    lines.append(
        f"  self times incl. uncovered cli.self_s: {covered:.6f} s; traced pass: {metrics['trace.pass_s']:.6f} s"
    )
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description="splitalg benchmark")
    parser.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "splitalg" / "cli.py").is_file():
        print(f"error: no program to measure at {ROOT / 'src' / 'splitalg'}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            raw = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 2
        metrics = layer_metrics(raw) if args.trace else end_to_end(name, raw)
        print("\n".join(describe(name, raw, bool(args.trace))))
        if args.trace:
            print("\n".join(describe_layers(metrics)))
        results[name] = (raw, metrics)
        sys.stdout.flush()

    units = LAYER_UNITS if args.trace else END_TO_END_UNITS
    prefix = len(names) > 1
    summary = {
        "correct": all(raw["failed"] == 0 for raw, _ in results.values()),
        "attempted": sum(raw["attempted"] for raw, _ in results.values()),
        "failed": sum(raw["failed"] for raw, _ in results.values()),
        "metrics": {
            (f"{name}.{key}" if prefix else key): {"value": value, "unit": units[key]}
            for name, (_, metrics) in results.items()
            for key, value in metrics.items()
        },
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
