"""The paired-run summary of ``tools/bench_pairs.py`` reproduces the
figures recorded in ``BENCH_8.json`` from that file's own runs."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

RECORDED = json.loads((ROOT / "BENCH_8.json").read_text())
CASES = [
    (workload, metric)
    for workload, record in RECORDED["workloads"].items()
    for metric in record["metrics"]
]


@pytest.mark.parametrize("workload,metric", CASES)
def test_compare_reproduces_the_recorded_summary(workload, metric):
    recorded = dict(RECORDED["workloads"][workload]["metrics"][metric])
    summary = bench_pairs.compare(
        recorded["parent"]["runs"], recorded["change"]["runs"], recorded["unit"], recorded["bound"]
    )
    # the recorded runs are rounded to 5 decimals, which moves the ratio of
    # a 0.025 s median by up to 4e-4
    ratio = summary.pop("change_over_parent")
    assert ratio == pytest.approx(recorded.pop("change_over_parent"), rel=1e-3)
    assert flat(summary) == pytest.approx(flat(recorded), abs=2e-5)


def flat(value, path=""):
    """Nested dicts and lists as one {path: leaf} dict, for approx."""
    if isinstance(value, dict):
        return {k: v for key, item in value.items() for k, v in flat(item, f"{path}/{key}").items()}
    if isinstance(value, list):
        return {k: v for n, item in enumerate(value) for k, v in flat(item, f"{path}/{n}").items()}
    return {path: value}


def with_pass_s(record, **changes):
    """``record`` with some fields of its ``pass_s`` summary replaced."""
    metrics = dict(record["metrics"], pass_s=dict(record["metrics"]["pass_s"], **changes))
    return dict(record, metrics=metrics)


def test_claim_needs_nine_tenths_of_the_pairs_and_a_gap_beyond_the_parent_iqr():
    record = RECORDED["workloads"]["ennea_chain3"]
    gain = record["metrics"]["pass_s"]
    assert bench_pairs.claim_met(record, "pass_s") is RECORDED["claim"]["met"] is True
    assert not bench_pairs.claim_met(with_pass_s(record, change_better_pairs=8), "pass_s")
    assert not bench_pairs.claim_met(
        with_pass_s(record, median_gain=gain["parent_iqr"]), "pass_s"
    )
    for workload, other in RECORDED["workloads"].items():
        if workload != "ennea_chain3":
            assert not bench_pairs.claim_met(other, "pass_s")


def test_claim_fails_when_the_change_fails_a_larger_share_of_commands():
    record = RECORDED["workloads"]["ennea_chain3"]
    attempted = {side: [1000] * record["pairs"] for side in bench_pairs.SIDES}

    def failing(parent, change):
        failed = {"parent": [parent] + [0] * 9, "change": [change] + [0] * 9}
        return dict(record, commands_attempted=attempted, commands_failed=failed)

    assert not bench_pairs.claim_met(failing(0, 1), "pass_s")
    assert not bench_pairs.claim_met(failing(2, 3), "pass_s")
    assert bench_pairs.claim_met(failing(3, 3), "pass_s")
    assert bench_pairs.claim_met(failing(1, 0), "pass_s")
    # the change runs more commands in the same time, so equal shares hold
    # more failures in total
    more = dict(failing(1, 2), commands_attempted={"parent": [1000] * 10, "change": [2000] * 10})
    assert bench_pairs.claim_met(more, "pass_s")


RECORDED_9 = json.loads((ROOT / "BENCH_9.json").read_text())


def raw_runs(recorded: dict) -> dict:
    """The per-run input of ``summarize`` rebuilt from a BENCH file's summary."""
    raw = {}
    for workload, record in recorded["workloads"].items():
        runs = {
            side: [
                {
                    "metrics": {
                        name: {"value": result[side]["runs"][n], "unit": result["unit"]}
                        for name, result in record["metrics"].items()
                    },
                    "attempted": record["commands_attempted"][side][n],
                    "failed": record["commands_failed"][side][n],
                }
                for n in range(record["pairs"])
            ]
            for side in bench_pairs.SIDES
        }
        raw[workload] = {"seeds": record["seeds"], "first": record["first_in_pair"], "runs": runs}
    return raw


@pytest.mark.parametrize("recorded", [RECORDED, RECORDED_9], ids=["BENCH_8", "BENCH_9"])
def test_summarize_gives_a_verdict_per_metric_and_workload(recorded):
    bounds = {
        name: result["bound"]
        for name, result in next(iter(recorded["workloads"].values()))["metrics"].items()
    }
    summary = bench_pairs.summarize(raw_runs(recorded), bounds)
    verdicts = {workload: record["verdicts"] for workload, record in summary.items()}
    expected = {
        workload: dict.fromkeys(bounds, "within_bound") for workload in recorded["workloads"]
    }
    if recorded is RECORDED_9:
        # the change's key_cmd_s quartiles on deform_chain2 lie 0.0053 s
        # apart, above the 25 % bound (0.0052 s), and its runs overlap the
        # parent's
        expected["deform_chain2"]["key_cmd_s"] = "unresolved"
    assert verdicts == expected


def test_verdict_worse_unresolved_and_within_bound():
    def verdict(parent, change, bound=0.25):
        return bench_pairs.verdict(bench_pairs.compare(parent, change, "s", bound))

    steady = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    assert verdict(steady, steady) == "within_bound"
    assert verdict(steady, [v * 1.24 for v in steady]) == "within_bound"
    assert verdict(steady, [v * 1.26 for v in steady]) == "worse"
    wide = [0.6, 1.4] * 5
    assert verdict(steady, wide) == "unresolved"
    assert verdict(wide, steady) == "unresolved"
    # a spread wider than the bound is resolved when every run of the
    # change beats every run of the parent
    assert verdict(wide, [0.5] * 10) == "within_bound"
    assert verdict([v + 1 for v in wide], wide) == "within_bound"
