"""One child process of the benchmark.

``setup``    start, import the program and write the first pass's inputs;
             the parent times the whole process as one set-up sample.
``measure``  run passes of one workload through ``splitalg.cli.main`` in
             this process, one command at a time, until ``--seconds`` have
             passed; with ``--trace 1`` the first half runs untraced and the
             second half traced.  Peak RSS is read from ``getrusage`` after
             the timed passes and before the independent checks, which may
             import sympy.  Prints one JSON line with the raw samples.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

CHECK_ERRORS = (oracles.Mismatch, ValueError, KeyError, TypeError, IndexError, OSError)


@dataclasses.dataclass
class Result:
    index: int
    label: str
    rc: object
    out: str
    err: str


class Session:
    """A closed-loop client: each command starts after the previous returns."""

    def __init__(self, cli_main, presentations: dict):
        self.cli_main = cli_main
        self.presentations = presentations
        self.tracer: Tracer | None = None
        self.samples: dict[str, list[float]] = {}
        self.pass_times: list[float] = []
        self.attempted = 0
        self.errors: dict[int, str] = {}
        self.deferred: list[tuple[Result, object, tuple]] = []
        self.references: list[float] = []
        self._last_reference = perf_counter()

    def _call(self, argv):
        try:
            return self.cli_main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # counted as a failed command, never fatal
            return f"raised {type(exc).__name__}: {exc}"

    def run(self, label: str, argv: list[str]) -> Result:
        index = self.attempted
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            if self.tracer is None:
                rc = self._call(argv)
            else:
                rc = self.tracer.run_command(index, self._call, argv)
            seconds = perf_counter() - start
        self.samples.setdefault(label, []).append(seconds)
        self.pass_times.append(seconds)
        result = Result(index, label, rc, out.getvalue(), err.getvalue())
        if self.tracer is not None:
            self._count_reports(result)
        self._sample_reference()
        return result

    def _sample_reference(self) -> None:
        """One reference sample per SAMPLE_EVERY_S of wall time, between commands."""
        due = int((perf_counter() - self._last_reference) / calibrate.SAMPLE_EVERY_S)
        for _ in range(min(due, 5)):
            self.references.append(calibrate.reference())
        if due:
            self._last_reference = perf_counter()

    def _count_reports(self, result: Result) -> None:
        try:
            reports = workloads.report_list(result)
        except CHECK_ERRORS:
            return
        counts = self.tracer.counts
        for report in reports:
            counts["report.checks_run"] = counts.get("report.checks_run", 0) + report["checks_run"]
            counts["report.witnesses"] = counts.get("report.witnesses", 0) + len(report["witnesses"])

    def check(self, result: Result, fn, *args):
        """fn(*args), or None with the command marked failed if it raises."""
        try:
            return fn(*args)
        except CHECK_ERRORS as exc:
            self.errors.setdefault(result.index, f"{result.label} #{result.index}: {exc}")
            return None

    def defer(self, result: Result, fn, *args) -> None:
        self.deferred.append((result, fn, args))

    def run_deferred(self) -> None:
        for result, fn, args in self.deferred:
            self.check(result, fn, *args)
        self.deferred.clear()

    def run_pass(self, workload, index: int) -> list[float]:
        """The times of the pass's commands, in order."""
        self.pass_times = []
        workload.run_pass(index, self)
        return self.pass_times


def measure(workload, session: Session, seconds: float, trace: bool) -> dict:
    start = perf_counter()
    index = 0
    passes = []
    while True:
        passes.append(session.run_pass(workload, index))
        index += 1
        if perf_counter() - start >= (seconds / 2 if trace else seconds):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    traced = []
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
        session.tracer = tracer
        try:
            while True:
                times = session.run_pass(workload, index)
                index += 1
                traced.append(dict(tracer.collect(), times=times))
                if perf_counter() - start >= seconds:
                    break
        finally:
            tracer.remove()
            session.tracer = None
    session.run_deferred()
    return {
        "attempted": session.attempted,
        "failed": len(session.errors),
        "errors": sorted(session.errors.values())[:20],
        "samples": session.samples,
        "passes": passes,
        "references": session.references,
        "peak_rss_mb": peak_rss_mb,
        "traced": traced,
        "absent": tracer.absent if tracer else [],
        "broken_counters": sorted(tracer.broken_counters) if tracer else [],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    from splitalg.cli import main as cli_main  # the program

    workload = workloads.WORKLOADS[args.workload](args.seed, args.work)
    if args.mode == "setup":
        workload.prepare(0)
        return 0

    # identity tables as plain data, read once for the independent checks
    from splitalg.jsonio import system_to_json
    from splitalg.operad import builtin_presentations

    presentations = {name: system_to_json(s) for name, s in builtin_presentations().items()}
    session = Session(cli_main, presentations)
    print(json.dumps(measure(workload, session, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
