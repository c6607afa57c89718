"""The benchmark's workloads: seeded inputs, command lists and output checks.

A pass is one workload's full command list; a run repeats passes with fresh
inputs drawn from ``(workload, seed, pass index)``, so the same seed gives
the same inputs.  The program sees only the envelopes written here and the
argv of each command.  Every command's output is checked: exit code,
verdict and witnesses right away, and the expensive independent
recomputations (sympy ranks, witness re-evaluation) after the timed passes.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import oracles

PRESETS = (
    "two_op", "three_op", "four_op", "nine_op", "deformed_two_two",
    "deformed_two_three", "deformed_three_three", "deformed_four_four",
    "deformed_nine_nine",
)
# degree-3 dimensions at t = 1, as published
PUBLISHED_DIM3 = dict(zip(PRESETS, (5, 11, 23, 113, 23, 34, 51, 101, 501)))


def write_json(path: Path, data: dict) -> str:
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return str(path)


def rational(rng: random.Random, top: int, low: int = 2, high: int | None = None) -> Fraction:
    """p/q in lowest terms with 1 <= |p| <= top and low <= q <= high (default top), q > 1."""
    while True:
        q = rng.randint(low, high or top)
        value = Fraction(rng.choice((-1, 1)) * rng.randint(1, top), q)
        if value.denominator == q:
            return value


def report_list(result) -> list[dict]:
    payload = json.loads(result.out)
    if payload.get("kind") == "reports":
        return payload["reports"]
    if payload.get("kind") == "report":
        return [payload]
    raise oracles.Mismatch(f"expected report output, got kind {payload.get('kind')!r}")


def expect_pass(result, count: int = 1) -> list[dict]:
    """Exit 0, ``count`` passing reports and no witnesses; returns the reports."""
    if result.rc != 0:
        raise oracles.Mismatch(f"exit {result.rc}, expected 0; {result.err.strip()[-200:]}")
    reports = report_list(result)
    if len(reports) != count:
        raise oracles.Mismatch(f"{len(reports)} reports, expected {count}")
    for report in reports:
        if not report["passed"] or report["witnesses"]:
            raise oracles.Mismatch(f"report {report['title']!r} failed on valid input")
    return reports


def expect_fail(result) -> dict:
    """Exit 1 with a witness whose two sides differ; returns that witness."""
    if result.rc != 1:
        raise oracles.Mismatch(f"exit {result.rc}, expected 1; {result.err.strip()[-200:]}")
    failed = [r for r in report_list(result) if not r["passed"]]
    if not failed or not failed[0]["witnesses"]:
        raise oracles.Mismatch("failing run reports no witness")
    witness = failed[0]["witnesses"][0]
    if witness["lhs"] == witness["rhs"]:
        raise oracles.Mismatch("witness sides are equal")
    return witness


class Workload:
    name = ""
    key = ""  # the label of the command reported as key_cmd_s

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def rng(self, index: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{index}")

    def path(self, index: int, stem: str) -> Path:
        return self.workdir / f"{stem}_{index}.json"

    def prepare(self, index: int):
        """Write the inputs of pass ``index``; returns what the pass needs."""
        raise NotImplementedError

    def run_pass(self, index: int, session) -> None:
        raise NotImplementedError


class EnneaChain3(Workload):
    """Nine operations on End(A) of a 3-vertex chain (dim A = 6, dim End = 36)."""

    name = "ennea_chain3"
    key = "verify_ennea"

    def prepare(self, index):
        rng = self.rng(index)
        weights = [rng.choice((-1, 1)) * rng.randint(2, 9) for _ in range(2)]
        graph = write_json(self.path(index, "graph"), {
            "kind": "graph",
            "vertices": 3,
            "arcs": [
                {"src": a, "dst": a + 1, "weight": str(w)} for a, w in enumerate(weights)
            ],
        })
        return graph, rng

    def run_pass(self, index, session):
        graph, rng = self.prepare(index)
        good, bad = self.path(index, "ennea"), self.path(index, "ennea_bad")
        presentation = session.presentations["nine_op"]

        result = session.run(
            "construct_end_ennea",
            ["construct", "end-ennea", "--graph", graph, "-o", str(good), "--json"],
        )
        envelope = session.check(result, read_ennea_envelope, result, good)
        if envelope is None:
            return
        picks = [(name, items) for name, items in sorted(envelope["ops"].items()) if items]
        triples = []
        for _ in range(16):
            name, items = rng.choice(picks)
            i, j, _, _ = rng.choice(items)
            triples.append((i, j, rng.randrange(envelope["dim"])))

        result = session.run("verify_ennea", ["verify", "ennea", "--file", str(good), "--json"])
        if session.check(result, expect_pass, result) is not None:
            session.defer(result, check_sampled_identities, good, presentation, triples)

        broken = oracles.perturb(envelope, presentation, rng)
        write_json(bad, broken)
        result = session.run("verify_ennea_fail", ["verify", "ennea", "--file", str(bad), "--json"])
        witness = session.check(result, expect_fail, result)
        if witness is not None:
            session.defer(result, check_ennea_witness, bad, presentation, witness)

        result = session.run(
            "verify_unit_action", ["verify", "unit-action", "--file", str(good), "--json"]
        )
        session.check(result, expect_pass, result)


def read_ennea_envelope(result, path: Path) -> dict:
    if result.rc != 0:
        raise oracles.Mismatch(f"exit {result.rc}; {result.err.strip()[-200:]}")
    envelope = json.loads(path.read_text(encoding="utf-8"))
    if envelope.get("kind") != "operations" or envelope.get("family") != "nine_op":
        raise oracles.Mismatch("construct wrote no nine_op operations envelope")
    if envelope["dim"] != 36 or len(envelope["ops"]) != 9:
        raise oracles.Mismatch(f"dim {envelope['dim']}, {len(envelope['ops'])} ops; expected 36, 9")
    return envelope


def check_sampled_identities(path: Path, presentation: dict, triples) -> None:
    envelope = json.loads(path.read_text(encoding="utf-8"))
    oracles.check_identities_hold(envelope, presentation, triples)


def check_ennea_witness(path: Path, presentation: dict, witness: dict) -> None:
    envelope = json.loads(path.read_text(encoding="utf-8"))
    oracles.check_identity_witness(envelope, presentation, witness)


def triangular_algebra(n: int) -> dict:
    """Upper-triangular n x n matrix units E_ij (i <= j) under composition."""
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    index = {pair: a for a, pair in enumerate(pairs)}
    mult = [
        [index[(i, j)], index[(j, l)], index[(i, l)], "1"]
        for (i, j) in pairs for (jj, l) in pairs if jj == j
    ]
    return {"kind": "algebra", "dim": len(pairs), "mult": sorted(mult)}


def row_collapse_operator(n: int, scale: Fraction) -> dict:
    """E_ij -> scale * E_ii; a (-scale)-Baxter operator on the triangular algebra."""
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    index = {pair: a for a, pair in enumerate(pairs)}
    matrix = [["0"] * len(pairs) for _ in pairs]
    for (i, j), a in index.items():
        matrix[index[(i, i)]][a] = str(scale)
    return {"kind": "operator", "dim": len(pairs), "matrix": matrix}


class DeformChain2(Workload):
    """Many small problems with non-integral data, on 2-vertex chains."""

    name = "deform_chain2"
    key = "deform_check"
    instances = 6
    triangular_n = 5

    def prepare(self, index):
        rng = self.rng(index)
        algebra_data = triangular_algebra(self.triangular_n)
        algebra = write_json(self.workdir / "triangular.json", algebra_data)
        instances = []
        for s in range(self.instances):
            weight, weights2, weight_t = (rational(rng, 9) for _ in range(3))
            taus = [rational(rng, 9) for _ in range(2)]
            graph = write_json(self.path(index, f"graph{s}"), {
                "kind": "graph",
                "vertices": 2,
                "arcs": [{"src": 0, "dst": 1, "weight": str(weight)}],
            })
            operator_data = row_collapse_operator(self.triangular_n, -weight_t)
            operator = write_json(self.path(index, f"operator{s}"), operator_data)
            instances.append({
                "graph": graph, "weights2": weights2, "taus": taus, "t": weight_t,
                "algebra": algebra, "operator": operator,
                "algebra_data": algebra_data, "operator_data": operator_data,
            })
        return instances

    def run_pass(self, index, session):
        for inst in self.prepare(index):
            graph = inst["graph"]
            result = session.run("graph_bialgebra_chain", [
                "verify", "graph-bialgebra", "--file", graph, "--variant", "chain", "--json",
            ])
            session.check(result, expect_pass, result)
            result = session.run("graph_bialgebra_weighted", [
                "verify", "graph-bialgebra", "--file", graph, "--variant", "weighted",
                f"--weights2={inst['weights2']}", "--json",
            ])
            session.check(result, expect_pass, result, 2)
            taus = "--taus=" + ",".join(str(tau) for tau in inst["taus"])
            for extra in (["--variant", "two_three"],
                          ["--variant", "four_four", f"--weights2={inst['weights2']}"]):
                result = session.run("deform_check", [
                    "deform", "check", "--graph", graph, *extra, "--order", "4", taus, "--json",
                ])
                session.check(result, expect_pass, result, 2 + len(inst["taus"]))

            baxter = ["verify", "baxter", "--algebra", inst["algebra"], "--operator", inst["operator"]]
            data = (inst["algebra_data"], inst["operator_data"])
            result = session.run("verify_baxter", [*baxter, f"--t={inst['t']}", "--json"])
            if session.check(result, expect_pass, result) is not None:
                session.defer(result, oracles.check_baxter_holds, *data, inst["t"])
            result = session.run("verify_baxter_fail", [*baxter, f"--t={inst['t'] + 1}", "--json"])
            witness = session.check(result, expect_fail, result)
            if witness is not None:
                session.defer(result, oracles.check_baxter_witness, *data, inst["t"] + 1, witness)


class Dim3Sweep(Workload):
    """Degree-3 dimensions of all nine presets at t = 0, 1 and seeded rationals."""

    name = "dim3_sweep"
    key = "dim3_nine_nine"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.exact: dict[tuple[str, Fraction], int] = {}  # sympy results by (preset, t)

    def prepare(self, index):
        rng = self.rng(index)
        # three one-digit and three two-digit denominators in every pass, so
        # the cost of a pass does not swing with the draw
        seeded = [rational(rng, 99, 2, 9) for _ in range(3)]
        seeded += [rational(rng, 99, 10, 99) for _ in range(3)]
        return [Fraction(0), Fraction(1), *seeded]

    def run_pass(self, index, session):
        for t in self.prepare(index):
            for preset in PRESETS:
                label = "dim3_nine_nine" if preset == "deformed_nine_nine" else "dim3"
                result = session.run(label, [
                    "operad", "dim3", "--preset", preset, f"--t={t}", "--json",
                ])
                presentation = session.presentations[preset]
                value = session.check(result, read_dim3, result, presentation["name"], t)
                if value is not None:
                    session.defer(result, self.check_dim3, presentation, preset, t, value)

    def check_dim3(self, presentation: dict, preset: str, t: Fraction, value: int) -> None:
        if (preset, t) not in self.exact:
            self.exact[preset, t] = oracles.dim3(presentation, t)
        exact = self.exact[preset, t]
        if value != exact:
            raise oracles.Mismatch(f"{preset} at t={t}: dim3 {value}, sympy rank gives {exact}")
        if t == 1 and value != PUBLISHED_DIM3[preset]:
            raise oracles.Mismatch(f"{preset} at t=1: dim3 {value}, published {PUBLISHED_DIM3[preset]}")


def read_dim3(result, system: str, t: Fraction) -> int:
    if result.rc != 0:
        raise oracles.Mismatch(f"exit {result.rc}; {result.err.strip()[-200:]}")
    data = json.loads(result.out)
    if data.get("kind") != "degree3" or data["system"] != system or Fraction(data["t"]) != t:
        raise oracles.Mismatch(f"unexpected degree3 output header for {system} at t={t}")
    if data["dim3"] != data["monomials"] - data["rank"]:
        raise oracles.Mismatch("dim3 is not monomials - rank")
    return data["dim3"]


WORKLOADS = {cls.name: cls for cls in (EnneaChain3, DeformChain2, Dim3Sweep)}
