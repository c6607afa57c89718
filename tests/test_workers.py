"""A structure's identities shared out over forked workers.

``exactlin.first_nested_differences`` forks when ``exactlin._worker_count``
says so.  Each test either forces that count (serial: 1; forked: 3, more
workers than this host's cores) or checks the conditions the count reads.
Whatever the path, the reports must be the serial ones exactly, and no
worker may outlive its check.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from splitalg import exactlin
from splitalg.bialgebra import EpsilonBialgebra, ennea_on_end
from splitalg.cli import main
from splitalg.exactlin import Tensor3, combine
from splitalg.graphalg import WeightedDigraph, chain_coproduct, path_algebra
from splitalg.jsonio import load, operations_from_json, operations_to_json, report_to_json, save
from splitalg.relations import NINE_OP_SYSTEM, THREE_OP_SYSTEM, Structure, check_system
from splitalg.unit_action import check_unit_compatibility
from test_unit_action import PERTURBED, genuine_ops, perturbed_case, random_rules, region

F = Fraction


def force_workers(monkeypatch, workers: int) -> None:
    monkeypatch.setattr(exactlin, "_worker_count", lambda dim, identities: min(workers, identities))


def assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture()
def forks(monkeypatch):
    """The pids of every worker forked while the test runs."""
    pids = []
    real = os.fork

    def counted():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


@pytest.fixture(scope="module")
def chain_files(tmp_path_factory):
    """Envelopes of End(A) for the 2- and 3-vertex chains (dim 9 and 36),
    and of a copy of the 3-vertex one with one structure constant moved."""
    root = tmp_path_factory.mktemp("chains")
    paths = {}
    for vertices, weights in ((2, [2]), (3, [2, -3])):
        arcs = [(a, a + 1, w) for a, w in enumerate(weights)]
        pa = path_algebra(WeightedDigraph.build(vertices, arcs))
        bial = EpsilonBialgebra(pa.algebra, chain_coproduct(pa), F(-1))
        paths[vertices] = str(root / f"end{vertices}.json")
        save(paths[vertices], operations_to_json(ennea_on_end(bial)))
    data = load(paths[3])
    i, j, k, c = data["ops"]["nw"][0]
    data["ops"]["nw"][0] = [i, j, k, str(F(c) + 1)]
    paths["bent"] = str(root / "bent3.json")
    save(paths["bent"], data)
    return paths


def end3(chain_files) -> Structure:
    return operations_from_json(load(chain_files[3]))


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- the same answer from both paths -----------------------------------------


@pytest.mark.parametrize(
    "verb,file,code",
    [
        ("ennea", 3, 0),
        ("ennea", "bent", 1),
        ("unit-action", 3, 0),
        ("unit-action", "bent", 1),
        ("coherence", 2, 0),
    ],
)
def test_forked_commands_print_the_serial_reports(
    monkeypatch, capsys, forks, chain_files, verb, file, code
):
    argv = ["verify", verb, "--file", chain_files[file], "--json"]
    force_workers(monkeypatch, 1)
    serial = run(capsys, argv)
    assert not forks
    force_workers(monkeypatch, 3)
    forked = run(capsys, argv)
    assert len(forks) == 2
    assert forked == serial
    assert serial[0] == code and serial[2] == ""
    assert_no_child_left()


def bumped(ops, gen, i, j, k, delta):
    dim = ops[gen].dim
    bump = Tensor3.from_sparse(dim, [(i, j, k, delta)])
    return dict(ops, **{gen: combine(dim, [(1, ops[gen]), (1, bump)])})


@st.composite
def drawn_case(draw):
    """(structure, rules): a genuine nine- or three-op structure of dim 3,
    or the one of dim 1 beside a zero direction (dim 2), at a drawn t; one
    drawn structure constant bumped or not; the standard rule table or a
    seeded one, which may fail on a face."""
    system = draw(st.sampled_from((NINE_OP_SYSTEM, THREE_OP_SYSTEM)))
    t = draw(st.sampled_from((F(-1), F(-2, 3), F(1), F(2))))
    dim = draw(st.sampled_from((2, 3)))
    ops = genuine_ops(system, 2 if dim == 3 else 1, t)
    if dim == 2:
        ops = {gen: Tensor3.from_numerators(2, op.denom, op.numerators) for gen, op in ops.items()}
    if draw(st.booleans()):
        index = st.integers(0, dim - 1)
        delta = draw(st.sampled_from((F(1), F(-5, 6))))
        gen = draw(st.sampled_from(system.generators))
        ops = bumped(ops, gen, draw(index), draw(index), draw(index), delta)
    seed = draw(st.none() | st.integers(0, 5))
    if seed is not None:
        rules = random_rules(seed, system)
    elif system is NINE_OP_SYSTEM:
        rules = oracles.NINE_OP_RULES
    else:
        rules = {gen: (F(gen == "prec"), F(gen == "succ")) for gen in system.generators}
    return Structure(system, t, ops), rules


def both_reports(s, rules):
    return [report_to_json(check_system(s)), report_to_json(check_unit_compatibility(s, rules))]


@settings(max_examples=30, derandomize=True, deadline=None)
@given(drawn_case())
def test_drawn_structures_get_the_serial_reports_from_forked_workers(case):
    s, rules = case
    with pytest.MonkeyPatch.context() as mp:
        force_workers(mp, 1)
        serial = both_reports(s, rules)
        force_workers(mp, 3)
        forked = both_reports(s, rules)
    assert forked == serial
    assert_no_child_left()


@pytest.mark.parametrize("where", [(), (0,)], ids=["interior", "face x=1"])
def test_perturbed_structures_fail_in_their_region_on_both_paths(monkeypatch, forks, where):
    (spec,) = [spec for at, *spec in PERTURBED if at == where and spec[0] is NINE_OP_SYSTEM]
    system, rules, t, ops = perturbed_case(*spec)
    s = Structure(system, t, ops)
    force_workers(monkeypatch, 1)
    serial = both_reports(s, rules)
    force_workers(monkeypatch, 3)
    forked = both_reports(s, rules)
    assert forks and forked == serial
    assert where in {region(tuple(w["args"])) for w in serial[1]["witnesses"]}


# -- when a check forks --------------------------------------------------------


def test_a_large_structure_forks_on_every_usable_cpu_and_a_small_one_never(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    assert exactlin._worker_count(36, 49) == 4
    assert exactlin._worker_count(36, 3) == 3
    assert exactlin._worker_count(9, 49) == 1


def test_without_sched_getaffinity_the_cpu_count_is_read(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert exactlin._worker_count(36, 49) == 3


def refuse_fork():
    raise AssertionError("os.fork was called")


def test_a_live_thread_keeps_the_check_serial(monkeypatch, chain_files):
    expected = report_to_json(check_system(end3(chain_files)))
    monkeypatch.setattr(os, "fork", refuse_fork)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert exactlin._worker_count(36, 49) == 1
        assert report_to_json(check_system(end3(chain_files))) == expected
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_one_usable_cpu_keeps_the_check_serial(monkeypatch, chain_files):
    expected = report_to_json(check_system(end3(chain_files)))
    monkeypatch.setattr(os, "fork", refuse_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert exactlin._worker_count(36, 49) == 1
    assert report_to_json(check_system(end3(chain_files))) == expected


def test_a_missing_fork_keeps_the_check_serial(monkeypatch, chain_files):
    expected = report_to_json(check_system(end3(chain_files)))
    monkeypatch.delattr(os, "fork")
    assert exactlin._worker_count(36, 49) == 1
    assert report_to_json(check_system(end3(chain_files))) == expected


# -- failures --------------------------------------------------------------------


def in_workers(monkeypatch, action):
    """Replace the per-identity kernel by ``action`` in forked workers."""
    parent = os.getpid()
    real = exactlin._first_difference

    def kernel(*args):
        if os.getpid() != parent:
            action()
        return real(*args)

    monkeypatch.setattr(exactlin, "_first_difference", kernel)


def kernel_error():
    raise ValueError("kernel failed in a worker")


def test_a_worker_that_raises_makes_the_check_raise(monkeypatch, forks, chain_files):
    force_workers(monkeypatch, 3)
    in_workers(monkeypatch, kernel_error)
    with pytest.raises(ValueError, match="kernel failed in a worker"):
        check_system(end3(chain_files))
    assert len(forks) == 2
    assert_no_child_left()


def test_a_worker_that_raises_is_one_error_line_and_exit_2(monkeypatch, capsys, forks, chain_files):
    in_workers(monkeypatch, kernel_error)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    code, out, err = run(capsys, ["verify", "ennea", "--file", chain_files[3]])
    assert forks, "dim 36 with two usable CPUs forks by default"
    assert (code, out, err) == (2, "", "error: kernel failed in a worker\n")
    assert_no_child_left()


def test_a_killed_worker_makes_the_check_raise_never_pass(monkeypatch, forks, chain_files):
    force_workers(monkeypatch, 3)
    in_workers(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
    with pytest.raises(ChildProcessError, match=r"without its results \(exit status -9\)"):
        check_system(end3(chain_files))
    assert len(forks) == 2
    assert_no_child_left()


def test_an_interrupted_check_kills_and_reaps_its_workers(monkeypatch, forks, chain_files):
    """Each worker would sleep for a minute and then end; the interrupt in
    this process's own share ends the check at once, with every worker
    reaped."""
    force_workers(monkeypatch, 3)
    parent = os.getpid()

    def kernel(*args):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)
        os._exit(1)

    monkeypatch.setattr(exactlin, "_first_difference", kernel)
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        check_system(end3(chain_files))
    assert time.perf_counter() - start < 30
    assert len(forks) == 2
    assert_no_child_left()


def test_the_dim_9_check_stays_in_this_process(forks, chain_files, capsys):
    code, out, _ = run(capsys, ["verify", "ennea", "--file", chain_files[2], "--json"])
    assert code == 0 and json.loads(out)["passed"]
    assert not forks
