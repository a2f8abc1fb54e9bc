"""Tests of the benchmark itself: seeded inputs, the checker, the span maths.

Run from the repository root with ``python3 -m pytest bench -q``.
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import qjunta  # noqa: E402
from qjunta.junta import Verdict  # noqa: E402

from check import Truth, check_category, check_verdict  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, CliRun, exhaustive_small, learn_cli  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_fixes_inputs(name, tmp_path):
    dirs = [tmp_path / d for d in "abc"]
    for d in dirs:
        d.mkdir()
    first = WORKLOADS[name](7, dirs[0]).describe()
    assert WORKLOADS[name](7, dirs[1]).describe() == first
    assert WORKLOADS[name](8, dirs[2]).describe() != first


def _find(workload, prefix, contains=""):
    return next(call for calls in workload.rounds for call in calls
                if call.key.startswith(prefix) and contains in call.key)


def test_checker_flags_wrong_library_results(tmp_path):
    workload = exhaustive_small(3, tmp_path)
    table = qjunta.TruthTable(2, [0, 0, 0, 1])  # x0 & x1: both variables relevant
    truth = Truth(table)
    good = qjunta.junta_variable_test(table, 2, 0)
    assert check_verdict(good, truth, 0) == []
    assert check_verdict(dataclasses.replace(good, verdict=Verdict.JUNTA), truth, 0)
    assert check_verdict(dataclasses.replace(good, p1=good.p1 / 2), truth, 0)
    assert check_verdict(dataclasses.replace(good, oracle_calls_quantum=2), truth, 0)

    category = qjunta.categorize(table, 2)
    assert check_category(category, truth) == []
    assert check_category(dataclasses.replace(category, m_candidates=(2, 2)), truth)

    call = _find(workload, "junta_variable_test tt n=4", " sampled ")
    out = call.run()
    assert call.check(out) == []
    assert call.check(dataclasses.replace(out, ones=out.ones + 1))


def _tamper(run: CliRun, path: tuple[str, ...], change) -> CliRun:
    report = json.loads(run.stdout)
    node = report
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = change(node[path[-1]])
    return run._replace(stdout=json.dumps(report))


def test_checker_flags_wrong_cli_reports(tmp_path):
    workload = learn_cli(3, tmp_path)
    influence = _find(workload, "influence --truth-table")
    run = influence.run()
    assert influence.check(run) == []
    assert influence.check(_tamper(run, ("result", "nu1"), lambda v: v + 1))
    assert influence.check(_tamper(run, ("oracle_calls", "classical"), lambda v: v - 1))
    assert influence.check(run._replace(stdout=run.stdout.replace('"nu0"', '"nu_0"')))  # schema
    assert influence.check(run._replace(code=1))

    categorize = _find(workload, "categorize --truth-table")
    run = categorize.run()
    assert categorize.check(run) == []
    assert categorize.check(_tamper(run, ("result", "m_low"), lambda v: v + 1))


def test_self_times_add_up_to_each_root(tmp_path):
    workload = exhaustive_small(3, tmp_path)
    calls = workload.rounds[0][::97]
    original = qjunta.junta_variable_test
    tracer = Tracer()
    tracer.install()
    try:
        assert qjunta.junta_variable_test is not original
        for call in calls:
            with tracer.root("bench.call"):
                out = call.run()
            assert call.check(out) == []
    finally:
        tracer.uninstall()
    assert qjunta.junta_variable_test is original

    spans = tracer.arrays()
    self_s = tracer.self_times()
    parent = spans["parent"]
    roots = [i for i in range(len(parent)) if parent[i] < 0]
    assert len(roots) == len(calls)
    root_of = parent.copy()
    for i in range(len(parent)):
        root_of[i] = i if parent[i] < 0 else root_of[parent[i]]  # parents precede children
        if parent[i] >= 0:
            assert spans["start"][parent[i]] <= spans["start"][i] <= spans["end"][i] <= spans["end"][parent[i]]
    for root in roots:
        members = root_of == root
        assert members.sum() > 1
        assert self_s[members].sum() == pytest.approx(spans["end"][root] - spans["start"][root], abs=1e-9)
        assert self_s[root] >= 0  # the untraced remainder
