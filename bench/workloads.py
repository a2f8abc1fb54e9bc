"""The benchmark's three workloads: seeded inputs, calls, and their checks.

A workload is built by ``prepare(seed, workdir)``: it generates every input
from the seed alone, tabulates it, writes any truth-table files under
``workdir`` and returns a :class:`Workload`.  Its ``rounds`` are fixed call
lists that the runner cycles through; each :class:`Call` runs one top-level
library call or one ``cli.main`` invocation, and checks that call's output
against brute force afterwards.

Calls look library functions up through their module at call time, so the
tracer's wrappers see the top-level call as well.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

import qjunta
from qjunta import boolfn, cli

from check import Truth, check_category, check_cli, check_scan, check_verdict

SHOTS_SMALL = 1024
SHOTS_CLI = 4096


@dataclass(frozen=True)
class Call:
    """One top-level call; ``key`` describes its inputs in full."""

    key: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    rounds: list[list[Call]]
    warmup: Call
    files: dict[str, str]

    def describe(self) -> bytes:
        """Every input as bytes: equal seeds must give equal bytes."""
        keys = [call.key for calls in self.rounds for call in calls]
        files = [f"{name}\n{text}" for name, text in sorted(self.files.items())]
        return "\n".join(keys + files).encode("ascii")


class CliRun(NamedTuple):
    code: int
    stdout: str


def run_cli(argv: list[str]) -> CliRun:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return CliRun(code, buffer.getvalue())


def _table(n: int, code: int) -> boolfn.TruthTable:
    return boolfn.TruthTable(n, (code >> np.arange(1 << n)) & 1)


def _anf_text(terms) -> str:
    keys = sorted(tuple(sorted(int(i) for i in t)) for t in terms)
    return " ^ ".join("1" if not t else "&".join(f"x{i}" for i in t) for t in keys) or "0"


# --- exhaustive_small ----------------------------------------------------------

N4_PER_PATTERN = 8
N4_SAMPLED_PER_PATTERN = 3


def _n4_tables(rng: np.random.Generator) -> list[boolfn.TruthTable]:
    """Eight seeded n = 4 tables for each of the 16 sets of variables on
    which the linearity gate fires (``f(0) != f(e_i)``), so every seed gives
    the same number of circuits and of early exits."""
    tables = []
    for pattern in range(16):
        codes: set[int] = set()
        while len(codes) < N4_PER_PATTERN:
            bits = rng.integers(0, 2, size=16)
            for i in range(4):
                bits[1 << i] = bits[0] ^ ((pattern >> i) & 1)
            codes.add(int(bits @ (1 << np.arange(16))))
        tables += [_table(4, code) for code in sorted(codes)]
    return tables


def _small_calls(form, truth: Truth, label: str, shots: int | None, seeds) -> list[Call]:
    n = truth.n
    mode = "exact" if shots is None else "sampled"
    calls = [
        Call(
            f"junta_variable_test {label} i={i} {mode} seed={seeds[i]}",
            lambda i=i: qjunta.junta_variable_test(form, n, i, mode=mode, shots=shots, seed=seeds[i]),
            lambda v, i=i: check_verdict(v, truth, i, shots),
        )
        for i in range(n)
    ]
    calls.append(Call(
        f"categorize {label} {mode} seed={seeds[n]}",
        lambda: qjunta.categorize(form, n, mode=mode, shots=shots, seed=seeds[n]),
        lambda c: check_category(c, truth, shots),
    ))
    return calls


def exhaustive_small(seed: int, workdir: Path) -> Workload:
    """Every function of n = 1..3 and 128 seeded n = 4 tables, as truth
    tables and as ANF, all exact; then 48 of the n = 4 tables sampled."""
    rng = np.random.default_rng([seed, 1])
    n4 = _n4_tables(rng)
    tables = [_table(n, code) for n in (1, 2, 3) for code in range(1 << (1 << n))] + n4

    calls: list[Call] = []
    for table in tables:
        truth = Truth(table)
        bits = "".join(map(str, table.bits))
        anf = boolfn.anf_from_truth_table(table)
        none = [None] * (table.n + 1)
        calls += _small_calls(table, truth, f"tt n={table.n} {bits}", None, none)
        calls += _small_calls(anf, truth, f"anf n={table.n} {boolfn.format_anf(anf)}", None, none)
    for start in range(0, len(n4), N4_PER_PATTERN):
        for table in n4[start:start + N4_SAMPLED_PER_PATTERN]:
            seeds = [int(s) for s in rng.integers(0, 2**31, size=table.n + 1)]
            calls += _small_calls(table, Truth(table), f"tt n=4 {''.join(map(str, table.bits))}",
                                  SHOTS_SMALL, seeds)
    warm = _small_calls(tables[-1], Truth(tables[-1]), "warm-up", None, [None] * 5)[0]
    return Workload("exhaustive_small", [calls], warm, {})


# --- scan_wide -------------------------------------------------------------------

SCAN_N = 16
SCAN_FUNCTIONS = 4


def _scan_terms(rng: np.random.Generator) -> set[frozenset[int]]:
    """One junta variable, one product term of degree 2..4 whose variables
    all but one also appear linearly, and linear-only terms for the rest.

    The linearity gate exits early on every variable with a linear term, so
    a scan runs exactly two circuits: the junta variable's and the product
    term's remaining variable's.  Two circuits per call keep calls short
    enough to interleave the machine-speed reference between them.
    """
    order = [int(i) for i in rng.permutation(SCAN_N)]
    product = order[1:1 + int(rng.integers(2, 5))]
    terms = {frozenset(product)} | {frozenset([i]) for i in order[1:] if i != product[0]}
    if rng.integers(2):
        terms.add(frozenset())
    return terms


def scan_wide(seed: int, workdir: Path) -> Workload:
    """``junta_scan`` at n = 16 on seeded sparse ANFs (see ``_scan_terms``);
    one scan per round, four functions in turn."""
    rng = np.random.default_rng([seed, 2])
    rounds = []
    for _ in range(SCAN_FUNCTIONS):
        text = _anf_text(_scan_terms(rng))
        f = boolfn.parse_anf(text, SCAN_N)
        truth = Truth(boolfn.to_truth_table(f))
        rounds.append([Call(
            f"junta_scan n={SCAN_N} {text}",
            lambda f=f: qjunta.junta_scan(f, SCAN_N),
            lambda verdicts, truth=truth: check_scan(verdicts, truth),
        )])
    # Warm up on one circuit of the last function, half a scan.
    i = next(i for i in range(SCAN_N) if frozenset([i]) not in f.terms)
    warm = Call(
        "warm-up",
        lambda: qjunta.junta_variable_test(f, SCAN_N, i),
        lambda v: check_verdict(v, truth, i),
    )
    return Workload("scan_wide", rounds, warm, {})


# --- learn_cli -------------------------------------------------------------------

CLI_SIZES = (10, 11, 12)
# Five terms of each degree 1..4: parsing and tabulating cost the same for
# every seed.  The probed variable sits in a cubic term and in no linear or
# quadratic one, so its derivative has no linear term and the same-term
# sweep always runs 1 + n circuits.  The learned term is cubic with lowest
# variable x2, so learn-term always runs 3 + 1 + n circuits.
CLI_TERMS_PER_DEGREE = 5
LEARN_DEGREE, LEARN_LOWEST = 3, 2
# Per size: three heavy calls (two same-term, one learn-term), three middle
# ones (categorize, count-solutions) and three light ones (influence).  The
# heavy ones at n = 10 still outlast the middle ones at n = 12, so the median
# call of a round is an n = 11 categorize, not a cluster boundary.


def _cli_terms(rng: np.random.Generator, n: int, var: int) -> set[frozenset[int]]:
    others = [j for j in range(n) if j != var]
    terms = {frozenset([var, *(int(i) for i in rng.choice(others, size=2, replace=False))])}
    for degree in (1, 2, 3, 4):
        while sum(len(t) == degree for t in terms) < CLI_TERMS_PER_DEGREE:
            term = frozenset(int(i) for i in rng.choice(n, size=degree, replace=False))
            if degree > 2 or var not in term:
                terms.add(term)
    return terms


def learn_cli(seed: int, workdir: Path) -> Workload:
    """In-process ``cli.main`` with JSON output at n = 10..12: same-term,
    learn-term, categorize, count-solutions and influence, on ANF text and
    on truth-table files, part of it sampled."""
    rng = np.random.default_rng([seed, 3])
    calls: list[Call] = []
    files: dict[str, str] = {}
    for n in CLI_SIZES:
        var = int(rng.integers(n))
        text = _anf_text(_cli_terms(rng, n, var))
        table = boolfn.to_truth_table(boolfn.parse_anf(text, n))
        truth = Truth(table)
        path = workdir / f"f{n}.tt"
        files[path.name] = boolfn.format_truth_table(table)
        path.write_text(files[path.name], encoding="ascii")
        anf = ["--anf", text, "--n", str(n)]
        tt = ["--truth-table", str(path)]
        other = int(rng.integers(n))
        above = rng.choice(np.arange(LEARN_LOWEST + 1, n), size=LEARN_DEGREE - 1, replace=False)
        planted = frozenset([LEARN_LOWEST, *(int(i) for i in above)])
        constant = int(rng.integers(2))
        term_text = _anf_text([planted] + ([frozenset()] if constant else []))
        term_truth = Truth(boolfn.to_truth_table(boolfn.parse_anf(term_text, n)))
        seeds = [int(s) for s in rng.integers(0, 2**31, size=2)]

        def cli_call(command, source, truth, var=None, seed=None, term=None):
            argv = [command, *source, "--output", "json"]
            if var is not None:
                argv += ["--var", str(var)]
            shots = None
            if seed is not None:
                argv += ["--mode", "sample", "--shots", str(SHOTS_CLI), "--seed", str(seed)]
                shots = SHOTS_CLI
            return Call(
                " ".join(argv).replace(str(workdir), "<workdir>"),
                lambda: run_cli(argv),
                lambda run: check_cli(run, command, truth, var=var, shots=shots, term=term),
            )

        calls += [
            cli_call("same-term", anf, truth, var=var),
            cli_call("learn-term", ["--anf", term_text, "--n", str(n)], term_truth, term=(planted, constant)),
            cli_call("categorize", tt, truth),
            cli_call("count-solutions", anf, truth),
            cli_call("influence", tt, truth, var=var),
            cli_call("influence", anf, truth, var=other),
            cli_call("influence", tt, truth, var=other),
            cli_call("categorize", anf, truth, seed=seeds[0]),
            cli_call("same-term", tt, truth, var=var, seed=seeds[1]),
        ]
    warm = calls[2]
    return Workload("learn_cli", [calls], warm, files)


WORKLOADS = {w.__name__: w for w in (exhaustive_small, scan_wide, learn_cli)}
