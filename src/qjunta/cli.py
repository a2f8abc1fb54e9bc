"""Command-line front end.

Subcommands map one-to-one onto the library: ``test-junta``, ``same-term``,
``categorize`` (alias ``count-solutions``), ``influence``, ``learn-term``.
Functions are given either as an ANF expression (``--anf "x0&x1 ^ x2" --n 3``)
or as a truth-table file (``--truth-table PATH``; line 1 is n, line 2 the 2^n
bits).

Reports are printed to stdout as flat ``key: value`` text or as JSON
(``--output json``); both carry identical numeric values, rounded to 10
significant digits.  Runs with the same arguments and seed are byte
identical; wall time is only included when ``--timing`` is given so that
reproducibility holds by default.

Exit codes: 0 success, 1 input parse or file error, 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from typing import Union

from . import boolfn, learner
from .boolfn import AnfFunction, TruthTable
from .junta import JuntaVerdict, junta_variable_test
from .learner import CategoryVerdict
from .qsim import PRNG_NAME


def _round10(x: float) -> float:
    """Canonical numeric precision for reports: 10 significant digits."""
    return float(f"{x:.10g}")


def _maybe_round(x):
    return _round10(x) if isinstance(x, float) else x


def _digest(kind: str, n: int, canonical: str) -> str:
    payload = f"{kind}\nn={n}\n{canonical}\n".encode("ascii")
    return "sha256:" + hashlib.sha256(payload).hexdigest()


def _load_function(args, parser) -> tuple[Union[AnfFunction, TruthTable], int, dict]:
    if (args.anf is None) == (args.truth_table is None):
        parser.error("give exactly one of --anf and --truth-table")
    if args.anf is not None:
        if args.n is None:
            parser.error("--anf requires --n")
        f = boolfn.parse_anf(args.anf, args.n)
        canonical = boolfn.format_anf(f)
        info = {
            "kind": "anf",
            "n": args.n,
            "source": args.anf,
            "canonical": canonical,
            "digest": _digest("anf", args.n, canonical),
        }
        return f, args.n, info
    with open(args.truth_table, "r", encoding="ascii") as handle:
        table = boolfn.parse_truth_table(handle.read())
    if args.n is not None and args.n != table.n:
        raise ValueError(f"--n {args.n} does not match the file's n={table.n}")
    row = "".join("1" if b else "0" for b in table.bits)
    info = {
        "kind": "truth-table",
        "n": table.n,
        "source": args.truth_table,
        "canonical": None,
        "digest": _digest("table", table.n, row),
    }
    return table, table.n, info


def _verdict_payload(v: JuntaVerdict) -> dict:
    return {
        "verdict": v.verdict.value,
        "variable": v.variable,
        "p1": _maybe_round(v.p1),
        "c_effective": _maybe_round(v.c_effective),
        "c_wootters": _maybe_round(v.c_wootters),
        "constant_term_present": v.constant_term_present,
        "zeros": v.zeros,
        "ones": v.ones,
    }


def _category_payload(v: CategoryVerdict) -> dict:
    return {
        "category": v.category.value,
        "p1": _round10(v.p1),
        "c_effective": _round10(v.c_effective),
        "c_wootters": _round10(v.c_wootters),
        "m_low": v.m_candidates[0],
        "m_high": v.m_candidates[1],
        "constant_value": v.constant_value,
        "zeros": v.zeros,
        "ones": v.ones,
        "note": v.note,
    }


def _run_command(args, f, n: int) -> tuple[dict, dict]:
    mode = "sampled" if args.mode == "sample" else "exact"
    shots = args.shots if mode == "sampled" else None
    seed = args.seed if mode == "sampled" else None

    if args.command == "test-junta":
        v = junta_variable_test(f, n, args.var, mode=mode, shots=shots, seed=seed)
        return _verdict_payload(v), {
            "quantum": v.oracle_calls_quantum,
            "classical": v.oracle_calls_classical,
        }

    if args.command == "same-term":
        result = learner.same_term_variables(f, n, args.var, mode=mode, shots=shots, seed=seed)
        payload = {
            "variable": result.variable,
            "members": sorted(result.members),
            "initial": _verdict_payload(result.initial_verdict),
            "per_variable": {
                str(t): _verdict_payload(result.per_variable[t])
                for t in sorted(result.per_variable)
            },
        }
        return payload, {
            "quantum": result.oracle_calls_quantum,
            "classical": result.oracle_calls_classical,
        }

    if args.command in ("categorize", "count-solutions"):
        verdict = learner.categorize(f, n, mode=mode, shots=shots, seed=seed)
        return _category_payload(verdict), {
            "quantum": verdict.oracle_calls_quantum,
            "classical": verdict.oracle_calls_classical,
        }

    if args.command == "influence":
        report = boolfn.influence_report(f, args.var)
        return {
            "variable": args.var,
            "nu0": report.nu0,
            "nu1": report.nu1,
            "influence": _round10(report.influence),
            "c_effective": _round10(report.c_effective),
        }, {"quantum": 0, "classical": 1 << n}

    if args.command == "learn-term":
        learned = learner.learn_single_term(f, n, mode=mode, shots=shots, seed=seed)
        return {
            "term": sorted(learned.term) if learned.term is not None else None,
            "constant_value": learned.constant_value,
            "constant_term_present": learned.constant_term_present,
            "note": learned.note,
        }, {
            "quantum": learned.oracle_calls_quantum,
            "classical": learned.oracle_calls_classical,
        }

    raise AssertionError(f"unhandled command {args.command!r}")


def _render_text(report: dict) -> str:
    lines: list[str] = []

    def emit(prefix: str, value):
        if isinstance(value, dict):
            for key, item in value.items():
                emit(f"{prefix}.{key}" if prefix else str(key), item)
        elif isinstance(value, list):
            lines.append(f"{prefix}: {' '.join(str(v) for v in value) if value else '(none)'}")
        elif value is None:
            lines.append(f"{prefix}: n/a")
        else:
            lines.append(f"{prefix}: {value}")

    emit("", report)
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qjunta",
        description="Entanglement-based junta testing, learning and categorization of Boolean functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--anf", help="function as an ANF expression, e.g. 'x0&x1 ^ x2'")
    common.add_argument("--n", type=int, help="variable count (required with --anf)")
    common.add_argument("--truth-table", help="path to a truth-table file (line 1: n, line 2: 2^n bits)")
    common.add_argument("--mode", choices=("exact", "sample"), default="exact",
                        help="exact amplitudes or finite-shot sampling (default: exact)")
    common.add_argument("--shots", type=int, default=4096,
                        help="shots per measured qubit in sample mode (default: 4096)")
    common.add_argument("--seed", type=int, help="PRNG seed; required in sample mode")
    common.add_argument("--output", choices=("text", "json"), default="text",
                        help="report format (default: text)")
    common.add_argument("--dump-table", metavar="PATH",
                        help="also write the function's truth table to PATH")
    common.add_argument("--timing", action="store_true",
                        help="include wall time in the report (off by default, for reproducible output)")

    var = argparse.ArgumentParser(add_help=False)
    var.add_argument("--var", type=int, required=True, help="index of the variable under test")

    sub.add_parser("test-junta", parents=[common, var],
                   help="test one variable for the junta property")
    sub.add_parser("same-term", parents=[common, var],
                   help="find the variables sharing a product term with --var")
    sub.add_parser("categorize", parents=[common], aliases=["count-solutions"],
                   help="classify the function as constant, balanced, or other, "
                        "and recover the candidate satisfying-input counts")
    sub.add_parser("influence", parents=[common, var],
                   help="brute-force influence report for one variable")
    sub.add_parser("learn-term", parents=[common],
                   help="learn a function promised to be a single product term")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.mode == "sample" and args.seed is None:
        parser.error("--mode sample requires --seed")
    if args.mode == "sample" and args.shots < 1:
        parser.error("--shots must be >= 1")

    started = time.perf_counter()
    try:
        f, n, info = _load_function(args, parser)
        if args.dump_table:
            table = f if isinstance(f, TruthTable) else boolfn.to_truth_table(f)
            with open(args.dump_table, "w", encoding="ascii") as handle:
                handle.write(boolfn.format_truth_table(table))
        result, calls = _run_command(args, f, n)
    except (ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    sampled = args.mode == "sample"
    report = {
        "command": args.command,
        "input": info,
        "mode": "sampled" if sampled else "exact",
        "shots": args.shots if sampled else None,
        "seed": args.seed if sampled else None,
        "prng": PRNG_NAME if sampled else None,
        "result": result,
        "oracle_calls": calls,
    }
    if args.timing:
        report["wall_time_s"] = _round10(time.perf_counter() - started)

    if args.output == "json":
        sys.stdout.write(json.dumps(report, indent=2) + "\n")
    else:
        sys.stdout.write(_render_text(report))
    return 0


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
