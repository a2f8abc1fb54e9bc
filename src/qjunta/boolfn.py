"""Boolean functions as XOR-of-products expressions and dense truth tables.

Every map f: {0,1}^n -> {0,1} is handled in two interchangeable forms:

* :class:`AnfFunction` -- an exclusive-or of AND product terms (algebraic
  normal form, also known as positive-polarity Reed-Muller form).
* :class:`TruthTable` -- a dense array of all 2^n output bits.

Bit convention, used consistently across the whole package: the input index
``l`` encodes variable ``x_i`` as bit ``i`` of ``l``, so ``x0`` is the least
significant bit.

The exhaustive analyses in this module (influence counts, derivative
supports, ANF extraction) are deliberately brute force over all 2^n inputs;
they are the classical ground truth the circuit-based procedures are checked
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Union

import numpy as np

# Dense 2^n arrays above this are refused; brute-force analysis of larger
# functions is out of scope.
MAX_TABLE_VARS = 24

Evaluator = Union["AnfFunction", "TruthTable", Callable[[int], int]]


class AnfParseError(ValueError):
    """Malformed ANF expression; ``position`` is the offending text offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


@dataclass(frozen=True)
class AnfFunction:
    """Exclusive-or of product terms over ``n`` variables.

    ``terms`` is a frozenset of frozensets of variable indices; the empty
    inner set is the constant-1 term and an empty outer set is the constant-0
    function.  Being a set of sets, the representation is canonical: equal
    term sets mean equal functions.  Use :meth:`from_terms` to build from a
    sequence with possible repeats (pairs cancel mod 2).
    """

    n: int
    terms: frozenset[frozenset[int]]

    def __post_init__(self):
        if self.n <= 0:
            raise ValueError(f"variable count must be positive, got {self.n}")
        canon = frozenset(frozenset(t) for t in self.terms)
        object.__setattr__(self, "terms", canon)
        for term in canon:
            for i in term:
                if not 0 <= i < self.n:
                    raise ValueError(f"variable index {i} out of range for n={self.n}")

    @classmethod
    def from_terms(cls, n: int, terms) -> "AnfFunction":
        """Build from an iterable of terms, cancelling duplicate terms mod 2."""
        acc: set[frozenset[int]] = set()
        for term in terms:
            term = frozenset(term)
            acc.symmetric_difference_update({term})
        return cls(n, frozenset(acc))

    @classmethod
    def constant(cls, n: int, value: int) -> "AnfFunction":
        return cls(n, frozenset([frozenset()]) if value & 1 else frozenset())

    def __str__(self) -> str:
        return format_anf(self)


@dataclass(frozen=True, eq=False)
class TruthTable:
    """All 2^n output bits of a Boolean function, indexed by input ``l``."""

    n: int
    bits: np.ndarray

    def __post_init__(self):
        if not 0 < self.n <= MAX_TABLE_VARS:
            raise ValueError(f"variable count must be in [1, {MAX_TABLE_VARS}], got {self.n}")
        bits = np.asarray(self.bits, dtype=np.uint8)
        if bits.shape != (1 << self.n,):
            raise ValueError(f"expected {1 << self.n} bits for n={self.n}, got shape {bits.shape}")
        if bits.max(initial=0) > 1:
            raise ValueError("truth table entries must be 0 or 1")
        bits = bits.copy()
        bits.setflags(write=False)
        object.__setattr__(self, "bits", bits)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruthTable):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self.bits, other.bits))

    def __hash__(self) -> int:
        return hash((self.n, self.bits.tobytes()))


class InfluenceReport(NamedTuple):
    """Flip counts for one variable: ``nu1`` inputs change the output when
    the variable is toggled, ``nu0`` do not; ``nu0 + nu1 = 2^n``."""

    nu0: int
    nu1: int
    influence: float
    c_effective: float


class LinearityProbe(NamedTuple):
    """Outcome of the two-point probe at inputs 0 and e_i."""

    constant_term_present: int
    linear_term_present: bool


# --- parsing and formatting -------------------------------------------------

def _tokenize(text: str) -> list[tuple[str, int, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
        elif ch in "^&10":
            tokens.append((ch, 0, pos))
            pos += 1
        elif ch == "x":
            end = pos + 1
            while end < len(text) and text[end].isdigit():
                end += 1
            if end == pos + 1:
                raise AnfParseError("expected a decimal index after 'x'", pos)
            tokens.append(("var", int(text[pos + 1 : end]), pos))
            pos = end
        else:
            raise AnfParseError(f"unexpected character {ch!r}", pos)
    return tokens


def parse_anf(text: str, n: int) -> AnfFunction:
    """Parse an ANF expression into a canonical :class:`AnfFunction`.

    Grammar: terms joined by ``^``; each term is ``1``, ``0`` or variables
    ``x<idx>`` joined by ``&``; whitespace is ignored.  ``0`` annihilates its
    term, so the bare expression ``"0"`` is the constant-0 function.
    Duplicate terms cancel mod 2, e.g. ``"1 ^ 1"`` parses to constant 0.

    Raises :class:`AnfParseError` on syntax errors and on variable indices
    outside ``[0, n)``, with the text position of the problem.
    """
    if n <= 0:
        raise ValueError(f"variable count must be positive, got {n}")
    tokens = _tokenize(text)
    if not tokens:
        raise AnfParseError("empty expression", 0)

    terms: list[frozenset[int]] = []
    idx = 0
    while True:
        vanished = False
        variables: set[int] = set()
        while True:
            if idx >= len(tokens):
                raise AnfParseError("expected a variable or constant", len(text))
            kind, value, pos = tokens[idx]
            if kind == "var":
                if value >= n:
                    raise AnfParseError(f"variable x{value} out of range for n={n}", pos)
                variables.add(value)
            elif kind == "0":
                vanished = True
            elif kind != "1":
                raise AnfParseError("expected a variable or constant", pos)
            idx += 1
            if idx < len(tokens) and tokens[idx][0] == "&":
                idx += 1
                continue
            break
        if not vanished:
            terms.append(frozenset(variables))
        if idx >= len(tokens):
            break
        kind, _, pos = tokens[idx]
        if kind != "^":
            raise AnfParseError("expected '^' or '&'", pos)
        idx += 1
    return AnfFunction.from_terms(n, terms)


def format_anf(f: AnfFunction) -> str:
    """Canonical pretty-printer; ``parse_anf(format_anf(f), f.n) == f``."""
    if not f.terms:
        return "0"
    keys = sorted(tuple(sorted(t)) for t in f.terms)
    return " ^ ".join("1" if not t else "&".join(f"x{i}" for i in t) for t in keys)


# --- evaluation --------------------------------------------------------------

def evaluate(f: Evaluator, x: int) -> int:
    """Evaluate ``f`` at input index ``x`` (bit ``i`` of ``x`` is ``x_i``);
    a plain callable is queried once as a black box."""
    if isinstance(f, TruthTable):
        if not 0 <= x < (1 << f.n):
            raise ValueError(f"input {x} out of range for n={f.n}")
        return int(f.bits[x])
    if isinstance(f, AnfFunction):
        if not 0 <= x < (1 << f.n):
            raise ValueError(f"input {x} out of range for n={f.n}")
        out = 0
        for term in f.terms:
            if all((x >> i) & 1 for i in term):
                out ^= 1
        return out
    if callable(f):
        return int(f(x)) & 1
    raise TypeError(f"cannot evaluate object of type {type(f).__name__}")


def function_values(f: Union[Evaluator, np.ndarray], n: int) -> np.ndarray:
    """All 2^n outputs of ``f`` as a read-only uint8 array.

    Accepts an :class:`AnfFunction`, a :class:`TruthTable`, a callable on
    input indices, or an already-computed value array (validated and passed
    through).
    """
    size = 1 << n
    if isinstance(f, TruthTable):
        if f.n != n:
            raise ValueError(f"truth table has n={f.n}, expected {n}")
        return f.bits
    if isinstance(f, AnfFunction):
        if f.n != n:
            raise ValueError(f"function has n={f.n}, expected {n}")
        return to_truth_table(f).bits
    if isinstance(f, np.ndarray):
        if f.shape != (size,):
            raise ValueError(f"value array has shape {f.shape}, expected ({size},)")
        return np.asarray(f, dtype=np.uint8)
    if n > MAX_TABLE_VARS:
        raise ValueError(f"n={n} exceeds the dense-table cap of {MAX_TABLE_VARS}")
    out = np.fromiter((int(f(x)) & 1 for x in range(size)), dtype=np.uint8, count=size)
    out.setflags(write=False)
    return out


def to_truth_table(f: AnfFunction) -> TruthTable:
    """Tabulate ``f`` over all 2^n inputs (refused above n=24)."""
    if f.n > MAX_TABLE_VARS:
        raise ValueError(f"n={f.n} exceeds the dense-table cap of {MAX_TABLE_VARS}")
    size = 1 << f.n
    l = np.arange(size, dtype=np.uint32)
    bits = np.zeros(size, dtype=np.uint8)
    for term in f.terms:
        hit = np.ones(size, dtype=np.uint8)
        for i in term:
            hit &= ((l >> np.uint32(i)) & 1).astype(np.uint8)
        bits ^= hit
    return TruthTable(f.n, bits)


def anf_from_truth_table(table: TruthTable) -> AnfFunction:
    """Exact ANF extraction via the binary Moebius transform."""
    coeffs = table.bits.copy()
    size = coeffs.size
    idx = np.arange(size)
    for k in range(table.n):
        upper = (idx >> k) & 1 == 1
        coeffs[upper] ^= coeffs[idx[upper] ^ (1 << k)]
    terms = [
        frozenset(i for i in range(table.n) if (m >> i) & 1)
        for m in range(size)
        if coeffs[m]
    ]
    return AnfFunction(table.n, frozenset(terms))


# --- algebra ------------------------------------------------------------------

def negate_variable(f: AnfFunction, i: int) -> AnfFunction:
    """Substitute ``x_i := 1 XOR x_i``: each term containing ``i`` expands to
    itself plus the same term with ``i`` removed."""
    if not 0 <= i < f.n:
        raise ValueError(f"variable index {i} out of range for n={f.n}")
    expanded: list[frozenset[int]] = []
    for term in f.terms:
        expanded.append(term)
        if i in term:
            expanded.append(term - {i})
    return AnfFunction.from_terms(f.n, expanded)


def xor_functions(f: AnfFunction, g: AnfFunction) -> AnfFunction:
    """Pointwise XOR; on canonical term sets this is the symmetric difference."""
    if f.n != g.n:
        raise ValueError(f"variable counts differ: {f.n} vs {g.n}")
    return AnfFunction(f.n, f.terms ^ g.terms)


def derivative(f: AnfFunction, i: int) -> AnfFunction:
    """ANF of ``f(x) ^ f(x XOR e_i)``; never contains ``x_i``."""
    return xor_functions(f, negate_variable(f, i))


# --- exhaustive analyses ------------------------------------------------------

def influence_report(f: Union[TruthTable, AnfFunction], i: int) -> InfluenceReport:
    """Count how often toggling ``x_i`` flips the output, over all inputs.

    ``nu1 = #{x : f(x XOR e_i) != f(x)}`` and ``nu0 = 2^n - nu1``; the
    reported ``c_effective`` is ``2*sqrt(nu0*nu1)/2^n``.
    """
    table = f if isinstance(f, TruthTable) else to_truth_table(f)
    if not 0 <= i < table.n:
        raise ValueError(f"variable index {i} out of range for n={table.n}")
    size = table.bits.size
    flipped = table.bits[np.arange(size) ^ (1 << i)]
    nu1 = int(np.count_nonzero(flipped != table.bits))
    nu0 = size - nu1
    return InfluenceReport(
        nu0=nu0,
        nu1=nu1,
        influence=nu1 / size,
        c_effective=2.0 * math.sqrt(nu0 * nu1) / size,
    )


def linearity_probe(f: Evaluator, i: int) -> LinearityProbe:
    """Two classical queries, at 0 and at e_i.

    Under ANF semantics only the constant term and the term {i} survive at
    these two points, so ``linear_term_present`` equals exactly "the term
    {i} is present"; this is a theorem of the representation, not an
    approximation.
    """
    if isinstance(f, (AnfFunction, TruthTable)) and not 0 <= i < f.n:
        raise ValueError(f"variable index {i} out of range for n={f.n}")
    v0 = evaluate(f, 0)
    v1 = evaluate(f, 1 << i)
    return LinearityProbe(constant_term_present=v0, linear_term_present=v0 != v1)


def count_ones(f: TruthTable) -> int:
    """Number of inputs mapped to 1."""
    return int(f.bits.sum())


def same_term_variables_brute(f: AnfFunction, i: int) -> set[int]:
    """Ground-truth partner set for ``x_i``: indices with nonzero influence on
    the :func:`derivative` ``g = f XOR f(.., 1 XOR x_i, ..)``.

    ``g`` collects exactly the decompositions of terms containing ``x_i``, and
    is independent of ``x_i`` itself, so ``i`` never appears in the result.
    """
    table = to_truth_table(derivative(f, i))
    return {j for j in range(f.n) if influence_report(table, j).nu1 > 0}


# --- truth-table text format --------------------------------------------------

def format_truth_table(table: TruthTable) -> str:
    """Two-line text form: decimal n, then 2^n characters from {0,1}."""
    return f"{table.n}\n{''.join('1' if b else '0' for b in table.bits)}\n"


def parse_truth_table(text: str) -> TruthTable:
    """Inverse of :func:`format_truth_table`; trailing newline optional."""
    lines = text.splitlines()
    if len(lines) < 2:
        raise ValueError("truth-table text needs two lines: n, then the bits")
    try:
        n = int(lines[0].strip())
    except ValueError:
        raise ValueError(f"first line must be a decimal variable count, got {lines[0]!r}") from None
    if not 0 < n <= MAX_TABLE_VARS:
        raise ValueError(f"variable count must be in [1, {MAX_TABLE_VARS}], got {n}")
    row = lines[1].strip()
    if len(row) != 1 << n:
        raise ValueError(f"expected {1 << n} bits on line 2, got {len(row)}")
    if set(row) - {"0", "1"}:
        raise ValueError("line 2 may contain only '0' and '1'")
    if any(line.strip() for line in lines[2:]):
        raise ValueError("unexpected content after line 2")
    return TruthTable(n, np.frombuffer(row.encode("ascii"), dtype=np.uint8) - ord("0"))
