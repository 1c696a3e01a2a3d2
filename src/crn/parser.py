"""Text DSL for mass-action systems, plus state parsing and pretty-printing.

Grammar (whitespace-insensitive; ``#`` starts a comment to end of line;
files use the ``.crn`` extension, UTF-8)::

    file     := line*
    line     := side arrow side ':' rate (',' rate)?
    arrow    := '->' | '<->'
    side     := '0' | term ('+' term)*
    term     := [integer] ident        # omitted integer means 1; integer >= 1
    rate     := positive decimal literal

``->`` takes exactly one rate constant, ``<->`` exactly two (forward then
backward) and expands to two directed reactions.  ``0`` denotes the empty
complex, so it is illegal as a species name; an explicit zero coefficient
(``0A``) is an error.

The species table of a parsed system is sorted by name.  That makes the
canonical printer a true inverse: ``parse_network(format_network(s)) == s``
for every system whose species table is name-sorted, regardless of how the
lines were ordered in the original text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    DuplicateReactionError,
    NonIntegerCountError,
    NonpositiveRateError,
    ParseError,
    RateArityError,
    SelfLoopError,
    UnknownSpeciesError,
    ZeroCoefficientError,
)
from .model import (
    Complex,
    MassActionSystem,
    Reaction,
    SpeciesTable,
    build_network,
)

__all__ = ["parse_network", "parse_state", "format_network"]


_TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<ARROW2><->)
  | (?P<ARROW>->)
  | (?P<PLUS>\+)
  | (?P<COLON>:)
  | (?P<COMMA>,)
  | (?P<NUMBER>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    column: int  # 1-based, on the line being parsed


def _tokenize(line: str, lineno: int) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(line):
        match = _TOKEN_RE.match(line, pos)
        if match is None:
            raise ParseError(f"unexpected character {line[pos]!r}", lineno, pos + 1)
        kind = match.lastgroup
        if kind != "WS":
            tokens.append(_Token(kind, match.group(), pos + 1))
        pos = match.end()
    return tokens


class _LineParser:
    def __init__(self, tokens: list[_Token], lineno: int):
        self.tokens = tokens
        self.lineno = lineno
        self.pos = 0

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> _Token:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1]
            raise ParseError("unexpected end of line", self.lineno, last.column + len(last.text))
        self.pos += 1
        return tok

    def error(self, message: str, tok: _Token):
        raise ParseError(message, self.lineno, tok.column)

    def parse_side(self) -> dict[str, int]:
        coeffs: dict[str, int] = {}
        first = self.peek()
        if first is not None and first.kind == "NUMBER" and first.text == "0":
            after = self.tokens[self.pos + 1] if self.pos + 1 < len(self.tokens) else None
            if after is None or after.kind not in ("IDENT",):
                self.next()
                return coeffs
        while True:
            tok = self.next()
            coeff = 1
            if tok.kind == "NUMBER":
                if not tok.text.isdigit():
                    self.error("stoichiometric coefficients must be integers", tok)
                coeff = int(tok.text)
                ident = self.next()
                if ident.kind != "IDENT":
                    self.error("expected a species name after the coefficient", ident)
                if coeff == 0:
                    raise ZeroCoefficientError(
                        f"explicit zero coefficient on {ident.text}", self.lineno, tok.column
                    )
                name = ident.text
            elif tok.kind == "IDENT":
                name = tok.text
            else:
                self.error("expected a species term", tok)
            coeffs[name] = coeffs.get(name, 0) + coeff
            nxt = self.peek()
            if nxt is not None and nxt.kind == "PLUS":
                self.next()
                continue
            return coeffs

    def parse_rate(self) -> float:
        tok = self.next()
        if tok.kind != "NUMBER":
            self.error("expected a rate constant", tok)
        value = float(tok.text)
        if not value > 0:
            raise NonpositiveRateError(
                f"rate constant must be positive, got {tok.text}", self.lineno, tok.column
            )
        return value


def _parse_line(tokens: list[_Token], lineno: int):
    """Returns (lhs coeffs, arrow, rhs coeffs, rates)."""
    parser = _LineParser(tokens, lineno)
    lhs = parser.parse_side()
    arrow_tok = parser.next()
    if arrow_tok.kind not in ("ARROW", "ARROW2"):
        parser.error("expected '->' or '<->'", arrow_tok)
    rhs = parser.parse_side()
    colon = parser.next()
    if colon.kind != "COLON":
        parser.error("expected ':' before the rate constants", colon)
    rates = [parser.parse_rate()]
    while parser.peek() is not None and parser.peek().kind == "COMMA":
        parser.next()
        rates.append(parser.parse_rate())
    trailing = parser.peek()
    if trailing is not None:
        parser.error("unexpected trailing input", trailing)
    expected = 2 if arrow_tok.kind == "ARROW2" else 1
    if len(rates) != expected:
        raise RateArityError(
            f"{arrow_tok.text} takes exactly {expected} rate constant(s), got {len(rates)}",
            lineno,
            arrow_tok.column,
        )
    return lhs, arrow_tok.kind, rhs, rates


def parse_network(text: str) -> MassActionSystem:
    """Parse DSL text into a validated mass-action system."""
    directed: list[tuple[dict[str, int], dict[str, int], float, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        tokens = _tokenize(line, lineno)
        if not tokens:
            continue
        lhs, arrow, rhs, rates = _parse_line(tokens, lineno)
        directed.append((lhs, rhs, rates[0], lineno))
        if arrow == "ARROW2":
            directed.append((rhs, lhs, rates[1], lineno))

    names = sorted({name for lhs, rhs, _, _ in directed for name in (*lhs, *rhs)})

    def vector(coeffs: dict[str, int]) -> tuple[int, ...]:
        return tuple(coeffs.get(name, 0) for name in names)

    # (source, target) coefficient vectors -> (line, rate), in input order
    given: dict[tuple[tuple[int, ...], tuple[int, ...]], tuple[int, float]] = {}
    for lhs, rhs, rate, lineno in directed:
        pair = (vector(lhs), vector(rhs))
        if pair[0] == pair[1]:
            raise SelfLoopError(f"line {lineno}: a reaction may not map a complex to itself")
        if pair in given:
            raise DuplicateReactionError(
                f"line {lineno}: reaction already given on line {given[pair][0]}"
            )
        given[pair] = (lineno, rate)

    # reaction k of the input is the pair of complexes 2k -> 2k + 1
    network = build_network(
        SpeciesTable(tuple(names)),
        [Complex(vec) for pair in given for vec in pair],
        [Reaction(2 * k, 2 * k + 1) for k in range(len(given))],
    )
    index = {cx.coeffs: i for i, cx in enumerate(network.complexes)}
    kappa = [0.0] * network.r
    for (src, tgt), (_, rate) in given.items():
        kappa[network.edge_index[index[src], index[tgt]]] = rate
    return MassActionSystem(network, tuple(kappa))


_STATE_ITEM_RE = re.compile(
    r"\s*(?P<name>[A-Za-z_][A-Za-z0-9_]*)\s*=\s*(?P<value>[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*\Z"
)


def parse_state(text: str, species: SpeciesTable, discrete: bool = False):
    """Parse ``"A=1.5,B=2"`` into a state vector over ``species``.

    Unlisted species default to 0.  With ``discrete=True`` the result is a
    tuple of ints, and fractional and non-finite values are rejected.
    """
    values = {name: 0.0 for name in species.names}
    assigned: set[str] = set()
    text = text.strip()
    items = text.split(",") if text else []
    for idx, item in enumerate(items, start=1):
        match = _STATE_ITEM_RE.match(item)
        if match is None:
            raise ParseError(f"malformed state assignment {item.strip()!r}", 1, idx)
        name = match.group("name")
        if name not in values:
            raise UnknownSpeciesError(f"unknown species {name!r}", 1, idx)
        if name in assigned:
            raise ParseError(f"species {name!r} assigned twice", 1, idx)
        assigned.add(name)
        value = match.group("value")
        values[name] = int(value) if discrete and value.lstrip("+-").isdigit() else float(value)
    if discrete:
        counts = []
        for name in species.names:
            v = values[name]
            if isinstance(v, float) and not (np.isfinite(v) and v == int(v)):
                raise NonIntegerCountError(f"count for {name} must be an integer, got {v}")
            counts.append(int(v))
        return tuple(counts)
    return np.array([values[name] for name in species.names], dtype=float)


def _format_rate(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def format_network(sys: MassActionSystem) -> str:
    """Canonical text for a system; inverse of :func:`parse_network`.

    Reversible pairs are merged into ``<->`` lines (forward direction is the
    lower canonical complex index) and lines are sorted by (source, target).
    """
    net = sys.network
    lines = []
    for k, rxn in enumerate(net.reactions):
        back = net.edge_index.get((rxn.target, rxn.source))
        if back is not None and rxn.source > rxn.target:
            continue  # written with its forward half
        src = net.complexes[rxn.source].format(net.species)
        tgt = net.complexes[rxn.target].format(net.species)
        rate = _format_rate(sys.kappa[k])
        if back is None:
            lines.append(f"{src} -> {tgt} : {rate}")
        else:
            lines.append(f"{src} <-> {tgt} : {rate}, {_format_rate(sys.kappa[back])}")
    return "\n".join(lines)
