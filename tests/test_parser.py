import numpy as np
import pytest

import crn
from crn import format_network, parse_network, parse_state
from crn.errors import (
    CrnError,
    DuplicateReactionError,
    NonIntegerCountError,
    NonpositiveRateError,
    ParseError,
    RateArityError,
    SelfLoopError,
    UnknownSpeciesError,
    ZeroCoefficientError,
)

from helpers import random_conservative_reversible_system


def test_parse_intro_network():
    sys = parse_network("A + B <-> 2C : 1, 2\nA <-> B : 3, 4")
    net = sys.network
    assert (net.n, net.m, net.r) == (3, 4, 4)
    kap = {}
    for rxn, k in sys.kappa_map.items():
        src = net.complexes[rxn.source].format(net.species)
        tgt = net.complexes[rxn.target].format(net.species)
        kap[(src, tgt)] = k
    assert kap == {
        ("A + B", "2C"): 1.0,
        ("2C", "A + B"): 2.0,
        ("A", "B"): 3.0,
        ("B", "A"): 4.0,
    }


def test_parse_one_species_chain():
    sys = parse_network("0 <-> A : 6, 11\n2A <-> 3A : 6, 1")
    net = sys.network
    assert (net.n, net.m, net.r) == (1, 4, 4)
    assert [c.coeffs for c in net.complexes] == [(0,), (1,), (2,), (3,)]
    assert sys.kappa == (6.0, 11.0, 6.0, 1.0)


def test_parse_comments_and_whitespace():
    text = "  # header\nA+B<->2C:1,2  # inline\n\n A <-> B : 3 , 4\n"
    assert parse_network(text) == parse_network("A + B <-> 2C : 1, 2\nA <-> B : 3, 4")


def test_parse_empty_input():
    sys = parse_network("  \n# nothing\n")
    assert sys.network.is_empty
    assert crn.is_reversible(sys.network)


def test_parse_errors():
    with pytest.raises(SelfLoopError):
        parse_network("A -> A : 1")
    with pytest.raises(RateArityError):
        parse_network("A -> B : 1, 2")
    with pytest.raises(RateArityError):
        parse_network("A <-> B : 1")
    with pytest.raises(NonpositiveRateError):
        parse_network("A -> B : 0")
    with pytest.raises(ZeroCoefficientError):
        parse_network("0A -> B : 1")
    with pytest.raises(DuplicateReactionError):
        parse_network("A -> B : 1\nA -> B : 2")
    with pytest.raises(DuplicateReactionError):
        parse_network("A <-> B : 1, 2\nB -> A : 3")
    with pytest.raises(ParseError) as err:
        parse_network("A -> : 1")
    assert err.value.line == 1 and err.value.column >= 1


# Every error the reader raises: text, exception type, message, and the
# (line, column) of a ParseError (the network errors name their line in the
# message and carry no span).
PARSE_ERRORS = [
    ("A -> B : x", ParseError, "expected a rate constant", (1, 10)),
    ("A -> B 1", ParseError, "expected ':' before the rate constants", (1, 8)),
    ("A -> B : 1 2", ParseError, "unexpected trailing input", (1, 12)),
    ("A -> B : 1,", ParseError, "unexpected end of line", (1, 12)),
    ("A ->", ParseError, "unexpected end of line", (1, 5)),
    ("A B -> C : 1", ParseError, "expected '->' or '<->'", (1, 3)),
    ("0 0 -> A : 1", ParseError, "expected '->' or '<->'", (1, 3)),
    ("A -> B : 1\n\nC -> $ : 1", ParseError, "unexpected character '$'", (3, 6)),
    ("1.5A -> B : 1", ParseError, "stoichiometric coefficients must be integers", (1, 1)),
    ("2 -> B : 1", ParseError, "expected a species name after the coefficient", (1, 3)),
    ("A + 0 -> B : 1", ParseError, "expected a species name after the coefficient", (1, 7)),
    ("+ -> B : 1", ParseError, "expected a species term", (1, 1)),
    ("A -> : 1", ParseError, "expected a species term", (1, 6)),
    ("A -> B : 1, 2", RateArityError, "-> takes exactly 1 rate constant(s), got 2", (1, 3)),
    ("A <-> B : 1", RateArityError, "<-> takes exactly 2 rate constant(s), got 1", (1, 3)),
    ("A -> B : 0", NonpositiveRateError, "rate constant must be positive, got 0", (1, 10)),
    ("A -> B : 1e-400", NonpositiveRateError, "rate constant must be positive, got 1e-400",
     (1, 10)),
    ("0A -> B : 1", ZeroCoefficientError, "explicit zero coefficient on A", (1, 1)),
    # a malformed line is reported before a self-loop on an earlier line
    ("A -> A : 1\nB -> : 1", ParseError, "expected a species term", (2, 6)),
    ("A -> A : 1", SelfLoopError, "line 1: a reaction may not map a complex to itself", None),
    ("A -> B : 1\n\n  2A + B <-> B + A + A : 1, 2", SelfLoopError,
     "line 3: a reaction may not map a complex to itself", None),
    ("A -> B : 1\nA -> B : 2", DuplicateReactionError,
     "line 2: reaction already given on line 1", None),
    ("A <-> B : 1, 2\nB -> A : 3", DuplicateReactionError,
     "line 2: reaction already given on line 1", None),
    ("B -> A : 1\n# c\nA <-> B : 1, 2", DuplicateReactionError,
     "line 3: reaction already given on line 1", None),
    ("A + B -> C : 1\nB + A -> C : 2", DuplicateReactionError,
     "line 2: reaction already given on line 1", None),
]


@pytest.mark.parametrize("text, kind, message, span", PARSE_ERRORS)
def test_parse_error_table(text, kind, message, span):
    with pytest.raises(CrnError) as err:
        parse_network(text)
    assert type(err.value) is kind
    if span is None:
        assert str(err.value) == message
        assert not hasattr(err.value, "line")
    else:
        assert str(err.value) == f"{message} (line {span[0]}, column {span[1]})"
        assert (err.value.line, err.value.column) == span


def test_parse_repeated_species_in_side_sums():
    sys = parse_network("A + A -> B : 1")
    net = sys.network
    assert Complex2A(net) in net.complexes


def Complex2A(net):
    from crn import Complex

    vec = [0] * net.n
    vec[net.species.index("A")] = 2
    return Complex(tuple(vec))


def test_parse_state():
    species = crn.SpeciesTable(("A", "B"))
    assert parse_state("A=1,B=1", species).tolist() == [1.0, 1.0]
    assert parse_state("B=3", species).tolist() == [0.0, 3.0]
    assert parse_state("", species).tolist() == [0.0, 0.0]
    assert parse_state("A=2,B=3", species, discrete=True) == (2, 3)
    assert parse_state("A=-1", species, discrete=True) == (-1, 0)
    for text in ("A=1.5", "A=1e400", "B=-1e400"):
        with pytest.raises(NonIntegerCountError):
            parse_state(text, species, discrete=True)
    with pytest.raises(UnknownSpeciesError):
        parse_state("Z=1", species)
    with pytest.raises(ParseError):
        parse_state("A=1,A=2", species)


def test_parse_state_reads_integer_counts_exactly():
    # an integer literal is read as an int, past 2**53 too; other integral
    # texts still go through float
    species = crn.SpeciesTable(("A", "B"))
    for count in (2**53 + 1, 9223372036854775000, 2**63 - 1, 10**30, -(2**63) - 7):
        assert parse_state(f"A={count}", species, discrete=True) == (count, 0)
    assert parse_state("A=+9007199254740993", species, discrete=True) == (2**53 + 1, 0)
    assert parse_state("A=2.0,B=1e3", species, discrete=True) == (2, 1000)
    assert parse_state("A=9007199254740993", species).tolist() == [2.0**53, 0.0]
    for text, got in (("A=1.5", "1.5"), ("A=1e400", "inf"), ("B=-1e400", "-inf")):
        with pytest.raises(NonIntegerCountError, match=f"must be an integer, got {got}$"):
            parse_state(text, species, discrete=True)


def test_format_simple():
    assert format_network(parse_network("A -> B : 2")) == "A -> B : 2"
    assert format_network(parse_network("")) == ""


def test_round_trip_intro():
    sys = parse_network("A + B <-> 2C : 1, 2\nA <-> B : 3, 4")
    assert parse_network(format_network(sys)) == sys


def test_round_trip_fractional_rates():
    sys = parse_network("0 <-> A : 0.5, 1\n2A <-> 3A : 1, 3")
    assert parse_network(format_network(sys)) == sys


def test_round_trip_random_systems():
    rng = np.random.default_rng(11)
    for _ in range(40):
        sys = random_conservative_reversible_system(rng)
        text = format_network(sys)
        assert parse_network(text) == sys


def test_fuzz_never_crashes():
    rng = np.random.default_rng(5)
    alphabet = list("AB012 +-<>:,.#\ne")
    for _ in range(300):
        size = int(rng.integers(0, 40))
        chars = rng.choice(alphabet, size=size)
        text = "".join(chars)
        try:
            parse_network(text)
        except CrnError as exc:
            assert str(exc)
