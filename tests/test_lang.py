"""Parser, desugaring, printer, and atomic-structure accounting."""

import pytest
from hypothesis import given

from helpers import sentence_strategy
from qct.errors import ParseError, ReservedName
from qct.lang import (
    FALSITY,
    Atom,
    Conj3,
    Neg,
    SqrtNeg,
    ast_text,
    atom_names,
    atomic_complexity,
    atoms_of,
    conj,
    disj,
    parse,
    pretty,
    sentence_to_json,
)

P, Q, R = Atom("p"), Atom("q"), Atom("r")


def test_parse_conjunction_desugars_to_ternary():
    assert parse("p and not p") == Conj3(P, Neg(P), FALSITY)


def test_parse_disjunction_desugars_via_de_morgan():
    assert parse("p or q") == Neg(Conj3(Neg(P), Neg(Q), FALSITY))


def test_parse_worked_example():
    assert parse("not p and (q and snot p)") == Conj3(
        Neg(P), Conj3(Q, SqrtNeg(P), FALSITY), FALSITY
    )


def test_unary_binds_tighter_than_and():
    assert parse("not p and q") == conj(Neg(P), Q)
    assert parse("snot p and q") == conj(SqrtNeg(P), Q)


def test_and_binds_tighter_than_or():
    assert parse("p and q or r") == disj(conj(P, Q), R)
    assert parse("p or q and r") == disj(P, conj(Q, R))


def test_binary_connectives_associate_left():
    assert parse("p and q and r") == conj(conj(P, Q), R)
    assert parse("p or q or r") == disj(disj(P, Q), R)


def test_parse_falsity_and_nested_unary():
    assert parse("f") == FALSITY
    assert parse("not not p") == Neg(Neg(P))
    assert parse("snot not f") == SqrtNeg(Neg(FALSITY))


def test_parse_whitespace_and_parens():
    assert parse("  ( p )  ") == P
    assert parse("((p and q))") == conj(P, Q)


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse("p and")
    assert err.value.position == 5
    assert "syntax error at offset 5" in str(err.value)

    with pytest.raises(ParseError) as err:
        parse("p q")
    assert err.value.position == 2

    with pytest.raises(ParseError) as err:
        parse("(p")
    assert err.value.position == 2

    with pytest.raises(ParseError) as err:
        parse(")")
    assert err.value.position == 0

    with pytest.raises(ParseError) as err:
        parse("p AND q")
    assert err.value.position == 2

    with pytest.raises(ParseError):
        parse("")

    with pytest.raises(ParseError):
        parse("p and and q")


def test_atom_name_validation():
    with pytest.raises(ReservedName):
        Atom("f")
    with pytest.raises(ReservedName):
        Atom("and")
    with pytest.raises(ValueError):
        Atom("P")
    with pytest.raises(ValueError):
        Atom("1p")
    with pytest.raises(ValueError):
        Atom("")
    assert Atom("p_2").name == "p_2"


def test_conj3_third_slot_is_falsity():
    with pytest.raises(ValueError):
        Conj3(P, Q, R)
    assert Conj3(P, Q).third == FALSITY


def test_atomic_complexity_counts_occurrences():
    assert atomic_complexity(parse("p and not p")) == 3
    assert atomic_complexity(P) == 1
    assert atomic_complexity(parse("not p and (q and snot p)")) == 5
    assert atomic_complexity(parse("p or q")) == 3


def test_atoms_of_orders_leaves_left_to_right():
    s = parse("not p and (q and snot p)")
    assert atoms_of(s) == (P, Q, P, FALSITY, FALSITY)
    assert atoms_of(FALSITY) == (FALSITY,)
    assert atom_names(s) == {"p", "q"}
    assert atom_names(FALSITY) == set()


def test_pretty_uses_minimal_parens():
    assert pretty(parse("not (p and q)")) == "not (p and q)"
    assert pretty(parse("p and (q and r)")) == "p and (q and r)"
    assert pretty(parse("(p and q) and r")) == "p and q and r"
    assert pretty(parse("not not p")) == "not not p"
    assert pretty(FALSITY) == "f"
    # disjunctions print in their desugared form
    assert pretty(parse("p or q")) == "not (not p and not q)"


def test_ast_text_rendering():
    assert ast_text(parse("p and not p")) == "Conj3(p, Neg(p), f)"
    assert ast_text(parse("snot f")) == "SqrtNeg(f)"


@given(sentence_strategy())
def test_pretty_parse_round_trip(s):
    assert parse(pretty(s)) == s


@given(sentence_strategy())
def test_atomic_complexity_matches_leaf_count(s):
    assert atomic_complexity(s) == len(atoms_of(s))


def test_sentence_json_round_trip():
    # all five node kinds; the third slot of a conjunction is always f and is left out
    assert sentence_to_json(parse("not p and snot f")) == {
        "kind": "and",
        "left": {"kind": "not", "body": {"kind": "atom", "name": "p"}},
        "right": {"kind": "snot", "body": {"kind": "falsity"}},
    }
