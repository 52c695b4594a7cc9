"""Level construction, height, and rendering of syntactic trees."""

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    ast_depth,
    chain_strategy,
    reference_fold_levels,
    reference_levels,
    sentence_strategy,
)
from qct.lang import (
    FALSITY,
    Atom,
    Neg,
    SqrtNeg,
    atomic_complexity,
    atoms_of,
    children,
    parse,
    pretty_step,
)
from qct.qtree import _width_and_gate
from qct.syntree import build_tree, render_tree

P, Q = Atom("p"), Atom("q")


def test_worked_example_levels():
    tree = build_tree(parse("p and not p"))
    assert tree.levels == (
        (parse("p and not p"),),
        (P, Neg(P), FALSITY),
        (P, P, FALSITY),
    )
    assert tree.height == 3
    assert tree.height == 3


def test_atomic_sentence_is_its_own_tree():
    tree = build_tree(P)
    assert tree.levels == ((P,),)
    assert tree.height == 1


def test_second_worked_example_height_and_levels():
    tree = build_tree(parse("not p and (q and snot p)"))
    assert tree.height == 4
    assert tree.levels[-1] == (P, Q, P, FALSITY, FALSITY)
    assert tree.levels[2] == (P, Q, SqrtNeg(P), FALSITY, FALSITY)


def test_atomic_nodes_ride_down_unchanged():
    tree = build_tree(parse("p and not p"))
    # p and f are already atomic at level 2 and persist into level 3
    assert tree.levels[1][0] == tree.levels[2][0]
    assert tree.levels[1][2] == tree.levels[2][2]


def test_render_tree_lines():
    text = render_tree(build_tree(parse("p and not p")))
    assert text.splitlines() == [
        "Level 1: (p and not p)",
        "Level 2: (p, not p, f)",
        "Level 3: (p, p, f)",
    ]


@given(sentence_strategy())
def test_tree_invariants(s):
    tree = build_tree(s)
    assert tree.levels[0] == (s,)
    assert all(not children(node) for node in tree.levels[-1])
    assert tree.levels[-1] == atoms_of(s)
    for level in tree.levels[:-1]:
        assert any(children(node) for node in level)


@given(sentence_strategy())
def test_height_bounds(s):
    tree = build_tree(s)
    assert (tree.height == 1) == (not children(s))
    assert tree.height <= 1 + ast_depth(s)


@given(sentence_strategy())
def test_every_level_preserves_atomic_complexity(s):
    tree = build_tree(s)
    n = atomic_complexity(s)
    for level in tree.levels:
        assert sum(atomic_complexity(node) for node in level) == n


@settings(max_examples=30, deadline=None)
@given(
    st.one_of(
        sentence_strategy(max_leaves=30),
        chain_strategy(max_terms=300),
        st.sampled_from([P, FALSITY]),
    )
)
def test_levels_and_folds_match_the_node_by_node_reference(s):
    tree = build_tree(s)
    levels = reference_levels(s)
    assert tree.levels == levels
    assert atoms_of(s) == levels[-1]
    assert tree.inner == tuple(
        tuple(i for i, node in enumerate(level) if children(node)) for level in levels
    )
    for combine in (pretty_step, _width_and_gate):
        assert tree.fold_levels(combine) == reference_fold_levels(levels, combine)
