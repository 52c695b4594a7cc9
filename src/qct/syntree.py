"""Level-by-level decomposition of a sentence.

The tree of a sentence is the sequence of levels obtained by repeatedly
unfolding every node one connective deep: an atomic node reproduces
itself, a negation (plain or square root) exposes its body, and a
ternary conjunction exposes its three components.  Unfolding stops at
the first all-atomic level, which lists the sentence's atomic
occurrences in order.  Height counts the levels, root included.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, TypeVar

from .lang import Sentence, atoms_of, children, pretty_step

R = TypeVar("R")


@dataclass(frozen=True)
class SyntacticTree:
    """Levels from the root down; levels[0] is the one-node root level."""

    levels: tuple[tuple[Sentence, ...], ...]

    @property
    def height(self) -> int:
        return len(self.levels)

    @property
    def root(self) -> Sentence:
        return self.levels[0][0]

    def fold_levels(self, combine: Callable[[Sentence, tuple], R]) -> list[list[R]]:
        """A value for every node of every level, root level first.

        Values are computed bottom-up, each node's once from the values
        of its children on the level below: combine(node, parts).  An
        atomic node above the last level carries its value down
        unchanged.
        """
        below = [combine(leaf, ()) for leaf in self.levels[-1]]
        out = [below]
        for level in reversed(self.levels[:-1]):
            values, i = [], 0
            for node in level:
                k = len(children(node))
                values.append(combine(node, tuple(below[i : i + k])) if k else below[i])
                i += k or 1
            out.append(values)
            below = values
        out.reverse()
        return out


def build_tree(s: Sentence) -> SyntacticTree:
    """Unfold s level by level until every node is atomic."""
    levels = [(s,)]
    while any(map(children, levels[-1])):
        levels.append(tuple(kid for node in levels[-1] for kid in children(node) or (node,)))
    tree = SyntacticTree(tuple(levels))
    assert tree.levels[-1] == atoms_of(s)
    return tree


def render_tree(tree: SyntacticTree) -> str:
    """One line per level, root first, nodes pretty-printed."""
    return "\n".join(
        f"Level {i}: ({', '.join(level)})"
        for i, level in enumerate(tree.fold_levels(pretty_step), start=1)
    )
