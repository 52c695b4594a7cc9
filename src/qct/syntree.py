"""Level-by-level decomposition of a sentence.

The tree of a sentence is the sequence of levels obtained by repeatedly
unfolding every node one connective deep: an atomic node reproduces
itself, a negation (plain or square root) exposes its body, and a
ternary conjunction exposes its three components.  Unfolding stops at
the first all-atomic level, which lists the sentence's atomic
occurrences in order.  Height counts the levels, root included.

An atomic node above the last level is carried down every level below
it, so a chain of k conjunctions has O(k^2) nodes but only O(k)
non-atomic ones.  The tree records where its non-atomic nodes sit, and
both building the levels and folding over them copy the carried atoms
as slices, so their Python-level work is per non-atomic node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, TypeVar

from .lang import Sentence, atoms_of, children, pretty_step

R = TypeVar("R")


@dataclass(frozen=True)
class SyntacticTree:
    """Levels from the root down; levels[0] is the one-node root level.

    inner[i] lists the positions in levels[i] of its non-atomic nodes,
    in order; inner[-1] is empty.  Built by `build_tree` only.
    """

    levels: tuple[tuple[Sentence, ...], ...]
    inner: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)

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
        unchanged, as the same object.
        """
        below = [combine(leaf, ()) for leaf in self.levels[-1]]
        out = [below]
        for level, inner in zip(reversed(self.levels[:-1]), reversed(self.inner[:-1])):
            values: list[R] = []
            i = j = 0  # next position in level, and in below
            for p in inner:
                values += below[j : j + p - i]  # the atoms carried past
                j += p - i
                node = level[p]
                k = len(children(node))
                values.append(combine(node, tuple(below[j : j + k])))
                i, j = p + 1, j + k
            values += below[j:]
            out.append(values)
            below = values
        out.reverse()
        return out


def build_tree(s: Sentence) -> SyntacticTree:
    """Unfold s level by level until every node is atomic."""
    levels = [(s,)]
    inner = []
    nodes = (0,) if children(s) else ()
    while nodes:
        inner.append(nodes)
        level, nxt, nxt_nodes, i = levels[-1], [], [], 0
        for p in nodes:
            nxt += level[i:p]  # the atoms carried down
            for kid in children(level[p]):
                if children(kid):
                    nxt_nodes.append(len(nxt))
                nxt.append(kid)
            i = p + 1
        nxt += level[i:]
        levels.append(tuple(nxt))
        nodes = tuple(nxt_nodes)
    inner.append(())
    tree = SyntacticTree(tuple(levels), tuple(inner))
    assert tree.levels[-1] == atoms_of(s)
    return tree


def render_tree(tree: SyntacticTree) -> str:
    """One line per level, root first, nodes pretty-printed."""
    return "\n".join(
        f"Level {i}: ({', '.join(level)})"
        for i, level in enumerate(tree.fold_levels(pretty_step), start=1)
    )
