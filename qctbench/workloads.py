"""Seeded inputs for the two workloads, and the checks each op must pass.

Every sentence is built from a fixed shape: the topology, the connective
at each depth and the depths that carry a unary connective are constants
below.  The seed chooses what the cost does not depend on: the atoms at
the leaves, the model amplitudes and qct's own `--seed`, and, on
compile-large, which child of each binary node comes first and which
unary slots get `not` and which `snot` (from a fixed multiset).  On
eval-refute those two stay fixed, because a state-vector gate's cost
depends on the qubit it targets.  So two seeds give different sentences
of the same size, height and gate count, and per-seed cost stays flat.
`qct` receives only the rendered text and model files.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import oracle

WORKLOADS = ("eval-refute", "compile-large")

# eval-refute: 10 leaves give Atcompl 19, a 2^19 x 16 B = 8 MiB state.
EVAL_LEAVES = 10
EVAL_SENTENCES = 1
# eval-refute: exhausted searches run the whole budget.  At 25 trials the
# median op kind of a round is a search and the evals hold most of its time,
# so op_ms_p50 follows per-trial cost and ops_per_s the gate kernels.
REFUTE_TRIALS = 25
REFUTE_DELTA = 0.1
# compile-large: left-associated `and` chains and balanced trees.
CHAIN_TERMS = (100, 250, 300)
BALANCED_LEAVES = (125, 500)


@dataclass
class Op:
    """One qct invocation and the check its output must pass."""

    label: str
    argv: list[str]
    expect_code: int
    check: Callable[[str], str | None]
    trials: int = 0  # refute only: trials the search runs


# ---------------------------------------------------------------- shapes


def shape(leaves: int, conns: tuple[str, ...], unary_depths: frozenset, depth: int = 0):
    """Balanced topology; ("U", x) marks a unary slot, ("*",) a leaf."""
    if leaves == 1:
        node = ("*",)
    else:
        a = (leaves + 1) // 2
        node = (
            conns[depth % len(conns)],
            shape(a, conns, unary_depths, depth + 1),
            shape(leaves - a, conns, unary_depths, depth + 1),
        )
    return ("U", node) if depth in unary_depths else node


def _count_unary(node) -> int:
    return (node[0] == "U") + sum(_count_unary(c) for c in node[1:] if isinstance(c, tuple))


def instantiate(rng: random.Random, sh, leaf: Callable[[], tuple], kinds=("not", "snot"),
                placed: bool = True):
    """Fill a shape: leaves from `leaf()`, unary slots from the multiset
    of `kinds` in equal shares.  With `placed`, the slots are shuffled and
    children come in random order; mirroring keeps the per-level node
    counts, so the gate count does not move."""
    n_unary = _count_unary(sh)
    pool = [kinds[i % len(kinds)] for i in range(n_unary)][::-1]
    if placed:
        rng.shuffle(pool)

    def fill(node):
        if node[0] == "*":
            return leaf()
        if node[0] == "U":
            return (pool.pop(), fill(node[1]))
        left, right = fill(node[1]), fill(node[2])
        if placed and rng.random() < 0.5:
            left, right = right, left
        return (node[0], left, right)

    return fill(sh)


def chain(rng: random.Random, terms: int, leaf: Callable[[], tuple]):
    """t1 and t2 and ... and tN, left-associated; a fifth of the terms,
    never the two deepest, are wrapped in not/snot.  A wrapped term emits
    one gate and one identity wire less, so the gate count is fixed."""
    wrapped = set(rng.sample(range(2, terms), terms // 5))
    pool = [("not", "snot")[i % 2] for i in range(len(wrapped))]
    rng.shuffle(pool)
    items = [(pool.pop(), leaf()) if i in wrapped else leaf() for i in range(terms)]
    node = items[0]
    for item in items[1:]:
        node = ("and", node, item)
    return node


def render(node) -> str:
    """Sentence text; a left child of the same binary kind needs no
    parentheses, so chains stay flat for qct's recursive-descent parser."""
    kind = node[0]
    if kind == "atom":
        return node[1]
    if kind == "f":
        return "f"
    if kind in ("not", "snot"):
        inner = render(node[1])
        return f"{kind} ({inner})" if node[1][0] in ("and", "or") else f"{kind} {inner}"
    left, right = render(node[1]), render(node[2])
    if node[1][0] in ("and", "or") and node[1][0] != kind:
        left = f"({left})"
    if node[2][0] in ("and", "or"):
        right = f"({right})"
    return f"{left} {kind} {right}"


def atom_names(node) -> set[str]:
    if node[0] == "atom":
        return {node[1]}
    return set().union(*(atom_names(c) for c in node[1:] if isinstance(c, tuple)))


def _names(rng: random.Random, count: int, prefix: str) -> list[str]:
    return [f"{prefix}{i:03d}" for i in rng.sample(range(1000), count)]


def _pick(rng: random.Random, names: list[str]) -> Callable[[], tuple]:
    return lambda: ("atom", rng.choice(names))


def _distinct(names: list[str]) -> Callable[[], tuple]:
    it = iter(names)
    return lambda: ("atom", next(it))


def random_qubit(rng: random.Random) -> tuple[complex, complex]:
    g = [rng.gauss(0.0, 1.0) for _ in range(4)]
    norm = math.sqrt(sum(x * x for x in g))
    return complex(g[0], g[1]) / norm, complex(g[2], g[3]) / norm


def write_model(path: str, model: dict) -> None:
    atoms = {k: [[c.real, c.imag] for c in v] for k, v in sorted(model.items())}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"atoms": atoms}, fh)


# ---------------------------------------------------------------- workloads


EVAL_SHAPE = shape(EVAL_LEAVES, ("and", "or", "and", "and"), frozenset({1, 3}))


def eval_ops(rng: random.Random, workdir: str, shp=EVAL_SHAPE, sentences=EVAL_SENTENCES) -> list[Op]:
    """Per sentence: one plain eval and one `--trace --json` eval."""
    ops = []
    for i in range(sentences):
        tree = instantiate(rng, shp, _pick(rng, _names(rng, 5, "p")), placed=False)
        core = oracle.desugar(tree)
        n = oracle.atcompl(core)
        model = {name: random_qubit(rng) for name in sorted(atom_names(tree))}
        path = os.path.join(workdir, f"model{i}.json")
        write_model(path, model)
        text = render(tree)
        ops.append(Op("eval-plain", ["eval", text, "--model", path], 0,
                      lambda out, c=core, m=model: oracle.check_eval_text(out, c, m)))
        ops.append(Op("eval-trace", ["eval", text, "--model", path, "--trace", "--json"], 0,
                      lambda out, c=core, m=model, n=n: oracle.check_eval_trace_json(out, c, m, n)))
    return ops


# X leaves of each pinned tautology `not (X and f)`: n = 2*L - 1 + 2.
PINNED_LEAVES = (2, 4, 6)
# (X, Y) leaves of each entailment `X and Y --then X`: n = Atcompl(X) + Atcompl(Y) + 1.
ENTAIL_LEAVES = ((1, 2), (3, 2), (4, 3))
# z leaves of each `z or not z`: n = 2 * (2*L - 1) + 1.
LEM_LEAVES = (1, 2, 3)


def _sub(rng: random.Random, leaves: int, names: list[str], kinds=("not", "snot"), conns=("and", "or")):
    return instantiate(rng, shape(leaves, conns, frozenset({1})), _distinct(names), kinds, placed=False)


def refute_ops(rng: random.Random, trials: int = REFUTE_TRIALS) -> list[Op]:
    """Three sentence families whose verdicts are known by construction."""
    ops = []

    def seed() -> str:
        return str(rng.randrange(2**31))

    for leaves in PINNED_LEAVES:
        x = _sub(rng, leaves, _names(rng, leaves, "a"))
        sentence = ("not", ("and", x, ("f",)))
        n = oracle.atcompl(oracle.desugar(sentence))
        ops.append(Op(f"pinned-n{n}", ["refute", render(sentence), "--trials", str(trials), "--seed", seed()],
                      1, lambda out: oracle.check_exhausted(out, trials), trials))
    for lx, ly in ENTAIL_LEAVES:
        names = _names(rng, lx + ly, "b")
        x = _sub(rng, lx, names[:lx])
        y = _sub(rng, ly, names[lx:])
        sentence = ("and", x, y)
        n = oracle.atcompl(oracle.desugar(sentence))
        ops.append(Op(f"entail-n{n}", ["refute", render(sentence), "--then", render(x),
                                      "--trials", str(trials), "--seed", seed()],
                      1, lambda out: oracle.check_exhausted(out, trials), trials))
    for leaves in LEM_LEAVES:
        z = _sub(rng, leaves, _names(rng, leaves, "c"), kinds=("not",), conns=("and",))
        sentence = ("or", z, ("not", z))
        core = oracle.desugar(sentence)
        n = oracle.atcompl(core)
        atoms = atom_names(z)
        ops.append(Op(f"lem-n{n}", ["refute", render(sentence), "--trials", str(trials),
                                   "--delta", str(REFUTE_DELTA), "--seed", seed()],
                      0, lambda out, c=core, a=atoms: oracle.check_countermodel(out, c, a, REFUTE_DELTA), 1))
    return ops


# compile-large also runs one plain eval (n = 5) and one exhausted search
# (n = 5, 5 trials) per round, about 0.4% of its time, so that every
# per-layer timer reads a measured time on both workloads.
SMALL_SHAPE = shape(3, ("and", "or"), frozenset({1}))
SMALL_TRIALS = 5

BALANCED_CONNS = ("and", "or", "and")
BALANCED_UNARY = frozenset({2, 5})


def compile_ops(rng: random.Random, chains=CHAIN_TERMS, balanced=BALANCED_LEAVES) -> list[Op]:
    """`compile`, `compile --json` and `tree` on each large sentence."""
    trees = [(f"chain{t}", chain(rng, t, _pick(rng, _names(rng, 40, "a")))) for t in chains]
    trees += [
        (f"bal{b}", instantiate(rng, shape(b, BALANCED_CONNS, BALANCED_UNARY), _pick(rng, _names(rng, 40, "a"))))
        for b in balanced
    ]
    ops = []
    for name, tree in trees:
        st = oracle.Structure(oracle.desugar(tree))
        text = render(tree)
        ops.append(Op(f"compile-{name}", ["compile", text], 0,
                      lambda out, st=st: oracle.check_compile_text(out, st)))
        ops.append(Op(f"compile-json-{name}", ["compile", text, "--json"], 0,
                      lambda out, st=st: oracle.check_compile_json(out, st)))
        ops.append(Op(f"tree-{name}", ["tree", text], 0,
                      lambda out, st=st: oracle.check_tree_text(out, st)))
    return ops


def build(workload: str, seed: int, workdir: str) -> list[Op]:
    """One round of ops; a run repeats whole rounds."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "eval-refute":
        return eval_ops(rng, workdir) + refute_ops(rng)
    if workload == "compile-large":
        ops = compile_ops(rng)
        return ops + eval_ops(rng, workdir, SMALL_SHAPE, 1)[:1] + refute_ops(rng, SMALL_TRIALS)[:1]
    raise ValueError(f"unknown workload {workload!r}")
