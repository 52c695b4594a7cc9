"""Quantum computational logic toolkit.

Sentences built from atoms with negation, square-root negation and
(ternary) conjunction are interpreted as quregisters; this package
parses them, unfolds their syntactic trees, compiles the trees into
gate layers, evaluates them under qubit models, and searches for
countermodels.  The names below cover the library example in the
README; everything else is imported from the submodules (`lang`,
`syntree`, `qtree`, `qcore`, `semantics`, `cli`).
"""

from .errors import (
    ArityMismatch,
    CapacityExceeded,
    ModelError,
    ParseError,
    QctError,
    ReservedName,
    SamplerStuck,
    UnboundAtom,
)
from .lang import parse
from .qcore import prob, qubit
from .semantics import QubModel, evaluate

__version__ = "0.1.0"
