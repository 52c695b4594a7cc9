"""Command line: parse, tree, compile, eval, refute.

Exit codes: 0 success (or countermodel found), 1 refutation search
exhausted, 2 syntax or usage error (also a `--delta` too close to 0.25
for the model sampler to draw a qubit), 3 capacity exceeded, 4 model
error, 141 stdout closed early.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections.abc import Callable, Iterator, Sequence

import numpy as np

from . import lang, qcore, qtree, semantics, syntree
from .errors import CapacityExceeded, ModelError, ParseError, SamplerStuck, UnboundAtom

DEFAULT_N_MAX = 24
AMP_DUMP_N_MAX = 12


def _sig(x: float) -> str:
    return f"{x:.12g}"


def _fmt_complex(c: complex) -> str:
    return f"{c.real:.12g}{c.imag:+.12g}i"


def _amps_json(psi: qcore.QRegister) -> list[list[float]]:
    return [[float(c.real), float(c.imag)] for c in psi.amps]


def _amp_lines(psi: qcore.QRegister) -> list[str]:
    return [
        f"  |{idx:0{psi.n}b}> {_fmt_complex(c)}"
        for idx, c in enumerate(psi.amps)
    ]


def _emit_json(obj: object) -> None:
    json.dump(obj, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _emit_json_rows(obj: dict, rows_key: str) -> None:
    """Write json.dump(obj, indent=2) and a newline, one row at a time.

    obj[rows_key] is an iterable of rows, written as a list of lists:
    each row is an iterable of list items already encoded by
    `_item_text`.  Every other value is a scalar.  A row is written as
    soon as it is joined, so a large output is never held in memory
    whole, and json's pure-Python encoder never sees the items.
    """
    out = sys.stdout
    sep = "{\n"
    for key, value in obj.items():
        out.write(f"{sep}  {json.dumps(key)}: ")
        sep = ",\n"
        if key != rows_key:
            out.write(json.dumps(value))
            continue
        row_sep = "[\n"
        for row in value:
            out.write(f"{row_sep}    [\n" + ",\n".join(row) + "\n    ]")
            row_sep = ",\n"
        out.write("[]" if row_sep == "[\n" else "\n  ]")
    out.write("\n}\n")


def _item_text(value: str | dict) -> str:
    """A string, or a flat dict of scalars, as json.dump(..., indent=2)
    writes it as an item of a row.  Only scalars go through json.dumps,
    whose C encoder runs when no indent is asked for."""
    if isinstance(value, dict):
        fields = (f"        {json.dumps(k)}: {json.dumps(v)}" for k, v in value.items())
        return "      {\n" + ",\n".join(fields) + "\n      }"
    return "      " + json.dumps(value)


def _encoded(
    items: Sequence,
    encode: Callable[[object], str],
    cache: dict,
    key: Callable[[object], object] | None = None,
) -> Iterator[str]:
    """encode(item) for each item, computed once per distinct key(item).

    Gates are keyed by `id`, because they hash in Python code: a circuit's
    gates stay alive while it is written, and all its identity wires are
    one object, so a layer costs one encoding per new non-wire gate.
    """
    keys = items if key is None else list(map(key, items))
    for k, item in dict(zip(keys, items)).items():
        if k not in cache:
            cache[k] = encode(item)
    return map(cache.__getitem__, keys)


def _gate_text(gate: qcore.GateTag) -> str:
    name = qtree.GATE_NAMES[type(gate)]
    if isinstance(gate, qcore.Identity1):
        return name
    if isinstance(gate, qcore.Toffoli):
        return f"{name}({gate.r},{gate.s})"
    return f"{name}({gate.r})"


def _gate_json_text(gate: qcore.GateTag) -> str:
    name = qtree.GATE_NAMES[type(gate)]
    if isinstance(gate, qcore.Toffoli):
        return _item_text({"gate": name, "r": gate.r, "s": gate.s})
    return _item_text({"gate": name, "r": gate.arity})


def cmd_parse(args: argparse.Namespace) -> int:
    s = lang.parse(args.sentence)
    if args.json:
        # encoded whole first: json's encoder recurses once per AST level
        try:
            text = json.dumps(
                {
                    "ast": lang.sentence_to_json(s),
                    "pretty": lang.pretty(s),
                    "atcompl": lang.atomic_complexity(s),
                },
                indent=2,
            )
        except RecursionError:
            print("error: sentence nested too deeply for --json", file=sys.stderr)
            return 2
        print(text)
    else:
        print(lang.ast_text(s))
        print(f"Atcompl: {lang.atomic_complexity(s)}")
    return 0


def cmd_tree(args: argparse.Namespace) -> int:
    tree = syntree.build_tree(lang.parse(args.sentence))
    if args.json:
        texts: dict[str, str] = {}
        rows = (_encoded(level, _item_text, texts) for level in tree.fold_levels(lang.pretty_step))
        _emit_json_rows({"levels": rows, "height": tree.height}, "levels")
    else:
        print(syntree.render_tree(tree))
        print(f"Height: {tree.height}")
    return 0


def cmd_compile(args: argparse.Namespace) -> int:
    qt = qtree.compile_tree(syntree.build_tree(lang.parse(args.sentence)))
    texts: dict[int, str] = {}
    if args.json:
        rows = (_encoded(layer.ops, _gate_json_text, texts, id) for layer in qt.layers)
        _emit_json_rows({"n": qt.n, "layers": rows}, "layers")
    else:
        print(f"n: {qt.n}")
        for i, layer in enumerate(qt.layers, start=1):
            print(f"U{i}: " + " ⊗ ".join(_encoded(layer.ops, _gate_text, texts, id)))
    return 0


def _load_model(path: str | None) -> semantics.QubModel:
    if path is None:
        return semantics.EMPTY_MODEL
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ModelError(f"cannot read model file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ModelError(f"model file is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelError(f"model file is not valid JSON: {exc}") from exc
    return semantics.model_from_json(data)


def _check_capacity(n: int, n_max: int) -> None:
    """Refuse, before any evaluation, a sentence of n qubits over n_max.

    No register its evaluation builds, a subterm's included, is wider.
    """
    if n > n_max:
        raise CapacityExceeded(
            f"sentence needs n={n} qubits, exceeding the n_max={n_max} limit"
        )


def cmd_eval(args: argparse.Namespace) -> int:
    s = lang.parse(args.sentence)
    n = lang.atomic_complexity(s)
    if args.amplitudes and n > AMP_DUMP_N_MAX:
        print(
            f"error: --amplitudes is limited to n <= {AMP_DUMP_N_MAX}, got n={n}",
            file=sys.stderr,
        )
        return 2
    m = _load_model(args.model)
    _check_capacity(n, args.n_max)
    value = semantics.evaluate(s, m)
    p = qcore.prob(value)
    truth = abs(p - 1.0) <= qcore.EPS_PROB

    tree = syntree.build_tree(s)
    qt = qtree.compile_tree(tree)
    # Per level, input first: its probability, and its state only when
    # the amplitudes are printed.  A plain eval keeps no level at all.
    trace: list[tuple[float, qcore.QRegister | None]] = []

    def keep(state: qcore.QRegister) -> None:
        trace.append((qcore.prob(state), state if args.amplitudes else None))

    final = qtree.run(qt, qtree.input_state(tree, m), keep if args.trace else None)
    deviation = float(np.max(np.abs(final.amps - value.amps)))

    if args.json:
        out: dict = {
            "sentence": lang.pretty(s),
            "n": value.n,
            "prob": p,
            "true": truth,
            "max_deviation": deviation,
        }
        if args.trace:
            entries = []
            for i, (level_p, state) in enumerate(trace):
                entry: dict = {"level": tree.height - i, "prob": level_p}
                if args.amplitudes:
                    entry["amps"] = _amps_json(state)
                entries.append(entry)
            out["trace"] = entries
        if args.amplitudes:
            out["amplitudes"] = _amps_json(value)
        _emit_json(out)
    else:
        print(f"Prob: {_sig(p)}")
        print(f"True: {'yes' if truth else 'no'}")
        print(f"Circuit vs recursive eval, max deviation: {_sig(deviation)}")
        if args.trace:
            print("Trace:")
            for i, (level_p, state) in enumerate(trace):
                print(f"  L{tree.height - i}: Prob {_sig(level_p)}")
                if args.amplitudes:
                    for line in _amp_lines(state):
                        print(f"  {line}")
        elif args.amplitudes:
            print("Amplitudes:")
            for line in _amp_lines(value):
                print(line)
    return 0


def cmd_refute(args: argparse.Namespace) -> int:
    a = lang.parse(args.sentence)
    b = lang.parse(args.then) if args.then is not None else None
    _check_capacity(lang.atomic_complexity(a), args.n_max)
    if b is not None:
        _check_capacity(lang.atomic_complexity(b), args.n_max)
    sampler = semantics.ModelSampler(seed=args.seed, delta=args.delta)
    found = semantics.search_countermodel(a, b, trials=args.trials, sampler=sampler)

    if found is None:
        if args.json:
            _emit_json({"found": False, "trials": args.trials})
        else:
            print(f"no countermodel in {args.trials} trials")
        return 1

    p = qcore.prob(semantics.evaluate(a, found))
    q = qcore.prob(semantics.evaluate(b, found)) if b is not None else None
    if args.json:
        out = {
            "found": True,
            "trials": args.trials,
            "model": semantics.model_to_json(found),
            "prob": p,
        }
        if q is not None:
            out["prob_then"] = q
        _emit_json(out)
    else:
        print("Countermodel found")
        print(json.dumps(semantics.model_to_json(found)))
        print(f"Prob({lang.pretty(a)}) = {_sig(p)}")
        if b is not None:
            print(f"Prob({lang.pretty(b)}) = {_sig(q)}")
    return 0


def _trials_arg(text: str) -> int:
    v = int(text)
    if v < 1:
        raise argparse.ArgumentTypeError("trials must be at least 1")
    return v


def _delta_arg(text: str) -> float:
    v = float(text)
    if not 0.0 <= v < 0.25:
        raise argparse.ArgumentTypeError("delta must lie in [0, 0.25)")
    return v


def _n_max_arg(text: str) -> int:
    v = int(text)
    if not 1 <= v <= qcore.N_MAX:
        raise argparse.ArgumentTypeError(f"n-max must lie in [1, {qcore.N_MAX}]")
    return v


@functools.cache  # built once per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qct",
        description="Sentences as quantum circuits: parse, compile, evaluate, refute.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--json", action="store_true", help="machine-readable output")
        sp.add_argument(
            "--n-max",
            type=_n_max_arg,
            default=None,
            help=f"qubit capacity override, at most {qcore.N_MAX} (env: QCT_N_MAX)",
        )

    sp = sub.add_parser("parse", help="desugared AST and atomic complexity")
    sp.add_argument("sentence")
    common(sp)
    sp.set_defaults(func=cmd_parse)

    sp = sub.add_parser("tree", help="levels of the syntactic tree")
    sp.add_argument("sentence")
    common(sp)
    sp.set_defaults(func=cmd_tree)

    sp = sub.add_parser("compile", help="gate layers of the compiled circuit")
    sp.add_argument("sentence")
    common(sp)
    sp.set_defaults(func=cmd_compile)

    sp = sub.add_parser("eval", help="probability and truth under a model")
    sp.add_argument("sentence")
    sp.add_argument("--model", help="model JSON file", default=None)
    sp.add_argument("--trace", action="store_true", help="per-level probabilities")
    sp.add_argument(
        "--amplitudes",
        action="store_true",
        help=f"dump amplitudes (n <= {AMP_DUMP_N_MAX} only)",
    )
    common(sp)
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("refute", help="search for a countermodel")
    sp.add_argument("sentence")
    sp.add_argument("--then", default=None, help="consequent sentence")
    sp.add_argument("--trials", type=_trials_arg, default=1000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--delta", type=_delta_arg, default=0.0)
    common(sp)
    sp.set_defaults(func=cmd_refute)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.n_max is None:
        env = os.environ.get("QCT_N_MAX")
        try:
            args.n_max = DEFAULT_N_MAX if env is None else _n_max_arg(env)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            print(f"error: QCT_N_MAX: {exc}", file=sys.stderr)
            return 2

    try:
        return args.func(args)
    except BrokenPipeError:
        # stdout was closed early (`qct ... | head`): point it at /dev/null
        # so the flush at exit stays silent, and exit as SIGPIPE would
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except ParseError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except SamplerStuck as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (UnboundAtom, ModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
