"""Command behaviours, exit codes, and output determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qct
from helpers import (
    chain_strategy,
    circuit_to_json,
    reference_fold_levels,
    reference_levels,
    sentence_strategy,
)
from qct import qcore, qtree, semantics, syntree
from qct.cli import build_parser, main
from qct.lang import FALSITY, Atom, parse, pretty, pretty_step, sentence_to_json
from qct.semantics import model_from_json

BALANCED_MODEL = {"atoms": {"p": [[2**-0.5, 0.0], [2**-0.5, 0.0]]}}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_model(tmp_path, data, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_parse_text_output(capsys):
    code, out, _ = run_cli(capsys, "parse", "p and not p")
    assert code == 0
    assert out.splitlines() == ["Conj3(p, Neg(p), f)", "Atcompl: 3"]


def test_parse_sugar_output(capsys):
    code, out, _ = run_cli(capsys, "parse", "p or q")
    assert code == 0
    assert out.splitlines()[0] == "Neg(Conj3(Neg(p), Neg(q), f))"


def test_parse_json_round_trips(capsys):
    code, out, _ = run_cli(capsys, "parse", "--json", "not p and (q and snot p)")
    assert code == 0
    data = json.loads(out)
    assert data["ast"] == sentence_to_json(parse("not p and (q and snot p)"))
    assert data["atcompl"] == 5
    assert parse(data["pretty"]) == parse("not p and (q and snot p)")


def test_parse_syntax_error_exit_code_and_position(capsys):
    code, out, err = run_cli(capsys, "parse", "p and")
    assert code == 2
    assert out == ""
    assert "syntax error at offset 5" in err


def test_tree_text_output(capsys):
    code, out, _ = run_cli(capsys, "tree", "p and not p")
    assert code == 0
    lines = out.splitlines()
    assert lines[-2] == "Level 3: (p, p, f)"
    assert lines[-1] == "Height: 3"
    assert len(lines) == 4


def test_tree_json(capsys):
    code, out, _ = run_cli(capsys, "tree", "--json", "not p and (q and snot p)")
    data = json.loads(out)
    assert code == 0
    assert data["height"] == 4
    assert data["levels"][-1] == ["p", "q", "p", "f", "f"]


def test_compile_text(capsys):
    code, out, _ = run_cli(capsys, "compile", "p and not p")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n: 3"
    assert lines[1] == "U1: T(1,1)"
    assert lines[2] == "U2: I ⊗ NOT(1) ⊗ I"


def test_compile_json_worked_example(capsys):
    code, out, _ = run_cli(capsys, "compile", "--json", "p and not p")
    assert code == 0
    assert json.loads(out) == {
        "n": 3,
        "layers": [
            [{"gate": "T", "r": 1, "s": 1}],
            [{"gate": "I", "r": 1}, {"gate": "NOT", "r": 1}, {"gate": "I", "r": 1}],
        ],
    }


def test_compile_atomic_sentence(capsys):
    code, out, _ = run_cli(capsys, "compile", "--json", "p")
    assert json.loads(out) == {"n": 1, "layers": []}


def test_compile_json_of_an_atom_is_byte_exact(capsys):
    code, out, _ = run_cli(capsys, "compile", "p", "--json")
    assert code == 0
    assert out == '{\n  "n": 1,\n  "layers": []\n}\n'


def _stdout(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


@settings(max_examples=30, deadline=None)
@given(
    st.one_of(
        sentence_strategy(max_leaves=20),
        chain_strategy(max_terms=60),
        st.sampled_from([Atom("p"), FALSITY]),
    )
)
def test_json_writers_give_the_bytes_of_json_dump(s):
    text = pretty(s)
    qt = qtree.compile_tree(syntree.build_tree(s))
    circuit = json.dumps(circuit_to_json(qt), indent=2) + "\n"
    assert _stdout("compile", text, "--json") == circuit
    levels = reference_levels(s)
    tree = {"levels": reference_fold_levels(levels, pretty_step), "height": len(levels)}
    assert _stdout("tree", text, "--json") == json.dumps(tree, indent=2) + "\n"


def test_eval_with_model_file(capsys, tmp_path):
    path = write_model(tmp_path, BALANCED_MODEL)
    code, out, _ = run_cli(capsys, "eval", "p and p", "--model", path)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "Prob: 0.25"
    assert lines[1] == "True: no"


def test_eval_without_model(capsys):
    code, out, _ = run_cli(capsys, "eval", "not f")
    assert code == 0
    assert out.splitlines()[0] == "Prob: 1"
    assert out.splitlines()[1] == "True: yes"


def test_eval_balanced_after_conjunction(capsys, tmp_path):
    model = {
        "atoms": {
            "p": [[2**-0.5, 0.0], [2**-0.5, 0.0]],
            "q": [[0.6, 0.0], [0.0, 0.8]],
        }
    }
    path = write_model(tmp_path, model)
    code, out, _ = run_cli(capsys, "eval", "snot (p and q)", "--model", path)
    assert code == 0
    assert out.splitlines()[0] == "Prob: 0.5"


def test_eval_json_trace(capsys, tmp_path):
    path = write_model(tmp_path, BALANCED_MODEL)
    code, out, _ = run_cli(
        capsys, "eval", "p and not p", "--model", path, "--json", "--trace"
    )
    data = json.loads(out)
    assert code == 0
    assert data["n"] == 3
    assert data["max_deviation"] <= 1e-9
    assert [t["level"] for t in data["trace"]] == [3, 2, 1]
    assert data["trace"][-1]["prob"] == pytest.approx(0.25, abs=1e-12)


def test_eval_amplitudes(capsys, tmp_path):
    path = write_model(tmp_path, BALANCED_MODEL)
    code, out, _ = run_cli(
        capsys, "eval", "not p", "--model", path, "--json", "--amplitudes"
    )
    data = json.loads(out)
    assert code == 0
    amps = [complex(re, im) for re, im in data["amplitudes"]]
    assert amps == pytest.approx([2**-0.5, 2**-0.5])


def test_eval_amplitudes_guard(capsys, tmp_path):
    path = write_model(tmp_path, BALANCED_MODEL)
    sentence = " and ".join(["p"] * 7)  # Atcompl 13
    code, _, err = run_cli(capsys, "eval", sentence, "--model", path, "--amplitudes")
    assert code == 2
    assert "n <= 12" in err


def test_eval_unbound_atom_is_model_error(capsys, tmp_path):
    path = write_model(tmp_path, BALANCED_MODEL)
    code, _, err = run_cli(capsys, "eval", "p and q", "--model", path)
    assert code == 4
    assert "q" in err


def test_eval_malformed_model_file(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "eval", "p", "--model", str(path))
    assert code == 4
    assert "JSON" in err


def test_eval_rejects_falsity_model_entry(capsys, tmp_path):
    path = write_model(tmp_path, {"atoms": {"f": [[1.0, 0.0], [0.0, 0.0]]}})
    code, _, err = run_cli(capsys, "eval", "not f", "--model", path)
    assert code == 4
    assert "falsity" in err


def test_eval_rejects_non_unit_model_entry(capsys, tmp_path):
    path = write_model(tmp_path, {"atoms": {"p": [[1.0, 0.0], [1.0, 0.0]]}})
    code, _, err = run_cli(capsys, "eval", "p", "--model", path)
    assert code == 4
    assert "unit norm" in err


def test_eval_missing_model_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "eval", "p", "--model", str(tmp_path / "none.json"))
    assert code == 4


@pytest.mark.parametrize("amp", ["NaN", "Infinity"])
def test_eval_rejects_non_finite_model_entry(capsys, tmp_path, amp):
    path = tmp_path / "model.json"
    path.write_text('{"atoms": {"p": [[%s, 0.0], [0.0, 0.0]]}}' % amp)
    code, out, err = run_cli(capsys, "eval", "p and p", "--model", str(path))
    assert code == 4
    assert out == ""
    assert "unit norm" in err


def test_eval_rejects_non_utf8_model_file(capsys, tmp_path):
    path = tmp_path / "model.json"
    path.write_bytes(b'{"atoms": {"p": [[1.0, 0.0], [0.0, 0.0]]}}\xff')
    code, out, err = run_cli(capsys, "eval", "p", "--model", str(path))
    assert code == 4
    assert out == ""
    assert "UTF-8" in err


# Atcompl 17: a 2 MiB state, built by every kind of gate
BALANCED_17 = "snot (((p and q) and (r and s)) and ((p and q) and not (r and (s and p))))"
MIXED_MODEL = {"atoms": {a: [[0.6, 0.0], [0.0, 0.8]] for a in "pqrs"}}


@pytest.mark.parametrize("flags", [[], ["--trace", "--json"]])
def test_eval_peak_memory_is_a_small_multiple_of_the_state(capsys, tmp_path, flags):
    path = write_model(tmp_path, MIXED_MODEL)
    state_bytes = 16 << 17
    tracemalloc.start()
    try:
        code = main(["eval", BALANCED_17, "--model", path, *flags])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert peak <= 6 * state_bytes


def test_eval_trace_streams_the_same_level_probabilities(capsys, tmp_path):
    path = write_model(tmp_path, MIXED_MODEL)
    sentence = "snot (p and not q) or (snot r and (s and p))"
    _, out, _ = run_cli(capsys, "eval", sentence, "--model", path, "--trace", "--json")
    traced = json.loads(out)
    _, out, _ = run_cli(capsys, "eval", sentence, "--model", path, "--json")
    plain = json.loads(out)

    tree = syntree.build_tree(parse(sentence))
    m = model_from_json(MIXED_MODEL)
    states = qtree.run_with_trace(qtree.compile_tree(tree), qtree.input_state(tree, m))
    assert [t["prob"] for t in traced["trace"]] == [qcore.prob(st) for st in states]
    assert traced["max_deviation"] == plain["max_deviation"]


@pytest.mark.parametrize(
    "sentence",
    ["(" * 400 + "p" + ")" * 400, "not " * 3000 + "p"],
    ids=["400-parentheses", "3000-not"],
)
@pytest.mark.parametrize("command", ["parse", "eval"])
def test_deep_nesting_is_a_syntax_error(capsys, command, sentence):
    code, out, err = run_cli(capsys, command, sentence)
    assert code == 2
    assert out == ""
    assert "nested too deeply" in err
    assert "Traceback" not in err


def test_refute_finds_countermodel(capsys):
    code, out, _ = run_cli(
        capsys, "refute", "not (p and not p)", "--trials", "50", "--delta", "0.05"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "Countermodel found"
    model = model_from_json(json.loads(lines[1]))
    assert "p" in model.atoms


def test_refute_with_consequent(capsys):
    code, out, _ = run_cli(
        capsys, "refute", "p", "--then", "p and p", "--trials", "50", "--json"
    )
    data = json.loads(out)
    assert code == 0
    assert data["found"] is True
    assert data["prob"] > data["prob_then"]


def test_refute_exhausted(capsys):
    code, out, _ = run_cli(capsys, "refute", "p and q", "--then", "p", "--trials", "30")
    assert code == 1
    assert "no countermodel in 30 trials" in out


def test_refute_json_is_deterministic(capsys):
    args = ("refute", "not (p and not p)", "--trials", "20", "--seed", "7", "--json")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


# refute's exact output and exit code for README examples, --then,
# --delta and exhausted searches, recorded from `python -m qct` before the
# search moved from registers to the closed form: the same countermodels
with open(os.path.join(os.path.dirname(__file__), "golden_refute.json"), encoding="utf-8") as fh:
    GOLDEN_REFUTE = json.load(fh)


@pytest.mark.parametrize("case", GOLDEN_REFUTE, ids=[" ".join(c["argv"][1:]) for c in GOLDEN_REFUTE])
def test_refute_golden_bytes(capsys, case):
    code, out, err = run_cli(capsys, *case["argv"])
    assert (code, out, err) == (case["exit"], case["stdout"], case["stderr"])


def test_sampler_stuck_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setattr(semantics, "_MAX_DRAWS", 3)
    code, out, err = run_cli(capsys, "refute", "p", "--delta", "0.24999999999", "--trials", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: no accepted draw in 3 attempts")
    assert "Traceback" not in err


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_refute_seed_changes_model(capsys):
    _, out1, _ = run_cli(capsys, "refute", "snot p", "--trials", "5", "--json")
    _, out2, _ = run_cli(
        capsys, "refute", "snot p", "--trials", "5", "--seed", "99", "--json"
    )
    assert json.loads(out1)["model"] != json.loads(out2)["model"]


def test_capacity_exit_code(capsys, tmp_path):
    path = write_model(tmp_path, BALANCED_MODEL)
    sentence = " and ".join(["p"] * 4)  # Atcompl 7
    code, _, err = run_cli(capsys, "eval", "--n-max", "5", sentence, "--model", path)
    assert code == 3
    assert "n_max" in err
    code, _, _ = run_cli(capsys, "eval", sentence, "--model", path)
    assert code == 0  # the override does not outlive its call


CHAIN_1200 = " and ".join(["p"] * 1200)  # nested deeper than Python's recursion limit


@pytest.mark.parametrize(
    "command, expected",
    [
        ("compile", 0),
        ("compile --json", 0),
        ("tree", 0),
        ("parse", 0),
        ("parse --json", 2),
        ("eval", 3),
        ("refute", 3),
    ],
)
def test_long_chain_compiles_or_exceeds_capacity(command, expected):
    # a StringIO, not capsys: compile --json writes 76 MB here, which
    # capsys would encode to bytes and decode again
    out, err = io.StringIO(), io.StringIO()
    name, *flags = command.split()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([name, CHAIN_1200, *flags])
    assert code == expected
    if expected == 3:
        assert "n=2399" in err.getvalue()
    if command == "parse --json":  # json's encoder recurses once per AST level
        assert out.getvalue() == ""
        assert "nested too deeply for --json" in err.getvalue()


def test_closed_stdout_exits_141_without_traceback():
    src = os.path.dirname(os.path.dirname(qct.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "qct", "compile", " and ".join(["p"] * 300), "--json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()  # as `| head -1` does
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 141
    assert "Traceback" not in err
    assert "Exception ignored" not in err


def test_n_max_env_fallback(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("QCT_N_MAX", "5")
    path = write_model(tmp_path, BALANCED_MODEL)
    sentence = " and ".join(["p"] * 4)
    code, _, err = run_cli(capsys, "eval", sentence, "--model", path)
    assert code == 3


def test_n_max_flag_beats_env(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("QCT_N_MAX", "5")
    path = write_model(tmp_path, BALANCED_MODEL)
    sentence = " and ".join(["p"] * 4)
    code, _, _ = run_cli(capsys, "eval", "--n-max", "24", sentence, "--model", path)
    assert code == 0


def test_n_max_env_invalid(capsys, monkeypatch):
    monkeypatch.setenv("QCT_N_MAX", "zero")
    code, _, err = run_cli(capsys, "parse", "p")
    assert code == 2
    assert "QCT_N_MAX" in err


def test_n_max_hard_cap(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["parse", "--n-max", "29", "p"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_bad_delta_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["refute", "p", "--delta", "0.3"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_bad_trials_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["refute", "p", "--trials", "0"])
    assert exc.value.code == 2
    capsys.readouterr()
