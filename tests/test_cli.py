"""Command-line interface: exit codes, text output, and JSON payloads."""

import contextlib
import importlib
import io
import json
import re
import sys
from collections import Counter
from types import SimpleNamespace

import pytest
from conftest import EXAMPLES, ROOT, load_theory, perfbench_module, to_oracle
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import comm_monoid_normal_form, monoid_normal_form

from operad_workbench import cli
from operad_workbench.cli import main
from operad_workbench.operads import EndOperad
from operad_workbench.terms import (App, PresentationError, Var,
                                    _MAX_NESTING, parse_presentation,
                                    parse_term, replace_at, subterm_at)
from operad_workbench.weakcat import WeakcatError, load_weakcat

MONOID = str(EXAMPLES / "monoid.th")
COMM = str(EXAMPLES / "comm_monoid.th")
POINTED = str(EXAMPLES / "pointed.th")
WEAKCAT = str(EXAMPLES / "indiscrete_monoid_weakcat.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_text(capsys):
    code, out, err = run(capsys, "classify", MONOID)
    assert code == 0 and err == ""
    assert "theory Monoid (plain)" in out
    assert "overall: strongly_regular" in out


def test_classify_json(capsys):
    code, out, _ = run(capsys, "classify", COMM, "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["overall"] == "linear"
    assert {row["class"] for row in payload["equations"]} \
        == {"strongly_regular", "linear"}


def test_one_parser_serves_every_call(capsys, monkeypatch):
    """A decide, a usage error inside a subcommand and a classify through
    one process print what each prints with a parser of its own, and
    the parser is built once."""
    calls = [("decide", MONOID, "m(x1,m(x2,x3))", "m(m(x1,x2),x3)",
              "--json"),
             ("decide", MONOID, "--steps", "0", "x1", "x1"),
             ("classify", MONOID)]
    alone = []
    for argv in calls:
        cli._parser.cache_clear()
        alone.append(run(capsys, *argv))
    assert [code for code, _, _ in alone] == [0, 3, 0]
    assert alone[1] == (3, "", "usage error: argument --steps: "
                               "'0' is not a positive budget\n")
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda: built.append(1) or build())
    cli._parser.cache_clear()
    assert [run(capsys, *argv) for argv in calls] == alone
    assert len(built) == 1


def test_term_info(capsys):
    code, out, _ = run(capsys, "term-info", MONOID, "--arity", "2",
                       "m(x2,m(x1,e))", "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["size"] == 5
    assert payload["variables"] == [2, 1]
    assert payload["class"] == "linear"


def test_eval_fp_target(capsys):
    code, out, _ = run(capsys, "eval", COMM, "--target", "comm-monoid-fp",
                       "--arity", "2", "m(x2,m(x1,e))")
    assert code == 0
    assert out.strip() == "[1,1]"
    code, out, _ = run(capsys, "eval", MONOID, "--target", "int-poly-fp",
                       "m(x1,m(x2,x3))")
    assert (code, out) == (0, "x3 + x2 + x1\n")


def test_eval_terminal_target_json(capsys):
    code, out, _ = run(capsys, "eval", MONOID, "--target", "terminal-plain",
                       "m(x1,x2)", "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["element"] == "2"
    assert payload["arity"] == 2


def test_decide_yes_with_trace(capsys):
    code, out, _ = run(capsys, "decide", MONOID, "m(e,m(x1,e))", "x1")
    assert code == 0
    assert out.startswith("yes:")
    assert "equation" in out


def test_decide_target_mode(capsys):
    code, out, _ = run(capsys, "decide", COMM, "--target", "comm-monoid-fp",
                       "m(x1,x2)", "m(x2,x1)")
    assert code == 0
    assert "both evaluate to" in out


def test_decide_target_mode_answers_no(capsys, tmp_path):
    """The free operad of a magma, one binary operation and no
    equations, tells the two bracketings of three leaves apart."""
    magma = tmp_path / "magma.th"
    magma.write_text("theory Magma\nflavor plain\nops:\n  m : 2\n",
                     encoding="utf-8")
    argv = ("decide", str(magma), "--target", "free", "m(m(x1,x2),x3)",
            "m(x1,m(x2,x3))")
    reason = "m(m(|,|),|) differs from m(|,m(|,|))"
    assert run(capsys, *argv) == (1, f"no: {reason}\n", "")
    code, out, err = run(capsys, *argv, "--json")
    assert (code, err) == (1, "")
    assert json.loads(out) == {"answer": "no", "reason": reason,
                               "trace": None}


@pytest.mark.parametrize("argv, message", [
    (("eval", MONOID, "--target", "initial", "m(x1,x2)"),
     "the initial operad has no element of arity 2"),
    (("decide", MONOID, "--target", "end-2", "m(e,x1)", "x1"),
     "target end-2 breaks the theory: fails m(e,x1) = x1 @1: "
     "1:[1,1] != 1:[1,2]"),
    (("classes", MONOID, "--target", "end-2", "--arity", "1",
      "--max-size", "3"),
     "target end-2 breaks the theory: fails m(e,x1) = x1 @1: "
     "1:[1,1] != 1:[1,2]"),
    (("decide", MONOID, "--target", "free", "m(e,x1)", "x1"),
     "target free breaks the theory: fails m(m(x1,x2),x3) = "
     "m(x1,m(x2,x3)) @3: m(m(|,|),|) != m(|,m(|,|))"),
    (("classes", COMM, "--target", "symmetries", "--arity", "2"),
     "target symmetries breaks the theory: fails m(x1,x2) = m(x2,x1) "
     "@2: [1,2] != [2,1]")])
def test_targets_that_cannot_carry_the_theory_exit_3(capsys, argv,
                                                     message):
    """A target without a stock element of some arity, or whose stock
    assignment breaks an equation, is refused with exit 3; decided in
    such a target, m(e,x1) and x1 were once told apart."""
    assert run(capsys, *argv) == (3, "", f"error: {message}\n")
    assert run(capsys, "decide", MONOID, "m(e,x1)", "x1")[0] == 0


def test_decide_no_on_arity_mismatch(capsys):
    code, out, _ = run(capsys, "decide", MONOID, "m(x1,x2)", "x1")
    assert code == 1
    assert out.startswith("no:")


def test_decide_unknown_when_over_budget(capsys):
    code, out, _ = run(capsys, "decide", MONOID, "--max-size", "1",
                       "m(e,x1)", "x1")
    assert code == 2
    assert out.startswith("unknown:")


def test_decide_unknown_names_the_step_budget(capsys):
    # the step budget once ran out at a lower arity, so the queried
    # arity was never built and the answer blamed the size bound
    code, out, _ = run(capsys, "decide", MONOID, "m(x1,x2)", "m(x1,m(e,x2))",
                       "--steps", "10", "--max-size", "7")
    assert code == 2
    assert out == ("unknown: not merged within size 7; "
                   "saturation budget exhausted\n")


def test_decide_json_trace_replays_positions(capsys):
    code, out, _ = run(capsys, "decide", MONOID, "--json",
                       "m(e,m(x1,e))", "x1")
    payload = json.loads(out)
    assert code == 0 and payload["answer"] == "yes"
    assert all(set(step) == {"source", "target", "equation", "forward",
                             "position"} for step in payload["trace"])


def match(pattern, term, binding) -> bool:
    """Extend binding so that pattern instantiates to term."""
    if isinstance(pattern, Var):
        return binding.setdefault(pattern.index, term) == term
    return (isinstance(term, App) and term.op == pattern.op
            and len(term.args) == len(pattern.args)
            and all(match(p, t, binding)
                    for p, t in zip(pattern.args, term.args)))


def replay_json_trace(pres, trace, start, goal):
    """Re-execute a --json trace: each step rewrites one instance of its
    equation at its position and the chain runs from start to goal."""
    current = parse_term(start, pres.signature)
    for step in trace:
        source = parse_term(step["source"], pres.signature)
        target = parse_term(step["target"], pres.signature)
        assert source == current
        eq = pres.equations[step["equation"]]
        src_side, dst_side = ((eq.lhs, eq.rhs) if step["forward"]
                              else (eq.rhs, eq.lhs))
        pos = (() if step["position"] == "root"
               else tuple(int(i) for i in step["position"].split(".")))
        binding = {}
        assert match(src_side, subterm_at(source, pos), binding)
        assert match(dst_side, subterm_at(target, pos), binding)
        assert replace_at(source, pos, subterm_at(target, pos)) == target
        current = target
    assert current == parse_term(goal, pres.signature)


def test_decide_explains_long_merges(capsys):
    # the explanation of this merge once re-entered its own congruence
    # edges and died with a RecursionError
    a, b = "m(e,m(m(x1,e),m(x2,e)))", "m(e,m(m(x1,m(x2,e)),e))"
    code, out, _ = run(capsys, "decide", MONOID, a, b, "--max-size", "9")
    assert code == 0 and out.startswith("yes:")
    code, out, _ = run(capsys, "decide", MONOID, a, b, "--max-size", "9",
                       "--json")
    payload = json.loads(out)
    assert code == 0 and payload["answer"] == "yes"
    replay_json_trace(load_theory("monoid.th"), payload["trace"], a, b)


@pytest.mark.parametrize("seed", range(1, 6))
def test_decide_stream_answers_match_the_normal_forms(seed, capsys,
                                                      monkeypatch):
    """The monoid.th and comm_monoid.th queries of the decide-stream
    benchmark at this seed, drawn by its own setup (read, not run): a yes
    joins two terms of equal normal form, and a no two of different
    ones, with no size bound on the normal forms."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    queries = importlib.import_module("workloads").decide_setup(
        None, seed, ROOT)["queries"]
    normal_forms = {"monoid.th": monoid_normal_form,
                    "comm_monoid.th": comm_monoid_normal_form}
    answers = Counter()
    for name, left, right, cap in queries:
        if name not in normal_forms:
            continue
        _, out, _ = run(capsys, "decide", str(EXAMPLES / name), left,
                        right, "--max-size", str(cap), "--json")
        answer = json.loads(out)["answer"]
        answers[answer] += 1
        if answer != "unknown":
            left_nf, right_nf = (normal_forms[name](to_oracle(parse_term(u)))
                                 for u in (left, right))
            assert (left_nf == right_nf) == (answer == "yes"), (left, right)
    assert answers["yes"] > 0 and answers["no"] > 0


def test_classes_text(capsys):
    code, out, _ = run(capsys, "classes", COMM, "--arity", "2",
                       "--target", "comm-monoid-fp")
    assert code == 0
    assert out.startswith("1 classes at arity 2, size <= 6")
    assert "14 objects" in out and "element [1,1]" in out


def test_classes_json(capsys):
    code, out, _ = run(capsys, "classes", POINTED, "--arity", "0", "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["count"] == 1
    assert payload["classes"][0]["members"] == ["c"]


def test_classes_rejects_negative_arity(capsys):
    code, out, err = run(capsys, "classes", MONOID, "--arity", "-2")
    assert code == 3 and out == ""
    assert err.startswith("usage error:") and "negative" in err


def test_strictify_bundled_example(capsys):
    code, out, _ = run(capsys, "strictify", WEAKCAT, "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["ok"] is True
    assert payload["objects"] == 40
    assert payload["strictness"]["failures"] == []
    assert payload["comparison"]["failures"] == []


def test_strictify_text_output(capsys):
    code, out, err = run(capsys, "strictify", WEAKCAT)
    assert code == 0 and err == ""
    assert out == """\
objects: 40
strictness:
  ok associativity: 930 instances
  ok associativity instances out of bounds: 2710 instances
  ok unit law: 72 instances
comparison:
  ok comparison cell endpoints: 89 instances
  ok comparison cell naturality: 16 instances
  ok comparison pasting: 110 instances
  ok essential surjectivity: 3 instances
  ok hom bijection: 1600 instances
PASS
"""


def test_strictify_bad_end_table_exits_3(capsys, tmp_path):
    data = json.loads((EXAMPLES / "indiscrete_monoid_weakcat.json")
                      .read_text(encoding="utf-8"))
    data["target"] = "end-2"
    data["interp"] = {"m": "2:[1,x,2,1]", "e": "0:[1]"}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run(capsys, "strictify", str(path))
    assert code == 3 and out == ""
    assert err == "error: bad table entry in '2:[1,x,2,1]'\n"


def test_strictify_refuses_a_target_that_breaks_the_theory(capsys,
                                                           tmp_path):
    """The bundled instance under end-2 and its stock assignment: load
    refuses it, and strictify exits 3 with the text decide gives."""
    data = json.loads((EXAMPLES / "indiscrete_monoid_weakcat.json")
                      .read_text(encoding="utf-8"))
    data["target"] = "end-2"
    data["interp"] = {"m": "2:[1,1,2,2]", "e": "0:[1]"}
    text = json.dumps(data)
    message = ("target end-2 breaks the theory: fails m(e,x1) = x1 @1: "
               "1:[1,1] != 1:[1,2]")
    with pytest.raises(WeakcatError, match=f"^{re.escape(message)}$"):
        load_weakcat(text)
    path = tmp_path / "end2.json"
    path.write_text(text, encoding="utf-8")
    assert run(capsys, "strictify", str(path)) == (3, "", f"error: {message}\n")
    assert run(capsys, "decide", MONOID, "--target", "end-2", "m(e,x1)",
               "x1") == (3, "", f"error: {message}\n")


def test_strictify_refuses_an_exhausted_saturation_budget(capsys,
                                                         tmp_path):
    """A closure cut short by max_steps leaves pairs unmerged that the
    strict checks would skip as out of bounds; strictify refuses it
    instead of passing on fewer instances. A budget that suffices
    prints what the bundled instance prints."""
    data = json.loads((EXAMPLES / "indiscrete_monoid_weakcat.json")
                      .read_text(encoding="utf-8"))
    path = tmp_path / "budget.json"
    data["bounds"]["max_steps"] = 1
    path.write_text(json.dumps(data), encoding="utf-8")
    assert run(capsys, "strictify", str(path)) == (
        3, "", "error: the saturation budget of 1 steps ran out at arity 0 "
        "before e and m(e,e) merged\n")
    data["bounds"]["max_steps"] = 50
    path.write_text(json.dumps(data), encoding="utf-8")
    assert run(capsys, "strictify", str(path)) \
        == run(capsys, "strictify", WEAKCAT)


def test_perm_block_compose(capsys):
    code, out, _ = run(capsys, "perm", "block-compose",
                       "[2,1]", "[1,3,2]", "[2,1]")
    assert code == 0
    assert out.strip() == "[3,5,4,2,1]"


def test_perm_rejects_a_spaced_entry(capsys):
    code, out, err = run(capsys, "perm", "block-compose",
                         "[2,1]", "[1,3,2]", "[2 1]")
    assert code == 3 and out == ""
    assert err == ("error: bad finite function '[2 1]': entry '2 1' "
                   "is not an integer\n")


def test_perm_wrong_inner_count(capsys):
    code, _, err = run(capsys, "perm", "block-compose", "[2,1]", "[1]")
    assert code == 3
    assert err.startswith("usage error:")


def test_fp_weakening_is_rejected(capsys, tmp_path):
    theory = tmp_path / "dup.th"
    theory.write_text("theory Dup\nflavor fp\nops:\n  m : 2\neqs:\n"
                      "  @1: m(x1,x1) = x1\n", encoding="utf-8")
    code, _, err = run(capsys, "decide", str(theory), "m(x1,x1)", "x1")
    assert code == 3
    assert "degenerate" in err and "tau_{A,A}" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, "decide", "no_such_file.th", "x1", "x1")
    assert code == 3
    assert err.startswith("error:")


OPS = "theory T\nflavor plain\nops:\n  f : 1\n"


@pytest.mark.parametrize("text, message", [
    (OPS + "  x1 : 1\n", "line 5: bad operation name 'x1'"),
    (OPS + "  g : -1\n", "line 5: negative arity for 'g'"),
    (OPS + "  f : 2\n", "line 5: duplicate operation 'f'"),
    (OPS + "eqs:\n  @1: f(x2) = x1\n",
     "line 6: variable x2 exceeds equation arity 1"),
    (OPS.replace("plain", "odd"), "line 2: unknown flavor 'odd'"),
    (OPS + "eqs:\n  @2: f(x1) = f(x2)\n",
     "line 6: plain flavor requires strongly regular equations, "
     "got @2: f(x1) = f(x2) (general)"),
    (OPS + "eqs:\n  f(x1) = g(x1)\n",
     "line 6: unknown operation 'g' at column 6 in 'g(x1)'"),
    ("theory A\nflavor plain\nops:\n  m : 2\ntheory B\nflavor fp\neqs:\n"
     "  @1: m(x1,x1) = x1\n", "line 5: repeated theory line"),
    (OPS + "flavor symmetric\n", "line 5: repeated flavor line")])
def test_theory_file_faults_name_their_line(capsys, tmp_path, text,
                                            message):
    with pytest.raises(PresentationError) as info:
        parse_presentation(text)
    assert str(info.value) == message
    theory = tmp_path / "bad.th"
    theory.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "classify", str(theory))
    assert (code, out, err) == (3, "", f"error: {message}\n")


def test_unknown_target(capsys):
    code, _, err = run(capsys, "eval", MONOID, "--target", "nope", "x1")
    assert code == 3
    assert "nope" in err


@pytest.mark.parametrize("arity, term", [("1", "m(x1,x1)"),
                                         ("3", "m(x1,x2)")])
def test_free_plain_target_refuses_relabelled_terms(capsys, arity, term):
    code, out, err = run(capsys, "eval", MONOID, "--target", "free",
                         "--arity", arity, term)
    assert code == 3 and out == ""
    assert err == "error: free-plain has no finite-function action\n"


def _nested(depth: int) -> str:
    """m(x1,m(x2,...m(x<depth>,x<depth+1>)...)), depth parentheses deep."""
    return ("".join(f"m(x{i}," for i in range(1, depth + 1))
            + f"x{depth + 1}" + ")" * depth)


@pytest.mark.parametrize("depth", [_MAX_NESTING + 1, 3000])
def test_overdeep_terms_are_refused(capsys, depth):
    deep = _nested(depth)
    for argv in (("term-info", MONOID, "--arity", str(depth + 1), deep),
                 ("eval", MONOID, "--target", "free", deep),
                 ("decide", MONOID, deep, "x1")):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert err.startswith("error: nesting deeper than "
                              f"{_MAX_NESTING} at column")


def test_oversized_end_tables_exit_3(capsys, tmp_path):
    """An end-N element whose table would pass the entry budget is
    refused before it is built: the value of a 201-variable term in
    end-2, and the default element of a 40-ary operation."""
    code, out, err = run(capsys, "eval", MONOID, "--target", "end-2",
                         _nested(_MAX_NESTING))
    assert code == 3 and out == ""
    assert err == ("error: an operation of arity 201 on 2 elements needs "
                   "2^201 table entries, over the budget of 1048576\n")
    wide = tmp_path / "wide.th"
    wide.write_text("theory Wide\nflavor plain\nops:\n  w : 40\n",
                    encoding="utf-8")
    term = "w(" + ",".join(f"x{i}" for i in range(1, 41)) + ")"
    code, out, err = run(capsys, "eval", str(wide), "--target", "end-2", term)
    assert code == 3 and out == ""
    assert err == ("error: an operation of arity 40 on 2 elements needs "
                   "2^40 table entries, over the budget of 1048576\n")


def test_oversized_end_evaluation_composes_nothing(capsys, monkeypatch):
    """The budget refuses the right comb of 201 variables in end-2 before
    the first composite: none of the in-budget arities 2 to 20 is
    built on the way."""
    calls = []
    compose = EndOperad.compose
    monkeypatch.setattr(EndOperad, "compose",
                        lambda self, p, qs: calls.append(p)
                        or compose(self, p, qs))
    code, out, err = run(capsys, "eval", MONOID, "--target", "end-2",
                         _nested(_MAX_NESTING))
    assert (code, out) == (3, "")
    assert err.startswith("error: an operation of arity 201 on 2 elements")
    assert calls == []
    assert run(capsys, "eval", MONOID, "--target", "end-2", _nested(3)) \
        == (0, "4:[1,1,1,1,1,1,1,1,2,2,2,2,2,2,2,2]\n", "")
    assert len(calls) == 3


@pytest.mark.parametrize("argv, expected", [
    (("term-info", MONOID, "--arity", str(_MAX_NESTING + 1)), 0),
    (("eval", MONOID, "--target", "free"), 0),
    (("eval", COMM, "--target", "comm-monoid-fp", "--json"), 0),
    (("decide", MONOID, "--target", "symmetries"), 0),
    (("decide", COMM, "--target", "comm-monoid-fp"), 0),
    (("decide", MONOID, "--max-size", "1"), 2),
    (("decide", "magma", "--target", "free"), 0)])
def test_terms_at_the_nesting_limit_are_handled(capsys, tmp_path, argv,
                                                expected):
    """Each decide case takes a target that satisfies its theory. The
    free target satisfies no equation, so its decide case, the deepest
    (free evaluation plus comparison), runs on a magma: one binary
    operation and no equations."""
    if argv[1] == "magma":
        magma = tmp_path / "magma.th"
        magma.write_text("theory Magma\nflavor plain\nops:\n  m : 2\n",
                         encoding="utf-8")
        argv = (argv[0], str(magma), *argv[2:])
    term = _nested(_MAX_NESTING)
    operands = (term, term) if argv[0] == "decide" else (term,)
    code, out, err = run(capsys, *argv, *operands)
    assert code == expected and err == ""
    assert out


def test_tracer_finds_every_boundary():
    # the benchmark's spans wrap names where the package defines them; a
    # rename that drops one would leave its layer silently untimed
    layers = SimpleNamespace(**{
        name.partition(".")[2]: module for name, module in sys.modules.items()
        if name.startswith("operad_workbench.")})
    tracer = perfbench_module("tracing").Tracer()
    try:
        assert tracer.install(layers) == []
    finally:
        tracer.uninstall()


def test_readme_examples_print_what_the_readme_shows():
    preflight = perfbench_module("preflight")
    result = preflight.run_preflight(main, ROOT / "README.md", EXAMPLES)
    assert result == {"examples": 6, "failures": []}


@pytest.mark.parametrize("field, value", [
    ("objects", 3), ("arrows", {"id": "a"}), ("arrows", [{"id": 1}]),
    ("identities", []), ("compose", {"a∘b": 7}), ("generators", "m"),
    ("deltas", [1]), ("theory", None)])
def test_strictify_malformed_instance_exits_3(capsys, tmp_path, field,
                                              value):
    data = json.loads((EXAMPLES / "indiscrete_monoid_weakcat.json")
                      .read_text(encoding="utf-8"))
    data[field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run(capsys, "strictify", str(path))
    assert code == 3 and out == ""
    assert err.startswith("error:") and repr(field) in err


@pytest.mark.parametrize("where, key, value", [
    (("generators", "m", "obj_map"), "9,9", "0"),
    (("generators", "m", "arr_map"), "bogus", "0>0"),
    (("deltas", "m(m(|,|),|)=m(|,m(|,|))@3"), "9,9,9", "0>0"),
    (("identities",), "zz", "0>0"),
    (("interp",), "q", "2"),
    ((), "extra", 1)])
def test_strictify_refuses_an_entry_nothing_reads(capsys, tmp_path, where,
                                                  key, value):
    """One added entry that names no object tuple, object, operation or
    field leaves the bundled instance otherwise whole; it is refused,
    named, with exit 3."""
    data = json.loads((EXAMPLES / "indiscrete_monoid_weakcat.json")
                      .read_text(encoding="utf-8"))
    table = data
    for part in where:
        table = table[part]
    table[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run(capsys, "strictify", str(path))
    assert code == 3 and out == ""
    assert err.startswith("error:") and repr(key) in err


def test_strictify_refuses_an_interp_without_a_target(capsys, tmp_path):
    data = json.loads((EXAMPLES / "indiscrete_monoid_weakcat.json")
                      .read_text(encoding="utf-8"))
    del data["target"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert run(capsys, "strictify", str(path)) == (
        3, "", "error: field 'interp' given without a 'target'\n")


BUNDLED = (EXAMPLES / "indiscrete_monoid_weakcat.json").read_text(
    encoding="utf-8")
JUNK = st.one_of(st.none(), st.integers(-2, 2), st.text(max_size=4),
                 st.lists(st.text(max_size=2), max_size=2))


def _other_than(value, pool):
    return st.one_of(st.sampled_from(pool), JUNK).filter(
        lambda v: v != value)


@st.composite
def broken_instances(draw):
    """The bundled instance with one entry of compose, identities or
    arrows dropped, re-keyed or replaced, with an identity added for an
    unknown object, or with a bound that is not a positive integer or
    has no such name. Its base category is indiscrete, so every such
    change leaves the instance invalid."""
    data = json.loads(BUNDLED)
    ids = [a["id"] for a in data["arrows"]]
    field = draw(st.sampled_from(["compose", "identities", "arrows",
                                  "bounds"]))
    if field == "bounds":
        name = draw(st.sampled_from(["max_term_size", "max_steps", "bogus"]))
        values = st.one_of(JUNK, st.integers(-3, 0))
        if name != "bogus":
            values = values.filter(lambda v: type(v) is not int or v < 1)
        data["bounds"][name] = draw(values)
    elif field == "arrows":
        entries = data["arrows"]
        i = draw(st.integers(0, len(entries) - 1))
        how = draw(st.sampled_from(["drop", "replace", "edit"]))
        if how == "drop":
            del entries[i]
        elif how == "replace":
            entries[i] = draw(JUNK)
        else:
            part = draw(st.sampled_from(["id", "src", "dst"]))
            pool = ids if part == "id" else data["objects"]
            entries[i][part] = draw(_other_than(entries[i][part], pool))
    elif field == "identities" and draw(st.booleans()):
        unknown = st.text(max_size=6).filter(lambda k: k not in data["objects"])
        data["identities"][draw(unknown)] = draw(st.sampled_from(ids))
    else:
        table = data[field]
        key = draw(st.sampled_from(sorted(table)))
        how = draw(st.sampled_from(["drop", "rekey", "revalue"]))
        value = table.pop(key)
        if how == "rekey":
            table[draw(st.text(max_size=6).filter(lambda k: k != key))] \
                = value
        elif how == "revalue":
            table[key] = draw(_other_than(value, ids))
    return json.dumps(data, ensure_ascii=False)


@settings(max_examples=60, deadline=None)
@given(text=broken_instances())
def test_broken_base_category_exits_3(tmp_path_factory, text):
    with pytest.raises(WeakcatError):
        load_weakcat(text)
    path = tmp_path_factory.mktemp("broken") / "instance.json"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["strictify", str(path)])
    assert code == 3 and out.getvalue() == ""
    assert err.getvalue().startswith("error:")
