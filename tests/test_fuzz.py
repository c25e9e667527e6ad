"""Bounded fuzz of the parsers, the command line and the end-N kernels.
Every parser raises only its own error type on any text, the command
line exits 0-3 on any argv whose size flags stay small, with 3 for
malformed input, never with a traceback, and the end-N kernels agree
with the per-entry walks of tests/oracles.py on random tables."""

import contextlib
import io

import pytest
from conftest import EXAMPLES
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from operad_workbench.cli import main
from operad_workbench.clones import EndClone
from operad_workbench.finmaps import FinMapError, fn, parse_fn, parse_perm
from operad_workbench.operads import (EndOperad, FiniteOp, OperadError,
                                      builtin_operad, parse_poly)
from operad_workbench.terms import (PresentationError, Signature, TermError,
                                    parse_presentation, parse_term)
from operad_workbench.trees import (TreeError, parse_fp_tree,
                                    parse_permuted_tree, parse_tree)
from oracles import (end_act_walk, end_ccompose_walk, end_compose_walk,
                     end_proj_walk)

SIG = Signature((("m", 2), ("e", 0)))


@st.composite
def near(draw, samples, alphabet):
    """Random text over the grammar's characters, or a valid sample with
    one slice replaced by a few such characters."""
    if draw(st.booleans()):
        return draw(st.text(alphabet, max_size=30))
    text = draw(st.sampled_from(samples))
    i = draw(st.integers(0, len(text)))
    j = draw(st.integers(i, len(text)))
    return text[:i] + draw(st.text(alphabet, max_size=4)) + text[j:]


TERMS = ["m(x1,m(x2,x3))", "m(e,x1)", "x1", "e", "m(m(x1,x2),x3)", "m(x1"]
TREES = ["m(|,m(|,|))", "m(e,|)", "|", "e", "m(m(|,|),|)"]
PREFIXED = ["[2,1] m(|,|)", "[1,1->2] m(|,e)", "[] e", "[3,1,2] m(m(|,|),|)",
            "m(|,|)"]
FNS = ["[2,1,3]", "[2,1,1->3]", "[]", "[->2]", "[1]", "[0,1]", "[1,1]"]
POLYS = ["2*x1^2*x2 - 3", "x1 + x2", "-x1*x2", "0", "x1^0", "x3 - x3"]
THEORY = (EXAMPLES / "monoid.th").read_text(encoding="utf-8")
THEORIES = [THEORY, THEORY.replace("m : 2", "m : -1"),
            THEORY.replace("flavor plain", "flavor fp"),
            "theory T\nflavor plain\nops:\n  x1 : 1\n",
            "theory T\nflavor plain\nops:\n  f : 1\neqs:\n  @1: f(x2) = x1\n",
            "theory T\nflavor plain\nops:\n  theory_x : 1\n",
            "theory T\nflavor plain\nops:\n  flavored : 1\n",
            "theory T\nflavor plain\nops:\n  m : 2\neqs:\n"
            "  @1: m(x1,x1) = x1\n",
            "theory A\nflavor plain\nops:\n  m : 2\ntheory B\nflavor fp\n"
            "eqs:\n  @1: m(x1,x1) = x1\n"]
END_ELEMENTS = ["2:[1,2,2,1]", "0:[2]", "1:[1,2]", "21:[1]", "100000:[1]",
                "1000000000:[1]", "-1:[1]", "-1:[]", "-3:[1,2]"]
VECTORS = ["[1,2,0]", "[]", "[0]", "[-1]", "[1,,2]"]
PERMS = ["[2,1,3]", "[1]", "[]", "[1,1]", "[2,1->3]"]

# each parser with its one documented error type, the valid samples its
# inputs start from, and the characters of its grammar
PARSERS = {
    "parse_term": (lambda text: parse_term(text, SIG), TermError, TERMS,
                   "mex0123(),| "),
    "parse_term unsigned": (parse_term, TermError, TERMS, "mexf0123(),| "),
    "parse_tree": (lambda text: parse_tree(text, SIG), TreeError, TREES,
                   "me(),| x1"),
    "parse_permuted_tree": (lambda text: parse_permuted_tree(text, SIG),
                            TreeError, PREFIXED, "me(),|[]0123-> "),
    "parse_fp_tree": (lambda text: parse_fp_tree(text, SIG), TreeError,
                      PREFIXED, "me(),|[]0123-> "),
    "parse_fn": (parse_fn, FinMapError, FNS, "[]0123,-> x"),
    "parse_perm": (parse_perm, FinMapError, FNS, "[]0123,-> x"),
    "parse_poly": (parse_poly, OperadError, POLYS, "x0123^*+- "),
    "parse_presentation": (parse_presentation, PresentationError,
                           THEORIES, "\n :=@()mex12,#ops"),
    "end-2": (builtin_operad("end-2").parse_element, OperadError,
              END_ELEMENTS, "0123:[],- "),
    "end-3": (builtin_operad("end-3").parse_element, OperadError,
              END_ELEMENTS, "0123:[],- "),
    "comm-monoid-fp": (builtin_operad("comm-monoid-fp").parse_element,
                       OperadError, VECTORS, "0123[],- "),
    "symmetries": (builtin_operad("symmetries").parse_element, OperadError,
                   PERMS, "0123[],-> "),
}


@pytest.mark.parametrize("name", sorted(PARSERS))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_parsers_raise_only_their_documented_error(name, data):
    parse, error, samples, alphabet = PARSERS[name]
    text = data.draw(near(samples, alphabet), label="text")
    try:
        parse(text)
    except error as exc:
        if error is PresentationError:
            assert str(exc).startswith("line ") or str(exc) in (
                "missing theory line", "missing flavor line"), str(exc)


def test_oversized_end_arity_is_refused_without_its_power():
    """An arity over the table budget is refused with the budget's
    OperadError before its power is computed; formatting a power of
    over 4,300 digits into a message would raise a plain ValueError."""
    end3 = builtin_operad("end-3")
    for arity in (100000, 10 ** 9):
        with pytest.raises(OperadError, match=f"3\\^{arity} table entries"):
            end3.parse_element(f"{arity}:[1]")
    code, _, err = _run(["eval", str(EXAMPLES / "monoid.th"), "--target",
                         "end-3", "--arity", str(10 ** 9), "x1"])
    assert code == 3 and "3^1000000000 table entries" in err


THEORY_FILES = [str(EXAMPLES / name) for name in
                ("monoid.th", "comm_monoid.th", "pointed.th",
                 "unbiased_monoid.th")]
WEAKCAT = str(EXAMPLES / "indiscrete_monoid_weakcat.json")
TARGETS = ["end-2", "end-0", "comm-monoid-fp", "int-poly-fp", "symmetries",
           "terminal-plain", "initial", "free", "end-x"]
ARG_TERMS = TERMS + ["m(x2,x1)", "c", "x0", "m(e,e)"]
FLAGS = {"--json": None, "--target": st.sampled_from(TARGETS),
         "--arity": st.integers(-1, 3), "--max-size": st.integers(-1, 7),
         "--steps": st.integers(0, 50), "--arity-bound": st.integers(0, 2),
         "--element-bound": st.integers(0, 4)}
# per subcommand: its files, its count of term arguments, its required
# flags and the optional flags it takes besides --json
SHAPES = {
    "classify": (THEORY_FILES, 0, [], []),
    "term-info": (THEORY_FILES, 1, ["--arity"], []),
    "eval": (THEORY_FILES, 1, ["--target"], ["--arity"]),
    "decide": (THEORY_FILES, 2, [], ["--target", "--max-size", "--steps"]),
    "classes": (THEORY_FILES, 0, ["--arity"],
                ["--target", "--max-size", "--steps"]),
    "strictify": ([WEAKCAT], 0, [], ["--arity-bound", "--element-bound"]),
}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@st.composite
def argvs(draw):
    """A well-formed call of a subcommand with small size flags, half of
    the time broken by dropping, replacing or adding one argument."""
    command = draw(st.sampled_from(sorted(SHAPES) + ["perm"]))
    if command == "perm":
        argv = ["perm", "block-compose"]
        argv += draw(st.lists(st.sampled_from(PERMS), min_size=1,
                              max_size=4))
    else:
        files, terms, required, optional = SHAPES[command]
        argv = [command, draw(st.sampled_from(files))]
        argv += draw(st.lists(st.sampled_from(ARG_TERMS), min_size=terms,
                              max_size=terms))
        chosen = draw(st.lists(st.sampled_from(["--json", *optional]),
                               unique=True, max_size=3))
        for flag in required + chosen:
            argv.append(flag)
            if FLAGS[flag] is not None:
                argv.append(str(draw(FLAGS[flag])))
    how = draw(st.sampled_from(["keep", "drop", "replace", "add"]))
    at = draw(st.integers(0, len(argv) - 1))
    piece = draw(st.one_of(
        st.sampled_from([*FLAGS, str(EXAMPLES / "missing.th"), "bogus"]),
        near(TERMS, "mexc0123(),| ")))
    if how == "drop":
        del argv[at]
    elif how == "replace":
        argv[at] = piece
    elif how == "add":
        argv.insert(at, piece)
    return argv


@settings(max_examples=80, deadline=None)
@given(argv=argvs())
def test_cli_exits_0_to_3_on_any_small_argv(argv):
    code, _, err = _run(argv)
    assert code in (0, 1, 2, 3)
    if code == 3:
        assert err.startswith(("error:", "usage error:"))


@settings(max_examples=40, deadline=None)
@given(command=st.sampled_from(["term-info", "eval", "decide"]),
       text=near(TERMS, "mex0123(),| "))
def test_cli_exits_3_on_a_malformed_term(command, text):
    try:
        parse_term(text, SIG)
        assume(False)
    except TermError:
        pass
    extra = {"term-info": ["--arity", "2", text],
             "eval": ["--target", "end-2", text],
             "decide": [text, "x1"]}[command]
    code, out, err = _run([command, str(EXAMPLES / "monoid.th"), *extra])
    assert code == 3 and out == ""
    assert err.startswith(("error:", "usage error:"))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_end_kernels_match_the_walks_on_random_tables(data):
    """On a carrier of at most 3 and arities of at most 3: a composite,
    an action by any function, a substitution and a projection."""
    carrier = data.draw(st.integers(1, 3), label="carrier")

    def op(arity):
        size = carrier ** arity
        return FiniteOp(carrier, arity, tuple(data.draw(st.lists(
            st.integers(1, carrier), min_size=size, max_size=size))))

    n = data.draw(st.integers(0, 3), label="arity")
    p = op(n)
    qs = [op(k) for k in data.draw(st.lists(
        st.integers(0, 3), min_size=n, max_size=n), label="inner arities")]
    assert EndOperad(carrier).compose(p, qs).table == end_compose_walk(
        carrier, p.table, [q.table for q in qs])
    cod = data.draw(st.integers(1 if n else 0, 3), label="codomain")
    f = fn(tuple(data.draw(st.lists(st.integers(1, max(cod, 1)),
                                    min_size=n, max_size=n), label="f")), cod)
    assert EndOperad(carrier).act_fn(f, p).table == end_act_walk(
        carrier, f.table, f.cod, p.table)
    m = data.draw(st.integers(0, 3), label="context")
    rs = [op(m) for _ in range(n)]
    assert EndClone(carrier).ccompose(p, rs, context=m).table \
        == end_ccompose_walk(carrier, p.table, [r.table for r in rs], m)
    if n:
        i = data.draw(st.integers(1, n), label="projection")
        assert EndClone(carrier).proj(i, n).table \
            == end_proj_walk(carrier, i, n)
