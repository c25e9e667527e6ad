"""Operad targets: axiom suites, the builtin composition rules against
their oracles, and interpretation of presented theories."""

import itertools
import random
import re

import pytest
from conftest import comm_monoid_fp_context, random_poly

from operad_workbench import operads
from operad_workbench.finmaps import compose, fn, identity, inverse, perm
from operad_workbench.operads import (CheckReport, CommMonoidFPOperad,
                                      EndOperad, FiniteOp, FreeOperad,
                                      InitialOperad, Interpretation,
                                      IntPolyFPOperad, OperadError,
                                      SymmetryOperad, TerminalPlainOperad,
                                      TerminalSymmetricOperad,
                                      builtin_operad, default_assignment,
                                      eval_tree, format_poly,
                                      op_from_callable, operad_axiom_check,
                                      parse_poly, validate_interpretation)
from operad_workbench.terms import Signature, parse_term
from operad_workbench.trees import LEAF, Node, graft, parse_tree
from oracles import (EndTable, end_act, end_act_walk, end_compose,
                     end_compose_walk, finite_op_refusal, gather_by_entry,
                     oracle_block_compose, oracle_monoid_vector_act,
                     oracle_monoid_vector_compose, poly_eval)

SIG = Signature.of({"m": 2, "e": 0})


# instances checked per law at the default bounds
_FP_LAWS = {"action": 20, "associativity": 50, "combined-substitution": 112,
            "equivariance-inner": 24, "equivariance-outer": 84, "unit": 10}
AXIOM_COUNTS = {
    "terminal-plain": {"associativity": 13, "unit": 3},
    "terminal-symmetric": {"action": 5, "associativity": 13,
                           "equivariance-inner": 6, "equivariance-outer": 21,
                           "unit": 3},
    "initial": {"action": 1, "associativity": 1, "equivariance-inner": 1,
                "equivariance-outer": 1, "unit": 1},
    "symmetries": {"action": 9, "associativity": 22, "equivariance-inner": 10,
                   "equivariance-outer": 39, "unit": 4},
    "comm-monoid-fp": {**_FP_LAWS, "associativity": 49, "unit": 9},
    "int-poly-fp": _FP_LAWS,
    "end-2": _FP_LAWS,
}


@pytest.mark.parametrize("name", list(AXIOM_COUNTS))
def test_builtin_axiom_suites(name):
    report = operad_axiom_check(builtin_operad(name))
    assert report.ok, report.lines()
    assert report.checked == AXIOM_COUNTS[name]


def test_check_report_renders_descriptions_only_on_failure():
    report = CheckReport()
    report.check("unit", True, lambda: 1 / 0)
    report.check("unit", False, lambda: "2:[1,2,2,1]")
    report.note("unit", 2)
    report.fail("by hand")
    assert report.checked == {"unit": 4} and not report.ok
    assert report.lines() == ["ok unit: 4 instances",
                              "FAIL unit: 2:[1,2,2,1]", "FAIL by hand"]
    assert CheckReport().ok and CheckReport().lines() == []


@pytest.mark.parametrize("name", [*AXIOM_COUNTS, "free"])
@pytest.mark.parametrize("junk", ["2:[1,x]", "1:[1,,2]", "2:[1 2]",
                                  "2:[1,x,2,1]"])
def test_parse_element_raises_only_operad_error(name, junk, monoid):
    with pytest.raises(OperadError):
        builtin_operad(name, monoid).parse_element(junk)


@pytest.mark.parametrize("flavor", ["plain", "symmetric", "fp"])
def test_free_operad_axiom_suite(flavor):
    report = operad_axiom_check(FreeOperad(SIG, flavor))
    assert report.ok, report.lines()


def all_perms(n):
    return [perm(p) for p in itertools.permutations(range(1, n + 1))]


def test_symmetry_compose_matches_oracle():
    operad = SymmetryOperad()
    for n in range(0, 4):
        for sigma in all_perms(n):
            for ks in itertools.product(range(0, 4), repeat=n):
                for taus in itertools.product(*(all_perms(k) for k in ks)):
                    got = operad.compose(sigma, list(taus))
                    want = oracle_block_compose(
                        sigma.table, [t.table for t in taus])
                    assert got.table == want


def test_symmetry_action_is_substitutional():
    operad = SymmetryOperad()
    for tau in all_perms(3):
        for sigma in all_perms(3):
            assert operad.act_perm(sigma, tau) == compose(tau, inverse(sigma))
    with pytest.raises(OperadError):
        operad.act_fn(fn((1, 1), cod=1), perm((1, 2)))


def vectors(arity, entry_bound=2):
    return list(itertools.product(range(entry_bound + 1), repeat=arity))


def test_comm_monoid_compose_matches_oracle():
    operad = CommMonoidFPOperad()
    for n in range(0, 3):
        for p in vectors(n):
            for ks in itertools.product(range(0, 3), repeat=n):
                for qs in itertools.product(*(vectors(k) for k in ks)):
                    got = operad.compose(p, list(qs))
                    assert got == oracle_monoid_vector_compose(p, list(qs))


def test_comm_monoid_act_matches_oracle():
    operad = CommMonoidFPOperad()
    for n in range(0, 4):
        for m in range(0, 4):
            for table in itertools.product(range(1, m + 1), repeat=n):
                f = fn(table, cod=m) if n else fn((), cod=m)
                for p in vectors(n):
                    got = operad.act_fn(f, p)
                    assert got == oracle_monoid_vector_act(table, m, p)
    with pytest.raises(OperadError,
                       match="^action domain 2 does not match arity 1$"):
        operad.act_fn(fn((1, 1), cod=1), (1,))


def test_int_poly_substitution_homomorphism():
    operad = IntPolyFPOperad()
    rng = random.Random(20260816)
    for _ in range(5):
        n = rng.randint(0, 2)
        p = random_poly(rng, n)
        qs = [random_poly(rng, rng.randint(0, 2)) for _ in range(n)]
        composite = operad.compose(p, qs)
        points = [[rng.randint(-4, 4) for _ in range(q.nvars)] for q in qs]
        flat = [x for chunk in points for x in chunk]
        inner_values = [q.evaluate(pt) for q, pt in zip(qs, points)]
        assert composite.evaluate(flat) == p.evaluate(inner_values)


def test_int_poly_action_relabels_variables():
    operad = IntPolyFPOperad()
    rng = random.Random(7)
    for _ in range(5):
        p = random_poly(rng, 2)
        f = fn((2, 2), cod=3)
        acted = operad.act_fn(f, p)
        for point in itertools.product(range(-2, 3), repeat=3):
            pulled = [point[f(i) - 1] for i in range(1, 3)]
            assert acted.evaluate(list(point)) == p.evaluate(pulled)


def test_poly_evaluate_matches_oracle():
    p = parse_poly("2x1^2x2 - x2 + 3")
    for point in itertools.product(range(-3, 4), repeat=2):
        sparse = {e: c for e, c in p.terms}
        assert p.evaluate(list(point)) == poly_eval(sparse, point)


def test_poly_parse_format_roundtrip():
    for text in ("0", "1", "x1", "2x1^2x2 - x2 + 3", "-x1 + x2"):
        p = parse_poly(text)
        assert parse_poly(format_poly(p)) == p


def as_end_table(op: FiniteOp) -> EndTable:
    return EndTable(op.carrier, op.arity,
                    lambda *args: op([a + 1 for a in args]) - 1)


def end_tables_equal(a: FiniteOp, b: EndTable) -> bool:
    return as_end_table(a) == b


def test_end_operad_matches_oracle():
    operad = EndOperad(2)
    pools = {k: operad.enumerate_elements(k, 16) for k in range(0, 3)}
    for p in pools[2]:
        for qs in itertools.product(pools[1] + pools[0], repeat=2):
            got = operad.compose(p, list(qs))
            want = end_compose(2, as_end_table(p),
                               [as_end_table(q) for q in qs])
            assert end_tables_equal(got, want)
    f = fn((2, 1, 2), cod=2)
    for p in operad.enumerate_elements(3, 27):
        got = operad.act_fn(f, p)
        want = end_act(2, f.table, f.cod, as_end_table(p))
        assert end_tables_equal(got, want)


def random_end_op(rng, carrier, arity) -> FiniteOp:
    return FiniteOp(carrier, arity,
                    tuple(rng.randint(1, carrier) for _ in range(carrier ** arity)))


def test_end_operad_compose_edges_match_oracle():
    # the stride-indexed table at its edges: an outer op of arity 0,
    # nullary inner ops, carrier 1, mixed inner arities in end-2 and end-3
    rng = random.Random(5)
    cases = [(2, 0, ()), (3, 0, ()), (2, 2, (0, 0)), (3, 2, (0, 2)),
             (1, 2, (0, 3)), (1, 0, ()), (1, 3, (2, 0, 1)),
             (2, 3, (2, 0, 1)), (3, 3, (1, 2, 0)), (3, 2, (3, 1)),
             (2, 4, (0, 3, 0, 1))]
    for carrier, arity, inner in cases:
        operad = EndOperad(carrier)
        for _ in range(3):
            p = random_end_op(rng, carrier, arity)
            qs = [random_end_op(rng, carrier, k) for k in inner]
            got = operad.compose(p, qs)
            assert got.arity == sum(inner)
            want = end_compose(carrier, as_end_table(p),
                               [as_end_table(q) for q in qs])
            assert end_tables_equal(got, want), (carrier, arity, inner)


def test_end_operad_compose_rejects_mismatches():
    operad = EndOperad(2)
    p = FiniteOp(2, 2, (1, 2, 2, 1))
    q = FiniteOp(2, 1, (2, 1))
    with pytest.raises(OperadError,
                       match="^composition needs 2 arguments, got 1$"):
        operad.compose(p, [q])
    with pytest.raises(OperadError, match="^carrier mismatch$"):
        operad.compose(p, [q, FiniteOp(3, 1, (1, 2, 3))])
    with pytest.raises(OperadError, match="^carrier mismatch$"):
        operad.compose(FiniteOp(3, 2, (1,) * 9), [q, q])


def test_end_tables_over_the_budget_are_refused_before_they_are_built():
    def never(*args):
        raise AssertionError("a refused table was filled")

    end2, end4 = EndOperad(2), EndOperad(4)
    # the inner tables are within the budget, their composite is not
    p = op_from_callable(4, 2, max)
    qs = [op_from_callable(4, 5, lambda *args: args[0]),
          op_from_callable(4, 6, lambda *args: args[-1])]
    for refused, carrier, arity in (
            (lambda: op_from_callable(2, 21, never), 2, 21),
            (lambda: end2.enumerate_elements(21, 1), 2, 21),
            (lambda: end2.act_fn(fn((1,), cod=21), FiniteOp(2, 1, (2, 1))),
             2, 21),
            (lambda: end4.compose(p, qs), 4, 11)):
        with pytest.raises(OperadError) as info:
            refused()
        assert str(info.value) == (
            f"an operation of arity {arity} on {carrier} elements needs "
            f"{carrier}^{arity} table entries, over the budget of 1048576")
    assert len(end4.compose(p, [qs[0], end4.identity()]).table) == 4 ** 6


@pytest.mark.parametrize("call", [
    lambda: EndOperad(3).parse_element("-1:[1]"),
    lambda: FiniteOp(3, -1, (1,)),
    lambda: op_from_callable(2, -1, lambda: 1),
    lambda: EndOperad(2).enumerate_elements(-1, 3)])
def test_negative_end_arities_are_refused_by_name(call):
    with pytest.raises(OperadError, match="^negative arity -1$"):
        call()


def functions_out_of(dom, max_cod):
    """Every finite function out of dom into a codomain of at most
    max_cod: the non-injective, the non-surjective and, for dom 0, the
    empty ones."""
    return [fn(table, cod) for cod in range(max_cod + 1)
            for table in itertools.product(range(1, cod + 1), repeat=dom)]


def assert_valid_op(got):
    """An end-N result built without a scan passes the validating
    constructor and equals what it builds."""
    assert FiniteOp(got.carrier, got.arity, got.table) == got


def assert_compose_matches_walk(operad, p, qs):
    got = operad.compose(p, qs)
    assert got.arity == sum(q.arity for q in qs)
    assert got.table == end_compose_walk(operad.carrier, p.table,
                                         [q.table for q in qs])
    assert_valid_op(got)


def assert_act_matches_walk(operad, f, p):
    got = operad.act_fn(f, p)
    assert got.arity == f.cod
    assert got.table == end_act_walk(operad.carrier, f.table, f.cod, p.table)
    assert_valid_op(got)


@pytest.mark.parametrize("carrier", [1, 2, 3])
def test_end_kernels_match_the_walks_on_every_small_element(carrier):
    """Every element of arity 0-2 is composed as the outer element, and
    the inner elements cycle through all of them; every element is acted
    on by one function of a cycle through all functions out of its arity
    into arities 0-3, and every such function acts on the first and last
    element."""
    operad = EndOperad(carrier)
    assert_valid_op(operad.identity())
    elements = {n: operad.enumerate_elements(n, carrier ** carrier ** n)
                for n in range(3)}
    inner = itertools.cycle([q for n in range(3) for q in elements[n]])
    for n in range(3):
        fns = functions_out_of(n, 3)
        for k, p in enumerate(elements[n]):
            assert_compose_matches_walk(operad, p,
                                        [next(inner) for _ in range(n)])
            assert_act_matches_walk(operad, fns[k % len(fns)], p)
        for f in fns:
            for p in (elements[n][0], elements[n][-1]):
                assert_act_matches_walk(operad, f, p)


def test_end_kernels_match_the_walks_at_arity_3():
    """A seeded pool up to arity 3: every inner arity tuple of total at
    most 6 under each ternary element, nullary outer and inner elements,
    and every function out of arity 3."""
    rng = random.Random(19)
    for carrier in (1, 2, 3):
        operad = EndOperad(carrier)
        pool = {n: [random_end_op(rng, carrier, n) for _ in range(3)]
                for n in range(4)}
        for p in pool[0]:
            assert_compose_matches_walk(operad, p, [])
        for n in (1, 2, 3):
            for ks in itertools.product(range(4), repeat=n):
                if sum(ks) > 6:
                    continue
                for p in pool[n]:
                    assert_compose_matches_walk(
                        operad, p, [rng.choice(pool[k]) for k in ks])
        for f in functions_out_of(3, 3):
            for p in pool[3]:
                assert_act_matches_walk(operad, f, p)
        for f in functions_out_of(0, 3):
            for p in pool[0]:
                assert_act_matches_walk(operad, f, p)


@pytest.mark.parametrize("carrier, arity, table, message", [
    (2, 1, (0, 1), "table values must lie in the carrier"),
    (3, 1, (1, 4, 2), "table values must lie in the carrier"),
    (2, 2, (1, 2, 1), "table needs 4 entries, got 3"),
    (2, 1, (), "table needs 2 entries, got 0")])
def test_finite_op_refusals_keep_their_messages(carrier, arity, table,
                                                message):
    assert finite_op_refusal(carrier, arity, table) == message
    with pytest.raises(OperadError, match=f"^{re.escape(message)}$"):
        FiniteOp(carrier, arity, table)


def test_finite_op_refuses_what_the_per_entry_check_refused():
    """A seeded sweep of tables near the right length with values just
    outside the carrier, including the empty carrier, against the
    per-entry check's verdicts and messages."""
    rng = random.Random(23)
    verdicts = set()
    for _ in range(3000):
        carrier = rng.randint(0, 3)
        arity = rng.randint(0, 2)
        length = max(0, carrier ** arity + rng.choice((-1, 0, 0, 0, 1)))
        table = tuple(rng.randint(-1, carrier + 1) if rng.random() < 0.1
                      else rng.randint(1, max(carrier, 1))
                      for _ in range(length))
        want = finite_op_refusal(carrier, arity, table)
        try:
            FiniteOp(carrier, arity, table)
            got = None
        except OperadError as exc:
            got = str(exc)
        assert got == want, (carrier, arity, table)
        verdicts.add(want is None)
    assert verdicts == {True, False}


def test_end_tables_past_the_budget_are_refused_before_any_gather(
        monkeypatch):
    """Counted on a lowered budget, so no table past the real one is
    ever allocated: a refused composite or action reaches no gather."""
    gathered = []
    gather = operads._gather
    monkeypatch.setattr(operads, "_gather", lambda table, columns:
                        gathered.append(len(columns))
                        or gather(table, columns))
    monkeypatch.setattr(operads, "_TABLE_ENTRIES", 16)
    end2 = EndOperad(2)
    p = FiniteOp(2, 2, (1, 2, 2, 1))
    q = FiniteOp(2, 3, (1, 2) * 4)
    for refused, message in (
            (lambda: end2.compose(p, [q, q]), "an operation of arity 6 on "
             "2 elements needs 2^6 table entries, over the budget of 16"),
            (lambda: end2.act_fn(fn((1, 2), cod=5), p), "an operation of "
             "arity 5 on 2 elements needs 2^5 table entries, over the "
             "budget of 16"),
            (lambda: end2.compose(p, [q, FiniteOp(3, 1, (1, 2, 3))]),
             "carrier mismatch"),
            (lambda: end2.act_fn(fn((1,), cod=1), p),
             "action domain 1 does not match arity 2")):
        with pytest.raises(OperadError) as info:
            refused()
        assert str(info.value) == message
    assert gathered == []
    assert len(end2.compose(p, [q, end2.identity()]).table) == 16
    assert len(end2.act_fn(fn((1, 4), cod=4), p).table) == 16
    assert gathered == [2, 4]


@pytest.mark.parametrize("lengths", [
    (), (1,), (2,), (9,), (27,), (1, 1), (3, 9), (9, 3), (3, 1, 3),
    (27, 27), (3, 3, 3, 3), (1, 27, 1), (8, 1, 8)])
def test_gather_matches_the_entry_by_entry_reading(lengths):
    """Columns of each length, dense (small entries, as a composite's)
    and sparse (strided, as an action's), against the one-subscript-
    per-entry oracle, on a table that reaches the largest sum."""
    rng = random.Random(31)
    for span in (1, 3, 40):
        for _ in range(5):
            columns = [[rng.randrange(span) * rng.choice((1, span))
                        for _ in range(k)] for k in lengths]
            size = sum(max(c) for c in columns) + 1
            table = tuple(rng.randint(1, 3) for _ in range(size))
            assert operads._gather(table, columns) == \
                gather_by_entry(table, columns)


def test_free_operad_composes_by_grafting():
    free = FreeOperad(SIG, "plain")
    x = parse_tree("m(|,m(|,|))", SIG)
    ys = [LEAF, parse_tree("e", SIG), parse_tree("m(|,|)", SIG)]
    assert free.compose(x, ys) == graft(x, ys)
    assert free.identity() == LEAF
    assert free.generator("m") == Node("m", (LEAF, LEAF))
    assert free.arity_of(free.compose(x, ys)) == 3


def test_free_plain_operad_has_no_function_action():
    free = FreeOperad(SIG, "plain")
    with pytest.raises(OperadError,
                       match="^free-plain has no finite-function action$"):
        free.act_fn(fn((1, 1), cod=1), parse_tree("m(|,|)", SIG))


def test_eval_tree_is_a_homomorphism():
    operad = CommMonoidFPOperad()
    assignment = {"m": (1, 1), "e": ()}
    outer = parse_tree("m(|,|)", SIG)
    inner = [parse_tree("m(|,e)", SIG), parse_tree("m(|,|)", SIG)]
    direct = eval_tree(graft(outer, inner), assignment, operad)
    routed = operad.compose(
        eval_tree(outer, assignment, operad),
        [eval_tree(t, assignment, operad) for t in inner])
    assert direct == routed == (1, 1, 1)


def test_interpretation_evaluates_terms(comm_monoid):
    ctx = comm_monoid_fp_context(comm_monoid)
    interp = ctx.interpretation
    assert interp.eval_term(parse_term("m(x1,m(x2,x2))"), 3) == (1, 2, 0)
    assert interp.eval_term(parse_term("m(x2,x1)"), 2) == (1, 1)
    assert interp.eval_term(parse_term("e"), 0) == ()


def test_validate_interpretation_detects_broken_assignment(comm_monoid):
    good = comm_monoid_fp_context(comm_monoid).interpretation
    report = validate_interpretation(good)
    assert isinstance(report, CheckReport) and report.ok
    assert report.checked == {"equation": 4}
    assert report.lines() == ["ok equation: 4 instances"]
    operad = CommMonoidFPOperad()
    bad = Interpretation(comm_monoid, operad, {"m": (1, 2), "e": ()})
    report = validate_interpretation(bad)
    assert not report.ok
    assert report.checked == {"equation": 4}
    assert report.failures == [
        "fails m(m(x1,x2),x3) = m(x1,m(x2,x3)) @3: [1,2,2] != [1,2,4]",
        "fails m(e,x1) = x1 @1: [2] != [1]",
        "fails m(x1,x2) = m(x2,x1) @2: [1,2] != [2,1]"]


def test_interpretation_guards(monoid, comm_monoid):
    operad = CommMonoidFPOperad()
    with pytest.raises(OperadError):
        Interpretation(monoid, operad, {"m": (1, 1, 1), "e": ()})
    with pytest.raises(OperadError):
        Interpretation(monoid, operad, {"m": (1, 1)})
    with pytest.raises(OperadError):
        Interpretation(comm_monoid, TerminalPlainOperad(),
                       {"m": 2, "e": 0})


def test_default_assignments(monoid, comm_monoid):
    assert default_assignment(monoid, TerminalPlainOperad()) \
        == {"m": 2, "e": 0}
    assert default_assignment(comm_monoid, SymmetryOperad()) \
        == {"m": identity(2), "e": identity(0)}
    assert default_assignment(comm_monoid, CommMonoidFPOperad()) \
        == {"m": (1, 1), "e": ()}
    free = FreeOperad(SIG, "plain")
    assert default_assignment(monoid, free)["m"] == free.generator("m")


def test_builtin_lookup_errors():
    with pytest.raises(OperadError):
        builtin_operad("no-such-operad")
    with pytest.raises(OperadError):
        builtin_operad("free")
    assert builtin_operad("end-3").name == "end-3"


@pytest.mark.parametrize("operad", [
    TerminalSymmetricOperad(), InitialOperad(), SymmetryOperad(),
    FreeOperad(SIG, "symmetric")], ids=lambda operad: operad.name)
def test_symmetric_operads_act_only_by_permutations(operad):
    p = operad.identity()
    with pytest.raises(OperadError,
                       match=f"^{operad.name} only acts by permutations$"):
        operad.act_fn(fn((1,), cod=2), p)
    with pytest.raises(OperadError,
                       match="^action domain 2 does not match arity 1$"):
        operad.act_fn(fn((1, 1), cod=1), p)


def test_terminal_symmetric_rejects_non_bijections():
    operad = TerminalSymmetricOperad()
    with pytest.raises(OperadError):
        operad.act_fn(fn((1, 1), cod=1), 2)
    assert operad.act_fn(perm((2, 1)), 2) == 2
