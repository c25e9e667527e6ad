"""Terms, classification, enumeration, and the bounded equality
closure, checked against the brute-force rewriting oracle."""

import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (EXAMPLES, from_oracle, is_linear, is_run,
                      replay_chain, to_oracle)
from operad_workbench import terms
from operad_workbench.finmaps import fn
from operad_workbench.terms import (App, Equation, GENERAL, LINEAR,
                                    MAX_STEPS, Presentation,
                                    PresentationError, STRONGLY_REGULAR,
                                    SaturationResult, Signature, TermError,
                                    Var, _FITS, _congruence_fixpoint,
                                    _seed_instances, classify_equation,
                                    classify_presentation, classify_term,
                                    closure_saturate, enumerate_terms,
                                    format_equation, format_term, label_fn,
                                    max_var, parse_presentation, parse_term,
                                    replace_at, subterm_at, substitute,
                                    support, term_size, var_seq)
from oracles import (comm_monoid_normal_form, enumerate_terms_brute,
                     monoid_normal_form, naive_equality_closure,
                     recursive_seed_instances)

SIG = Signature.of({"m": 2, "e": 0})


def t(text):
    return parse_term(text, SIG)


def test_parse_format_roundtrip():
    for text in ("x1", "e", "m(x1,x2)", "m(m(x1,e),m(e,x2))", "m(e,e)"):
        assert format_term(t(text)) == text
        assert t(format_term(t(text))) == t(text)


def test_parse_errors():
    for bad in ("", "m(x1", "m(x1,)", "x0", "m(x1,x2) junk", "f(x1)"):
        with pytest.raises(TermError):
            t(bad)
    # the operation check the tree parser shares, column included
    for bad, message in (
            ("f(x1)", "unknown operation 'f' at column 6"),
            ("m(x1)", "operation 'm' expects 2 arguments, got 1 at column 6"),
            ("m", "operation 'm' expects 2 arguments, got 0 at column 2"),
            (" m(x1, m(e) )",
             "operation 'm' expects 2 arguments, got 1 at column 12"),
            ("m(x1,e(e))",
             "operation 'e' expects 0 arguments, got 1 at column 10")):
        with pytest.raises(TermError) as info:
            t(bad)
        assert str(info.value) == f"{message} in {bad!r}"
    # without a signature, arities are free but names still matter
    assert parse_term("f(x1,x2,x3)") == App("f", (Var(1), Var(2), Var(3)))


def test_size_and_variables():
    term = t("m(m(x1,e),m(e,x2))")
    assert term_size(term) == 7
    assert var_seq(term) == (1, 2)
    assert support(t("m(x2,m(x2,x1))")) == frozenset({1, 2})
    assert max_var(t("e")) == 0
    assert label_fn(t("m(x2,m(x2,x1))"), 2) == fn((2, 2, 1), cod=2)
    with pytest.raises(TermError):
        label_fn(t("x3"), 2)


def test_classify_term():
    assert classify_term(t("m(x1,x2)"), 2) == STRONGLY_REGULAR
    assert classify_term(t("m(x2,x1)"), 2) == LINEAR
    assert classify_term(t("m(x1,x1)"), 1) == GENERAL
    # dropped variables are as non-bijective as repeated ones
    assert classify_term(t("x1"), 2) == GENERAL


def test_classify_equation_associativity_variants():
    assoc3 = Equation(3, t("m(m(x1,x2),x3)"), t("m(x1,m(x2,x3))"))
    assert classify_equation(assoc3) == STRONGLY_REGULAR
    assoc4 = Equation(4, t("m(m(x1,x2),x3)"), t("m(x1,m(x2,x3))"))
    assert classify_equation(assoc4) == GENERAL
    comm = Equation(2, t("m(x1,x2)"), t("m(x2,x1)"))
    assert classify_equation(comm) == LINEAR


def test_classify_presentations(monoid, comm_monoid, pointed, trivial):
    assert classify_presentation(monoid) == STRONGLY_REGULAR
    assert classify_presentation(comm_monoid) == LINEAR
    assert classify_presentation(pointed) == STRONGLY_REGULAR
    assert classify_presentation(trivial) == STRONGLY_REGULAR


def test_presentation_flavor_gates():
    comm = Equation(2, t("m(x1,x2)"), t("m(x2,x1)"))
    dup = Equation(1, t("m(x1,x1)"), t("x1"))
    with pytest.raises(PresentationError):
        Presentation("Bad", "plain", SIG, (comm,))
    with pytest.raises(PresentationError):
        Presentation("Bad", "symmetric", SIG, (dup,))
    Presentation("Ok", "symmetric", SIG, (comm,))
    Presentation("Ok", "fp", SIG, (dup,))


@pytest.mark.parametrize("left, right, checks", [
    ("m(m(x1,x2),x3)", "m(x1,m(x2,x3))", 3), ("m(x1,x2)", "e", 3)])
def test_a_decide_checks_each_flavor_once_per_parse(
        left, right, checks, monkeypatch, capsys):
    """A decide on monoid.th checks each of its three equations' flavor
    once, at its line in parse_presentation: the Presentation the parser
    builds does not check them again, and closure_saturate trusts the
    presentation, so the same-arity query, which saturates, makes as
    many checks as the cross-arity one, which does not. A direct
    Presentation still checks them. Before, the closure checked each
    again, for 6 and 3 checks."""
    from operad_workbench.cli import main
    seen = []
    check = terms._check_flavor
    monkeypatch.setattr(terms, "_check_flavor",
                        lambda *args: seen.append(args) or check(*args))
    main(["decide", str(EXAMPLES / "monoid.th"), left, right])
    assert len(seen) == checks
    comm = Equation(2, t("m(x1,x2)"), t("m(x2,x1)"))
    with pytest.raises(PresentationError):
        Presentation("Bad", "plain", SIG, (comm,))
    with pytest.raises(TermError, match="unknown operation 'q'"):
        Presentation("Bad", "plain", SIG, (Equation(1, t("x1"),
                                                    App("q", (Var(1),))),))
    capsys.readouterr()


def test_presentation_parse_errors():
    with pytest.raises(PresentationError):
        parse_presentation("flavor plain\nops:\n")
    with pytest.raises(PresentationError):
        parse_presentation("theory X\nops:\n")
    with pytest.raises(PresentationError):
        parse_presentation("theory X\nflavor odd\nops:\n")


@pytest.mark.parametrize("op", ["theory_x", "flavored"])
def test_header_keywords_match_only_the_whole_first_word(op):
    text = f"theory T\nflavor plain\nops:\n  m : 2\n  {op} : 1\n"
    p = parse_presentation(text)
    assert p.name == "T" and p.flavor == "plain"
    assert p.signature.ops == (("m", 2), (op, 1))


def test_equation_without_an_arity_takes_its_largest_variable():
    p = parse_presentation(
        "theory T\nflavor plain\nops:\n  m : 2\n  e : 0\neqs:\n"
        "  m(m(x1,x2),x3) = m(x1,m(x2,x3))\n  m(e,x1) = x1\n"
        "  m(e,e) = e\n  @2: m(x1,x2) = m(x1,m(e,x2))\n")
    assert [eq.arity for eq in p.equations] == [3, 1, 0, 2]


def test_equation_arity_guard():
    with pytest.raises(TermError):
        Equation(1, t("m(x1,x2)"), t("x1"))


def _oracle_vars(u) -> list[int]:
    if u[0] == "var":
        return [u[1]]
    return [v for child in u[2] for v in _oracle_vars(child)]


def _size_text(u):
    return term_size(u), format_term(u)


def test_enumerate_terms_matches_brute_oracle():
    for ops, arity, size in itertools.product(
            ({"m": 2, "e": 0}, {"f": 3, "g": 1, "e": 0}), range(4), range(7)):
        sig = Signature.of(ops)
        full = enumerate_terms(sig, arity, size)
        want = set(enumerate_terms_brute(ops, arity, size))
        assert {to_oracle(u) for u in full} == want, (ops, arity, size)
        linear = enumerate_terms(sig, arity, size, flavor="symmetric")
        distinct = [u for u in want if is_linear(_oracle_vars(u))]
        assert sorted(to_oracle(u) for u in linear) == sorted(distinct)
        # the (size, text) order, so the linear terms keep their
        # relative order from the full list
        keys = [_size_text(u) for u in linear]
        assert keys == sorted(keys)
        assert linear == [u for u in full if is_linear(var_seq(u))]
        # the runs: x_i..x_j in order, or no variable at all
        runs = enumerate_terms(sig, arity, size, flavor="plain")
        assert runs == sorted((from_oracle(u) for u in want
                               if is_run(_oracle_vars(u))), key=_size_text)
        assert runs == [u for u in linear if is_run(var_seq(u))]


@pytest.mark.parametrize("flavor", ["fp", "symmetric", "plain"])
def test_enumerate_terms_records_the_node_table(flavor):
    for ops, arity, size in (({"m": 2, "e": 0}, 3, 7),
                             ({"f": 3, "g": 1, "e": 0}, 2, 6)):
        table = enumerate_terms(Signature.of(ops), arity, size, flavor)
        ids = {u: i for i, u in enumerate(table)}
        assert len(table.nodes) == len(table.sizes) == len(table.masks) \
            == len(table) == len(ids)
        for i, u in enumerate(table):
            if isinstance(u, Var):
                assert table.nodes[i] == (u.index, ())
            else:
                assert table.nodes[i] == (u.op, tuple(ids[a] for a in u.args))
            assert table.sizes[i] == term_size(u)
            assert {v for v in range(arity + 1)
                    if table.masks[i] >> v & 1} == support(u)


def test_positions_and_replacement():
    term = t("m(m(x1,e),x2)")
    assert subterm_at(term, (0, 1)) == t("e")
    assert replace_at(term, (0, 1), t("m(e,e)")) == t("m(m(x1,m(e,e)),x2)")
    for p in ((), (0,), (0, 0), (0, 1), (1,)):
        assert replace_at(term, p, subterm_at(term, p)) == term


def test_graft_substitute_rename():
    term = t("m(x1,m(x2,x1))")
    assert substitute(term, {1: t("e"), 2: t("x2")}) == t("m(e,m(x2,e))")
    with pytest.raises(TermError):
        substitute(term, {1: t("e")})


def monoid_saturation(monoid, arity, size=7):
    return closure_saturate(replace(monoid, flavor="fp"), arity=arity,
                            max_term_size=size)


def test_closure_merges_unit_padding(monoid):
    sat = monoid_saturation(monoid, arity=1)
    a, b = t("m(e,m(x1,e))"), t("x1")
    assert sat.same(a, b)
    chain = sat.explain(a, b)
    replay_chain(monoid.equations, chain, a, b)
    assert not sat.exhausted


def test_closure_matches_naive_oracle(monoid, comm_monoid, pointed):
    for pres, arity, size in ((monoid, 1, 5), (monoid, 2, 5),
                              (comm_monoid, 2, 5), (pointed, 2, 7),
                              (pointed, 3, 9)):
        sat = closure_saturate(replace(pres, flavor="fp"), arity=arity,
                               max_term_size=size)
        universe = enumerate_terms(pres.signature, arity, size)
        oracle_classes = naive_equality_closure(
            [(to_oracle(eq.lhs), to_oracle(eq.rhs)) for eq in pres.equations],
            [to_oracle(u) for u in universe])
        for a in universe:
            for b in universe:
                assert sat.same(a, b) == (
                    to_oracle(b) in oracle_classes[to_oracle(a)]), (a, b)


def test_class_edges_span_the_class_once(monoid, comm_monoid):
    for pres, arity in ((monoid, 3), (comm_monoid, 2), (monoid, 0)):
        sat = closure_saturate(replace(pres, flavor="fp"), arity=arity,
                               max_term_size=7)
        ids = {u: i for i, u in enumerate(sat.terms)}
        for batch in sat.classes():
            start = batch[-1]
            edges = sat.class_edges(start)
            stamps = {stamp for u in batch
                      for _, _, stamp in sat.edges[ids[u]]}
            assert len(edges) == len(stamps)
            reached = [ids[start]]
            for link in edges:
                u, v = link[:2]
                assert u in reached
                replay_chain(pres.equations, sat._expand(*link),
                             sat.terms[u], sat.terms[v])
                if v not in reached:
                    reached.append(v)
            assert [sat.terms[i] for i in sorted(reached)] == batch


def test_no_merge_edge_is_recorded_twice():
    # the congruence rounds meet each (anchor, member) pair again after
    # its first union; no pair may be joined twice for the same reason
    for path in sorted(EXAMPLES.glob("*.th")):
        pres = parse_presentation(path.read_text())
        for arity, size in enumerate((7, 7, 7, 6)):
            sat = closure_saturate(pres, arity, size)
            joins = {(min(a, b), max(a, b), reason)
                     for a, edges in enumerate(sat.edges)
                     for b, reason, _ in edges}
            assert len(joins) == sat.unions, (path.name, arity)


# (theory, arity, cap): the three bundled theories with equations of
# two and three variables, and one larger run universe
SEEDER_CASES = [(name, arity, cap)
                for name in ("monoid", "comm_monoid", "unbiased_monoid")
                for arity in range(4) for cap in (7, 9)] + [("monoid", 3, 11)]


def _seeded_state(sat, left):
    return [list(e) for e in sat.edges], list(sat.parent), sat.unions, left


@pytest.mark.parametrize("budget", [1, 7, 100, MAX_STEPS])
def test_seeder_matches_the_recursive_oracle(budget, request, monkeypatch):
    """The seeder looks each side up through compiled per-variable
    steps; the old seeder built both sides recursively from a binding
    dict at every full binding. Both must leave the same merge graph,
    union-find and budget, after seeding and after the congruence
    fixpoint."""
    seeded = []

    def recording(sat, *args):
        left = _seed_instances(sat, *args)
        seeded.append((sat.terms, _seeded_state(sat, left)))
        return left

    monkeypatch.setattr(terms, "_seed_instances", recording)
    for name, arity, cap in SEEDER_CASES:
        pres = request.getfixturevalue(name)
        sat = closure_saturate(pres, arity, cap, budget)
        universe, state = seeded.pop()
        oracle = SaturationResult(universe)
        left = recursive_seed_instances(oracle, pres.equations, cap, budget,
                                        _FITS[pres.flavor])
        assert state == _seeded_state(oracle, left), (name, arity, cap)
        if left > 0:
            left = _congruence_fixpoint(oracle, left)
        assert (sat.edges, sat.parent, sat.unions, sat.exhausted) == (
            oracle.edges, oracle.parent, oracle.unions, left <= 0), (
                name, arity, cap)


def test_anchor_is_constant_on_every_class(monoid, comm_monoid):
    # (universe size, class count) at arities 0..3 and size 7
    pinned = {monoid: [(9, 1), (102, 5), (471, 31), (1428, 121)],
              comm_monoid: [(9, 1), (102, 5), (471, 15), (1428, 35)]}
    for pres, pins in pinned.items():
        for arity, pin in enumerate(pins):
            sat = closure_saturate(replace(pres, flavor="fp"), arity=arity,
                                   max_term_size=7)
            classes = sat.classes()
            assert (len(sat.terms), len(classes)) == pin
            assert sum(map(len, classes)) == len(sat.terms)
            anchors = set()
            for batch in classes:
                anchor = sat.anchor(batch[0])
                assert anchor in batch
                assert all(sat.anchor(u) == anchor for u in batch)
                anchors.add(anchor)
            assert len(anchors) == len(classes)


def test_explain_replays_on_sampled_classes(monoid):
    # long merges at cap 9 once sent the explanation round a cycle of
    # congruence edges; every pair inside each sampled class must replay
    sat = monoid_saturation(monoid, arity=2, size=9)
    rng = random.Random(3)
    classes = [batch for batch in sat.classes() if len(batch) > 1]
    sample = rng.sample(classes, 6)
    sample.append(next(batch for batch in classes
                       if t("m(e,m(m(x1,e),m(x2,e)))") in batch))
    for batch in sample:
        members = rng.sample(batch, min(len(batch), 10))
        for a, b in itertools.product(members, repeat=2):
            chain = sat.explain(a, b)
            replay_chain(monoid.equations, chain, a, b)
            visited = [a] + [step.target for step in chain]
            assert len(set(visited)) == len(visited), (a, b)
    a, b = t("m(e,m(m(x1,e),m(x2,e)))"), t("m(e,m(m(x1,m(x2,e)),e))")
    chain = sat.explain(a, b)
    replay_chain(monoid.equations, chain, a, b)
    # the merge path expands to 8 steps through m(e,m(e,m(x1,x2))) twice;
    # cutting the loops leaves 2
    assert len(chain) == 2


@pytest.mark.parametrize("arity, lhs, rhs", [(1, "m(x1,x1)", "x1"),
                                             (2, "m(x1,x2)", "x1"),
                                             (2, "m(x2,e)", "m(e,x2)")])
def test_linear_saturation_refuses_general_equations(monoid, arity, lhs, rhs):
    general = Equation(arity, t(lhs), t(rhs))
    assert classify_equation(general) == GENERAL
    equations = monoid.equations + (general,)
    with pytest.raises(PresentationError,
                       match="symmetric flavor requires linear equations"):
        replace(monoid, flavor="symmetric", equations=equations)
    with pytest.raises(PresentationError,
                       match="plain flavor requires strongly regular"):
        replace(monoid, flavor="plain", equations=equations)
    # the full universe takes any equation
    closure_saturate(replace(monoid, flavor="fp", equations=equations),
                     arity=1, max_term_size=5)


def test_run_saturation_refuses_permuting_equations(monoid):
    swap = Equation(2, t("m(x1,x2)"), t("m(x2,x1)"))
    assert classify_equation(swap) == LINEAR
    equations = monoid.equations + (swap,)
    with pytest.raises(PresentationError,
                       match="plain flavor requires strongly regular"):
        replace(monoid, flavor="plain", equations=equations)
    closure_saturate(replace(monoid, flavor="symmetric", equations=equations),
                     arity=2, max_term_size=5)


def test_closure_reports_budget_exhaustion(monoid):
    sat = closure_saturate(replace(monoid, flavor="fp"), arity=2,
                           max_term_size=7, max_steps=10)
    assert sat.exhausted
    # the budget belongs to the one arity, whose universe is whole
    assert sat.in_universe(t("m(x1,x2)"))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_saturation_is_an_equivalence_relation(monoid, data):
    sat = monoid_saturation(monoid, arity=2, size=5)
    universe = enumerate_terms(SIG, 2, 5)
    a = data.draw(st.sampled_from(universe))
    b = data.draw(st.sampled_from(universe))
    c = data.draw(st.sampled_from(universe))
    assert sat.same(a, a)
    assert sat.same(a, b) == sat.same(b, a)
    if sat.same(a, b) and sat.same(b, c):
        assert sat.same(a, c)


@pytest.mark.parametrize("name, normal_form, arities, cap", [
    ("monoid.th", monoid_normal_form, (0, 1, 2, 3), 11),
    ("monoid.th", monoid_normal_form, (3,), 13),
    ("comm_monoid.th", comm_monoid_normal_form, (0, 1, 2, 3), 9),
    ("comm_monoid.th", comm_monoid_normal_form, (2, 3), 11),
], ids=["monoid-0to3-cap11", "monoid-3-cap13", "comm_monoid-0to3-cap9",
        "comm_monoid-2to3-cap11"])
def test_closure_classes_are_the_normal_form_classes(name, normal_form,
                                                     arities, cap):
    """The closure's classes are the flavor's universe grouped by the
    free (commutative) monoid's normal form, which no size bound limits;
    both list classes and members in id order."""
    pres = parse_presentation((EXAMPLES / name).read_text())
    for arity in arities:
        sat = closure_saturate(pres, arity, cap)
        assert not sat.exhausted
        grouped: dict = {}
        for term in sat.terms:
            grouped.setdefault(normal_form(to_oracle(term)), []).append(term)
        assert sat.classes() == list(grouped.values()), (name, arity)
