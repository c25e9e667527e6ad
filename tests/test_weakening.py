"""Weakening of a presented theory along a target interpretation: the
two decision engines, class enumeration, and the worked examples."""

import random

import pytest

from conftest import (comm_monoid_fp_context, is_linear, is_run,
                      replay_chain)
from operad_workbench.operads import (CheckReport, EndOperad, FiniteOp,
                                      Interpretation,
                                      OperadError, TerminalPlainOperad,
                                      TerminalSymmetricOperad,
                                      builtin_operad, default_assignment,
                                      eval_tree)
from operad_workbench.terms import (Presentation, closure_saturate,
                                    format_term, parse_term, var_seq)
from operad_workbench.trees import (PermutedTree, graft, parse_permuted_tree,
                                    parse_tree, to_tree, tree_size)
from operad_workbench.weakening import (FP_REJECTION, WeakeningContext,
                                        WeakeningError,
                                        WeakeningFlavorError,
                                        biased_unbiased_agreement)


def plain_terminal_context(presentation, **kwargs) -> WeakeningContext:
    operad = TerminalPlainOperad()
    interp = Interpretation(presentation, operad,
                            default_assignment(presentation, operad))
    return WeakeningContext(presentation, interp, **kwargs)


def test_fp_flavor_is_rejected():
    fp = Presentation("Dup", "fp", *_dup_signature_and_equations())
    with pytest.raises(WeakeningFlavorError) as err:
        WeakeningContext(fp)
    assert "tau_{A,A}" in str(err.value)
    assert "degenerate" in str(err.value)
    assert str(err.value) == FP_REJECTION


def _dup_signature_and_equations():
    from operad_workbench.terms import Equation, Signature
    sig = Signature.of({"p": 2})
    dup = Equation(1, parse_term("p(x1,x1)"), parse_term("x1"))
    return sig, (dup,)


def test_fp_trees_are_not_objects(monoid):
    ctx = plain_terminal_context(monoid)
    with pytest.raises(WeakeningError):
        ctx.object_arity(to_tree(parse_term("m(x1,x1)"), 1))


def test_permuted_trees_need_symmetric_flavor(monoid, comm_monoid):
    pt = parse_permuted_tree("[2,1] m(|,|)", monoid.signature)
    with pytest.raises(WeakeningError):
        plain_terminal_context(monoid).object_arity(pt)
    assert comm_monoid_fp_context(comm_monoid).object_arity(pt) == 2


def test_pointed_weakening_has_one_nullary_class(pointed):
    ctx = plain_terminal_context(pointed)
    classes = ctx.enumerate_classes(0, 6)
    assert len(classes) == 1
    assert classes[0].members == (parse_tree("c", pointed.signature),)


def test_four_generators_fall_into_one_class(pointed_abcd):
    ctx = plain_terminal_context(pointed_abcd)
    classes = ctx.enumerate_classes(0, 6)
    assert len(classes) == 1
    assert len(classes[0].members) == 4
    decision = ctx.two_cell(parse_tree("a", pointed_abcd.signature),
                            parse_tree("d", pointed_abcd.signature))
    assert decision.yes


def test_trivial_theory_has_no_nullary_classes(trivial):
    ctx = plain_terminal_context(trivial)
    assert ctx.enumerate_classes(0, 6) == []


def test_comm_monoid_class_counts(comm_monoid):
    ctx = comm_monoid_fp_context(comm_monoid)
    counts = {n: sum(len(c.members) for c in ctx.enumerate_classes(n, 6))
              for n in range(4)}
    assert counts == {0: 4, 1: 9, 2: 14, 3: 12}
    for n in range(4):
        # permuted trees carry each variable once, so one class per arity
        assert len(ctx.enumerate_classes(n, 6)) == 1


def test_two_cell_engines_agree_on_comm_monoid(comm_monoid):
    eval_ctx = comm_monoid_fp_context(comm_monoid)
    closure_ctx = WeakeningContext(comm_monoid)
    for arity in range(3):
        objects = eval_ctx.enumerate_objects(arity, 5)
        for a in objects:
            for b in objects:
                by_eval = eval_ctx.two_cell(a, b)
                by_closure = closure_ctx.two_cell(a, b)
                assert by_eval.yes
                assert by_closure.yes, (a, b, by_closure.reason)
                replay_chain(comm_monoid.equations, by_closure.trace,
                             closure_ctx.object_term(a),
                             closure_ctx.object_term(b))


def test_unequal_arities_are_refused(comm_monoid):
    ctx = comm_monoid_fp_context(comm_monoid)
    a = ctx.enumerate_objects(1, 4)[0]
    b = ctx.enumerate_objects(2, 4)[0]
    decision = ctx.two_cell(a, b)
    assert decision.answer == "no"
    assert "arities" in decision.reason


def test_oversized_terms_answer_unknown(monoid):
    ctx = WeakeningContext(monoid, max_term_size=5)
    big = parse_tree("m(m(e,e),m(e,m(e,e)))", monoid.signature)
    decision = ctx.two_cell(big, parse_tree("e", monoid.signature))
    assert decision.answer == "unknown"
    assert "size bound" in decision.reason


def test_each_arity_is_saturated_once(monoid, monkeypatch):
    from operad_workbench import terms

    enumerated = []
    enumerate_terms = terms.enumerate_terms

    def counting(signature, arity, max_size, flavor="fp"):
        enumerated.append(arity)
        return enumerate_terms(signature, arity, max_size, flavor)

    monkeypatch.setattr(terms, "enumerate_terms", counting)
    ctx = WeakeningContext(monoid)
    for arity in (1, 2, 3, 1):
        ctx.saturation(arity)
    assert enumerated == [1, 2, 3]


def test_closure_traces_replay(monoid):
    ctx = WeakeningContext(monoid)
    a = parse_tree("m(e,m(|,e))", monoid.signature)
    b = parse_tree("|", monoid.signature)
    decision = ctx.two_cell(a, b)
    assert decision.yes
    replay_chain(monoid.equations, decision.trace,
                 ctx.object_term(a), ctx.object_term(b))


def test_two_cell_respects_grafting(monoid):
    ctx = WeakeningContext(monoid, max_term_size=7)
    sig = monoid.signature
    m = parse_tree("m(|,|)", sig)
    t1, t2 = parse_tree("m(e,|)", sig), parse_tree("|", sig)
    u1, u2 = parse_tree("m(|,e)", sig), parse_tree("|", sig)
    assert ctx.two_cell(t1, t2).yes and ctx.two_cell(u1, u2).yes
    assert ctx.two_cell(graft(m, [t1, u1]), graft(m, [t2, u2])).yes


def test_two_cell_is_an_equivalence_on_a_stratum(comm_monoid):
    ctx = WeakeningContext(comm_monoid)
    objects = ctx.enumerate_objects(2, 4)
    for a in objects:
        assert ctx.two_cell(a, a).yes
    for a in objects:
        for b in objects:
            assert ctx.two_cell(a, b).answer == ctx.two_cell(b, a).answer


def unbiased_terminal_context(unbiased_monoid):
    return plain_terminal_context(unbiased_monoid)


def test_biased_unbiased_agreement(monoid, unbiased_monoid):
    ctx_a = plain_terminal_context(monoid)
    ctx_b = plain_terminal_context(unbiased_monoid)
    report = biased_unbiased_agreement(ctx_a, ctx_b, range(4), max_size=6)
    assert report.ok, report.lines()
    assert isinstance(report, CheckReport)
    assert report.checked == {"arity": 4} and report.failures == []
    assert report.arities == {n: ([str(n)], [str(n)]) for n in range(4)}


def test_agreement_names_the_arity_whose_elements_differ(comm_monoid):
    ctx_a = comm_monoid_fp_context(comm_monoid)
    ctx_b = WeakeningContext(comm_monoid, Interpretation(
        comm_monoid, builtin_operad("comm-monoid-fp"),
        {"m": (2, 2), "e": ()}))
    report = biased_unbiased_agreement(ctx_a, ctx_b, (0, 1), 4)
    assert report.arities == {0: (["[]"], ["[]"]),
                              1: (["[1]"], ["[1]", "[2]"])}
    assert report.checked == {"arity": 2}
    assert report.failures == [
        "arity 1: realized elements ['[1]'] vs ['[1]', '[2]']"]


def test_agreement_needs_matching_targets(monoid, comm_monoid):
    ctx_a = plain_terminal_context(monoid)
    ctx_b = comm_monoid_fp_context(comm_monoid)
    with pytest.raises(WeakeningError):
        biased_unbiased_agreement(ctx_a, ctx_b, (1,), 4)


def test_two_cell_and_classes_on_pointed(pointed):
    ctx = plain_terminal_context(pointed)
    c = parse_tree("c", pointed.signature)
    assert ctx.two_cell(c, c).yes
    assert len(ctx.enumerate_classes(0, 4)) == 1


# per theory, the size bound at arities 0-3: 9 up to arity 2 and 7
# above. unbiased_monoid keeps 7 and 6, since its unary and ternary
# operations put 24,722 terms in its full arity-1 universe at size 9,
# where class_edges on the largest class (8,348 terms, 25,905 edges)
# took 110 s in a process that peaked at 700 MB, and 21 s on the
# class's 5,434 linear terms
DIFFERENTIAL = {"monoid": (9, 9, 9, 7), "comm_monoid": (9, 9, 9, 7),
                "unbiased_monoid": (7, 7, 7, 6), "pointed": (9, 9, 9, 7),
                "pointed_abcd": (9, 9, 9, 7), "trivial": (9, 9, 9, 7)}


def _assert_restriction(small, big, keep, rng):
    """small is big cut to the terms whose variable sequence keep
    accepts: the same partition in the same order, so same agrees on
    every pair; the same explain on every merged pair, or on 100 seeded
    ones past 3,000; and the same class_edges from the first term of
    every 20th of those, once per class (the stamps differ, the terms
    and steps not)."""
    assert not big.exhausted and not small.exhausted
    assert small.terms == [u for u in big.terms if keep(var_seq(u))]
    kept = set(small.terms)
    # a class holds kept terms only or none
    classes = [batch for batch in big.classes() if batch[0] in kept]
    assert small.classes() == classes
    if sum(len(batch) ** 2 for batch in classes) <= 3000:
        pairs = [(a, b) for batch in classes for a in batch for b in batch]
    else:
        picks = [rng.choice(classes) for _ in range(100)]
        pairs = [(rng.choice(batch), rng.choice(batch)) for batch in picks]
    for a, b in pairs:
        assert small.explain(a, b) == big.explain(a, b), (a, b)
    starts: dict = {}
    for a, _ in pairs[::20]:
        starts.setdefault(small.anchor(a), a)
    for a in starts.values():
        assert small.class_edges(a) == big.class_edges(a), a


@pytest.mark.parametrize("name", DIFFERENTIAL)
def test_linear_saturation_matches_the_full_one(name, request):
    """The linear closure against the full one on linear terms (see
    _assert_restriction), and the context's closure-mode classes against
    the full closure's."""
    pres = request.getfixturevalue(name)
    rng = random.Random(name)
    for arity, size in enumerate(DIFFERENTIAL[name]):
        full = closure_saturate(pres.signature, pres.equations, arity, size)
        linear = closure_saturate(pres.signature, pres.equations, arity,
                                  size, flavor="symmetric")
        _assert_restriction(linear, full, is_linear, rng)
        ctx = WeakeningContext(pres, max_term_size=size)
        full_ctx = WeakeningContext(pres, max_term_size=size)
        full_ctx._saturations[arity] = full
        assert ctx.enumerate_classes(arity, size) \
            == full_ctx.enumerate_classes(arity, size)


@pytest.mark.parametrize(
    "name", [name for name in DIFFERENTIAL if name != "comm_monoid"])
def test_run_saturation_matches_the_linear_one(name, request):
    """A plain theory's run closure against its linear closure on the
    runs, the terms whose variables read x_i..x_j in order (see
    _assert_restriction)."""
    pres = request.getfixturevalue(name)
    assert pres.flavor == "plain"
    rng = random.Random(name)
    for arity, size in enumerate(DIFFERENTIAL[name]):
        linear = closure_saturate(pres.signature, pres.equations, arity,
                                  size, flavor="symmetric")
        runs = closure_saturate(pres.signature, pres.equations, arity, size,
                                flavor="plain")
        if not linear.terms:
            # trivial at arity 0: no constant and no variable
            assert (name, arity) == ("trivial", 0) and not runs.terms
            continue
        _assert_restriction(runs, linear, is_run, rng)


def test_symmetric_flavor_saturates_permuted_objects(monoid):
    """The flavor picks the universe, not the equations' class: a
    symmetric theory with only strongly regular equations still has
    permuted objects, which are linear terms but not runs."""
    sym_monoid = Presentation("SymMonoid", "symmetric", monoid.signature,
                              monoid.equations)
    ctx = WeakeningContext(sym_monoid, max_term_size=7)
    sig = monoid.signature
    a = parse_permuted_tree("[2,1,3] m(m(|,|),|)", sig)
    b = parse_permuted_tree("[2,1,3] m(|,m(|,|))", sig)
    assert [format_term(ctx.object_term(x)) for x in (a, b)] \
        == ["m(m(x2,x1),x3)", "m(x2,m(x1,x3))"]
    decision = ctx.two_cell(a, b)
    assert decision.answer == "yes", decision.reason
    assert len(decision.trace) == 1
    replay_chain(monoid.equations, decision.trace,
                 ctx.object_term(a), ctx.object_term(b))
    # no commutativity, so the swap stays apart
    swapped = parse_permuted_tree("[2,1] m(|,|)", sig)
    decision = ctx.two_cell(swapped, parse_tree("m(|,|)", sig))
    assert decision.answer == "unknown"
    assert decision.reason == "not merged within size 7"
    # the run universe would not even hold the permuted objects
    runs = closure_saturate(sig, monoid.equations, 3, 7, flavor="plain")
    assert not runs.in_universe(ctx.object_term(a))


@pytest.mark.parametrize("name", ["monoid", "comm_monoid"])
def test_same_arity_queries_at_cap_9_answer_yes_and_replay(name, request):
    # each theory identifies every pair of objects of one arity, and
    # explaining the long merges at cap 9 once risked a RecursionError
    pres = request.getfixturevalue(name)
    ctx = WeakeningContext(pres, max_term_size=9)
    rng = random.Random(9)
    for arity in (2, 3):
        objects = ctx.enumerate_objects(arity, 9)
        for _ in range(150):
            a, b = rng.choice(objects), rng.choice(objects)
            decision = ctx.two_cell(a, b)
            assert decision.yes, (a, b, decision.reason)
            replay_chain(pres.equations, decision.trace,
                         ctx.object_term(a), ctx.object_term(b))


def per_object_classes(ctx, arity, size):
    """The partition enumerate_classes gives, by one eval_object per
    object and no shared memo."""
    buckets: dict = {}
    for obj in ctx.enumerate_objects(arity, size):
        buckets.setdefault(ctx.eval_object(obj), []).append(obj)
    return [(value, tuple(members)) for value, members in buckets.items()]


def random_element(rng, operad, arity):
    if isinstance(operad, EndOperad):
        return FiniteOp(2, arity, tuple(rng.randint(1, 2)
                                        for _ in range(2 ** arity)))
    return tuple(rng.randint(0, 2) for _ in range(arity))


@pytest.mark.parametrize("name, target, size", [
    ("monoid", "end-2", 7), ("unbiased_monoid", "end-2", 6),
    ("comm_monoid", "comm-monoid-fp", 6)])
def test_memoized_classes_match_per_object_evaluation(name, target, size,
                                                      request):
    """Under the stock assignment and two seeded ones, some of which
    break the theory and so split the objects into many classes."""
    presentation = request.getfixturevalue(name)
    operad = builtin_operad(target)
    rng = random.Random(31)
    assignments = [default_assignment(presentation, operad)] + [
        {op: random_element(rng, operad, k)
         for op, k in presentation.signature.ops} for _ in range(2)]
    split = 0
    for assignment in assignments:
        ctx = WeakeningContext(presentation, Interpretation(
            presentation, operad, assignment))
        for arity in range(4):
            classes = ctx.enumerate_classes(arity, size)
            assert all(c.arity == arity for c in classes)
            assert [(c.element, c.members) for c in classes] \
                == per_object_classes(ctx, arity, size)
            split = max(split, len(classes))
    assert split > 1


def test_memoized_evaluation_refuses_an_unassigned_operation(monoid):
    operad = EndOperad(2)
    ctx = WeakeningContext(monoid, Interpretation(
        monoid, operad, default_assignment(monoid, operad)))
    del ctx.interpretation.assignment["e"]
    assert len(ctx.enumerate_classes(2, 3)) == 1
    with pytest.raises(OperadError, match="^no assignment for operation 'e'$"):
        ctx.enumerate_classes(1, 3)
    with pytest.raises(OperadError, match="^no assignment for operation 'e'$"):
        eval_tree(parse_tree("m(|,m(e,|))", monoid.signature),
                  ctx.interpretation.assignment, operad, {})


def test_classes_compose_each_distinct_subtree_once(monoid, monkeypatch):
    """At monoid arity 3, size 11: the 1,002 objects have 7,644
    operation nodes but 1,211 distinct subtrees rooted at one, and each
    later call starts from an empty memo."""
    calls = []
    compose = EndOperad.compose
    monkeypatch.setattr(EndOperad, "compose", lambda self, p, qs:
                        calls.append(p) or compose(self, p, qs))
    operad = EndOperad(2)
    ctx = WeakeningContext(monoid, Interpretation(monoid, operad, {
        "m": FiniteOp(2, 2, (1, 2, 2, 1)), "e": FiniteOp(2, 0, (1,))}))
    want = per_object_classes(ctx, 3, 11)
    assert sum(len(members) for _, members in want) == 1002
    assert len(calls) == 7644
    for _ in range(2):
        calls.clear()
        classes = ctx.enumerate_classes(3, 11)
        assert len(calls) == 1211
        assert [(c.element, c.members) for c in classes] == want
