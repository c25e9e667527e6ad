"""Operation trees: grafting laws, pair composition, and the
term/tree correspondence."""

import itertools

import pytest
from conftest import perfbench_module
from hypothesis import given, settings
from hypothesis import strategies as st

from operad_workbench.finmaps import (FinFunction, compose, fn, format_fn,
                                      identity, perm, select)
from operad_workbench.operads import FreeOperad, OperadError
from operad_workbench.terms import (Signature, enumerate_terms, format_term,
                                    max_var, parse_term, term_size)
from operad_workbench.trees import (FPTree, LEAF, Leaf, Node, PermutedTree,
                                    TreeError, act_fn_tree, compose_fp,
                                    enumerate_fp_trees,
                                    enumerate_permuted_trees, enumerate_trees,
                                    format_fp_tree, format_object, format_tree,
                                    graft, parse_fp_tree, parse_permuted_tree,
                                    parse_tree, shape, to_object, to_term,
                                    to_term_alpha, to_tree, tree_arity,
                                    tree_size)

SIG = Signature.of({"m": 2, "e": 0})
REFS = perfbench_module("refs")
# the unit of permuted-tree composition
UNIT = PermutedTree(identity(1), LEAF)


def tr(text):
    return parse_tree(text, SIG)


def test_sizes_and_arities():
    t = tr("m(m(|,e),|)")
    assert tree_arity(t) == 2
    assert tree_size(t) == 5
    assert tree_arity(LEAF) == 1 and tree_size(LEAF) == 1


def test_parse_format_roundtrip():
    for text in ("|", "e", "m(|,|)", "m(m(|,e),m(e,|))"):
        assert format_tree(tr(text)) == text
    pt = parse_permuted_tree("[2,1] m(|,|)", SIG)
    assert pt == PermutedTree(perm((2, 1)), tr("m(|,|)"))
    assert format_fp_tree(pt) == "[2,1] m(|,|)"
    ft = parse_fp_tree("[1,1 -> 1] m(|,|)", SIG)
    assert ft == FPTree(fn((1, 1), cod=1), tr("m(|,|)"))
    # an inferable codomain is elided when printing
    assert format_fp_tree(ft) == "[1,1] m(|,|)"
    assert parse_fp_tree(format_fp_tree(ft), SIG) == ft
    # without a prefix the function is the identity
    assert parse_permuted_tree("m(|,|)", SIG) \
        == PermutedTree(perm((1, 2)), tr("m(|,|)"))
    assert parse_fp_tree("m(e,|)", SIG) == FPTree(fn((1,), cod=1),
                                                 tr("m(e,|)"))
    # the operation check the term parser shares, column included
    for parse, bad, message in (
            (parse_tree, "f(|)", "unknown operation 'f' at column 5 in 'f(|)'"),
            (parse_tree, "m(|)",
             "operation 'm' expects 2 children, got 1 at column 5 in 'm(|)'"),
            (parse_tree, " m(|, m(e) )",
             "operation 'm' expects 2 children, got 1 at column 11 in "
             "' m(|, m(e) )'"),
            (parse_fp_tree, "[1,2] g(|,|)",
             "unknown operation 'g' at column 7 in 'g(|,|)'"),
            (parse_permuted_tree, "[2,1] e(|,|)",
             "operation 'e' expects 0 children, got 2 at column 7 in "
             "'e(|,|)'")):
        with pytest.raises(TreeError) as info:
            parse(bad, SIG)
        assert str(info.value) == message
    with pytest.raises(TreeError, match="^nesting deeper than 200 at column"):
        parse_tree("m(|," * 201 + "|" + ")" * 201, SIG)
    for parse in (parse_permuted_tree, parse_fp_tree):
        for bad in ("[2 1] m(|,|)", "[1,,2] m(|,|)"):
            with pytest.raises(TreeError):
                parse(bad, SIG)


def all_trees(max_size=4, arities=(0, 1, 2)):
    out = []
    for n in arities:
        out.extend(enumerate_trees(SIG, n, max_size))
    return out


def test_graft_unit_laws():
    for t in all_trees():
        n = tree_arity(t)
        assert graft(t, [LEAF] * n) == t
        assert graft(LEAF, [t]) == t


def test_graft_associativity():
    pool = all_trees(max_size=3)
    small = [t for t in pool if tree_arity(t) <= 2]
    for t in [u for u in small if tree_arity(u) == 2]:
        for ys in itertools.product(small, repeat=2):
            inner_total = sum(tree_arity(y) for y in ys)
            for zs in itertools.product(
                    [u for u in small if tree_arity(u) <= 1],
                    repeat=inner_total):
                lhs = graft(graft(t, ys), zs)
                chunks = []
                at = 0
                for y in ys:
                    k = tree_arity(y)
                    chunks.append(zs[at:at + k])
                    at += k
                rhs = graft(t, [graft(y, c) for y, c in zip(ys, chunks)])
                assert lhs == rhs


def permuted_pool(max_size=3, arities=(0, 1, 2)):
    out = []
    for n in arities:
        out.extend(enumerate_permuted_trees(SIG, n, max_size))
    return out


def test_compose_permuted_unit_laws():
    for pt in permuted_pool():
        n = pt.arity
        assert compose_fp(pt, [UNIT] * n) == pt
        assert compose_fp(UNIT, [pt]) == pt


def test_compose_permuted_associativity():
    pool = permuted_pool(max_size=3, arities=(0, 1, 2))
    outers = [pt for pt in pool if pt.arity == 2][:8]
    inners = [pt for pt in pool if pt.arity <= 1]
    for x in outers:
        for ys in itertools.product(inners, repeat=2):
            mid = compose_fp(x, list(ys))
            total = mid.arity
            for zs in itertools.product(inners[:4], repeat=total):
                lhs = compose_fp(mid, list(zs))
                chunks = []
                at = 0
                for y in ys:
                    k = y.arity
                    chunks.append(list(zs[at:at + k]))
                    at += k
                rhs = compose_fp(
                    x, [compose_fp(y, c) for y, c in zip(ys, chunks)])
                assert lhs == rhs


def test_compose_permuted_tracks_terms():
    # composing pairs is substitution of terms: variable v of the outer
    # pair receives the v-th inner term, relabelled into its block
    x = parse_permuted_tree("[2,1] m(|,|)", SIG)
    y1 = parse_permuted_tree("[1,2] m(|,m(|,e))", SIG)
    y2 = UNIT
    composite = compose_fp(x, [y1, y2])
    assert to_term(composite) == parse_term("m(x3,m(x1,m(x2,e)))")


def test_compose_fp_matches_fp_term_substitution():
    x = parse_fp_tree("[1,1 -> 1] m(|,|)", SIG)
    y = parse_fp_tree("[2,1 -> 2] m(|,m(|,e))", SIG)
    composite = compose_fp(x, [y])
    assert to_term(composite) == parse_term("m(m(x2,m(x1,e)),m(x2,m(x1,e)))")
    assert composite.arity == 2


def test_unit_trees_and_actions():
    assert UNIT == PermutedTree(perm((1,)), LEAF)
    assert UNIT != FPTree(identity(1), LEAF)
    pt = parse_permuted_tree("[2,1] m(|,|)", SIG)
    rho = perm((2, 1))
    acted = act_fn_tree(rho, pt)
    assert acted.fn == identity(2) and acted.tree == pt.tree
    ft = parse_fp_tree("[1,2 -> 2] m(|,|)", SIG)
    g = fn((1, 1), cod=1)
    assert act_fn_tree(g, ft) == FPTree(fn((1, 1), cod=1), ft.tree)


def test_act_is_a_left_action():
    rho = perm((2, 3, 1))
    tau = perm((3, 2, 1))
    for pt in enumerate_permuted_trees(SIG, 3, 5)[:12]:
        one = act_fn_tree(rho, act_fn_tree(tau, pt))
        assert one == act_fn_tree(compose(rho, tau), pt)


def test_term_tree_roundtrip_small():
    for arity in range(0, 4):
        for term in enumerate_terms(SIG, arity, 5):
            pair = to_tree(term, arity)
            assert to_term(pair) == term
        for pair in enumerate_fp_trees(SIG, arity, 5):
            term = to_term(pair)
            assert to_tree(term, arity) == pair


def test_to_term_alpha_orders_leaves():
    t = tr("m(m(|,e),|)")
    assert to_term_alpha(t, (5, 2)) == parse_term("m(m(x5,e),x2)")
    with pytest.raises(TreeError):
        to_term_alpha(t, (1,))


def test_shape_forgets_labels():
    term = parse_term("m(m(x2,e),x1)")
    assert shape(term) == tr("m(m(|,e),|)")


def test_to_object_picks_the_plainest_object():
    # an identity labelling gives the bare tree, a bijection a permuted
    # tree, and any other function the relabelled pair
    cases = [("m(x1,x2)", 2, tr("m(|,|)"), "m(|,|)"),
             ("m(x2,x1)", 2, PermutedTree(perm((2, 1)), tr("m(|,|)")),
              "[2,1] m(|,|)"),
             ("m(x1,x1)", 1, FPTree(fn((1, 1), cod=1), tr("m(|,|)")),
              "[1,1] m(|,|)"),
             ("m(x1,x2)", 3, FPTree(fn((1, 2), cod=3), tr("m(|,|)")),
              "[1,2->3] m(|,|)")]
    for text, arity, want, printed in cases:
        got = to_object(parse_term(text), arity)
        assert got == want and type(got) is type(want)
        assert format_object(got) == printed


def test_enumerations_are_sorted_and_well_formed():
    trees = enumerate_trees(SIG, 2, 5)
    assert len(trees) == len(set(trees))
    assert all(tree_arity(t) == 2 and tree_size(t) <= 5 for t in trees)
    sizes = [tree_size(t) for t in trees]
    assert sizes == sorted(sizes)
    pts = enumerate_permuted_trees(SIG, 2, 5)
    assert len(pts) == 2 * len(trees)
    fps = enumerate_fp_trees(SIG, 1, 3)
    assert all(ft.arity == 1 for ft in fps)


# The enumerators as they stood before one shape table served every
# leaf count; the current ones must list exactly the same pairs in the
# same order.

def _reference_compositions(total, parts):
    if parts == 0:
        return [()] if total == 0 else []
    if parts == 1:
        return [(total,)] if total >= 1 else []
    out = []
    for first in range(1, total - parts + 2):
        for rest in _reference_compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return out


def _reference_trees(signature, arity, max_size):
    cache = {}

    def of(size, leaves):
        key = (size, leaves)
        if key in cache:
            return cache[key]
        found = []
        if size == 1:
            if leaves == 1:
                found.append(LEAF)
            if leaves == 0:
                found.extend(Node(op, ()) for op, k in signature.ops if k == 0)
        else:
            for op, k in signature.ops:
                if k == 0:
                    continue
                # the ways to share the leaves among the k children, zeros
                # allowed: compositions of leaves + k, each part less one
                splits = [tuple(c - 1 for c in shifted)
                          for shifted in _reference_compositions(leaves + k, k)]
                for sizes in _reference_compositions(size - 1, k):
                    for split in splits:
                        pools = [of(s, l) for s, l in zip(sizes, split)]
                        if any(not pool for pool in pools):
                            continue
                        for combo in itertools.product(*pools):
                            found.append(Node(op, combo))
        cache[key] = found
        return found

    out = []
    for size in range(1, max_size + 1):
        out.extend(of(size, arity))
    return sorted(out, key=lambda t: (tree_size(t), format_tree(t)))


def _reference_permuted_trees(signature, arity, max_size):
    out = []
    for tree in _reference_trees(signature, arity, max_size):
        for table in itertools.permutations(range(1, arity + 1)):
            out.append(PermutedTree(perm(table), tree))
    return sorted(out, key=lambda pt: (
        tree_size(pt.tree), f"{format_fn(pt.fn)} {format_tree(pt.tree)}"))


def _reference_fp_trees(signature, arity, max_size, max_leaves=None):
    out = []
    for leaves in range(0, (max_leaves if max_leaves is not None else max_size) + 1):
        trees = [t for t in _reference_trees(signature, leaves, max_size)]
        if not trees:
            continue
        for table in itertools.product(range(1, arity + 1), repeat=leaves):
            f = FinFunction(leaves, arity, table)
            out.extend(FPTree(f, t) for t in trees)
    return sorted(out, key=lambda ft: (tree_size(ft.tree), format_fp_tree(ft)))


@pytest.mark.parametrize("theory", ["monoid", "pointed_abcd",
                                    "unbiased_monoid"])
def test_enumerators_match_the_reference_and_the_counts(request, theory):
    signature = request.getfixturevalue(theory).signature
    ops = dict(signature.ops)
    for arity in range(4):
        trees = enumerate_trees(signature, arity, 7)
        assert trees == _reference_trees(signature, arity, 7)
        assert len(trees) == REFS.count_trees(ops, arity, 7)
        permuted = enumerate_permuted_trees(signature, arity, 7)
        assert permuted == _reference_permuted_trees(signature, arity, 7)
        assert len(permuted) == REFS.count_trees(ops, arity, 7, permuted=True)
        fps = enumerate_fp_trees(signature, arity, 5)
        assert fps == _reference_fp_trees(signature, arity, 5)
        assert len(fps) == sum(
            REFS.count_trees(ops, leaves, 5) * arity ** leaves
            for leaves in range(6))


def test_permuted_trees_are_bijective_relabelled_trees():
    p = perm((2, 1))
    t = tr("m(|,|)")
    assert PermutedTree(p, t) != FPTree(p, t)
    assert isinstance(PermutedTree(p, t), FPTree)
    composite = compose_fp(PermutedTree(p, t), [UNIT, PermutedTree(p, t)])
    assert type(composite) is PermutedTree
    assert format_fp_tree(composite) == "[3,2,1] m(m(|,|),|)"
    unit_fp = FPTree(identity(1), LEAF)
    assert type(compose_fp(FPTree(p, t), [unit_fp, unit_fp])) is FPTree
    assert type(act_fn_tree(p, PermutedTree(p, t))) is PermutedTree
    with pytest.raises(TreeError, match="^permuted tree needs a bijection$"):
        PermutedTree(fn((1, 1), cod=2), t)
    with pytest.raises(TreeError, match="^permutation degree 1 does not "
                                        "match tree arity 2$"):
        PermutedTree(perm((1,)), t)
    with pytest.raises(TreeError, match="^function domain 1 does not "
                                        "match tree arity 2$"):
        FPTree(identity(1), t)
    with pytest.raises(OperadError,
                       match="^free-symmetric only acts by permutations$"):
        FreeOperad(SIG, "symmetric").act_fn(fn((1, 1), cod=2),
                                            PermutedTree(p, t))
    with pytest.raises(TreeError, match="^composition needs 2 inner trees, "
                                        "got 1$"):
        compose_fp(PermutedTree(p, t), [UNIT])
