"""Operation trees and their permuted and relabelled variants.

A plain tree is a grafting of operation symbols with `|` leaves marking
open inputs; its arity is the leaf count. A relabelled tree pairs a
plain tree with an arbitrary finite function out of its inputs, and a
permuted tree is a relabelled tree whose function is a permutation, so
one body composes, acts on, prints and reads both. The pairs are
literal: two pairs are equal exactly when they have the same flavor
and both components agree.

Composition grafts inner trees into the outer tree's leaves after
routing them through the outer function, and combines the functions by
the block-substitution rule from finmaps. Relabelling acts on the pair
by post-composition on the function component.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Callable, Sequence

from .finmaps import (FinFunction, FinMapError, comb_compose, compose,
                      format_fn, identity, parse_fn, perm, select)
from .terms import (App, Signature, Term, Var, _NAME_RE, _Scanner,
                    _compositions, label_fn)


class TreeError(ValueError):
    pass


@dataclass(frozen=True)
class Leaf:
    pass


@dataclass(frozen=True)
class Node:
    op: str
    children: tuple["Tree", ...]

    def __hash__(self) -> int:
        # the dataclass hash, kept once computed outside the fields, so a
        # memo lookup re-hashes no subtree
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash((self.op, self.children))
        return h


Tree = Leaf | Node

LEAF = Leaf()


def tree_arity(t: Tree) -> int:
    if isinstance(t, Leaf):
        return 1
    # a plain loop: end-N evaluation counts the leaves of every tree
    n = 0
    for c in t.children:
        n += tree_arity(c)
    return n


def tree_size(t: Tree) -> int:
    if isinstance(t, Leaf):
        return 1
    return 1 + sum(tree_size(c) for c in t.children)


def graft(t: Tree, subs: Sequence[Tree]) -> Tree:
    """Replace the i-th leaf (left to right) with subs[i]."""
    if len(subs) != tree_arity(t):
        raise TreeError(
            f"graft needs {tree_arity(t)} trees, got {len(subs)}")
    grafted, rest = _graft(t, tuple(subs))
    assert not rest
    return grafted


def _graft(t: Tree, subs: tuple[Tree, ...]) -> tuple[Tree, tuple[Tree, ...]]:
    if isinstance(t, Leaf):
        return subs[0], subs[1:]
    children = []
    for c in t.children:
        built, subs = _graft(c, subs)
        children.append(built)
    return Node(t.op, tuple(children)), subs


@dataclass(frozen=True)
class FPTree:
    """A plain tree with a relabelling function on its inputs.

    The function's domain is the tree's leaf count; the pair's arity is
    the function's codomain, so inputs may be shared or dropped.
    """

    fn: FinFunction
    tree: Tree

    def __post_init__(self):
        if self.fn.dom != tree_arity(self.tree):
            raise TreeError(
                f"function domain {self.fn.dom} does not match "
                f"tree arity {tree_arity(self.tree)}")

    @property
    def arity(self) -> int:
        return self.fn.cod


@dataclass(frozen=True)
class PermutedTree(FPTree):
    """A relabelled tree whose function is a permutation of its inputs.

    A permuted pair never equals the relabelled pair with the same
    components: the flavors stay apart under equality."""

    def __post_init__(self):
        if not self.fn.is_bijection:
            raise TreeError("permuted tree needs a bijection")
        if self.fn.dom != tree_arity(self.tree):
            raise TreeError(
                f"permutation degree {self.fn.dom} does not match "
                f"tree arity {tree_arity(self.tree)}")


def compose_fp(outer: FPTree, inner: Sequence[FPTree]) -> FPTree:
    """Graft relabelled trees into a relabelled tree, one per output slot.

    Leaf j of the outer tree receives the inner tree routed there by the
    outer function, and the functions combine by combing the inner
    functions out of the outer one. The result has the outer pair's
    type, so permuted trees compose to a permuted tree.
    """
    if len(inner) != outer.arity:
        raise TreeError(
            f"composition needs {outer.arity} inner trees, got {len(inner)}")
    fns = [p.fn for p in inner]
    trees = tuple(p.tree for p in inner)
    combined = comb_compose(outer.fn, fns)
    return type(outer)(combined, graft(outer.tree, select(outer.fn, trees)))


def act_fn_tree(g: FinFunction, ft: FPTree) -> FPTree:
    return type(ft)(compose(g, ft.fn), ft.tree)


def to_term_alpha(t: Tree, alphabet: Sequence[int]) -> Term:
    """Read a tree as a term whose i-th leaf is the variable alphabet[i]."""
    if len(alphabet) != tree_arity(t):
        raise TreeError(
            f"alphabet length {len(alphabet)} does not match arity {tree_arity(t)}")
    built, rest = _to_term(t, tuple(alphabet))
    assert not rest
    return built


def _to_term(t: Tree, alphabet: tuple[int, ...]) -> tuple[Term, tuple[int, ...]]:
    if isinstance(t, Leaf):
        return Var(alphabet[0]), alphabet[1:]
    args = []
    for c in t.children:
        arg, alphabet = _to_term(c, alphabet)
        args.append(arg)
    return App(t.op, tuple(args)), alphabet


def to_term(ft: FPTree) -> Term:
    """Read a tree pair as a term: the function labels the leaves."""
    return to_term_alpha(ft.tree, ft.fn.table)


def shape(t: Term) -> Tree:
    if isinstance(t, Var):
        return LEAF
    return Node(t.op, tuple(shape(a) for a in t.args))


def to_tree(t: Term, n: int) -> FPTree:
    """Split a term into its leaf shape and its labelling function."""
    return FPTree(label_fn(t, n), shape(t))


def to_object(t: Term, n: int) -> Tree | FPTree:
    """A term at a declared arity as the plainest object carrying it: the
    bare tree when its labelling is an identity, a permuted tree when it
    is a bijection, and the relabelled pair otherwise."""
    pair = to_tree(t, n)
    if pair.fn.is_identity:
        return pair.tree
    if pair.fn.is_bijection:
        return PermutedTree(pair.fn, pair.tree)
    return pair


def format_tree(t: Tree) -> str:
    if isinstance(t, Leaf):
        return "|"
    if not t.children:
        return t.op
    return f"{t.op}({','.join(format_tree(c) for c in t.children)})"


def format_fp_tree(ft: FPTree) -> str:
    return f"{format_fn(ft.fn)} {format_tree(ft.tree)}"


def format_object(obj: Tree | FPTree) -> str:
    """A bare tree or a tree pair, as its own format function prints it."""
    if isinstance(obj, FPTree):
        return format_fp_tree(obj)
    return format_tree(obj)


_PREFIX_RE = re.compile(r"^\s*(\[[^\]]*\])\s*(.*)$", re.DOTALL)


class _TreeParser(_Scanner):
    error_class = TreeError

    def tree(self) -> Tree:
        self.skip_ws()
        if self.peek() == "|":
            self.pos += 1
            return LEAF
        m = _NAME_RE.match(self.text, self.pos)
        if not m:
            raise self.error("expected '|' or an operation name")
        name = m.group(0)
        self.pos = m.end()
        children = self.arguments(self.tree)
        self.check_op(name, len(children), "children")
        return Node(name, children)


def parse_tree(text: str, signature: Signature | None = None) -> Tree:
    parser = _TreeParser(text, signature)
    t = parser.tree()
    parser.finish()
    return t


def _split_prefix(text: str) -> tuple[str | None, str]:
    m = _PREFIX_RE.match(text)
    if m:
        return m.group(1), m.group(2)
    return None, text


def parse_permuted_tree(text: str, signature: Signature | None = None
                        ) -> PermutedTree:
    """Parse `[perm] tree`; a missing prefix means the identity."""
    return _parse_pair(text, signature, PermutedTree,
                       lambda prefix: perm(parse_fn(prefix).table))


def parse_fp_tree(text: str, signature: Signature | None = None) -> FPTree:
    """Parse `[table->cod] tree`; a missing prefix means the identity."""
    return _parse_pair(text, signature, FPTree, parse_fn)


def _parse_pair(text: str, signature: Signature | None, pair: type,
                read_fn: Callable[[str], FinFunction]) -> FPTree:
    prefix, rest = _split_prefix(text)
    tree = parse_tree(rest, signature)
    if prefix is None:
        return pair(identity(tree_arity(tree)), tree)
    try:
        f = read_fn(prefix)
    except FinMapError as exc:
        raise TreeError(str(exc)) from exc
    return pair(f, tree)


def _trees_by_leaves(signature: Signature, max_size: int
                     ) -> Callable[[int], list[Tree]]:
    """The trees with a given leaf count and at most max_size nodes, read
    from one (node count, leaf count) table that every leaf count asked
    of it shares."""
    cache: dict[tuple[int, int], list[Tree]] = {}

    def of(size: int, leaves: int) -> list[Tree]:
        key = (size, leaves)
        if key in cache:
            return cache[key]
        found: list[Tree] = []
        if size == 1:
            if leaves == 1:
                found.append(LEAF)
            if leaves == 0:
                found.extend(Node(op, ()) for op, k in signature.ops if k == 0)
        else:
            for op, k in signature.ops:
                if k == 0:
                    continue
                splits = _compositions(leaves, k, least=0)
                for sizes in _compositions(size - 1, k):
                    for split in splits:
                        pools = [of(s, l) for s, l in zip(sizes, split)]
                        if any(not pool for pool in pools):
                            continue
                        for combo in itertools.product(*pools):
                            found.append(Node(op, combo))
        cache[key] = found
        return found

    return lambda leaves: [t for size in range(1, max_size + 1)
                           for t in of(size, leaves)]


def enumerate_trees(signature: Signature, arity: int, max_size: int) -> list[Tree]:
    """All trees with the given leaf count and at most max_size nodes,
    sorted by (size, text)."""
    trees = _trees_by_leaves(signature, max_size)(arity)
    return sorted(trees, key=lambda t: (tree_size(t), format_tree(t)))


def _pair_order(ft: FPTree) -> tuple[int, str]:
    return (tree_size(ft.tree), format_fp_tree(ft))


def enumerate_permuted_trees(signature: Signature, arity: int, max_size: int
                             ) -> list[PermutedTree]:
    """All permuted trees of the arity within the size bound, sorted by
    (size, text)."""
    out = [PermutedTree(perm(table), tree)
           for tree in enumerate_trees(signature, arity, max_size)
           for table in itertools.permutations(range(1, arity + 1))]
    return sorted(out, key=_pair_order)


def enumerate_fp_trees(signature: Signature, arity: int, max_size: int
                       ) -> list[FPTree]:
    """All relabelled trees of the arity with at most max_size nodes,
    sorted by (size, text)."""
    trees_of = _trees_by_leaves(signature, max_size)
    out = []
    for leaves in range(max_size + 1):
        trees = trees_of(leaves)
        if not trees:
            continue
        for table in itertools.product(range(1, arity + 1), repeat=leaves):
            f = FinFunction(leaves, arity, table)
            out.extend(FPTree(f, t) for t in trees)
    return sorted(out, key=_pair_order)
