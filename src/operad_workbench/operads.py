"""Operads of the three flavors and evaluation of trees inside them.

An operad here is a family of abstract n-ary elements with an arity-1
identity, simultaneous composition, and (depending on flavor) an action
of permutations or of arbitrary finite functions on inputs. The action
convention is substitutional throughout: a function f from n inputs to
m inputs turns an n-ary element p into the m-ary element whose i-th
original input reads input f(i), so permutations act on the left via
composition with the inverse.

Concrete instances: terminal operads (one element per arity), the
initial operad (only the identity), the operad of permutations,
multiplicity vectors (commutative-monoid operations), integer
polynomials, endomorphism operads of a finite carrier, and free operads
of labelled trees over a signature.

End-N tables are validated where they enter (FiniteOp, op_from_callable,
parse_element); EndOperad's identity, compose and act_fn gather from
validated tables and build through _trusted_op, which scans nothing.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Mapping, Sequence

from .finmaps import (FinFunction, block_compose, block_permutation,
                      comb_compose, compose, direct_sum, fn as make_fn,
                      format_fn, identity, inverse, parse_perm, perm,
                      select)
from .terms import (FLAVOR_RANK, Presentation, Signature, Term, _compositions,
                    format_term)
from .trees import (FPTree, LEAF, Leaf, Node, PermutedTree, act_fn_tree,
                    compose_fp, enumerate_fp_trees, enumerate_permuted_trees,
                    enumerate_trees, format_fp_tree, format_tree, graft,
                    parse_fp_tree, parse_permuted_tree, parse_tree,
                    to_object, tree_arity)


class OperadError(ValueError):
    pass


class Operad:
    """Shared interface; subclasses fill in the element type."""

    flavor = "plain"
    name = "operad"

    def identity(self):
        raise NotImplementedError

    def arity_of(self, p) -> int:
        raise NotImplementedError

    def compose(self, p, qs: Sequence):
        raise NotImplementedError

    def admit_tree(self, tree):
        """Refuses a tree whose evaluation would build an element this
        operad cannot hold; every tree is admitted unless a subclass
        budgets its elements."""

    def act_perm(self, sigma: FinFunction, p):
        if FLAVOR_RANK[self.flavor] < FLAVOR_RANK["symmetric"]:
            raise OperadError(f"{self.name} has no permutation action")
        return self.act_fn(sigma, p)

    def act_fn(self, f: FinFunction, p):
        raise OperadError(f"{self.name} has no finite-function action")

    def enumerate_elements(self, arity: int, bound: int) -> list:
        """At most bound elements of the arity, in a fixed canonical order."""
        raise NotImplementedError

    def parse_element(self, text: str):
        raise NotImplementedError

    def format_element(self, p) -> str:
        raise NotImplementedError

    def _check_compose(self, p, qs: Sequence):
        if len(qs) != self.arity_of(p):
            raise OperadError(
                f"composition needs {self.arity_of(p)} arguments, got {len(qs)}")

    def _check_act(self, f: FinFunction, p):
        if f.dom != self.arity_of(p):
            raise OperadError(
                f"action domain {f.dom} does not match arity {self.arity_of(p)}")
        if self.flavor == "symmetric" and not f.is_bijection:
            raise OperadError(f"{self.name} only acts by permutations")


class TerminalPlainOperad(Operad):
    """One element per arity; the element is its own arity."""

    flavor = "plain"
    name = "terminal-plain"

    def identity(self):
        return 1

    def arity_of(self, p) -> int:
        return p

    def compose(self, p, qs):
        self._check_compose(p, qs)
        return sum(qs)

    def enumerate_elements(self, arity, bound):
        return [arity] if bound >= 1 else []

    def parse_element(self, text):
        try:
            n = int(text)
        except ValueError:
            raise OperadError(f"expected an arity, got {text!r}") from None
        if n < 0:
            raise OperadError("arity must be nonnegative")
        return n

    def format_element(self, p):
        return str(p)


class TerminalSymmetricOperad(TerminalPlainOperad):
    """One element per arity with the trivial permutation action."""

    flavor = "symmetric"
    name = "terminal-symmetric"

    def act_fn(self, f, p):
        self._check_act(f, p)
        return p


class InitialOperad(Operad):
    """Only the arity-1 identity."""

    flavor = "symmetric"
    name = "initial"

    def identity(self):
        return 1

    def arity_of(self, p) -> int:
        if p != 1:
            raise OperadError("the only element is the identity")
        return 1

    def compose(self, p, qs):
        self._check_compose(p, qs)
        return 1

    def act_fn(self, f, p):
        self._check_act(f, p)
        return 1

    def enumerate_elements(self, arity, bound):
        return [1] if arity == 1 and bound >= 1 else []

    def parse_element(self, text):
        if text.strip() != "1":
            raise OperadError("the only element is 1")
        return 1

    def format_element(self, p):
        return "1"


class SymmetryOperad(Operad):
    """Permutations under block composition.

    Composing a permutation of n blocks with inner permutations shuffles
    whole blocks while each inner permutation shuffles within its block.
    The action is substitutional: sigma sends tau to tau after the
    inverse of sigma.
    """

    flavor = "symmetric"
    name = "symmetries"

    def identity(self):
        return identity(1)

    def arity_of(self, p) -> int:
        return p.dom

    def compose(self, p, qs):
        self._check_compose(p, qs)
        return block_compose(p, qs)

    def act_fn(self, f, p):
        self._check_act(f, p)
        return compose(p, inverse(f))

    def enumerate_elements(self, arity, bound):
        out = []
        for table in itertools.permutations(range(1, arity + 1)):
            if len(out) >= bound:
                break
            out.append(perm(table))
        return out

    def parse_element(self, text):
        try:
            return parse_perm(text)
        except Exception as exc:
            raise OperadError(str(exc)) from exc

    def format_element(self, p):
        return format_fn(p)


class CommMonoidFPOperad(Operad):
    """Multiplicity vectors: the n-ary operations of commutative monoids.

    An n-ary element is a vector of n multiplicities; composition scales
    each inner vector by the outer multiplicity of its slot and
    concatenates, and a finite function pushes multiplicities forward by
    summing fibers.
    """

    flavor = "fp"
    name = "comm-monoid-fp"

    def identity(self):
        return (1,)

    def arity_of(self, p) -> int:
        return len(p)

    def compose(self, p, qs):
        self._check_compose(p, qs)
        return tuple([scale * x for scale, q in zip(p, qs) for x in q])

    def act_fn(self, f, p):
        self._check_act(f, p)
        out = [0] * f.cod
        for j, x in zip(f.table, p):
            out[j - 1] += x
        return tuple(out)

    def enumerate_elements(self, arity, bound):
        out = []
        total = 0
        while len(out) < bound:
            batch = _compositions(total, arity, least=0)
            if not batch and total > 0 and arity == 0:
                break
            for v in batch:
                if len(out) >= bound:
                    break
                out.append(v)
            total += 1
        return out

    def parse_element(self, text):
        body = text.strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise OperadError(f"expected a vector like [1,2,0], got {text!r}")
        inner = body[1:-1].strip()
        if not inner:
            return ()
        try:
            values = tuple(int(x) for x in inner.split(","))
        except ValueError:
            raise OperadError(f"bad vector {text!r}") from None
        if any(x < 0 for x in values):
            raise OperadError("multiplicities must be nonnegative")
        return values

    def format_element(self, p):
        return "[" + ",".join(str(x) for x in p) + "]"


@dataclass(frozen=True)
class Poly:
    """Integer polynomial in variables x1..x_nvars, stored normalized."""

    nvars: int
    terms: tuple[tuple[tuple[int, ...], int], ...]

    def degree(self) -> int:
        return max((sum(e) for e, _ in self.terms), default=0)

    def evaluate(self, point: Sequence[int]) -> int:
        if len(point) != self.nvars:
            raise OperadError(
                f"point has {len(point)} coordinates, expected {self.nvars}")
        total = 0
        for exps, coeff in self.terms:
            value = coeff
            for x, e in zip(point, exps):
                value *= x ** e
            total += value
        return total


def _poly_norm(nvars: int, raw: Mapping[tuple[int, ...], int]) -> Poly:
    cleaned = {e: c for e, c in raw.items() if c != 0}
    ordered = sorted(cleaned.items(), key=lambda item: (-sum(item[0]), item[0]))
    return Poly(nvars, tuple(ordered))


def poly_const(nvars: int, c: int) -> Poly:
    return _poly_norm(nvars, {(0,) * nvars: c})


def poly_var(nvars: int, i: int) -> Poly:
    if not 1 <= i <= nvars:
        raise OperadError(f"variable x{i} out of range for {nvars} variables")
    exps = tuple(1 if j == i else 0 for j in range(1, nvars + 1))
    return _poly_norm(nvars, {exps: 1})


def poly_add(p: Poly, q: Poly) -> Poly:
    if p.nvars != q.nvars:
        raise OperadError("polynomial arities differ")
    raw: dict[tuple[int, ...], int] = dict(p.terms)
    for exps, coeff in q.terms:
        raw[exps] = raw.get(exps, 0) + coeff
    return _poly_norm(p.nvars, raw)


def poly_mul(p: Poly, q: Poly) -> Poly:
    if p.nvars != q.nvars:
        raise OperadError("polynomial arities differ")
    raw: dict[tuple[int, ...], int] = {}
    for e1, c1 in p.terms:
        for e2, c2 in q.terms:
            exps = tuple(a + b for a, b in zip(e1, e2))
            raw[exps] = raw.get(exps, 0) + c1 * c2
    return _poly_norm(p.nvars, raw)


def _poly_embed(q: Poly, total: int, offset: int) -> Poly:
    raw = {}
    for exps, coeff in q.terms:
        padded = (0,) * offset + exps + (0,) * (total - offset - q.nvars)
        raw[padded] = coeff
    return _poly_norm(total, raw)


class IntPolyFPOperad(Operad):
    """Integer polynomials under substitution.

    An n-ary element is a polynomial in x1..xn; composition substitutes
    inner polynomials (over disjoint variable blocks) for the outer
    variables, and a finite function relabels variables, merging
    exponents along fibers.
    """

    flavor = "fp"
    name = "int-poly-fp"

    def identity(self):
        return poly_var(1, 1)

    def arity_of(self, p) -> int:
        return p.nvars

    def compose(self, p, qs):
        self._check_compose(p, qs)
        sizes = [q.nvars for q in qs]
        total = sum(sizes)
        offsets = [sum(sizes[:i]) for i in range(len(sizes))]
        embedded = [_poly_embed(q, total, off) for q, off in zip(qs, offsets)]
        result = poly_const(total, 0)
        for exps, coeff in p.terms:
            term = poly_const(total, coeff)
            for factor, e in zip(embedded, exps):
                for _ in range(e):
                    term = poly_mul(term, factor)
            result = poly_add(result, term)
        return result

    def act_fn(self, f, p):
        self._check_act(f, p)
        raw: dict[tuple[int, ...], int] = {}
        for exps, coeff in p.terms:
            merged = [0] * f.cod
            for i, e in enumerate(exps, start=1):
                merged[f(i) - 1] += e
            key = tuple(merged)
            raw[key] = raw.get(key, 0) + coeff
        return _poly_norm(f.cod, raw)

    def enumerate_elements(self, arity, bound):
        out = [poly_const(arity, 0), poly_const(arity, 1)]
        degree = 1
        while len(out) < bound and degree <= bound:
            for exps in _compositions(degree, arity, least=0):
                if len(out) >= bound:
                    break
                out.append(_poly_norm(arity, {exps: 1}))
            degree += 1
        return out[:bound]

    def parse_element(self, text):
        return parse_poly(text)

    def format_element(self, p):
        return format_poly(p)


_POLY_TERM_RE = re.compile(
    r"^\s*(?:(?P<coeff>-?[0-9]+)\s*(?:\*\s*)?)?(?P<vars>(?:x[1-9][0-9]*(?:\^[0-9]+)?\s*(?:\*\s*)?)*)\s*$")
_POLY_VAR_RE = re.compile(r"x([1-9][0-9]*)(?:\^([0-9]+))?")


def parse_poly(text: str) -> Poly:
    """Parse a polynomial like `2*x1^2*x2 - 3`; its arity is the largest
    variable index."""
    chunks: list[tuple[int, str]] = []
    sign = 1
    body = text.strip()
    if not body:
        raise OperadError("empty polynomial")
    if body.startswith("+") or body.startswith("-"):
        sign = -1 if body[0] == "-" else 1
        body = body[1:]
    while True:
        plus = _next_sign(body)
        if plus is None:
            chunks.append((sign, body))
            break
        chunks.append((sign, body[:plus]))
        sign = -1 if body[plus] == "-" else 1
        body = body[plus + 1:]
    parsed: list[tuple[int, dict[int, int]]] = []
    max_index = 0
    for sgn, chunk in chunks:
        m = _POLY_TERM_RE.match(chunk)
        if not m or not chunk.strip():
            raise OperadError(f"bad polynomial term {chunk!r}")
        coeff = int(m.group("coeff")) if m.group("coeff") else 1
        exps: dict[int, int] = {}
        for vm in _POLY_VAR_RE.finditer(m.group("vars") or ""):
            index = int(vm.group(1))
            power = int(vm.group(2)) if vm.group(2) else 1
            exps[index] = exps.get(index, 0) + power
            max_index = max(max_index, index)
        parsed.append((sgn * coeff, exps))
    raw: dict[tuple[int, ...], int] = {}
    for coeff, exps in parsed:
        key = tuple(exps.get(i, 0) for i in range(1, max_index + 1))
        raw[key] = raw.get(key, 0) + coeff
    return _poly_norm(max_index, raw)


def _next_sign(body: str) -> int | None:
    for i, ch in enumerate(body):
        if ch in "+-":
            return i
    return None


def format_poly(p: Poly) -> str:
    if not p.terms:
        return "0"
    pieces = []
    for position, (exps, coeff) in enumerate(p.terms):
        factors = []
        for i, e in enumerate(exps, start=1):
            if e == 1:
                factors.append(f"x{i}")
            elif e > 1:
                factors.append(f"x{i}^{e}")
        magnitude = abs(coeff)
        if not factors:
            body = str(magnitude)
        elif magnitude == 1:
            body = "*".join(factors)
        else:
            body = f"{magnitude}*" + "*".join(factors)
        if position == 0:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces)


@dataclass(frozen=True)
class FiniteOp:
    """A total n-ary operation on the carrier {1..carrier}, tabulated."""

    carrier: int
    arity: int
    table: tuple[int, ...]

    def __post_init__(self):
        entries = _table_entries(self.carrier, self.arity)
        if len(self.table) != entries:
            raise OperadError(
                f"table needs {entries} entries, got {len(self.table)}")
        if self.table and not (1 <= min(self.table)
                               and max(self.table) <= self.carrier):
            raise OperadError("table values must lie in the carrier")

    def __call__(self, args: Sequence[int]) -> int:
        if len(args) != self.arity:
            raise OperadError(f"expected {self.arity} arguments")
        index = 0
        for a in args:
            if not 1 <= a <= self.carrier:
                raise OperadError("argument outside the carrier")
            index = index * self.carrier + (a - 1)
        return self.table[index]


def _trusted_op(carrier: int, arity: int, table: tuple) -> FiniteOp:
    """Wrap a table gathered from validated ones: skips __post_init__."""
    op = object.__new__(FiniteOp)
    op.__dict__.update(carrier=carrier, arity=arity, table=table)
    return op


# the most entries an operation table on a finite carrier may have, far
# above the 3^9-entry composites of the certify benchmark
_TABLE_ENTRIES = 2 ** 20


def _table_entries(carrier: int, arity: int) -> int:
    """The entry count of an arity's operation table on the carrier,
    refused before any table is built when it exceeds the budget or the
    arity is negative. Two or more elements exceed it from the budget's
    bit length (21) on, so a wider arity is refused without computing a
    power that grows with it."""
    if arity < 0:
        raise OperadError(f"negative arity {arity}")
    widest = _TABLE_ENTRIES.bit_length()
    entries = carrier ** (min(arity, widest) if carrier > 1 else arity)
    if entries > _TABLE_ENTRIES:
        raise OperadError(
            f"an operation of arity {arity} on {carrier} elements needs "
            f"{carrier}^{arity} table entries, over the budget of "
            f"{_TABLE_ENTRIES}")
    return entries


def _gather(table: Sequence[int], columns: Sequence[list[int]]) -> tuple:
    """table at every sum of one entry per column, the last column
    varying fastest. Trailing columns fold into the last while it is
    shorter than the other columns' offsets and dense in its span; one
    itemgetter pick per offset then reads it from a slice of table."""
    *heads, last = columns or [[0]]  # no column: the one entry table[0]
    while heads and len(last) < math.prod(map(len, heads)):
        folded = [o + x for o in heads[-1] for x in last]
        if max(folded) >= 2 * len(folded):
            break
        heads.pop()
        last = folded
    offsets = [0]
    for column in heads:
        offsets = [o + x for o in offsets for x in column]
    span = max(last) + 1
    if len(last) < 8 or span > 2 * len(last):
        # entry by entry is faster for a short or sparse column, and a
        # one-entry itemgetter returns its entry, not a tuple
        return tuple([table[o + x] for o in offsets for x in last])
    out, pick = [], itemgetter(*last)
    for o in offsets:
        out += pick(table[o:o + span])
    return tuple(out)


def op_from_callable(carrier: int, arity: int, fn: Callable) -> FiniteOp:
    _table_entries(carrier, arity)
    table = []
    for args in itertools.product(range(1, carrier + 1), repeat=arity):
        table.append(fn(*args))
    return FiniteOp(carrier, arity, tuple(table))


class EndOperad(Operad):
    """All finitary operations on a finite carrier, under substitution.
    A composite or acted table is gathered from the outer element's
    validated table, so each of its entries lies in the carrier."""

    flavor = "fp"

    def __init__(self, carrier: int):
        if carrier < 1:
            raise OperadError("carrier must be nonempty")
        self.carrier = carrier
        self.name = f"end-{carrier}"

    def identity(self):
        return _trusted_op(self.carrier, 1, tuple(range(1, self.carrier + 1)))

    def arity_of(self, p) -> int:
        return p.arity

    def admit_tree(self, tree):
        # the composites of a plain tree have its subtrees' leaf counts as
        # arities, and a relabelled tree's action then builds its arity,
        # so the widest table is refused before any composite is built
        if isinstance(tree, FPTree):
            _table_entries(self.carrier, max(tree_arity(tree.tree),
                                             tree.arity))
        else:
            _table_entries(self.carrier, tree_arity(tree))

    def compose(self, p, qs):
        self._check_compose(p, qs)
        if any(q.carrier != self.carrier for q in (p, *qs)):
            raise OperadError("carrier mismatch")
        arity = sum(q.arity for q in qs)
        _table_entries(self.carrier, arity)
        # the composite's arguments are the inner blocks side by side, so
        # inner element i adds its value times p's stride i to the index
        columns = []
        stride = 1
        for q in reversed(qs):
            columns.append([(v - 1) * stride for v in q.table])
            stride *= self.carrier
        columns.reverse()
        return _trusted_op(self.carrier, arity, _gather(p.table, columns))

    def act_fn(self, f, p):
        self._check_act(f, p)
        _table_entries(self.carrier, f.cod)
        # argument j is p's argument i for each i in f's fiber over j
        weights = [0] * f.cod
        for i, j in enumerate(f.table):
            weights[j - 1] += self.carrier ** (f.dom - 1 - i)
        columns = [[v * w for v in range(self.carrier)] for w in weights]
        return _trusted_op(self.carrier, f.cod, _gather(p.table, columns))

    def enumerate_elements(self, arity, bound):
        out = []
        for table in itertools.product(
                range(1, self.carrier + 1),
                repeat=_table_entries(self.carrier, arity)):
            if len(out) >= bound:
                break
            out.append(FiniteOp(self.carrier, arity, table))
        return out

    def parse_element(self, text):
        arity_text, sep, table_text = text.partition(":")
        if not sep:
            raise OperadError(f"expected 'arity:[values]', got {text!r}")
        try:
            arity = int(arity_text.strip())
        except ValueError:
            raise OperadError(f"bad arity in {text!r}") from None
        _table_entries(self.carrier, arity)
        body = table_text.strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise OperadError(f"expected a table like [1,2], got {text!r}")
        inner = body[1:-1].strip()
        try:
            values = tuple(int(x) for x in inner.split(",")) if inner else ()
        except ValueError:
            raise OperadError(f"bad table entry in {text!r}") from None
        return FiniteOp(self.carrier, arity, values)

    def format_element(self, p):
        return f"{p.arity}:[" + ",".join(str(v) for v in p.table) + "]"


# per flavor of free operad: the element made of an identity function
# and a plain tree (plain elements are the bare tree), then composition,
# printing, enumeration and parsing of elements
_FREE_FLAVORS = {
    "plain": (lambda f, t: t, graft, format_tree, enumerate_trees,
              parse_tree),
    "symmetric": (PermutedTree, compose_fp, format_fp_tree,
                  enumerate_permuted_trees, parse_permuted_tree),
    "fp": (FPTree, compose_fp, format_fp_tree, enumerate_fp_trees,
           parse_fp_tree),
}


class FreeOperad(Operad):
    """Labelled trees over a signature, composed by grafting.

    Elements are plain trees, permuted trees, or relabelled trees
    according to the flavor. No equations are imposed: two elements are
    equal exactly when they are the same labelled pair.
    """

    def __init__(self, signature: Signature, flavor: str = "plain"):
        if flavor not in FLAVOR_RANK:
            raise OperadError(f"unknown flavor {flavor!r}")
        self.signature = signature
        self.flavor = flavor
        self.name = f"free-{flavor}"
        (self._pair, self._compose, self._format, self._enumerate_at,
         self._parse) = _FREE_FLAVORS[flavor]

    def identity(self):
        return self._pair(identity(1), LEAF)

    def generator(self, op: str):
        k = self.signature.arity(op)
        return self._pair(identity(k), Node(op, (LEAF,) * k))

    def arity_of(self, p) -> int:
        if self.flavor == "plain":
            return tree_arity(p)
        return p.arity

    def compose(self, p, qs):
        self._check_compose(p, qs)
        return self._compose(p, qs)

    def act_fn(self, f, p):
        if self.flavor == "plain":
            return super().act_fn(f, p)
        self._check_act(f, p)
        return act_fn_tree(f, p)

    def enumerate_elements(self, arity, bound):
        max_size = 1
        out: list = []
        while len(out) < bound and max_size <= 2 * bound + 2:
            out = self._enumerate_at(self.signature, arity, max_size)
            max_size += 1
        return out[:bound]

    def parse_element(self, text):
        try:
            return self._parse(text, self.signature)
        except Exception as exc:
            raise OperadError(str(exc)) from exc

    def format_element(self, p):
        return self._format(p)


def eval_tree(tree, assignment: Mapping[str, object], operad: Operad,
              memo: dict | None = None):
    """Evaluate a tree in an operad, sending each node label through the
    assignment. Permuted and relabelled pairs evaluate their plain tree
    and then apply the action. A tree the operad's budget refuses is
    refused before anything is composed. A memo, when given, maps plain
    subtrees to their values and is read and filled."""
    operad.admit_tree(tree)
    return _eval_tree(tree, assignment, operad, memo)


def _eval_tree(tree, assignment: Mapping[str, object], operad: Operad,
               memo: dict | None):
    if isinstance(tree, FPTree):
        act = operad.act_perm if isinstance(tree, PermutedTree) \
            else operad.act_fn
        return act(tree.fn, _eval_tree(tree.tree, assignment, operad, memo))
    if memo is not None and (value := memo.get(tree)) is not None:
        return value
    if isinstance(tree, Leaf):
        value = operad.identity()
    elif tree.op not in assignment:
        raise OperadError(f"no assignment for operation {tree.op!r}")
    else:
        value = operad.compose(
            assignment[tree.op],
            [_eval_tree(c, assignment, operad, memo) for c in tree.children])
    if memo is not None:
        memo[tree] = value
    return value


class Interpretation:
    """An assignment of operad elements to the operations of a
    presentation, arity checked at construction."""

    def __init__(self, presentation: Presentation, operad: Operad,
                 assignment: Mapping[str, object]):
        if FLAVOR_RANK[operad.flavor] < FLAVOR_RANK[presentation.flavor]:
            raise OperadError(
                f"target {operad.name} ({operad.flavor}) cannot interpret a "
                f"{presentation.flavor} presentation")
        for op, declared in presentation.signature.ops:
            if op not in assignment:
                raise OperadError(f"missing assignment for {op!r}")
            actual = operad.arity_of(assignment[op])
            if actual != declared:
                raise OperadError(
                    f"operation {op!r} has arity {declared}, "
                    f"assigned element has arity {actual}")
        self.presentation = presentation
        self.operad = operad
        self.assignment = dict(assignment)

    def eval_term(self, t: Term, n: int):
        """Evaluate a term at a declared arity: split off the labelling
        function, evaluate the shape, then act."""
        return eval_tree(to_object(t, n), self.assignment, self.operad)

    def eval_tree(self, tree, memo: dict | None = None):
        return eval_tree(tree, self.assignment, self.operad, memo)


def validate_interpretation(interp: Interpretation) -> CheckReport:
    """Check every equation of the presentation under the assignment."""
    report = CheckReport()
    for eq in interp.presentation.equations:
        report.note("equation")
        lhs = interp.eval_term(eq.lhs, eq.arity)
        rhs = interp.eval_term(eq.rhs, eq.arity)
        if lhs != rhs:
            report.fail(f"fails {format_term(eq.lhs)} = {format_term(eq.rhs)} "
                        f"@{eq.arity}: {interp.operad.format_element(lhs)} != "
                        f"{interp.operad.format_element(rhs)}")
    return report


@dataclass
class CheckReport:
    """Instances checked per law and the failures found, shared by every
    exhaustive check of the workbench."""

    checked: dict[str, int] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def note(self, label: str, count: int = 1):
        self.checked[label] = self.checked.get(label, 0) + count

    def fail(self, message: str):
        self.failures.append(message)

    def check(self, law: str, ok: bool, describe: Callable[[], str]):
        """Count one instance of the law; a failing one is recorded as
        `law: description`, and only then is the description rendered."""
        self.note(law)
        if not ok:
            self.fail(f"{law}: {describe()}")

    def lines(self) -> list[str]:
        out = [f"ok {label}: {count} instances"
               for label, count in sorted(self.checked.items())]
        out.extend(f"FAIL {msg}" for msg in self.failures)
        return out


def unit_instance_ok(operad: Operad, p) -> bool:
    n = operad.arity_of(p)
    left = operad.compose(operad.identity(), [p])
    right = operad.compose(p, [operad.identity()] * n)
    return left == p and right == p


def assoc_instance_ok(operad: Operad, p, qs: Sequence, rss: Sequence[Sequence]) -> bool:
    flat = [r for rs in rss for r in rs]
    one_shot = operad.compose(operad.compose(p, qs), flat)
    nested = operad.compose(p, [operad.compose(q, rs) for q, rs in zip(qs, rss)])
    return one_shot == nested


def act_functorial_ok(operad: Operad, g: FinFunction, f: FinFunction, p) -> bool:
    stepwise = operad.act_fn(g, operad.act_fn(f, p))
    joined = operad.act_fn(compose(g, f), p)
    identity_ok = operad.act_fn(identity(operad.arity_of(p)), p) == p
    return identity_ok and stepwise == joined


def equivariance_outer_ok(operad: Operad, sigma: FinFunction, p,
                          rs: Sequence) -> bool:
    """Acting on the outer element then composing equals composing the
    permuted argument list and block-permuting the result."""
    sizes = [operad.arity_of(r) for r in rs]
    left = operad.compose(operad.act_perm(sigma, p), rs)
    routed = select(sigma, tuple(rs))
    bp = block_permutation(sigma, sizes)
    right = operad.act_perm(bp, operad.compose(p, list(routed)))
    return left == right


def equivariance_inner_ok(operad: Operad, p, gs: Sequence[FinFunction],
                          rs: Sequence) -> bool:
    """Acting on each argument equals composing first and acting by the
    direct sum."""
    left = operad.compose(p, [operad.act_fn(g, r) for g, r in zip(gs, rs)])
    right = operad.act_fn(direct_sum(list(gs)), operad.compose(p, list(rs)))
    return left == right


def combing_ok(operad: Operad, f: FinFunction, p, gs: Sequence[FinFunction],
               qs: Sequence) -> bool:
    """Composing two acted elements equals acting by the block
    substitution of the functions on the composite of the bare elements."""
    acted_inner = [operad.act_fn(g, q) for g, q in zip(gs, qs)]
    left = operad.compose(operad.act_fn(f, p), acted_inner)
    routed = select(f, tuple(qs))
    right = operad.act_fn(comb_compose(f, list(gs)),
                          operad.compose(p, list(routed)))
    return left == right


def _heads(pools: Mapping[int, list], ks: Sequence[int]) -> list | None:
    """The first pooled element of each arity in ks, or None when one of
    those pools is empty."""
    if not all(pools.get(k) for k in ks):
        return None
    return [pools[k][0] for k in ks]


_AXIOM_ARITY = 2
_AXIOM_ELEMENTS = 4


def operad_axiom_check(operad: Operad) -> CheckReport:
    """Systematically probe the operad laws on small enumerated elements.

    Walks units, associativity, action functoriality, both equivariance
    shapes, and (for fp flavor) the combined substitution law, on the
    first four elements of each arity up to 2. Pools that small keep
    each law to about a hundred instances, so none is capped.
    """
    pools = {n: operad.enumerate_elements(n, _AXIOM_ELEMENTS)
             for n in range(_AXIOM_ARITY + 1)}
    report = CheckReport()

    for pool in pools.values():
        for p in pool:
            report.check("unit", unit_instance_ok(operad, p),
                         lambda: operad.format_element(p))

    for n in range(_AXIOM_ARITY + 1):
        for p in pools[n]:
            for ks in itertools.product(range(_AXIOM_ARITY + 1), repeat=n):
                qs = _heads(pools, ks)
                if qs is None:
                    continue
                rss = [[operad.identity()] * k for k in ks]
                report.check("associativity",
                             assoc_instance_ok(operad, p, qs, rss),
                             lambda: operad.format_element(p))

    if FLAVOR_RANK[operad.flavor] >= FLAVOR_RANK["symmetric"]:
        for n in range(1, _AXIOM_ARITY + 1):
            tables = list(itertools.permutations(range(1, n + 1)))
            for p in pools[n]:
                for t1 in tables:
                    for t2 in tables:
                        report.check(
                            "action",
                            act_functorial_ok(operad, perm(t1), perm(t2), p),
                            lambda: operad.format_element(p))
                for t in tables:
                    for ks in itertools.product(range(_AXIOM_ARITY + 1),
                                                repeat=n):
                        rs = _heads(pools, ks)
                        if rs is None:
                            continue
                        report.check(
                            "equivariance-outer",
                            equivariance_outer_ok(operad, perm(t), p, rs),
                            lambda: f"{operad.format_element(p)} by {t}")

        for n in range(1, _AXIOM_ARITY + 1):
            for p in pools[n]:
                for ks in itertools.product(range(1, _AXIOM_ARITY + 1),
                                            repeat=n):
                    rs = _heads(pools, ks)
                    if rs is None:
                        continue
                    if operad.flavor == "fp":
                        gs = [make_fn((1,) * k, 1) for k in ks]
                    else:
                        gs = [perm(tuple(range(k, 0, -1))) for k in ks]
                    report.check("equivariance-inner",
                                 equivariance_inner_ok(operad, p, gs, rs),
                                 lambda: operad.format_element(p))

    if operad.flavor == "fp":
        fns = [make_fn(table, c)
               for c in range(1, _AXIOM_ARITY + 1)
               for dom in range(1, _AXIOM_ARITY + 1)
               for table in itertools.product(range(1, c + 1), repeat=dom)]
        inner_shapes = [(1,), (1, 1)]
        for f in fns:
            for p in pools.get(f.dom, []):
                for gs_tables in itertools.product(inner_shapes, repeat=f.cod):
                    qs = _heads(pools, [len(t) for t in gs_tables])
                    if qs is None:
                        continue
                    gs = [make_fn(t, 1) for t in gs_tables]
                    report.check(
                        "combined-substitution",
                        combing_ok(operad, f, p, gs, qs),
                        lambda: f"{operad.format_element(p)} by {format_fn(f)}")

    return report


BUILTIN_OPERADS: dict[str, Callable[[], Operad]] = {
    "terminal-plain": TerminalPlainOperad,
    "terminal-symmetric": TerminalSymmetricOperad,
    "initial": InitialOperad,
    "symmetries": SymmetryOperad,
    "comm-monoid-fp": CommMonoidFPOperad,
    "int-poly-fp": IntPolyFPOperad,
}


def builtin_operad(name: str, presentation: Presentation | None = None) -> Operad:
    """Look up a target operad by name; `free` builds the free operad of
    the presentation's own flavor over its signature, and `end-N` the
    endomorphism operad of an N-element carrier."""
    if name == "free":
        if presentation is None:
            raise OperadError("the free target needs a presentation")
        return FreeOperad(presentation.signature, presentation.flavor)
    m = re.fullmatch(r"end-([0-9]+)", name)
    if m:
        return EndOperad(int(m.group(1)))
    if name in BUILTIN_OPERADS:
        return BUILTIN_OPERADS[name]()
    raise OperadError(f"unknown target operad {name!r}")


def default_assignment(presentation: Presentation, operad: Operad
                       ) -> dict[str, object]:
    """The stock assignment used by the command line for each builtin:
    whatever canonical element of the right arity the target offers."""
    out: dict[str, object] = {}
    for op, k in presentation.signature.ops:
        if isinstance(operad, (TerminalPlainOperad, TerminalSymmetricOperad)):
            out[op] = k
        elif isinstance(operad, InitialOperad):
            if k != 1:
                raise OperadError(
                    f"the initial operad has no element of arity {k}")
            out[op] = 1
        elif isinstance(operad, SymmetryOperad):
            out[op] = identity(k)
        elif isinstance(operad, CommMonoidFPOperad):
            out[op] = (1,) * k
        elif isinstance(operad, IntPolyFPOperad):
            zero = poly_const(k, 0)
            total = zero
            for i in range(1, k + 1):
                total = poly_add(total, poly_var(k, i))
            out[op] = total
        elif isinstance(operad, FreeOperad):
            out[op] = operad.generator(op)
        elif isinstance(operad, EndOperad):
            out[op] = op_from_callable(
                operad.carrier, k,
                lambda *args: args[0] if args else 1)
        else:
            raise OperadError(
                f"no default assignment for target {operad.name}")
    return out
