"""Signatures, terms, equations, presentations, and bounded equality closure.

Terms are syntax trees with numbered variable leaves x1, x2, ... and
operation nodes drawn from a signature. A term is classified by its
labelling function (the left-to-right sequence of variable occurrences):
identity = strongly regular, bijection = linear, anything else = general.
An equation carries its arity explicitly since the classification
depends on it.
"""

from __future__ import annotations

import re
from dataclasses import InitVar, dataclass
from operator import itemgetter
from typing import Callable, Mapping, Sequence

from .finmaps import FinFunction

STRONGLY_REGULAR = "strongly_regular"
LINEAR = "linear"
GENERAL = "general"

_CLASS_RANK = {STRONGLY_REGULAR: 0, LINEAR: 1, GENERAL: 2}


class TermError(ValueError):
    pass


class PresentationError(ValueError):
    pass


@dataclass(frozen=True)
class Var:
    index: int

    def __post_init__(self):
        if self.index < 1:
            raise TermError(f"variable index {self.index} must be positive")


@dataclass(frozen=True)
class App:
    op: str
    args: tuple["Term", ...]


Term = Var | App

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_VAR_RE = re.compile(r"^x[1-9][0-9]*$")


def _check_op(name: str, arity: int, seen: set[str]):
    """Refuse a bad name, a negative arity or a name in seen; then add
    the name to seen."""
    if not _NAME_RE.fullmatch(name) or _VAR_RE.match(name):
        raise TermError(f"bad operation name {name!r}")
    if arity < 0:
        raise TermError(f"negative arity for {name!r}")
    if name in seen:
        raise TermError(f"duplicate operation {name!r}")
    seen.add(name)


@dataclass(frozen=True)
class Signature:
    """A finite family of operation names with arities."""

    ops: tuple[tuple[str, int], ...]

    def __post_init__(self):
        seen = set()
        for name, arity in self.ops:
            _check_op(name, arity, seen)

    @classmethod
    def of(cls, ops: Mapping[str, int]) -> "Signature":
        return cls(tuple(ops.items()))

    def arity(self, name: str) -> int:
        for op, k in self.ops:
            if op == name:
                return k
        raise TermError(f"unknown operation {name!r}")

    def names(self) -> list[str]:
        return [op for op, _ in self.ops]

    def __contains__(self, name: str) -> bool:
        return any(op == name for op, _ in self.ops)


def validate_term(t: Term, signature: Signature) -> None:
    if isinstance(t, Var):
        return
    if t.op not in signature:
        raise TermError(f"unknown operation {t.op!r}")
    declared = signature.arity(t.op)
    if len(t.args) != declared:
        raise TermError(
            f"operation {t.op!r} expects {declared} arguments, got {len(t.args)}")
    for a in t.args:
        validate_term(a, signature)


def term_size(t: Term) -> int:
    if isinstance(t, Var):
        return 1
    return 1 + sum(term_size(a) for a in t.args)


def var_seq(t: Term) -> tuple[int, ...]:
    """Left-to-right sequence of variable occurrences."""
    if isinstance(t, Var):
        return (t.index,)
    out: list[int] = []
    for a in t.args:
        out.extend(var_seq(a))
    return tuple(out)


def support(t: Term) -> frozenset[int]:
    return frozenset(var_seq(t))


def max_var(t: Term) -> int:
    return max(support(t), default=0)


def label_fn(t: Term, n: int) -> FinFunction:
    """The labelling function [m] -> [n], j |-> index of the j-th occurrence."""
    seq = var_seq(t)
    for v in seq:
        if v > n:
            raise TermError(f"variable x{v} exceeds declared arity {n}")
    return FinFunction(len(seq), n, seq)


def classify_term(t: Term, n: int) -> str:
    lbl = label_fn(t, n)
    if lbl.is_identity:
        return STRONGLY_REGULAR
    if lbl.is_bijection:
        return LINEAR
    return GENERAL


def substitute(t: Term, binding: Mapping[int, Term]) -> Term:
    if isinstance(t, Var):
        try:
            return binding[t.index]
        except KeyError:
            raise TermError(f"no binding for x{t.index}") from None
    return App(t.op, tuple(substitute(a, binding) for a in t.args))


def subterm_at(t: Term, pos: Sequence[int]) -> Term:
    for i in pos:
        if not isinstance(t, App) or i >= len(t.args):
            raise TermError(f"no subterm at {tuple(pos)}")
        t = t.args[i]
    return t


def replace_at(t: Term, pos: Sequence[int], s: Term) -> Term:
    if not pos:
        return s
    if not isinstance(t, App) or pos[0] >= len(t.args):
        raise TermError(f"no subterm at {tuple(pos)}")
    args = list(t.args)
    args[pos[0]] = replace_at(args[pos[0]], pos[1:], s)
    return App(t.op, tuple(args))


@dataclass(frozen=True)
class Equation:
    """A pair of terms at a declared arity."""

    arity: int
    lhs: Term
    rhs: Term

    def __post_init__(self):
        if self.arity < 0:
            raise TermError("negative equation arity")
        for side in (self.lhs, self.rhs):
            bad = [v for v in support(side) if v > self.arity]
            if bad:
                raise TermError(
                    f"variable x{bad[0]} exceeds equation arity {self.arity}")


def classify_equation(eq: Equation) -> str:
    left = classify_term(eq.lhs, eq.arity)
    right = classify_term(eq.rhs, eq.arity)
    return left if _CLASS_RANK[left] >= _CLASS_RANK[right] else right


FLAVORS = ("plain", "symmetric", "fp")
FLAVOR_RANK = {"plain": 0, "symmetric": 1, "fp": 2}


@dataclass(frozen=True)
class Presentation:
    """A theory whose equations are valid in its signature and carried
    by its flavor; parse_presentation, which checks each at its line,
    passes _checked to skip checking them again."""

    name: str
    flavor: str
    signature: Signature
    equations: tuple[Equation, ...]
    _checked: InitVar[bool] = False

    def __post_init__(self, _checked: bool):
        if _checked:
            return
        if self.flavor not in FLAVORS:
            raise PresentationError(f"unknown flavor {self.flavor!r}")
        for eq in self.equations:
            validate_term(eq.lhs, self.signature)
            validate_term(eq.rhs, self.signature)
            _check_flavor(self.flavor, eq)


def _check_flavor(flavor: str, eq: Equation):
    """Refuse an equation the flavor cannot carry: plain theories take
    only strongly regular equations, symmetric ones only linear ones."""
    cls = classify_equation(eq)
    if flavor == "plain" and cls != STRONGLY_REGULAR:
        raise PresentationError(
            f"plain flavor requires strongly regular equations, "
            f"got {format_equation(eq)} ({cls})")
    if flavor == "symmetric" and cls == GENERAL:
        raise PresentationError(
            f"symmetric flavor requires linear equations, "
            f"got {format_equation(eq)} ({cls})")


def classify_presentation(p: Presentation) -> str:
    worst = STRONGLY_REGULAR
    for eq in p.equations:
        cls = classify_equation(eq)
        if _CLASS_RANK[cls] > _CLASS_RANK[worst]:
            worst = cls
    return worst


def format_term(t: Term) -> str:
    if isinstance(t, Var):
        return f"x{t.index}"
    if not t.args:
        return t.op
    return f"{t.op}({','.join(format_term(a) for a in t.args)})"


def format_equation(eq: Equation) -> str:
    return f"@{eq.arity}: {format_term(eq.lhs)} = {format_term(eq.rhs)}"


# the deepest parenthesis nesting a term or tree may have. The walks
# over a parsed term recurse once per level; the deepest, evaluating in
# the free operad and comparing the result, takes about four of the
# interpreter's default 1,000 frames per level, so 200 leaves headroom
_MAX_NESTING = 200


class _Scanner:
    """Cursor over one line of input shared by the term and tree parsers;
    errors name the column and come out as the subclass's error_class."""

    error_class: type[ValueError]

    def __init__(self, text: str, signature: Signature | None):
        self.text = text
        self.pos = 0
        self.signature = signature
        self.depth = 0

    def error(self, message: str) -> ValueError:
        return self.error_class(
            f"{message} at column {self.pos + 1} in {self.text!r}")

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        self.skip_ws()
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def finish(self):
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error("trailing input")

    def arguments(self, item: Callable[[], object]) -> tuple:
        """A parenthesised, comma-separated list of item() results, or ()
        when no parenthesis follows."""
        self.skip_ws()
        if self.peek() != "(":
            return ()
        if self.depth == _MAX_NESTING:
            raise self.error(f"nesting deeper than {_MAX_NESTING}")
        self.depth += 1
        self.pos += 1
        parsed = [item()]
        self.skip_ws()
        while self.peek() == ",":
            self.pos += 1
            parsed.append(item())
            self.skip_ws()
        self.expect(")")
        self.depth -= 1
        return tuple(parsed)

    def check_op(self, name: str, count: int, noun: str):
        """Under a signature, refuse an operation it does not declare, or
        one given count arguments or children (the noun) where it
        declares another number."""
        if self.signature is None:
            return
        if name not in self.signature:
            raise self.error(f"unknown operation {name!r}")
        declared = self.signature.arity(name)
        if count != declared:
            raise self.error(
                f"operation {name!r} expects {declared} {noun}, got {count}")


class _TermParser(_Scanner):
    error_class = TermError

    def name(self) -> str:
        self.skip_ws()
        m = _NAME_RE.match(self.text, self.pos)
        if not m:
            raise self.error("expected a name")
        self.pos = m.end()
        return m.group(0)

    def term(self) -> Term:
        name = self.name()
        if _VAR_RE.match(name):
            return Var(int(name[1:]))
        args = self.arguments(self.term)
        self.check_op(name, len(args), "arguments")
        return App(name, args)


def parse_term(text: str, signature: Signature | None = None) -> Term:
    parser = _TermParser(text, signature)
    t = parser.term()
    parser.finish()
    return t


_EQ_ARITY_RE = re.compile(r"^@([0-9]+)\s*:\s*(.*)$")


def parse_presentation(text: str) -> Presentation:
    """Parse the theory file format.

    Layout: a `theory <Name>` line, a `flavor plain|symmetric|fp` line,
    an `ops:` section of `name : arity` lines, and an optional `eqs:`
    section of `[@n:] lhs = rhs` lines. Lines starting with `#` are
    comments, and a line whose first word is `theory` or `flavor` is a
    header line wherever it stands; each header may appear only once.
    Equation arity defaults to the maximal variable index.
    """
    name = None
    flavor = None
    ops: list[tuple[str, int]] = []
    seen: set[str] = set()
    # each equation with its line, parsed once every operation is known
    raw_eqs: list[tuple[int, int | None, str, str]] = []
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue

        def fail(message: str):
            raise PresentationError(f"line {lineno}: {message}")

        keyword, rest = (line.split(None, 1) + [""])[:2]
        if keyword == "theory":
            if name is not None:
                fail("repeated theory line")
            name = rest
            if not name:
                fail("theory needs a name")
            continue
        if keyword == "flavor":
            if flavor is not None:
                fail("repeated flavor line")
            flavor = rest
            if flavor not in FLAVORS:
                fail(f"unknown flavor {flavor!r}")
            continue
        if line == "ops:":
            section = "ops"
            continue
        if line == "eqs:":
            section = "eqs"
            continue
        if section == "ops":
            if ":" not in line:
                fail(f"expected 'name : arity', got {line!r}")
            op_name, _, arity_text = line.partition(":")
            try:
                ops.append((op_name.strip(), int(arity_text.strip())))
            except ValueError:
                fail(f"bad arity in {line!r}")
            try:
                _check_op(*ops[-1], seen)
            except TermError as exc:
                fail(str(exc))
            continue
        if section == "eqs":
            arity: int | None = None
            body = line
            m = _EQ_ARITY_RE.match(line)
            if m:
                arity = int(m.group(1))
                body = m.group(2)
            if "=" not in body:
                fail(f"expected 'lhs = rhs', got {line!r}")
            lhs_text, _, rhs_text = body.partition("=")
            raw_eqs.append((lineno, arity, lhs_text.strip(), rhs_text.strip()))
            continue
        fail(f"unexpected line {line!r}")

    if name is None:
        raise PresentationError("missing theory line")
    if flavor is None:
        raise PresentationError("missing flavor line")
    signature = Signature(tuple(ops))
    equations = []
    for lineno, arity, lhs_text, rhs_text in raw_eqs:
        try:
            lhs = parse_term(lhs_text, signature)
            rhs = parse_term(rhs_text, signature)
            if arity is None:
                arity = max(max_var(lhs), max_var(rhs))
            equations.append(Equation(arity, lhs, rhs))
            _check_flavor(flavor, equations[-1])
        except (TermError, PresentationError) as exc:
            raise PresentationError(f"line {lineno}: {exc}") from exc
    return Presentation(name, flavor, signature, tuple(equations), True)


def format_presentation(p: Presentation) -> str:
    lines = [f"theory {p.name}", f"flavor {p.flavor}", "ops:"]
    lines.extend(f"  {op} : {arity}" for op, arity in p.signature.ops)
    if p.equations:
        lines.append("eqs:")
        lines.extend(f"  {format_equation(eq)}" for eq in p.equations)
    return "\n".join(lines) + "\n"


class TermTable(list):
    """The terms enumerate_terms returns, with the node table it built
    them from. A term's id is its position in the list; nodes[i] is (op,
    child ids) for an App and (index, ()) for a Var, sizes[i] is the
    term's size, and bit v of masks[i] says whether x_v occurs in it."""

    def __init__(self):
        super().__init__()
        self.nodes: list[tuple] = []
        self.sizes: list[int] = []
        self.masks: list[int] = []


def enumerate_terms(signature: Signature, arity: int, max_size: int,
                    flavor: str = "fp") -> TermTable:
    """All terms with support inside 1..arity and at most max_size nodes,
    or the share of them a flavor's closure needs (see closure_saturate):
    under "symmetric" the linear terms, in which each variable occurs at
    most once, and under "plain" the runs, whose variables read x_i,
    x_{i+1}, ..., x_j from left to right, or are none.

    Sorted by (size, text) for determinism, so a flavor's terms come in
    the same relative order as in the full list. Every compound term is
    built from the list's own smaller terms, as shared objects, which
    misses nothing, since the linear terms and the runs are both closed
    under subterms. Each term's node, size and variable mask go into the
    table as the term is built, and a tuple of children that the
    flavor's test refuses is skipped before its term is built.
    """
    fits = _FITS[flavor]
    out = TermTable()
    masks = out.masks
    texts: list[str] = []
    # the terms of size s are out[bounds[s - 1]:bounds[s]]
    bounds = [0]
    for s in range(1, max_size + 1):
        found: list[tuple[str, Term, tuple, int]] = []
        if s == 1:
            found.extend((f"x{i}", Var(i), (i, ()), 1 << i)
                         for i in range(1, arity + 1))
            found.extend((op, App(op, ()), (op, ()), 0)
                         for op, k in signature.ops if k == 0)
        else:
            for op, k in signature.ops:
                if k == 0 or k > s - 1:
                    continue
                for split in _compositions(s - 1, k):
                    pools = [range(bounds[part - 1], bounds[part]) for part in split]
                    for kids, mask in _fitting_tuples(pools, masks, fits):
                        found.append((
                            f"{op}({','.join(map(texts.__getitem__, kids))})",
                            App(op, tuple(map(out.__getitem__, kids))),
                            (op, kids), mask))
        found.sort(key=lambda entry: entry[0])
        texts.extend(text for text, _, _, _ in found)
        out.extend(term for _, term, _, _ in found)
        out.nodes.extend(node for _, _, node, _ in found)
        masks.extend(mask for _, _, _, mask in found)
        out.sizes.extend([s] * len(found))
        bounds.append(len(out))
    return out


# fits(used, mask) says whether a term whose variables are the bitmask
# mask may come next after terms whose variables are used, as a node's
# next child or the next variable's binding: linear terms share no
# variable, and a run starts just after the run so far ends
_FITS: dict[str, Callable[[int, int], bool]] = {
    "fp": lambda used, mask: True,
    "symmetric": lambda used, mask: not used & mask,
    "plain": lambda used, mask: (not mask or not used
                                 or mask & -mask == 1 << used.bit_length()),
}


def _fitting_tuples(pools: Sequence[range], masks: Sequence[int],
                    fits: Callable[[int, int], bool]
                    ) -> list[tuple[tuple[int, ...], int]]:
    """The tuples of itertools.product(*pools) whose every member fits
    after the members before it, in that order, each with the union of
    its masks."""
    tuples: list[tuple[tuple[int, ...], int]] = [((), 0)]
    for pool in pools:
        tuples = [(kids + (c,), used | masks[c])
                  for kids, used in tuples for c in pool if fits(used, masks[c])]
    return tuples


def _compositions(total: int, parts: int, least: int = 1
                  ) -> list[tuple[int, ...]]:
    """The ordered ways to write total as parts summands, each at least
    least, in lexicographic order."""
    if parts == 0:
        return [()] if total == 0 else []
    return [(first,) + rest
            for first in range(least, total - least * (parts - 1) + 1)
            for rest in _compositions(total - first, parts - 1, least)]


@dataclass(frozen=True)
class RewriteStep:
    """One elementary rewrite: an equation instance applied at a position."""

    source: Term
    target: Term
    eq_index: int
    forward: bool
    position: tuple[int, ...]
    binding: tuple[tuple[int, Term], ...]


_AXIOM = "axiom"
_CONG = "cong"


class SaturationResult:
    """Bounded equality closure of one arity: union-find with a merge
    graph over the bounded term universe, hash-consed on term ids, plus
    merge explanations: path links two ids, class_edges lists a whole
    class's links, and explain expands a path into rewrite steps. The
    universe is enumerate_terms' table, whose nodes, sizes and masks it
    keeps (see TermTable); node_index inverts nodes. parent[i] is i's
    union-find parent and edges[i] lists (neighbour id, reason, stamp)
    for every union that touched i, where the stamp counts the unions
    before it; no pair is joined twice for the same reason. A reason is
    ("axiom", eq_index, binding, lhs id, rhs id), the binding sorted
    (variable, id) pairs, or ("cong",) for terms whose children older
    links merged. A link (a, b, reason, stamp) walks one edge from a to
    b. exhausted says the step budget ran out."""

    def __init__(self, universe: TermTable):
        self.terms = universe
        self.nodes = universe.nodes
        self.sizes = universe.sizes
        self.masks = universe.masks
        self.node_index = {node: i for i, node in enumerate(self.nodes)}
        self.parent = list(range(len(universe)))
        self.edges: list[list[tuple[int, tuple, int]]] = [[] for _ in universe]
        self.unions = 0
        self.exhausted = False
        self._paths: dict[tuple[int, int, int], list[tuple]] = {}

    def _id_of(self, t: Term) -> int | None:
        """t's id, or None when t lies outside the universe (every
        subterm of a universe term lies inside it)."""
        if isinstance(t, Var):
            return self.node_index.get((t.index, ()))
        kids = []
        for a in t.args:
            kid = self._id_of(a)
            if kid is None:
                return None
            kids.append(kid)
        return self.node_index.get((t.op, tuple(kids)))

    def ids(self, *terms: Term) -> list[int]:
        """The ids of terms; raises when one lies outside the universe."""
        ids = [self._id_of(t) for t in terms]
        if None in ids:
            raise TermError("term outside the saturated universe")
        return ids

    def _find(self, i: int) -> int:
        parent = self.parent
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return root

    def _union(self, a: int, b: int, reason: tuple) -> bool:
        stamp = self.unions
        self.unions += 1
        self.edges[a].append((b, reason, stamp))
        self.edges[b].append((a, reason, stamp))
        ra, rb = self._find(a), self._find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True

    def in_universe(self, t: Term) -> bool:
        return self._id_of(t) is not None

    def same(self, t1: Term, t2: Term) -> bool:
        i1, i2 = self.ids(t1, t2)
        return self._find(i1) == self._find(i2)

    def anchor(self, t: Term) -> Term:
        """A class representative usable as a grouping key; stable within
        this result object, arbitrary beyond that."""
        (i,) = self.ids(t)
        return self.terms[self._find(i)]

    def classes(self) -> list[list[Term]]:
        # ids follow the (size, text) order, so each class comes out
        # sorted and the classes come out sorted by their first member
        grouped: dict[int, list[Term]] = {}
        for i, t in enumerate(self.terms):
            grouped.setdefault(self._find(i), []).append(t)
        return list(grouped.values())

    def explain(self, t1: Term, t2: Term) -> list[RewriteStep] | None:
        """A chain of elementary rewrites from t1 to t2 that visits no
        term twice, or None if unmerged."""
        i1, i2 = self.ids(t1, t2)
        if self._find(i1) != self._find(i2):
            return None
        # a congruence link expands its children's paths one after the
        # other, so the chain can come back to a term; cut each such loop
        chain: list[RewriteStep] = []
        reached = {t1: 0}
        for step in self._elementary_path(i1, i2, self.unions):
            back = reached.get(step.target)
            if back is None:
                chain.append(step)
                reached[step.target] = len(chain)
                continue
            for dropped in chain[back:]:
                del reached[dropped.target]
            del chain[back:]
        return chain

    def class_edges(self, t: Term) -> list[tuple[int, int, tuple, int]]:
        """Every merge edge of t's class once, as a link (a, b, reason,
        stamp) in breadth-first order from t's id: a is t's id or the b
        of an earlier link."""
        (start,) = self.ids(t)
        order = [start]
        reached = {start}
        listed: set[int] = set()
        out = []
        for u in order:
            for v, reason, stamp in self.edges[u]:
                if stamp in listed:
                    continue
                listed.add(stamp)
                out.append((u, v, reason, stamp))
                if v not in reached:
                    reached.add(v)
                    order.append(v)
        return out

    def _elementary_path(self, i1: int, i2: int, before: int
                         ) -> list[RewriteStep]:
        return [step for link in self.path(i1, i2, before)
                for step in self._expand(*link)]

    def path(self, i1: int, i2: int, before: int
             ) -> list[tuple[int, int, tuple, int]]:
        """A shortest path from id i1 to id i2 over the merge edges
        stamped before `before`, as links (a, b, reason, stamp) from i1
        on. The closure is complete before any reader asks, so each
        search runs once and is remembered."""
        key = (i1, i2, before)
        if key not in self._paths:
            self._paths[key] = self._shortest_path(i1, i2, before)
        return self._paths[key]

    def _shortest_path(self, i1: int, i2: int, before: int
                       ) -> list[tuple[int, int, tuple, int]]:
        if i1 == i2:
            return []
        seen = {i1}
        frontier = [i1]
        back: dict[int, tuple[int, tuple, int]] = {}
        while frontier:
            nxt = []
            for u in frontier:
                for v, reason, stamp in self.edges[u]:
                    if v in seen or stamp >= before:
                        continue
                    seen.add(v)
                    back[v] = (u, reason, stamp)
                    if v == i2:
                        links = []
                        cur = i2
                        while cur != i1:
                            prev, why, when = back[cur]
                            links.append((prev, cur, why, when))
                            cur = prev
                        links.reverse()
                        return links
                    nxt.append(v)
            frontier = nxt
        raise TermError("merge graph disconnected inside a class")

    def _expand(self, a: int, b: int, reason: tuple, stamp: int
                ) -> list[RewriteStep]:
        terms = self.terms
        if reason[0] == _AXIOM:
            _, eq_index, binding, lhs_inst, _rhs_inst = reason
            bound = tuple((v, terms[k]) for v, k in binding)
            return [RewriteStep(terms[a], terms[b], eq_index, a == lhs_inst, (), bound)]
        # a congruence edge joined a and b once their children were merged
        # by older edges; explaining the children through those alone
        # makes every recursion step go to strictly older edges
        assert reason[0] == _CONG
        steps: list[RewriteStep] = []
        current = terms[a]
        for i, (child_a, child_b) in enumerate(zip(self.nodes[a][1], self.nodes[b][1])):
            if child_a == child_b:
                continue
            for step in self._elementary_path(child_a, child_b, stamp):
                args = list(current.args)
                args[i] = step.target
                nxt = App(current.op, tuple(args))
                steps.append(RewriteStep(current, nxt, step.eq_index, step.forward,
                                         (i,) + step.position, step.binding))
                current = nxt
        assert current == terms[b]
        return steps


# the default saturation budgets: the size bound on universe terms and
# the unions attempted within one arity
MAX_TERM_SIZE = 6
MAX_STEPS = 500_000


def closure_saturate(presentation: Presentation, arity: int,
                     max_term_size: int,
                     max_steps: int = MAX_STEPS) -> SaturationResult:
    """Bounded equality closure of the presentation's equations over the
    terms of one arity that its flavor's universe holds: all of them
    under "fp", the linear ones under "symmetric", the runs under
    "plain" (see enumerate_terms).

    Seeds every equation instance whose two sides fit inside the size
    bound, binding the variables in order and looking each subterm of a
    side up in the universe as soon as its variables are bound, then
    closes under one-level congruence and transitivity to a
    fixpoint (or until max_steps unions have been attempted). Each
    congruence pair is united once, even when already merged, so the
    merge graph holds each recorded rewrite exactly once. Sound with
    respect to the unrestricted closure; complete only up to the bounds.

    The presentation has checked that its flavor carries every equation
    (see Presentation). A linear equation has each of x1..xn once on each
    side, so every axiom instance and every congruence step keeps the
    multiset of variables; a strongly regular one has them in order, so
    every step keeps the whole variable sequence. Either way the
    flavor's universe is closed under subterms and is a union of the
    full closure's classes: an instance whose binding breaks linearity
    (or does not abut runs) has sides outside the universe, and a
    congruence bucket never mixes terms inside and outside it, since
    its members' children lie in the same classes. Seeding and
    congruence walk the ids in (size, text) order, so the unions within
    the universe come in the same relative order: same, explain and
    class_edges give the full closure's answers there, up to the ids and
    stamps, from a much smaller universe. Only the step budget differs,
    since the full closure spends it on terms and bindings the smaller
    one never builds.
    """
    flavor = presentation.flavor
    sat = SaturationResult(enumerate_terms(presentation.signature, arity,
                                           max_term_size, flavor))
    budget = _seed_instances(sat, presentation.equations, max_term_size,
                             max_steps, _FITS[flavor])
    if budget > 0:
        budget = _congruence_fixpoint(sat, budget)
    sat.exhausted = budget <= 0
    return sat


def _seed_instances(sat: SaturationResult, equations: tuple[Equation, ...],
                    max_term_size: int, budget: int,
                    fits: Callable[[int, int], bool]) -> int:
    sizes, masks, node_index = sat.sizes, sat.masks, sat.node_index
    for eq_index, eq in enumerate(equations):
        occurring = sorted(support(eq.lhs) | support(eq.rhs))
        base_l = term_size(eq.lhs)
        base_r = term_size(eq.rhs)
        seq_l, seq_r = var_seq(eq.lhs), var_seq(eq.rhs)
        occ_l = {v: seq_l.count(v) for v in occurring}
        occ_r = {v: seq_r.count(v) for v in occurring}
        steps, reg, lhs_reg, rhs_reg = _compile_sides(eq, occurring,
                                                      node_index)
        # x1, x2, ... are bound in order, and a binding term that does
        # not fit after the ones before it leaves no instance in the
        # universe, so it is skipped before it is built or charged to the
        # budget; reg[i] holds the id bound to occurring[i]
        def assign(i: int, size_l: int, size_r: int, used: int,
                   budget: int) -> int:
            if budget <= 0:
                return budget
            if i == len(occurring):
                lhs_inst, rhs_inst = reg[lhs_reg], reg[rhs_reg]
                if lhs_inst is not None and rhs_inst is not None:
                    sat._union(lhs_inst, rhs_inst,
                               (_AXIOM, eq_index, tuple(zip(occurring, reg)),
                                lhs_inst, rhs_inst))
                return budget - 1
            v = occurring[i]
            grow_l, grow_r = occ_l[v], occ_r[v]
            bound_here = steps[i]
            for t, size in enumerate(sizes):
                extra = size - 1
                new_l = size_l + grow_l * extra
                new_r = size_r + grow_r * extra
                # ids are size-sorted, so the first overflow persists
                if new_l > max_term_size or new_r > max_term_size:
                    break
                if not fits(used, masks[t]):
                    continue
                reg[i] = t
                for dest, op, gather in bound_here:
                    reg[dest] = node_index.get((op, gather(reg)))
                budget = assign(i + 1, new_l, new_r, used | masks[t], budget)
                if budget <= 0:
                    return budget
            return budget

        budget = assign(0, base_l, base_r, 0, budget)
        if budget <= 0:
            return budget
    return budget


def _compile_sides(eq: Equation, occurring: list[int],
                   node_index: Mapping[tuple, int]
                   ) -> tuple[list[list[tuple]], list[int | None], int, int]:
    """Compile eq's two sides into lookups in node_index over a register
    list: reg[i] holds the id bound to occurring[i], and each compound
    subterm gets a register of its own. steps[i] looks up the subterms
    whose last variable in binding order is occurring[i], each as
    (register, op, gather), children first, where gather(reg) is the
    tuple of the children's registers; so a subterm is looked up once
    per binding of its own variables, and one without variables once,
    here. A lookup outside the universe leaves None, and every lookup
    above it finds nothing. Returns steps, reg and the sides'
    registers."""
    slot = {v: i for i, v in enumerate(occurring)}
    steps: list[list[tuple]] = [[] for _ in occurring]
    reg: list[int | None] = [None] * len(occurring)

    def place(t: Term) -> tuple[int, int]:
        """t's register and the index in occurring of its last variable,
        or -1 when it has none."""
        if isinstance(t, Var):
            return slot[t.index], slot[t.index]
        kids = [place(a) for a in t.args]
        last = max((k for _, k in kids), default=-1)
        args = tuple(r for r, _ in kids)
        # itemgetter gives a tuple only for two or more items
        gather = (itemgetter(*args) if len(args) > 1
                  else lambda reg: tuple([reg[a] for a in args]))
        reg.append(None)
        if last < 0:
            reg[-1] = node_index.get((t.op, gather(reg)))
        else:
            steps[last].append((len(reg) - 1, t.op, gather))
        return len(reg) - 1, last

    lhs_reg, _ = place(eq.lhs)
    rhs_reg, _ = place(eq.rhs)
    return steps, reg, lhs_reg, rhs_reg


def _congruence_fixpoint(sat: SaturationResult, budget: int) -> int:
    # hash nodes by operation and child classes; a shared signature
    # means the children are pairwise merged, so the terms merge too
    compound = [(i, op, kids) for i, (op, kids) in enumerate(sat.nodes) if kids]
    find = sat._find
    # the (anchor, member) pairs already united: a later round meets
    # them again and skips them, uncharged, instead of recording twice
    joined: set[tuple[int, int]] = set()
    changed = True
    while changed and budget > 0:
        changed = False
        buckets: dict[tuple, int] = {}
        for t, op, kids in compound:
            key = (op, tuple([find(k) for k in kids]))
            anchor = buckets.setdefault(key, t)
            if anchor == t or (anchor, t) in joined:
                continue
            joined.add((anchor, t))
            # union even when already merged, once: the edge can shorten
            # explain's paths and closes a cycle for coherence_check
            budget -= 1
            if sat._union(anchor, t, (_CONG,)):
                changed = True
            if budget <= 0:
                return budget
    return budget
