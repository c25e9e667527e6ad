"""Finite categories carrying weak algebra structure for a presented
theory.

A weak structure is a finite base category, one functor base^k -> base
per k-ary generator, and for each equation an invertible natural family
delta indexed by operand tuples. Instead of storing an action of every
tree, the action h is derived by structural recursion and the image of
an arbitrary 2-cell is compiled along a path of the saturation
engine's merge links: an equation link gives its delta component, and
a congruence link the generator functor applied to its children's
compiled paths. Path independence of that compilation over every cycle
of the merge graph is what coherence_check certifies.

Everything is validated at construction: composition tables and
functoriality exhaustively, delta endpoints and invertibility at every
operand tuple, and naturality one variable at a time, which suffices
between functors.
The data also round trips through a JSON form; see save_weakcat.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product
from typing import Collection, Mapping, Sequence

from .operads import (CheckReport, Interpretation, Operad, builtin_operad,
                      validate_interpretation)
from .terms import (MAX_STEPS, MAX_TERM_SIZE, Equation, Presentation,
                    SaturationResult, Term, Var, format_term,
                    parse_presentation, format_presentation, support)
from .trees import format_object, to_object
from .weakening import WeakeningContext

RESERVED = set(",∘=@")


class WeakcatError(ValueError):
    pass


@dataclass(frozen=True)
class Arrow:
    id: str
    src: str
    dst: str


def _check_id(kind: str, name: str):
    if not name or RESERVED.intersection(name):
        raise WeakcatError(
            f"{kind} id {name!r} is empty or uses a reserved character")


class FiniteCategory:
    """A finite category given by explicit tables, checked exhaustively:
    identities are units and composition is associative."""

    def __init__(self, objects: Sequence[str], arrows: Sequence[Arrow],
                 identities: Mapping[str, str],
                 compose_table: Mapping[tuple[str, str], str]):
        self.objects = tuple(objects)
        if len(set(self.objects)) != len(self.objects):
            raise WeakcatError("duplicate object ids")
        for obj in self.objects:
            _check_id("object", obj)
        self.arrows: dict[str, Arrow] = {}
        known = set(self.objects)
        for a in arrows:
            _check_id("arrow", a.id)
            if a.id in self.arrows:
                raise WeakcatError(f"duplicate arrow id {a.id!r}")
            if a.src not in known or a.dst not in known:
                raise WeakcatError(f"arrow {a.id!r} has unknown endpoints")
            self.arrows[a.id] = a
        self.identities = dict(identities)
        self._compose = dict(compose_table)
        self._inverses: dict[str, str | None] = {}
        self._hom: dict[tuple[str, str], list[str]] = {}
        for a in self.arrows.values():
            self._hom.setdefault((a.src, a.dst), []).append(a.id)
        self._from: dict[str, list[str]] = {}
        for a in self.arrows.values():
            self._from.setdefault(a.src, []).append(a.id)
        # every composable pair (g, f) with its composite g.f: f in arrow
        # order, then g in the order of the arrows out of f's target; the
        # composite is None where the table lacks it, which validation
        # refuses
        self.composable: list[tuple[str, str, str | None]] = [
            (g, f, self._compose.get((g, f)))
            for f, a in self.arrows.items()
            for g in self._from.get(a.dst, ())]
        self._validate()

    def _validate(self):
        stray = set(self.identities) - set(self.objects)
        if stray:
            raise WeakcatError(f"identity entry {min(stray)!r} names no object")
        for obj in self.objects:
            ident = self.identities.get(obj)
            if ident is None or ident not in self.arrows:
                raise WeakcatError(f"object {obj!r} lacks an identity arrow")
            a = self.arrows[ident]
            if a.src != obj or a.dst != obj:
                raise WeakcatError(f"identity of {obj!r} has wrong endpoints")
        for (g, f), h in self._compose.items():
            if g not in self.arrows or f not in self.arrows or h not in self.arrows:
                raise WeakcatError(f"composition entry ({g!r},{f!r}) uses unknown arrows")
            gf, ff, hh = self.arrows[g], self.arrows[f], self.arrows[h]
            if ff.dst != gf.src:
                raise WeakcatError(f"({g!r},{f!r}) is not composable")
            if hh.src != ff.src or hh.dst != gf.dst:
                raise WeakcatError(f"composite of ({g!r},{f!r}) has wrong endpoints")
        for g, f, gf in self.composable:
            if gf is None:
                raise WeakcatError(f"missing composite for ({g!r},{f!r})")
        for f in self.arrows.values():
            if self.compose(self.identities[f.dst], f.id) != f.id \
                    or self.compose(f.id, self.identities[f.src]) != f.id:
                raise WeakcatError(f"identity laws fail at {f.id!r}")
        # every pair below is composable, so the table has its composite
        table = self._compose
        for g, f, gf in self.composable:
            for h in self._from.get(self.arrows[g].dst, ()):
                if table[(h, gf)] != table[(table[(h, g)], f)]:
                    raise WeakcatError(
                        f"associativity fails at ({h!r},{g!r},{f!r})")

    def identity(self, obj: str) -> str:
        return self.identities[obj]

    def compose(self, g: str, f: str) -> str:
        try:
            return self._compose[(g, f)]
        except KeyError:
            raise WeakcatError(f"arrows {g!r} and {f!r} are not composable")

    def hom(self, src: str, dst: str) -> list[str]:
        return list(self._hom.get((src, dst), ()))

    def inverse(self, arrow: str) -> str | None:
        if arrow not in self._inverses:
            a = self.arrows[arrow]
            found = None
            for b in self.hom(a.dst, a.src):
                if self.compose(b, arrow) == self.identity(a.src) \
                        and self.compose(arrow, b) == self.identity(a.dst):
                    found = b
                    break
            self._inverses[arrow] = found
        return self._inverses[arrow]

    def is_iso(self, arrow: str) -> bool:
        return self.inverse(arrow) is not None

    def is_identity(self, arrow: str) -> bool:
        a = self.arrows[arrow]
        return a.src == a.dst and self.identities[a.src] == arrow

    @classmethod
    def indiscrete(cls, objects: Sequence[str]) -> FiniteCategory:
        """Exactly one arrow between every ordered pair of objects."""
        arrows = [Arrow(f"{a}>{b}", a, b) for a in objects for b in objects]
        identities = {a: f"{a}>{a}" for a in objects}
        compose = {}
        for f in arrows:
            for g in arrows:
                if f.dst == g.src:
                    compose[(g.id, f.id)] = f"{f.src}>{g.dst}"
        return cls(objects, arrows, identities, compose)

    @classmethod
    def terminal(cls) -> FiniteCategory:
        return cls.indiscrete(("o",))

    @classmethod
    def from_monoid(cls, elements: Sequence[str], unit: str,
                    multiply) -> FiniteCategory:
        """One object whose endomorphisms are the given monoid;
        multiply(g, f) is the composite g after f."""
        obj = "o"
        arrows = [Arrow(e, obj, obj) for e in elements]
        compose = {(g, f): multiply(g, f) for g in elements for f in elements}
        return cls((obj,), arrows, {obj: unit}, compose)


def key_of(ids: Sequence[str]) -> str:
    return ",".join(ids)


def unkey(key: str) -> tuple[str, ...]:
    return tuple(key.split(",")) if key else ()


def _stray_key(table: Mapping, items: Collection[str], k: int) -> str | None:
    """The key_of of an entry of table, keyed by k-tuples of items or
    their key_of, whose key is no such tuple, or None. The caller has
    found an entry at every tuple, so only a longer table has one."""
    if len(table) > len(items) ** k:
        for key in table:
            ids = unkey(key) if isinstance(key, str) else key
            if len(ids) != k or not set(ids) <= set(items):
                return key_of(ids)
    return None


class Functor:
    """A functor base^arity -> cod given by explicit tables over object
    and arrow tuples, keyed by comma joined ids (empty key at arity 0).
    Functoriality is checked exhaustively at construction."""

    def __init__(self, dom: FiniteCategory, cod: FiniteCategory, arity: int,
                 obj_map: Mapping[str, str], arr_map: Mapping[str, str],
                 name: str = ""):
        self.dom = dom
        self.cod = cod
        self.arity = arity
        self.obj_map = dict(obj_map)
        self.arr_map = dict(arr_map)
        self.name = name
        self._validate()

    def obj(self, objs: Sequence[str]) -> str:
        if len(objs) != self.arity:
            raise WeakcatError(f"{self.name or 'functor'} expects "
                               f"{self.arity} objects, got {len(objs)}")
        return self.obj_map[key_of(objs)]

    def arr(self, arrs: Sequence[str]) -> str:
        if len(arrs) != self.arity:
            raise WeakcatError(f"{self.name or 'functor'} expects "
                               f"{self.arity} arrows, got {len(arrs)}")
        return self.arr_map[key_of(arrs)]

    def _validate(self):
        label = self.name or "functor"
        dom, cod, k = self.dom, self.cod, self.arity
        obj_map, arr_map = self.obj_map, self.arr_map
        cod_objects = set(cod.objects)
        for objs in product(dom.objects, repeat=k):
            target = obj_map.get(key_of(objs))
            if target is None or target not in cod_objects:
                raise WeakcatError(f"{label}: object map incomplete at {objs}")
        for arrs in product(dom.arrows, repeat=k):
            image = arr_map.get(key_of(arrs))
            if image is None or image not in cod.arrows:
                raise WeakcatError(f"{label}: arrow map incomplete at {arrs}")
            img = cod.arrows[image]
            src = obj_map[key_of([dom.arrows[a].src for a in arrs])]
            dst = obj_map[key_of([dom.arrows[a].dst for a in arrs])]
            if img.src != src or img.dst != dst:
                raise WeakcatError(f"{label}: image of {arrs} has wrong endpoints")
        for table, items, kind in ((obj_map, dom.objects, "object"),
                                   (arr_map, dom.arrows, "arrow")):
            stray = _stray_key(table, items, k)
            if stray is not None:
                raise WeakcatError(f"{label}: {kind} map entry {stray!r} "
                                   f"matches no {kind} tuple")
        for objs in product(dom.objects, repeat=k):
            idents = key_of([dom.identities[o] for o in objs])
            if arr_map[idents] != cod.identities[obj_map[key_of(objs)]]:
                raise WeakcatError(f"{label}: identities not preserved at {objs}")
        for triples in product(dom.composable, repeat=k):
            g, f, gf = map(key_of, zip(*triples)) if k else ("", "", "")
            if arr_map[gf] != cod.compose(arr_map[g], arr_map[f]):
                pairs = tuple((g, f) for g, f, _ in triples)
                raise WeakcatError(f"{label}: composition not preserved at {pairs}")

    @classmethod
    def identity_functor(cls, base: FiniteCategory) -> Functor:
        return cls(base, base, 1,
                   {o: o for o in base.objects},
                   {a: a for a in base.arrows}, name="id")


def cell_key(eq: Equation) -> str:
    return (f"{format_object(to_object(eq.lhs, eq.arity))}="
            f"{format_object(to_object(eq.rhs, eq.arity))}@{eq.arity}")


class WeakPCategoryData:
    """A finite base category with generator functors and basic delta
    families over a presented theory; validated at construction."""

    def __init__(self, base: FiniteCategory, presentation: Presentation,
                 generators: Mapping[str, Functor],
                 deltas: Mapping[int, Mapping[tuple[str, ...], str]],
                 target: Operad | None = None,
                 assignment: Mapping[str, object] | None = None,
                 max_term_size: int = MAX_TERM_SIZE,
                 max_steps: int = MAX_STEPS):
        self.base = base
        self.presentation = presentation
        self.context = WeakeningContext(
            presentation, None, max_term_size, max_steps)
        self.generators = dict(generators)
        self.deltas = {i: dict(fam) for i, fam in deltas.items()}
        self.interpretation = None
        if target is not None:
            if assignment is None:
                raise WeakcatError("target operad given without an assignment")
            self.interpretation = Interpretation(presentation, target, assignment)
            report = validate_interpretation(self.interpretation)
            if not report.ok:
                raise WeakcatError(f"target {target.name} breaks the theory: "
                                   f"{report.failures[0]}")
        self._delta_memo: dict = {}
        # strictify's views of this instance, one per pair of bounds
        self._strict_views: dict = {}
        self._validate()

    @property
    def max_term_size(self) -> int:
        return self.context.max_term_size

    def _validate(self):
        sig = self.presentation.signature
        for op, arity in sig.ops:
            gen = self.generators.get(op)
            if gen is None:
                raise WeakcatError(f"no generator functor for {op!r}")
            if gen.arity != arity or gen.dom is not self.base or gen.cod is not self.base:
                raise WeakcatError(f"generator {op!r} has the wrong shape")
        extra = set(self.generators) - set(sig.names())
        if extra:
            raise WeakcatError(f"generators {sorted(extra)} not in the signature")
        for index, eq in enumerate(self.presentation.equations):
            used = support(eq.lhs) | support(eq.rhs)
            if used != set(range(1, eq.arity + 1)):
                # compiled cells pick their component from the rewrite
                # binding, so every declared variable must occur
                raise WeakcatError(
                    f"equation {cell_key(eq)!r} declares unused variables")
            fam = self.deltas.get(index)
            if fam is None:
                raise WeakcatError(f"no delta family for equation {cell_key(eq)!r}")
            self._validate_delta(index, eq, fam)
        extra_cells = set(self.deltas) - set(range(len(self.presentation.equations)))
        if extra_cells:
            raise WeakcatError("delta families for unknown equations")

    def _validate_delta(self, index: int, eq: Equation,
                        fam: Mapping[tuple[str, ...], str]):
        name = cell_key(eq)
        for operands in product(self.base.objects, repeat=eq.arity):
            arrow = fam.get(operands)
            if arrow is None:
                raise WeakcatError(f"delta {name!r} missing component at {operands}")
            if arrow not in self.base.arrows:
                raise WeakcatError(f"delta {name!r} uses unknown arrow {arrow!r}")
            a = self.base.arrows[arrow]
            want_src = self.h_obj(eq.lhs, operands)
            want_dst = self.h_obj(eq.rhs, operands)
            if a.src != want_src or a.dst != want_dst:
                raise WeakcatError(
                    f"delta {name!r} at {operands} should run "
                    f"{want_src!r} -> {want_dst!r}, got {a.src!r} -> {a.dst!r}")
            if not self.base.is_iso(arrow):
                raise WeakcatError(f"delta {name!r} at {operands} is not invertible")
        stray = _stray_key(fam, self.base.objects, eq.arity)
        if stray is not None:
            raise WeakcatError(
                f"delta {name!r} component {stray!r} matches no operand tuple")
        # h(lhs), h(rhs) compose the generator functors, validated first,
        # so the family is natural iff it is natural in each variable with
        # identities in the others (Mac Lane, CWM II.3): every arrow tuple
        # composes such tuples. n.|arrows|.|objects|^(n-1) squares suffice.
        base = self.base
        for i in range(eq.arity):
            for rest in product(base.objects, repeat=eq.arity - 1):
                idents = tuple(base.identities[o] for o in rest)
                for f in base.arrows:
                    fs = idents[:i] + (f,) + idents[i:]
                    srcs = rest[:i] + (base.arrows[f].src,) + rest[i:]
                    dsts = rest[:i] + (base.arrows[f].dst,) + rest[i:]
                    left = base.compose(fam[dsts], self.h_arr(eq.lhs, fs))
                    right = base.compose(self.h_arr(eq.rhs, fs), fam[srcs])
                    if left != right:
                        raise WeakcatError(
                            f"delta {name!r} is not natural at arrows {fs}")

    # the action h, by structural recursion; variables index operands 1-based
    def h_obj(self, term: Term, operands: Sequence[str]) -> str:
        return self._h(term, tuple(operands), objects=True)

    def h_arr(self, term: Term, arrows: Sequence[str]) -> str:
        return self._h(term, tuple(arrows), objects=False)

    def _h(self, term: Term, items: tuple[str, ...], objects: bool) -> str:
        if isinstance(term, Var):
            return items[term.index - 1]
        gen = self.generators.get(term.op)
        if gen is None:
            raise WeakcatError(f"unknown operation {term.op!r}")
        images = [self._h(arg, items, objects) for arg in term.args]
        return gen.obj(images) if objects else gen.arr(images)

    def is_strict(self) -> bool:
        return all(self.base.is_identity(arrow)
                   for fam in self.deltas.values()
                   for arrow in fam.values())

    # compiled 2-cell images
    def derive_delta(self, term1: Term, term2: Term,
                     operands: Sequence[str]) -> str | None:
        """The base arrow h(term1)(operands) -> h(term2)(operands) compiled
        along the shortest path of merge links (path_arrow), or None
        when no path fits the term size bound. The context saturates
        only its flavor's universe, the runs of a plain theory or the
        linear terms of a symmetric one, so a term outside it gets None
        too: one that repeats a variable, or under a plain theory one
        whose variables are out of order, such as m(x2,x1). Raises when
        the terms are provably unrelated, and when the step budget ran
        out before the closure merged them, since a check that skipped
        the pair would pass on fewer instances than it claims."""
        operands = tuple(operands)
        key = (term1, term2, operands)
        if key not in self._delta_memo:
            self._delta_memo[key] = self._derive_delta(term1, term2, operands)
        return self._delta_memo[key]

    def _derive_delta(self, term1: Term, term2: Term,
                      operands: tuple[str, ...]) -> str | None:
        arity = len(operands)
        if term1 == term2:
            return self.base.identity(self.h_obj(term1, operands))
        sat = self.context.saturation(arity)
        if not (sat.in_universe(term1) and sat.in_universe(term2)):
            return None
        if not sat.same(term1, term2):
            decision = self._refute(term1, term2, arity)
            if decision == "no":
                raise WeakcatError(
                    f"no 2-cell between {format_term(term1)} and "
                    f"{format_term(term2)}")
            if sat.exhausted:
                raise WeakcatError(
                    f"the saturation budget of {self.context.max_steps} "
                    f"steps ran out at arity {arity} before "
                    f"{format_term(term1)} and {format_term(term2)} merged")
            return None
        i1, i2 = sat.ids(term1, term2)
        return self.path_arrow(sat, i1, i2, sat.unions, operands)

    def _refute(self, term1: Term, term2: Term, arity: int) -> str:
        if self.interpretation is None:
            return "unknown"
        e1 = self.interpretation.eval_term(term1, arity)
        e2 = self.interpretation.eval_term(term2, arity)
        return "unknown" if e1 == e2 else "no"

    def path_arrow(self, sat: SaturationResult, i1: int, i2: int,
                   before: int, operands: tuple[str, ...]) -> str:
        """The base arrow from h at term id i1 to h at id i2 of the
        closure sat, at operands: link_arrow composed along
        sat.path(i1, i2, before)."""
        arrow = None
        for link in sat.path(i1, i2, before):
            step = self.link_arrow(sat, *link, operands)
            arrow = step if arrow is None else self.base.compose(step, arrow)
        if arrow is None:
            return self.base.identity(self.h_obj(sat.terms[i1], operands))
        return arrow

    def link_arrow(self, sat: SaturationResult, a: int, b: int,
                   reason: tuple, stamp: int, operands: tuple[str, ...]
                   ) -> str:
        """The base arrow of one merge link a -> b of the closure sat, at
        operands: an equation link's delta component at its binding,
        inverted when a is not the equation's left side, or for a
        congruence link the generator functor applied to the arrows of
        the child paths, which run over links older than it."""
        if reason[0] == "axiom":
            # every declared variable occurs, so the binding is x1..xn
            _, eq_index, binding, lhs_id, _ = reason
            component = self.deltas[eq_index][tuple(
                self.h_obj(sat.terms[k], operands) for _, k in binding)]
            # validation refuses a component without an inverse
            return component if a == lhs_id else self.base.inverse(component)
        (op, kids_a), (_, kids_b) = sat.nodes[a], sat.nodes[b]
        return self.generators[op].arr(
            [self.path_arrow(sat, x, y, stamp, operands)
             for x, y in zip(kids_a, kids_b)])


_COHERENCE_ARITY = 3


def coherence_check(W: WeakPCategoryData) -> CheckReport:
    """Every cycle of the merge graph compiles to an identity, at every
    operand tuple, for the object classes of arities 0-3.

    The classes are the closure's own, among the terms within
    max_term_size: in the flavor's universe (runs or linear terms) the
    terms whose support is exactly x1..xn are the objects of arity n.
    Per class and operand tuple, a potential p maps the first member,
    the least in (size, text) order, to its identity and each member
    reached along a spanning tree of the class's edges (class_edges,
    breadth first) to the tree path's compiled arrow. Every other edge
    u -> v is one instance of "edge coherence": its link_arrow after
    p(u) must equal p(v). The fundamental cycles of a spanning tree
    generate every cycle, so this certifies path independence over the
    whole recorded graph; a class whose edges form a tree has no cycle
    and is skipped."""
    report = CheckReport()
    for arity in range(0, _COHERENCE_ARITY + 1):
        sat = W.context.saturation(arity)
        every_variable = frozenset(range(1, arity + 1))
        for members in sat.classes():
            first = members[0]
            if len(members) < 2 or support(first) != every_variable:
                continue
            edges = sat.class_edges(first)
            if len(edges) < len(members):
                continue
            for operands in product(W.base.objects, repeat=arity):
                p = {edges[0][0]: W.base.identity(W.h_obj(first, operands))}
                for u, v, reason, stamp in edges:
                    arrow = W.base.compose(
                        W.link_arrow(sat, u, v, reason, stamp, operands),
                        p[u])
                    if v not in p:
                        p[v] = arrow
                        continue
                    report.check(
                        "edge coherence", arrow == p[v],
                        lambda: (f"{format_term(sat.terms[u])} -> "
                                 f"{format_term(sat.terms[v])} in the "
                                 f"class of {format_term(first)} at {operands}"
                                 f" gives {arrow}, the tree path {p[v]}"))
    return report


class WeakPFunctorData:
    """A base functor together with one coherence family psi per
    generator: psi_op(a...) runs G(h1(op)(a...)) -> h2(op)(G a...)."""

    def __init__(self, source: WeakPCategoryData, target: WeakPCategoryData,
                 functor: Functor, psi: Mapping[str, Mapping[tuple[str, ...], str]]):
        if source.presentation.name != target.presentation.name:
            raise WeakcatError("weak functor endpoints present different theories")
        if functor.arity != 1 or functor.dom is not source.base \
                or functor.cod is not target.base:
            raise WeakcatError("base functor has the wrong shape")
        self.source = source
        self.target = target
        self.functor = functor
        self.psi = {op: dict(fam) for op, fam in psi.items()}

    def psi_component(self, term: Term, operands: Sequence[str]) -> str:
        """The coherence map at a term, derived from the generator
        families: identity on a variable, pasting on an operation."""
        return self._psi(term, tuple(operands))

    def _psi(self, term: Term, operands: tuple[str, ...]) -> str:
        G = self.functor
        if isinstance(term, Var):
            return self.target.base.identity(G.obj([operands[term.index - 1]]))
        child_objects = [self.source.h_obj(arg, operands) for arg in term.args]
        first = self.psi[term.op][tuple(child_objects)]
        child_psis = [self._psi(arg, operands) for arg in term.args]
        second = self.target.generators[term.op].arr(child_psis)
        return self.target.base.compose(second, first)


def _operations(term: Term) -> set[str]:
    if isinstance(term, Var):
        return set()
    return {term.op}.union(*map(_operations, term.args))


def check_weak_functor(Fd: WeakPFunctorData) -> CheckReport:
    """The coherence family must be invertible, natural, reduce to the
    identity on the unit tree, and intertwine every compiled 2-cell of
    the source with the matching one of the target (the first 200
    equation instances). A missing family or component, or one naming an
    unknown arrow, fails, and the laws that would read it are skipped."""
    report = CheckReport()
    W1, W2, G = Fd.source, Fd.target, Fd.functor
    sig = W1.presentation.signature
    complete = set()  # the ops whose psi names a known arrow everywhere
    for op, arity in sig.ops:
        fam = Fd.psi.get(op)
        if fam is None:
            report.fail(f"missing psi family for {op!r}")
            continue
        gen1, gen2 = W1.generators[op], W2.generators[op]
        gaps = set()
        for operands in product(W1.base.objects, repeat=arity):
            component = fam.get(operands)
            a = W2.base.arrows.get(component)
            if a is None:
                report.fail(f"psi[{op!r}] missing at {operands}"
                            if component is None else
                            f"psi[{op!r}] at {operands} names an unknown "
                            f"arrow {component!r}")
                gaps.add(operands)
                continue
            want_src = G.obj([gen1.obj(operands)])
            want_dst = gen2.obj([G.obj([o]) for o in operands])
            if (a.src, a.dst) != (want_src, want_dst):
                report.fail(f"psi[{op!r}] at {operands} has wrong endpoints")
                continue
            if not W2.base.is_iso(component):
                report.fail(f"psi[{op!r}] at {operands} is not invertible")
            report.note("psi endpoints")
        if not gaps:
            complete.add(op)
        for fs in product(W1.base.arrows, repeat=arity):
            srcs = tuple(W1.base.arrows[f].src for f in fs)
            dsts = tuple(W1.base.arrows[f].dst for f in fs)
            if srcs in gaps or dsts in gaps:
                continue
            report.note("psi naturality")
            try:
                left = W2.base.compose(fam[dsts], G.arr([gen1.arr(fs)]))
                right = W2.base.compose(gen2.arr([G.arr([f]) for f in fs]),
                                        fam[srcs])
            except WeakcatError as exc:
                report.fail(f"psi[{op!r}] at {fs}: {exc}")
                continue
            if left != right:
                report.fail(f"psi[{op!r}] not natural at {fs}")
    for obj in W1.base.objects:
        unit = Fd.psi_component(Var(1), (obj,))
        report.note("unit law")
        if not W2.base.is_identity(unit):
            report.fail(f"psi at the unit tree is not an identity on {obj!r}")
    checked = 0
    for eq in W1.presentation.equations:
        if not _operations(eq.lhs) | _operations(eq.rhs) <= complete:
            continue
        for operands in product(W1.base.objects, repeat=eq.arity):
            if checked >= 200:
                break
            checked += 1
            d1 = W1.derive_delta(eq.lhs, eq.rhs, operands)
            images = tuple(G.obj([o]) for o in operands)
            d2 = W2.derive_delta(eq.lhs, eq.rhs, images)
            if d1 is None or d2 is None:
                report.fail(f"equation {cell_key(eq)!r} has no compiled cell")
                continue
            report.note("pasting square")
            try:
                left = W2.base.compose(Fd.psi_component(eq.rhs, operands),
                                       G.arr([d1]))
                right = W2.base.compose(d2, Fd.psi_component(eq.lhs, operands))
            except WeakcatError as exc:
                report.fail(f"pasting at {cell_key(eq)!r} {operands}: {exc}")
                continue
            if left != right:
                report.fail(
                    f"pasting square fails for {cell_key(eq)!r} at {operands}")
    return report


# JSON form
def save_weakcat(W: WeakPCategoryData) -> str:
    """Serialize to the documented JSON shape: objects, arrows, compose
    keyed by "g∘f", identities, generators with comma joined tuple keys,
    deltas keyed by "lhs=rhs@arity" cells, plus the theory text and the
    optional target interpretation."""
    data: dict = {
        "theory": format_presentation(W.presentation),
        "objects": list(W.base.objects),
        "arrows": [{"id": a.id, "src": a.src, "dst": a.dst}
                   for a in W.base.arrows.values()],
        "identities": dict(W.base.identities),
        "compose": {f"{g}∘{f}": h for (g, f), h in W.base._compose.items()},
        "generators": {
            op: {"obj_map": dict(gen.obj_map), "arr_map": dict(gen.arr_map)}
            for op, gen in W.generators.items()},
        "deltas": {
            cell_key(W.presentation.equations[index]): {
                key_of(operands): arrow for operands, arrow in fam.items()}
            for index, fam in W.deltas.items()},
        "bounds": {"max_term_size": W.max_term_size,
                   "max_steps": W.context.max_steps},
    }
    if W.interpretation is not None:
        operad = W.interpretation.operad
        data["target"] = operad.name
        data["interp"] = {
            op: operad.format_element(element)
            for op, element in W.interpretation.assignment.items()}
    return json.dumps(data, ensure_ascii=False, indent=2) + "\n"


def _id_list(value, what: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise WeakcatError(f"{what} must be a list of string ids")
    return value


def _id_map(value, what: str) -> dict[str, str]:
    if not isinstance(value, dict) or not all(
            isinstance(v, str) for v in value.values()):
        raise WeakcatError(f"{what} must be an object of string ids")
    return value


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise WeakcatError(f"{what} must be a JSON object")
    return value


def _arrow(entry) -> Arrow:
    if not isinstance(entry, dict) or not all(
            isinstance(entry.get(k), str) for k in ("id", "src", "dst")):
        raise WeakcatError(
            f"entry {entry!r} of field 'arrows' needs string id, src "
            f"and dst fields")
    return Arrow(entry["id"], entry["src"], entry["dst"])


# the fields every weak-instance file has; bounds, target and interp
# are optional
_FIELDS = ("theory", "objects", "arrows", "identities", "compose",
           "generators", "deltas")


def load_weakcat(text: str) -> WeakPCategoryData:
    """Read the JSON form written by save_weakcat. Malformed input of any
    shape raises WeakcatError (or the parse error of the theory or target
    element it names)."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise WeakcatError(f"bad JSON: {exc}") from exc
    _object(data, "the weak instance")
    for field_name in _FIELDS:
        if field_name not in data:
            raise WeakcatError(f"missing field {field_name!r}")
    for field_name in data:
        if field_name not in _FIELDS + ("bounds", "target", "interp"):
            raise WeakcatError(f"unknown field {field_name!r}")
    if not isinstance(data["theory"], str):
        raise WeakcatError("field 'theory' must be a string")
    presentation = parse_presentation(data["theory"])
    if not isinstance(data["arrows"], list):
        raise WeakcatError("field 'arrows' must be a list of arrow entries")
    arrows = [_arrow(a) for a in data["arrows"]]
    compose = {}
    for key, value in _id_map(data["compose"], "field 'compose'").items():
        if "∘" not in key:
            raise WeakcatError(f"compose key {key!r} lacks the ∘ separator")
        g, _, f = key.partition("∘")
        compose[(g, f)] = value
    base = FiniteCategory(_id_list(data["objects"], "field 'objects'"),
                          arrows,
                          _id_map(data["identities"], "field 'identities'"),
                          compose)
    generators = {}
    for op, tables in _object(data["generators"],
                              "field 'generators'").items():
        arity = presentation.signature.arity(op)
        _object(tables, f"generator {op!r}")
        generators[op] = Functor(
            base, base, arity,
            _id_map(tables.get("obj_map"), f"generator {op!r} obj_map"),
            _id_map(tables.get("arr_map"), f"generator {op!r} arr_map"),
            name=op)
    by_key = {cell_key(eq): index
              for index, eq in enumerate(presentation.equations)}
    deltas: dict[int, dict[tuple[str, ...], str]] = {}
    for key, fam in _object(data["deltas"], "field 'deltas'").items():
        index = by_key.get(key)
        if index is None:
            raise WeakcatError(f"delta cell {key!r} matches no equation; "
                               f"expected one of {sorted(by_key)}")
        deltas[index] = {unkey(op_key): arrow for op_key, arrow
                         in _id_map(fam, f"delta cell {key!r}").items()}
    target = None
    assignment = None
    if "target" in data:
        if not isinstance(data["target"], str):
            raise WeakcatError("field 'target' must be a string")
        target = builtin_operad(data["target"], presentation)
        interp = _id_map(data.get("interp"), "field 'interp'")
        for op in interp:
            if op not in presentation.signature:
                raise WeakcatError(
                    f"interp entry {op!r} names no operation of the theory")
        assignment = {op: target.parse_element(text_)
                      for op, text_ in interp.items()}
    elif "interp" in data:
        raise WeakcatError("field 'interp' given without a 'target'")
    bounds = _object(data.get("bounds", {}), "field 'bounds'")
    for name, value in bounds.items():
        if name not in ("max_term_size", "max_steps"):
            raise WeakcatError(f"unknown bound {name!r}; expected "
                               "'max_term_size' or 'max_steps'")
        if type(value) is not int or value < 1:
            raise WeakcatError(f"bound {name!r} must be a positive integer")
    return WeakPCategoryData(
        base, presentation, generators, deltas, target, assignment,
        max_term_size=bounds.get("max_term_size", MAX_TERM_SIZE),
        max_steps=bounds.get("max_steps", MAX_STEPS))


def indiscrete_monoid_instance(presentation: Presentation,
                               elements: Sequence[str], unit: str,
                               multiply) -> WeakPCategoryData:
    """The weak instance on the indiscrete category over a finite
    monoid: the binary generator acts by multiply on objects, the
    nullary one picks the unit, and every delta component is the unique
    arrow between its endpoints. The presentation must consist of one
    binary and one nullary operation. The target interpretation sends
    each generator to the sole element of its arity in the
    one-element-per-arity plain operad."""
    arities = {presentation.signature.arity(op): op
               for op in presentation.signature.names()}
    if sorted(arities) != [0, 2] or len(presentation.signature.ops) != 2:
        raise WeakcatError("indiscrete_monoid_instance needs exactly one "
                           "binary and one nullary operation")
    m_op, e_op = arities[2], arities[0]
    base = FiniteCategory.indiscrete(elements)

    def ev(t: Term, operands: Sequence[str]) -> str:
        if isinstance(t, Var):
            return operands[t.index - 1]
        if t.op == e_op:
            return unit
        return multiply(ev(t.args[0], operands), ev(t.args[1], operands))

    m_obj = {key_of((a, b)): multiply(a, b)
             for a in elements for b in elements}
    m_arr = {}
    for f in base.arrows.values():
        for g in base.arrows.values():
            src = multiply(f.src, g.src)
            dst = multiply(f.dst, g.dst)
            m_arr[key_of((f.id, g.id))] = f"{src}>{dst}"
    generators = {
        m_op: Functor(base, base, 2, m_obj, m_arr, name=m_op),
        e_op: Functor(base, base, 0, {"": unit}, {"": f"{unit}>{unit}"},
                      name=e_op),
    }
    deltas: dict[int, dict[tuple[str, ...], str]] = {}
    for index, eq in enumerate(presentation.equations):
        fam = {}
        for operands in product(base.objects, repeat=eq.arity):
            fam[operands] = (f"{ev(eq.lhs, operands)}>"
                             f"{ev(eq.rhs, operands)}")
        deltas[index] = fam
    target = builtin_operad("terminal-plain", presentation)
    assignment = {m_op: 2, e_op: 0}
    return WeakPCategoryData(base, presentation, generators, deltas,
                             target, assignment)
