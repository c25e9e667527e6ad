"""Strictification of a finite weak structure and its comparison maps.

Objects of the strict category are pairs (p, a...) of a target element
with a tuple of base objects; arrows between two pairs are the base
arrows between their action values. A target element q acts on objects
by target composition and on arrows by the conjugate

    delta(dst)^-1 . h(tree_q)(f...) . delta(src)

where each delta is a compiled 2-cell from the representative of the
composite element to the graft of the representatives. The element p
acts through a canonical representative: the minimal-size tree whose
evaluation is p, ties broken by serialization (left-nested combs win).

check_strictness probes the strict action laws on enumerated instances,
check_equivalence the comparison back to the base (full, faithful,
essentially surjective, and a weak map via the construction's deltas),
and universal_property_check builds the strict map induced by a weak
map into a strict target and certifies its uniqueness by forcing every
arrow image from the restriction data.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, product
from typing import Sequence

from .operads import CheckReport, FreeOperad
from .terms import App, Term, Var, format_term
from .trees import Leaf, Node, tree_arity, tree_size
from .weakcat import WeakPCategoryData, WeakPFunctorData, check_weak_functor


class StrictifyError(ValueError):
    pass


# the comparison and universal-property checks probe at most this many
# object tuples per operation or equation, in lexicographic order
_OBJECT_TUPLES = 4096


@dataclass(frozen=True)
class StObject:
    element: object
    operands: tuple[str, ...]
    h_value: str

    def key(self) -> tuple:
        return (self.element, self.operands)


@dataclass(frozen=True)
class StArrow:
    src: StObject
    dst: StObject
    base: str

    def key(self) -> tuple:
        return (self.src.key(), self.dst.key(), self.base)


def _op_term(op: str, arity: int) -> Term:
    return App(op, tuple(Var(i) for i in range(1, arity + 1)))


def _op_tree(op: str, arity: int) -> Node:
    return Node(op, tuple(Leaf() for _ in range(arity)))


class StrictPCategory:
    """The strictified category: enumerated object pairs, base arrows
    tagged with endpoints, and a strict action of target elements."""

    def __init__(self, W: WeakPCategoryData, arity_bound: int = 3,
                 element_bound: int = 20):
        if W.interpretation is None:
            raise StrictifyError(
                "strictification needs a target interpretation on the input")
        self.W = W
        self.arity_bound = arity_bound
        self.element_bound = element_bound
        self.operad = W.interpretation.operad
        # representatives are elements of the free operad of the flavor
        self._free = FreeOperad(W.presentation.signature,
                                W.presentation.flavor)
        self._reprs: dict = {}
        self._repr_terms: dict = {}
        self.elements: dict[int, list] = {}
        for arity in range(arity_bound + 1):
            self._scan_representatives(arity)
            pool = self.operad.enumerate_elements(arity, element_bound)
            self.elements[arity] = [p for p in pool if p in self._reprs]
        self.objects: list[StObject] = []
        self._index: dict[tuple, StObject] = {}
        for arity in range(arity_bound + 1):
            for p in self.elements[arity]:
                for operands in product(W.base.objects, repeat=arity):
                    self._add_object(p, operands)
        # the strict action and its cells are functions of element and
        # object keys, so each distinct input is computed once (see _memo)
        self._act_memo: dict[tuple, object] = {}
        self._arr_memo: dict[tuple, object] = {}
        self._delta_memo: dict[tuple, object] = {}
        self._cell_memo: dict[tuple, object] = {}

    def _scan_representatives(self, arity: int):
        # objects come in (size, text) order, so the first tree to reach
        # a value is its canonical representative
        for tree in self.W.context.enumerate_objects(arity, self.W.max_term_size):
            self._reprs.setdefault(self.W.interpretation.eval_tree(tree), tree)

    def _add_object(self, element, operands: tuple[str, ...]):
        h_value = self.W.h_obj(self.repr_term(element), operands)
        obj = StObject(element, operands, h_value)
        self.objects.append(obj)
        self._index[obj.key()] = obj

    def repr_tree(self, element):
        tree = self._reprs.get(element)
        if tree is None:
            raise StrictifyError(
                f"element {self.operad.format_element(element)} has no "
                f"representative tree within size {self.W.max_term_size} "
                f"and arity {self.arity_bound}")
        return tree

    def repr_term(self, element) -> Term:
        """The representative tree of the element as a term, converted
        once per element."""
        term = self._repr_terms.get(element)
        if term is None:
            term = self.W._as_term(self.repr_tree(element))
            self._repr_terms[element] = term
        return term

    def obj(self, element, operands: Sequence[str]) -> StObject:
        found = self._index.get((element, tuple(operands)))
        if found is None:
            raise StrictifyError(
                f"object ({self.operad.format_element(element)}, "
                f"{tuple(operands)}) is outside the enumeration bounds")
        return found

    def identity(self, x: StObject) -> StArrow:
        return StArrow(x, x, self.W.base.identity(x.h_value))

    def compose(self, g: StArrow, f: StArrow) -> StArrow:
        if f.dst != g.src:
            raise StrictifyError("arrows are not composable")
        return StArrow(f.src, g.dst, self.W.base.compose(g.base, f.base))

    def inverse(self, f: StArrow) -> StArrow | None:
        base = self.W.base.inverse(f.base)
        if base is None:
            return None
        return StArrow(f.dst, f.src, base)

    def hom(self, x: StObject, y: StObject) -> list[StArrow]:
        return [StArrow(x, y, b) for b in self.W.base.hom(x.h_value, y.h_value)]

    def _memo(self, table: dict, key: tuple, compute):
        """compute() once per key. A StrictifyError is remembered too and
        raised afresh, with the same message, on every later call."""
        found = table.get(key)
        if found is None:
            try:
                found = compute()
            except StrictifyError as exc:
                # drop the traceback, which would keep the frames alive
                found = exc.with_traceback(None)
            table[key] = found
        if isinstance(found, StrictifyError):
            raise StrictifyError(*found.args)
        return found

    def act_obj(self, q, xs: Sequence[StObject]) -> StObject:
        return self._memo(self._act_memo, (q, tuple(x.key() for x in xs)),
                          lambda: self._act_obj(q, xs))

    def _act_obj(self, q, xs: Sequence[StObject]) -> StObject:
        if self.operad.arity_of(q) != len(xs):
            raise StrictifyError("operand count does not match the element arity")
        composite = self.operad.compose(q, [x.element for x in xs])
        operands = tuple(o for x in xs for o in x.operands)
        return self.obj(composite, operands)

    def delta_in(self, q, xs: Sequence[StObject]) -> str:
        """The compiled cell from the representative of the composite to
        the graft of the representatives, at the flattened operands."""
        return self._memo(self._delta_memo, (q, tuple(x.key() for x in xs)),
                          lambda: self._delta_in(q, xs))

    def _delta_in(self, q, xs: Sequence[StObject]) -> str:
        d = self._graft_cell(self.repr_tree(q), q, xs)
        if d is None:
            raise StrictifyError(
                "no rewrite path between the composite representative and "
                "the grafted representatives within the saturation budgets")
        return d

    def _graft_cell(self, outer, q, xs: Sequence[StObject]) -> str | None:
        """The compiled cell from the representative of q's composite
        with the elements of xs to the graft of the outer tree with their
        representatives, at the flattened operands; None when no rewrite
        path fits the budgets."""
        composite = self.operad.compose(q, [x.element for x in xs])
        # an out-of-bounds composite fails here, before any grafting
        start = self.repr_term(composite)
        grafted = self._free.compose(
            outer, [self.repr_tree(x.element) for x in xs])
        operands = tuple(o for x in xs for o in x.operands)
        return self.W.derive_delta(start, grafted, operands)

    def act_arr(self, q, fs: Sequence[StArrow]) -> StArrow:
        key = (q, tuple(f.key() for f in fs))
        return self._memo(self._arr_memo, key, lambda: self._act_arr(q, fs))

    def _act_arr(self, q, fs: Sequence[StArrow]) -> StArrow:
        src = self.act_obj(q, [f.src for f in fs])
        dst = self.act_obj(q, [f.dst for f in fs])
        mid = self.W.h_arr(self.repr_term(q), [f.base for f in fs])
        d_src = self.delta_in(q, [f.src for f in fs])
        d_dst = self.delta_in(q, [f.dst for f in fs])
        inv = self.W.base.inverse(d_dst)
        if inv is None:
            raise StrictifyError("a construction cell is not invertible")
        base = self.W.base.compose(inv, self.W.base.compose(mid, d_src))
        return StArrow(src, dst, base)

    def sample_arrows(self, cap: int) -> list[StArrow]:
        """A deterministic mix of strided arrows across object pairs
        (rotating the hom choice) interleaved with identities; arrows
        between distinct objects exercise the conjugating cells."""
        pairs = [(x, y) for x in self.objects for y in self.objects]
        stride = max(1, len(pairs) // max(1, 2 * cap))
        spread = []
        for k, (x, y) in enumerate(pairs[::stride][:2 * cap]):
            hom = self.W.base.hom(x.h_value, y.h_value)
            if hom:
                spread.append(StArrow(x, y, hom[k % len(hom)]))
        idents = [self.identity(x) for x in self.objects[:cap]]
        out = []
        for i in range(max(len(spread), len(idents))):
            if i < len(spread):
                out.append(spread[i])
            if i < len(idents):
                out.append(idents[i])
        return out


def strictify(W: WeakPCategoryData, arity_bound: int = 3,
              element_bound: int = 20) -> StrictPCategory:
    """W's one strict view for these bounds, built on first use and kept
    on W, so that the checks run on W share its memo tables.
    StrictPCategory(W) builds a fresh one."""
    key = (arity_bound, element_bound)
    S = W._strict_views.get(key)
    if S is None:
        S = W._strict_views[key] = StrictPCategory(W, arity_bound,
                                                    element_bound)
    return S


def _element_tuples(S: StrictPCategory, k: int,
                    total_bound: int) -> list[tuple]:
    """All k-tuples of enumerated elements with total arity in bounds."""
    out = [((), 0)]
    for _ in range(k):
        nxt = []
        for chosen, used in out:
            for arity, pool in S.elements.items():
                if used + arity > total_bound:
                    continue
                for p in pool:
                    nxt.append((chosen + (p,), used + arity))
        out = nxt
    return [chosen for chosen, _ in out]


def check_strictness(S: StrictPCategory, arrow_cap: int = 6,
                     instance_cap: int = 4000) -> CheckReport:
    """The strict action laws on enumerated instances: the identity
    element acts as the identity, and acting by a composite element
    equals acting in stages, on objects and on arrow tuples."""
    report = CheckReport()
    unit = S.operad.identity()
    arrows = S.sample_arrows(arrow_cap * 4)
    pool = arrows[:arrow_cap]
    for f in arrows:
        report.note("unit law")
        if S.act_arr(unit, (f,)) != f:
            report.fail(f"unit action moved the arrow {f.base!r}")
    instances = 0
    for k in range(S.arity_bound + 1):
        for q in S.elements[k]:
            for taus in _element_tuples(S, k, S.arity_bound):
                if instances >= instance_cap:
                    break
                arities = [S.operad.arity_of(t) for t in taus]
                composite = S.operad.compose(q, list(taus))
                if composite not in S._reprs:
                    continue
                for fs in islice(product(pool, repeat=sum(arities)), 512):
                    if instances >= instance_cap:
                        break
                    instances += 1
                    chunks = []
                    at = 0
                    for n in arities:
                        chunks.append(tuple(fs[at:at + n]))
                        at += n
                    try:
                        stages = [S.act_arr(t, chunk)
                                  for t, chunk in zip(taus, chunks)]
                        lhs = S.act_arr(composite, fs)
                        rhs = S.act_arr(q, stages)
                    except StrictifyError:
                        # the slotted arrows carry objects of their own
                        # arities, which can leave the enumeration bounds
                        report.note("associativity instances out of bounds")
                        continue
                    report.note("associativity")
                    if lhs != rhs:
                        report.fail(
                            f"acting by the composite of "
                            f"{S.operad.format_element(q)} differs from "
                            f"acting in stages at {[f.base for f in fs]}")
    return report


def _require_plain(S: StrictPCategory, what: str):
    if S.W.presentation.flavor != "plain":
        raise StrictifyError(
            f"{what} is implemented for plain presentations only; operand "
            f"order under permuted representatives is not handled")


def _act_term(S: StrictPCategory, term: Term,
              xs: Sequence[StObject]) -> StObject:
    if isinstance(term, Var):
        return xs[term.index - 1]
    children = [_act_term(S, arg, xs) for arg in term.args]
    return S.act_obj(S.W.interpretation.assignment[term.op], children)


def _comparison_cell(S: StrictPCategory, op: str,
                     xs: Sequence[StObject]) -> str:
    """The comparison's coherence map at a generator: from the value of
    the strict action to the base action on the values."""
    return S._memo(S._cell_memo, (op, tuple(x.key() for x in xs)),
                   lambda: _compute_comparison_cell(S, op, xs))


def _compute_comparison_cell(S: StrictPCategory, op: str,
                             xs: Sequence[StObject]) -> str:
    d = S._graft_cell(_op_tree(op, len(xs)),
                     S.W.interpretation.assignment[op], xs)
    if d is None:
        raise StrictifyError(
            f"no rewrite path for the comparison cell at {op!r}")
    return d


def _comparison_psi(S: StrictPCategory, term: Term,
                    xs: Sequence[StObject]) -> str:
    """The comparison's coherence map at a composite term, pasted from
    generator cells and generator functor images."""
    if isinstance(term, Var):
        return S.W.base.identity(xs[term.index - 1].h_value)
    children = [_act_term(S, arg, xs) for arg in term.args]
    first = _comparison_cell(S, term.op, children)
    child_cells = [_comparison_psi(S, arg, xs) for arg in term.args]
    second = S.W.generators[term.op].arr(child_cells)
    return S.W.base.compose(second, first)


def check_equivalence(S: StrictPCategory, W: WeakPCategoryData) -> CheckReport:
    """The comparison to the base: hom-sets transported bijectively,
    every base object hit exactly by the identity-element pair, and the
    construction's deltas satisfying the weak map laws (endpoints,
    invertibility, naturality, pasting) on in-bound instances: at most
    2000 comparison cells and four sampled arrows."""
    if W is not S.W:
        raise StrictifyError("the comparison check needs the input the "
                             "strict category was built from")
    _require_plain(S, "the comparison check")
    report = CheckReport()
    base = W.base
    for x in S.objects:
        for y in S.objects:
            report.note("hom bijection")
            if len(S.hom(x, y)) != len(base.hom(x.h_value, y.h_value)):
                report.fail(f"hom sets differ between "
                            f"({x.element}, {x.operands}) and "
                            f"({y.element}, {y.operands})")
    unit = S.operad.identity()
    for a in base.objects:
        report.note("essential surjectivity")
        if S.obj(unit, (a,)).h_value != a:
            report.fail(f"identity pair over {a!r} does not land on {a!r}")
        ident = _comparison_psi(S, Var(1), (S.obj(unit, (a,)),))
        if not base.is_identity(ident):
            report.fail(f"comparison cell at the identity element over "
                        f"{a!r} is not the identity")
    checked = 0
    pool = S.sample_arrows(16)[:4]
    for op, arity in W.presentation.signature.ops:
        op_elem = W.interpretation.assignment[op]
        for xs in islice(product(S.objects, repeat=arity),
                         _OBJECT_TUPLES):
            if checked >= 2000:
                break
            try:
                cell = _comparison_cell(S, op, xs)
                src = S.act_obj(op_elem, xs)
            except StrictifyError:
                continue
            checked += 1
            want_dst = W.h_obj(_op_term(op, arity),
                               tuple(x.h_value for x in xs))
            a = base.arrows[cell]
            report.note("comparison cell endpoints")
            if (a.src, a.dst) != (src.h_value, want_dst):
                report.fail(f"comparison cell at {op!r} has wrong endpoints")
            if not base.is_iso(cell):
                report.fail(f"comparison cell at {op!r} is not invertible")
        for fs in islice(product(pool, repeat=arity), 64):
            try:
                image = S.act_arr(op_elem, fs)
                cell_src = _comparison_cell(S, op, [f.src for f in fs])
                cell_dst = _comparison_cell(S, op, [f.dst for f in fs])
            except StrictifyError:
                continue
            left = base.compose(cell_dst, image.base)
            right = base.compose(
                W.h_arr(_op_term(op, arity), [f.base for f in fs]), cell_src)
            report.note("comparison cell naturality")
            if left != right:
                report.fail(f"comparison cell at {op!r} is not natural "
                            f"at {[f.base for f in fs]}")
    for index, eq in enumerate(W.presentation.equations):
        for xs in islice(product(S.objects, repeat=eq.arity),
                         _OBJECT_TUPLES):
            values = tuple(x.h_value for x in xs)
            try:
                left = _comparison_psi(S, eq.rhs, xs)
                start = _comparison_psi(S, eq.lhs, xs)
            except StrictifyError:
                continue
            d_w = W.derive_delta(eq.lhs, eq.rhs, values)
            if d_w is None:
                report.fail(f"no compiled cell for equation {index}")
                continue
            report.note("comparison pasting")
            if left != base.compose(d_w, start):
                report.fail(
                    f"comparison pasting fails for {format_term(eq.lhs)} = "
                    f"{format_term(eq.rhs)} at {values}")
    return report


def universal_property_check(W: WeakPCategoryData, B: WeakPCategoryData,
                             G: WeakPFunctorData) -> CheckReport:
    """Builds the strict map H out of the strict category induced by a
    weak map G into a strict target, checks that H is strict and
    restricts to G, and certifies uniqueness: every arrow image of a
    strict map restricting to G is forced by factoring the arrow through
    the unit embeddings of its endpoints. The strict action is probed at
    six sampled arrows. A G that check_weak_functor fails is refused, as
    is a target that is not strict."""
    report = CheckReport()
    if not B.is_strict():
        raise StrictifyError("the target of the induced map must be strict")
    if G.source is not W or G.target is not B:
        raise StrictifyError(
            "the weak map must run from the input to the strict target")
    weak = check_weak_functor(G)
    if not weak.ok:
        raise StrictifyError(
            f"the map into the strict target is not a weak map: "
            f"{weak.failures[0]}")
    S = strictify(W)
    _require_plain(S, "the universal property check")
    H = _induced_map(S, B, G, report)
    if H is None:
        return report
    h_obj, h_arr = H
    unit = S.operad.identity()

    pool = S.sample_arrows(24)[:6]
    for op, arity in W.presentation.signature.ops:
        op_elem = W.interpretation.assignment[op]
        for xs in islice(product(S.objects, repeat=arity),
                         _OBJECT_TUPLES):
            try:
                image = S.act_obj(op_elem, xs)
            except StrictifyError:
                continue
            lhs = h_obj[image.key()]
            rhs = B.h_obj(_op_term(op, arity),
                          tuple(h_obj[x.key()] for x in xs))
            report.note("strict action on objects")
            if lhs != rhs:
                report.fail(f"induced map is not strict on objects at {op!r}")
        for fs in islice(product(pool, repeat=arity), 64):
            try:
                image = S.act_arr(op_elem, fs)
            except StrictifyError:
                continue
            lhs = h_arr[image.key()]
            rhs = B.h_arr(_op_term(op, arity),
                          tuple(h_arr[f.key()] for f in fs))
            report.note("strict action on arrows")
            if lhs != rhs:
                report.fail(f"induced map is not strict on arrows at {op!r}")

    for a in W.base.objects:
        report.note("restriction on objects")
        if h_obj[S.obj(unit, (a,)).key()] != G.functor.obj([a]):
            report.fail(f"restriction misses the object image at {a!r}")
    for b, arrow in W.base.arrows.items():
        st = StArrow(S.obj(unit, (arrow.src,)), S.obj(unit, (arrow.dst,)), b)
        report.note("restriction on arrows")
        if h_arr[st.key()] != G.functor.arr([b]):
            report.fail(f"restriction misses the arrow image at {b!r}")
    for op, arity in W.presentation.signature.ops:
        for operands in product(W.base.objects, repeat=arity):
            cell = _embedding_cell(S, op, operands)
            want = G.psi_component(_op_term(op, arity), operands)
            report.note("restriction coherence")
            if h_arr[cell.key()] != want:
                report.fail(
                    f"restriction coherence fails at {op!r} {operands}")

    _uniqueness(S, W, B, G, H, report)
    return report


def _induced_map(S: StrictPCategory, B: WeakPCategoryData,
                 G: WeakPFunctorData, report: CheckReport
                 ) -> tuple[dict, dict] | None:
    """The strict map H induced by G, as two tables keyed like the
    strict view: each object key goes to the target action at G's
    operand images, and each arrow key (src key, dst key, base) to
    gamma_y . G(base) . gamma_x^-1, where gamma_x, G's coherence image at
    x's representative, runs G(x's value) -> H(x). None, with the
    failure on the report, when a gamma is not invertible.

    H is a functor by construction, so no composable pair is walked:
    the strict category takes identities and composites on the base
    arrows, G is a functor, and the gammas cancel in between, so
    H(g.f) = gamma_z . G(g_b) . G(f_b) . gamma_x^-1 = H(g) . H(f), and
    H(id_x) = gamma_x . G(id) . gamma_x^-1 is the identity."""
    h_obj, conjugate = {}, {}
    for x in S.objects:
        term = S.repr_term(x.element)
        h_obj[x.key()] = B.h_obj(term,
                                 [G.functor.obj([a]) for a in x.operands])
        gamma = G.psi_component(term, x.operands)
        inv = B.base.inverse(gamma)
        if inv is None:
            report.fail(f"coherence image at ({x.element}, {x.operands}) "
                        f"is not invertible")
            return None
        conjugate[x.key()] = (gamma, inv)
    compose = B.base.compose
    h_arr = {}
    for x in S.objects:
        inv = conjugate[x.key()][1]
        for y in S.objects:
            gamma = conjugate[y.key()][0]
            for b in S.W.base.hom(x.h_value, y.h_value):
                h_arr[(x.key(), y.key(), b)] = compose(
                    gamma, compose(G.functor.arr([b]), inv))
    return h_obj, h_arr


def _embedding_cell(S: StrictPCategory, op: str,
                    operands: tuple[str, ...]) -> StArrow:
    """The unit embedding's coherence map at a generator: from the
    identity pair over the base action value to the generator pair."""
    W = S.W
    arity = len(operands)
    op_elem = W.interpretation.assignment[op]
    value = W.h_obj(_op_term(op, arity), operands)
    src = S.obj(S.operad.identity(), (value,))
    dst = S.act_obj(op_elem, [S.obj(S.operad.identity(), (a,))
                              for a in operands])
    base = W.derive_delta(_op_term(op, arity), S.repr_term(dst.element),
                          operands)
    if base is None:
        raise StrictifyError(f"no embedding coherence cell for {op!r}")
    return StArrow(src, dst, base)


def _uniqueness(S: StrictPCategory, W: WeakPCategoryData,
                B: WeakPCategoryData, G: WeakPFunctorData,
                H: tuple[dict, dict], report: CheckReport) -> dict[tuple, str]:
    """Any strict map restricting to G agrees with the pins on every
    arrow. An arrow x -> y with base b factors as iota_y^-1 . b . iota_x
    through the unit embeddings iota into the identity pairs over the
    values, where the restriction fixes b's image at G(b); so the arrow
    is pinned at iota_val[y]^-1 . G(b) . iota_val[x]. Every iota has the
    identity base arrow. A representative op(t1..tk) is the (size, text)-
    minimal tree of its value, so each t_i represents its own value, and
    so does op(|..|): grafting the t_i into another representative of
    op's element, of at most k+1 nodes, would give a smaller or earlier
    tree. So both delta_in of the strictness step op(iota_x1..iota_xk)
    and the embedding cell at op are derive_delta(t, t), identities, and
    induction on t does the rest. The image of iota_x is forced all the
    same: strictness fixes the step's at B's action on the child images
    and the restriction fixes the cell's at psi_op, so iota_val[x] =
    psi_op^-1 . B.h(op)(iota_val[x1]...), the identity at unit pairs.
    Pins consistent with H mean H is the only candidate. Returns them,
    keyed like H's arrow table."""
    h_obj, h_arr = H
    unit = S.operad.identity()
    compose = B.base.compose
    # in representative size order, so child images are available first
    iota_val: dict[tuple, str] = {}
    for x in sorted(S.objects,
                    key=lambda x: tree_size(S.repr_tree(x.element))):
        if x.element == unit:
            iota_val[x.key()] = B.base.identity(h_obj[x.key()])
            continue
        t = S.repr_tree(x.element)
        children = []
        at = 0
        for sub in t.children:
            n = tree_arity(sub)
            children.append(S.obj(W.interpretation.eval_tree(sub),
                                  x.operands[at:at + n]))
            at += n
        term = _op_term(t.op, len(children))
        psi_inv = B.base.inverse(G.psi_component(
            term, tuple(c.h_value for c in children)))
        if psi_inv is None:
            report.fail(f"embedding cell at ({x.element}, {x.operands}) "
                        f"is not invertible")
            return {}
        iota_val[x.key()] = compose(
            psi_inv, B.h_arr(term, [iota_val[c.key()] for c in children]))
    back = {key: B.base.inverse(val) for key, val in iota_val.items()}
    pinned = {(x_key, y_key, base): compose(
                  back[y_key], compose(G.functor.arr([base]), iota_val[x_key]))
              for x_key, y_key, base in h_arr}
    report.note("uniqueness pins", len(pinned))
    mismatched = [a for a, v in pinned.items() if h_arr[a] != v]
    report.note("uniqueness agreement", len(pinned) - len(mismatched))
    for a in mismatched[:3]:
        report.fail(f"forced value disagrees with the induced map at {a!r}")
    return pinned
