"""Independent reference models used to validate the library.

Everything in this file is deliberately written against plain tuples,
lists, and dicts, with no imports from operad_workbench, so that a bug
in the library cannot hide inside its own oracle. Terms are nested
tuples ("var", i) or ("app", op, (child, ...)); finite functions are
1-indexed tables (lists or tuples of ints).
"""

from collections import Counter
import itertools


def select(table, items):
    """Pick items by a 1-indexed table: result[h] = items[table[h] - 1]."""
    return tuple(items[t - 1] for t in table)


def oracle_comb_compose(f_table, f_cod, inner):
    """Combing of finite functions, computed by tuple selection alone.

    f_table is the table of f: [n] -> [m] (f_cod = m). inner is a list of
    m pairs (g_table, g_cod), one per codomain slot of f, with
    g_s: [k_s] -> [j_s]. Interpreting every function as argument
    selection, the combed function's table is read off the identity
    tuple: block i of the result selects, via g_{f(i)}, from the slice
    of output positions belonging to slot f(i).

    Returns (table, cod).
    """
    if len(inner) != f_cod:
        raise ValueError("need one inner function per codomain slot")
    cods = [c for (_, c) in inner]
    total = sum(cods)
    identity = tuple(range(1, total + 1))
    slices = []
    start = 0
    for c in cods:
        slices.append(identity[start:start + c])
        start += c
    out = []
    for v in f_table:
        g_table, _ = inner[v - 1]
        out.extend(select(g_table, slices[v - 1]))
    return tuple(out), total


def oracle_block_compose(sigma, taus):
    """Block composition of permutations via an explicit token shuffle.

    sigma is a permutation table of [n]; taus is a list of n permutation
    tables with degrees k_1..k_n. Tokens labelled (block, position) are
    laid out in declared block order, each block is internally scattered
    by its tau (the token at within-position m lands at within-position
    tau(m)), and the blocks are then arranged so that block j sits at
    rank sigma(j). The result table sends each input position to the
    output position of its token.
    """
    n = len(sigma)
    tokens_by_rank = [None] * n
    for j in range(1, n + 1):
        k = len(taus[j - 1])
        scattered = [None] * k
        for m in range(1, k + 1):
            scattered[taus[j - 1][m - 1] - 1] = (j, m)
        tokens_by_rank[sigma[j - 1] - 1] = scattered
    flat = []
    for chunk in tokens_by_rank:
        flat.extend(chunk)
    position_of = {tok: idx + 1 for idx, tok in enumerate(flat)}
    table = []
    for j in range(1, n + 1):
        for m in range(1, len(taus[j - 1]) + 1):
            table.append(position_of[(j, m)])
    return tuple(table)


def monomial_of_vector(vec):
    """The multiplicity vector [p_1..p_n] as a monomial x_1^p_1 ... x_n^p_n."""
    c = Counter()
    for i, p in enumerate(vec, start=1):
        if p:
            c[i] = p
    return c


def vector_of_monomial(c, arity):
    return tuple(c.get(i, 0) for i in range(1, arity + 1))


def oracle_monoid_vector_compose(p, qs):
    """Compose multiplicity vectors by symbolic monomial substitution.

    Substituting the block-shifted monomial of qs[i-1] for x_i in the
    monomial of p multiplies exponents; the result is read back as a
    vector over the concatenated variable blocks.
    """
    if len(qs) != len(p):
        raise ValueError("arity mismatch")
    offsets = []
    start = 0
    for q in qs:
        offsets.append(start)
        start += len(q)
    result = Counter()
    for i, mult in enumerate(p, start=1):
        if mult == 0:
            continue
        q_mono = monomial_of_vector(qs[i - 1])
        for var, e in q_mono.items():
            result[offsets[i - 1] + var] += mult * e
    return vector_of_monomial(result, start)


def oracle_monoid_vector_act(f_table, f_cod, p):
    """Relabel the monomial of p along f: substitute x_i -> x_{f(i)}."""
    if len(f_table) != len(p):
        raise ValueError("arity mismatch")
    result = Counter()
    for i, mult in enumerate(p, start=1):
        if mult:
            result[f_table[i - 1]] += mult
    return vector_of_monomial(result, f_cod)


def poly_eval(terms, point):
    """Evaluate a sparse polynomial {exponent tuple: coeff} at an integer point."""
    total = 0
    for exps, coeff in terms.items():
        value = coeff
        for x, e in zip(point, exps):
            value *= x ** e
        total += value
    return total


class EndTable:
    """An n-ary operation on a finite carrier, stored as an explicit table."""

    def __init__(self, carrier_size, arity, fn):
        self.carrier = range(carrier_size)
        self.arity = arity
        self.table = {args: fn(*args)
                      for args in itertools.product(self.carrier, repeat=arity)}

    def __call__(self, *args):
        return self.table[args]

    def __eq__(self, other):
        return (self.arity, self.table) == (other.arity, other.table)

    def __hash__(self):
        return hash((self.arity, tuple(sorted(self.table.items()))))


def end_compose(carrier_size, p, qs):
    """Operadic composition of EndTables: blockwise evaluation."""
    sizes = [q.arity for q in qs]
    total = sum(sizes)

    def fn(*args):
        vals = []
        start = 0
        for q in qs:
            vals.append(q(*args[start:start + q.arity]))
            start += q.arity
        return p(*vals)

    return EndTable(carrier_size, total, fn)


def end_act(carrier_size, f_table, f_cod, p):
    """Relabelling action on EndTables: (f . p)(y_1..y_m) = p(y_{f(1)}, ..., y_{f(n)})."""
    if len(f_table) != p.arity:
        raise ValueError("arity mismatch")

    def fn(*args):
        return p(*select(f_table, args))

    return EndTable(carrier_size, f_cod, fn)


# The end-N engines the library used before its gather kernel, kept as a
# differential oracle. They work on raw tables: an n-ary operation on
# {1..c} is the tuple of its c^n values, arguments in mixed radix with
# the last one fastest.

def _table_index(carrier_size, args):
    index = 0
    for a in args:
        index = index * carrier_size + (a - 1)
    return index


def end_compose_walk(carrier_size, p_table, q_tables):
    """Composition by the two-pass walk: every offset into p_table over
    the product of the inner tables, then one read per offset."""
    offsets = [0]
    for i, q_table in enumerate(q_tables):
        stride = carrier_size ** (len(q_tables) - 1 - i)
        offsets = [o + (v - 1) * stride for o in offsets for v in q_table]
    return tuple(p_table[o] for o in offsets)


def end_act_walk(carrier_size, f_table, f_cod, p_table):
    """The relabelling action one entry at a time: p read at the
    arguments that f selects from each argument tuple."""
    return tuple(p_table[_table_index(carrier_size, select(f_table, args))]
                 for args in itertools.product(range(1, carrier_size + 1),
                                               repeat=f_cod))


def end_ccompose_walk(carrier_size, p_table, q_tables, context):
    """Clone substitution by the stride walk: entry j reads p_table at
    the mixed-radix index of the q_tables' entries j."""
    offsets = [0] * carrier_size ** context
    for i, q_table in enumerate(q_tables):
        stride = carrier_size ** (len(q_tables) - 1 - i)
        offsets = [o + (v - 1) * stride for o, v in zip(offsets, q_table)]
    return tuple(p_table[o] for o in offsets)


def end_proj_walk(carrier_size, i, n):
    """The i-th n-ary projection, one argument tuple at a time."""
    return tuple(args[i - 1] for args in
                 itertools.product(range(1, carrier_size + 1), repeat=n))


def finite_op_refusal(carrier_size, arity, table):
    """The refusal of a tabulated operation, entry by entry: the
    message, or None for a valid table. Only for arities within the
    table budget."""
    entries = carrier_size ** arity
    if len(table) != entries:
        return f"table needs {entries} entries, got {len(table)}"
    if any(not 1 <= v <= carrier_size for v in table):
        return "table values must lie in the carrier"
    return None


def enumerate_terms_brute(ops, arity, max_size):
    """All terms over ops with support inside 1..arity and at most max_size nodes.

    ops maps an operation name to its arity. Returned terms are nested
    tuples, sorted for determinism.
    """
    by_size = {}

    def of_size(s):
        if s in by_size:
            return by_size[s]
        found = []
        if s == 1:
            for i in range(1, arity + 1):
                found.append(("var", i))
            for name, k in ops.items():
                if k == 0:
                    found.append(("app", name, ()))
        else:
            for name, k in ops.items():
                if k == 0 or k > s - 1:
                    continue
                for split in compositions(s - 1, k):
                    for children in itertools.product(
                            *(of_size(part) for part in split)):
                        found.append(("app", name, children))
        by_size[s] = found
        return found

    out = []
    for s in range(1, max_size + 1):
        out.extend(of_size(s))
    return sorted(out)


def compositions(total, parts):
    """All ways to write total as an ordered sum of `parts` positive integers."""
    if parts == 0:
        return [()] if total == 0 else []
    if parts == 1:
        return [(total,)] if total >= 1 else []
    out = []
    for first in range(1, total - parts + 2):
        for rest in compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return out


def term_size(t):
    if t[0] == "var":
        return 1
    return 1 + sum(term_size(c) for c in t[2])


def match_pattern(pattern, term, binding):
    """Match a pattern term (variables bind) against a closed-position term."""
    if pattern[0] == "var":
        i = pattern[1]
        if i in binding:
            return binding if binding[i] == term else None
        new = dict(binding)
        new[i] = term
        return new
    if term[0] != "app" or term[1] != pattern[1]:
        return None
    if len(term[2]) != len(pattern[2]):
        return None
    for p_child, t_child in zip(pattern[2], term[2]):
        binding = match_pattern(p_child, t_child, binding)
        if binding is None:
            return None
    return binding


def substitute(pattern, binding):
    if pattern[0] == "var":
        return binding[pattern[1]]
    return ("app", pattern[1], tuple(substitute(c, binding) for c in pattern[2]))


def rewrites_at_positions(term, lhs, rhs):
    """All terms obtained by rewriting one subterm of term by lhs -> rhs."""
    results = []
    binding = match_pattern(lhs, term, {})
    if binding is not None:
        try:
            results.append(substitute(rhs, binding))
        except KeyError:
            pass
    if term[0] == "app":
        for idx, child in enumerate(term[2]):
            for new_child in rewrites_at_positions(child, lhs, rhs):
                children = list(term[2])
                children[idx] = new_child
                results.append(("app", term[1], tuple(children)))
    return results


def naive_equality_closure(equations, universe):
    """Fixpoint rewriting closure over a finite term universe.

    equations is a list of (lhs, rhs) nested-tuple pairs; universe a list
    of terms. A step rewrites any subterm by an equation instance in
    either direction, provided the result stays inside the universe.
    Returns a dict mapping each term to a frozenset class.
    """
    universe_set = set(universe)
    parent = {t: t for t in universe}

    def find(t):
        while parent[t] != t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        return t

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            return True
        return False

    changed = True
    while changed:
        changed = False
        for t in universe:
            for lhs, rhs in equations:
                for direction in ((lhs, rhs), (rhs, lhs)):
                    for result in rewrites_at_positions(t, *direction):
                        if result in universe_set and union(t, result):
                            changed = True
    classes = {}
    for t in universe:
        classes.setdefault(find(t), set()).add(t)
    return {t: frozenset(classes[find(t)]) for t in universe}


def _tree_nodes(t):
    return 1 + sum(_tree_nodes(c) for c in getattr(t, "children", ()))


def _tree_leaves(t):
    children = getattr(t, "children", None)
    return 1 if children is None else sum(_tree_leaves(c) for c in children)


def reference_seed_pins(S, W, B, G, H, embedding_cell, op_term):
    """The seed pins that once certified the uniqueness of an induced
    strict map, kept as an oracle: identities, the restriction data on
    arrows and on the generators' embedding cells (embedding_cell(S, op,
    operands) is the cell, op_term(op, arity) the generator's term), then
    the unit embedding of every object of the strict view S into the
    identity pair over its value, built by recursion over representative
    trees from strictness steps and inverted embedding cells on the
    strict side, each pinned with its forced image. H is the pair of the
    induced map's object and arrow tables. Pins are keyed by (src key,
    dst key, base). Returns the pins, the conflicts, and the embeddings
    by object key."""
    h_obj, _ = H
    unit = S.operad.identity()
    pinned, conflicts = {}, []

    def pin(arrow, value):
        old = pinned.get(arrow)
        if old is None:
            pinned[arrow] = value
        elif old != value:
            conflicts.append(f"conflicting forced values at {arrow!r}")

    for x in S.objects:
        pin(S.identity(x).key(), B.base.identity(h_obj[x.key()]))
    for b, arrow in W.base.arrows.items():
        pin((S.obj(unit, (arrow.src,)).key(),
             S.obj(unit, (arrow.dst,)).key(), b),
            G.functor.arr([b]))
    for op, arity in W.presentation.signature.ops:
        for operands in itertools.product(W.base.objects, repeat=arity):
            pin(embedding_cell(S, op, operands).key(),
                G.psi_component(op_term(op, arity), operands))
    iota_st, iota_val = {}, {}
    for x in sorted(S.objects,
                    key=lambda x: _tree_nodes(S.repr_tree(x.element))):
        if x.element == unit:
            iota_st[x.key()] = S.identity(x)
            iota_val[x.key()] = B.base.identity(h_obj[x.key()])
            continue
        t = S.repr_tree(x.element)
        children, at = [], 0
        for sub in t.children:
            n = _tree_leaves(sub)
            children.append(S.obj(W.interpretation.eval_tree(sub),
                                  x.operands[at:at + n]))
            at += n
        step_st = S.act_arr(W.interpretation.assignment[t.op],
                            [iota_st[c.key()] for c in children])
        step_val = B.h_arr(op_term(t.op, len(children)),
                           [iota_val[c.key()] for c in children])
        pin(step_st.key(), step_val)
        cell_st = embedding_cell(S, t.op, tuple(c.h_value for c in children))
        cell_val = pinned[cell_st.key()]
        iota_st[x.key()] = S.compose(S.inverse(cell_st), step_st)
        iota_val[x.key()] = B.base.compose(B.base.inverse(cell_val),
                                           step_val)
        pin(iota_st[x.key()].key(), iota_val[x.key()])
    return pinned, conflicts, iota_st


def reference_close_pins(S, W, B, pinned, conflicts):
    """The forced-value closure that once certified the uniqueness of an
    induced strict map, kept as an oracle: close the pins on the arrows
    (src key, dst key, base) of the strict view S under inverses (in the
    base W.base and the target B.base) and under composition, which
    composes the base arrows, in rounds until a round pins nothing new
    or a conflict appears. Works on pins and conflicts in place."""

    def pin(arrow, value):
        old = pinned.get(arrow)
        if old is None:
            pinned[arrow] = value
        elif old != value:
            conflicts.append(f"conflicting forced values at {arrow!r}")

    # the arrows out of each object, in the order the view lists them
    out_of = {x.key(): [(x.key(), y.key(), b) for y in S.objects
                        for b in W.base.hom(x.h_value, y.h_value)]
              for x in S.objects}
    changed = True
    while changed and not conflicts:
        changed = False
        for arrow in list(pinned):
            x_key, y_key, base = arrow
            inv_base = W.base.inverse(base)
            inv_val = B.base.inverse(pinned[arrow])
            if inv_base is None or inv_val is None:
                continue
            inv = (y_key, x_key, inv_base)
            if inv not in pinned:
                pin(inv, inv_val)
                changed = True
        for f in (f for fs in out_of.values() for f in fs):
            if f not in pinned:
                continue
            for g in out_of[f[1]]:
                if g not in pinned:
                    continue
                comp = (f[0], g[1], W.base.compose(g[2], f[2]))
                value = B.base.compose(pinned[g], pinned[f])
                if comp not in pinned:
                    pin(comp, value)
                    changed = True
                elif pinned[comp] != value:
                    conflicts.append(
                        f"forced composition mismatch at {comp!r}")


def _format_term(t):
    args = getattr(t, "args", None)
    if args is None:
        return f"x{t.index}"
    return f"{t.op}({','.join(map(_format_term, args))})" if args else t.op


def _probe_chains(sat, t1, t2):
    """Up to three distinct rewrite chains from t1 to t2 over the merge
    graph of the closure sat, shortest first, ties broken by the text
    of their links: the expansions of the simple paths at most four
    links longer than the shortest, from a walk that stops at 28."""
    i1, i2 = sat._ids(t1, t2)
    if sat._find(i1) != sat._find(i2):
        return []
    if i1 == i2:
        return [[]]
    cap = len(sat._bfs(i1, i2, sat.unions)) + 4
    found, path, on_path = [], [], {i1}

    def walk(u):
        if len(found) >= 28:
            return
        if u == i2:
            found.append(list(path))
            return
        if len(path) >= cap:
            return
        # parallel edges count once, at their oldest stamp
        distinct = {}
        for v, reason, stamp in sat.edges[u]:
            distinct.setdefault((v, reason), stamp)
        for (v, reason), stamp in distinct.items():
            if v in on_path:
                continue
            on_path.add(v)
            path.append((u, v, reason, stamp))
            walk(v)
            path.pop()
            on_path.discard(v)

    walk(i1)
    found.sort(key=lambda links: (
        len(links), [_format_term(sat.terms[a]) + "/" + _format_term(sat.terms[b])
                     for a, b, _, _ in links]))
    out, seen = [], set()
    for links in found:
        if len(out) >= 3:
            break
        steps = tuple(step for link in links for step in sat._expand(*link))
        if steps not in seen:
            seen.add(steps)
            out.append(list(steps))
    return out


def coherence_probe_oracle(W):
    """The sampled coherence probe that once certified a weak instance W,
    kept as an oracle: per arity 0-3, the first member of each class
    against each other member, for at most 40 pairs with two or more
    chains (_probe_chains), every chain compiled at the first 27 operand
    tuples; the chains of a pair must all compile to one arrow. Returns
    the probes made and the failing (first member, member, operands)."""
    checked, failing = 0, []
    for arity in range(4):
        sat = W.context.saturation(arity)
        pool = list(itertools.islice(
            itertools.product(W.base.objects, repeat=arity), 27))
        pairs = 0
        for cls in W.context.enumerate_classes(arity, W.max_term_size):
            term_a = W._as_term(cls.members[0])
            for other in cls.members[1:]:
                if pairs >= 40:
                    break
                term_b = W._as_term(other)
                chains = _probe_chains(sat, term_a, term_b)
                if len(chains) < 2:
                    continue
                pairs += 1
                for operands in pool:
                    at = W.h_obj(term_a, operands)
                    checked += 1
                    if len({W.compile_path(steps, operands, at)
                            for steps in chains}) > 1:
                        failing.append((term_a, term_b, operands))
    return checked, failing


# The strict view's out-of-bounds probes as they were before the view
# decided them by element tuple: every object tuple goes through the
# strict action, and a tuple is skipped when it is refused. Each probe
# notes and fails on a report (note(label), fail(message)) exactly as the
# library's check does; refused is the exception class of a refusal,
# comparison_cell(S, op, xs) and comparison_psi(S, term, xs) the
# library's comparison cells, op_term(op, arity) a generator's term, and
# format_term prints a term.

def reference_comparison_cells(S, op, arity, comparison_cell, op_term,
                               refused, report, tuples=4096, cap=2000):
    W, base = S.W, S.W.base
    op_elem = W.interpretation.assignment[op]
    checked = 0
    for xs in itertools.islice(itertools.product(S.objects, repeat=arity),
                               tuples):
        if checked >= cap:
            break
        try:
            cell = comparison_cell(S, op, xs)
            src = S.act_obj(op_elem, xs)
        except refused:
            continue
        checked += 1
        want_dst = W.h_obj(op_term(op, arity), tuple(x.h_value for x in xs))
        a = base.arrows[cell]
        report.note("comparison cell endpoints")
        if (a.src, a.dst) != (src.h_value, want_dst):
            report.fail(f"comparison cell at {op!r} has wrong endpoints")
        if not base.is_iso(cell):
            report.fail(f"comparison cell at {op!r} is not invertible")


def reference_comparison_pasting(S, comparison_psi, format_term, refused,
                                 report, tuples=4096):
    W, base = S.W, S.W.base
    for index, eq in enumerate(W.presentation.equations):
        for xs in itertools.islice(
                itertools.product(S.objects, repeat=eq.arity), tuples):
            values = tuple(x.h_value for x in xs)
            try:
                left = comparison_psi(S, eq.rhs, xs)
                start = comparison_psi(S, eq.lhs, xs)
            except refused:
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


def reference_action_on_objects(S, B, h_obj, op, arity, op_term, refused,
                                report, tuples=4096):
    op_elem = S.W.interpretation.assignment[op]
    for xs in itertools.islice(itertools.product(S.objects, repeat=arity),
                               tuples):
        try:
            image = S.act_obj(op_elem, xs)
        except refused:
            continue
        lhs = h_obj[image.key()]
        rhs = B.h_obj(op_term(op, arity), tuple(h_obj[x.key()] for x in xs))
        report.note("strict action on objects")
        if lhs != rhs:
            report.fail(f"induced map is not strict on objects at {op!r}")


# Unbounded oracles for monoid.th and comm_monoid.th: a normal form
# decides equality in the free (commutative) monoid with no size bound,
# and the critical-pair diagrams of monoid.th's orientation generate
# every diagram of its structure cells (Mac Lane 1963; Squier, Otto &
# Kobayashi 1994).

def monoid_normal_form(t):
    """The variable sequence of t, with every e dropped: its word in
    the free monoid on the variables."""
    if t[0] == "var":
        return (t[1],)
    return tuple(i for child in t[2] for i in monoid_normal_form(child))


def comm_monoid_normal_form(t):
    """The sorted variables of t: its element of the free commutative
    monoid on the variables."""
    return tuple(sorted(monoid_normal_form(t)))


_X1, _X2, _X3, _X4 = (("var", i) for i in range(1, 5))
_E = ("app", "e", ())


def _m(a, b):
    return ("app", "m", (a, b))


# monoid.th's equations in the order of the file, oriented left to
# right: alpha, lambda, rho
MONOID_CELLS = ((_m(_m(_X1, _X2), _X3), _m(_X1, _m(_X2, _X3))),
                (_m(_E, _X1), _X1),
                (_m(_X1, _E), _X1))

# monoid.th's five critical pairs, the pentagon, three unit triangles
# and m(e,e): a name, the overlap term, its variable count, and two
# rewrite sequences out of it that close it, each step an (equation,
# position) pair
MONOID_CRITICAL_PAIRS = (
    ("m(m(m(x1,x2),x3),x4)", _m(_m(_m(_X1, _X2), _X3), _X4), 4,
     ((0, ()), (0, ())),
     ((0, (0,)), (0, ()), (0, (1,)))),
    ("m(m(e,x1),x2)", _m(_m(_E, _X1), _X2), 2,
     ((1, (0,)),),
     ((0, ()), (1, ()))),
    ("m(m(x1,e),x2)", _m(_m(_X1, _E), _X2), 2,
     ((2, (0,)),),
     ((0, ()), (1, (1,)))),
    ("m(m(x1,x2),e)", _m(_m(_X1, _X2), _E), 2,
     ((2, ()),),
     ((0, ()), (2, (1,)))),
    ("m(e,e)", _m(_E, _E), 0,
     ((1, ()),),
     ((2, ()),)),
)


def _h_obj(W, t, operands):
    if t[0] == "var":
        return operands[t[1] - 1]
    return W.generators[t[1]].obj([_h_obj(W, c, operands) for c in t[2]])


def _subterm(t, position):
    for i in position:
        t = t[2][i]
    return t


def _replace(t, position, s):
    if not position:
        return s
    i = position[0]
    kids = list(t[2])
    kids[i] = _replace(kids[i], position[1:], s)
    return ("app", t[1], tuple(kids))


def _whisker(W, t, position, arrow, operands):
    """arrow placed at position of t, with identities beside it, through
    the generator functors above it."""
    if not position:
        return arrow
    i = position[0]
    images = [_whisker(W, c, position[1:], arrow, operands) if j == i
              else W.base.identity(_h_obj(W, c, operands))
              for j, c in enumerate(t[2])]
    return W.generators[t[1]].arr(images)


def _compile_side(W, start, steps, operands):
    """The base arrow of one side of a diagram, step by step from the
    delta components; returns it with the term the side ends at."""
    t = start
    arrow = W.base.identity(_h_obj(W, t, operands))
    for cell, position in steps:
        lhs, rhs = MONOID_CELLS[cell]
        binding = match_pattern(lhs, _subterm(t, position), {})
        assert binding is not None, (cell, position, t)
        cell_operands = tuple(_h_obj(W, binding[v], operands)
                              for v in sorted(binding))
        component = W.deltas[cell][cell_operands]
        arrow = W.base.compose(_whisker(W, t, position, component, operands),
                               arrow)
        t = _replace(t, position, substitute(rhs, binding))
    return arrow, t


def critical_pair_coherence_oracle(W):
    """Both sides of each of monoid.th's critical-pair diagrams compiled
    at every operand tuple of W's base, from W.deltas and the generator
    functors alone. Returns the diagrams compiled and the failing
    (diagram name, operands); W is coherent exactly when none fails."""
    checked, failing = 0, []
    for name, start, arity, side_a, side_b in MONOID_CRITICAL_PAIRS:
        for operands in itertools.product(W.base.objects, repeat=arity):
            arrow_a, end_a = _compile_side(W, start, side_a, operands)
            arrow_b, end_b = _compile_side(W, start, side_b, operands)
            assert end_a == end_b, name
            checked += 1
            if arrow_a != arrow_b:
                failing.append((name, operands))
    return checked, failing


def reference_representatives(W, arity_bound):
    """The strict view's representatives as it once scanned them: every
    object of arities 0..arity_bound within W's size bound, in (size,
    text) order, and the first to reach an element represents it."""
    reprs = {}
    for arity in range(arity_bound + 1):
        for tree in W.context.enumerate_objects(arity, W.max_term_size):
            reprs.setdefault(W.interpretation.eval_tree(tree), tree)
    return reprs
