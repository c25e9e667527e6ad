"""Shared fixtures: bundled theories, targets, element pools, and
converters between library terms and the nested-tuple oracle form."""

import importlib.util
import itertools
from pathlib import Path

import pytest

from operad_workbench.operads import (Interpretation, IntPolyFPOperad,
                                      TerminalPlainOperad, builtin_operad,
                                      op_from_callable, poly_add,
                                      poly_const, poly_mul)
from operad_workbench.terms import (App, Term, Var, parse_presentation,
                                    parse_term, replace_at, substitute,
                                    subterm_at)
from operad_workbench.weakcat import (FiniteCategory, Functor,
                                      WeakPCategoryData, WeakPFunctorData,
                                      indiscrete_monoid_instance, key_of,
                                      unkey)
from operad_workbench.weakening import WeakeningContext

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "src/operad_workbench/examples"


def perfbench_module(name: str):
    """Load one of the benchmark's stdlib-only modules (refs, preflight)
    by path, without importing the benchmark itself."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_theory(name: str):
    return parse_presentation((EXAMPLES / name).read_text())


def to_oracle(t: Term):
    if isinstance(t, Var):
        return ("var", t.index)
    return ("app", t.op, tuple(to_oracle(a) for a in t.args))


def from_oracle(t) -> Term:
    if t[0] == "var":
        return Var(t[1])
    return App(t[1], tuple(from_oracle(c) for c in t[2]))


def is_linear(seq) -> bool:
    """Whether a variable sequence repeats no variable."""
    return len(set(seq)) == len(seq)


def is_run(seq) -> bool:
    """Whether a variable sequence reads x_i, x_{i+1}, ..., x_j, or is
    empty."""
    return list(seq) == list(range(seq[0], seq[0] + len(seq))) if seq else True


@pytest.fixture(scope="session")
def monoid():
    return load_theory("monoid.th")


@pytest.fixture(scope="session")
def comm_monoid():
    return load_theory("comm_monoid.th")


@pytest.fixture(scope="session")
def pointed():
    return load_theory("pointed.th")


@pytest.fixture(scope="session")
def pointed_abcd():
    return load_theory("pointed_abcd.th")


@pytest.fixture(scope="session")
def trivial():
    return load_theory("trivial.th")


@pytest.fixture(scope="session")
def unbiased_monoid():
    return load_theory("unbiased_monoid.th")


def comm_monoid_fp_context(presentation) -> WeakeningContext:
    operad = builtin_operad("comm-monoid-fp")
    interp = Interpretation(presentation, operad,
                            {"m": (1, 1), "e": ()})
    return WeakeningContext(presentation, interp)


def replay_chain(equations, chain, start, goal):
    """Re-execute a rewrite chain step by step and confirm it lands."""
    current = start
    for step in chain:
        assert step.source == current
        eq = equations[step.eq_index]
        src_side, dst_side = ((eq.lhs, eq.rhs) if step.forward
                              else (eq.rhs, eq.lhs))
        binding = dict(step.binding)
        assert subterm_at(current, step.position) \
            == substitute(src_side, binding)
        current = replace_at(current, step.position,
                             substitute(dst_side, binding))
        assert current == step.target
    assert current == goal


def zmod(n: int):
    """Addition mod n on string digits, plus the element list."""
    elements = tuple(str(i) for i in range(n))
    return elements, "0", lambda a, b: str((int(a) + int(b)) % n)


@pytest.fixture(scope="session")
def z3_instance(monoid):
    elements, unit, mult = zmod(3)
    return indiscrete_monoid_instance(monoid, elements, unit, mult)


@pytest.fixture(scope="session")
def z4_instance(monoid):
    elements, unit, mult = zmod(4)
    return indiscrete_monoid_instance(monoid, elements, unit, mult)


def skewed_group_instance(presentation):
    """One object, arrows the additive group Z/3, associator forced to a
    non-identity arrow: locally valid but incoherent."""
    mult = lambda g, f: str((int(g) + int(f)) % 3)
    base = FiniteCategory.from_monoid(("0", "1", "2"), "0", mult)
    obj_map = {key_of(("o", "o")): "o"}
    arr_map = {key_of((f, g)): mult(f, g)
               for f in ("0", "1", "2") for g in ("0", "1", "2")}
    generators = {
        "m": Functor(base, base, 2, obj_map, arr_map, name="m"),
        "e": Functor(base, base, 0, {"": "o"}, {"": "0"}, name="e"),
    }
    deltas = {0: {("o", "o", "o"): "1"},
              1: {("o",): "0"},
              2: {("o",): "0"}}
    return WeakPCategoryData(base, presentation, generators, deltas,
                             target=TerminalPlainOperad(),
                             assignment={"m": 2, "e": 0})


def identity_weak_functor(W):
    """The identity map of a weak instance, with identity coherence."""
    G = Functor.identity_functor(W.base)
    psi = {}
    for op, gen in W.generators.items():
        fam = {}
        for key in gen.obj_map:
            fam[unkey(key)] = W.base.identity(gen.obj_map[key])
        psi[op] = fam
    return WeakPFunctorData(W, W, G, psi)


def vectors(arity: int, entry_bound: int = 2):
    return list(itertools.product(range(entry_bound + 1), repeat=arity))


def vector_pools(max_arity=3, entry_bound=2):
    return {n: vectors(n, entry_bound) for n in range(max_arity + 1)}


def end_pools(carrier):
    """Small structured pools: constants, a successor, projections, and
    genuinely mixing binary and ternary operations."""
    succ = op_from_callable(carrier, 1, lambda a: a % carrier + 1)
    return {
        0: [op_from_callable(carrier, 0, lambda v=v: v)
            for v in range(1, carrier + 1)],
        1: [op_from_callable(carrier, 1, lambda a: a), succ],
        2: [op_from_callable(carrier, 2, min),
            op_from_callable(carrier, 2, lambda a, b: a),
            op_from_callable(carrier, 2,
                             lambda a, b: (a + b - 2) % carrier + 1)],
        3: [op_from_callable(carrier, 3,
                             lambda a, b, c: (a + b + c - 3) % carrier + 1)],
    }


def terminal_weakcat(presentation):
    """The one-object one-arrow instance of a binary-and-unit theory."""
    base = FiniteCategory.terminal()
    ident = base.identity("o")
    generators = {
        "m": Functor(base, base, 2, {key_of(("o", "o")): "o"},
                     {key_of((ident, ident)): ident}, name="m"),
        "e": Functor(base, base, 0, {"": "o"}, {"": ident}, name="e"),
    }
    deltas = {index: {tuple("o" * eq.arity): ident}
              for index, eq in enumerate(presentation.equations)}
    return WeakPCategoryData(base, presentation, generators, deltas)


def collapse_functor(W, B):
    ident = B.base.identity("o")
    functor = Functor(W.base, B.base, 1,
                      {key_of((a,)): "o" for a in W.base.objects},
                      {key_of((f,)): ident for f in W.base.arrows})
    psi = {"m": {pair: ident
                 for pair in ((a, b) for a in W.base.objects
                              for b in W.base.objects)},
           "e": {(): ident}}
    return WeakPFunctorData(W, B, functor, psi)


def doubling_functor(W):
    dbl = lambda a: str((2 * int(a)) % 3)
    functor = Functor(W.base, W.base, 1,
                      {key_of((a,)): dbl(a) for a in W.base.objects},
                      {key_of((f.id,)): f"{dbl(f.src)}>{dbl(f.dst)}"
                       for f in W.base.arrows.values()})
    psi = {"m": {(a, b): W.base.identity(dbl(W.h_obj(
                parse_term("m(x1,x2)"), (a, b))))
                 for a in W.base.objects for b in W.base.objects},
           "e": {(): W.base.identity("0")}}
    return WeakPFunctorData(W, W, functor, psi)


def random_poly(rng, nvars, max_degree=2):
    operad = IntPolyFPOperad()
    pool = operad.enumerate_elements(nvars, 16)
    pool = [q for q in pool if q.degree() <= max_degree]
    result = poly_const(nvars, 0)
    for _ in range(rng.randint(1, 3)):
        mono = rng.choice(pool)
        scaled = poly_const(nvars, rng.randint(-3, 3))
        result = poly_add(result, poly_mul(scaled, mono))
    return result
