"""Clones and the two-way translation with finite-product operads.

A clone presents n-ary operations with simultaneous substitution into a
shared variable context and projections; a finite-product operad
presents them with block-disjoint composition and relabelling actions.
The two carry the same information, and both directions are implemented
as wrappers that reuse the underlying elements unchanged, so round
trips can be compared elementwise.

Substituting into a nullary operation cannot infer the shared context
size from its (empty) argument list, so ccompose takes an optional
explicit context arity for that case.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from .finmaps import FinFunction, fn as make_fn
from .operads import (CheckReport, EndOperad, FiniteOp, Operad, OperadError,
                      _table_entries)


class CloneError(ValueError):
    pass


class Clone:
    """Shared interface: projections and simultaneous substitution."""

    name = "clone"

    def proj(self, i: int, n: int):
        raise NotImplementedError

    def ccompose(self, p, qs: Sequence, context: int | None = None):
        """Substitute m-ary operations for all n inputs of p at once,
        yielding an m-ary operation. For nullary p, m comes from the
        context argument."""
        raise NotImplementedError

    def arity_of(self, p) -> int:
        raise NotImplementedError

    def _context_of(self, p, qs: Sequence, context: int | None) -> int:
        if len(qs) != self.arity_of(p):
            raise CloneError(
                f"substitution needs {self.arity_of(p)} operations, "
                f"got {len(qs)}")
        arities = {self.arity_of(q) for q in qs}
        if len(arities) > 1:
            raise CloneError(
                f"substituted operations must share one arity, got {arities}")
        if arities:
            m = arities.pop()
            if context is not None and context != m:
                raise CloneError(
                    f"declared context {context} does not match arity {m}")
            return m
        if context is None:
            raise CloneError(
                "substitution into a nullary operation needs an explicit context")
        return context


class CloneFromFP(Clone):
    """The clone carried by a finite-product operad.

    Substitution composes block-disjointly and then merges the n copies
    of the shared context by the arity-collapsing relabelling
    x |-> ((x-1) mod m) + 1; projections act on the operad identity.
    """

    def __init__(self, operad: Operad):
        if operad.flavor != "fp":
            raise CloneError(
                f"{operad.name} is {operad.flavor}; a clone needs the "
                f"finite-function action")
        self.operad = operad
        self.name = f"clone-of-{operad.name}"

    def proj(self, i: int, n: int):
        if not 1 <= i <= n:
            raise CloneError(f"projection index {i} out of range for arity {n}")
        pick = make_fn((i,), n)
        return self.operad.act_fn(pick, self.operad.identity())

    def ccompose(self, p, qs: Sequence, context: int | None = None):
        m = self._context_of(p, qs, context)
        n = self.operad.arity_of(p)
        stacked = self.operad.compose(p, list(qs))
        merge = make_fn(tuple(((x - 1) % m) + 1 for x in range(1, n * m + 1)), m)
        return self.operad.act_fn(merge, stacked)

    def arity_of(self, p) -> int:
        return self.operad.arity_of(p)


class FPFromClone(Operad):
    """The finite-product operad carried by a clone.

    Composition lifts each inner operation into the concatenated
    variable context through projections and then substitutes; the
    action substitutes projections chosen by the function.
    """

    flavor = "fp"

    def __init__(self, clone: Clone):
        self.clone = clone
        self.name = f"fp-of-{clone.name}"

    def identity(self):
        return self.clone.proj(1, 1)

    def arity_of(self, p) -> int:
        return self.clone.arity_of(p)

    def compose(self, p, qs: Sequence):
        self._check_compose(p, qs)
        sizes = [self.clone.arity_of(q) for q in qs]
        total = sum(sizes)
        lifted = []
        offset = 0
        for q, k in zip(qs, sizes):
            projections = [self.clone.proj(offset + j, total)
                           for j in range(1, k + 1)]
            lifted.append(self.clone.ccompose(q, projections, context=total))
            offset += k
        if not lifted:
            return p
        return self.clone.ccompose(p, lifted, context=total)

    def act_fn(self, f: FinFunction, p):
        self._check_act(f, p)
        n = self.clone.arity_of(p)
        projections = [self.clone.proj(f(i), f.cod) for i in range(1, n + 1)]
        return self.clone.ccompose(p, projections, context=f.cod)

    def enumerate_elements(self, arity, bound):
        inner = getattr(self.clone, "enumerate_elements", None)
        if inner is None:
            raise OperadError(f"{self.name} cannot enumerate")
        return inner(arity, bound)


class EndClone(Clone):
    """All finitary operations on a finite carrier, substituted into a
    shared argument tuple. A substitution reads its entries from the
    outer element's validated table, so each lies in the carrier."""

    def __init__(self, carrier: int):
        if carrier < 1:
            raise CloneError("carrier must be nonempty")
        self.carrier = carrier
        self.name = f"end-clone-{carrier}"

    def proj(self, i: int, n: int) -> FiniteOp:
        if not 1 <= i <= n:
            raise CloneError(f"projection index {i} out of range for arity {n}")
        # each value repeats for every setting of the later arguments
        c = self.carrier
        _table_entries(c, n)
        block = tuple(v for v in range(1, c + 1) for _ in range(c ** (n - i)))
        return FiniteOp(c, n, block * c ** (i - 1))

    def ccompose(self, p: FiniteOp, qs: Sequence[FiniteOp],
                 context: int | None = None) -> FiniteOp:
        m = self._context_of(p, qs, context)
        if any(q.carrier != self.carrier for q in (p, *qs)):
            raise CloneError("carrier mismatch")
        # every q reads the same argument tuple, so entry j of the result
        # is p.table at the mixed-radix index of the q.table[j] values
        index = [0] * _table_entries(self.carrier, m)
        for q in qs:
            index = [x * self.carrier + v - 1 for x, v in zip(index, q.table)]
        return FiniteOp(self.carrier, m, tuple(map(p.table.__getitem__, index)))

    def arity_of(self, p: FiniteOp) -> int:
        return p.arity

    def enumerate_elements(self, arity: int, bound: int) -> list[FiniteOp]:
        return EndOperad(self.carrier).enumerate_elements(arity, bound)


# the clone checks and the action half of roundtrip_check probe the
# arities up to this one
_CLONE_ARITY = 3


def clone_axiom_check(clone: Clone, pools: dict[int, list]) -> CheckReport:
    """Projection and substitution laws on the given element pools:
    projections select, substituting projections in order is a no-op,
    and substitution is associative (on arities up to 2)."""
    report = CheckReport()
    for n in range(1, _CLONE_ARITY + 1):
        for m in range(1, _CLONE_ARITY + 1):
            for i in range(1, n + 1):
                for qs in _tuples(pools.get(m, []), n, cap=64):
                    got = clone.ccompose(clone.proj(i, n), list(qs))
                    report.check("projection-selects",
                                 got == qs[i - 1],
                                 lambda: f"proj({i},{n}) over arity {m}")
    for n in range(1, _CLONE_ARITY + 1):
        for p in pools.get(n, []):
            spread = [clone.proj(i, n) for i in range(1, n + 1)]
            report.check("identity-substitution",
                         clone.ccompose(p, spread) == p,
                         lambda: f"arity {n}")
    for n in range(1, 3):
        for m in range(1, 3):
            for k in range(1, 3):
                for p in pools.get(n, [])[:2]:
                    for qs in _tuples(pools.get(m, []), n, cap=4):
                        for rs in _tuples(pools.get(k, []), m, cap=4):
                            one = clone.ccompose(clone.ccompose(p, list(qs)),
                                                 list(rs))
                            two = clone.ccompose(
                                p, [clone.ccompose(q, list(rs)) for q in qs])
                            report.check("substitution-associative",
                                         one == two,
                                         lambda: f"arities {n},{m},{k}")
    return report


def _tuples(pool: list, n: int, cap: int) -> list[tuple]:
    if n == 0:
        return [()]
    if not pool:
        return []
    return list(itertools.islice(itertools.product(pool, repeat=n), cap))


def roundtrip_check(operad: Operad, pools: dict[int, list],
                    max_arity: int = 3) -> CheckReport:
    """Translate an fp operad to its clone and back, then compare the two
    operad structures elementwise on the given pools: identity, every
    composition instance over the pools with composite arity within the
    bound, and every finite-function action out of an arity within the
    bound into an arity up to 3."""
    clone = CloneFromFP(operad)
    back = FPFromClone(clone)
    report = CheckReport()

    report.check("identity",
                 back.identity() == operad.identity(),
                 lambda: "identity element")

    for n in range(max_arity + 1):
        for p in pools.get(n, []):
            for ks in itertools.product(range(max_arity + 1), repeat=n):
                if sum(ks) > max_arity:
                    continue
                pool_lists = [pools.get(k, []) for k in ks]
                if any(not pl for pl in pool_lists):
                    continue
                for qs in itertools.product(*pool_lists):
                    direct = operad.compose(p, list(qs))
                    routed = back.compose(p, list(qs))
                    report.check(
                        "compose",
                        direct == routed,
                        lambda: f"{operad.format_element(p)} with "
                        + ", ".join(operad.format_element(q) for q in qs))

    for n in range(max_arity + 1):
        for m in range(_CLONE_ARITY + 1):
            for table in itertools.product(range(1, m + 1), repeat=n):
                f = make_fn(table, m)
                for p in pools.get(n, []):
                    direct = operad.act_fn(f, p)
                    routed = back.act_fn(f, p)
                    report.check(
                        "action",
                        direct == routed,
                        lambda: f"{operad.format_element(p)} by {f}")

    return report


def clone_roundtrip_check(clone: Clone, pools: dict[int, list]
                          ) -> CheckReport:
    """Translate a clone to its fp operad and back, then compare
    projections and substitution instances elementwise."""
    back = CloneFromFP(FPFromClone(clone))
    report = CheckReport()
    for n in range(1, _CLONE_ARITY + 1):
        for i in range(1, n + 1):
            report.check("projection",
                         back.proj(i, n) == clone.proj(i, n),
                         lambda: f"proj({i},{n})")
    for n in range(1, _CLONE_ARITY + 1):
        for m in range(1, _CLONE_ARITY + 1):
            for p in pools.get(n, []):
                for qs in _tuples(pools.get(m, []), n, cap=27):
                    direct = clone.ccompose(p, list(qs))
                    routed = back.ccompose(p, list(qs))
                    report.check("substitution",
                                 direct == routed,
                                 lambda: f"arities {n} over {m}")
    return report
