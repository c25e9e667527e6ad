"""Functions and permutations of finite sets [n] = {1..n}.

Tables are 1-indexed one-line notation: f(i) = table[i-1]. Two composite
constructions live here because everything else is built on them: block
composition of permutations (blocks shuffled as blocks, entries shuffled
within blocks) and combing of finite functions (the index bookkeeping
that pushes relabelling maps out of an operadic composite).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Sequence


class FinMapError(ValueError):
    pass


@dataclass(frozen=True)
class FinFunction:
    """A function [dom] -> [cod] given by its table of values."""

    dom: int
    cod: int
    table: tuple[int, ...]

    def __post_init__(self):
        if self.dom < 0 or self.cod < 0:
            raise FinMapError("negative domain or codomain")
        if len(self.table) != self.dom:
            raise FinMapError(
                f"table length {len(self.table)} does not match dom {self.dom}")
        for v in self.table:
            if not 1 <= v <= self.cod:
                raise FinMapError(f"table value {v} outside 1..{self.cod}")

    def __call__(self, i: int) -> int:
        if not 1 <= i <= self.dom:
            raise FinMapError(f"argument {i} outside 1..{self.dom}")
        return self.table[i - 1]

    @cached_property
    def is_bijection(self) -> bool:
        # entries already lie in 1..cod, so dom distinct ones fill [dom]
        return self.dom == self.cod and len(set(self.table)) == self.dom

    @property
    def is_identity(self) -> bool:
        return self.dom == self.cod and all(v == i for i, v in enumerate(self.table, 1))

    def __str__(self) -> str:
        return format_fn(self)


def _known_permutation(table: tuple[int, ...]) -> FinFunction:
    """Wrap a table that lists 1..n once each, built from validated
    permutations: skips __post_init__ and records is_bijection."""
    p = object.__new__(FinFunction)
    p.__dict__.update(dom=len(table), cod=len(table), table=table,
                      is_bijection=True)
    return p


def fn(table: Sequence[int], cod: int | None = None) -> FinFunction:
    """Build a FinFunction from a table; cod defaults to the maximal entry."""
    table = tuple(table)
    if cod is None:
        cod = max(table, default=0)
    return FinFunction(len(table), cod, table)


def perm(table: Sequence[int]) -> FinFunction:
    p = fn(table, cod=len(table))
    if not p.is_bijection:
        raise FinMapError(f"{list(table)} is not a permutation")
    return p


def identity(n: int) -> FinFunction:
    return FinFunction(n, n, tuple(range(1, n + 1)))


def compose(f: FinFunction, g: FinFunction) -> FinFunction:
    """Composite f after g (apply g first)."""
    if g.cod != f.dom:
        raise FinMapError(f"cannot compose: inner cod {g.cod} != outer dom {f.dom}")
    return FinFunction(g.dom, f.cod, tuple(f(g(i)) for i in range(1, g.dom + 1)))


def inverse(p: FinFunction) -> FinFunction:
    if not p.is_bijection:
        raise FinMapError("only bijections invert")
    table = [0] * p.dom
    for i in range(1, p.dom + 1):
        table[p(i) - 1] = i
    return FinFunction(p.dom, p.dom, tuple(table))


def select(f: FinFunction, items: Sequence) -> tuple:
    """Relabelling action on tuples: result[i] = items[f(i) - 1], len(items) = cod."""
    if len(items) != f.cod:
        raise FinMapError(f"expected {f.cod} items, got {len(items)}")
    return tuple(items[v - 1] for v in f.table)


def direct_sum(fs: Sequence[FinFunction]) -> FinFunction:
    """Blockwise juxtaposition: block i maps by fs[i] into the i-th codomain block."""
    table = []
    offset = 0
    for f in fs:
        table.extend(v + offset for v in f.table)
        offset += f.cod
    return FinFunction(sum(f.dom for f in fs), offset, tuple(table))


def block_compose(sigma: FinFunction, taus: Sequence[FinFunction]) -> FinFunction:
    """Operadic composition of permutations.

    Inputs are grouped into consecutive blocks of sizes k_1..k_n (the
    degrees of the taus); block j is moved, as a block, to rank sigma(j)
    and its entries are permuted by tau_j:

        sum_{i<j} k_i + m  |->  sum_{i: sigma(i) < sigma(j)} k_i + tau_j(m)
    """
    if not sigma.is_bijection:
        raise FinMapError("outer argument must be a permutation")
    if len(taus) != sigma.dom:
        raise FinMapError(f"expected {sigma.dom} inner permutations, got {len(taus)}")
    size_at_rank = [0] * sigma.dom
    for rank, t in zip(sigma.table, taus):
        if not t.is_bijection:
            raise FinMapError("inner arguments must be permutations")
        size_at_rank[rank - 1] = t.dom
    start_at_rank = list(accumulate(size_at_rank, initial=0))
    return _known_permutation(tuple([start_at_rank[rank - 1] + v
                                     for rank, t in zip(sigma.table, taus)
                                     for v in t.table]))


def comb_compose(f: FinFunction, inner: Sequence[FinFunction]) -> FinFunction:
    """Comb relabelling maps out of an operadic composite.

    Takes f: [n] -> [m] and one inner function per codomain slot,
    g_s: [k_s] -> [j_s] for s in [m]. The result is the function

        [sum_{i in [n]} k_{f(i)}] -> [sum_{s in [m]} j_s]
        (sum_{i<p} k_{f(i)}) + h  |->  (sum_{r<f(p)} j_r) + g_{f(p)}(h)

    characterized by the exchange law

        (f . p) o (g_1 . q_1, ..., g_m . q_m)
            = comb_compose(f, [g_1..g_m]) . (p o (q_{f(1)}, ..., q_{f(n)}))

    in any operad with relabelling actions. On bijections it agrees with
    block_compose up to listing order of the inner family:
    comb_compose(sigma, gs) = block_compose(sigma, select(sigma, gs)).
    """
    if len(inner) != f.cod:
        raise FinMapError(f"expected {f.cod} inner functions, got {len(inner)}")
    j_offsets = list(accumulate((g.cod for g in inner), initial=0))
    table = tuple([j_offsets[s - 1] + v
                   for s in f.table for v in inner[s - 1].table])
    return FinFunction(len(table), j_offsets[-1], table)


def block_permutation(sigma: FinFunction, sizes: Sequence[int]) -> FinFunction:
    """The permutation moving size-labelled blocks by sigma with no inner shuffle.

    sizes[s-1] is the size attached to slot s; input block p (of size
    sizes[sigma(p)-1]) lands identically on the slot-order block sigma(p).
    This is the acting permutation in the equivariance law

        act(sigma, p) o (q_{sigma(1)}, ..., q_{sigma(n)})
            = act(block_permutation(sigma, arities of q), p o (q_1..q_n)).
    """
    return comb_compose(sigma, [identity(s) for s in sizes])


_FN_RE = re.compile(r"^\[\s*([0-9,\s]*?)\s*(?:->\s*([0-9]+)\s*)?\]$")


def parse_fn(text: str) -> FinFunction:
    """Parse `[2,1,3]` (cod = max entry) or `[2,1,1->3]` (explicit cod)."""
    m = _FN_RE.match(text.strip())
    if not m:
        raise FinMapError(f"cannot parse finite function {text!r}")
    body, cod_text = m.group(1), m.group(2)
    fields = [x.strip() for x in body.split(",")] if body.strip() else []
    for x in fields:
        if not x.isdigit():
            raise FinMapError(f"bad finite function {text!r}: entry {x!r} "
                              f"is not an integer")
    entries = [int(x) for x in fields]
    cod = int(cod_text) if cod_text is not None else None
    try:
        return fn(entries, cod)
    except FinMapError as exc:
        raise FinMapError(f"bad finite function {text!r}: {exc}") from exc


def parse_perm(text: str) -> FinFunction:
    p = parse_fn(text)
    if not p.is_bijection:
        raise FinMapError(f"{text!r} is not a permutation")
    return p


def format_fn(f: FinFunction) -> str:
    body = ",".join(str(v) for v in f.table)
    default_cod = max(f.table, default=0)
    if f.cod == default_cod:
        return f"[{body}]"
    return f"[{body}->{f.cod}]"
