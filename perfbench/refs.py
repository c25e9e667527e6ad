"""Independent references the benchmark checks the workbench against.

Nothing here imports operad_workbench. Terms and trees are read back
from the text the program prints, and every law is recomputed from its
definition with plain tuples:

- permutations: block composition as (block move) after (direct sum);
- end-N: pointwise substitution straight from the raw tables;
- comm-monoid-fp: multiplicity arithmetic;
- terms: a parser, a matcher and a step-by-step replay of rewrite traces;
- trees: a size DP that counts objects, and evaluation in end-N.

A term is an int (the variable x_i) or a tuple (op, child, ...).
A plain tree is the string "|" (a leaf) or a tuple (op, child, ...).
"""

from __future__ import annotations

import itertools
import math
import re
from functools import lru_cache

# --------------------------------------------------------------- symmetries


def block_compose_ref(sigma: tuple, taus: list) -> tuple:
    """Operadic composite of the permutation sigma of n blocks with the
    inner permutations taus, in one-line 1-indexed notation."""
    sizes = [len(t) for t in taus]
    direct_sum = []
    offset = 0
    for tau in taus:
        direct_sum.extend(offset + v for v in tau)
        offset += len(tau)
    # the block that sigma sends to rank r lands after all lower ranks
    start = [0] * len(sigma)
    acc = 0
    for j in sorted(range(len(sigma)), key=lambda j: sigma[j]):
        start[j] = acc
        acc += sizes[j]
    block_move = [start[j] + r for j, size in enumerate(sizes)
                  for r in range(1, size + 1)]
    return tuple(block_move[v - 1] for v in direct_sum)


def perm_act_ref(sigma: tuple, p: tuple) -> tuple:
    """The symmetries action: p after the inverse of sigma."""
    inverse = [0] * len(sigma)
    for i, v in enumerate(sigma, 1):
        inverse[v - 1] = i
    return tuple(p[i - 1] for i in inverse)


# ------------------------------------------------------------------- end-N


def end_compose_ref(carrier: int, p_table: tuple, q_tables: list) -> tuple:
    """Table of p(q_1(block 1), ..., q_n(block n)) over the concatenated
    argument blocks, in lexicographic argument order. Lexicographic order
    of the concatenation is the product of the blocks' own orders, so the
    composite walks the product of the inner tables."""
    n = len(q_tables)
    weights = [carrier ** (n - 1 - j) for j in range(n)]
    return tuple(p_table[sum((v - 1) * w for v, w in zip(mids, weights))]
                 for mids in itertools.product(*q_tables))


def end_act_ref(carrier: int, f_table: tuple, cod: int, p_table: tuple
                ) -> tuple:
    """Table of args |-> p(args[f(1)], ..., args[f(n)]) on cod inputs."""
    n = len(f_table)
    weights = [carrier ** (n - 1 - j) for j in range(n)]
    out = []
    for args in itertools.product(range(1, carrier + 1), repeat=cod):
        out.append(p_table[sum((args[f - 1] - 1) * w
                               for f, w in zip(f_table, weights))])
    return tuple(out)


# ---------------------------------------------------------- comm-monoid-fp


def multiplicity_compose_ref(p: tuple, qs: list) -> tuple:
    return tuple(scale * x for scale, q in zip(p, qs) for x in q)


def multiplicity_act_ref(f_table: tuple, cod: int, p: tuple) -> tuple:
    fibers = [0] * cod
    for image, x in zip(f_table, p):
        fibers[image - 1] += x
    return tuple(fibers)


# ------------------------------------------------------------------ theories


def parse_theory(text: str) -> dict:
    """The `.th` format: theory/flavor lines, `ops:` entries `name : k`,
    `eqs:` entries `@k: lhs = rhs`."""
    theory = {"name": None, "flavor": "plain", "ops": {}, "eqs": []}
    section = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("theory "):
            theory["name"] = line.split(None, 1)[1]
        elif line.startswith("flavor "):
            theory["flavor"] = line.split(None, 1)[1]
        elif line in ("ops:", "eqs:"):
            section = line[:-1]
        elif section == "ops":
            name, arity = (part.strip() for part in line.split(":"))
            theory["ops"][name] = int(arity)
        elif section == "eqs":
            head, body = line.split(":", 1)
            lhs, rhs = body.split("=")
            theory["eqs"].append((int(head.strip()[1:]), parse_term(lhs),
                                  parse_term(rhs)))
    return theory


# -------------------------------------------------------------------- terms

_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*|\||[(),])")
_VAR = re.compile(r"x([0-9]+)$")


def _parse(text: str, leaf_ok: bool):
    tokens = _TOKEN.findall(text)
    if "".join(tokens) != re.sub(r"\s+", "", text):
        raise ValueError(f"cannot tokenize {text!r}")
    pos = 0

    def node():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        if tok == "|" and leaf_ok:
            return "|"
        var = _VAR.match(tok)
        if var and not leaf_ok:
            return int(var.group(1))
        if pos < len(tokens) and tokens[pos] == "(":
            pos += 1
            children = [node()]
            while tokens[pos] == ",":
                pos += 1
                children.append(node())
            if tokens[pos] != ")":
                raise ValueError(f"expected ) in {text!r}")
            pos += 1
            return (tok, *children)
        return (tok,)

    out = node()
    if pos != len(tokens):
        raise ValueError(f"trailing input in {text!r}")
    return out


def parse_term(text: str):
    return _parse(text, leaf_ok=False)


def format_term(t) -> str:
    if isinstance(t, int):
        return f"x{t}"
    if len(t) == 1:
        return t[0]
    return f"{t[0]}({','.join(format_term(c) for c in t[1:])})"


def term_size(t) -> int:
    return 1 if isinstance(t, int) else 1 + sum(term_size(c) for c in t[1:])


def term_vars(t) -> list:
    if isinstance(t, int):
        return [t]
    return [v for c in t[1:] for v in term_vars(c)]


def _match(pattern, t, binding: dict) -> bool:
    if isinstance(pattern, int):
        bound = binding.setdefault(pattern, t)
        return bound == t
    if isinstance(t, int) or t[0] != pattern[0] or len(t) != len(pattern):
        return False
    return all(_match(p, c, binding) for p, c in zip(pattern[1:], t[1:]))


def _instantiate(pattern, binding: dict):
    if isinstance(pattern, int):
        return binding[pattern]
    return (pattern[0], *(_instantiate(p, binding) for p in pattern[1:]))


def _subterm(t, position: tuple):
    for i in position:
        t = t[1 + i]
    return t


def _replace(t, position: tuple, s):
    if not position:
        return s
    i = position[0]
    children = list(t[1:])
    children[i] = _replace(children[i], position[1:], s)
    return (t[0], *children)


def replay(equations: list, steps: list, start, goal) -> str | None:
    """Re-execute a rewrite trace; steps are (source, target, equation
    index, forward, position) with terms as text and the position as a
    tuple of 0-based child indices. Returns None when every step is an
    instance of its equation and the chain runs from start to goal,
    otherwise a description of the first bad step."""
    current = start
    for k, (source, target, eq_index, forward, position) in enumerate(steps):
        if parse_term(source) != current:
            return f"step {k}: source {source} is not {format_term(current)}"
        _, lhs, rhs = equations[eq_index]
        src_side, dst_side = (lhs, rhs) if forward else (rhs, lhs)
        binding: dict = {}
        if not _match(src_side, _subterm(current, position), binding):
            return f"step {k}: equation {eq_index} does not match {source}"
        current = _replace(current, position,
                           _instantiate(dst_side, binding))
        if parse_term(target) != current:
            return f"step {k}: target {target} is not {format_term(current)}"
    if current != goal:
        return f"trace ends at {format_term(current)}, not {format_term(goal)}"
    return None


def parse_position(text: str) -> tuple:
    return () if text == "root" else tuple(int(i) for i in text.split("."))


# ------------------------------------------------------------ terms and trees


def ordered_terms(ops: dict, arity: int, max_size: int) -> list:
    """All terms using x1..x_arity once each in increasing order (the
    strongly regular ones, in bijection with plain trees) with at most
    max_size nodes, in a fixed order."""

    @lru_cache(maxsize=None)
    def shapes(size: int, slots: int) -> tuple:
        # terms of exactly `size` nodes with `slots` variable slots (0)
        out = []
        if size == 1:
            if slots == 1:
                out.append(0)
            if slots == 0:
                out.extend((op,) for op, k in sorted(ops.items()) if k == 0)
            return tuple(out)
        for op, k in sorted(ops.items()):
            if k == 0 or k > size - 1:
                continue
            for sizes in _compositions(size - 1, k, 1):
                for counts in _compositions(slots, k, 0):
                    pools = [shapes(s, c) for s, c in zip(sizes, counts)]
                    out.extend((op, *kids)
                               for kids in itertools.product(*pools))
        return tuple(out)

    def label(t, counter):
        if t == 0:
            counter[0] += 1
            return counter[0]
        return (t[0], *(label(c, counter) for c in t[1:]))

    return [label(t, [0]) for size in range(1, max_size + 1)
            for t in shapes(size, arity)]


def _compositions(total: int, parts: int, least: int) -> list:
    if parts == 0:
        return [()] if total == 0 else []
    return [(first,) + rest
            for first in range(least, total - least * (parts - 1) + 1)
            for rest in _compositions(total - first, parts - 1, least)]


def count_trees(ops: dict, arity: int, max_size: int,
                permuted: bool = False) -> int:
    """Plain trees (or permuted trees) of the arity within the size bound."""

    @lru_cache(maxsize=None)
    def exact(size: int, leaves: int) -> int:
        if size == 1:
            return (1 if leaves == 1 else 0) + (
                sum(1 for k in ops.values() if k == 0) if leaves == 0 else 0)
        total = 0
        for k in ops.values():
            if k == 0 or k > size - 1:
                continue
            for sizes in _compositions(size - 1, k, 1):
                for counts in _compositions(leaves, k, 0):
                    total += math.prod(exact(s, c)
                                       for s, c in zip(sizes, counts))
        return total

    plain = sum(exact(s, arity) for s in range(1, max_size + 1))
    return plain * math.factorial(arity) if permuted else plain


def parse_tree(text: str):
    return _parse(text, leaf_ok=True)


def eval_tree_end(carrier: int, tree, assignment: dict) -> tuple:
    """Table of a plain tree in end-N: leaves read the arguments in
    order and each node applies its assigned table."""

    def arity(t) -> int:
        return 1 if t == "|" else sum(arity(c) for c in t[1:])

    def value(t, args, at):
        if t == "|":
            return args[at], at + 1
        mids = []
        for child in t[1:]:
            v, at = value(child, args, at)
            mids.append(v)
        table = assignment[t[0]]
        index = 0
        for v in mids:
            index = index * carrier + (v - 1)
        return table[index], at

    n = arity(tree)
    return tuple(value(tree, args, 0)[0] for args in
                 itertools.product(range(1, carrier + 1), repeat=n))
