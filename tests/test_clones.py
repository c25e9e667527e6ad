"""The clone carried by a finite-product operad and back: projections,
shared-context substitution, and both roundtrip directions."""

import itertools
import random

import pytest
from conftest import end_pools, vector_pools, vectors

from operad_workbench.clones import (Clone, CloneError, CloneFromFP,
                                     EndClone, FPFromClone,
                                     clone_axiom_check,
                                     clone_roundtrip_check, roundtrip_check)
from operad_workbench.operads import (CommMonoidFPOperad, EndOperad,
                                      FiniteOp, IntPolyFPOperad, OperadError,
                                      op_from_callable, operad_axiom_check)
from oracles import end_ccompose_walk, end_proj_walk

COMM = CommMonoidFPOperad()


def test_projections_are_unit_vectors():
    clone = CloneFromFP(COMM)
    assert clone.proj(1, 3) == (1, 0, 0)
    assert clone.proj(3, 3) == (0, 0, 1)
    with pytest.raises(CloneError):
        clone.proj(4, 3)
    with pytest.raises(CloneError):
        clone.proj(0, 1)


def test_ccompose_is_matrix_substitution():
    # substituting m-ary vectors q_i into p in a shared context sums
    # multiplicity contributions: result[j] = sum_i p[i] * q_i[j]
    clone = CloneFromFP(COMM)
    for n in range(0, 3):
        for m in range(0, 3):
            for p in vectors(n, 2):
                for qs in itertools.product(vectors(m, 2), repeat=n):
                    got = clone.ccompose(p, list(qs), context=m)
                    want = tuple(
                        sum(p[i] * qs[i][j] for i in range(n))
                        for j in range(m))
                    assert got == want


def test_nullary_substitution_needs_context():
    clone = CloneFromFP(COMM)
    assert clone.ccompose((), [], context=2) == (0, 0)
    with pytest.raises(CloneError):
        clone.ccompose((), [])
    with pytest.raises(CloneError):
        clone.ccompose((1, 1), [(1,), (1, 0)])
    with pytest.raises(CloneError):
        clone.ccompose((1, 1), [(1, 0), (0, 1)], context=3)


def test_clone_from_fp_rejects_plain_targets():
    from operad_workbench.operads import TerminalPlainOperad
    with pytest.raises(CloneError):
        CloneFromFP(TerminalPlainOperad())


def test_end_clone_substitutes_pointwise():
    clone = EndClone(2)
    land = op_from_callable(2, 2, lambda a, b: min(a, b))
    swap = op_from_callable(2, 2, lambda a, b: b)
    first = op_from_callable(2, 2, lambda a, b: a)
    got = clone.ccompose(land, [swap, first])
    want = op_from_callable(2, 2, lambda a, b: min(b, a))
    assert got == want
    assert clone.proj(2, 2) == swap


def test_end_clone_ccompose_matches_pointwise_substitution():
    # the stride-indexed table against evaluation argument by argument,
    # including a nullary outer op with no inner ops at each context m
    rng = random.Random(9)

    def random_op(carrier, arity):
        return FiniteOp(carrier, arity, tuple(
            rng.randint(1, carrier) for _ in range(carrier ** arity)))

    for carrier in (1, 2, 3):
        clone = EndClone(carrier)
        for n, m in ((0, 0), (0, 1), (0, 3), (1, 0), (2, 0), (1, 2),
                     (3, 2), (2, 3)):
            p = random_op(carrier, n)
            qs = [random_op(carrier, m) for _ in range(n)]
            got = clone.ccompose(p, qs, context=m)
            want = op_from_callable(
                carrier, m, lambda *args: p([q(args) for q in qs]))
            assert got == want, (carrier, n, m)
    with pytest.raises(CloneError, match="^carrier mismatch$"):
        EndClone(2).ccompose(FiniteOp(2, 1, (1, 2)), [FiniteOp(3, 1, (1, 2, 3))])
    with pytest.raises(CloneError, match="^declared context 3 does not "
                       "match arity 1$"):
        EndClone(2).ccompose(FiniteOp(2, 1, (1, 2)), [FiniteOp(2, 1, (2, 1))],
                             context=3)


def assert_ccompose_matches_walk(clone, p, qs, context):
    got = clone.ccompose(p, qs, context=context)
    assert got.arity == context
    assert got.table == end_ccompose_walk(clone.carrier, p.table,
                                          [q.table for q in qs], context)
    # built without a scan, it passes the validating constructor
    assert FiniteOp(got.carrier, got.arity, got.table) == got


@pytest.mark.parametrize("carrier", [1, 2, 3])
def test_end_clone_kernels_match_the_walks_on_every_small_element(carrier):
    """Every element of arity 0-2 substitutes a cycle of same-arity
    elements, over contexts 0-2 in turn, and every element is
    substituted once into a unary and a binary outer element."""
    clone = EndClone(carrier)
    elements = {n: clone.enumerate_elements(n, carrier ** carrier ** n)
                for n in range(3)}
    inner = {m: itertools.cycle(elements[m]) for m in range(3)}
    for n in range(3):
        for k, p in enumerate(elements[n]):
            m = k % 3
            assert_ccompose_matches_walk(
                clone, p, [next(inner[m]) for _ in range(n)], m)
    for m in range(3):
        for k, q in enumerate(elements[m]):
            for outer in (elements[1], elements[2]):
                p = outer[k % len(outer)]
                assert_ccompose_matches_walk(clone, p, [q] * p.arity, m)


def test_end_clone_kernels_match_the_walks_at_arity_3():
    rng = random.Random(29)
    for carrier in (1, 2, 3):
        clone = EndClone(carrier)
        for n in range(4):
            for m in range(4):
                for _ in range(3):
                    p, *qs = [FiniteOp(carrier, a, tuple(
                        rng.randint(1, carrier) for _ in range(carrier ** a)))
                        for a in (n,) + (m,) * n]
                    assert_ccompose_matches_walk(clone, p, qs, m)


def test_end_clone_projections_match_the_walk():
    for carrier in (1, 2, 3):
        clone = EndClone(carrier)
        for n in range(1, 6):
            for i in range(1, n + 1):
                got = clone.proj(i, n)
                assert got.arity == n
                assert got.table == end_proj_walk(carrier, i, n)
                assert FiniteOp(carrier, n, got.table) == got
    with pytest.raises(OperadError, match="^an operation of arity 21 on 2 "
                       "elements needs 2\\^21 table entries"):
        EndClone(2).proj(1, 21)
    with pytest.raises(OperadError, match="^an operation of arity 21 on 2 "
                       "elements needs 2\\^21 table entries"):
        EndClone(2).ccompose(FiniteOp(2, 0, (1,)), [], context=21)


def test_clone_axiom_suites():
    report = clone_axiom_check(CloneFromFP(COMM), vector_pools())
    assert report.ok, report.lines()
    assert report.checked == {"projection-selects": 778,
                              "identity-substitution": 39,
                              "substitution-associative": 226}
    end_pools = {n: EndClone(2).enumerate_elements(n, 8) for n in range(4)}
    report = clone_axiom_check(EndClone(2), end_pools)
    assert report.ok, report.lines()
    assert report.checked == {"projection-selects": 884,
                              "identity-substitution": 20,
                              "substitution-associative": 256}


def test_roundtrip_comm_monoid():
    report = roundtrip_check(COMM, vector_pools())
    assert report.ok, report.lines()
    assert report.checked == {"action": 1120, "compose": 10417,
                              "identity": 1}


def test_roundtrip_end_operad():
    report = roundtrip_check(EndOperad(3), end_pools(3))
    assert report.ok, report.lines()


def test_clone_roundtrip_end_clone():
    report = clone_roundtrip_check(EndClone(3), end_pools(3))
    assert report.ok, report.lines()
    assert report.checked == {"projection": 6, "substitution": 90}


def test_fp_from_clone_is_an_operad():
    operad = FPFromClone(EndClone(2))
    report = operad_axiom_check(operad)
    assert report.ok, report.lines()


def test_roundtrip_detects_broken_clone():
    class Skewed(Clone):
        """EndClone with a corrupted binary projection."""

        def __init__(self):
            self.inner = EndClone(2)
            self.name = "skewed"

        def proj(self, i, n):
            if (i, n) == (1, 2):
                return self.inner.proj(2, 2)
            return self.inner.proj(i, n)

        def ccompose(self, p, qs, context=None):
            return self.inner.ccompose(p, qs, context)

        def arity_of(self, p):
            return self.inner.arity_of(p)

        def enumerate_elements(self, arity, bound):
            return self.inner.enumerate_elements(arity, bound)

    pools = {n: EndClone(2).enumerate_elements(n, 4) for n in range(3)}
    report = clone_roundtrip_check(Skewed(), pools)
    assert not report.ok
    assert report.lines()[:3] == ["ok projection: 6 instances",
                                  "ok substitution: 160 instances",
                                  "FAIL substitution: arities 1 over 2"]
    assert len(report.failures) == 32


def test_roundtrip_detects_broken_operad():
    class Skewed(CommMonoidFPOperad):
        """Composition forgets to scale by a multiplicity of 2."""

        def compose(self, p, qs):
            self._check_compose(p, qs)
            return tuple(x * (1 if scale == 2 else scale)
                         for scale, q in zip(p, qs) for x in q)

    report = roundtrip_check(Skewed(), vector_pools(), max_arity=2)
    assert report.checked == {"action": 148, "compose": 346, "identity": 1}
    assert len(report.failures) == 192
    assert report.failures[:3] == ["compose: [1] with [2]",
                                   "compose: [1] with [0,2]",
                                   "compose: [1] with [1,2]"]
    assert report.failures[-2:] == ["action: [2,1] by [3,3]",
                                    "action: [2,2] by [3,3]"]
