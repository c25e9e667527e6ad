"""Finite functions and the two composition schemes, checked against
the tuple-shuffle oracles."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from operad_workbench.finmaps import (FinFunction, FinMapError,
                                      block_compose, block_permutation,
                                      comb_compose, compose, direct_sum,
                                      fn, format_fn, identity,
                                      inverse, parse_fn, parse_perm, perm,
                                      select)
from oracles import oracle_block_compose, oracle_comb_compose


def all_perms(n):
    return [perm(p) for p in itertools.permutations(range(1, n + 1))]


def all_fns(dom, cod):
    return [FinFunction(dom, cod, t)
            for t in itertools.product(range(1, cod + 1), repeat=dom)]


@st.composite
def fin_functions(draw, max_dom=4, max_cod=4, min_cod=0):
    cod = draw(st.integers(min_cod, max_cod))
    dom = draw(st.integers(0, max_dom)) if cod else 0
    table = tuple(draw(st.integers(1, cod)) for _ in range(dom))
    return FinFunction(dom, cod, table)


@st.composite
def permutations_(draw, max_n=5):
    n = draw(st.integers(0, max_n))
    return perm(draw(st.permutations(range(1, n + 1))))


def assert_valid(result):
    """A result built from validated tables without a scan passes the
    validating constructor and equals what it builds; an is_bijection
    that the builder recorded is the one computed from the table."""
    checked = FinFunction(result.dom, result.cod, result.table)
    assert checked == result
    assert result.is_bijection == checked.is_bijection


def test_validation():
    with pytest.raises(FinMapError):
        FinFunction(2, 1, (1, 2))
    with pytest.raises(FinMapError):
        FinFunction(2, 3, (1,))
    with pytest.raises(FinMapError):
        perm((1, 1))
    with pytest.raises(FinMapError):
        fn((2, 1), cod=1)
    with pytest.raises(FinMapError, match="^negative domain or codomain$"):
        identity(-1)
    with pytest.raises(FinMapError, match="^only bijections invert$"):
        inverse(fn((1, 1), cod=2))


def test_identity_compose_and_inverse_build_valid_tables():
    """Every identity and inverse to degree 4, and every composable pair
    of functions between sets of at most 3 elements."""
    for n in range(5):
        assert_valid(identity(n))
        for p in all_perms(n):
            assert_valid(inverse(p))
    fns = {(n, m): all_fns(n, m) for n in range(4) for m in range(4)}
    for (a, b), gs in fns.items():
        for c in range(4):
            for g in gs:
                for f in fns[b, c]:
                    assert_valid(compose(f, g))


def test_call_and_predicates():
    f = fn((2, 1, 2))
    assert (f.dom, f.cod) == (3, 2)
    assert [f(i) for i in (1, 2, 3)] == [2, 1, 2]
    with pytest.raises(FinMapError):
        f(0)
    with pytest.raises(FinMapError):
        f(4)
    assert identity(3).is_identity
    assert perm((2, 1)).is_bijection and not perm((2, 1)).is_identity
    assert not f.is_bijection
    # square but not injective, and the empty permutation
    assert not FinFunction(3, 3, (1, 1, 3)).is_bijection
    assert identity(0).is_bijection
    for n in range(4):
        for g in all_fns(n, n):
            assert g.is_bijection == (sorted(g.table) == list(range(1, n + 1)))


def test_compose_pointwise():
    g = fn((2, 1, 1), cod=2)
    f = fn((3, 1), cod=3)
    h = compose(f, g)
    assert (h.dom, h.cod) == (3, 3)
    assert all(h(i) == f(g(i)) for i in range(1, 4))
    with pytest.raises(FinMapError,
                       match="^cannot compose: inner cod 3 != outer dom 2$"):
        compose(f, f)


@given(permutations_())
def test_inverse_laws(p):
    assert compose(p, inverse(p)).is_identity
    assert compose(inverse(p), p).is_identity


@given(st.data())
def test_select_contravariance(data):
    f = data.draw(fin_functions())
    g_dom = data.draw(st.integers(0, 4)) if f.dom else 0
    g = FinFunction(g_dom, f.dom, tuple(
        data.draw(st.integers(1, f.dom)) for _ in range(g_dom)))
    items = tuple(range(100, 100 + f.cod))
    assert select(compose(f, g), items) == select(g, select(f, items))


def test_parse_format_roundtrips():
    for text in ("[2,1,3]", "[1]", "[]"):
        assert format_fn(parse_perm(text)) == text
    f = parse_fn("[2,1,2 -> 3]")
    assert (f.dom, f.cod, f.table) == (3, 3, (2, 1, 2))
    assert parse_fn(format_fn(f)) == f
    assert parse_fn("[1,2]") == identity(2)
    with pytest.raises(FinMapError):
        parse_perm("[2,2]")
    for bad in ("nope", "[2 1]", "[1,,2]", "[1,2,]"):
        with pytest.raises(FinMapError):
            parse_fn(bad)


def test_direct_sum():
    s = direct_sum([fn((2, 1)), fn((1, 1), cod=2)])
    assert (s.dom, s.cod, s.table) == (4, 4, (2, 1, 3, 3))
    assert direct_sum([]) == identity(0)


def test_block_compose_matches_oracle_exhaustively():
    degrees = range(0, 4)
    for n in range(0, 4):
        for sigma in all_perms(n):
            for ks in itertools.product(degrees, repeat=n):
                for taus in itertools.product(*(all_perms(k) for k in ks)):
                    got = block_compose(sigma, list(taus))
                    want = oracle_block_compose(
                        sigma.table, [t.table for t in taus])
                    assert got.table == want, (sigma, taus)
                    assert_valid(got)


def test_block_permutation_is_block_compose_of_identities():
    # sizes are indexed by slot, so block j carries size sizes[sigma(j)-1]
    for n in range(0, 4):
        for sigma in all_perms(n):
            for sizes in itertools.product(range(0, 3), repeat=n):
                inner = select(sigma, [identity(s) for s in sizes])
                want = block_compose(sigma, list(inner))
                assert block_permutation(sigma, sizes) == want


def test_comb_compose_matches_oracle_exhaustively():
    small = [(dom, cod) for dom in range(0, 3) for cod in range(0, 3)]
    inners = [g for dom, cod in small for g in all_fns(dom, cod)]
    for m in range(0, 3):
        for n in range(0, 3):
            for f in all_fns(n, m):
                for gs in itertools.product(inners, repeat=m):
                    got = comb_compose(f, list(gs))
                    want_table, want_cod = oracle_comb_compose(
                        f.table, f.cod, [(g.table, g.cod) for g in gs])
                    assert (got.table, got.cod) == (want_table, want_cod)
                    assert_valid(got)


@given(st.data())
@settings(max_examples=200)
def test_comb_compose_matches_oracle_random(data):
    m = data.draw(st.integers(0, 4))
    n = data.draw(st.integers(0, 4)) if m else 0
    f = FinFunction(n, m, tuple(
        data.draw(st.integers(1, m)) for _ in range(n)))
    gs = [data.draw(fin_functions()) for _ in range(m)]
    got = comb_compose(f, gs)
    want_table, want_cod = oracle_comb_compose(
        f.table, f.cod, [(g.table, g.cod) for g in gs])
    assert (got.table, got.cod) == (want_table, want_cod)


def test_comb_compose_restricts_to_block_compose():
    # on bijections, combing specializes to block composition once the
    # inner permutations are routed to their blocks
    for n in range(0, 4):
        for sigma in all_perms(n):
            for ks in itertools.product(range(0, 3), repeat=n):
                for taus in itertools.product(*(all_perms(k) for k in ks)):
                    lhs = comb_compose(sigma, list(taus))
                    rhs = block_compose(sigma, list(select(sigma, taus)))
                    assert lhs == rhs


def test_comb_compose_arity_errors():
    with pytest.raises(FinMapError):
        comb_compose(fn((1,), cod=2), [identity(1)])
    with pytest.raises(FinMapError):
        block_compose(fn((1, 1), cod=2), [identity(1), identity(1)])
    with pytest.raises(FinMapError):
        block_compose(identity(2), [fn((1, 1), cod=2), identity(1)])
    with pytest.raises(FinMapError):
        block_compose(identity(2), [identity(1)])
