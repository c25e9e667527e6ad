"""Strictification: object enumeration, the strict action, the
comparison back to the input, and the induced-map universal property."""

import importlib
import itertools
import json

import pytest
from conftest import (EXAMPLES, collapse_functor, doubling_functor,
                      identity_weak_functor, skewed_group_instance,
                      terminal_weakcat, zmod)
from oracles import reference_close_pins, reference_seed_pins

from operad_workbench.cli import main
from operad_workbench.operads import CheckReport, TerminalPlainOperad
from operad_workbench.terms import (Equation, Presentation, Signature,
                                    parse_term)
from operad_workbench.trees import tree_arity
from operad_workbench.weakcat import (FiniteCategory, Functor,
                                      WeakPCategoryData, WeakPFunctorData,
                                      check_weak_functor, coherence_check,
                                      indiscrete_monoid_instance, key_of,
                                      load_weakcat)
from operad_workbench.strictify import (StrictifyError, StrictPCategory,
                                        _element_tuples, _embedding_cell,
                                        _induced_map, _op_term, _uniqueness,
                                        check_equivalence, check_strictness,
                                        strictify, universal_property_check)


@pytest.fixture(scope="module")
def z3_strict(z3_instance):
    return strictify(z3_instance)


def test_object_enumeration_counts(z3_strict, z4_instance):
    # one element per arity over an n-object base: sum of n^k for k <= 3
    assert len(z3_strict.objects) == 1 + 3 + 9 + 27
    S4 = strictify(z4_instance)
    assert len(S4.objects) == 1 + 4 + 16 + 64


def test_representatives_are_smallest_trees(z3_strict):
    S = z3_strict
    assert S.operad.format_element(S.operad.identity()) == "1"
    assert tree_arity(S.repr_tree(S.operad.identity())) == 1
    assert S.repr_tree(2).op == "m"
    with pytest.raises(StrictifyError):
        S.repr_tree(4)


def test_identity_pairs_land_on_base_objects(z3_strict, z3_instance):
    unit = z3_strict.operad.identity()
    for a in z3_instance.base.objects:
        assert z3_strict.obj(unit, (a,)).h_value == a


def test_object_lookup_bounds(z3_strict):
    with pytest.raises(StrictifyError):
        z3_strict.obj(4, ("0", "0", "0", "0"))
    with pytest.raises(StrictifyError):
        z3_strict.act_obj(2, [z3_strict.obj(0, ())])


def test_strict_action_on_objects(z3_strict):
    S = z3_strict
    x = S.obj(1, ("1",))
    y = S.obj(2, ("2", "2"))
    z = S.act_obj(2, [x, y])
    assert z.element == 3
    assert z.operands == ("1", "2", "2")
    assert z.h_value == "2"


def test_arrow_calculus(z3_strict):
    S = z3_strict
    x = S.obj(0, ())
    y = S.obj(1, ("1",))
    f = S.hom(x, y)[0]
    assert S.compose(S.identity(y), f) == f
    assert S.compose(S.inverse(f), f) == S.identity(x)
    with pytest.raises(StrictifyError):
        S.compose(f, f)
    g = S.act_arr(2, (f, S.identity(y)))
    assert g.src == S.act_obj(2, (x, y))
    assert g.dst == S.act_obj(2, (y, y))


def test_sample_arrows_cross_objects(z3_strict):
    arrows = z3_strict.sample_arrows(6)
    assert any(f.src != f.dst for f in arrows)
    assert any(f.src == f.dst for f in arrows)


def test_strictness_and_equivalence_on_z3(z3_strict, z3_instance):
    strict = check_strictness(z3_strict)
    assert strict.ok, strict.lines()
    equiv = check_equivalence(z3_strict, z3_instance)
    assert equiv.ok, equiv.lines()
    with pytest.raises(StrictifyError):
        check_equivalence(z3_strict, skewed_group_instance(
            z3_instance.presentation))


def test_strictness_on_z4(z4_instance):
    S = strictify(z4_instance)
    report = check_strictness(S, arrow_cap=4, instance_cap=1000)
    assert report.ok, report.lines()


def _outcome(S, method, *args):
    try:
        return getattr(S, method)(*args)
    except StrictifyError as exc:
        return ("refused", str(exc))


@pytest.mark.parametrize("instance", ["z3", "z4", "skewed"])
def test_memoized_action_matches_cold_computation(instance, z3_instance,
                                                  z4_instance, monoid):
    """Every act_obj, act_arr and delta_in answered by a category whose
    memo tables check_strictness has filled equals the answer of a fresh
    category, refusals included. The skewed instance has several arrows
    per hom set, so an arrow is not determined by its endpoints."""
    W = {"z3": z3_instance, "z4": z4_instance}.get(instance) \
        or skewed_group_instance(monoid)
    warm = strictify(W)
    check_strictness(warm)
    arrows = warm.sample_arrows(24)
    unit = warm.operad.identity()
    queries = [("act_arr", unit, (f,)) for f in arrows]
    queries += [(method, unit, (f.src,)) for f in arrows
                for method in ("act_obj", "delta_in")]
    for k in range(warm.arity_bound + 1):
        for q in warm.elements[k]:
            for taus in _element_tuples(warm, k, warm.arity_bound):
                arities = [warm.operad.arity_of(t) for t in taus]
                composite = warm.operad.compose(q, list(taus))
                for shift in range(2):
                    fs = tuple(arrows[(shift + j) % 6]
                               for j in range(sum(arities)))
                    chunks = []
                    at = 0
                    for m in arities:
                        chunks.append(fs[at:at + m])
                        at += m
                    stages = [_outcome(warm, "act_arr", t, chunk)
                              for t, chunk in zip(taus, chunks)]
                    queries.append(("act_arr", composite, fs))
                    for method in ("act_obj", "delta_in"):
                        queries.append((method, composite,
                                        tuple(f.src for f in fs)))
                    queries += [("act_arr", t, chunk)
                                for t, chunk in zip(taus, chunks)]
                    if all(not isinstance(x, tuple) for x in stages):
                        queries.append(("act_arr", q, tuple(stages)))
                        queries.append(("delta_in", q,
                                        tuple(x.dst for x in stages)))
    assert len(queries) > 200
    for method, q, args in queries:
        cold = StrictPCategory(W)
        assert _outcome(warm, method, q, args) \
            == _outcome(cold, method, q, args), (method, q, args)


STRICTNESS_COUNTS = {"unit law": 72, "associativity": 930,
                     "associativity instances out of bounds": 2710}

EQUIVALENCE_COUNTS = {
    3: {"hom bijection": 1600, "essential surjectivity": 3,
        "comparison cell endpoints": 89, "comparison cell naturality": 16,
        "comparison pasting": 110},
    4: {"hom bijection": 7225, "essential surjectivity": 4,
        "comparison cell endpoints": 186, "comparison cell naturality": 10,
        "comparison pasting": 99}}


def test_strictness_counts_are_pinned(z3_instance, z4_instance):
    """check_strictness and check_equivalence on Z/3, Z/4 and the bundled
    instance, under their fixed probe bounds."""
    bundled = load_weakcat((EXAMPLES / "indiscrete_monoid_weakcat.json")
                           .read_text(encoding="utf-8"))
    for W in (z3_instance, z4_instance, bundled):
        S = strictify(W)
        report = check_strictness(S)
        assert report.checked == STRICTNESS_COUNTS
        assert report.ok, report.lines()
        report = check_equivalence(S, W)
        assert report.checked == EQUIVALENCE_COUNTS[len(W.base.objects)]
        assert report.ok, report.lines()


def test_symmetric_strict_view_is_pinned(capsys, tmp_path):
    """The bundled instance over comm_monoid.th, under terminal-symmetric,
    with the commutativity cells added (Z/3 commutes, so each is an
    identity): the symmetric view enumerates, acts strictly and is
    coherent, and strictify refuses only the plain-only comparison."""
    data = json.loads((EXAMPLES / "indiscrete_monoid_weakcat.json")
                      .read_text(encoding="utf-8"))
    data["theory"] = (EXAMPLES / "comm_monoid.th").read_text(encoding="utf-8")
    data["target"] = "terminal-symmetric"
    data["deltas"]["m(|,|)=[2,1] m(|,|)@2"] = {
        f"{a},{b}": f"{(a + b) % 3}>{(a + b) % 3}"
        for a in range(3) for b in range(3)}
    text = json.dumps(data)
    W = load_weakcat(text)
    S = strictify(W)
    assert len(S.objects) == 40
    report = check_strictness(S)
    assert report.checked == STRICTNESS_COUNTS
    assert report.ok, report.lines()
    report = coherence_check(W)
    assert report.checked == {"edge coherence": 592}
    assert report.ok, report.lines()
    path = tmp_path / "symmetric.json"
    path.write_text(text, encoding="utf-8")
    assert main(["strictify", str(path)]) == 3
    assert capsys.readouterr().err == (
        "error: the comparison check is implemented for plain presentations "
        "only; operand order under permuted representatives is not "
        "handled\n")


def test_skewed_instance_failure_lines(monoid):
    S = strictify(skewed_group_instance(monoid))
    report = check_strictness(S, arrow_cap=3, instance_cap=400)
    assert report.checked == {
        "unit law": 20, "associativity": 373,
        "associativity instances out of bounds": 27}
    assert report.failures == [
        "acting by the composite of 2 differs from acting in stages "
        "at ['1', '1', '1']"]
    report = check_strictness(S)
    assert report.checked == {
        "unit law": 20, "associativity": 982,
        "associativity instances out of bounds": 2658}
    assert report.failures == [
        f"acting by the composite of 2 differs from acting in stages "
        f"at {list(fs)}"
        for fs in itertools.product("10", repeat=3) if fs != ("0",) * 3]


def test_strictify_requires_interpretation(pointed):
    base = FiniteCategory.terminal()
    gens = {"c": Functor(base, base, 0, {"": "o"}, {"": "o>o"}, name="c")}
    W = WeakPCategoryData(base, pointed, gens, {})
    with pytest.raises(StrictifyError):
        strictify(W)


def test_incoherent_input_fails_strictness(monoid):
    W = skewed_group_instance(monoid)
    assert not coherence_check(W).ok
    S = strictify(W)
    report = check_strictness(S, arrow_cap=3, instance_cap=400)
    assert not report.ok


def test_coherence_implies_strictness(z3_instance, monoid):
    for W in (z3_instance, skewed_group_instance(monoid)):
        if coherence_check(W).ok:
            assert check_strictness(strictify(W), arrow_cap=3,
                                    instance_cap=400).ok


def test_universal_property_identity(z3_instance):
    G = identity_weak_functor(z3_instance)
    assert check_weak_functor(G).ok
    report = universal_property_check(z3_instance, z3_instance, G)
    assert report.ok, report.lines()
    assert any("uniqueness pins" in line for line in report.lines())


def test_universal_property_collapse(z3_instance, monoid):
    B = terminal_weakcat(monoid)
    assert B.is_strict()
    G = collapse_functor(z3_instance, B)
    weak = check_weak_functor(G)
    assert weak.ok
    assert weak.checked == {"psi endpoints": 10, "psi naturality": 82,
                            "unit law": 3, "pasting square": 33}
    report = universal_property_check(z3_instance, B, G)
    assert report.ok, report.lines()


def test_universal_property_doubling(z3_instance):
    G = doubling_functor(z3_instance)
    assert check_weak_functor(G).ok
    report = universal_property_check(z3_instance, z3_instance, G)
    assert report.ok, report.lines()


def test_universal_property_rejects_weak_target(z3_instance, monoid):
    W = skewed_group_instance(monoid)
    G = identity_weak_functor(W)
    with pytest.raises(StrictifyError):
        universal_property_check(W, W, G)


def not_weak_map(W, monoid):
    """A base functor from the Z/3 indiscrete instance onto the strict
    one-object group Z/3, sending every arrow to the unit, with a psi
    family that fails the pasting squares of the unit laws."""
    elements, unit, mult = zmod(3)
    base = FiniteCategory.from_monoid(elements, unit, mult)
    generators = {
        "m": Functor(base, base, 2, {key_of(("o", "o")): "o"},
                     {key_of((f, g)): mult(f, g)
                      for f in elements for g in elements}, name="m"),
        "e": Functor(base, base, 0, {"": "o"}, {"": unit}, name="e")}
    B = WeakPCategoryData(base, monoid, generators,
                          {index: {("o",) * eq.arity: unit}
                           for index, eq in enumerate(monoid.equations)})
    functor = Functor(W.base, base, 1, {a: "o" for a in W.base.objects},
                      {f: unit for f in W.base.arrows})
    psi = {"m": {(a, b): "1" for a in elements for b in elements},
           "e": {(): unit}}
    return B, WeakPFunctorData(W, B, functor, psi)


def test_universal_property_refuses_a_map_that_is_not_weak(z3_instance,
                                                          monoid):
    B, G = not_weak_map(z3_instance, monoid)
    assert B.is_strict()
    weak = check_weak_functor(G)
    assert len(weak.failures) == 6
    assert weak.failures[0] \
        == "pasting square fails for 'm(e,|)=|@1' at ('0',)"
    with pytest.raises(StrictifyError) as info:
        universal_property_check(z3_instance, B, G)
    assert str(info.value) == (
        "the map into the strict target is not a weak map: "
        "pasting square fails for 'm(e,|)=|@1' at ('0',)")


UNIVERSAL_COUNTS = {
    "strict action on objects": 143,
    "strict action on arrows": 17, "restriction on objects": 3,
    "restriction on arrows": 9, "restriction coherence": 10,
    "uniqueness pins": 1600, "uniqueness agreement": 1600}


def _maps(W, monoid):
    B = terminal_weakcat(monoid)
    return {"identity": identity_weak_functor(W),
            "collapse": collapse_functor(W, B),
            "doubling": doubling_functor(W),
            "not weak": not_weak_map(W, monoid)[1]}


@pytest.mark.parametrize("label", ["identity", "collapse", "doubling"])
def test_universal_property_counts_are_pinned(label, z3_instance, monoid):
    G = _maps(z3_instance, monoid)[label]
    report = universal_property_check(z3_instance, G.target, G)
    assert report.checked == UNIVERSAL_COUNTS
    assert report.failures == []


def test_strictify_returns_one_view_per_bounds(monoid):
    W = indiscrete_monoid_instance(monoid, *zmod(3))
    S = strictify(W)
    assert strictify(W) is S
    assert strictify(W, 3, 20) is S
    other = strictify(W, arity_bound=2)
    assert other is not S and strictify(W, arity_bound=2) is other
    assert len(other.objects) == 1 + 3 + 9
    assert StrictPCategory(W) is not S


def test_checks_on_one_input_build_its_category_once(monoid, monkeypatch):
    """The strictness, comparison and three universal-property checks
    on one input share its strict view: the view is built once, and
    every count stays pinned."""
    W = indiscrete_monoid_instance(monoid, *zmod(3))
    built = []
    init = StrictPCategory.__init__
    monkeypatch.setattr(StrictPCategory, "__init__", lambda self, *args: (
        built.append(args) or init(self, *args)))
    S = strictify(W)
    assert check_strictness(S).checked == STRICTNESS_COUNTS
    assert check_equivalence(S, W).checked == EQUIVALENCE_COUNTS[3]
    maps = _maps(W, monoid)
    for label in ("identity", "collapse", "doubling"):
        G = maps[label]
        report = universal_property_check(W, G.target, G)
        assert (report.checked, report.failures) == (UNIVERSAL_COUNTS, [])
    assert len(built) == 1
    assert strictify(W) is S


def test_uniqueness_reads_no_composite_table(z3_instance, monoid,
                                            monkeypatch):
    """Uniqueness composes in the base categories only: it neither
    composes nor inverts an arrow of the strict category."""
    S = StrictPCategory(z3_instance)
    G = _maps(z3_instance, monoid)["doubling"]
    H = _induced_map(S, G.target, G, CheckReport())
    calls = []
    for name in ("compose", "inverse"):
        method = getattr(StrictPCategory, name)
        monkeypatch.setattr(StrictPCategory, name,
                            lambda *args, name=name, method=method: (
                                calls.append(name) or method(*args)))
    report = CheckReport()
    pinned = _uniqueness(S, z3_instance, G.target, G, H, report)
    assert len(pinned) == 1600 and report.ok
    assert calls == []


def _reference_pins(S, W, B, G, H):
    """The oracle's seed pins, closed under inverses and composition,
    with the conflicts and the strict-side unit embeddings."""
    pinned, conflicts, embeddings = reference_seed_pins(
        S, W, B, G, H, _embedding_cell, _op_term)
    reference_close_pins(S, W, B, pinned, conflicts)
    return pinned, conflicts, embeddings


def unary_unit_map(monoid):
    """The monoid theory with a unary u and u(x1) = x1, on the group Z/3
    as one object with u the identity functor and u's cell "1", over
    terminal-plain with u at the identity element, mapped identically
    onto its strict copy (u's cell "0") with psi_u "1". The identity
    element's representative is |, so u's embedding cell is "1", not an
    identity."""
    mult = lambda g, f: str((int(g) + int(f)) % 3)
    base = FiniteCategory.from_monoid(("0", "1", "2"), "0", mult)
    unit_law = Equation(1, parse_term("u(x1)"), parse_term("x1"))
    theory = Presentation(
        "UnaryUnit", "plain", Signature((("m", 2), ("e", 0), ("u", 1))),
        monoid.equations + (unit_law,))
    generators = {
        "m": Functor(base, base, 2, {key_of(("o", "o")): "o"},
                     {key_of((f, g)): mult(f, g)
                      for f in "012" for g in "012"}, name="m"),
        "e": Functor(base, base, 0, {"": "o"}, {"": "0"}, name="e"),
        "u": Functor(base, base, 1, {key_of(("o",)): "o"},
                     {key_of((f,)): f for f in "012"}, name="u")}

    def instance(u_cell, **interpretation):
        return WeakPCategoryData(base, theory, generators, {
            0: {("o",) * 3: "0"}, 1: {("o",): "0"}, 2: {("o",): "0"},
            3: {("o",): u_cell}}, **interpretation)

    W = instance("1", target=TerminalPlainOperad(),
                 assignment={"m": 2, "e": 0, "u": 1})
    psi = {"m": {("o", "o"): "0"}, "e": {(): "0"}, "u": {("o",): "1"}}
    return WeakPFunctorData(W, instance("0"), Functor.identity_functor(base),
                            psi)


def _uniqueness_inputs(z3_instance, z4_instance, monoid):
    """Label to (source, map, arrow count of the strict view): the four
    Z/3 maps, the identity and the collapse of Z/4, and the skewed group
    instance, whose base has non-identity endomorphisms, collapsed onto
    the terminal instance and sent identically onto the strict group
    Z/3 with psi "1". That last map is not weak, but it is the one input
    whose arrow images land in target homs of more than one arrow, so
    only it sees a forced value that drops G's image of an arrow."""
    B = terminal_weakcat(monoid)
    skewed = skewed_group_instance(monoid)
    inputs = {label: (z3_instance, G, 1600)
              for label, G in _maps(z3_instance, monoid).items()}
    inputs["z4 identity"] = (z4_instance, identity_weak_functor(z4_instance),
                             7225)
    inputs["z4 collapse"] = (z4_instance, collapse_functor(z4_instance, B),
                             7225)
    inputs["skewed collapse"] = (skewed, collapse_functor(skewed, B), 48)
    group = not_weak_map(z3_instance, monoid)[0]
    functor = Functor(skewed.base, group.base, 1, {"o": "o"},
                      {f: f for f in skewed.base.arrows})
    inputs["skewed onto Z/3"] = (skewed, WeakPFunctorData(
        skewed, group, functor, {"m": {("o", "o"): "1"}, "e": {(): "0"}}),
        48)
    G = unary_unit_map(monoid)
    inputs["unary unit"] = (G.source, G, 48)
    return inputs


@pytest.mark.parametrize("label", [
    "identity", "collapse", "doubling", "not weak", "z4 identity",
    "z4 collapse", "skewed collapse", "skewed onto Z/3", "unary unit"])
def test_uniqueness_closure_matches_reference(label, z3_instance,
                                              z4_instance, monoid):
    """The pins forced through the target-side embedding images equal,
    as dicts, the seed pins closed by the oracle, with no conflicts, and
    agree with H on every arrow; every strict-side unit embedding of the
    oracle has the identity base arrow."""
    W, G, arrows = _uniqueness_inputs(z3_instance, z4_instance,
                                      monoid)[label]
    S = StrictPCategory(W)
    H = _induced_map(S, G.target, G, CheckReport())
    assert H is not None
    report = CheckReport()
    pinned = _uniqueness(S, W, G.target, G, H, report)
    want_pinned, conflicts, embeddings = _reference_pins(S, W, G.target, G,
                                                         H)
    assert pinned == want_pinned
    assert conflicts == []
    assert len(embeddings) == len(S.objects)
    assert all(W.base.is_identity(iota.base) for iota in embeddings.values())
    assert report.checked == {"uniqueness pins": arrows,
                              "uniqueness agreement": arrows}
    assert report.ok, report.lines()


def test_unary_unit_embedding_cell_is_not_an_identity(monoid):
    """u's element is the identity, represented by |, so u's embedding
    cell is its equation's cell "1", and the universal property holds
    with every arrow pinned."""
    G = unary_unit_map(monoid)
    W = G.source
    S = strictify(W)
    assert W.interpretation.assignment["u"] == S.operad.identity()
    assert S.repr_term(S.operad.identity()) == parse_term("x1")
    cell = _embedding_cell(S, "u", ("o",))
    assert cell.src == cell.dst and cell.base == "1"
    assert not W.base.is_identity(cell.base)
    report = universal_property_check(W, G.target, G)
    assert report.ok, report.lines()
    assert report.checked["uniqueness pins"] == 48


def test_uniqueness_makes_no_strict_action(z3_instance, monoid,
                                           monkeypatch):
    """The embedding images are forced on the target side alone: the
    uniqueness step acts on no strict arrow and builds no embedding
    cell."""
    S = StrictPCategory(z3_instance)
    G = _maps(z3_instance, monoid)["identity"]
    H = _induced_map(S, G.target, G, CheckReport())
    calls = []
    act_arr = StrictPCategory.act_arr
    monkeypatch.setattr(StrictPCategory, "act_arr", lambda *args: (
        calls.append("act_arr") or act_arr(*args)))
    # the package's strictify is the function, so look the module up
    monkeypatch.setattr(
        importlib.import_module("operad_workbench.strictify"),
        "_embedding_cell", lambda *args: (
            calls.append("_embedding_cell") or _embedding_cell(*args)))
    report = CheckReport()
    assert len(_uniqueness(S, z3_instance, G.target, G, H, report)) == 1600
    assert report.ok and calls == []


def test_uniqueness_names_a_disagreeing_induced_map(z3_instance, monoid):
    """An H with one arrow image changed fails on exactly that arrow."""
    W = z3_instance
    G = _maps(W, monoid)["identity"]
    S = strictify(W)
    h_obj, h_arr = _induced_map(S, W, G, CheckReport())
    changed = next(a for a, image in h_arr.items()
                   if not W.base.is_identity(image))
    broken = (h_obj, {**h_arr, changed: W.base.identity(h_obj[changed[0]])})
    report = CheckReport()
    _uniqueness(S, W, W, G, broken, report)
    assert report.checked == {"uniqueness pins": 1600,
                              "uniqueness agreement": 1599}
    assert report.failures == [
        f"forced value disagrees with the induced map at {changed!r}"]


@pytest.mark.parametrize("label, pairs", [
    ("identity", 64000), ("collapse", 64000), ("doubling", 64000),
    ("z4 identity", 614125), ("skewed collapse", 576),
    ("skewed onto Z/3", 576)])
def test_induced_map_is_a_functor(label, pairs, z3_instance, z4_instance,
                                  monoid):
    """H runs each arrow between the images of its endpoints and
    preserves identities and every composable pair of the strict
    category: the construction argument of _induced_map, checked here
    once rather than on every call."""
    W, G, arrows = _uniqueness_inputs(z3_instance, z4_instance,
                                      monoid)[label]
    S = strictify(W)
    h_obj, h_arr = _induced_map(S, G.target, G, CheckReport())
    B = G.target.base
    homs = {(x.key(), y.key()): S.hom(x, y)
            for x in S.objects for y in S.objects}
    assert len(h_arr) == sum(map(len, homs.values())) == arrows
    for x in S.objects:
        assert h_arr[S.identity(x).key()] == B.identity(h_obj[x.key()])
    walked = 0
    for (x_key, y_key), fs in homs.items():
        for f in fs:
            image = B.arrows[h_arr[f.key()]]
            assert (image.src, image.dst) == (h_obj[x_key], h_obj[y_key])
            for z in S.objects:
                for g in homs[(y_key, z.key())]:
                    walked += 1
                    assert h_arr[S.compose(g, f).key()] \
                        == B.compose(h_arr[g.key()], h_arr[f.key()])
    assert walked == pairs
