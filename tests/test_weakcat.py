"""Finite categories with weak algebra structure: validation, the
derived action, compiled 2-cells, coherence, and serialization."""

import importlib.util
import itertools

import pytest
from conftest import (EXAMPLES, ROOT, identity_weak_functor,
                      skewed_group_instance, zmod)

from operad_workbench.operads import builtin_operad, default_assignment
from operad_workbench.terms import format_term, parse_term
from operad_workbench.trees import parse_tree
from operad_workbench.weakcat import (Arrow, FiniteCategory, Functor,
                                      WeakPCategoryData, WeakcatError,
                                      cell_key, check_weak_functor,
                                      coherence_check,
                                      indiscrete_monoid_instance, key_of,
                                      load_weakcat, save_weakcat, unkey)
from oracles import coherence_probe_oracle


def test_finite_category_validation():
    a = Arrow("f", "x", "y")
    ident = {"x": "ix", "y": "iy"}
    arrows = [Arrow("ix", "x", "x"), Arrow("iy", "y", "y"), a]
    compose = {("iy", "f"): "f", ("f", "ix"): "f",
               ("ix", "ix"): "ix", ("iy", "iy"): "iy"}
    cat = FiniteCategory(("x", "y"), arrows, ident, compose)
    assert cat.compose("iy", "f") == "f"
    with pytest.raises(WeakcatError):
        FiniteCategory(("x", "y"), arrows, ident,
                       {k: v for k, v in compose.items() if k != ("iy", "f")})
    with pytest.raises(WeakcatError):
        FiniteCategory(("x", "y"), arrows, {"x": "ix", "y": "f"}, compose)
    with pytest.raises(WeakcatError):
        FiniteCategory(("x,y",), [Arrow("i", "x,y", "x,y")],
                       {"x,y": "i"}, {("i", "i"): "i"})


def test_finite_category_operations():
    cat = FiniteCategory.indiscrete(("a", "b", "c"))
    assert len(cat.arrows) == 9
    assert cat.compose("b>c", "a>b") == "a>c"
    with pytest.raises(WeakcatError):
        cat.compose("a>b", "b>c")
    assert cat.inverse("a>b") == "b>a"
    assert cat.is_iso("a>b")
    assert cat.is_identity("a>a") and not cat.is_identity("a>b")
    assert cat.hom("a", "b") == ["a>b"]
    assert cat.compose_chain([], "a") == "a>a"
    assert cat.compose_chain(["a>b", "b>c"], "a") == "a>c"
    assert FiniteCategory.terminal().objects == ("o",)


def test_from_monoid():
    mult = lambda g, f: str((int(g) + int(f)) % 3)
    cat = FiniteCategory.from_monoid(("0", "1", "2"), "0", mult)
    assert cat.objects == ("o",)
    assert cat.compose("1", "2") == "0"
    assert cat.inverse("1") == "2"
    assert cat.identity("o") == "0"


def test_keys_roundtrip():
    assert unkey(key_of(("a", "b"))) == ("a", "b")
    assert unkey(key_of(())) == ()


def test_functor_validation():
    cat = FiniteCategory.indiscrete(("a", "b"))
    good = Functor.identity_functor(cat)
    assert good.obj(["a"]) == "a"
    bad_arr = {key_of((f.id,)): f.id for f in cat.arrows.values()}
    bad_arr[key_of(("a>b",))] = "b>a"
    with pytest.raises(WeakcatError):
        Functor(cat, cat, 1, {key_of((o,)): o for o in cat.objects}, bad_arr)


def _projection_maps(cat, k):
    """Tables of the functor cat^k -> cat picking the first component
    (the constant functor at the first object when k = 0)."""
    first = cat.objects[0]
    obj_map = {key_of(objs): objs[0] if objs else first
               for objs in itertools.product(cat.objects, repeat=k)}
    arr_map = {key_of(arrs): arrs[0] if arrs else cat.identity(first)
               for arrs in itertools.product(cat.arrows, repeat=k)}
    return obj_map, arr_map


@pytest.mark.parametrize("k", [0, 1, 2])
def test_functor_validation_errors_at_each_arity(k):
    square = FiniteCategory.indiscrete(("a", "b"))
    group = FiniteCategory.from_monoid(
        ("0", "1", "2"), "0", lambda g, f: str((int(g) + int(f)) % 3))

    def refused(cat, obj_map, arr_map) -> str:
        with pytest.raises(WeakcatError) as info:
            Functor(cat, cat, k, obj_map, arr_map, name="F")
        return str(info.value)

    obj_map, arr_map = _projection_maps(square, k)
    assert Functor(square, square, k, obj_map, arr_map).arity == k
    objs, arrs = ("a",) * k, ("a>a",) * k
    assert refused(square, {o: v for o, v in obj_map.items()
                            if o != key_of(objs)}, arr_map) \
        == f"F: object map incomplete at {objs}"
    assert refused(square, obj_map, {a: v for a, v in arr_map.items()
                                     if a != key_of(arrs)}) \
        == f"F: arrow map incomplete at {arrs}"
    assert refused(square, obj_map, {**arr_map, key_of(arrs): "a>b"}) \
        == f"F: image of {arrs} has wrong endpoints"

    obj_map, arr_map = _projection_maps(group, k)
    assert Functor(group, group, k, obj_map, arr_map).arity == k
    idents = ("0",) * k
    assert refused(group, obj_map, {**arr_map, key_of(idents): "1"}) \
        == f"F: identities not preserved at {('o',) * k}"
    if k == 0:
        # the only arrow tuple is the empty one, whose image must already
        # be the identity, so composition cannot fail on its own
        return
    skewed = {**arr_map, key_of(("1",) + idents[1:]): "2"}
    message = refused(group, obj_map, skewed)
    assert message.startswith("F: composition not preserved at ")
    if k == 1:
        assert message.endswith("at (('1', '1'),)")


def _nested_composable(cat):
    """The pair walk each consumer made for itself before categories
    listed their composable pairs: f in arrow order, then g over the
    arrows out of f's target."""
    return [(g, f.id, cat.compose(g, f.id))
            for f in cat.arrows.values()
            for g in cat._from.get(f.dst, ())]


@pytest.mark.parametrize("name", [
    "indiscrete", "from_monoid", "terminal", "skewed"])
def test_composable_table_matches_nested_enumeration(name, monoid):
    cat = {"indiscrete": lambda: FiniteCategory.indiscrete(("a", "b", "c")),
           "from_monoid": lambda: FiniteCategory.from_monoid(*zmod(4)),
           "terminal": FiniteCategory.terminal,
           "skewed": lambda: skewed_group_instance(monoid).base}[name]()
    want = _nested_composable(cat)
    assert cat.composable == want
    assert cat._compose == {(g, f): gf for g, f, gf in want}


def test_finite_category_missing_composite_message():
    cat = FiniteCategory.indiscrete(("a", "b"))
    table = dict(cat._compose)
    del table[("b>a", "a>b")], table[("a>b", "a>a")]
    with pytest.raises(WeakcatError) as info:
        FiniteCategory(cat.objects, list(cat.arrows.values()),
                       cat.identities, table)
    # the first pair in arrow order of f lacks its composite
    assert str(info.value) == "missing composite for ('a>b','a>a')"


def test_functor_reports_the_first_broken_pair_at_arity_1():
    """Several composable pairs break; the message names the first in
    table order (f in arrow order, then g), not the first by g."""
    group = FiniteCategory.from_monoid(*zmod(4))
    arr_map = {"0": "0", "1": "1", "2": "2", "3": "1"}
    broken = [(g, f) for g, f, gf in _nested_composable(group)
              if arr_map[gf] != group.compose(arr_map[g], arr_map[f])]
    assert len(broken) > 1 and broken[0] == ("2", "1")
    assert min(broken) == ("1", "2")
    with pytest.raises(WeakcatError) as info:
        Functor(group, group, 1, {"o": "o"}, arr_map, name="F")
    assert str(info.value) == "F: composition not preserved at (('2', '1'),)"


def test_z3_instance_shape(z3_instance):
    W = z3_instance
    assert len(W.base.objects) == 3
    assert set(W.generators) == {"m", "e"}
    assert W.interpretation is not None
    # addition mod 3 is strictly associative and unital, so every delta
    # lands on an identity arrow
    assert W.is_strict()


def test_h_action_uses_absolute_variable_indexing(z3_instance):
    W = z3_instance
    assert W.h_obj(parse_term("x2"), ("1", "2")) == "2"
    assert W.h_obj(parse_term("m(x2,x1)"), ("1", "2")) == "0"
    assert W.h_obj(parse_term("m(x1,m(x2,x2))"), ("1", "2", "0")) == "2"
    assert W.h_obj(parse_tree("m(|,|)", W.presentation.signature),
                   ("2", "2")) == "1"
    assert W.h_arr(parse_term("m(x1,x2)"), ("0>1", "2>2")) == "2>0"
    assert W.h_obj(parse_term("e"), ()) == "0"


def test_derive_delta_compiles_identities_on_strict_data(z3_instance):
    W = z3_instance
    assoc = W.derive_delta(parse_term("m(m(x1,x2),x3)"),
                           parse_term("m(x1,m(x2,x3))"), ("1", "2", "2"))
    assert W.base.is_identity(assoc)
    unit = W.derive_delta(parse_term("m(e,x1)"), parse_term("x1"), ("2",))
    assert unit == "2>2"
    padded = W.derive_delta(parse_term("m(e,m(x1,e))"),
                            parse_term("x1"), ("1",))
    assert W.base.is_identity(padded)
    assert W.derive_delta(parse_term("x1"), parse_term("x1"), ("2",)) \
        == "2>2"


def test_derive_delta_returns_none_when_unrelated(pointed_abcd):
    base = FiniteCategory.terminal()
    generators = {
        op: Functor(base, base, 0, {"": "o"}, {"": "o>o"}, name=op)
        for op in pointed_abcd.signature.names()}
    W = WeakPCategoryData(base, pointed_abcd, generators, {})
    sig = pointed_abcd.signature
    assert W.derive_delta(parse_tree("a", sig), parse_tree("a", sig), ()) \
        == "o>o"
    assert W.derive_delta(parse_tree("a", sig), parse_tree("b", sig), ()) \
        is None


@pytest.mark.parametrize("target, separated", [
    ("terminal-plain", False), ("free", True)])
def test_derive_delta_refutes_what_the_target_separates(pointed_abcd,
                                                       target, separated):
    """Two unmerged constants: a target that tells them apart refutes
    the 2-cell, one that identifies them leaves it undecided."""
    base = FiniteCategory.terminal()
    generators = {
        op: Functor(base, base, 0, {"": "o"}, {"": "o>o"}, name=op)
        for op in pointed_abcd.signature.names()}
    operad = builtin_operad(target, pointed_abcd)
    W = WeakPCategoryData(base, pointed_abcd, generators, {}, operad,
                          default_assignment(pointed_abcd, operad))
    a, b = parse_term("a", pointed_abcd.signature), \
        parse_term("b", pointed_abcd.signature)
    if separated:
        with pytest.raises(WeakcatError, match="^no 2-cell between a and b$"):
            W.derive_delta(a, b, ())
    else:
        assert W.derive_delta(a, b, ()) is None


END2_REFUSAL = ("target end-2 breaks the theory: fails m(e,x1) = x1 @1: "
                "1:[1,1] != 1:[1,2]")


def test_a_target_that_breaks_the_theory_is_refused(monoid, z3_instance,
                                                    z4_instance):
    """The Z/3 data under end-2 and its stock assignment (the first
    projection, which is no unit) is refused naming the first failing
    equation; the same data under terminal-plain, and Z/4, load."""
    W = z3_instance
    operad = builtin_operad("end-2")
    with pytest.raises(WeakcatError) as info:
        WeakPCategoryData(W.base, monoid, W.generators, W.deltas, operad,
                          default_assignment(monoid, operad))
    assert str(info.value) == END2_REFUSAL
    terminal = builtin_operad("terminal-plain")
    for instance in (z3_instance, z4_instance):
        assert WeakPCategoryData(
            instance.base, monoid, instance.generators, instance.deltas,
            terminal, default_assignment(monoid, terminal)).interpretation
    assert load_weakcat((EXAMPLES / "indiscrete_monoid_weakcat.json")
                        .read_text(encoding="utf-8")).interpretation


def test_delta_validation_errors(monoid):
    base = FiniteCategory.indiscrete(("0", "1"))
    mult = lambda a, b: str((int(a) + int(b)) % 2)
    W = indiscrete_monoid_instance(monoid, ("0", "1"), "0", mult)
    deltas = {i: dict(fam) for i, fam in W.deltas.items()}
    deltas[1][("1",)] = "0>1"
    with pytest.raises(WeakcatError):
        WeakPCategoryData(base, monoid, W.generators, deltas)
    missing = {i: dict(fam) for i, fam in W.deltas.items()}
    del missing[2][("0",)]
    with pytest.raises(WeakcatError):
        WeakPCategoryData(base, monoid, W.generators, missing)
    with pytest.raises(WeakcatError):
        WeakPCategoryData(base, monoid, W.generators,
                          {i: fam for i, fam in W.deltas.items() if i != 0})


def test_indiscrete_monoid_instance_guards(pointed):
    with pytest.raises(WeakcatError):
        indiscrete_monoid_instance(pointed, ("0",), "0", lambda a, b: "0")


def test_cell_key_format(monoid):
    assert cell_key(monoid.equations[0]) == "m(m(|,|),|)=m(|,m(|,|))@3"
    assert cell_key(monoid.equations[1]) == "m(e,|)=|@1"


def test_coherence_check_passes_on_z3(z3_instance):
    report = coherence_check(z3_instance)
    assert report.ok, report.lines()
    assert any("edge coherence" in line for line in report.lines())


def bundled_instance():
    return load_weakcat((EXAMPLES / "indiscrete_monoid_weakcat.json")
                        .read_text(encoding="utf-8"))


def test_coherence_counts_are_pinned(z3_instance, z4_instance):
    # one instance per edge off the spanning tree, per operand tuple
    for W, count in ((z3_instance, 52), (z4_instance, 80),
                     (bundled_instance(), 52)):
        report = coherence_check(W)
        assert report.checked == {"edge coherence": count}
        assert report.ok, report.lines()


def test_skewed_associator_validates_but_is_incoherent(monoid):
    W = skewed_group_instance(monoid)
    assert not W.is_strict()
    report = coherence_check(W)
    assert not report.ok
    # one object, so one operand tuple per arity: 7 of 14 cycles fail
    assert report.checked == {"edge coherence": 14}
    assert len(report.failures) == 7


def test_coherence_agrees_with_the_sampled_probe(monoid, z3_instance,
                                                  z4_instance):
    """The old probe compared up to three merge-graph chains per class
    pair; every pair it finds failing lies in a class where the edge
    check fails, and both give the same verdict."""
    # (instance, probes made, probes failing), as coherence_check once
    # counted them
    pinned = ((z3_instance, 81, 0), (z4_instance, 131, 0),
              (bundled_instance(), 81, 0),
              (skewed_group_instance(monoid), 17, 12))
    for W, probes, fails in pinned:
        checked, failing = coherence_probe_oracle(W)
        assert (checked, len(failing)) == (probes, fails)
        report = coherence_check(W)
        assert report.ok == (not failing)
        for first, _, _ in failing:
            assert any(f" in the class of {format_term(first)} at " in line
                       for line in report.failures), first


def test_identity_weak_functor_checks(z3_instance):
    report = check_weak_functor(identity_weak_functor(z3_instance))
    assert report.ok, report.lines()
    assert report.checked == {"psi endpoints": 10, "psi naturality": 82,
                              "unit law": 3, "pasting square": 33}


def test_corrupted_psi_is_detected(z3_instance):
    Fd = identity_weak_functor(z3_instance)
    Fd.psi["m"][("0", "0")] = "0>1"
    report = check_weak_functor(Fd)
    assert not report.ok


def test_json_roundtrip(z3_instance):
    text = save_weakcat(z3_instance)
    loaded = load_weakcat(text)
    assert save_weakcat(loaded) == text
    assert loaded.is_strict()
    assert loaded.base.objects == z3_instance.base.objects
    assert loaded.interpretation.assignment == {"m": 2, "e": 0}


def test_bundled_instance_is_what_its_generator_writes(tmp_path,
                                                       monkeypatch, capsys):
    """scripts/make_indiscrete_example.py, run on a copy of monoid.th,
    writes the bundled instance byte for byte."""
    spec = importlib.util.spec_from_file_location(
        "make_indiscrete_example",
        ROOT / "scripts" / "make_indiscrete_example.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    (tmp_path / "monoid.th").write_bytes((EXAMPLES / "monoid.th").read_bytes())
    monkeypatch.setattr(script, "EXAMPLES", tmp_path)
    script.main()
    name = "indiscrete_monoid_weakcat.json"
    assert (tmp_path / name).read_bytes() == (EXAMPLES / name).read_bytes()
    assert capsys.readouterr().out.startswith("wrote ")


def test_load_rejects_malformed_input(z3_instance):
    with pytest.raises(WeakcatError):
        load_weakcat("not json")
    with pytest.raises(WeakcatError):
        load_weakcat("{}")
    import json
    data = json.loads(save_weakcat(z3_instance))
    data["deltas"] = {"nope@9": {}}
    with pytest.raises(WeakcatError):
        load_weakcat(json.dumps(data))
    data = json.loads(save_weakcat(z3_instance))
    for bounds, message in (
            ({"max_steps": 0}, "bound 'max_steps' must be a positive integer"),
            ({"max_steps": -1},
             "bound 'max_steps' must be a positive integer"),
            ({"max_term_size": 0},
             "bound 'max_term_size' must be a positive integer"),
            ({"max_term_size": -3},
             "bound 'max_term_size' must be a positive integer"),
            ({"max_steps": 2.5},
             "bound 'max_steps' must be a positive integer"),
            ({"bogus": 2}, "unknown bound 'bogus'; expected "
                           "'max_term_size' or 'max_steps'")):
        data["bounds"] = bounds
        with pytest.raises(WeakcatError) as info:
            load_weakcat(json.dumps(data))
        assert str(info.value) == message
