import math
from unittest import mock

import pytest

from reference import LinkCtx
from reference import apply_agg as interpreted_apply_agg
from reference import apply_composition as interpreted_apply_composition
from socialgraph import aggfn
from socialgraph.aggfn import (
    COUNT,
    Arith,
    AttrRef,
    Builtin,
    CompositionFn,
    Const,
    ConstString,
    CopyAny,
    CopyFrom,
    JaccardOf,
    ONE,
    ProdOver,
    SafExpr,
    SumOver,
    avg_of,
    compile_agg,
    compile_composition,
    jaccard,
    max_of,
    min_of,
    sum_of,
)
from socialgraph.algebra import compose, link_aggregate, node_aggregate
from socialgraph.errors import AggEvalError, CompositionFnError, DivideByZeroError
from socialgraph.fixtures import cf_fixture, rng_from
from socialgraph.graph import Condition, DirectionalCondition, build_graph, link, node


def tagged(link_id, tags):
    return link(link_id, "u", "i", type="tag", tags=tags)


def weighted(link_id, w):
    return link(link_id, "u", "i", type="w", w=w)


def test_eval_saf_collects_distinct_values():
    links = [tagged("l1", ("a", "b")), tagged("l2", ("b", "c"))]
    assert compile_agg(SafExpr("tags"))(links) == frozenset({"a", "b", "c"})


def test_eval_saf_empty_collection():
    assert compile_agg(SafExpr("tags"))([]) is None  # nothing to attach


def test_eval_saf_field_fallback():
    links = [link("l1", "john", "P", type="visit"), link("l2", "john", "Q", type="visit")]
    assert compile_agg(SafExpr("tgt"))(links) == frozenset({"P", "Q"})


def test_count_is_sum_of_ones():
    links = [weighted(f"l{i}", float(i)) for i in range(3)]
    assert compile_agg(COUNT)(links) == frozenset({3.0})
    assert compile_agg(SumOver(ONE))(links) == frozenset({3.0})


def test_avg_builtin():
    links = [weighted("l1", 0.6), weighted("l2", 0.8)]
    (avg,) = compile_agg(avg_of("w"))(links)
    assert avg == pytest.approx(0.7)


def test_sum_builtin_equals_explicit_tree():
    links = [weighted("l1", 1.0), weighted("l2", 2.0), weighted("l3", 3.0)]
    assert compile_agg(sum_of("w"))(links) == frozenset({6.0})
    assert compile_agg(SumOver(AttrRef("w")))(links) == frozenset({6.0})


def test_builtins_match_explicit_trees_random():
    rng = rng_from(3)
    explicit_avg = Arith("/", SumOver(AttrRef("w")), SumOver(ONE))
    for _ in range(300):
        links = [weighted(f"l{i}", round(rng.uniform(-5, 5), 4)) for i in range(rng.randint(1, 8))]
        assert compile_agg(COUNT)(links) == compile_agg(SumOver(ONE))(links)
        (total,), (summed,) = compile_agg(sum_of("w"))(links), compile_agg(SumOver(AttrRef("w")))(links)
        assert total == pytest.approx(summed, abs=1e-9)
        (avg,), (divided,) = compile_agg(avg_of("w"))(links), compile_agg(explicit_avg)(links)
        assert avg == pytest.approx(divided, abs=1e-9)


def test_eval_naf_permutation_invariant():
    rng = rng_from(4)
    links = [weighted(f"l{i}", round(rng.uniform(0.1, 2), 3)) for i in range(6)]
    shuffled = list(links)
    rng.shuffle(shuffled)
    for expr in (COUNT, sum_of("w"), avg_of("w"), min_of("w"), max_of("w"), ProdOver(AttrRef("w"))):
        fn = compile_agg(expr)
        (value,), (again,) = fn(links), fn(shuffled)
        assert value == pytest.approx(again, abs=1e-12)


def test_naf_errors():
    links = [weighted("l1", 1.0), link("l2", "u", "i", type="w")]
    with pytest.raises(AggEvalError) as err:
        compile_agg(sum_of("w"))(links)
    assert err.value.attr == "w"
    with pytest.raises(DivideByZeroError):
        compile_agg(Arith("/", ONE, Const(0.0)))([])
    with pytest.raises(AggEvalError):
        compile_agg(sum_of("type"))([weighted("l1", 1.0)])  # non-numeric
    with pytest.raises(AggEvalError):
        compile_agg(min_of("w"))([])


def test_nesting_depth_cap():
    """Sum/Prod nest at most three deep, mixed or not."""
    rows = [weighted("l1", 2.0)]
    assert compile_agg(SumOver(ProdOver(SumOver(AttrRef("w")))))(rows) == frozenset({2.0})
    for deep in (SumOver(SumOver(SumOver(SumOver(ONE)))), ProdOver(Arith("+", ONE, SumOver(ProdOver(SumOver(ONE)))))):
        with pytest.raises(ValueError, match=r"^Sum/Prod nesting depth 4 exceeds limit 3$"):
            compile_agg(deep)(rows)


def test_const_class_is_zero_one_only():
    with pytest.raises(ValueError):
        Const(2.0)


def test_apply_agg_const_and_copy():
    links = [weighted("l1", 0.7), weighted("l2", 0.7)]
    assert compile_agg(ConstString("match"))(links) == frozenset({"match"})
    assert compile_agg(CopyAny("w"))(links) == frozenset({0.7})
    with pytest.raises(AggEvalError):
        compile_agg(CopyAny("w"))([weighted("l1", 0.7), weighted("l2", 0.8)])
    # nothing to copy -> nothing to attach
    assert compile_agg(CopyAny("w"))([tagged("l3", "a")]) is None
    assert compile_agg(SafExpr("tags"))(links) is None


def test_jaccard():
    assert jaccard({"P", "Q"}, {"P", "Q", "R"}) == pytest.approx(2 / 3)
    assert jaccard({"S"}, {"S"}) == 1.0
    assert jaccard(set(), set()) == 0.0


def test_jaccard_properties_random():
    rng = rng_from(9)
    universe = list("abcdefgh")
    for _ in range(200):
        a = frozenset(rng.sample(universe, rng.randint(0, 6)))
        b = frozenset(rng.sample(universe, rng.randint(0, 6)))
        assert jaccard(a, b) == jaccard(b, a)
        assert 0.0 <= jaccard(a, b) <= 1.0
        if a:
            assert jaccard(a, a) == 1.0


def ends(l, vst_src=None, vst_tgt=None):
    """A link's endpoint nodes by id, as ``compose`` hands them over."""
    src_attrs = {"type": "user"}
    if vst_src is not None:
        src_attrs["vst"] = vst_src
    tgt_attrs = {"type": "user"}
    if vst_tgt is not None:
        tgt_attrs["vst"] = vst_tgt
    return {l.src: node(l.src, **src_attrs), l.tgt: node(l.tgt, **tgt_attrs)}


def test_apply_composition_jaccard():
    f = CompositionFn((("sim", JaccardOf("left-src", "vst", "right-src", "vst")),))
    left, right = link("a", "john", "P", type="visit"), link("b", "ann", "P", type="visit")
    out = compile_composition(f)(left, right, ends(left, vst_src=("P", "Q")), ends(right, vst_src=("P", "Q", "R")))
    (sim,) = out["sim"]
    assert sim == pytest.approx(2 / 3)


def test_apply_composition_const_and_copy():
    f = CompositionFn(
        (
            ("type", ConstString("user_friend_item")),
            ("sim_sc", CopyFrom("left-link", "sim")),
        )
    )
    left = link("a", "john", "ann", type="match", sim=0.66)
    right = link("b", "ann", "R", type="visit")
    out = compile_composition(f)(left, right, ends(left), ends(right))
    assert out["type"] == frozenset({"user_friend_item"})
    assert out["sim_sc"] == frozenset({0.66})


def test_composition_errors():
    with pytest.raises(CompositionFnError):
        CompositionFn(())
    with pytest.raises(CompositionFnError):
        CompositionFn((("src", ConstString("x")),))
    f = CompositionFn((("out", CopyFrom("left-link", "nope")),))
    left, right = link("a", "u", "v", type="t"), link("b", "u", "v", type="t")
    with pytest.raises(CompositionFnError) as err:
        compile_composition(f)(left, right, ends(left), ends(right))
    assert err.value.attr == "out"


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Arith("%", ONE, ONE), "unknown arithmetic operator: '%'"),
        (lambda: Builtin("MEDIAN", "w"), "unknown builtin aggregate: 'MEDIAN'"),
        (lambda: Builtin("COUNT", "w"), "COUNT takes no attribute"),
        (lambda: Builtin("SUM"), "SUM needs an attribute"),
        (lambda: CopyFrom("middle", "w"), "unknown composition side: 'middle'"),
        (lambda: JaccardOf("left-src", "type", "middle", "type"), "unknown composition side: 'middle'"),
    ],
    ids=["arith", "builtin", "count-attr", "sum-no-attr", "copy-side", "jaccard-side"],
)
def test_function_terms_reject_what_they_cannot_evaluate(make, message):
    with pytest.raises(ValueError) as err:
        make()
    assert str(err.value) == message


def test_composition_any_copies_the_shared_value():
    attributes = compile_composition(CompositionFn((("x", CopyAny("type")),)))
    left, same = link("a", "u", "v", type=("act", "visit")), link("b", "w", "v", type=("act", "visit"))
    assert attributes(left, same, ends(left), ends(same)) == {"x": frozenset({"act", "visit"})}
    other = link("b", "w", "v", type="tag")
    with pytest.raises(CompositionFnError) as err:
        attributes(left, other, ends(left), ends(other))
    assert err.value.attr == "x"


def test_composition_numeric_output():
    f = CompositionFn((("total", sum_of("w")),))
    left, right = weighted("a", 1.5), weighted("b", 2.5)
    out = compile_composition(f)(left, right, ends(left), ends(right))
    assert out["total"] == frozenset({4.0})
    assert all(math.isfinite(v) for v in out["total"])


# Each numerical aggregate node evaluated inside a Sum/Prod body, where one
# row is in scope, and outside one, where only the collection is.
W = [weighted("l1", 1.0), weighted("l2", 2.0), weighted("l3", 4.0)]


@pytest.mark.parametrize(
    "expr, value",
    [
        (SumOver(Arith("*", AttrRef("w"), AttrRef("w"))), 1.0 + 4.0 + 16.0),
        (SumOver(Arith("-", AttrRef("w"), ONE)), 0.0 + 1.0 + 3.0),
        (ProdOver(Arith("+", AttrRef("w"), ONE)), 2.0 * 3.0 * 5.0),
        (SumOver(COUNT), 9.0),
        (ProdOver(COUNT), 27.0),
        (SumOver(sum_of("w")), 21.0),
        (ProdOver(sum_of("w")), 343.0),
        (SumOver(Arith("/", AttrRef("w"), sum_of("w"))), 1.0),
        (ProdOver(SumOver(AttrRef("w"))), 343.0),
        (ProdOver(SumOver(ONE)), 27.0),
        (SumOver(Arith("*", AttrRef("w"), SumOver(ONE))), 21.0),
    ],
    ids=[
        "sum of w*w", "sum of w-1", "prod of w+1", "sum of count", "prod of count", "sum of sum(w)",
        "prod of sum(w)", "sum of w/sum(w)", "prod of sum over w", "prod of sum over 1", "sum of w*sum over 1",
    ],
)
def test_aggregates_inside_a_sum_or_prod_body(expr, value):
    (got,) = compile_agg(expr)(W)
    assert got == pytest.approx(value, abs=1e-12)


@pytest.mark.parametrize("expr", [AttrRef("w"), Arith("+", AttrRef("w"), ONE), Arith("*", COUNT, AttrRef("w", 0))])
def test_attribute_reference_outside_sum_or_prod_scope(expr):
    with pytest.raises(AggEvalError) as err:
        compile_agg(expr)(W)
    assert str(err.value).startswith("attribute reference outside Sum/Prod scope")
    assert err.value.attr == "w"


# A link row is a one-step chain: position 0 reads the link itself, and
# any other position is the error a one-step chain gives.
AT = {
    "set": SafExpr,
    "any": CopyAny,
    "sum": sum_of,
    "avg": avg_of,
    "min": min_of,
    "max": max_of,
    "sum over": lambda attr, step: SumOver(AttrRef(attr, step)),
}


@pytest.mark.parametrize("make", list(AT.values()), ids=list(AT))
def test_position_zero_on_a_link_row_reads_the_link(make):
    links = [weighted("l1", 2.0), weighted("l2", 2.0)]
    assert compile_agg(make("w", 0))(links) == compile_agg(make("w", None))(links)
    assert compile_agg(make("w", 0))(links) == compile_agg(make("w", 0), chains=True)([(l,) for l in links])


@pytest.mark.parametrize("step", [1, 7, -1])
@pytest.mark.parametrize("make", list(AT.values()), ids=list(AT))
def test_other_positions_on_a_link_row_are_errors(make, step):
    links = [weighted("l1", 2.0)]
    with pytest.raises(AggEvalError) as err:
        compile_agg(make("w", step))(links)
    assert str(err.value) == f"chain has no step {step} (attribute 'w')"
    with pytest.raises(AggEvalError) as chain_err:
        compile_agg(make("w", step), chains=True)([(l,) for l in links])
    assert str(chain_err.value) == str(err.value)
    with pytest.raises(AggEvalError) as ref_err:
        interpreted_apply_agg(make("w", step), links)
    assert str(ref_err.value) == str(err.value)


def test_a_chain_position_on_link_rows_fails_every_operator():
    g = cf_fixture()
    visit = Condition()
    with pytest.raises(AggEvalError, match=r"^chain has no step 7 \(attribute 'tgt'\)$"):
        link_aggregate(g, visit, (("x", SafExpr("tgt", 7)),))
    with pytest.raises(AggEvalError, match=r"^chain has no step 1 \(attribute 'tgt'\)$"):
        node_aggregate(g, visit, "src", "x", SafExpr("tgt", 1))
    f = CompositionFn((("x", SafExpr("tgt", 2)),))
    with pytest.raises(CompositionFnError, match=r"^chain has no step 2 \(attribute 'tgt'\) \(attribute 'x'\)$"):
        compose(g, g, DirectionalCondition("tgt", "tgt"), f)
    got = link_aggregate(g, visit, (("x", SafExpr("tgt", 0)),))
    assert got == link_aggregate(g, visit, (("x", SafExpr("tgt")),))


@pytest.mark.parametrize(
    "spec, error",
    [
        (AttrRef("w"), AggEvalError),
        (SumOver(SumOver(SumOver(SumOver(ONE)))), ValueError),
        (Arith("+", ConstString("x"), ONE), TypeError),
        ("not a spec", TypeError),
    ],
    ids=["attribute outside scope", "too deep", "string in a numeric tree", "not a spec"],
)
def test_compile_agg_raises_only_when_evaluation_reaches_an_error(spec, error):
    """As the interpreter: an aggregation with no group raises nothing."""
    fn = compile_agg(spec)
    with pytest.raises(error) as err:
        fn([weighted("l1", 1.0)])
    with pytest.raises(error) as ref_err:
        interpreted_apply_agg(spec, [weighted("l1", 1.0)])
    assert str(err.value) == str(ref_err.value)
    g = build_graph([node("u", type="user")], [])
    assert link_aggregate(g, Condition(), (("x", spec),)) == g
    assert compile_agg(SumOver(Arith("+", ConstString("x"), ONE)))([]) == frozenset({0})


def test_identity_fields_read_as_one_value_sets():
    other = link("l1", "u", "i", type="visit")
    plain = link("l2", "u", "j", type="visit")
    assert compile_agg(SafExpr("tgt"))([other, plain]) == frozenset({"i", "j"})
    assert compile_agg(SafExpr("id"))([other, plain]) == frozenset({"l1", "l2"})
    assert compile_agg(SafExpr("src"), chains=True)([(plain,)]) == frozenset({"u"})
    # a kept identity value is a value set, as a stored attribute's is
    assert compile_agg(CopyAny("src"))([other, plain]) == frozenset({"u"})
    f = CompositionFn((("a", CopyFrom("left-src", "id")), ("b", CopyFrom("right-link", "src"))))
    assert compile_composition(f)(plain, other, ends(plain), ends(other)) == {"a": frozenset({"u"}), "b": frozenset({"u"})}
    with pytest.raises(CompositionFnError, match="left-src element 'u' lacks attribute 'src'"):
        compile_composition(CompositionFn((("a", CopyFrom("left-src", "src")),)))(plain, plain, ends(plain), ends(plain))


def test_node_side_outputs_are_evaluated_once_per_node_tuple():
    """jaccard is looked up in the module at each call, so rebinding it
    (as a tracer does) sees every call: one per distinct (lsrc, rsrc)."""
    g = cf_fixture()
    users = {"type": "user"}
    g = build_graph(
        [node(nid, **users, vst=tuple(l.tgt for l in g.links.values() if l.src == nid) or "none")
         if "user" in n.attrs["type"] else n for nid, n in g.nodes.items()],
        g.links.values(),
    )
    f = CompositionFn((("sim", JaccardOf("left-src", "vst", "right-src", "vst")), ("via", CopyFrom("left-link", "id"))))
    delta = DirectionalCondition("tgt", "tgt")
    with mock.patch.object(aggfn, "jaccard", wraps=jaccard) as counted:
        got = compose(g, g, delta, f)
    pairs = [(l1, l2) for l1 in g.links.values() for l2 in g.links.values() if l1.tgt == l2.tgt]
    assert len(got.links) == len(pairs) > counted.call_count == len({(l1.src, l2.src) for l1, l2 in pairs})
    attributes = compile_composition(f)
    for (l1, l2), new in zip(pairs, got.links.values()):
        expected = interpreted_apply_composition(f, ctx_of(g, l1), ctx_of(g, l2))
        assert attributes(l1, l2, g.nodes, g.nodes) == {k: v for k, v in new.attrs.items() if k != "type"} == expected


def ctx_of(g, l):
    return LinkCtx(l, g.nodes[l.src], g.nodes[l.tgt])
