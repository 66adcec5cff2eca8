import math

import pytest

from socialgraph.aggfn import (
    COUNT,
    Arith,
    AttrRef,
    CompositionFn,
    Const,
    ConstString,
    CopyAny,
    CopyFrom,
    JaccardOf,
    LinkCtx,
    ONE,
    ProdOver,
    SafExpr,
    SumOver,
    apply_agg,
    apply_composition,
    avg_of,
    eval_naf,
    eval_saf,
    jaccard,
    max_of,
    min_of,
    sum_of,
)
from socialgraph.errors import AggEvalError, CompositionFnError, DivideByZeroError
from socialgraph.fixtures import rng_from
from socialgraph.graph import link, node


def tagged(link_id, tags):
    return link(link_id, "u", "i", type="tag", tags=tags)


def weighted(link_id, w):
    return link(link_id, "u", "i", type="w", w=w)


def test_eval_saf_collects_distinct_values():
    links = [tagged("l1", ("a", "b")), tagged("l2", ("b", "c"))]
    assert eval_saf(SafExpr("tags"), links) == frozenset({"a", "b", "c"})


def test_eval_saf_empty_collection():
    assert eval_saf(SafExpr("tags"), []) == frozenset()


def test_eval_saf_field_fallback():
    links = [link("l1", "john", "P", type="visit"), link("l2", "john", "Q", type="visit")]
    assert eval_saf(SafExpr("tgt"), links) == frozenset({"P", "Q"})


def test_count_is_sum_of_ones():
    links = [weighted(f"l{i}", float(i)) for i in range(3)]
    assert eval_naf(COUNT, links) == 3.0
    assert eval_naf(SumOver(ONE), links) == 3.0


def test_avg_builtin():
    links = [weighted("l1", 0.6), weighted("l2", 0.8)]
    assert eval_naf(avg_of("w"), links) == pytest.approx(0.7)


def test_sum_builtin_equals_explicit_tree():
    links = [weighted("l1", 1.0), weighted("l2", 2.0), weighted("l3", 3.0)]
    assert eval_naf(sum_of("w"), links) == 6.0
    assert eval_naf(SumOver(AttrRef("w")), links) == 6.0


def test_builtins_match_explicit_trees_random():
    rng = rng_from(3)
    explicit_avg = Arith("/", SumOver(AttrRef("w")), SumOver(ONE))
    for _ in range(300):
        links = [weighted(f"l{i}", round(rng.uniform(-5, 5), 4)) for i in range(rng.randint(1, 8))]
        assert eval_naf(COUNT, links) == eval_naf(SumOver(ONE), links)
        assert eval_naf(sum_of("w"), links) == pytest.approx(
            eval_naf(SumOver(AttrRef("w")), links), abs=1e-9
        )
        assert eval_naf(avg_of("w"), links) == pytest.approx(
            eval_naf(explicit_avg, links), abs=1e-9
        )


def test_eval_naf_permutation_invariant():
    rng = rng_from(4)
    links = [weighted(f"l{i}", round(rng.uniform(0.1, 2), 3)) for i in range(6)]
    shuffled = list(links)
    rng.shuffle(shuffled)
    for expr in (COUNT, sum_of("w"), avg_of("w"), min_of("w"), max_of("w"), ProdOver(AttrRef("w"))):
        assert eval_naf(expr, links) == pytest.approx(eval_naf(expr, shuffled), abs=1e-12)


def test_naf_errors():
    links = [weighted("l1", 1.0), link("l2", "u", "i", type="w")]
    with pytest.raises(AggEvalError) as err:
        eval_naf(sum_of("w"), links)
    assert err.value.attr == "w"
    with pytest.raises(DivideByZeroError):
        eval_naf(Arith("/", ONE, Const(0.0)), [])
    with pytest.raises(AggEvalError):
        eval_naf(sum_of("type"), [weighted("l1", 1.0)])  # non-numeric
    with pytest.raises(AggEvalError):
        eval_naf(min_of("w"), [])


def test_nesting_depth_cap():
    deep = SumOver(SumOver(SumOver(SumOver(ONE))))
    with pytest.raises(ValueError):
        eval_naf(deep, [weighted("l1", 1.0)])
    assert eval_naf(deep, [weighted("l1", 1.0)], max_depth=4) == 1.0


def test_const_class_is_zero_one_only():
    with pytest.raises(ValueError):
        Const(2.0)


def test_apply_agg_const_and_copy():
    links = [weighted("l1", 0.7), weighted("l2", 0.7)]
    assert apply_agg(ConstString("match"), links) == frozenset({"match"})
    assert apply_agg(CopyAny("w"), links) == frozenset({0.7})
    with pytest.raises(AggEvalError):
        apply_agg(CopyAny("w"), [weighted("l1", 0.7), weighted("l2", 0.8)])
    # nothing to copy -> nothing to attach
    assert apply_agg(CopyAny("w"), [tagged("l3", "a")]) is None
    assert apply_agg(SafExpr("tags"), links) is None


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


def ctx(l, vst_src=None, vst_tgt=None):
    src_attrs = {"type": "user"}
    if vst_src is not None:
        src_attrs["vst"] = vst_src
    tgt_attrs = {"type": "user"}
    if vst_tgt is not None:
        tgt_attrs["vst"] = vst_tgt
    return LinkCtx(l, node(l.src, **src_attrs), node(l.tgt, **tgt_attrs))


def test_apply_composition_jaccard():
    f = CompositionFn((("sim", JaccardOf("left-src", "vst", "right-src", "vst")),))
    left = ctx(link("a", "john", "P", type="visit"), vst_src=("P", "Q"))
    right = ctx(link("b", "ann", "P", type="visit"), vst_src=("P", "Q", "R"))
    out = apply_composition(f, left, right)
    (sim,) = out["sim"]
    assert sim == pytest.approx(2 / 3)


def test_apply_composition_const_and_copy():
    f = CompositionFn(
        (
            ("type", ConstString("user_friend_item")),
            ("sim_sc", CopyFrom("left-link", "sim")),
        )
    )
    left = ctx(link("a", "john", "ann", type="match", sim=0.66))
    right = ctx(link("b", "ann", "R", type="visit"))
    out = apply_composition(f, left, right)
    assert out["type"] == frozenset({"user_friend_item"})
    assert out["sim_sc"] == frozenset({0.66})


def test_composition_errors():
    with pytest.raises(CompositionFnError):
        CompositionFn(())
    with pytest.raises(CompositionFnError):
        CompositionFn((("src", ConstString("x")),))
    f = CompositionFn((("out", CopyFrom("left-link", "nope")),))
    left = ctx(link("a", "u", "v", type="t"))
    right = ctx(link("b", "u", "v", type="t"))
    with pytest.raises(CompositionFnError) as err:
        apply_composition(f, left, right)
    assert err.value.attr == "out"


def test_composition_any_copies_the_shared_value():
    f = CompositionFn((("x", CopyAny("type")),))
    left = ctx(link("a", "u", "v", type=("act", "visit")))
    out = apply_composition(f, left, ctx(link("b", "w", "v", type=("act", "visit"))))
    assert out == {"x": frozenset({"act", "visit"})}
    with pytest.raises(CompositionFnError) as err:
        apply_composition(f, left, ctx(link("b", "w", "v", type="tag")))
    assert err.value.attr == "x"


def test_composition_numeric_output():
    f = CompositionFn((("total", sum_of("w")),))
    left = ctx(weighted("a", 1.5))
    right = ctx(weighted("b", 2.5))
    out = apply_composition(f, left, right)
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
    assert eval_naf(expr, W) == pytest.approx(value, abs=1e-12)


@pytest.mark.parametrize("expr", [AttrRef("w"), Arith("+", AttrRef("w"), ONE), Arith("*", COUNT, AttrRef("w", 0))])
def test_attribute_reference_outside_sum_or_prod_scope(expr):
    with pytest.raises(AggEvalError) as err:
        eval_naf(expr, W)
    assert str(err.value).startswith("attribute reference outside Sum/Prod scope")
    assert err.value.attr == "w"
