import pytest

from socialgraph.aggfn import (
    COUNT,
    CompositionFn,
    ConstString,
    CopyAny,
    SafExpr,
    avg_of,
)
from socialgraph.algebra import (
    GraphPattern,
    SetOpKind,
    compose,
    link_aggregate,
    link_minus,
    link_select,
    node_aggregate,
    node_select,
    pattern_aggregate,
    semi_join,
    set_op,
)
from socialgraph.errors import DanglingEndpointError, DuplicateIdError, PatternTooLongError
from socialgraph.fixtures import random_plain_graph, random_travel_graph, rng_from
from socialgraph.graph import (
    Condition,
    DirectionalCondition,
    attr_eq,
    attr_gt,
    build_graph,
    has_all,
    link,
    node,
)

EMPTY = build_graph([], [])
D = DirectionalCondition


def cond(*preds, kw=()):
    return Condition(preds=preds, keywords=kw)


# ---------------------------------------------------------------------------
# Selections


def test_node_select_by_id(cf_graph):
    out = node_select(cf_graph, cond(attr_eq("id", "101")))
    assert set(out.nodes) == {"101"}
    assert out.is_null


def test_node_select_vacuous(cf_graph):
    out = node_select(cf_graph, Condition())
    assert set(out.nodes) == set(cf_graph.nodes)
    assert not out.links


def test_node_select_keyword_scoring(travel_graph):
    out = node_select(travel_graph, cond(kw=("skiing",)))
    assert set(out.nodes) == {"2"}
    assert out.nodes["2"].attrs["score"] == frozenset({1.0})


def test_node_select_custom_scoring_overwrites(travel_graph):
    base = node_select(travel_graph, cond(kw=("skiing",)))
    rescored = node_select(base, cond(kw=("skiing",)), scoring=lambda v: 0.25)
    assert rescored.nodes["2"].attrs["score"] == frozenset({0.25})


def test_link_select_by_type(travel_graph):
    out = link_select(travel_graph, cond(has_all("type", "tag")))
    assert set(out.links) == {"12"}
    assert set(out.nodes) == {"1", "2"}
    empty = link_select(travel_graph, cond(has_all("type", "friend")))
    assert not empty.nodes and not empty.links


def test_link_select_keeps_only_endpoints(cf_graph):
    out = link_select(cf_graph, cond(attr_eq("src", "103")))
    assert set(out.links) == {"v6"}
    assert set(out.nodes) == {"103", "203"}


# ---------------------------------------------------------------------------
# Set operators


def test_minus_example(minus_graphs):
    g1, g2 = minus_graphs
    node_driven = set_op(SetOpKind.NODE_MINUS, g1, g2)
    assert set(node_driven.nodes) == {"c"} and not node_driven.links
    link_driven = link_minus(g1, g2)
    assert set(link_driven.nodes) == {"a", "b", "c"}
    assert set(link_driven.links) == {"ac", "bc"}


def test_union_identity_and_intersect_idempotent(cf_graph):
    assert set_op(SetOpKind.UNION, cf_graph, EMPTY) == cf_graph
    assert set_op(SetOpKind.INTERSECT, cf_graph, cf_graph) == cf_graph
    assert set_op(SetOpKind.NODE_MINUS, cf_graph, EMPTY).nodes.keys() == cf_graph.nodes.keys()


def test_set_op_laws_random():
    rng = rng_from(21)
    for _ in range(10):
        g1 = random_plain_graph(rng, 8, 10)
        g2 = random_plain_graph(rng, 8, 10)
        for kind in (SetOpKind.UNION, SetOpKind.INTERSECT):
            a = set_op(kind, g1, g2)
            b = set_op(kind, g2, g1)
            assert set(a.nodes) == set(b.nodes) and set(a.links) == set(b.links)
            assert set_op(kind, g1, g1).nodes.keys() == g1.nodes.keys()
        g3 = random_plain_graph(rng, 8, 10)
        left = set_op(SetOpKind.UNION, set_op(SetOpKind.UNION, g1, g2), g3)
        right = set_op(SetOpKind.UNION, g1, set_op(SetOpKind.UNION, g2, g3))
        assert left == right


def test_union_consolidates_scores():
    n = node("x", type="item", name="x spot")
    g = build_graph([n], [])
    low = node_select(g, cond(kw=("x",)), scoring=lambda v: 0.2)
    high = node_select(g, cond(kw=("x",)), scoring=lambda v: 0.9)
    merged = set_op(SetOpKind.UNION, low, high)
    assert merged.nodes["x"].attrs["score"] == frozenset({0.9})


def test_elements_both_operands_hold_are_kept_as_they_are(cf_graph):
    """Merging an element with itself would rebuild an equal element."""
    visits = link_select(cf_graph, cond(attr_eq("type", "visit")))
    for got, shared in (
        (set_op(SetOpKind.UNION, cf_graph, visits), visits),
        (set_op(SetOpKind.INTERSECT, cf_graph, cf_graph), cf_graph),
    ):
        assert shared.links and all(got.links[lid] is cf_graph.links[lid] for lid in shared.links)
        assert all(got.nodes[nid] is cf_graph.nodes[nid] for nid in shared.nodes)


@pytest.mark.parametrize("score, kept", [((0.3, 0.5), {0.5}), ((0.3, "x"), {0.3, "x"})])
def test_an_element_merged_with_itself_keeps_its_highest_float_score(score, kept):
    g = build_graph([node("x", type="item", score=score)], [link("l", "x", "x", type="e", score=score)])
    for kind in (SetOpKind.UNION, SetOpKind.INTERSECT):
        got = set_op(kind, g, g)
        assert got.nodes["x"].attrs["score"] == got.links["l"].attrs["score"] == frozenset(kept)


def test_link_minus_self_and_empty(cf_graph):
    assert link_minus(cf_graph, cf_graph) == EMPTY
    induced = link_minus(cf_graph, EMPTY)
    assert set(induced.links) == set(cf_graph.links)
    assert set(induced.nodes) == {l.src for l in cf_graph.links.values()} | {
        l.tgt for l in cf_graph.links.values()
    }


def test_link_minus_induced_subgraph_oracle():
    rng = rng_from(31)
    for _ in range(10):
        g = random_plain_graph(rng, 10, 14)
        out = link_minus(g, EMPTY)
        # independent construction: links kept verbatim, isolated nodes dropped
        used = set()
        for l in g.links.values():
            used.add(l.src)
            used.add(l.tgt)
        assert set(out.links) == set(g.links)
        assert set(out.nodes) == used


# ---------------------------------------------------------------------------
# Composition and semi-join


def test_compose_hand_example():
    a, b, c = node("a", type="user"), node("b", type="user"), node("c", type="user")
    g1 = build_graph([a, b], [link("l1", "a", "b", type="edge")])
    g2 = build_graph([c, b], [link("l2", "c", "b", type="edge")])
    out = compose(g1, g2, D("tgt", "tgt"), CompositionFn((("type", ConstString("x")),)))
    assert set(out.nodes) == {"a", "c"}
    (composed,) = out.links.values()
    assert composed.src == "a" and composed.tgt == "c"
    assert composed.attrs["type"] == frozenset({"x"})
    assert composed.id == "gen:compose:l1:l2"


def test_compose_with_linkless_operand(cf_graph):
    assert compose(cf_graph, EMPTY, D("tgt", "tgt"), CompositionFn((("w", COUNT),))) == EMPTY


def test_compose_default_type():
    g = build_graph(
        [node("a", type="user"), node("b", type="item")],
        [link("l1", "a", "b", type="visit")],
    )
    out = compose(g, g, D("tgt", "tgt"), CompositionFn((("n", COUNT),)))
    for l in out.links.values():
        assert l.attrs["type"] == frozenset({"composed"})
        assert l.attrs["n"] == frozenset({2.0})


def test_semi_join_hand_example():
    nodes = [node(x, type="user") for x in "abcde"]
    g1 = build_graph(nodes, [link("ab", "a", "b", type="e"), link("cd", "c", "d", type="e")])
    g2 = build_graph(
        [node("b", type="user"), node("e", type="user")], [link("be", "b", "e", type="e")]
    )
    out = semi_join(g1, g2, D("tgt", "src"))
    assert set(out.links) == {"ab"}
    assert set(out.nodes) == {"a", "b"}


def test_semi_join_against_empty(cf_graph):
    assert semi_join(cf_graph, EMPTY, D("src", "src")) == EMPTY


def test_semi_join_null_g2_matches_nodes(cf_graph):
    john = node_select(cf_graph, cond(attr_eq("id", "101")))
    out = semi_join(cf_graph, john, D("src", "src"))
    assert set(out.links) == {"v1", "v2"}
    assert set(out.nodes) == {"101", "201", "202"}


def test_semi_join_null_g1_matches_node_ids(cf_graph):
    users = node_select(cf_graph, cond(attr_eq("type", "user")))
    out = semi_join(users, cf_graph, D("src", "src"))
    assert out.is_null
    assert set(out.nodes) == {"101", "102", "103"}


# ---------------------------------------------------------------------------
# Aggregation


def friend_graph():
    nodes = [node(u, type="user") for u in ("a", "b", "c")]
    links = [
        link("f1", "a", "b", type="friend"),
        link("f2", "a", "c", type="friend"),
        link("f3", "b", "c", type="friend"),
        link("t1", "a", "b", type="tag", tags=("x",)),
    ]
    return build_graph(nodes, links)


def test_node_aggregate_count():
    out = node_aggregate(friend_graph(), cond(attr_eq("type", "friend")), "src", "fnd_cnt", COUNT)
    assert out.nodes["a"].attrs["fnd_cnt"] == frozenset({2.0})
    assert out.nodes["b"].attrs["fnd_cnt"] == frozenset({1.0})
    # no qualifying links anchored at c: untouched
    assert "fnd_cnt" not in out.nodes["c"].attrs
    assert out.links == friend_graph().links


def test_node_aggregate_saf_vst(cf_graph):
    out = node_aggregate(cf_graph, cond(attr_eq("type", "visit")), "src", "vst", SafExpr("tgt"))
    assert out.nodes["101"].attrs["vst"] == frozenset({"201", "202"})
    assert out.nodes["102"].attrs["vst"] == frozenset({"201", "202", "203"})
    assert out.nodes["103"].attrs["vst"] == frozenset({"203"})
    assert "vst" not in out.nodes["201"].attrs


@pytest.mark.parametrize("att", ["id", "src", "tgt"])
def test_aggregations_may_not_write_an_identity_field(cf_graph, att):
    visits = cond(attr_eq("type", "visit"))
    calls = (
        lambda: node_aggregate(cf_graph, visits, "src", att, COUNT),
        lambda: link_aggregate(cf_graph, visits, (("n", COUNT), (att, COUNT))),
        lambda: pattern_aggregate(cf_graph, GraphPattern(((visits, "src"),)), ((att, COUNT),)),
    )
    for call in calls:
        with pytest.raises(ValueError, match=f"^aggregation may not overwrite '{att}'$"):
            call()


def test_node_aggregate_rejects_reserved():
    with pytest.raises(ValueError):
        node_aggregate(friend_graph(), Condition(), "src", "type", COUNT)
    with pytest.raises(ValueError):
        node_aggregate(friend_graph(), Condition(), "src", "x", ConstString("nope"))


def test_link_aggregate_match_collapse():
    nodes = [node("john", type="user"), node("ann", type="user")]
    links = [
        link("s1", "john", "ann", type="composed", sim=0.8),
        link("s2", "john", "ann", type="composed", sim=0.8),
        link("s3", "john", "ann", type="composed", sim=0.8),
    ]
    g = build_graph(nodes, links)
    out = link_aggregate(
        g, cond(attr_gt("sim", 0.5)), (("type", ConstString("match")), ("sim", CopyAny("sim")))
    )
    (match,) = out.links.values()
    assert match.attrs["type"] == frozenset({"match"})
    assert match.attrs["sim"] == frozenset({0.8})
    assert match.src == "john" and match.tgt == "ann"


def test_link_aggregate_count_per_pair_keeps_rest():
    nodes = [node(x, type="user") for x in ("u", "v")] + [node("i", type="item")]
    links = [
        link("c1", "u", "i", type="user_friend_item"),
        link("c2", "u", "i", type="user_friend_item"),
        link("c3", "v", "i", type="user_friend_item"),
        link("o1", "u", "v", type="friend"),
    ]
    g = build_graph(nodes, links)
    out = link_aggregate(g, cond(attr_eq("type", "user_friend_item")), (("vst_cnt", COUNT),))
    assert "o1" in out.links  # non-qualifying kept
    new = [l for l in out.links.values() if "vst_cnt" in l.attrs]
    assert {(l.src, l.tgt, tuple(l.attrs["vst_cnt"])) for l in new} == {
        ("u", "i", (2.0,)),
        ("v", "i", (1.0,)),
    }
    # inherited type from the collapsed partition
    assert all(l.attrs["type"] == frozenset({"user_friend_item"}) for l in new)
    assert set(out.nodes) == set(g.nodes)


def test_link_aggregate_no_qualifying_is_identity(cf_graph):
    out = link_aggregate(cf_graph, cond(attr_eq("type", "nothing")), (("n", COUNT),))
    assert out == cf_graph


def test_pattern_aggregate_friend_visit(cf_graph):
    g = set_op(
        SetOpKind.UNION,
        cf_graph,
        build_graph(
            [node("101", type="user"), node("102", type="user")],
            [link("m1", "101", "102", type="match", sim=2 / 3)],
        ),
    )
    gp = GraphPattern(((cond(attr_eq("type", "match")), "src"), (cond(attr_eq("type", "visit")), "src")))
    out = pattern_aggregate(g, gp, (("score", avg_of("sim", 0)),))
    new = [l for l in out.links.values() if l.id.startswith("gen:paggr:")]
    assert {(l.src, l.tgt) for l in new} == {("101", "201"), ("101", "202"), ("101", "203")}
    for l in new:
        (score,) = l.attrs["score"]
        assert score == pytest.approx(2 / 3)
        assert l.attrs["type"] == frozenset({"path"})
    # original graph retained
    assert set(g.links) <= set(out.links)


def test_pattern_route_equals_compose_route(cf_graph):
    # the two-step match-visit pattern produces the same per-destination
    # scores as composing match with visit links and then aggregating
    from socialgraph.aggfn import CopyFrom
    from socialgraph.graph import DirectionalCondition as D2

    match_link = build_graph(
        [node("101", type="user"), node("102", type="user")],
        [link("m1", "101", "102", type="match", sim=2 / 3)],
    )
    visits = link_select(cf_graph, cond(attr_eq("type", "visit")))
    merged = set_op(SetOpKind.UNION, match_link, visits)

    gp = GraphPattern(
        ((cond(attr_eq("type", "match")), "src"), (cond(attr_eq("type", "visit")), "src"))
    )
    via_pattern = pattern_aggregate(merged, gp, (("score", avg_of("sim", 0)),))

    composed = compose(
        semi_join(match_link, visits, D2("tgt", "src")),
        semi_join(visits, match_link, D2("src", "tgt")),
        D2("tgt", "src"),
        CompositionFn((("sim_sc", CopyFrom("left-link", "sim")),)),
    )
    via_compose = link_aggregate(composed, Condition(), (("score", avg_of("sim_sc")),))

    def scores(g, attr_name="score"):
        return {
            (l.src, l.tgt, tuple(sorted(l.attrs[attr_name])))
            for l in g.links.values()
            if attr_name in l.attrs
        }

    assert scores(via_pattern) == scores(via_compose)


def test_pattern_aggregate_no_match_is_identity(cf_graph):
    gp = GraphPattern(((cond(attr_eq("type", "match")), "src"),))
    assert pattern_aggregate(cf_graph, gp, (("n", COUNT),)) == cf_graph


def test_pattern_aggregate_length_one_equals_link_aggregate():
    rng = rng_from(42)
    visit = cond(attr_eq("type", "visit"))
    for _ in range(10):
        g = random_travel_graph(rng, n_users=6, n_places=8)
        gp = GraphPattern(((visit, "src"),))
        via_pattern = pattern_aggregate(g, gp, (("cnt", COUNT),))
        via_links = link_aggregate(g, visit, (("cnt", COUNT),))
        got = {
            (l.src, l.tgt, tuple(l.attrs["cnt"]))
            for l in via_pattern.links.values()
            if "cnt" in l.attrs
        }
        want = {
            (l.src, l.tgt, tuple(l.attrs["cnt"]))
            for l in via_links.links.values()
            if "cnt" in l.attrs
        }
        assert got == want


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: link_aggregate(EMPTY, Condition(), ()), "link aggregation needs at least one (attribute, spec) pair"),
        (
            lambda: pattern_aggregate(EMPTY, GraphPattern(((Condition(), "src"),)), ()),
            "pattern aggregation needs at least one (attribute, spec) pair",
        ),
        (lambda: GraphPattern(()), "graph patterns need at least one step"),
    ],
    ids=["laggr", "paggr", "pattern"],
)
def test_an_aggregation_needs_a_spec_and_a_pattern_a_step(make, message):
    with pytest.raises(ValueError) as err:
        make()
    assert str(err.value) == message


def test_pattern_too_long():
    """Patterns run up to four steps."""
    path = build_graph(
        [node(n, type="user") for n in "abcde"],
        [link(f"l{i}", s, t, type="e") for i, (s, t) in enumerate(zip("abcd", "bcde"))],
    )
    step = (Condition(), "src")
    got = pattern_aggregate(path, GraphPattern((step,) * 4), (("n", COUNT),))
    assert [(l.src, l.tgt, l.attrs["n"]) for l in got.links.values() if "n" in l.attrs] == [("a", "e", {1.0})]
    with pytest.raises(PatternTooLongError, match="^graph pattern has 5 steps, limit is 4$"):
        pattern_aggregate(path, GraphPattern((step,) * 5), (("n", COUNT),))
    with pytest.raises(PatternTooLongError):
        pattern_aggregate(EMPTY, GraphPattern((step,) * 5, ), (("n", COUNT),))


def test_pattern_does_not_reuse_links():
    # a 2-cycle: without link-distinctness the a->b->a->b chain would match
    g = build_graph(
        [node("a", type="user"), node("b", type="user")],
        [link("ab", "a", "b", type="e"), link("ba", "b", "a", type="e")],
    )
    gp = GraphPattern(((Condition(), "src"),) * 2)
    out = pattern_aggregate(g, gp, (("cnt", COUNT),))
    new = [l for l in out.links.values() if "cnt" in l.attrs]
    assert {(l.src, l.tgt, tuple(l.attrs["cnt"])) for l in new} == {
        ("a", "a", (1.0,)),
        ("b", "b", (1.0,)),
    }


@pytest.mark.parametrize(
    "make",
    [
        lambda: D("src", "up"),
        lambda: D("up", "tgt"),
        lambda: GraphPattern(((Condition(), "src"), (Condition(), "up"))),
        lambda: node_aggregate(EMPTY, Condition(), "up", "n", COUNT),
    ],
    ids=["delta-d2", "delta-d1", "pattern-step", "naggr"],
)
def test_a_bad_direction_is_named_in_one_message(make):
    with pytest.raises(ValueError) as e:
        make()
    assert str(e.value) == "direction must be 'src' or 'tgt', got 'up'"


# ---------------------------------------------------------------------------
# Cross-cutting invariants


def test_selection_commutes_with_union():
    # id-wise: consolidation may merge attribute sets, so only the
    # selected id set is required to agree
    rng = rng_from(55)
    c = cond(attr_eq("type", "user"))
    for _ in range(10):
        g1 = random_plain_graph(rng, 8, 10)
        g2 = random_plain_graph(rng, 8, 10)
        direct = node_select(set_op(SetOpKind.UNION, g1, g2), c)
        split = set_op(SetOpKind.UNION, node_select(g1, c), node_select(g2, c))
        assert set(direct.nodes) == set(split.nodes)


def test_operators_are_deterministic(cf_graph):
    visit = cond(attr_eq("type", "visit"))
    first = link_aggregate(cf_graph, visit, (("n", COUNT), ("d", SafExpr("tgt"))))
    second = link_aggregate(cf_graph, visit, (("n", COUNT), ("d", SafExpr("tgt"))))
    assert first == second
    assert list(first.links) == list(second.links)


def test_closure_under_build_graph(cf_graph):
    # every operator output revalidates
    outputs = [
        node_select(cf_graph, cond(attr_eq("type", "user"))),
        link_select(cf_graph, cond(attr_eq("type", "visit"))),
        set_op(SetOpKind.UNION, cf_graph, cf_graph),
        link_minus(cf_graph, EMPTY),
        node_aggregate(cf_graph, cond(attr_eq("type", "visit")), "src", "vst", SafExpr("tgt")),
        link_aggregate(cf_graph, cond(attr_eq("type", "visit")), (("n", COUNT),)),
    ]
    for g in outputs:
        assert build_graph(g.nodes.values(), g.links.values()) == g


# The operators that mint or merge elements still check what they make.


def test_union_of_a_node_and_a_link_with_one_id_is_a_duplicate():
    g1 = build_graph([node("x", type="user")], [])
    g2 = build_graph([node("a", type="user")], [link("x", "a", "a", type="friend")])
    with pytest.raises(DuplicateIdError, match="duplicate element id: 'x'"):
        set_op(SetOpKind.UNION, g1, g2)


def test_intersect_of_a_link_with_other_endpoints_dangles():
    nodes = [node(n, type="user") for n in "abc"]
    g1 = build_graph(nodes, [link("l", "a", "b", type="friend")])
    g2 = build_graph(nodes[:1] + nodes[2:], [link("l", "a", "c", type="friend")])
    with pytest.raises(DanglingEndpointError, match="link 'l' references missing node 'b'"):
        set_op(SetOpKind.INTERSECT, g1, g2)


def test_link_aggregate_onto_an_id_the_graph_holds_is_a_duplicate(cf_graph):
    visit = cond(attr_eq("type", "visit"))
    first = link_aggregate(cf_graph, visit, (("n", COUNT),))
    minted = next(lid for lid in first.links if lid.startswith("gen:laggr:"))
    # the minted id kept on a link the condition does not select
    src, tgt = first.links[minted].src, first.links[minted].tgt
    g = build_graph(cf_graph.nodes.values(), [*cf_graph.links.values(), link(minted, src, tgt, type="note")])
    with pytest.raises(DuplicateIdError, match=f"duplicate element id: {minted!r}"):
        link_aggregate(g, visit, (("n", COUNT),))
