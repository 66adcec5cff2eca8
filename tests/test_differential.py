"""Differential tests: the adjacency view, the hash-join ``compose``,
compiled conditions, the k-bounded ``topk_query`` and the streamed
``build_index`` against the naive references in ``reference.py``.

Graphs come from the seeded fixtures and from Hypothesis (small graphs
with multi-valued types, float and string values, and stored attributes
named like the ``id``/``src``/``tgt`` pseudo-attributes; small social
sets with tied scores, repeated keywords and tags without a list).
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reference import (
    acted_items_scan,
    all_taggers_scan,
    compose_nested,
    exact_tag_scores_dict,
    provenance_scan,
    rating_scan,
    satisfies_predicate,
    topk_resort,
    visited_items_scan,
)
from socialgraph import algebra, discovery, index
from socialgraph.aggfn import COUNT, CompositionFn, ConstString, CopyFrom, JaccardOf, SafExpr
from socialgraph.algebra import compose, link_aggregate, link_select, node_aggregate, node_select
from socialgraph.discovery import (
    DESTINATION,
    DiscoveryConfig,
    acted_items,
    cf_pipeline,
    cf_recommend,
    discover,
    rating,
    visited_items,
)
from socialgraph.fixtures import random_tagging_graph, random_travel_graph, rng_from
from socialgraph.graph import (
    COMPARISON_OPS,
    CONTAINS_ALL,
    Condition,
    DirectionalCondition,
    Link,
    Node,
    StructPredicate,
    build_graph,
    compile_condition,
    link,
    node,
    satisfies,
)
from socialgraph.index import (
    STRATEGIES,
    ClusteringStrategy,
    SocialSets,
    build_index,
    cluster_users,
    exhaustive_topk,
    social_sets,
    topk_query,
)
from socialgraph.io import save_index_snapshot

STRINGS = ("visit", "tag", "user", "item", "n0", "n1", "l0", "jazz")
FLOATS = (-1.5, 0.0, 0.5, 1.0, 2.0)
NODE_TYPES = (("user",), ("item",), ("user", "item"), ("item", "destination"), ("topic", 1.0))
LINK_TYPES = (("visit",), ("act", "visit"), ("connect", "friend"), ("act", "tag"), ("belong",), ("tag", 0.5))

values = st.frozensets(st.sampled_from(STRINGS + FLOATS), min_size=1, max_size=3)


def _attrs(draw, types, names) -> dict:
    attrs = {"type": frozenset(draw(st.sampled_from(types)))}
    attrs.update(draw(st.dictionaries(st.sampled_from(names), values, max_size=3)))
    return attrs


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 5))
    ids = [f"n{i}" for i in range(n)]
    nodes = [Node(nid, _attrs(draw, NODE_TYPES, ("w", "name", "id", "score"))) for nid in ids]
    links = []
    for j in range(draw(st.integers(0, 8))):
        src, tgt = draw(st.sampled_from(ids)), draw(st.sampled_from(ids))
        links.append(Link(f"l{j}", src, tgt, _attrs(draw, LINK_TYPES, ("rating", "tags", "w", "src", "score"))))
    return build_graph(nodes, links)


preds = st.builds(
    lambda attr, op, operands: StructPredicate(attr, op, operands if op == CONTAINS_ALL else operands[:1]),
    st.sampled_from(("type", "w", "rating", "name", "id", "src", "tgt", "missing")),
    st.sampled_from(COMPARISON_OPS + (CONTAINS_ALL,)),
    st.lists(st.sampled_from(STRINGS + FLOATS), min_size=1, max_size=2).map(tuple),
)
conditions = st.builds(
    Condition,
    st.lists(preds, max_size=3).map(tuple),
    st.lists(st.sampled_from(("jazz", "visit", "n0", "nothing")), max_size=2).map(tuple),
)

DELTAS = [DirectionalCondition(a, b) for a in ("src", "tgt") for b in ("src", "tgt")]
COMPOSITION_FNS = [
    CompositionFn((("sim", JaccardOf("left-src", "type", "right-tgt", "type")),)),
    CompositionFn((("kind", ConstString("c")), ("via", CopyFrom("left-link", "id")))),
    CompositionFn((("type", SafExpr("type")),)),
]


def outcome(fn, *args):
    """The graph a call returns with its node and link order, or the
    error it raises."""
    try:
        g = fn(*args)
    except Exception as e:  # both sides must fail alike
        return ("error", type(e).__name__, str(e))
    return g, list(g.nodes), list(g.links)


def fixture_graphs():
    return [random_travel_graph(rng_from(seed), 8, 12) for seed in (1, 2, 3)] + [
        random_tagging_graph(rng_from(seed), 12, 30, n_tags=6, n_communities=3) for seed in (4, 5)
    ]


# ---------------------------------------------------------------------------
# Compiled conditions


def _condition_ops(g, c):
    return [
        (node_select, g, c),
        (link_select, g, c),
        (node_aggregate, g, c, "src", "agg", SafExpr("tgt")),
        (link_aggregate, g, c, (("n", COUNT),)),
    ]


def check_condition(g, c):
    holds = compile_condition(c)
    for e in [*g.nodes.values(), *g.links.values()]:
        assert holds(e) == satisfies(e, c), (e, c)
    fast = [outcome(*op) for op in _condition_ops(g, c)]
    with mock.patch.object(algebra, "compile_condition", satisfies_predicate):
        slow = [outcome(*op) for op in _condition_ops(g, c)]
    assert fast == slow


@given(graphs(), conditions)
def test_compiled_conditions_match_satisfies(g, c):
    check_condition(g, c)


@pytest.mark.parametrize("g", fixture_graphs())
@given(c=conditions)
def test_compiled_conditions_match_satisfies_on_fixtures(g, c):
    check_condition(g, c)


def test_equality_on_floats_and_multivalued_types():
    g = build_graph(
        [Node("a", {"type": frozenset({"user", "item"}), "w": frozenset({1.0, "1.0"})})],
        [Link("l", "a", "a", {"type": frozenset({"act", "visit"}), "w": frozenset({0.5})})],
    )
    for attr, operand in (("type", "item"), ("type", "visit"), ("w", 1.0), ("w", "1.0"), ("w", 0.5), ("w", "0.5")):
        check_condition(g, Condition(preds=(StructPredicate(attr, "=", (operand,)),)))


# ---------------------------------------------------------------------------
# Hash-join composition


@given(graphs(), graphs(), st.sampled_from(DELTAS), st.sampled_from(COMPOSITION_FNS))
def test_compose_matches_nested_loop(g1, g2, delta, f):
    """Also pins the merged endpoints' attribute key order; the operands
    share ids n0..n4 with differing attributes and mixed-type scores."""
    for a, b in ((g1, g2), (g2, g1), (g1, g1)):
        fast, slow = outcome(compose, a, b, delta, f), outcome(compose_nested, a, b, delta, f)
        assert fast == slow
        if fast[0] != "error":
            assert attribute_order(fast[0]) == attribute_order(slow[0])


def attribute_order(g) -> list:
    return [(nid, list(n.attrs)) for nid, n in g.nodes.items()]


def test_compose_merges_again_when_the_side_changes():
    """n0 is a far endpoint from g1, g1, g1, g2, g1 in turn. Two merges of
    g1's n0 collapse its float scores to 0.5; the string score from g2
    stops the collapse, so the last g1 merge brings 0.3 back. k comes
    from g2 alone and keeps only its highest score."""
    g1 = build_graph(
        [node("n0", type="user", score=(0.3, 0.5)), node("h", type="user"), node("k", type="user")],
        [link(i, src, "n0", type="e") for i, src in (("a", "h"), ("b", "h"), ("c", "k"), ("z", "h"))],
    )
    g2 = build_graph(
        [node("n0", type="user", score="x"), node("h", type="user"), node("k", type="user", score=(0.1, 0.2))],
        [link("d", "h", "k", type="e"), link("e", "k", "n0", type="e")],
    )
    args = (g1, g2, DirectionalCondition("src", "src"), COMPOSITION_FNS[1])
    got = compose(*args)
    assert got.nodes["n0"].attrs["score"] == frozenset({0.3, 0.5, "x"})
    assert got.nodes["k"].attrs["score"] == frozenset({0.2})
    assert outcome(compose, *args) == outcome(compose_nested, *args)


@pytest.mark.parametrize("g", fixture_graphs())
@pytest.mark.parametrize("delta", DELTAS, ids=lambda d: f"{d.d1}-{d.d2}")
def test_self_compose_matches_nested_loop_on_fixtures(g, delta):
    for f in COMPOSITION_FNS:
        assert outcome(compose, g, g, delta, f) == outcome(compose_nested, g, g, delta, f)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cf_plan_matches_nested_loop_compose(seed):
    g = random_travel_graph(rng_from(seed), 15, 25)
    cfg = DiscoveryConfig(sim_threshold=0.1)
    users = sorted(nid for nid, n in g.nodes.items() if "user" in n.attrs["type"])
    fast = [cf_recommend(g, u, cfg) for u in users]
    with mock.patch.object(discovery, "compose", compose_nested):
        slow = [cf_recommend(g, u, cfg) for u in users]
    assert fast == slow
    for (scored, _), (ref, _) in zip(fast, slow):
        assert list(scored.links) == list(ref.links)


# ---------------------------------------------------------------------------
# Reads through the adjacency view


def check_adjacency_reads(g):
    ids = list(g.nodes) + ["absent"]
    for u in ids:
        assert visited_items(g, u) == visited_items_scan(g, u)
        assert acted_items(g, u) == acted_items_scan(g, u)
        for i in ids:
            assert rating(g, u, i) == rating_scan(g, u, i)
    sets = social_sets(g)
    for item in ids:
        assert sets.all_taggers(item) == all_taggers_scan(sets, item)


@given(graphs())
def test_adjacency_reads_match_full_scans(g):
    check_adjacency_reads(g)


@pytest.mark.parametrize("g", fixture_graphs())
def test_adjacency_reads_match_full_scans_on_fixtures(g):
    check_adjacency_reads(g)


@given(graphs())
def test_out_links_view_groups_links_in_order(g):
    by_src = {}
    for l in g.links.values():
        by_src.setdefault(l.src, []).append(l)
    assert g.out_links == by_src
    assert g.out_links is g.out_links  # built once
    assert g == build_graph(g.nodes.values(), g.links.values())  # the view is not part of equality


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_discover_provenance_matches_full_scan(seed):
    g = random_travel_graph(rng_from(seed), 15, 25)
    cfg = DiscoveryConfig(sim_threshold=0.1, k=8)
    query = Condition(preds=DESTINATION.preds, keywords=("food", "beach"))
    for u in sorted(nid for nid, n in g.nodes.items() if "user" in n.attrs["type"]):
        msg = discover(g, u, query, cfg)
        match = cf_pipeline(g, u, cfg.sim_threshold)["match"]
        assert outcome(lambda: msg.graph) == outcome(provenance_scan, g, u, msg.ranking, match)


# ---------------------------------------------------------------------------
# k-bounded top-k and the streamed index build


def counted(query, idx, user, keywords, k):
    """The answer of a top-k query, or the error it raises, with the
    number of ``exact_score`` calls (random accesses) it made."""
    calls = 0
    real = index.exact_score

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    with mock.patch.object(index, "exact_score", counting):
        try:
            got = query(idx, user, keywords, k)
        except Exception as e:
            got = ("error", type(e).__name__, str(e))
    return got, calls


def check_topk(idx, user, keywords, k, vocabulary):
    """Equal to the re-sorting reference in answer and random accesses;
    equal to the exhaustive ranking when every keyword with taggers was
    indexed."""
    fast = counted(topk_query, idx, user, keywords, k)
    assert fast == counted(topk_resort, idx, user, keywords, k), (user, keywords, k)
    tagged = {tag for _, tag in idx.sets.taggers}
    if isinstance(fast[0], list) and set(keywords) & tagged <= set(vocabulary):
        assert fast[0] == exhaustive_topk(idx.sets, user, keywords, k)


def check_build(sets, model, tags, tmp_path):
    assert list(index._exact_tag_scores(sets)) == list(exact_tag_scores_dict(sets).items())
    fast = build_index(sets, model, tags)
    with mock.patch.object(index, "_exact_tag_scores", lambda s: exact_tag_scores_dict(s).items()):
        slow = build_index(sets, model, tags)
    assert list(fast.lists.items()) == list(slow.lists.items())
    save_index_snapshot(fast, tmp_path / "fast.snap")
    save_index_snapshot(slow, tmp_path / "slow.snap")
    assert (tmp_path / "fast.snap").read_bytes() == (tmp_path / "slow.snap").read_bytes()


USERS = [f"u{i}" for i in range(5)]
TAGS = ("jazz", "rock", "pop")


@st.composite
def social_sets_st(draw):
    """Small social sets: a few friends and taggers per user, so exact
    and stored scores are 0-3 and ties at the k-th score and with the
    frontier are common."""
    users = st.frozensets(st.sampled_from(USERS), max_size=3)
    network = draw(st.dictionaries(st.sampled_from(USERS), users, max_size=5))
    keys = st.tuples(st.sampled_from([f"i{i}" for i in range(5)]), st.sampled_from(TAGS))
    taggers = draw(st.dictionaries(keys, users.filter(bool), max_size=10))
    items: dict = {}
    for (item, _), tagger_set in taggers.items():
        for u in tagger_set:
            items.setdefault(u, set()).add(item)
    return SocialSets(
        network=network, items={u: frozenset(v) for u, v in items.items()}, taggers=taggers
    )


strategies_st = st.builds(
    ClusteringStrategy, st.sampled_from(STRATEGIES), st.sampled_from((0.0, 0.3, 0.5, 1.0))
)


@given(
    social_sets_st(),
    strategies_st,
    # "pop" may be left out of the vocabulary and "ghost" never has a list
    st.sampled_from((TAGS, TAGS[:2])),
    st.lists(st.lists(st.sampled_from(TAGS + ("ghost",)), max_size=3), min_size=1, max_size=4),
    st.integers(1, 7),
)
def test_topk_matches_resort_and_exhaustive(sets, strategy, vocabulary, queries, k):
    idx = build_index(sets, cluster_users(sets, strategy), vocabulary)
    for user in USERS + ["ghost"]:
        for keywords in queries:
            check_topk(idx, user, keywords, k, vocabulary)


@given(sets=social_sets_st(), strategy=strategies_st)
def test_build_index_matches_materialised_scores(tmp_path_factory, sets, strategy):
    check_build(sets, cluster_users(sets, strategy), TAGS[:2], tmp_path_factory.mktemp("snap"))


def _tie_sets():
    """u0 and u1 share a cluster under network theta=0. u0's friend f1
    tagged a, b and c with jazz; u1 also has f2, who tagged b, so b's
    stored bound is 2 while u0 scores 1 on every item."""
    return SocialSets(
        network={"u0": frozenset({"f1"}), "u1": frozenset({"f1", "f2"})},
        items={"f1": frozenset("abc"), "f2": frozenset("b")},
        taggers={
            ("a", "jazz"): frozenset({"f1"}),
            ("b", "jazz"): frozenset({"f1", "f2"}),
            ("c", "jazz"): frozenset({"f1"}),
        },
    )


@pytest.mark.parametrize(
    "keywords, k, want, calls",
    [
        # the k-th score 1 ties the frontier 1 after round one: only the
        # strict test goes on to find a, which wins b's tie on its id
        (["jazz"], 1, [("a", 1)], 3),
        # ties at the k-th score: a, b and c all score 1
        (["jazz"], 2, [("a", 1), ("b", 1)], 3),
        # k beyond the number of candidates
        (["jazz"], 10, [("a", 1), ("b", 1), ("c", 1)], 3),
        # a repeated keyword doubles every score and scores each item once
        (["jazz", "jazz"], 2, [("a", 2), ("b", 2)], 3),
        ([], 3, [], 0),
        # a tag with no list adds nothing
        (["ghost"], 3, [], 0),
        (["jazz", "ghost"], 1, [("a", 1)], 3),
    ],
)
def test_topk_edge_cases(keywords, k, want, calls):
    sets = _tie_sets()
    idx = build_index(sets, cluster_users(sets, ClusteringStrategy("network", 0.0)), ["jazz"])
    assert idx.lists[("jazz", idx.model.assignment["u0"])][0] == ("b", 2)
    assert counted(topk_query, idx, "u0", keywords, k) == (want, calls)
    check_topk(idx, "u0", keywords, k, ["jazz"])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_topk_matches_resort_on_fixtures(seed):
    sets = social_sets(random_tagging_graph(rng_from(seed), 40, 80, n_tags=6, n_communities=3))
    tags = sorted({tag for _, tag in sets.taggers})
    for theta in (0.05, 0.3):
        idx = build_index(sets, cluster_users(sets, ClusteringStrategy("network", theta)), tags)
        for user in sets.users[::3]:
            for keywords in ([tags[0]], tags[1:3], [tags[2], tags[2]], tags[:4]):
                for k in (1, 5, 20):
                    check_topk(idx, user, keywords, k, tags)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("kind", STRATEGIES)
def test_build_index_matches_materialised_scores_on_fixtures(seed, kind, tmp_path):
    sets = social_sets(random_tagging_graph(rng_from(seed), 30, 60, n_tags=6, n_communities=3))
    tags = sorted({tag for _, tag in sets.taggers})
    check_build(sets, cluster_users(sets, ClusteringStrategy(kind, 0.3)), tags, tmp_path)
