from unittest import mock

import pytest

from socialgraph.errors import UnknownCriterionAttrError, UnknownItemError, UnknownUserError
from socialgraph.fixtures import rng_from
from socialgraph.graph import build_graph, link, node
from socialgraph.index import SocialSets, social_sets
from socialgraph.presentation import (
    ItemGroup,
    SocialGrouping,
    StructuralGrouping,
    TopicalGrouping,
    aggregate_explanations,
    explain_item,
    group_items,
    select_groups,
)


def tagging_graph():
    """Items with controlled tagger sets: i1 and i2 share all taggers,
    i3 is tagged by nobody who tagged the others."""
    nodes = [node(u, type="user") for u in ("a", "b", "c")]
    nodes += [node(i, type="item", name=f"place {i}") for i in ("i1", "i2", "i3")]
    links = [
        link("t1", "a", "i1", type=("act", "tag"), tags="x"),
        link("t2", "b", "i1", type=("act", "tag"), tags="x"),
        link("t3", "a", "i2", type=("act", "tag"), tags="y"),
        link("t4", "b", "i2", type=("act", "tag"), tags="y"),
        link("t5", "c", "i3", type=("act", "tag"), tags="z"),
    ]
    return build_graph(nodes, links)


def test_social_grouping_identical_taggers_share_group():
    g = tagging_graph()
    groups = group_items([("i1", 0.9), ("i2", 0.8), ("i3", 0.5)], g, SocialGrouping(theta=1.0))
    by_member = {m: grp.id for grp in groups for m in grp.members}
    assert by_member["i1"] == by_member["i2"]
    assert by_member["i3"] != by_member["i1"]


def test_social_grouping_disjoint_taggers_singletons():
    g = tagging_graph()
    groups = group_items([("i1", 0.9), ("i3", 0.5)], g, SocialGrouping(theta=0.1))
    assert all(grp.size == 1 for grp in groups)


def test_social_grouping_members_satisfy_leader_predicate():
    from socialgraph.aggfn import jaccard

    g = tagging_graph()
    sets = social_sets(g)
    theta = 0.5
    groups = group_items([("i1", 0.9), ("i2", 0.8), ("i3", 0.5)], g, SocialGrouping(theta=theta))
    for grp in groups:
        leader = grp.members[0]
        for member in grp.members:
            assert jaccard(sets.all_taggers(member), sets.all_taggers(leader)) >= theta


def test_social_grouping_partitions():
    g = tagging_graph()
    items = [("i1", 0.9), ("i2", 0.8), ("i3", 0.5)]
    groups = group_items(items, g, SocialGrouping(theta=0.3))
    seen = [m for grp in groups for m in grp.members]
    assert sorted(seen) == sorted(i for i, _ in items)
    assert len(seen) == len(set(seen))


def topic_graph():
    nodes = [node("i1", type="item"), node("i2", type="item"), node("i3", type="item")]
    nodes += [node("hist", type="topic", name="history"), node("art", type="topic", name="art")]
    links = [
        link("b1", "i1", "hist", type="belong"),
        link("b2", "i2", "hist", type="belong"),
        link("b3", "i2", "art", type="belong"),
    ]
    return build_graph(nodes, links)


def test_topical_grouping_with_residual():
    g = topic_graph()
    items = [("i1", 1.0), ("i2", 0.5), ("i3", 0.25)]
    groups = group_items(items, g, TopicalGrouping())
    by_id = {grp.id: grp for grp in groups}
    # i2 belongs to two topics; it lands in the smaller topic id ('art')
    assert by_id["topic:hist"].members == ("i1",)
    assert by_id["topic:art"].members == ("i2",)
    assert by_id["topic:(none)"].members == ("i3",)
    seen = [m for grp in groups for m in grp.members]
    assert len(seen) == len(set(seen)) == 3
    assert by_id["topic:hist"].label == "history"


def test_structural_grouping_by_type():
    nodes = [
        node("c1", type=("item", "city")),
        node("m1", type=("item", "museum")),
        node("m2", type=("item", "museum")),
    ]
    g = build_graph(nodes, [])
    groups = group_items(
        [("c1", 1.0), ("m1", 0.5), ("m2", 0.25)], g, StructuralGrouping(attr="type")
    )
    sizes = {grp.label: grp.size for grp in groups}
    assert sizes["museum"] == 2 and sizes["city"] == 1
    assert sizes["item"] == 3  # multi-valued items appear in each value group
    # coverage: every item appears at least once
    covered = {m for grp in groups for m in grp.members}
    assert covered == {"c1", "m1", "m2"}


def test_structural_grouping_unknown_attr():
    g = build_graph([node("i", type="item")], [])
    with pytest.raises(UnknownCriterionAttrError):
        group_items([("i", 1.0)], g, StructuralGrouping(attr="nope"))


def test_group_quality_is_mean_relevance():
    g = tagging_graph()
    groups = group_items([("i1", 1.0), ("i2", 0.5)], g, SocialGrouping(theta=1.0))
    (grp,) = groups
    assert grp.quality == pytest.approx(0.75)
    assert grp.size == 2


def test_select_groups_order_and_limit():
    mk = lambda gid, q, size: ItemGroup(
        id=gid, members=tuple(f"x{i}" for i in range(size)), label=gid, quality=q, size=size
    )
    g1, g2 = mk("a", 0.9, 1), mk("b", 0.5, 3)
    assert select_groups([g2, g1], 5) == [g1, g2]
    # equal quality: larger first
    g3, g4 = mk("c", 0.5, 1), mk("d", 0.5, 3)
    assert select_groups([g3, g4], 2) == [g4, g3]


def test_select_groups_matches_sort_oracle():
    rng = rng_from(61)
    groups = [
        ItemGroup(
            id=f"g{i:02d}",
            members=("m",),
            label="",
            quality=rng.choice([0.2, 0.5, 0.8]),
            size=rng.randint(1, 5),
        )
        for i in range(10)
    ]
    want = sorted(groups, key=lambda grp: (-grp.quality, -grp.size, grp.id))
    assert select_groups(groups, 3) == want[:3]
    assert select_groups(groups, 99) == want


def friends_endorse_graph():
    """User u with 5 friends, 3 of whom tagged item i."""
    nodes = [node("u", type="user"), node("i", type="item", name="spot")]
    nodes += [node(f"f{j}", type="user") for j in range(5)]
    links = [link(f"fr{j}", "u", f"f{j}", type=("connect", "friend")) for j in range(5)]
    links += [
        link(f"tg{j}", f"f{j}", "i", type=("act", "tag"), tags="nice") for j in range(3)
    ]
    return build_graph(nodes, links)


def test_aggregate_explanation_sixty_percent():
    g = friends_endorse_graph()
    summary, ratio = aggregate_explanations(g, "u", "i", "collaborative")
    assert summary == "60% of your friends endorsed this item"
    assert ratio == pytest.approx(0.6)


def test_aggregate_explanation_empty_network():
    g = build_graph([node("u", type="user"), node("i", type="item")], [])
    summary, ratio = aggregate_explanations(g, "u", "i", "collaborative")
    assert ratio == 0.0 and summary.startswith("0%")


def test_aggregate_explanation_group_mean():
    g = friends_endorse_graph()
    g2 = build_graph(
        list(g.nodes.values()) + [node("j", type="item")],
        list(g.links.values())
        + [link(f"tj{j}", f"f{j}", "j", type=("act", "tag"), tags="ok") for j in range(5)],
    )
    group = ItemGroup(id="grp", members=("i", "j"), label="spots", quality=1.0, size=2)
    summary, ratio = aggregate_explanations(g2, "u", group, "collaborative")
    assert ratio == pytest.approx((0.6 + 1.0) / 2)
    assert "80%" in summary and "spots" in summary


def test_aggregate_explanation_content_group_sentence():
    g = tagging_graph()
    # 'a' acted on i1 and i2: i1 is similar to both (ratio 1), i3 to neither (0)
    group = ItemGroup(id="grp", members=("i1", "i3"), label="mixed", quality=1.0, size=2)
    assert aggregate_explanations(g, "a", group, "content") == (
        "items in group 'mixed' are similar to 50% of items you visited before",
        0.5,
    )


@pytest.mark.parametrize(
    "explain",
    [
        explain_item,
        aggregate_explanations,
        lambda g, u, i, s: aggregate_explanations(g, u, ItemGroup("grp", (i,), "grp", 1.0, 1), s),
    ],
    ids=["explain_item", "aggregate item", "aggregate group"],
)
def test_unknown_explanation_strategy(explain):
    g = tagging_graph()
    with pytest.raises(ValueError, match="unknown explanation strategy: 'popular'"):
        explain(g, "a", "i1", "popular")
    # the ids are checked first
    with pytest.raises(UnknownUserError):
        explain(g, "ghost", "i1", "popular")
    with pytest.raises(UnknownItemError):
        explain(g, "a", "ghost", "popular")


def test_explain_collaborative_skips_users_who_did_not_act_on_the_item():
    nodes = [node(u, type="user") for u in ("a", "b", "c")] + [node(i, type="item") for i in ("i1", "i2")]
    links = [
        link("t1", "a", "i1", type="tag", tags="x"),
        link("t2", "b", "i1", type="tag", tags="x"),
        link("t3", "b", "i2", type="tag", tags="y"),
        link("t4", "c", "i1", type="tag", tags="x"),  # similar to 'a', but never acted on i2
    ]
    explanation = explain_item(build_graph(nodes, links), "a", "i2", "collaborative")
    assert explanation.evidence == (("b", 0.5),)


def test_explain_collaborative_cf_fixture(cf_graph):
    explanation = explain_item(cf_graph, "101", "203", "collaborative")
    assert explanation.subject == ("101", "203")
    assert len(explanation.evidence) == 1
    peer, weight = explanation.evidence[0]
    assert peer == "102"
    assert weight == pytest.approx(2 / 3)


def test_explain_content_no_rated_items():
    g = build_graph([node("u", type="user"), node("i", type="item")], [])
    explanation = explain_item(g, "u", "i", "content")
    assert explanation.evidence == ()


def test_explain_content_rated_item_explains_itself():
    g = tagging_graph()
    # 'a' tagged i1; ItemSim(i1, i1) = 1 so i1 explains itself at its rating
    explanation = explain_item(g, "a", "i1", "content")
    weights = dict(explanation.evidence)
    assert weights["i1"] == pytest.approx(1.0)


def test_a_content_explanation_builds_its_similarity_map_once():
    g = tagging_graph()
    counted = mock.patch.object(
        SocialSets, "item_similarities", autospec=True, side_effect=SocialSets.item_similarities
    )
    with counted as sims:
        explanation = explain_item(g, "a", "i1", "content")
    assert sims.call_count == 1
    assert explanation.summary == aggregate_explanations(g, "a", "i1", "content")[0]
    assert explanation.summary == "similar to 100% of items you visited before"


def test_explanation_weights_positive_and_reproducible(cf_graph):
    first = explain_item(cf_graph, "101", "203", "collaborative")
    second = explain_item(cf_graph, "101", "203", "collaborative")
    assert first == second
    assert all(w > 0 for _, w in first.evidence)


def test_explain_unknown_subject(cf_graph):
    with pytest.raises(UnknownUserError):
        explain_item(cf_graph, "ghost", "203", "collaborative")
    with pytest.raises(UnknownItemError):
        explain_item(cf_graph, "101", "ghost", "collaborative")


def test_aggregate_ratio_never_rounded():
    g = friends_endorse_graph()
    _, ratio = aggregate_explanations(g, "u", "i", "collaborative")
    assert ratio == 0.6  # exactly 3/5, not a rounded percentage


@pytest.mark.parametrize(
    "criterion",
    [SocialGrouping(theta=0.5), TopicalGrouping(), StructuralGrouping(attr="name")],
    ids=["social", "topical", "structural"],
)
def test_group_items_rejects_unknown_item(criterion):
    with pytest.raises(UnknownItemError) as err:
        group_items([("i1", 1.0), ("nope", 0.5)], tagging_graph(), criterion)
    assert err.value.item_id == "nope"


@pytest.mark.parametrize(
    "criterion",
    [SocialGrouping(theta=0.5), TopicalGrouping(), StructuralGrouping(attr="name")],
    ids=["social", "topical", "structural"],
)
def test_group_items_rejects_a_repeated_item(criterion):
    """A repeated id would found two groups of one id, or count one item twice in a group."""
    with pytest.raises(ValueError, match="duplicate item id: 'i1'"):
        group_items([("i1", 1.0), ("i2", 0.5), ("i1", 0.2)], tagging_graph(), criterion)
