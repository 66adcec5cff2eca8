import pytest

from conftest import oracle_exact_score
from socialgraph.errors import UnknownUserError
from socialgraph.fixtures import random_tagging_graph, rng_from
from socialgraph.graph import build_graph
from socialgraph.index import (
    ClusteringStrategy,
    SocialSets,
    build_index,
    cluster_users,
    estimate_index_size,
    exact_score,
    exhaustive_topk,
    social_sets,
    topk_query,
)
from socialgraph.io import load_index_snapshot, save_index_snapshot


def sets_of(**kwargs):
    network = {u: frozenset(v) for u, v in kwargs.get("network", {}).items()}
    items = {u: frozenset(v) for u, v in kwargs.get("items", {}).items()}
    taggers = {k: frozenset(v) for k, v in kwargs.get("taggers", {}).items()}
    return SocialSets(network=network, items=items, taggers=taggers)


def test_social_sets_travel_pair(travel_graph):
    sets = social_sets(travel_graph)
    assert sets.taggers[("2", "baseball")] == frozenset({"1"})
    assert sets.taggers[("2", "rockies")] == frozenset({"1"})
    assert sets.items["1"] == frozenset({"2"})


def test_social_sets_empty():
    sets = social_sets(build_graph([], []))
    assert sets.network == {} and sets.items == {} and sets.taggers == {}


def test_social_sets_friendship_symmetric(jazz_graph):
    sets = social_sets(jazz_graph)
    assert sets.network["u1"] == frozenset({"u2", "u3"})
    assert sets.network["u2"] == frozenset({"u1"})
    assert sets.network["u3"] == frozenset({"u1"})


def test_social_sets_matches_link_scan_oracle():
    rng = rng_from(17)
    g = random_tagging_graph(rng, n_users=30, n_items=60, n_tags=8)
    sets = social_sets(g)
    for (item, tag), users in sets.taggers.items():
        for u in users:
            assert oracle_exact_score(g, item, u, [tag]) >= 0  # sanity of oracle inputs
    # taggers from a raw scan
    want = {}
    for l in g.links.values():
        if "tag" in l.attrs["type"]:
            for t in l.attrs.get("tags", ()):
                want.setdefault((l.tgt, t), set()).add(l.src)
    assert {k: frozenset(v) for k, v in want.items()} == sets.taggers


def test_cluster_theta_zero_single_cluster():
    sets = sets_of(network={"a": {"b"}, "b": {"a"}, "c": {"a"}})
    model = cluster_users(sets, ClusteringStrategy("network", 0.0))
    assert len(set(model.assignment.values())) == 1
    assert model.leaders == {"a": "a"}


def test_cluster_theta_one_requires_identical_sets():
    sets = sets_of(items={"a": {"x", "y"}, "b": {"x", "y"}, "c": {"x"}})
    model = cluster_users(sets, ClusteringStrategy("behavior", 1.0))
    assert model.assignment["a"] == model.assignment["b"]
    assert model.assignment["c"] != model.assignment["a"]


def test_cluster_network_two_thirds():
    sets = sets_of(network={"u1": {"a", "b", "c"}, "u2": {"a", "b"}})
    model = cluster_users(sets, ClusteringStrategy("network", 0.5))
    assert model.assignment["u1"] == model.assignment["u2"]


def test_hybrid_empty_network_singletons():
    sets = sets_of(
        network={"a": set(), "b": set(), "c": {"a"}},
        items={"a": {"x"}, "b": {"x"}},
    )
    model = cluster_users(sets, ClusteringStrategy("hybrid", 0.0))
    assert model.assignment["a"] != model.assignment["b"]


def test_cluster_members_satisfy_leader_predicate():
    rng = rng_from(23)
    g = random_tagging_graph(rng, n_users=40, n_items=80, n_tags=10)
    sets = social_sets(g)
    from socialgraph.aggfn import jaccard

    for kind in ("network", "behavior", "hybrid"):
        for theta in (0.3, 0.8):
            model = cluster_users(sets, ClusteringStrategy(kind, theta))
            for u, cid in model.assignment.items():
                leader = model.leaders[cid]
                if u == leader:
                    continue
                if kind == "network":
                    assert jaccard(sets.network[u], sets.network[leader]) >= theta
                elif kind == "behavior":
                    assert jaccard(sets.items[u], sets.items[leader]) >= theta
                else:
                    assert sets.network[u] and sets.network[leader]
                    assert all(
                        jaccard(sets.items.get(v1, ()), sets.items.get(v2, ())) >= theta
                        for v1 in sets.network[u]
                        for v2 in sets.network[leader]
                    )


def test_a_clustering_strategy_is_one_of_three_kinds():
    with pytest.raises(ValueError, match="^unknown clustering strategy: 'social'$"):
        ClusteringStrategy("social", 0.5)


def test_build_index_jazz(jazz_graph):
    sets = social_sets(jazz_graph)
    assert exact_score(sets, "i1", "u1", ["jazz"]) == 2
    model = cluster_users(sets, ClusteringStrategy("network", 0.5))
    index = build_index(sets, model, {"jazz"})
    cid = model.assignment["u1"]
    assert index.lists[("jazz", cid)] == (("i1", 2),)


def test_build_index_singleton_scores_are_exact():
    rng = rng_from(29)
    g = random_tagging_graph(rng, n_users=25, n_items=50, n_tags=6)
    sets = social_sets(g)
    model = cluster_users(sets, ClusteringStrategy("behavior", 1.0))
    singleton = {u for u, cid in model.assignment.items() if model.leaders[cid] == u
                 and sum(1 for c in model.assignment.values() if c == cid) == 1}
    index = build_index(sets, model, {t for (_, t) in sets.taggers})
    for (tag, cid), entries in index.lists.items():
        leader = model.leaders[cid]
        if leader in singleton:
            for item, stored in entries:
                assert stored == exact_score(sets, item, leader, [tag])


def test_build_index_cluster_max():
    sets = sets_of(
        network={"u1": {"t1", "t2", "t3"}, "u2": {"t1", "t2"}, "t1": set(), "t2": set(), "t3": set()},
        taggers={("i", "k"): {"t1", "t2", "t3"}},
    )
    model = cluster_users(sets, ClusteringStrategy("network", 0.5))
    assert model.assignment["u1"] == model.assignment["u2"]
    index = build_index(sets, model, {"k"})
    cid = model.assignment["u1"]
    assert dict(index.lists[("k", cid)])["i"] == 3  # max(3, 2)


def test_stored_scores_equal_cluster_max_random():
    rng = rng_from(43)
    g = random_tagging_graph(rng, n_users=30, n_items=60, n_tags=8)
    sets = social_sets(g)
    model = cluster_users(sets, ClusteringStrategy("network", 0.3))
    index = build_index(sets, model, {t for (_, t) in sets.taggers})
    members = {}
    for u, cid in model.assignment.items():
        members.setdefault(cid, []).append(u)
    for (tag, cid), entries in index.lists.items():
        for item, stored in entries:
            assert stored == max(
                exact_score(sets, item, u, [tag]) for u in members[cid]
            )


def test_built_index_holds_one_tuple_per_pair():
    sets = social_sets(random_tagging_graph(rng_from(3), 40, 80, n_tags=6, n_communities=3))
    idx = build_index(sets, cluster_users(sets, ClusteringStrategy("behavior", 0.3)), sorted(sets.tags))
    entries = [e for entries in idx.lists.values() for e in entries]
    assert len({id(e) for e in entries}) == len(set(entries)) < len(entries)


def test_exact_score_cases(jazz_graph):
    sets = social_sets(jazz_graph)
    assert exact_score(sets, "nope", "u1", ["jazz"]) == 0
    assert exact_score(sets, "i1", "u1", ["jazz", "jazz"]) == 4  # g = sum over keywords
    assert exact_score(sets, "i1", "u1", ["jazz", "rock"]) == 2


def test_exact_score_matches_link_scan_oracle():
    g = random_tagging_graph(rng_from(5), n_users=12, n_items=20, n_tags=4, n_communities=2)
    sets = social_sets(g)
    tags = sorted(sets.tags)
    for keywords in ([tags[0]], tags[:2], [tags[1], tags[1]], [tags[2], "ghost"], []):
        for item in sorted({item for item, _ in sets.taggers}) + ["nope"]:
            for user in sets.users + ["ghost"]:
                assert exact_score(sets, item, user, keywords) == oracle_exact_score(g, item, user, keywords)


def test_topk_full_ranking_when_k_large(jazz_graph):
    sets = social_sets(jazz_graph)
    model = cluster_users(sets, ClusteringStrategy("network", 0.5))
    index = build_index(sets, model, {"jazz"})
    assert topk_query(index, "u1", ["jazz"], 10) == [("i1", 2)]
    assert topk_query(index, "u1", ["jazz"], 1) == [("i1", 2)]


def test_topk_unknown_user(jazz_graph):
    sets = social_sets(jazz_graph)
    model = cluster_users(sets, ClusteringStrategy("network", 0.5))
    index = build_index(sets, model, {"jazz"})
    with pytest.raises(UnknownUserError):
        topk_query(index, "ghost", ["jazz"], 1)


def test_topk_missing_tag_is_empty_list(jazz_graph):
    sets = social_sets(jazz_graph)
    model = cluster_users(sets, ClusteringStrategy("network", 0.5))
    index = build_index(sets, model, {"jazz"})
    assert topk_query(index, "u1", ["unknown"], 3) == []


def test_topk_keyword_outside_the_vocabulary():
    """An index built for jazz and rock has no list for pop, but the items
    tagged pop still count in the exact score, so they are scored up front."""
    sets = sets_of(
        network={"u0": {"f"}, "f": {"u0"}},
        items={"f": {"i0", "i1"}},
        taggers={("i0", "pop"): {"f"}, ("i1", "jazz"): {"f"}, ("i1", "pop"): {"u0"}},
    )
    index = build_index(sets, cluster_users(sets, ClusteringStrategy("network", 0.3)), ["jazz", "rock"])
    assert topk_query(index, "u0", ["pop"], 3) == exhaustive_topk(sets, "u0", ["pop"], 3) == [("i0", 1)]
    assert index.vocabulary == {"jazz", "rock"}
    both = exhaustive_topk(sets, "u0", ["jazz", "pop"], 3)
    assert topk_query(index, "u0", ["jazz", "pop"], 3) == both == [("i0", 1), ("i1", 1)]
    assert topk_query(index, "u0", ["pop", "ghost"], 1) == [("i0", 1)]


def test_snapshot_of_every_tag_loads_with_its_vocabulary(tmp_path):
    """The CLI indexes every tag, and its snapshots load with that vocabulary."""
    sets = social_sets(random_tagging_graph(rng_from(5), n_users=20, n_items=40, n_tags=4))
    tags = {tag for _, tag in sets.taggers}
    index = build_index(sets, cluster_users(sets, ClusteringStrategy("network", 0.3)), tags)
    save_index_snapshot(index, tmp_path / "all.snap")
    assert load_index_snapshot(tmp_path / "all.snap").vocabulary == index.vocabulary == tags


def test_topk_matches_exhaustive_random():
    rng = rng_from(37)
    g = random_tagging_graph(rng, n_users=40, n_items=120, n_tags=10)
    sets = social_sets(g)
    tags = sorted({t for (_, t) in sets.taggers})
    for kind in ("network", "behavior"):
        model = cluster_users(sets, ClusteringStrategy(kind, 0.5))
        index = build_index(sets, model, set(tags))
        for u in sorted(sets.network)[::5]:
            kws = rng.sample(tags, 2)
            for k in (1, 3, 10):
                assert topk_query(index, u, kws, k) == exhaustive_topk(sets, u, kws, k)


def test_upper_bound_safety_random():
    rng = rng_from(41)
    g = random_tagging_graph(rng, n_users=40, n_items=120, n_tags=10)
    sets = social_sets(g)
    model = cluster_users(sets, ClusteringStrategy("network", 0.3))
    index = build_index(sets, model, {t for (_, t) in sets.taggers})
    for u, cid in model.assignment.items():
        for (item, tag), _ in sets.taggers.items():
            stored = dict(index.lists.get((tag, cid), ())).get(item, 0)
            assert stored >= exact_score(sets, item, u, [tag])


def test_estimate_index_size():
    assert estimate_index_size(100000, 1000000, 20, 0.05, 10) == 10**12
    assert estimate_index_size(0, 1000000, 20, 0.05, 10) == 0
    assert estimate_index_size(10, 10, 1, 1.0, 1) == 100
    with pytest.raises(ValueError):
        estimate_index_size(-1, 1, 1, 1.0, 1)
