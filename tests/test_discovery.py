import pytest

from conftest import child_env, oracle_cf_scores, oracle_network_search
from socialgraph.discovery import (
    DiscoveryConfig,
    acted_items,
    cf_recommend,
    content_recommend,
    discover,
    network_search,
    rating,
    visited_items,
)
from socialgraph.dsl import parse_condition
from socialgraph.errors import DuplicateIdError, UnknownUserError
from socialgraph.fixtures import cf_fixture, random_travel_graph, rng_from
from socialgraph.graph import Condition, attr_eq, build_graph, link, node


def test_network_search_random_fixtures():
    cond = Condition(preds=(attr_eq("type", "destination"),))
    for seed in range(15):
        g = random_travel_graph(rng_from(seed), n_users=8, n_places=12)
        assert network_search(g, "u00", cond) == oracle_network_search(g, "u00", cond)


def test_network_search_keyword_condition():
    cond = parse_condition("[type='destination'; kw:'denver aspen']")
    for seed in range(5):
        g = random_travel_graph(rng_from(100 + seed), n_users=8, n_places=12)
        assert network_search(g, "u00", cond) == oracle_network_search(g, "u00", cond)


def test_network_search_no_friends():
    g = build_graph(
        [node("solo", type="user"), node("p", type=("item", "destination"))],
        [link("v", "solo", "p", type=("act", "visit"))],
    )
    out = network_search(g, "solo", Condition(preds=(attr_eq("type", "destination"),)))
    assert not out.links and not out.nodes


def test_network_search_unknown_user(cf_graph):
    with pytest.raises(UnknownUserError):
        network_search(cf_graph, "ghost", Condition())


def test_cf_recommend_fixture(cf_graph):
    scored, ranking = cf_recommend(cf_graph, "101")
    assert len(ranking) == 1
    item, score = ranking[0]
    assert item == "203"
    assert score == pytest.approx(2 / 3, abs=1e-9)
    # visited destinations stay in the provenance graph but not the ranking
    assert {l.tgt for l in scored.links.values()} == {"201", "202", "203"}


def test_cf_threshold_is_strict():
    # peer shares 2 of 4 places: similarity exactly 0.5 is excluded
    nodes = [node("101", type="user"), node("2", type="user")] + [
        node(p, type=("item", "destination")) for p in ("P", "Q", "R", "S")
    ]
    links = [
        link("a", "101", "P", type="visit"),
        link("b", "101", "Q", type="visit"),
        link("c", "2", "P", type="visit"),
        link("d", "2", "Q", type="visit"),
        link("e", "2", "R", type="visit"),
        link("f", "2", "S", type="visit"),
    ]
    g = build_graph(nodes, links)
    _, ranking = cf_recommend(g, "101", DiscoveryConfig(sim_threshold=0.5))
    assert ranking == []
    _, ranking = cf_recommend(g, "101", DiscoveryConfig(sim_threshold=0.49))
    assert [item for item, _ in ranking] == ["R", "S"]


def test_cf_no_visits_empty_ranking():
    g = build_graph(
        [node("101", type="user"), node("2", type="user"), node("P", type=("item", "destination"))],
        [link("v", "2", "P", type="visit")],
    )
    _, ranking = cf_recommend(g, "101")
    assert ranking == []


def test_cf_never_recommends_visited():
    for seed in range(10):
        g = random_travel_graph(rng_from(200 + seed), n_users=8, n_places=12)
        _, ranking = cf_recommend(g, "u00", DiscoveryConfig(sim_threshold=0.2))
        visited = visited_items(g, "u00")
        assert all(item not in visited for item, _ in ranking)


def test_cf_matches_bruteforce_oracle_random():
    for seed in range(20):
        g = random_travel_graph(rng_from(300 + seed), n_users=8, n_places=10, visit_prob=0.3)
        for threshold in (0.2, 0.5):
            _, ranking = cf_recommend(g, "u00", DiscoveryConfig(sim_threshold=threshold))
            want = oracle_cf_scores(g, "u00", threshold)
            assert [i for i, _ in ranking] == [i for i, _ in want]
            for (_, got), (_, expect) in zip(ranking, want):
                assert got == pytest.approx(expect, abs=1e-9)


def test_cf_order_invariant_under_common_scaling(cf_graph):
    # scaling every contribution equally preserves the item order
    _, base = cf_recommend(cf_graph, "101")
    order = [i for i, _ in base]
    scaled = [(i, s * 0.5) for i, s in base]
    assert [i for i, _ in sorted(scaled, key=lambda e: (-e[1], e[0]))] == order


def test_rating_defaults(cf_graph):
    assert rating(cf_graph, "102", "203") == 1.0  # linked, no rating attr
    assert rating(cf_graph, "101", "203") == 0.0  # no link
    g = build_graph(
        [node("u", type="user"), node("i", type="item")],
        [link("t", "u", "i", type=("act", "tag"), rating=0.8)],
    )
    assert rating(g, "u", "i") == 0.8


def test_content_recommend_arithmetic():
    # u rated i2 (1.0 default); ItemSim(i1, i2) = 0.5 => score 0.5
    nodes = [node("u", type="user"), node("a", type="user"), node("b", type="user")]
    nodes += [node("i1", type="item"), node("i2", type="item")]
    links = [
        link("t1", "u", "i2", type=("act", "tag"), tags="x"),
        link("t2", "a", "i2", type=("act", "tag"), tags="x"),
        link("t3", "a", "i1", type=("act", "tag"), tags="x"),
        link("t4", "b", "i1", type=("act", "tag"), tags="x"),
    ]
    g = build_graph(nodes, links)
    # taggers(i1) = {a, b}; taggers(i2) = {u, a}; jaccard = 1/3
    out = content_recommend(g, "u", 5)
    assert out == [("i1", pytest.approx(1 / 3))]


def test_content_recommend_no_rated_items():
    g = build_graph([node("u", type="user"), node("i", type="item")], [])
    assert content_recommend(g, "u", 5) == []


@pytest.mark.parametrize("k", [0, -1])
def test_content_recommend_rejects_k_below_one(cf_graph, k):
    with pytest.raises(ValueError, match="k must be at least 1"):
        content_recommend(cf_graph, "101", k)


def test_content_recommend_matches_exhaustive_random():
    from socialgraph.aggfn import jaccard

    for seed in range(8):
        g = random_travel_graph(rng_from(400 + seed), n_users=6, n_places=20, tag_prob=0.2)
        got = content_recommend(g, "u00", 50)
        taggers = {}
        for l in g.links.values():
            if "tag" in l.attrs["type"]:
                taggers.setdefault(l.tgt, set()).add(l.src)
        mine = acted_items(g, "u00")
        want = []
        for n in g.nodes.values():
            if "item" not in n.attrs["type"] or n.id in mine:
                continue
            best = 0.0
            for other in mine:
                sim = jaccard(taggers.get(n.id, ()), taggers.get(other, ()))
                best = max(best, sim * rating(g, "u00", other))
            if best > 0:
                want.append((n.id, best))
        want.sort(key=lambda e: (-e[1], e[0]))
        assert got == want


def test_discover_empty_query_equals_cf_order(cf_graph):
    msg = discover(cf_graph, "101", Condition())
    _, cf_rank = cf_recommend(cf_graph, "101")
    assert [i for i, *_ in msg.ranking] == [i for i, _ in cf_rank]


def test_discover_alpha_one_is_pure_keyword_order():
    g = cf_fixture()
    cond = parse_condition("[; kw:'r q']")  # matches names R and Q
    msg = discover(g, "101", cond, DiscoveryConfig(alpha=1.0))
    # Q and R each match one of two keywords; ties break by id; visited Q excluded
    assert [i for i, *_ in msg.ranking] == ["203"]
    item, combined, semantic, social = msg.ranking[0]
    assert combined == semantic == pytest.approx(0.5)


def test_discover_alpha_zero_is_cf_order_on_candidates():
    for seed in range(6):
        g = random_travel_graph(rng_from(500 + seed), n_users=8, n_places=12, visit_prob=0.3)
        msg = discover(g, "u00", Condition(), DiscoveryConfig(alpha=0.0, sim_threshold=0.2, k=50))
        _, cf_rank = cf_recommend(g, "u00", DiscoveryConfig(sim_threshold=0.2))
        assert [i for i, *_ in msg.ranking] == [i for i, _ in cf_rank][: len(msg.ranking)]
        assert len(msg.ranking) == min(50, len(cf_rank))


def test_discover_msg_provenance(cf_graph):
    msg = discover(cf_graph, "101", parse_condition("[name='R']"), DiscoveryConfig(k=3))
    assert [i for i, *_ in msg.ranking] == ["203"]
    assert set(msg.graph.nodes) == {"101", "102", "203"}
    types = sorted(tuple(sorted(l.attrs["type"])) for l in msg.graph.links.values())
    assert types == [("act", "visit"), ("match",)]
    # provenance closure: every match link's peer visits a ranked item
    ranked = {i for i, *_ in msg.ranking}
    for l in msg.graph.links.values():
        if "match" in l.attrs["type"]:
            assert any(
                v.src == l.tgt and v.tgt in ranked and "visit" in v.attrs["type"]
                for v in msg.graph.links.values()
            )


def peer_graph(place, extra=()):
    """u and p both visited d1; p also visited ``place``, which u may be
    recommended."""
    nodes = [node("u", type="user"), node("p", type="user"), node("d1", type=("item", "destination"))]
    nodes += [node(place, type=("item", "destination")), *extra]
    links = [
        link("v1", "u", "d1", type="visit"),
        link("v2", "p", "d1", type="visit"),
        link("v3", "p", place, type="visit"),
    ]
    return build_graph(nodes, links)


DESTINATIONS = Condition(preds=(attr_eq("type", "destination"),))
LOW = DiscoveryConfig(sim_threshold=0.1)


def test_discover_rejects_a_match_link_id_equal_to_a_ranked_node_id():
    (match_id,) = discover(peer_graph("d2"), "u", DESTINATIONS, LOW).graph.links.keys() - {"v2", "v3"}
    with pytest.raises(DuplicateIdError) as err:
        discover(peer_graph(match_id), "u", DESTINATIONS, LOW)
    assert err.value.element_id == match_id


def test_discover_takes_match_links_from_the_user_only():
    """``[id = 'u']`` is exactly u: no node can store an ``id``, and a
    peer whose name is 'u' stays a peer, so each item is ranked once."""
    with pytest.raises(ValueError, match="'id' is an identity field"):
        node("x", type="user", id="u")
    g = peer_graph("d2", [node("x", type="user", name="u"), node("d3", type=("item", "destination"))])
    extra = [link("v4", "x", "d1", type="visit"), link("v5", "x", "d2", type="visit"), link("v6", "x", "d3", type="visit")]
    g = build_graph(g.nodes.values(), [*g.links.values(), *extra])
    msg = discover(g, "u", DESTINATIONS, LOW)
    assert sorted(i for i, *_ in msg.ranking) == ["d2", "d3"]
    matches = [l for l in msg.graph.links.values() if "match" in l.attrs["type"]]
    assert sorted((l.src, l.tgt) for l in matches) == [("u", "p"), ("u", "x")]
    assert [i for i, _ in cf_recommend(g, "u", LOW)[1]] == ["d2", "d3"]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_user_gets_each_item_ranked_at_most_once(seed):
    g = random_travel_graph(rng_from(seed))
    cfg = DiscoveryConfig(sim_threshold=0.0, k=len(g.nodes))
    for user in sorted(nid for nid, n in g.nodes.items() if "user" in n.attrs["type"]):
        for items in (
            [i for i, _ in cf_recommend(g, user, cfg)[1]],
            [i for i, *_ in discover(g, user, Condition(), cfg).ranking],
        ):
            assert len(items) == len(set(items)), (user, items)


def test_discover_combined_is_alpha_blend(cf_graph):
    cfg = DiscoveryConfig(alpha=0.3)
    msg = discover(cf_graph, "101", Condition(), cfg)
    for _, combined, semantic, social in msg.ranking:
        assert combined == pytest.approx(cfg.alpha * semantic + (1 - cfg.alpha) * social)
        assert 0.0 <= combined <= 1.0


def test_discover_unknown_user(cf_graph):
    with pytest.raises(UnknownUserError):
        discover(cf_graph, "ghost", Condition())


@pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -5.0, 1.5])
def test_config_rejects_threshold_outside_unit_interval(threshold):
    with pytest.raises(ValueError, match=r"threshold must be in \[0, 1\]"):
        DiscoveryConfig(sim_threshold=threshold)


@pytest.mark.parametrize("threshold", [0.0, 1.0])
def test_config_accepts_threshold_bounds(threshold):
    assert DiscoveryConfig(sim_threshold=threshold).sim_threshold == threshold


_PROVENANCE_SNIPPET = """
from socialgraph.discovery import DiscoveryConfig, discover
from socialgraph.fixtures import random_travel_graph, rng_from
from socialgraph.graph import Condition, attr_eq
g = random_travel_graph(rng_from(1), 30, 60)
query = Condition(preds=(attr_eq("type", "destination"),))
cfg = DiscoveryConfig(sim_threshold=0.1, k=30)
for u in sorted(nid for nid, n in g.nodes.items() if "user" in n.attrs["type"]):
    print(u, *discover(g, u, query, cfg).graph.nodes)
"""


def _provenance_orders_subprocess(hash_seed: str) -> str:
    import subprocess
    import sys

    out = subprocess.run(
        [sys.executable, "-c", _PROVENANCE_SNIPPET],
        capture_output=True,
        text=True,
        env=child_env(PYTHONHASHSEED=hash_seed),
        check=True,
    )
    return out.stdout


def test_provenance_node_order_does_not_depend_on_the_hash_seed():
    first = _provenance_orders_subprocess("1")
    assert len(first.splitlines()) == 30
    assert first == _provenance_orders_subprocess("2")
