"""Deterministic fixture graphs for tests and demos.

The generators take an explicit ``random.Random``; ``rng_from`` makes
one from a seed.
"""

from __future__ import annotations

import random

from .graph import SocialContentGraph, build_graph, link, node


def rng_from(seed) -> random.Random:
    return random.Random(seed)


def travel_pair() -> SocialContentGraph:
    """The two-node tagging fixture: a traveler, a city, one tag link."""
    n1 = node(1, type=("user", "traveler"), name="John")
    n2 = node(2, type=("item", "city"), name="Denver", keywords="skiing")
    l12 = link(12, 1, 2, type=("act", "tag"), date="2008-8-2", tags=("rockies", "baseball"))
    return build_graph([n1, n2], [l12])


def cf_fixture() -> SocialContentGraph:
    """Three travelers and three destinations for collaborative
    filtering: user 101 visited P and Q, Ann visited P, Q and R, Bob
    visited only R."""
    nodes = [
        node(101, type="user", name="John"),
        node(102, type="user", name="Ann"),
        node(103, type="user", name="Bob"),
        node(201, type=("item", "destination"), name="P"),
        node(202, type=("item", "destination"), name="Q"),
        node(203, type=("item", "destination"), name="R"),
    ]
    links = [
        link("v1", 101, 201, type=("act", "visit")),
        link("v2", 101, 202, type=("act", "visit")),
        link("v3", 102, 201, type=("act", "visit")),
        link("v4", 102, 202, type=("act", "visit")),
        link("v5", 102, 203, type=("act", "visit")),
        link("v6", 103, 203, type=("act", "visit")),
    ]
    return build_graph(nodes, links)


def minus_pair():
    """The two graphs of the minus-operator example: a triangle over
    nodes a, b, c and the subgraph holding just the (a, b) link."""
    a, b, c = (node(x, type="user", name=x) for x in "abc")
    ab = link("ab", "a", "b", type="edge")
    ac = link("ac", "a", "c", type="edge")
    bc = link("bc", "b", "c", type="edge")
    g1 = build_graph([a, b, c], [ab, ac, bc])
    g2 = build_graph([a, b], [ab])
    return g1, g2


def jazz_fixture() -> SocialContentGraph:
    """Index fixture: u1 is friends with u2 and u3, who both tagged
    item i1 with 'jazz' (so u1's exact score for i1/'jazz' is 2)."""
    nodes = [
        node("u1", type="user"),
        node("u2", type="user"),
        node("u3", type="user"),
        node("i1", type="item", name="Blue Note"),
    ]
    links = [
        link("f12", "u1", "u2", type=("connect", "friend")),
        link("f13", "u1", "u3", type=("connect", "friend")),
        link("t2", "u2", "i1", type=("act", "tag"), tags="jazz"),
        link("t3", "u3", "i1", type=("act", "tag"), tags="jazz"),
    ]
    return build_graph(nodes, links)


_CITY_WORDS = (
    "denver",
    "boulder",
    "aspen",
    "vail",
    "golden",
    "paris",
    "rome",
    "kyoto",
    "lima",
    "oslo",
)
_TAG_WORDS = ("baseball", "skiing", "museum", "food", "hiking", "music", "history", "beach")


def random_travel_graph(
    rng: random.Random,
    n_users: int = 10,
    n_places: int = 20,
    friend_prob: float = 0.25,
    visit_prob: float = 0.15,
    tag_prob: float = 0.10,
) -> SocialContentGraph:
    """A small travel-style graph: users with friend links, visit links
    to destinations, and tagging activity."""
    nodes = []
    user_ids = [f"u{i:02d}" for i in range(n_users)]
    place_ids = [f"p{i:02d}" for i in range(n_places)]
    for uid in user_ids:
        nodes.append(node(uid, type="user", name=f"user {uid}"))
    for i, pid in enumerate(place_ids):
        word = _CITY_WORDS[i % len(_CITY_WORDS)]
        nodes.append(
            node(
                pid,
                type=("item", "destination"),
                name=f"{word} spot {i}",
                keywords=rng.sample(_TAG_WORDS, 2),
            )
        )
    links = []
    serial = 0
    for u in user_ids:
        for v in user_ids:
            if u != v and rng.random() < friend_prob:
                links.append(link(f"f{serial:04d}", u, v, type=("connect", "friend")))
                serial += 1
    for u in user_ids:
        for p in place_ids:
            if rng.random() < visit_prob:
                links.append(link(f"v{serial:04d}", u, p, type=("act", "visit")))
                serial += 1
            if rng.random() < tag_prob:
                links.append(
                    link(
                        f"t{serial:04d}",
                        u,
                        p,
                        type=("act", "tag"),
                        tags=rng.sample(_TAG_WORDS, rng.randint(1, 2)),
                        rating=round(rng.uniform(0.1, 1.0), 2),
                    )
                )
                serial += 1
    return build_graph(nodes, links)


def random_tagging_graph(
    rng: random.Random,
    n_users: int = 100,
    n_items: int = 500,
    n_tags: int = 20,
    n_communities: int = 10,
    friends_within: float = 0.35,
    friends_across: float = 0.01,
    tags_per_user: int = 8,
) -> SocialContentGraph:
    """A community-structured tagging graph for index tests: friendship
    and tag vocabularies concentrate within communities, so the
    clustering strategies have real structure to find."""
    tags = [f"tag{i:02d}" for i in range(n_tags)]
    nodes = []
    user_ids = [f"u{i:03d}" for i in range(n_users)]
    item_ids = [f"i{i:03d}" for i in range(n_items)]
    community = {u: idx % n_communities for idx, u in enumerate(user_ids)}
    for uid in user_ids:
        nodes.append(node(uid, type="user"))
    for iid in item_ids:
        nodes.append(node(iid, type="item"))
    links = []
    serial = 0
    for i, u in enumerate(user_ids):
        for v in user_ids[i + 1 :]:
            p = friends_within if community[u] == community[v] else friends_across
            if rng.random() < p:
                links.append(link(f"f{serial:05d}", u, v, type=("connect", "friend")))
                serial += 1
    for u in user_ids:
        base = community[u]
        item_pool = [iid for idx, iid in enumerate(item_ids) if idx % n_communities == base]
        tag_pool = tags[base % n_tags : base % n_tags + 5] or tags[:5]
        for _ in range(tags_per_user):
            iid = rng.choice(item_pool if rng.random() < 0.8 else item_ids)
            chosen = rng.sample(tag_pool, rng.randint(1, min(3, len(tag_pool))))
            if rng.random() < 0.2:
                chosen.append(rng.choice(tags))
            links.append(
                link(f"t{serial:05d}", u, iid, type=("act", "tag"), tags=set(chosen))
            )
            serial += 1
    return build_graph(nodes, links)


def random_plain_graph(rng: random.Random, n_nodes: int = 10, n_links: int = 15) -> SocialContentGraph:
    """An unstructured attributed graph (for round-trip and minus
    tests); attribute values mix strings, floats and multi-values."""
    nodes = []
    for i in range(n_nodes):
        attrs = {"type": rng.choice(["user", "item", ("user", "expert")])}
        if rng.random() < 0.7:
            attrs["name"] = f"node {i}"
        if rng.random() < 0.5:
            attrs["weight"] = round(rng.uniform(0, 5), 3)
        if rng.random() < 0.3:
            attrs["labels"] = tuple(rng.sample(_TAG_WORDS, 2))
        nodes.append(node(f"n{i:02d}", **attrs))
    links = []
    for j in range(n_links):
        src = f"n{rng.randrange(n_nodes):02d}"
        tgt = f"n{rng.randrange(n_nodes):02d}"
        attrs = {"type": rng.choice(["edge", "friend", ("act", "tag")])}
        if rng.random() < 0.5:
            attrs["w"] = round(rng.uniform(0, 1), 4)
        links.append(link(f"l{j:03d}", src, tgt, **attrs))
    return build_graph(nodes, links)
