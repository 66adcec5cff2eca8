"""Reference computations the benchmark checks the engine against.

Everything here reads raw nodes and links (``g.nodes``, ``g.links``,
``.attrs``, ``.src``, ``.tgt``) and never calls into ``algebra``,
``index`` or ``discovery``. The functions follow the documented
definitions directly, with no joins, indexes or pruning, so they are
slow but easy to audit. A failed check raises ``CheckFailed``.
"""

from __future__ import annotations

import re

TOL = 1e-9
_TOKEN_SPLIT = re.compile(r"[\W_]+", re.UNICODE)


class CheckFailed(Exception):
    """An engine output disagrees with its reference."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def jaccard(a, b) -> float:
    a, b = set(a), set(b)
    union = a | b
    return len(a & b) / len(union) if union else 0.0


def close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


class Raw:
    """Adjacency of one graph, built by plain iteration over its links.
    Per-node results are cached: the graph never changes."""

    def __init__(self, g):
        self.g = g
        self.out = {nid: [] for nid in g.nodes}
        for l in g.links.values():
            self.out[l.src].append(l)
        self._cache: dict = {}

    def _cached(self, kind: str, nid, compute):
        key = (kind, nid)
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def types(self, nid) -> frozenset:
        return self.g.nodes[nid].attrs["type"]

    def is_a(self, nid, kind: str) -> bool:
        return kind in self.types(nid)

    def ids_of(self, kind: str) -> list:
        return sorted(nid for nid in self.g.nodes if self.is_a(nid, kind))

    def visits(self, u) -> set:
        return self._cached(
            "visits", u, lambda: {l.tgt for l in self.out[u] if "visit" in l.attrs["type"]}
        )

    def acted(self, u) -> set:
        return self._cached(
            "acted", u, lambda: {l.tgt for l in self.out[u] if self.is_a(l.tgt, "item")}
        )

    def rating(self, u, item) -> float:
        """Maximum float 'rating' over u's links to item; 1.0 when
        linked without one; 0.0 when not linked."""

        def ratings() -> dict:
            """item -> the float ratings on u's links to it."""
            out: dict = {}
            for l in self.out[u]:
                out.setdefault(l.tgt, []).extend(
                    v for v in l.attrs.get("rating", ()) if isinstance(v, float)
                )
            return out

        values = self._cached("ratings", u, ratings).get(item)
        if values is None:
            return 0.0
        return max(values) if values else 1.0

    def friends(self, u) -> set:
        """Friendship read as symmetric."""
        out = set()
        for l in self.g.links.values():
            if "friend" in l.attrs["type"]:
                if l.src == u:
                    out.add(l.tgt)
                if l.tgt == u:
                    out.add(l.src)
        return out

    def any_taggers(self) -> dict:
        """item -> users with any 'tag' link to it."""
        out: dict = {}
        for l in self.g.links.values():
            if "tag" in l.attrs["type"]:
                out.setdefault(l.tgt, set()).add(l.src)
        return out

    def tag_taggers(self) -> dict:
        """item -> users with a 'tag' link to it carrying a string tag."""
        if not hasattr(self, "_tag_taggers"):
            self._tag_taggers: dict = {}
            for (item, _), users in TagSets(self.g).taggers.items():
                self._tag_taggers.setdefault(item, set()).update(users)
        return self._tag_taggers


# ---------------------------------------------------------------------------
# Collaborative filtering, content scores, discovery


def cf_scores(raw: Raw, u, theta: float) -> dict:
    """destination -> average similarity of the over-threshold peers
    who visited it (per visit link), visited destinations included."""
    mine = raw.visits(u)
    scores: dict = {}
    for p in raw.g.nodes:
        if p == u:
            continue
        theirs = raw.visits(p)
        if not mine & theirs:
            continue
        sim = jaccard(mine, theirs)
        if not sim > theta:
            continue
        for l in raw.out[p]:
            if "visit" in l.attrs["type"] and raw.is_a(l.tgt, "destination"):
                scores.setdefault(l.tgt, []).append(sim)
    return {d: sum(v) / len(v) for d, v in scores.items()}


def cf_ranking_scores(raw: Raw, u, theta: float) -> dict:
    skip = raw.visits(u)
    return {d: s for d, s in cf_scores(raw, u, theta).items() if d not in skip}


def content_scores(raw: Raw, u) -> dict:
    """Unseen item -> best tagger-set similarity times the user's
    rating of the similar item; positive scores only."""
    mine = raw.acted(u)
    taggers = raw.any_taggers()
    out = {}
    for item in raw.ids_of("item"):
        if item in mine:
            continue
        best = 0.0
        for other in mine:
            sim = jaccard(taggers.get(item, ()), taggers.get(other, ()))
            if sim > 0:
                best = max(best, sim * raw.rating(u, other))
        if best > 0:
            out[item] = best
    return out


def tokens(element) -> set:
    out = set()
    for values in element.attrs.values():
        for v in values:
            if isinstance(v, str):
                out.update(t for t in _TOKEN_SPLIT.split(v.lower()) if t)
    return out


def discover_entries(raw: Raw, u, scope_type: str, keywords, alpha, theta) -> dict:
    """item -> (combined, semantic, social) for every item that the
    combined discovery may rank."""
    keywords = [k.lower() for k in keywords]
    skip = raw.visits(u)
    candidates = [
        i for i in raw.ids_of("item") if i not in skip and raw.is_a(i, scope_type)
    ]
    cf = cf_ranking_scores(raw, u, theta)
    semantic = {}
    for i in candidates:
        toks = tokens(raw.g.nodes[i])
        semantic[i] = sum(1 for k in keywords if k in toks) / len(keywords) if keywords else 1.0
    raw_social = {i: cf.get(i, 0.0) for i in candidates}
    social = {}
    if raw_social:
        low, high = min(raw_social.values()), max(raw_social.values())
        for i, v in raw_social.items():
            social[i] = 1.0 if high == low else (v - low) / (high - low)
    out = {}
    for i in candidates:
        combined = alpha * semantic[i] + (1 - alpha) * social[i]
        evidence = (keywords and semantic[i] > 0) or raw_social[i] > 0
        if evidence and combined > 0:
            out[i] = (combined, semantic[i], social[i])
    return out


def check_ranking(what: str, ranking, expected: dict, k=None) -> None:
    """``ranking`` is a list of (item, score, ...) rows, ``expected``
    maps item -> score (or a tuple whose first field is the score).

    The rows must be distinct expected items with matching values, be
    ordered by score descending then item id, and be a valid top-k: as
    many rows as there are candidates (capped at k), and no left-out
    item may score above the last row.
    """
    def first(v):
        return v[0] if isinstance(v, tuple) else v

    items = [row[0] for row in ranking]
    require(len(set(items)) == len(items), f"{what}: duplicate items")
    for row in ranking:
        want = expected.get(row[0])
        require(want is not None, f"{what}: unexpected item {row[0]!r}")
        want = want if isinstance(want, tuple) else (want,)
        require(
            len(row) - 1 == len(want) and all(close(a, b) for a, b in zip(row[1:], want)),
            f"{what}: {row!r} != reference {want!r}",
        )
    keys = [(-row[1], row[0]) for row in ranking]
    require(keys == sorted(keys), f"{what}: not ordered by score then id")
    size = len(expected) if k is None else min(k, len(expected))
    require(len(ranking) == size, f"{what}: {len(ranking)} rows, expected {size}")
    if ranking:
        floor = ranking[-1][1]
        left_out = [first(v) for i, v in expected.items() if i not in set(items)]
        require(
            all(s <= floor + TOL for s in left_out), f"{what}: a higher-scoring item was left out"
        )


# ---------------------------------------------------------------------------
# Explanations


def explanation(raw: Raw, u, item, strategy: str):
    """(evidence rows, summary sentence) of explain_item."""
    taggers = raw.tag_taggers()
    mine = raw.acted(u)
    evidence = []
    if strategy == "content":
        for other in mine:
            sim = jaccard(taggers.get(item, ()), taggers.get(other, ()))
            weight = sim * raw.rating(u, other)
            if sim > 0 and weight > 0:
                evidence.append((other, weight))
        similar = sum(
            1 for other in mine if jaccard(taggers.get(item, ()), taggers.get(other, ())) > 0
        )
        ratio = similar / len(mine) if mine else 0.0
        summary = f"similar to {round(ratio * 100)}% of items you visited before"
    else:
        for v in raw.ids_of("user"):
            if v == u or item not in raw.acted(v):
                continue
            sim = jaccard(mine, raw.acted(v))
            weight = sim * raw.rating(v, item)
            if sim > 0 and weight > 0:
                evidence.append((v, weight))
        network = raw.friends(u)
        ratio = len(network & taggers.get(item, set())) / len(network) if network else 0.0
        summary = f"{round(ratio * 100)}% of your friends endorsed this item"
    evidence.sort(key=lambda e: (-e[1], e[0]))
    return evidence, summary


def check_explanation(what: str, evidence, summary: str, expected) -> None:
    want_rows, want_summary = expected
    require(summary == want_summary, f"{what}: summary {summary!r} != {want_summary!r}")
    require(
        [e for e, _ in evidence] == [e for e, _ in want_rows]
        and all(close(a, b) for (_, a), (_, b) in zip(evidence, want_rows)),
        f"{what}: evidence {list(evidence)!r} != reference {want_rows!r}",
    )


# ---------------------------------------------------------------------------
# Network search


def search_subgraph(raw: Raw, u, place_type: str = "destination"):
    """(node ids, link ids) of the network search for ``u``: friend
    links to friends who visited a place, plus every 'act' link of
    those friends."""
    friend_links = [l for l in raw.out[u] if "friend" in l.attrs["type"]]
    visitors = {
        l.src
        for l in raw.g.links.values()
        if "visit" in l.attrs["type"] and raw.is_a(l.tgt, place_type)
    }
    links = [l for l in friend_links if l.tgt in visitors]
    reached = {l.tgt for l in links}
    links += [l for v in reached for l in raw.out[v] if "act" in l.attrs["type"]]
    nodes = {x for l in links for x in (l.src, l.tgt)}
    return nodes, {l.id for l in links}


def check_search(what: str, graph, raw: Raw, expected) -> None:
    nodes, links = expected
    require(set(graph.nodes) == nodes, f"{what}: node set differs from reference")
    require(set(graph.links) == links, f"{what}: link set differs from reference")
    require(
        all(graph.links[lid] == raw.g.links[lid] for lid in links)
        and all(graph.nodes[nid] == raw.g.nodes[nid] for nid in nodes),
        f"{what}: elements were altered",
    )


# ---------------------------------------------------------------------------
# Tag search: social sets, clustering, bounds, top-k


class TagSets:
    """network(u) (symmetric friends), items(u) and taggers(i, k)."""

    def __init__(self, g):
        self.network: dict = {}
        self.items: dict = {}
        self.taggers: dict = {}
        for n in g.nodes.values():
            if "user" in n.attrs["type"]:
                self.network.setdefault(n.id, set())
                self.items.setdefault(n.id, set())
        for l in g.links.values():
            types = l.attrs["type"]
            if "friend" in types:
                self.network.setdefault(l.src, set()).add(l.tgt)
                self.network.setdefault(l.tgt, set()).add(l.src)
            if "tag" in types:
                self.items.setdefault(l.src, set()).add(l.tgt)
                for tag in l.attrs.get("tags", ()):
                    if isinstance(tag, str):
                        self.taggers.setdefault((l.tgt, tag), set()).add(l.src)
        self.users = sorted(set(self.network) | set(self.items))
        self.tags = sorted({tag for _, tag in self.taggers})
        self._by_tag: dict = {}
        for (item, tag), users in self.taggers.items():
            self._by_tag.setdefault(tag, []).append((item, users))

    def topk(self, u, keywords, k: int) -> list:
        """Brute force: sum over keywords of |friends(u) ∩ taggers(i, kw)|."""
        friends = self.network.get(u, set())
        scores: dict = {}
        for kw in keywords:
            for item, users in self._by_tag.get(kw, ()):
                hits = len(friends & users)
                if hits:
                    scores[item] = scores.get(item, 0) + hits
        return sorted(scores.items(), key=lambda e: (-e[1], e[0]))[:k]

    def exact_scores(self) -> dict:
        """(item, tag) -> {user: |network(user) ∩ taggers(item, tag)|}, positive only."""
        out = {}
        for key, users in self.taggers.items():
            counts: dict = {}
            for t in users:
                # network is symmetric: the users whose network holds t
                # are exactly t's own friends.
                for u in self.network.get(t, ()):
                    counts[u] = counts.get(u, 0) + 1
            if counts:
                out[key] = counts
        return out

    def predicate(self, kind: str, theta: float, u, leader) -> bool:
        if kind == "network":
            return jaccard(self.network.get(u, ()), self.network.get(leader, ())) >= theta
        if kind == "behavior":
            return jaccard(self.items.get(u, ()), self.items.get(leader, ())) >= theta
        net_u, net_l = self.network.get(u, ()), self.network.get(leader, ())
        if not net_u or not net_l:
            return False
        return all(
            jaccard(self.items.get(a, ()), self.items.get(b, ())) >= theta
            for a in net_u
            for b in net_l
        )


def check_clustering(what: str, assignment: dict, leaders: dict, sets: TagSets, kind, theta):
    """Leader clustering: every user assigned to a founded cluster, every
    member joined the first earlier leader whose predicate holds, and
    every earlier leader rejects each later leader."""
    require(sorted(assignment) == sets.users, f"{what}: assignment does not cover the users")
    require(all(c == l for c, l in leaders.items()), f"{what}: cluster id differs from leader")
    require(set(assignment.values()) == set(leaders), f"{what}: cluster without members")
    order = sorted(leaders)
    rank = {leader: i for i, leader in enumerate(order)}
    for u in sets.users:
        leader = assignment[u]
        require(leader <= u, f"{what}: {u} joined a later leader {leader}")
        if leader == u:
            earlier = order[: rank[u]]
        else:
            require(sets.predicate(kind, theta, u, leader), f"{what}: {u} fails leader {leader}")
            earlier = order[: rank[leader]]
        require(
            not any(sets.predicate(kind, theta, u, e) for e in earlier),
            f"{what}: {u} should have joined an earlier leader",
        )


def check_bounds(what: str, lists: dict, assignment: dict, exact: dict, tags) -> None:
    """Every stored score bounds every member's exact score (and is the
    maximum of them), every positive (item, tag, cluster) is listed, and
    each list is ordered by score descending then item id."""
    want: dict = {}
    tags = set(tags)
    for (item, tag), counts in exact.items():
        if tag not in tags:
            continue
        for u, score in counts.items():
            bucket = want.setdefault((tag, assignment[u]), {})
            bucket[item] = max(bucket.get(item, 0), score)
    require(set(lists) == set(want), f"{what}: list keys differ from reference")
    for key, entries in lists.items():
        entries = list(entries)
        require(
            all(isinstance(s, int) and not isinstance(s, bool) for _, s in entries),
            f"{what}: non-integer score in {key}",
        )
        require(dict(entries) == want[key], f"{what}: list {key} differs from member maxima")
        keys = [(-s, i) for i, s in entries]
        require(keys == sorted(keys), f"{what}: list {key} is not ordered")


# ---------------------------------------------------------------------------
# Grouping


def check_groups(what: str, groups, items, kind: str, raw: Raw, arg=None) -> None:
    """Social and topical groups partition the input; structural groups
    hold each item once per attribute value (or in the residual group).
    Social groups are checked as leader clusterings over tagger sets."""
    order = {item: i for i, (item, _) in enumerate(items)}
    score = dict(items)
    seen = []
    for grp in groups:
        members = list(grp.members)
        require(grp.size == len(members) > 0, f"{what}: bad group size")
        require(
            [order[m] for m in members] == sorted(order[m] for m in members),
            f"{what}: members out of input order",
        )
        require(
            close(grp.quality, sum(score[m] for m in members) / len(members)),
            f"{what}: quality is not the mean member score",
        )
        seen.extend(members)
    if kind == "structural":
        want = []
        for item, _ in items:
            values = raw.g.nodes[item].attrs.get(arg)
            want.extend([item] * (len(values) if values else 1))
        require(sorted(seen) == sorted(want), f"{what}: items not once per value")
        return
    require(sorted(seen) == sorted(order), f"{what}: groups do not partition the input")
    if kind == "topical":
        buckets: dict = {}
        for item, _ in items:
            topics = sorted(l.tgt for l in raw.out[item] if "belong" in l.attrs["type"])
            buckets.setdefault(f"topic:{topics[0] if topics else '(none)'}", []).append(item)
        require(
            {grp.id: list(grp.members) for grp in groups} == buckets,
            f"{what}: items not grouped by their smallest topic",
        )
        return
    taggers = raw.tag_taggers()
    leaders = sorted((grp.members[0] for grp in groups), key=order.get)
    for grp in groups:
        lead = grp.members[0]
        require(grp.id == f"social:{lead}", f"{what}: group id is not its leader")
        for m in grp.members[1:]:
            require(
                jaccard(taggers.get(m, ()), taggers.get(lead, ())) >= arg,
                f"{what}: {m} fails its leader",
            )
            before = [x for x in leaders if order[x] < order[lead]]
            require(
                not any(jaccard(taggers.get(m, ()), taggers.get(x, ())) >= arg for x in before),
                f"{what}: {m} should have joined an earlier group",
            )
    for i, a in enumerate(leaders):
        for b in leaders[i + 1 :]:
            require(
                jaccard(taggers.get(b, ()), taggers.get(a, ())) < arg,
                f"{what}: leader {b} should have joined {a}",
            )
