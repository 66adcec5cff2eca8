"""Network-aware tag search: derived social sets, user clustering,
per-(tag, cluster) upper-bound inverted lists, and safe top-k queries.

The exact score of an item for a user and one tag is the number of the
user's friends who tagged the item with that tag; multi-keyword queries
sum the per-tag scores. Cluster lists store, per item, the maximum
exact score over the cluster's members, which upper-bounds every
member's true score and keeps threshold-style pruning safe.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from functools import cached_property, partial

from .aggfn import jaccard
from .errors import UnknownUserError
from .graph import SocialContentGraph

STRATEGIES = ("network", "behavior", "hybrid")


@dataclass(frozen=True)
class SocialSets:
    """Derived per-user sets: friends, tagged items, and taggers of
    (item, tag) pairs."""

    network: dict  # user id -> frozenset of user ids
    items: dict  # user id -> frozenset of item ids
    taggers: dict  # (item id, tag) -> frozenset of user ids

    @property
    def users(self) -> list:
        return sorted(set(self.network) | set(self.items))

    def all_taggers(self, item: str) -> frozenset:
        """taggers(i): union over tags of taggers(i, k)."""
        return self._item_taggers.get(item, frozenset())

    def item_similarity(self, a: str, b: str) -> float:
        """The similarity of two items: Jaccard of their taggers."""
        return jaccard(self.all_taggers(a), self.all_taggers(b))

    @cached_property
    def _item_taggers(self) -> dict:
        """item id -> taggers(i), built on first use (sets are never mutated)."""
        out: dict = {}
        for (iid, _), users in self.taggers.items():
            out.setdefault(iid, set()).update(users)
        return {iid: frozenset(users) for iid, users in out.items()}


@dataclass(frozen=True)
class ClusteringStrategy:
    kind: str  # network | behavior | hybrid
    theta: float

    def __post_init__(self):
        if self.kind not in STRATEGIES:
            raise ValueError(f"unknown clustering strategy: {self.kind!r}")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"theta must be in [0, 1], got {self.theta!r}")


@dataclass(frozen=True)
class ClusterModel:
    assignment: dict  # user id -> cluster id
    leaders: dict  # cluster id -> leader user id


@dataclass(frozen=True)
class ClusteredIndex:
    """Per (tag, cluster) inverted lists of (item, upper-bound score),
    sorted by score descending then item id ascending."""

    lists: dict  # (tag, cluster id) -> tuple of (item id, score)
    model: ClusterModel
    sets: SocialSets


def social_sets(g: SocialContentGraph) -> SocialSets:
    """Derive the social sets from a graph.

    Friendship ('friend' links) is treated as symmetric; items(u) and
    taggers(i, k) come from 'tag' links, whose ``tags`` attribute holds
    the tag strings. Every 'user'-typed node gets an entry even when it
    has no activity. Derived on first use and kept in the graph's
    instance dict, next to ``out_links``, which is sound only because
    graphs are never mutated.
    """
    kept = vars(g).get("social_sets")
    if kept is not None:
        return kept
    network: dict = {}
    items: dict = {}
    taggers: dict = {}
    for n in g.nodes.values():
        if "user" in n.attrs["type"]:
            network.setdefault(n.id, set())
            items.setdefault(n.id, set())
    for l in g.links.values():
        types = l.attrs["type"]
        if "friend" in types:
            network.setdefault(l.src, set()).add(l.tgt)
            network.setdefault(l.tgt, set()).add(l.src)
        if "tag" in types:
            items.setdefault(l.src, set()).add(l.tgt)
            for tag in l.attrs.get("tags", ()):
                if isinstance(tag, str):
                    taggers.setdefault((l.tgt, tag), set()).add(l.src)
    sets = vars(g)["social_sets"] = SocialSets(
        network={u: frozenset(v) for u, v in network.items()},
        items={u: frozenset(v) for u, v in items.items()},
        taggers={key: frozenset(v) for key, v in taggers.items()},
    )
    return sets


def greedy_leaders(keys, joins) -> list:
    """Greedy leader clustering of a sequence: each key, in order, joins
    the earliest-founded leader for which ``joins(key, leader)`` holds,
    else founds a cluster of its own. Returns the position in ``keys``
    of each key's leader, so repeated keys may lead clusters of their own.
    """
    founders: list = []  # leader positions, in founding order
    out: list = []
    for pos, key in enumerate(keys):
        for f in founders:
            if joins(key, keys[f]):
                out.append(f)
                break
        else:
            founders.append(pos)
            out.append(pos)
    return out


def _predicate(strategy: ClusteringStrategy, sets: SocialSets, u: str, leader: str) -> bool:
    if strategy.kind == "network":
        return jaccard(sets.network.get(u, ()), sets.network.get(leader, ())) >= strategy.theta
    if strategy.kind == "behavior":
        return jaccard(sets.items.get(u, ()), sets.items.get(leader, ())) >= strategy.theta
    net_u = sets.network.get(u, frozenset())
    net_l = sets.network.get(leader, frozenset())
    if not net_u or not net_l:
        return False
    return all(
        jaccard(sets.items.get(v1, ()), sets.items.get(v2, ())) >= strategy.theta
        for v1 in net_u
        for v2 in net_l
    )


def cluster_users(sets: SocialSets, strategy: ClusteringStrategy) -> ClusterModel:
    """Greedy leader clustering (``greedy_leaders``) of the users in
    ascending id order under the strategy predicate.

    Hybrid clustering puts users with an empty network into singleton
    clusters (the universal quantifier would otherwise be vacuous).
    """
    users = sets.users
    leaders = greedy_leaders(users, partial(_predicate, strategy, sets))
    assignment = {u: users[pos] for u, pos in zip(users, leaders)}
    # a leader is its own first member, so this is founding order
    return ClusterModel(assignment=assignment, leaders={l: l for l in assignment.values()})


def _exact_tag_scores(sets: SocialSets):
    """Yield ((item, tag), {user -> exact score}) pairs, nonzero entries only.

    A user's score is |network(u) ∩ taggers(i, k)|, counted by walking
    each tagger's inverted friend set so the cost scales with tagging
    activity rather than the user population. The pairs are streamed, so
    only one key's counts are held at a time.
    """
    befriended: dict = {}  # v -> users whose network contains v
    for u, net in sets.network.items():
        for v in net:
            befriended.setdefault(v, []).append(u)
    for key, tagger_set in sets.taggers.items():
        counts: dict = {}
        for t in tagger_set:
            for u in befriended.get(t, ()):
                counts[u] = counts.get(u, 0) + 1
        if counts:
            yield key, counts


def build_index(sets: SocialSets, model: ClusterModel, tags) -> ClusteredIndex:
    """Materialize the per-(tag, cluster) upper-bound lists for the
    given tag vocabulary; zero-score entries are omitted."""
    tags = set(tags)
    best: dict = {}  # (tag, cluster) -> {item -> max score}
    for (item, tag), counts in _exact_tag_scores(sets):
        if tag not in tags:
            continue
        for u, score in counts.items():
            cluster = model.assignment.get(u)
            if cluster is None:
                continue
            bucket = best.setdefault((tag, cluster), {})
            if score > bucket.get(item, 0):
                bucket[item] = score
    lists = {
        key: tuple(sorted(bucket.items(), key=lambda e: (-e[1], e[0])))
        for key, bucket in sorted(best.items())
    }
    return ClusteredIndex(lists=lists, model=model, sets=sets)


def exact_score(sets: SocialSets, item: str, user: str, keywords) -> int:
    """Sum over keywords of |network(user) ∩ taggers(item, keyword)|."""
    network = sets.network.get(user, frozenset())
    total = 0
    for k in keywords:
        total += len(network & sets.taggers.get((item, k), frozenset()))
    return total


def exhaustive_topk(sets: SocialSets, user: str, keywords, k: int) -> list:
    """Reference top-k by exact scoring of every item; positive scores
    only, ordered by score descending then item id ascending."""
    wanted = set(keywords)
    candidates = {item for (item, tag) in sets.taggers if tag in wanted}
    scored = []
    for item in candidates:
        s = exact_score(sets, item, user, keywords)
        if s > 0:
            scored.append((item, s))
    scored.sort(key=lambda e: (-e[1], e[0]))
    return scored[:k]


def topk_query(index: ClusteredIndex, user: str, keywords, k: int) -> list:
    """Threshold-algorithm top-k over the user's cluster lists.

    Round-robin sorted access over the per-keyword lists; every newly
    seen item is exact-scored immediately (random access). Only the best
    k positive scores are kept, as (-score, item) pairs in answer order,
    so each access costs O(log k) and a query O(accesses * log k) rather
    than a re-sort of every seen item per round. The scan stops, checked
    once per round, once k items are in hand and the k-th best exact
    score strictly beats the sum of the current list frontiers, which is
    safe because stored scores upper-bound every member's exact score.
    Strictness matters: an unseen item may still tie the k-th score and
    win the item-id tiebreak, so a tie with the frontier cannot stop.
    """
    keywords = list(keywords)
    if k < 1:
        raise ValueError("k must be at least 1")
    cluster = index.model.assignment.get(user)
    if cluster is None:
        raise UnknownUserError(user)
    lists = [index.lists.get((kw, cluster), ()) for kw in keywords]
    pos = [0] * len(lists)
    seen: set = set()
    top: list = []  # at most k (-score, item) pairs, ascending
    while True:
        progressed = False
        for j, entries in enumerate(lists):
            if pos[j] < len(entries):
                item, _ = entries[pos[j]]
                pos[j] += 1
                progressed = True
                if item not in seen:
                    seen.add(item)
                    s = exact_score(index.sets, item, user, keywords)
                    if s > 0 and (len(top) < k or (-s, item) < top[-1]):
                        insort(top, (-s, item))
                        del top[k:]
        frontier = sum(
            entries[pos[j]][1] for j, entries in enumerate(lists) if pos[j] < len(entries)
        )
        if not progressed or (len(top) == k and -top[-1][0] > frontier):
            return [(item, -neg) for neg, item in top]


def estimate_index_size(
    users: int,
    items: int,
    tags_per_item: int,
    tagger_fraction: float,
    bytes_per_entry: int,
) -> int:
    """Size of a per-(tag, user) index in bytes:
    items x tags_per_item x (tagger_fraction x users) x bytes_per_entry."""
    for value in (users, items, tags_per_item, tagger_fraction, bytes_per_entry):
        if value < 0:
            raise ValueError("index sizing inputs must be non-negative")
    return round(items * tags_per_item * users * bytes_per_entry * tagger_fraction)
