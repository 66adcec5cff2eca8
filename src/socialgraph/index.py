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
from functools import cached_property
from operator import itemgetter
from typing import TYPE_CHECKING

from .errors import UnknownUserError

if TYPE_CHECKING:  # the graph is only read here, never built
    from .graph import SocialContentGraph

STRATEGIES = ("network", "behavior", "hybrid")
_EMPTY = frozenset()


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

    @property
    def tags(self) -> frozenset:
        """Every tag the sets hold: the vocabulary of the CLI's indexes and
        of a snapshot that lists none."""
        return frozenset(tag for _, tag in self.taggers)

    def all_taggers(self, item: str) -> frozenset:
        """taggers(i): union over tags of taggers(i, k)."""
        return self._item_taggers.get(item, frozenset())

    def item_similarities(self, item: str) -> dict:
        """i -> the Jaccard of taggers(item) and taggers(i), for every i
        (item itself included) that shares a tagger with item. The
        overlap c is counted through the tagger -> items postings, and c
        over |taggers(item)| + |taggers(i)| - c are the two ints
        ``jaccard`` divides, so each value is bit-identical to it."""
        mine, taggers = self.all_taggers(item), self._item_taggers
        n = len(mine)
        return {i: c / (n + len(taggers[i]) - c) for i, c in _overlaps(mine, self._tagged_items).items()}

    @cached_property
    def _item_taggers(self) -> dict:
        """item id -> taggers(i), built on first use (sets are never mutated)."""
        out: dict = {}
        for (iid, _), users in self.taggers.items():
            out.setdefault(iid, set()).update(users)
        return {iid: frozenset(users) for iid, users in out.items()}

    @cached_property
    def _tagged_items(self) -> dict:
        """tagger -> the items they tagged with a string tag, the inverse
        of ``_item_taggers``, built on first use."""
        out: dict = {}
        for iid, users in self._item_taggers.items():
            for u in users:
                out.setdefault(u, []).append(iid)
        return out


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
    sorted by score descending then item id ascending, for the tags of
    ``vocabulary``. ``topk_query`` relies on ties being in id order, not
    only ``load_index_snapshot``, which checks it."""

    lists: dict  # (tag, cluster id) -> tuple of (item id, score)
    model: ClusterModel
    sets: SocialSets
    vocabulary: frozenset  # the tags the lists were built for


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


def _overlaps(probe, postings) -> dict:
    """holder -> |probe ∩ holder's set|, for every holder that
    ``postings`` (element -> holders) lists under an element of probe."""
    counts: dict = {}
    for e in probe:
        for h in postings.get(e, ()):
            counts[h] = counts.get(h, 0) + 1
    return counts


def _founders(probes, members, joins) -> list:
    """Greedy leader clustering through an inverted index: key ``pos``
    joins the earliest founder ``f`` for which ``joins(c, len(probes[pos]),
    len(members[f]))`` holds, c being the overlap of ``probes[pos]`` with
    ``members[f]``, else founds a cluster and posts its ``members``. Only
    founders sharing an element are tested, so ``joins`` must fail at c = 0.
    Returns each key's leader position."""
    postings: dict = {}  # element -> founder positions, in founding order
    out: list = []
    for pos, probe in enumerate(probes):
        n = len(probe)
        joined = [f for f, c in _overlaps(probe, postings).items() if joins(c, n, len(members[f]))]
        if joined:
            out.append(min(joined))
        else:
            out.append(pos)
            for e in members[pos]:
                postings.setdefault(e, []).append(pos)
    return out


def greedy_leaders(key_sets, theta: float) -> list:
    """Greedy leader clustering of a sequence of sets: each, in order,
    joins the earliest-founded leader with Jaccard >= theta, else founds
    a cluster of its own. Returns the position of each set's leader, so
    repeated sets may lead clusters of their own.

    The Jaccard is the overlap count c over |A| + |B| - c, the two ints
    ``jaccard`` divides, so ties at theta resolve alike. Two empty sets
    have Jaccard 0, so above theta 0 an empty set never joins, and at
    theta 0 everything joins the first set.
    """
    key_sets = list(key_sets)
    if theta == 0:
        return [0] * len(key_sets)
    return _founders(key_sets, key_sets, lambda c, a, b: c / (a + b - c) >= theta)


def _similar_ids(items: dict, ids, theta: float) -> dict:
    """v -> S(v) = {w in ids : J(items(v), items(w)) >= theta}, for
    theta > 0, where only ids sharing an item can qualify."""
    holders: dict = {}  # item -> ids whose items contain it
    for v in ids:
        for i in items.get(v, ()):
            holders.setdefault(i, []).append(v)
    out = {}
    for v in ids:
        mine = items.get(v, ())
        out[v] = {
            w
            for w, c in _overlaps(mine, holders).items()
            if c / (len(mine) + len(items[w]) - c) >= theta
        }
    return out


def _hybrid_leaders(sets: SocialSets, users: list, theta: float) -> list:
    """u joins the earliest leader l with ∅ ≠ N(l) ⊆ T(u), where
    T(u) = ⋂ S(v) over v in N(u), and is empty for an empty N(u): the
    same as every friend pair (v1, v2) in N(u) x N(l) having item-set
    Jaccard >= theta, with both networks non-empty. At theta 0 every
    pair qualifies, so each user with a non-empty network joins the
    first such user, and each user with an empty one founds a singleton."""
    networks = [sets.network.get(u, frozenset()) for u in users]
    if theta == 0:
        first = next((pos for pos, net in enumerate(networks) if net), None)
        return [first if net else pos for pos, net in enumerate(networks)]
    similar = _similar_ids(sets.items, set().union(*networks), theta)
    targets = []
    for net in networks:
        common = None
        for v in net:
            common = similar[v] if common is None else common & similar[v]
            if not common:
                break
        targets.append(common or ())
    return _founders(targets, networks, lambda c, _, size: c == size)


def cluster_users(sets: SocialSets, strategy: ClusteringStrategy) -> ClusterModel:
    """Greedy leader clustering of the users in ascending id order:
    Jaccard of friend sets (network) or of item sets (behavior) at least
    theta (``greedy_leaders``), or the hybrid rule of ``_hybrid_leaders``,
    under which a user with an empty network founds a singleton cluster
    (the universal quantifier would otherwise be vacuous).
    """
    users = sets.users
    if strategy.kind == "hybrid":
        leaders = _hybrid_leaders(sets, users, strategy.theta)
    else:
        field = sets.network if strategy.kind == "network" else sets.items
        leaders = greedy_leaders([field.get(u, frozenset()) for u in users], strategy.theta)
    assignment = {u: users[pos] for u, pos in zip(users, leaders)}
    # a leader is its own first member, so this is founding order
    return ClusterModel(assignment=assignment, leaders={l: l for l in assignment.values()})


def _exact_tag_scores(sets: SocialSets):
    """Yield ((item, tag), {user -> exact score}) pairs, nonzero entries only.

    A user's score is |network(u) ∩ taggers(i, k)|, counted by walking
    each tagger's inverted friend set so the cost scales with tagging
    activity rather than the user population. The pairs are streamed in
    sorted key order, so only one key's counts are held at a time and the
    items of any one tag come in id order.
    """
    befriended: dict = {}  # v -> users whose network contains v
    for u, net in sets.network.items():
        for v in net:
            befriended.setdefault(v, []).append(u)
    taggers = sets.taggers
    for key in sorted(taggers):
        counts = _overlaps(taggers[key], befriended)
        if counts:
            yield key, counts


def build_index(sets: SocialSets, model: ClusterModel, tags) -> ClusteredIndex:
    """Materialize the per-(tag, cluster) upper-bound lists for the
    given tag vocabulary; zero-score entries are omitted.

    Buckets nest by tag, then by cluster. Each (item, tag) key is
    scored once, so a bucket gets an item from that key's counts only
    and keeps the best member's score. Lists come out in sorted tag,
    then sorted cluster order, which is sorted (tag, cluster) order.
    Keys come in sorted order, so each bucket fills in item-id order and
    is ranked by a stable sort on score descending alone. Equal
    (item, score) entries are one tuple across all lists: scores are
    small counts, so an index holds few distinct pairs against many
    entries (3.5k against 231k for network θ = 0.3 on a fixture of 600
    users and 3,000 items)."""
    tags = set(tags)
    assignment = model.assignment
    best: dict = {}  # tag -> cluster -> {item -> max score}
    for (item, tag), counts in _exact_tag_scores(sets):
        if tag not in tags:
            continue
        clusters = best.get(tag)
        if clusters is None:
            clusters = best[tag] = {}
        for u, score in counts.items():
            cluster = assignment.get(u)
            if cluster is None:
                continue
            bucket = clusters.get(cluster)
            if bucket is None:
                clusters[cluster] = {item: score}
            elif score > bucket.get(item, 0):
                bucket[item] = score
    lists = {}
    share = {}.setdefault  # (item, score) -> the one tuple kept for it
    for tag, clusters in sorted(best.items()):
        for cluster, bucket in sorted(clusters.items()):
            entries = list(bucket.items())
            entries.sort(key=itemgetter(1), reverse=True)
            lists[tag, cluster] = tuple(map(share, entries, entries))
    return ClusteredIndex(lists=lists, model=model, sets=sets, vocabulary=frozenset(tags))


def exact_score(sets: SocialSets, item: str, user: str, keywords) -> int:
    """Sum over keywords of |network(user) ∩ taggers(item, keyword)|."""
    network = sets.network.get(user, _EMPTY)
    taggers = sets.taggers
    total = 0
    for k in keywords:
        tagged = taggers.get((item, k))
        if tagged:
            total += len(network & tagged)
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

    Round-robin sorted access over the per-keyword lists. Only the best
    k positive scores are kept, as (-score, item) pairs in answer order,
    so each access costs O(log k). The frontier is the sum of the
    current head scores (0 for an exhausted list), which bounds every
    unread item's exact score because stored scores upper-bound every
    member's. Two cuts use the lists' order, score descending then item
    id ascending:

    - An item first read at the head of list j is unread in every other
      list, so the frontier before list j advances bounds its score.
      Once k items are in hand and (-frontier, item) ranks after the
      k-th, it is marked seen without a random access: the k-th only
      improves, so it can never enter the answer.
    - An unread item ties the frontier only if it lies at or after the
      head of every list with a positive head score. So the scan stops,
      checked once per round, once k items are in hand and (-frontier,
      the greatest such head id) ranks after the k-th. That holds
      whenever the k-th score strictly beats the frontier, so the scan
      never reads further than the strict stop would.

    A keyword outside the vocabulary has no lists, so the items it tags
    are exact-scored up front; every unread item then scores 0 on it and
    the frontier still bounds it.
    """
    keywords = list(keywords)
    if k < 1:
        raise ValueError("k must be at least 1")
    cluster = index.model.assignment.get(user)
    if cluster is None:
        raise UnknownUserError(user)
    lists = [index.lists.get((kw, cluster), ()) for kw in keywords]
    pos = [0] * len(lists)
    heads = [entries[0][1] if entries else 0 for entries in lists]  # 0 once exhausted
    unindexed = set(keywords) - index.vocabulary
    seen = {item for item, tag in index.sets.taggers if tag in unindexed} if unindexed else set()
    scored = ((-exact_score(index.sets, item, user, keywords), item) for item in seen)
    top = sorted(pair for pair in scored if pair[0] < 0)[:k]  # (-score, item), ascending
    while True:
        if len(top) == k:
            neg, kth = top[-1]
            frontier = sum(heads)
            # the ids matter only on a tie, where the frontier and so some head is positive
            if frontier < -neg or (
                frontier == -neg and max(lists[j][pos[j]][0] for j, s in enumerate(heads) if s > 0) > kth
            ):
                break
        progressed = False
        for j, entries in enumerate(lists):
            p = pos[j]
            if p < len(entries):
                item = entries[p][0]
                if item not in seen:
                    seen.add(item)
                    if len(top) < k or (-sum(heads), item) < top[-1]:
                        s = exact_score(index.sets, item, user, keywords)
                        if s > 0 and (len(top) < k or (-s, item) < top[-1]):
                            insort(top, (-s, item))
                            del top[k:]
                pos[j] = p = p + 1
                heads[j] = entries[p][1] if p < len(entries) else 0
                progressed = True
        if not progressed:
            break
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
    if not 0 <= tagger_fraction <= 1:  # NaN fails too
        raise ValueError(f"tagger fraction must be in [0, 1], got {tagger_fraction!r}")
    try:
        return round(items * tags_per_item * users * bytes_per_entry * tagger_fraction)
    except OverflowError:
        raise ValueError("index size is beyond float range") from None
