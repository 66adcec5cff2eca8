"""Result organization: grouping of scored items, meaningful-group
selection, and per-item / aggregate explanations.

Grouping criteria:

* social: greedy leader clustering of items whose full tagger sets are
  Jaccard-similar above a threshold;
* topical: one group per topic reached by a 'belong' link (an item with
  several topics goes to its smallest topic id so groups partition),
  plus a residual group;
* structural: one group per distinct value of a named attribute
  (multi-valued items appear in each), plus a residual group for items
  lacking the attribute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .aggfn import jaccard
from .discovery import acted_items, rating
from .errors import UnknownCriterionAttrError, UnknownItemError, UnknownUserError
from .graph import SocialContentGraph, sorted_values
from .index import greedy_leaders, social_sets

RESIDUAL = "(none)"


@dataclass(frozen=True)
class SocialGrouping:
    theta: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"theta must be in [0, 1], got {self.theta!r}")


@dataclass(frozen=True)
class TopicalGrouping:
    pass


@dataclass(frozen=True)
class StructuralGrouping:
    attr: str


GroupingCriterion = Union[SocialGrouping, TopicalGrouping, StructuralGrouping]


@dataclass(frozen=True)
class ItemGroup:
    id: str
    members: tuple  # item ids, input order
    label: str
    quality: float  # mean relevance of members
    size: int


@dataclass(frozen=True)
class Explanation:
    subject: tuple  # (user id, item id)
    strategy: str  # content | collaborative
    evidence: tuple  # of (element id, weight), weight desc then id
    summary: str


def _label_from(g: SocialContentGraph, element_id: str) -> str:
    names = g.nodes[element_id].attrs.get("name")
    if names:
        return str(sorted_values(names)[0])
    return element_id


def _make_group(gid, label, members_scores) -> ItemGroup:
    members = tuple(i for i, _ in members_scores)
    quality = sum(s for _, s in members_scores) / len(members_scores)
    return ItemGroup(id=gid, members=members, label=label, quality=quality, size=len(members))


def _buckets(pairs) -> dict:
    """(key, member) pairs -> key -> [member], keys in first-seen order."""
    out: dict = {}
    for key, member in pairs:
        out.setdefault(key, []).append(member)
    return out


def group_items(items, g: SocialContentGraph, criterion: GroupingCriterion) -> list:
    """Partition a scored item list (pairs of item id and score, each id
    at most once) into ItemGroups under the given criterion."""
    items = list(items)
    if not items:
        raise ValueError("group_items needs a non-empty item list")
    seen = set()
    for item, _ in items:
        if item not in g.nodes:
            raise UnknownItemError(item)
        if item in seen:
            raise ValueError(f"duplicate item id: {item!r}")
        seen.add(item)
    if isinstance(criterion, SocialGrouping):
        return _social_groups(items, g, criterion.theta)
    if isinstance(criterion, TopicalGrouping):
        return _topical_groups(items, g)
    return _structural_groups(items, g, criterion.attr)


def _social_groups(items, g, theta) -> list:
    sets = social_sets(g)
    ids = [item for item, _ in items]
    leaders = greedy_leaders([sets.all_taggers(item) for item in ids], theta)
    return [
        _make_group(f"social:{ids[pos]}", _label_from(g, ids[pos]), members)
        for pos, members in _buckets(zip(leaders, items)).items()
    ]


def _topic_of(g, item_id) -> str:
    """The item's smallest topic id, else RESIDUAL."""
    topics = (l.tgt for l in g.out_links.get(item_id, ()) if "belong" in l.attrs["type"])
    return min(topics, default=RESIDUAL)


def _topical_groups(items, g) -> list:
    buckets = _buckets((_topic_of(g, item), (item, score)) for item, score in items)
    return [
        _make_group(f"topic:{key}", RESIDUAL if key == RESIDUAL else _label_from(g, key), members)
        for key, members in buckets.items()
    ]


def _structural_groups(items, g, attr) -> list:
    if all(attr not in g.nodes[item].attrs for item, _ in items):
        raise UnknownCriterionAttrError(attr)
    buckets = _buckets(
        (key, (item, score))
        for item, score in items
        for key in [str(v) for v in sorted_values(g.nodes[item].attrs.get(attr, ()))] or [RESIDUAL]
    )
    return [_make_group(f"attr:{attr}={key}", key, members) for key, members in buckets.items()]


def select_groups(groups, max_n: int) -> list:
    """The max_n most meaningful groups: quality descending, then size
    descending, then group id."""
    if max_n < 1:
        raise ValueError("max_n must be at least 1")
    return sorted(groups, key=lambda grp: (-grp.quality, -grp.size, grp.id))[:max_n]


def _require(g, user_id, item_id, strategy):
    if user_id not in g.nodes:
        raise UnknownUserError(user_id)
    if item_id not in g.nodes:
        raise UnknownItemError(item_id)
    if strategy not in ("content", "collaborative"):
        raise ValueError(f"unknown explanation strategy: {strategy!r}")


def explain_item(g: SocialContentGraph, user_id: str, item_id: str, strategy: str) -> Explanation:
    """Why an item was recommended to a user.

    Content evidence: the user's own items similar to it, weighted by
    similarity times the user's rating. Collaborative evidence: similar
    users who acted on it, weighted by user similarity times their
    rating of it. Only positive weights are kept.
    """
    _require(g, user_id, item_id, strategy)
    sets = social_sets(g)
    mine = acted_items(g, user_id)
    evidence = []
    if strategy == "content":
        sims = sets.item_similarities(item_id)
        for other in mine & sims.keys():
            weight = sims[other] * rating(g, user_id, other)
            if weight > 0:
                evidence.append((other, weight))
    elif "item" in g.nodes[item_id].attrs["type"]:
        for peer in dict.fromkeys(l.src for l in g.in_links.get(item_id, ())):
            if "user" not in g.nodes[peer].attrs["type"] or peer == user_id:
                continue
            sim = jaccard(mine, acted_items(g, peer))
            if sim > 0:
                weight = sim * rating(g, peer, item_id)
                if weight > 0:
                    evidence.append((peer, weight))
    if strategy == "content":
        ratio = _content_ratio(mine, sims)
    else:
        ratio = _friends_ratio(sets, user_id, item_id)
    evidence.sort(key=lambda e: (-e[1], e[0]))
    return Explanation(
        subject=(user_id, item_id),
        strategy=strategy,
        evidence=tuple(evidence),
        summary=_sentence(ratio, strategy),
    )


def aggregate_explanations(g: SocialContentGraph, user_id: str, target, strategy: str):
    """One-sentence aggregate explanation plus its unrounded ratio.

    ``target`` is an item id or an ItemGroup (whose ratio is the mean
    of its members' ratios). Percentages are rounded only in the
    sentence, never in the returned ratio.
    """
    group = target if isinstance(target, ItemGroup) else None
    members = (target,) if group is None else group.members
    for item_id in members:
        _require(g, user_id, item_id, strategy)
    return _aggregate(g, user_id, members, strategy, group)


def _aggregate(g, user_id, members, strategy, group=None):
    """The sentence and mean ratio of ``members``: one item when ``group`` is None."""
    sets = social_sets(g)
    if strategy == "collaborative":
        ratios = [_friends_ratio(sets, user_id, item_id) for item_id in members]
    else:
        mine = acted_items(g, user_id)
        ratios = [_content_ratio(mine, sets.item_similarities(item_id)) for item_id in members]
    ratio = sum(ratios) / len(members)
    return _sentence(ratio, strategy, group), ratio


def _sentence(ratio, strategy, group=None) -> str:
    pct = round(ratio * 100)
    subject = "this item" if group is None else f"items in group '{group.label}'"
    if strategy == "collaborative":
        return f"{pct}% of your friends endorsed {subject}"
    lead = "" if group is None else f"{subject} are "
    return f"{lead}similar to {pct}% of items you visited before"


def _friends_ratio(sets, user_id, item_id) -> float:
    """The share of the user's friends who tagged the item."""
    network = sets.network.get(user_id, frozenset())
    if not network:
        return 0.0
    return len(network & sets.all_taggers(item_id)) / len(network)


def _content_ratio(mine, sims) -> float:
    """The share of the user's acted items ``mine`` that are similar to
    the item whose similarity map is ``sims``."""
    if not mine:
        return 0.0
    return len(mine & sims.keys()) / len(mine)
