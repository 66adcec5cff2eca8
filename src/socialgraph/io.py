"""Graph and index persistence.

Graphs are stored as two JSON-lines files: one node record or link
record per line. Node records are ``{"id", "attrs"}``; link records add
``"src"`` and ``"tgt"``. Attribute values may be a scalar or an array
of scalars (arrays become value sets, singletons are allowed either
way). Numeric ids must be finite and are stringified on load. Writing
is byte-stable: records are sorted by id, object keys are sorted,
multi-valued attributes are written as sorted arrays (strings before
numbers) and singletons as bare scalars.

Index snapshots are a single JSON-lines file: a versioned header line
(with the indexed tags when they are not every tag of the sets), then
the cluster model, the social sets, and one line per (tag, cluster)
inverted list, each section sorted for byte stability.

Every file goes through one JSON-lines reader and one writer. Each
loader checks a line as it reads it, so the first faulty line raises.

Both loaders keep one object per distinct value through one map per
call: ids, attribute names and value sets in a graph; ids and (item,
score) pairs in a snapshot. A key is exact wherever equal values save
differently: a value set holding a zero and a zero score are never
shared, since ``0.0 == -0.0``, and a pair's key holds its score's JSON
type, since ``1 == 1.0``.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from operator import itemgetter
from typing import TYPE_CHECKING

from .errors import GraphFileError
from .graph import Link, Node, SocialContentGraph, attr_map, build_graph, sorted_values

if TYPE_CHECKING:  # graph files need no index code: load_index_snapshot imports it
    from .index import ClusteredIndex

SNAPSHOT_FORMAT = "socialgraph-index"
SNAPSHOT_VERSION = 1


def _coerce_id(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"ids must be strings or numbers, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"numeric ids must be finite, got {value!r}")
    return str(value)


def _read_jsonl(path: str, parse) -> None:
    """Hand each non-blank JSON line of ``path`` to ``parse``, in file
    order. Invalid JSON, an integer too long to decode, and a ValueError
    that ``parse`` raises become a GraphFileError at that line, so the
    first faulty line wins."""
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text:
                continue
            try:
                parse(json.loads(text))
            except json.JSONDecodeError as e:
                raise GraphFileError(path, line_no, f"invalid JSON: {e.msg}") from e
            except RecursionError:
                raise GraphFileError(path, line_no, "invalid JSON: nested too deeply") from None
            except (ValueError, OverflowError) as e:  # OverflowError: an int beyond float range
                raise GraphFileError(path, line_no, str(e)) from e


def _record_id(record) -> str:
    if not isinstance(record, dict) or "id" not in record:
        raise ValueError("records need an 'id' field")
    return _coerce_id(record["id"])


def _parse_attrs(record: dict, share) -> dict:
    """The record's attribute map, its names and value sets passed through
    ``share``. A set holding a zero is kept as parsed: ``{0.0}`` and
    ``{-0.0}`` are equal but save differently. Any other equal sets are
    equal scalar by scalar (finite floats that are equal and nonzero have
    the same bits), so one object can stand for them all."""
    attrs = record.get("attrs", {})
    if not isinstance(attrs, dict):
        raise ValueError("'attrs' must be an object")
    return {
        share(name, name): values if 0.0 in values else share(values, values)
        for name, values in attr_map(attrs).items()
    }


def load_graph(node_path: str, link_path: str) -> SocialContentGraph:
    """Read the two JSON-lines files and build a validated graph. The
    first faulty line, nodes file first, raises GraphFileError with its
    line number. Each node id is one string object across the nodes and
    the links' ``src`` and ``tgt``, and equal attribute names and value
    sets are one object each (see ``_parse_attrs``)."""
    share = {}.setdefault  # value -> the one object kept for it
    nodes, links = [], []

    def node_line(record) -> None:
        nid = _record_id(record)
        nodes.append(Node(id=share(nid, nid), attrs=_parse_attrs(record, share)))

    def link_line(record) -> None:
        lid = _record_id(record)
        src, tgt = _coerce_id(record.get("src")), _coerce_id(record.get("tgt"))
        links.append(Link(id=lid, src=share(src, src), tgt=share(tgt, tgt), attrs=_parse_attrs(record, share)))

    _read_jsonl(node_path, node_line)
    _read_jsonl(link_path, link_line)
    return build_graph(nodes, links)


def _attrs_record(attrs: dict) -> dict:
    out = {}
    for name, values in attrs.items():
        ordered = sorted_values(values)
        out[name] = ordered[0] if len(ordered) == 1 else ordered
    return out


# json.dumps with any non-default argument builds a new encoder per call
_ENCODER = json.JSONEncoder(sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def json_line(record: dict) -> str:
    """One JSON-lines record: sorted keys, non-ASCII text as is, compact
    separators, so equal records always give the same bytes."""
    return _ENCODER.encode(record)


def _write_jsonl(path: str, records) -> None:
    """Write each record as one ``json_line``."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for record in records:
            fh.write(json_line(record) + "\n")


def save_graph(g: SocialContentGraph, node_path: str, link_path: str) -> None:
    """Write a graph; loading the output reproduces the graph exactly,
    and identical graphs produce identical bytes."""
    nodes = map(g.nodes.__getitem__, sorted(g.nodes))
    _write_jsonl(node_path, ({"id": n.id, "attrs": _attrs_record(n.attrs)} for n in nodes))
    links = map(g.links.__getitem__, sorted(g.links))
    _write_jsonl(link_path, ({"id": l.id, "src": l.src, "tgt": l.tgt, "attrs": _attrs_record(l.attrs)} for l in links))


def load_scored_items(path: str) -> list:
    """Read (item id, score) pairs from JSON lines of ``{"id", "score"}``;
    a missing score reads as 1.0. A record that is not an object, lacks
    an id, or has a score that is not a finite number (booleans
    included) raises GraphFileError with its line number."""
    out = []

    def item_line(record) -> None:
        item = _record_id(record)
        score = record.get("score", 1.0)
        number = isinstance(score, (int, float)) and not isinstance(score, bool)
        if not (number and math.isfinite(score)):
            raise ValueError(f"scores must be finite numbers, got {score!r}")
        out.append((item, float(score)))

    _read_jsonl(path, item_line)
    return out


# ---------------------------------------------------------------------------
# Index snapshots


def save_index_snapshot(index: ClusteredIndex, path: str) -> None:
    """Write a ClusteredIndex: header line, model line, sets line, then
    one line per (tag, cluster) list in sorted key order. The header
    lists the vocabulary only when it is not every tag of the sets."""
    header = {"format": SNAPSHOT_FORMAT, "version": SNAPSHOT_VERSION}
    if index.vocabulary != index.sets.tags:
        header["vocabulary"] = sorted(index.vocabulary)
    model = {
        "assignment": dict(sorted(index.model.assignment.items())),
        "leaders": dict(sorted(index.model.leaders.items())),
    }
    sets = {
        "network": {u: sorted(v) for u, v in sorted(index.sets.network.items())},
        "items": {u: sorted(v) for u, v in sorted(index.sets.items.items())},
        "taggers": [
            {"item": item, "tag": tag, "users": sorted(users)}
            for (item, tag), users in sorted(index.sets.taggers.items())
        ],
    }
    # entries are written as they are kept: tuples encode as arrays
    lists = (
        {"tag": tag, "cluster": cluster, "entries": entries}
        for (tag, cluster), entries in sorted(index.lists.items())
    )
    _write_jsonl(path, chain((header, {"model": model}, {"sets": sets}), lists))


# The exact JSON types each leaf shape admits; being exact, a boolean is
# never a number.
_LEAF_TYPES = {str: {str}, float: {int, float}}


def _all_fit(values: list, shape) -> bool:
    """Whether every loaded JSON value in ``values`` has ``shape``: ``str``;
    ``float`` for any number; ``[s]`` for an array of ``s``; ``{str: s}``
    for an object of ``s`` values; any other dict for an object with at
    least those fields. The check goes a column at a time, not value by
    value: a sets line holds thousands."""
    if isinstance(shape, type):
        return set(map(type, values)) <= _LEAF_TYPES[shape]
    if isinstance(shape, list):
        return set(map(type, values)) <= {list} and _all_fit(
            list(chain.from_iterable(values)), shape[0]
        )
    if not set(map(type, values)) <= {dict}:
        return False
    if str in shape:
        return _all_fit(list(chain.from_iterable(map(dict.values, values))), shape[str])
    # a missing field reads as None, which fits no shape
    return all(_all_fit([v.get(k) for v in values], s) for k, s in shape.items())


_MODEL_LINE = {"model": {"assignment": {str: str}, "leaders": {str: str}}}
_SETS_LINE = {
    "sets": {
        "network": {str: [str]},
        "items": {str: [str]},
        "taggers": [{"item": str, "tag": str, "users": [str]}],
    }
}


def _fits_list_line(rec) -> bool:
    """Whether a loaded record is an inverted-list line: string ``tag`` and
    ``cluster``, and ``entries`` an array of [string, number] pairs, each
    type exact as in ``_LEAF_TYPES``."""
    if type(rec) is not dict:
        return False
    entries = rec.get("entries")
    return (
        type(rec.get("tag")) is str
        and type(rec.get("cluster")) is str
        and type(entries) is list
        and set(map(type, entries)) <= {list}
        and set(map(len, entries)) <= {2}
        and set(map(type, map(itemgetter(0), entries))) <= _LEAF_TYPES[str]
        and set(map(type, map(itemgetter(1), entries))) <= _LEAF_TYPES[float]
    )


def load_index_snapshot(path: str) -> ClusteredIndex:
    """Read a snapshot written by save_index_snapshot. A line whose
    section, field or list entry is missing or mistyped, a list out of
    order, or a cluster without a leader that a user or list names raises
    GraphFileError with its line number, as does a score that is not
    finite or not within float range, or is negative (it would bound
    nothing: an item missing from a list scores 0 there); scores keep
    their JSON type. A file that ends before its sets line is truncated,
    at line 1.

    Each line is checked and converted as it is read, and its decoded
    record dropped before the next: holding every decoded list at once
    made the cyclic collector walk them all, again and again. Every id
    the index holds is one string object per id, and the lists hold one
    tuple per distinct nonzero (item, score) pair of one JSON type."""
    from .index import ClusteredIndex, ClusterModel, SocialSets

    # id -> the one str object kept for it; (item, score, type of score)
    # -> the one (item, score) tuple kept for it
    shared: dict = {}
    share, kept = shared.setdefault, shared.get
    vocabulary = model = sets = None
    lists = {}

    def header_line(rec) -> None:
        nonlocal vocabulary
        header = (rec.get("format"), rec.get("version")) if isinstance(rec, dict) else None
        if header != (SNAPSHOT_FORMAT, SNAPSHOT_VERSION):
            raise ValueError("not a recognized index snapshot")
        if "vocabulary" in rec:
            if not _all_fit([rec["vocabulary"]], [str]):
                raise ValueError("malformed vocabulary")
            vocabulary = frozenset(rec["vocabulary"])

    def model_line(rec) -> None:
        nonlocal model
        if not _all_fit([rec], _MODEL_LINE):
            raise ValueError("malformed model line")
        rec = rec["model"]
        model = ClusterModel(
            assignment={share(u, u): share(c, c) for u, c in rec["assignment"].items()},
            leaders={share(c, c): share(u, u) for c, u in rec["leaders"].items()},
        )
        for cluster in model.assignment.values():
            if cluster not in model.leaders:
                raise ValueError(f"cluster {cluster!r} has no leader")

    def ids(values) -> frozenset:
        return frozenset([share(v, v) for v in values])

    def sets_line(rec) -> None:
        nonlocal sets
        if not _all_fit([rec], _SETS_LINE):
            raise ValueError("malformed sets line")
        rec = rec["sets"]
        sets = SocialSets(
            network={share(u, u): ids(v) for u, v in rec["network"].items()},
            items={share(u, u): ids(v) for u, v in rec["items"].items()},
            taggers={
                (share(entry["item"], entry["item"]), share(entry["tag"], entry["tag"])): ids(entry["users"])
                for entry in rec["taggers"]
            },
        )

    def list_line(rec) -> None:
        if not _fits_list_line(rec):
            raise ValueError("malformed inverted list line")
        entries = rec["entries"]
        if rec["cluster"] not in model.leaders:
            raise ValueError(f"cluster {rec['cluster']!r} has no leader")
        if not _finite(map(itemgetter(1), entries)):
            raise ValueError("list scores must be finite numbers")
        if not _ranked(entries):
            raise ValueError("entries not sorted by score descending, then item id")
        if entries and entries[-1][1] < 0:  # ranked, so the last score is the lowest
            raise ValueError("list scores must not be negative")
        pairs = []
        for item, score in entries:
            key = (item, score, type(score))
            pair = kept(key)
            if pair is None:
                pair = (share(item, item), score)
                if score:  # 0.0 and -0.0 are equal keys but save differently
                    shared[key] = pair
            pairs.append(pair)
        lists[(share(rec["tag"], rec["tag"]), share(rec["cluster"], rec["cluster"]))] = tuple(pairs)

    sections = iter((header_line, model_line, sets_line))
    _read_jsonl(path, lambda rec: next(sections, list_line)(rec))
    if sets is None:
        raise GraphFileError(path, 1, "truncated index snapshot")
    vocabulary = sets.tags if vocabulary is None else vocabulary
    return ClusteredIndex(lists=lists, model=model, sets=sets, vocabulary=vocabulary)


def _finite(numbers) -> bool:
    """Whether every loaded JSON number is finite and within float range."""
    try:
        return all(map(math.isfinite, numbers))
    except OverflowError:  # an int beyond float range
        return False


def _ranked(entries: list) -> bool:
    """Whether [item, score] entries run by score descending, then item id."""
    return all(
        s1 > s2 or (s1 == s2 and i1 <= i2) for (i1, s1), (i2, s2) in zip(entries, entries[1:])
    )
