"""Graph and index persistence.

Graphs are stored as two JSON-lines files: one node record or link
record per line. Node records are ``{"id", "attrs"}``; link records add
``"src"`` and ``"tgt"``. Attribute values may be a scalar or an array
of scalars (arrays become value sets, singletons are allowed either
way). Ids are stringified on load. Writing is byte-stable: records are
sorted by id, object keys are sorted, multi-valued attributes are
written as sorted arrays (strings before numbers) and singletons as
bare scalars.

Index snapshots are a single JSON-lines file: a versioned header line,
then the cluster model, the social sets, and one line per (tag,
cluster) inverted list, each section sorted for byte stability.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from operator import itemgetter

from .errors import GraphFileError
from .graph import Link, Node, SocialContentGraph, as_attr_value, build_graph, sorted_values
from .index import ClusteredIndex, ClusterModel, SocialSets

SNAPSHOT_FORMAT = "socialgraph-index"
SNAPSHOT_VERSION = 1


def _coerce_id(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"ids must be strings or numbers, got {value!r}")
    return str(value)


def _read_jsonl(path: str):
    """Yield (line number, record) for each non-blank JSON line."""
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            text = raw.strip()
            if text:
                try:
                    yield line_no, json.loads(text)
                except json.JSONDecodeError as e:
                    raise GraphFileError(path, line_no, f"invalid JSON: {e.msg}") from e


def _graph_records(path: str):
    for line_no, record in _read_jsonl(path):
        if not isinstance(record, dict) or "id" not in record:
            raise GraphFileError(path, line_no, "records need an 'id' field")
        yield line_no, record


def _parse_attrs(path: str, line_no: int, record: dict) -> dict:
    attrs = record.get("attrs", {})
    if not isinstance(attrs, dict):
        raise GraphFileError(path, line_no, "'attrs' must be an object")
    try:
        return {name: as_attr_value(value) for name, value in attrs.items()}
    except ValueError as e:
        raise GraphFileError(path, line_no, str(e)) from e


def load_graph(node_path: str, link_path: str) -> SocialContentGraph:
    """Read the two JSON-lines files and build a validated graph."""
    nodes = []
    for line_no, record in _graph_records(node_path):
        try:
            nid = _coerce_id(record["id"])
        except ValueError as e:
            raise GraphFileError(node_path, line_no, str(e)) from e
        nodes.append(Node(id=nid, attrs=_parse_attrs(node_path, line_no, record)))
    links = []
    for line_no, record in _graph_records(link_path):
        try:
            lid = _coerce_id(record["id"])
            src = _coerce_id(record.get("src"))
            tgt = _coerce_id(record.get("tgt"))
        except ValueError as e:
            raise GraphFileError(link_path, line_no, str(e)) from e
        links.append(Link(id=lid, src=src, tgt=tgt, attrs=_parse_attrs(link_path, line_no, record)))
    return build_graph(nodes, links)


def _attrs_record(attrs: dict) -> dict:
    out = {}
    for name, values in attrs.items():
        ordered = sorted_values(values)
        out[name] = ordered[0] if len(ordered) == 1 else ordered
    return out


def json_line(record: dict) -> str:
    """One JSON-lines record: sorted keys, non-ASCII text as is, compact
    separators, so equal records always give the same bytes."""
    return json.dumps(record, sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def save_graph(g: SocialContentGraph, node_path: str, link_path: str) -> None:
    """Write a graph; loading the output reproduces the graph exactly,
    and identical graphs produce identical bytes."""
    with open(node_path, "w", encoding="utf-8", newline="\n") as fh:
        for nid in sorted(g.nodes):
            n = g.nodes[nid]
            fh.write(json_line({"id": n.id, "attrs": _attrs_record(n.attrs)}) + "\n")
    with open(link_path, "w", encoding="utf-8", newline="\n") as fh:
        for lid in sorted(g.links):
            l = g.links[lid]
            fh.write(
                json_line(
                    {"id": l.id, "src": l.src, "tgt": l.tgt, "attrs": _attrs_record(l.attrs)}
                )
                + "\n"
            )


def load_scored_items(path: str) -> list:
    """Read (item id, score) pairs from JSON lines of ``{"id", "score"}``;
    a missing score reads as 1.0. A record that is not an object, lacks
    an id, or has a score that is not a finite number (booleans
    included) raises GraphFileError with its line number."""
    out = []
    for line_no, record in _graph_records(path):
        score = record.get("score", 1.0)
        try:
            item = _coerce_id(record["id"])
            number = isinstance(score, (int, float)) and not isinstance(score, bool)
            if not (number and math.isfinite(score)):
                raise ValueError(f"scores must be finite numbers, got {score!r}")
        except (ValueError, OverflowError) as e:  # OverflowError: an int beyond float range
            raise GraphFileError(path, line_no, str(e)) from e
        out.append((item, float(score)))
    return out


# ---------------------------------------------------------------------------
# Index snapshots


def save_index_snapshot(index: ClusteredIndex, path: str) -> None:
    """Write a ClusteredIndex: header line, model line, sets line, then
    one line per (tag, cluster) list in sorted key order."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json_line({"format": SNAPSHOT_FORMAT, "version": SNAPSHOT_VERSION}) + "\n")
        model = {
            "assignment": dict(sorted(index.model.assignment.items())),
            "leaders": dict(sorted(index.model.leaders.items())),
        }
        fh.write(json_line({"model": model}) + "\n")
        sets = {
            "network": {u: sorted(v) for u, v in sorted(index.sets.network.items())},
            "items": {u: sorted(v) for u, v in sorted(index.sets.items.items())},
            "taggers": [
                {"item": item, "tag": tag, "users": sorted(users)}
                for (item, tag), users in sorted(index.sets.taggers.items())
            ],
        }
        fh.write(json_line({"sets": sets}) + "\n")
        for (tag, cluster), entries in sorted(index.lists.items()):
            fh.write(
                json_line(
                    {
                        "tag": tag,
                        "cluster": cluster,
                        "entries": [[item, score] for item, score in entries],
                    }
                )
                + "\n"
            )


# The exact JSON types each leaf shape admits; being exact, a boolean is
# never a number.
_LEAF_TYPES = {str: {str}, float: {int, float}}


def _all_fit(values: list, shape) -> bool:
    """Whether every loaded JSON value in ``values`` has ``shape``: ``str``;
    ``float`` for any number; ``[s]`` for an array of ``s``; ``(s1, s2)``
    for a pair; ``{str: s}`` for an object of ``s`` values; any other dict
    for an object with at least those fields. The check goes a column at
    a time, not value by value: a snapshot holds hundreds of thousands."""
    if isinstance(shape, type):
        return set(map(type, values)) <= _LEAF_TYPES[shape]
    if isinstance(shape, (list, tuple)):
        if not set(map(type, values)) <= {list}:
            return False
        if isinstance(shape, list):
            return _all_fit(list(chain.from_iterable(values)), shape[0])
        return set(map(len, values)) <= {len(shape)} and all(
            _all_fit(list(map(itemgetter(i), values)), s) for i, s in enumerate(shape)
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
_LIST_LINE = {"tag": str, "cluster": str, "entries": [(str, float)]}


def load_index_snapshot(path: str) -> ClusteredIndex:
    """Read a snapshot written by save_index_snapshot. A line whose
    section, field or list entry is missing or mistyped, a list out of
    order, or a list of a cluster without a leader raises GraphFileError
    with its line number; scores keep their JSON type."""
    lines = list(_read_jsonl(path))
    if len(lines) < 3:
        raise GraphFileError(path, 1, "truncated index snapshot")
    head_no, header = lines[0]
    if (
        not isinstance(header, dict)
        or header.get("format") != SNAPSHOT_FORMAT
        or header.get("version") != SNAPSHOT_VERSION
    ):
        raise GraphFileError(path, head_no, "not a recognized index snapshot")
    for what, shape, group in (
        ("model", _MODEL_LINE, lines[1:2]),
        ("sets", _SETS_LINE, lines[2:3]),
        ("inverted list", _LIST_LINE, lines[3:]),
    ):
        if not _all_fit([record for _, record in group], shape):
            line_no = next(n for n, record in group if not _all_fit([record], shape))
            raise GraphFileError(path, line_no, f"malformed {what} line")
    model_rec = lines[1][1]["model"]
    sets_rec = lines[2][1]["sets"]
    model = ClusterModel(
        assignment=dict(model_rec["assignment"]), leaders=dict(model_rec["leaders"])
    )
    sets = SocialSets(
        network={u: frozenset(v) for u, v in sets_rec["network"].items()},
        items={u: frozenset(v) for u, v in sets_rec["items"].items()},
        taggers={
            (entry["item"], entry["tag"]): frozenset(entry["users"])
            for entry in sets_rec["taggers"]
        },
    )
    lists = {}
    for line_no, rec in lines[3:]:
        if rec["cluster"] not in model.leaders:
            raise GraphFileError(path, line_no, f"cluster {rec['cluster']!r} has no leader")
        entries = rec["entries"]
        if not _ranked(entries):
            raise GraphFileError(path, line_no, "entries not sorted by score descending, then item id")
        lists[(rec["tag"], rec["cluster"])] = tuple((item, score) for item, score in entries)
    return ClusteredIndex(lists=lists, model=model, sets=sets)


def _ranked(entries: list) -> bool:
    """Whether [item, score] entries run by score descending, then item id."""
    return all(
        s1 > s2 or (s1 == s2 and i1 <= i2) for (i1, s1), (i2, s2) in zip(entries, entries[1:])
    )
