"""Differential fuzz test of the graph JSON-lines loader.

The saved files of four graphs (jazz, cf, a travel graph, and a plain
graph holding ``0.0`` and ``-0.0`` values) are mutated the ways a file
goes wrong: lines dropped, duplicated, swapped or blank; the file
truncated; a line of invalid JSON, or nested too deeply; a field retyped
or deleted anywhere in a line; an id or value that is NaN, infinite,
beyond float range (``1e400`` or ``10**400``), an integer of more digits
than Python converts (5,001), boolean or an object; an
attribute named ``id``, ``src`` or ``tgt``; a duplicate id; a dangling
link end; a missing ``type``; and one to three of these in one pair of
files. ``load_graph`` must give what ``load_graph_unshared`` in
``reference.py`` gives, the loader that decodes and holds every line
before checking any and shares no object between records: an equal
graph whose re-saved files have the same bytes, the same
``GraphFileError`` (path, line and message), or the same other
``SocialGraphError`` (type and message). Any other exception fails.
"""

from __future__ import annotations

import json
import math
from functools import cache
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from reference import load_graph_unshared
from socialgraph.errors import GraphFileError, SocialGraphError
from socialgraph.fixtures import cf_fixture, jazz_fixture, random_plain_graph, random_travel_graph, rng_from
from socialgraph.graph import Link, Node, attr_map, build_graph
from socialgraph.io import load_graph, save_graph
from test_io import DEEP_JSON


def signed_zero_plain_graph():
    """A plain graph whose records take ``0.0``, ``-0.0`` and sets holding
    either, in turn."""
    g = random_plain_graph(rng_from(7), 8, 10)
    zeros = [attr_map({"z": z}) for z in (0.0, -0.0, (0.0, "x"), (-0.0, 1.5))]
    return build_graph(
        [Node(n.id, {**n.attrs, **zeros[i % 4]}) for i, n in enumerate(g.nodes.values())],
        [Link(l.id, l.src, l.tgt, {**l.attrs, **zeros[(i + 1) % 4]}) for i, l in enumerate(g.links.values())],
    )


def paths(tmp, stem) -> tuple:
    return str(tmp / f"{stem}.nodes.jsonl"), str(tmp / f"{stem}.links.jsonl")


@cache
def saved(tmp) -> tuple:
    """The four graphs' saved files, each as a (node lines, link lines) pair."""
    graphs = (jazz_fixture(), cf_fixture(), random_travel_graph(rng_from(5), 6, 8), signed_zero_plain_graph())
    out = []
    for i, g in enumerate(graphs):
        files = paths(tmp, f"base{i}")
        save_graph(g, *files)
        out.append(tuple(Path(p).read_text(encoding="utf-8").splitlines() for p in files))
    return tuple(out)


# Stand-ins written as text after encoding: JSON numbers json.dumps
# cannot write.
LITERALS = {"@1e400@": "1e400", "@-1e400@": "-1e400", "@huge@": "1" + "0" * 5000}
BAD = (math.nan, math.inf, -math.inf, *LITERALS, 10**400, True, False, {}, {"a": 1}, None)
ODD = (None, True, 0, 2, -1.5, "x", "", [], {}, ["a", 2], [["a"]], {"type": "user"})
KINDS = (
    "drop", "dup", "swap", "blank", "truncate", "invalid",
    "retype", "delete", "bad", "identity", "duplicate", "dangling", "untyped",
)


def _record(line):
    try:
        return json.loads(line)
    except (ValueError, RecursionError):  # invalid, an integer too long, or nested too deeply
        return None


def _inside(draw, record):
    """A (container, key) pair somewhere inside ``record``, or None."""
    spot, node = None, record
    while isinstance(node, (dict, list)) and node and draw(st.booleans()):
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        spot, node = (node, key), node[key]
    return spot


def _attrs(record) -> dict | None:
    if isinstance(record, dict) and isinstance(record.get("attrs"), dict):
        return record["attrs"]
    return None


def _encode(record) -> str:
    line = json.dumps(record)
    for stand_in, text in LITERALS.items():
        line = line.replace(json.dumps(stand_in), text)
    return line


def _mutate(draw, lines: list, ids: list, kind: str) -> list:
    if kind == "truncate":
        text = "\n".join(lines)
        return text[: draw(st.integers(0, len(text)))].split("\n")
    if not lines:
        return lines
    i = draw(st.integers(0, len(lines) - 1))
    if kind == "drop":
        return lines[:i] + lines[i + 1 :]
    if kind == "dup":
        return lines[: i + 1] + lines[i:]
    if kind == "swap":
        j = draw(st.integers(0, len(lines) - 1))
        lines = list(lines)
        lines[i], lines[j] = lines[j], lines[i]
        return lines
    if kind == "blank":
        return lines[:i] + [draw(st.sampled_from(("", "   ", "\t")))] + lines[i:]
    if kind == "invalid":
        return lines[:i] + [draw(st.sampled_from(('{"id":', "not json", "[1,", "}", DEEP_JSON)))] + lines[i + 1 :]
    record = _record(lines[i])
    if record is None:
        return lines
    attrs = _attrs(record)
    if kind == "retype":
        spot = _inside(draw, record)
        if spot is None:
            record = draw(st.sampled_from(ODD))
        else:
            spot[0][spot[1]] = draw(st.sampled_from(ODD))
    elif kind == "delete":
        spot = _inside(draw, record)
        if spot is not None:
            del spot[0][spot[1]]
    elif kind == "bad":  # an id, an end, a value or one scalar of a value set
        spots = [(record, k) for k in ("id", "src", "tgt") if isinstance(record, dict) and k in record]
        for name, values in (attrs or {}).items():
            spots.append((attrs, name))
            if isinstance(values, list):
                spots.extend((values, j) for j in range(len(values)))
        if spots:
            container, key = draw(st.sampled_from(spots))
            container[key] = draw(st.sampled_from(BAD))
    elif kind == "identity":
        if attrs is not None:
            attrs[draw(st.sampled_from(("id", "src", "tgt")))] = draw(st.sampled_from(("x", 1)))
    elif kind == "duplicate":
        if isinstance(record, dict) and ids:
            record["id"] = draw(st.sampled_from(ids))
    elif kind == "dangling":
        if isinstance(record, dict) and "src" in record:
            record[draw(st.sampled_from(("src", "tgt")))] = draw(st.sampled_from(("ghost", "", 7)))
    elif attrs is not None:  # untyped
        attrs.pop("type", None)
    return lines[:i] + [_encode(record)] + lines[i + 1 :]


def _ids(lines: list) -> list:
    return [r["id"] for r in map(_record, lines) if isinstance(r, dict) and "id" in r]


@st.composite
def mutated_files(draw, bases):
    files = list(draw(st.sampled_from(bases)))
    ids = _ids(files[0]) + _ids(files[1])
    for _ in range(draw(st.integers(1, 3))):
        which = draw(st.integers(0, 1))
        files[which] = _mutate(draw, files[which], ids, draw(st.sampled_from(KINDS)))
    return files


def loaded(load, files, tmp, stem):
    """The graph a loader returns with its re-saved bytes, or the error it
    raises: any error but a SocialGraphError fails the test."""
    try:
        g = load(*files)
    except GraphFileError as e:
        return ("error", e.path, e.line, str(e))
    except SocialGraphError as e:
        return ("error", type(e).__name__, str(e))
    again = paths(tmp, stem)
    save_graph(g, *again)
    return g, [Path(p).read_bytes() for p in again]


def check_same_load(files, tmp):
    mutated = paths(tmp, "mutated")
    for path, lines in zip(mutated, files):
        Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    assert loaded(load_graph, mutated, tmp, "shared") == loaded(load_graph_unshared, mutated, tmp, "fresh")
    return mutated


def test_saved_graphs_load_alike(tmp_path_factory):
    tmp = tmp_path_factory.getbasetemp()
    for files in saved(tmp):
        mutated = check_same_load(files, tmp)
        g, resaved = loaded(load_graph, mutated, tmp, "again")
        assert resaved == [Path(p).read_bytes() for p in mutated]


@settings(max_examples=600)
@given(st.data())
def test_mutated_graph_files_load_or_fail_like_the_unshared_loader(tmp_path_factory, data):
    tmp = tmp_path_factory.getbasetemp()
    check_same_load(data.draw(mutated_files(saved(tmp))), tmp)
