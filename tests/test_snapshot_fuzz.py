"""Differential fuzz test of the streaming snapshot loader.

Real snapshots are mutated the ways a file goes wrong: lines dropped,
duplicated, swapped or blank; the file truncated; a line of invalid
JSON; a field mistyped or deleted anywhere in a line; a score that is
NaN, infinite, beyond float range, an integer of more digits than
Python converts (5,001), boolean or negative; a list whose
lowest score is negative; one item appended to every list with a valid
zero score, ``0``, ``0.0`` or ``-0.0`` drawn for each; list entries out
of order; clusters without a leader; a header vocabulary, well-formed or
not; and one to three of these in one file. ``load_index_snapshot`` must give what
``load_index_snapshot_held`` in ``reference.py`` gives, the loader that
decodes and holds every line before checking any, then checks them in
file order with one shape per line, pairs included: an equal index with
the same list order and the same ``repr`` of every score, which tells
``1`` from ``1.0`` and ``0.0`` from ``-0.0``, or the same
``GraphFileError`` (path, line and message).
"""

from __future__ import annotations

import json
import math
from functools import cache

from hypothesis import given, settings
from hypothesis import strategies as st

from reference import load_index_snapshot_held
from socialgraph.errors import GraphFileError
from socialgraph.fixtures import jazz_fixture, random_tagging_graph, rng_from
from socialgraph.index import ClusteringStrategy, build_index, cluster_users, social_sets
from socialgraph.io import load_index_snapshot, save_index_snapshot


@cache
def snapshots(tmp) -> tuple:
    """Three real snapshots as lists of lines: the jazz fixture (integer
    scores, no vocabulary), and a small tagging graph indexed for two of
    its tags (a vocabulary) and for every tag."""
    jazz = social_sets(jazz_fixture())
    tagging = social_sets(random_tagging_graph(rng_from(3), 10, 24, n_tags=4, n_communities=2))
    tags = sorted({tag for _, tag in tagging.taggers})
    indexes = (
        build_index(jazz, cluster_users(jazz, ClusteringStrategy("network", 0.5)), ["jazz"]),
        build_index(tagging, cluster_users(tagging, ClusteringStrategy("network", 0.3)), tags[:2]),
        build_index(tagging, cluster_users(tagging, ClusteringStrategy("behavior", 0.1)), tags),
    )
    out = []
    for i, ix in enumerate(indexes):
        path = str(tmp / f"base{i}.snap")
        save_index_snapshot(ix, path)
        with open(path, encoding="utf-8") as fh:
            out.append(fh.read().splitlines())
    return tuple(out)


BIG = 10**400  # an int beyond float range
HUGE = "@huge@"  # written as a 5,001-digit int, which json.dumps cannot write
ODD = (None, True, False, 0, 2, -1.5, 0.25, "x", "ghost", "", [], {}, ["i0", 2], [["i0", 2]])
BAD_SCORES = (HUGE, math.nan, math.inf, -math.inf, BIG, True, False, "1", None, -1, -0.5)
KINDS = (
    "drop", "dup", "swap", "blank", "truncate", "invalid",
    "retype", "delete", "score", "negative", "zero", "unrank", "leaderless", "vocabulary",
)
ZEROS = (0, 0.0, -0.0)
VOCABULARIES = (["jazz"], [], ["tag00", "tag01", "tag02"], "jazz", [1], [["jazz"]], None)


def _record(line):
    try:
        return json.loads(line)
    except (ValueError, RecursionError):  # invalid, an integer too long, or nested too deeply
        return None


def _encode(record) -> str:
    return json.dumps(record).replace(json.dumps(HUGE), "1" + "0" * 5000)


def _inside(draw, record):
    """A (container, key) pair somewhere inside ``record``, or None."""
    spot, node = None, record
    while isinstance(node, (dict, list)) and node and draw(st.booleans()):
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        spot, node = (node, key), node[key]
    return spot


def _entries(record):
    if isinstance(record, dict) and isinstance(record.get("entries"), list):
        return [e for e in record["entries"] if isinstance(e, list) and len(e) == 2]
    return []


def _mutate(draw, lines: list, kind: str) -> list:
    if kind == "truncate":
        text = "\n".join(lines)
        return text[: draw(st.integers(0, len(text)))].split("\n")
    if kind == "zero":  # valid below any score a built list holds
        item, out = draw(st.sampled_from(("zz", "i0"))), []
        for line in lines:
            record = _record(line)
            if isinstance(record, dict) and isinstance(record.get("entries"), list):
                record["entries"].append([item, draw(st.sampled_from(ZEROS))])
                line = json.dumps(record)
            out.append(line)
        return out
    if not lines:
        return lines
    i = 0 if kind == "vocabulary" else draw(st.integers(0, len(lines) - 1))
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
        return lines[:i] + [draw(st.sampled_from(('{"tag":', "not json", "[1,", "}", "[" * 5000)))] + lines[i + 1 :]
    record = _record(lines[i])
    if record is None:
        return lines
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
    elif kind == "score":
        entries = _entries(record)
        if entries:
            draw(st.sampled_from(entries))[1] = draw(st.sampled_from(BAD_SCORES))
    elif kind == "negative":  # the lowest score of a list, made negative, keeps the order
        entries = _entries(record)
        if entries:
            entries[-1][1] = draw(st.sampled_from((-1, -0.5)))
    elif kind == "unrank":
        entries = _entries(record)
        if len(entries) >= 2:
            a, b = draw(st.permutations(range(len(entries))))[:2]
            entries[a][:], entries[b][:] = list(entries[b]), list(entries[a])
    elif kind == "vocabulary":
        if isinstance(record, dict):
            record["vocabulary"] = draw(st.sampled_from(VOCABULARIES))
    elif isinstance(record, dict) and isinstance(record.get("cluster"), str):  # leaderless
        record["cluster"] = "ghost"
    elif isinstance(record, dict) and isinstance(record.get("model"), dict):
        model = record["model"]
        if draw(st.booleans()) and isinstance(model.get("assignment"), dict) and model["assignment"]:
            model["assignment"][draw(st.sampled_from(sorted(model["assignment"])))] = "ghost"
        elif isinstance(model.get("leaders"), dict) and model["leaders"]:
            del model["leaders"][draw(st.sampled_from(sorted(model["leaders"])))]
    return lines[:i] + [_encode(record)] + lines[i + 1 :]


@st.composite
def mutated_snapshots(draw, bases):
    lines = list(draw(st.sampled_from(bases)))
    for kind in draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=3)):
        lines = _mutate(draw, lines, kind)
    return lines


def loaded(load, path):
    """The index a loader returns with its list order and the repr of
    each score, or the GraphFileError it raises; any other error fails
    the test."""
    try:
        ix = load(path)
    except GraphFileError as e:
        return ("error", e.path, e.line, str(e))
    return ix, list(ix.lists), [[repr(s) for _, s in entries] for entries in ix.lists.values()]


def check_same_load(lines, tmp):
    path = str(tmp / "mutated.snap")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in lines))
    assert loaded(load_index_snapshot, path) == loaded(load_index_snapshot_held, path)


def test_real_snapshots_load_alike(tmp_path_factory):
    tmp = tmp_path_factory.getbasetemp()
    for lines in snapshots(tmp):
        check_same_load(lines, tmp)
        assert not isinstance(loaded(load_index_snapshot, str(tmp / "mutated.snap"))[0], str)


@settings(max_examples=400)
@given(st.data())
def test_mutated_snapshots_load_or_fail_like_the_held_loader(tmp_path_factory, data):
    tmp = tmp_path_factory.getbasetemp()
    check_same_load(data.draw(mutated_snapshots(snapshots(tmp))), tmp)
