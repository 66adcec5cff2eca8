"""Shared fixtures and independent oracles for the test suite.

The oracles deliberately avoid the algebra/index code paths they check:
they are direct dict/set traversals over the raw graph.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

from socialgraph.fixtures import cf_fixture, jazz_fixture, minus_pair, travel_pair
from reference import satisfies
from socialgraph.graph import build_graph


# Property tests run the same fixed examples on every run, so the suite
# cannot flake or slow down from one run to the next; no example database.
settings.register_profile(
    "deterministic", derandomize=True, max_examples=60, deadline=None, database=None
)
settings.load_profile("deterministic")


@pytest.fixture
def travel_graph():
    return travel_pair()


@pytest.fixture
def cf_graph():
    return cf_fixture()


@pytest.fixture
def jazz_graph():
    return jazz_fixture()


@pytest.fixture
def minus_graphs():
    return minus_pair()


# ---------------------------------------------------------------------------
# Child interpreters

SRC = str(Path(__file__).resolve().parents[1] / "src")


def child_env(**overrides) -> dict:
    """The environment for a child interpreter, with ``src/`` first on
    its PYTHONPATH: pytest's own ``pythonpath`` setting reaches only
    this process."""
    env = {**os.environ, **overrides}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return env


# The package modules one CLI call loads, by subcommand (and method for
# recommend); a usage error (exit 2) loads only cli and errors. _COMMON
# is what loading graph files and index code takes; aggfn comes with the
# algebra and with presentation only.
_COMMON = {"cli", "errors", "graph", "io", "index"}
CLI_MODULES = {
    "query": _COMMON - {"index"} | {"aggfn", "algebra", "dsl"},
    "recommend cf": _COMMON | {"aggfn", "algebra", "dsl", "discovery"},
    "discover": _COMMON | {"aggfn", "algebra", "dsl", "discovery"},
    "recommend content": _COMMON | {"discovery"},
    "build-index": _COMMON,
    "topk": _COMMON,
    "group": _COMMON | {"aggfn", "discovery", "presentation"},
    "explain": _COMMON | {"aggfn", "discovery", "presentation"},
    "estimate-index": {"cli", "errors", "index"},
}

# A call that raises gets the exception's last traceback line in place
# of its exit code, so that only its own case fails, naming it.
_CLI_CHILD = """
import io, json, sys, traceback
results = []
for argv in json.load(sys.stdin):
    for name in [m for m in sys.modules if m == "socialgraph" or m.startswith("socialgraph.")]:
        del sys.modules[name]
    try:
        from socialgraph.cli import run_command
        code = run_command(argv, out=io.StringIO(), err=io.StringIO())
    except Exception as e:
        code = "raised " + traceback.format_exception_only(e)[-1].strip()
    results.append([code, sorted(m for m in sys.modules if m.startswith("socialgraph."))])
print(json.dumps(results))
"""


def cli_modules_loaded(argvs, cwd) -> list:
    """Run CLI calls one after another in one fresh interpreter, each on
    a fresh import of the package: per call, its exit code (or the
    exception it raised) and the package modules loaded by then, without
    the ``socialgraph.`` prefix."""
    proc = subprocess.run(
        [sys.executable, "-c", _CLI_CHILD], input=json.dumps(argvs),
        cwd=cwd, env=child_env(), capture_output=True, text=True, timeout=300, check=True,
    )
    return [(code, {m.removeprefix("socialgraph.") for m in modules}) for code, modules in json.loads(proc.stdout)]


def expected_cli_modules(argv, code) -> set:
    if code == 2:
        return {"cli", "errors"}
    if argv[0] == "recommend":
        method = argv[argv.index("--method") + 1] if "--method" in argv else "cf"
        return CLI_MODULES[f"recommend {method}"]
    return CLI_MODULES[argv[0]]


# ---------------------------------------------------------------------------
# Oracles


def oracle_network_search(g, user_id, place_condition):
    """Brute-force rendering of "friends who visited matching places,
    plus all their activities": plain adjacency scans, no algebra."""
    friend_links = [
        l for l in g.links.values() if l.src == user_id and "friend" in l.attrs["type"]
    ]
    places = {n.id for n in g.nodes.values() if satisfies(n, place_condition)}
    visit_links = [
        l for l in g.links.values() if "visit" in l.attrs["type"] and l.tgt in places
    ]
    visitors = {l.src for l in visit_links}
    qualifying = [l for l in friend_links if l.tgt in visitors]
    friends = {l.tgt for l in friend_links}
    friend_visits = [l for l in visit_links if l.src in friends]
    qf = {l.tgt for l in qualifying}
    activities = [l for l in g.links.values() if l.src in qf and "act" in l.attrs["type"]]
    links = {}
    for l in qualifying + friend_visits + activities:
        links[l.id] = l
    nodes = {}
    for l in links.values():
        nodes[l.src] = g.nodes[l.src]
        nodes[l.tgt] = g.nodes[l.tgt]
    return build_graph(nodes.values(), links.values())


def oracle_cf_scores(g, user_id, threshold):
    """Brute-force collaborative filtering: for each unvisited
    destination, the average Jaccard similarity over the multiset of
    (matched user, visit link) pairs with similarity above threshold."""
    visit_targets = {}  # user -> list of destinations, one per link
    for l in g.links.values():
        if "visit" in l.attrs["type"] and "destination" in g.nodes[l.tgt].attrs["type"]:
            visit_targets.setdefault(l.src, []).append(l.tgt)
    profiles = {u: frozenset(ds) for u, ds in visit_targets.items()}
    mine = profiles.get(user_id, frozenset())
    contributions = {}
    for u, profile in profiles.items():
        if u == user_id:
            continue
        union = mine | profile
        sim = len(mine & profile) / len(union) if union else 0.0
        if sim > threshold:
            for d in visit_targets[u]:
                contributions.setdefault(d, []).append(sim)
    ranking = [
        (d, sum(sims) / len(sims)) for d, sims in contributions.items() if d not in mine
    ]
    ranking.sort(key=lambda e: (-e[1], e[0]))
    return ranking


def oracle_exact_score(g, item_id, user_id, keywords):
    """Per-link-scan exact score, independent of SocialSets."""
    friends = set()
    for l in g.links.values():
        if "friend" in l.attrs["type"]:
            if l.src == user_id:
                friends.add(l.tgt)
            if l.tgt == user_id:
                friends.add(l.src)
    total = 0
    for k in keywords:
        taggers = {
            l.src
            for l in g.links.values()
            if "tag" in l.attrs["type"] and l.tgt == item_id and k in l.attrs.get("tags", ())
        }
        total += len(friends & taggers)
    return total
