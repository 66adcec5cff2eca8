"""Acceptance suite: one test per criterion, each printing a PASS line
with its runtime (run with ``pytest -v -s tests/test_acceptance.py``).

The shared tagging corpus (20 fixtures at 100 users / 500 items / 20
tags, indexed under every strategy and theta) is built once and reused
by the top-k, safety, and clustering criteria.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from conftest import oracle_cf_scores, oracle_network_search
from script_corpus import CORPUS, read_script
from socialgraph import dsl
from socialgraph.aggfn import Arith, AttrRef, ONE, SumOver, avg_of, jaccard, sum_of
from socialgraph.aggfn import COUNT as COUNT_BUILTIN
from socialgraph.algebra import SetOpKind, link_minus, set_op
from socialgraph.discovery import DiscoveryConfig, cf_recommend, visited_items
from socialgraph.fixtures import (
    cf_fixture,
    minus_pair,
    random_plain_graph,
    random_tagging_graph,
    random_travel_graph,
    rng_from,
)
from socialgraph.graph import Condition, attr_eq, link
from socialgraph.index import (
    ClusteringStrategy,
    build_index,
    cluster_users,
    estimate_index_size,
    exact_score,
    exhaustive_topk,
    social_sets,
    topk_query,
)
from socialgraph.io import load_graph, save_graph
from socialgraph.presentation import (
    SocialGrouping,
    aggregate_explanations,
    explain_item,
    group_items,
)

THETAS = (0.3, 0.5, 0.8)
KS = (1, 5, 20)
STRATEGIES = ("network", "behavior", "hybrid")


def _report(criterion: int, label: str, elapsed: float):
    print(f"ACCEPTANCE {criterion:2d} PASS  {label}  ({elapsed:.3f}s)")


@pytest.fixture(scope="module")
def tagging_corpus():
    """(build time, [(seed, sets, tags, {(strategy, theta): index})])."""
    t0 = time.perf_counter()
    runs = []
    for seed in range(20):
        g = random_tagging_graph(rng_from(seed))
        sets = social_sets(g)
        tags = frozenset(t for (_, t) in sets.taggers)
        indexes = {}
        for kind in STRATEGIES:
            for theta in THETAS:
                model = cluster_users(sets, ClusteringStrategy(kind, theta))
                indexes[(kind, theta)] = build_index(sets, model, tags)
        runs.append((seed, sets, tags, indexes))
    return time.perf_counter() - t0, runs


def test_criterion_01_index_size_reproduction():
    estimate_index_size(1, 1, 1, 1.0, 1)  # warm up
    t0 = time.perf_counter()
    size = estimate_index_size(100000, 1000000, 20, 0.05, 10)
    elapsed = time.perf_counter() - t0
    assert size == 10**12
    assert elapsed < 0.001
    _report(1, "index sizing = 1e12 bytes exactly", elapsed)


def test_criterion_02_minus_operator_fidelity():
    g1, g2 = minus_pair()
    set_op(SetOpKind.NODE_MINUS, g1, g2)  # warm up
    t0 = time.perf_counter()
    node_driven = set_op(SetOpKind.NODE_MINUS, g1, g2)
    link_driven = link_minus(g1, g2)
    elapsed = time.perf_counter() - t0
    assert set(node_driven.nodes) == {"c"} and not node_driven.links
    assert set(link_driven.nodes) == {"a", "b", "c"}
    assert set(link_driven.links) == {"ac", "bc"}
    assert elapsed < 0.001
    _report(2, "node-driven {c}; link-driven {a,b,c;(a,c),(b,c)}", elapsed)


def test_criterion_03_cf_example_end_to_end():
    g = cf_fixture()
    t0 = time.perf_counter()
    results = dsl.run_script(read_script("ex5_cf.sgs"), {"G": g})
    scored_dsl = results["G7"]
    _, ranking = cf_recommend(g, "101", DiscoveryConfig(sim_threshold=0.5))
    elapsed = time.perf_counter() - t0
    # the DSL graph carries a 101->R link scoring 2/3
    to_r = [l for l in scored_dsl.links.values() if l.tgt == "203"]
    assert len(to_r) == 1 and to_r[0].src == "101"
    (score,) = to_r[0].attrs["score"]
    assert score == pytest.approx(2 / 3, abs=1e-9)
    # rankings exclude the visited P and Q on both routes
    visited = visited_items(g, "101")
    dsl_rank = sorted(
        (
            (l.tgt, v)
            for l in scored_dsl.links.values()
            if l.tgt not in visited
            for v in l.attrs["score"]
        ),
        key=lambda e: (-e[1], e[0]),
    )
    assert [i for i, _ in dsl_rank] == ["203"]
    assert [i for i, _ in ranking] == ["203"]
    assert ranking[0][1] == pytest.approx(2 / 3, abs=1e-9)
    # brute-force oracle agreement
    want = oracle_cf_scores(g, "101", 0.5)
    assert [i for i, _ in want] == ["203"]
    assert ranking[0][1] == pytest.approx(want[0][1], abs=1e-9)
    assert elapsed < 0.1
    _report(3, "CF example: R at 2/3, P/Q excluded, DSL == API == oracle", elapsed)


def test_criterion_04_search_example_end_to_end():
    cond = Condition(preds=(attr_eq("type", "destination"),))
    t0 = time.perf_counter()
    from socialgraph.discovery import network_search

    for seed in range(50):
        g = random_travel_graph(rng_from(seed), n_users=10, n_places=20)
        assert network_search(g, "u00", cond) == oracle_network_search(g, "u00", cond)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(4, "search plan == traversal oracle on 50 random 30-node fixtures", elapsed)


def test_criterion_05_topk_correctness(tagging_corpus):
    build_time, runs = tagging_corpus
    t0 = time.perf_counter()
    checked = 0
    for seed, sets, tags, indexes in runs:
        tag_list = sorted(tags)
        users = sorted(sets.network)[::10]
        for (kind, theta), index in indexes.items():
            rng = rng_from(10_000 + seed)
            for user in users:
                keywords = rng.sample(tag_list, rng.randint(1, 3))
                for k in KS:
                    assert topk_query(index, user, keywords, k) == exhaustive_topk(
                        sets, user, keywords, k
                    ), (seed, kind, theta, user, keywords, k)
                    checked += 1
    elapsed = time.perf_counter() - t0 + build_time
    assert elapsed < 60.0
    _report(5, f"top-k == exhaustive on {checked} queries (incl. {build_time:.1f}s build)", elapsed)


def test_criterion_06_upper_bound_safety(tagging_corpus):
    _, runs = tagging_corpus
    t0 = time.perf_counter()
    checked = 0
    for _, sets, _, indexes in runs:
        # users that can score > 0 for each (item, tag), via the inverse
        # friendship map; all other users trivially satisfy stored >= 0
        befriended = {}
        for u, net in sets.network.items():
            for v in net:
                befriended.setdefault(v, set()).add(u)
        positives = {
            key: set().union(*(befriended.get(t, set()) for t in taggers))
            for key, taggers in sets.taggers.items()
        }
        for index in indexes.values():
            stored = {key: dict(entries) for key, entries in index.lists.items()}
            assignment = index.model.assignment
            for (item, tag), users in positives.items():
                for u in users:
                    bound = stored.get((tag, assignment[u]), {}).get(item, 0)
                    assert bound >= exact_score(sets, item, u, [tag])
                    checked += 1
    elapsed = time.perf_counter() - t0
    _report(6, f"stored cluster bounds >= exact scores ({checked} checks, 0 violations)", elapsed)


def test_criterion_07_naf_oracle_equivalence():
    rng = rng_from(777)
    explicit_count = SumOver(ONE)
    explicit_sum = SumOver(AttrRef("w"))
    explicit_avg = Arith("/", SumOver(AttrRef("w")), SumOver(ONE))
    from socialgraph.aggfn import eval_naf

    t0 = time.perf_counter()
    for i in range(1000):
        rows = [
            link(f"l{i}:{j}", "u", "v", type="w", w=round(rng.uniform(-10, 10), 6))
            for j in range(rng.randint(1, 10))
        ]
        assert eval_naf(COUNT_BUILTIN, rows) == eval_naf(explicit_count, rows)
        assert eval_naf(sum_of("w"), rows) == pytest.approx(
            eval_naf(explicit_sum, rows), abs=1e-9
        )
        assert eval_naf(avg_of("w"), rows) == pytest.approx(
            eval_naf(explicit_avg, rows), abs=1e-9
        )
    elapsed = time.perf_counter() - t0
    _report(7, "COUNT/SUM/AVG builtins == expression trees on 1000 collections", elapsed)


def test_criterion_08_clustering_validity_and_determinism(tagging_corpus):
    _, runs = tagging_corpus
    t0 = time.perf_counter()
    for _, sets, _, indexes in runs:
        for (kind, theta), index in indexes.items():
            model = index.model
            for u, cid in model.assignment.items():
                leader = model.leaders[cid]
                if u == leader:
                    continue
                if kind == "network":
                    assert jaccard(sets.network[u], sets.network[leader]) >= theta
                elif kind == "behavior":
                    assert jaccard(sets.items[u], sets.items[leader]) >= theta
                else:
                    net_u, net_l = sets.network[u], sets.network[leader]
                    assert net_u and net_l
                    assert all(
                        jaccard(sets.items.get(v1, ()), sets.items.get(v2, ())) >= theta
                        for v1 in net_u
                        for v2 in net_l
                    )
    # byte determinism: regenerate fixture 0 from scratch, twice in
    # process, then in two fresh interpreters with different hash seeds
    blobs = []
    for _ in range(2):
        g = random_tagging_graph(rng_from(0))
        sets = social_sets(g)
        model = cluster_users(sets, ClusteringStrategy("network", 0.5))
        blobs.append(
            json.dumps(
                {"assignment": model.assignment, "leaders": model.leaders}, sort_keys=True
            ).encode()
        )
    assert blobs[0] == blobs[1]
    assert blobs[0] == json.dumps(
        {
            "assignment": runs[0][3][("network", 0.5)].model.assignment,
            "leaders": runs[0][3][("network", 0.5)].model.leaders,
        },
        sort_keys=True,
    ).encode()
    assert _snapshot_digest_subprocess("0") == _snapshot_digest_subprocess("4242")
    elapsed = time.perf_counter() - t0
    _report(8, "every member satisfies its leader predicate; byte-deterministic", elapsed)


_DIGEST_SNIPPET = """
import hashlib, io, json
from socialgraph.fixtures import random_tagging_graph, rng_from
from socialgraph.index import ClusteringStrategy, build_index, cluster_users, social_sets
from socialgraph.io import save_index_snapshot
g = random_tagging_graph(rng_from(0), n_users=40, n_items=80, n_tags=8)
sets = social_sets(g)
model = cluster_users(sets, ClusteringStrategy("network", 0.5))
index = build_index(sets, model, {t for (_, t) in sets.taggers})
import tempfile, os
fd, path = tempfile.mkstemp()
os.close(fd)
save_index_snapshot(index, path)
print(hashlib.sha256(open(path, "rb").read()).hexdigest())
os.unlink(path)
"""


def _snapshot_digest_subprocess(hash_seed: str) -> str:
    import os
    import subprocess
    import sys

    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    out = subprocess.run(
        [sys.executable, "-c", _DIGEST_SNIPPET],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return out.stdout.strip()


def test_criterion_09_dsl_equivalence():
    t0 = time.perf_counter()
    assert len(CORPUS) >= 10
    for script, inputs, hand in CORPUS:
        env = inputs()
        results = dsl.run_script(read_script(script), env)
        expected = hand(env)
        assert set(results) == set(expected), script
        for name, graph in expected.items():
            assert results[name] == graph, (script, name)
    elapsed = time.perf_counter() - t0
    _report(9, f"{len(CORPUS)} scripts == hand-built pipelines (exact graphs)", elapsed)


def test_criterion_10_grouping_and_explanations():
    t0 = time.perf_counter()
    # tagger-set leader predicate on a random tagging graph
    g = random_tagging_graph(rng_from(90), n_users=30, n_items=60, n_tags=8)
    sets = social_sets(g)
    items = [(iid, 1.0 - i * 0.01) for i, iid in enumerate(sorted({i for (i, _) in sets.taggers})[:40])]
    theta = 0.4
    for grp in group_items(items, g, SocialGrouping(theta=theta)):
        leader = grp.members[0]
        for member in grp.members:
            assert jaccard(sets.all_taggers(member), sets.all_taggers(leader)) >= theta
    # the 3-of-5 friends fixture reproduces the endorsement sentence
    from socialgraph.graph import build_graph, node

    nodes = [node("u", type="user"), node("i", type="item")]
    nodes += [node(f"f{j}", type="user") for j in range(5)]
    links = [link(f"fr{j}", "u", f"f{j}", type=("connect", "friend")) for j in range(5)]
    links += [link(f"tg{j}", f"f{j}", "i", type=("act", "tag"), tags="nice") for j in range(3)]
    endorse = build_graph(nodes, links)
    summary, ratio = aggregate_explanations(endorse, "u", "i", "collaborative")
    assert summary == "60% of your friends endorsed this item"
    assert ratio == pytest.approx(0.6)
    # explanation evidence is recomputable with identical weights
    cf = cf_fixture()
    first = explain_item(cf, "101", "203", "collaborative")
    second = explain_item(cf, "101", "203", "collaborative")
    assert first == second and all(w > 0 for _, w in first.evidence)
    elapsed = time.perf_counter() - t0
    _report(10, "social groups satisfy the leader predicate; 60% sentence exact", elapsed)


def test_criterion_11_round_trip_persistence(tmp_path):
    rng = rng_from(110)
    t0 = time.perf_counter()
    for i in range(100):
        g = random_plain_graph(rng, rng.randint(2, 15), rng.randint(0, 25))
        np1 = str(tmp_path / f"{i}.n1.jsonl")
        lp1 = str(tmp_path / f"{i}.l1.jsonl")
        np2 = str(tmp_path / f"{i}.n2.jsonl")
        lp2 = str(tmp_path / f"{i}.l2.jsonl")
        save_graph(g, np1, lp1)
        assert load_graph(np1, lp1) == g
        save_graph(g, np2, lp2)
        assert Path(np1).read_bytes() == Path(np2).read_bytes()
        assert Path(lp1).read_bytes() == Path(lp2).read_bytes()
    elapsed = time.perf_counter() - t0
    _report(11, "save/load exact on 100 random graphs; identical bytes", elapsed)
