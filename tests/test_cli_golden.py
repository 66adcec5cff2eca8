"""Golden CLI outputs: stdout pinned byte for byte, in text and in
``--json`` mode, for every result-printing subcommand on ``cf_fixture``,
``jazz_fixture``, a small ``random_tagging_graph`` and a small
``random_travel_graph``.

Argument lists name their input files symbolically: ``@cf``, ``@jazz``,
``@tag`` and ``@travel`` expand to ``--nodes <file> --links <file>`` of
that graph, and any other argument found in the ``paths`` fixture is
replaced by its path.
"""

import io
import json
import os

import pytest

from conftest import cli_modules_loaded, expected_cli_modules
from socialgraph.cli import run_command
from socialgraph.fixtures import cf_fixture, jazz_fixture, random_tagging_graph, random_travel_graph, rng_from
from socialgraph.index import ClusteringStrategy, build_index, cluster_users, social_sets
from socialgraph.io import save_graph, save_index_snapshot

SCRIPTS = os.path.join(os.path.dirname(__file__), "scripts")

GRAPHS = {
    "cf": cf_fixture,
    "jazz": jazz_fixture,
    "tag": lambda: random_tagging_graph(rng_from(81), n_users=20, n_items=40, n_tags=6),
    "travel": lambda: random_travel_graph(rng_from(1), 8, 12),
}


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_command(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def paths(tmp_path):
    return write_paths(tmp_path)


def write_paths(directory) -> dict:
    p = lambda name: str(directory / name)  # noqa: E731
    found = {}
    for name, make in GRAPHS.items():
        g = make()
        save_graph(g, p(f"{name}.nodes"), p(f"{name}.links"))
        found[f"@{name}"] = ["--nodes", p(f"{name}.nodes"), "--links", p(f"{name}.links")]
        if name in ("jazz", "tag"):
            sets = social_sets(g)
            model = cluster_users(sets, ClusteringStrategy("network", 0.5))
            save_index_snapshot(build_index(sets, model, {t for (_, t) in sets.taggers}), p(f"{name}.snap"))
            found[f"{name}.snap"] = p(f"{name}.snap")
    for name in ("ex5_cf.sgs", "compose_pairs.sgs", "select_nodes.sgs"):
        found[name] = os.path.join(SCRIPTS, name)
    items = {
        "cf.items": [("201", 0.9), ("202", 0.7), ("203", 0.5)],
        "tag.items": [(f"i{i:03d}", round(1 - i / 40, 3)) for i in range(0, 40, 3)],
    }
    for name, scored in items.items():
        with open(p(name), "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps({"id": i, "score": s}) + "\n" for i, s in scored)
        found[name] = p(name)
    found.update({name: p(name) for name in ("out", "built.snap")})
    return found


def expand(paths, argv):
    out = []
    for a in argv:
        value = paths.get(a, a)
        out.extend(value if isinstance(value, list) else [value])
    return out


CASES = {
    "query-cf": ["query", "@cf", "--script", "ex5_cf.sgs"],
    "query-cf-out-dir": ["query", "@cf", "--script", "compose_pairs.sgs", "--out-dir", "out"],
    "query-jazz": ["query", "@jazz", "--script", "select_nodes.sgs"],
    "recommend-cf": ["recommend", "@cf", "--user", "101"],
    "recommend-cf-travel": ["recommend", "@travel", "--user", "u02", "--threshold", "0.2", "--k", "3"],
    "recommend-content-travel": ["recommend", "@travel", "--user", "u07", "--method", "content"],
    "recommend-content-tag": ["recommend", "@tag", "--user", "u003", "--method", "content", "--k", "5"],
    "discover-cf": ["discover", "@cf", "--user", "101"],
    "discover-cf-query": ["discover", "@cf", "--user", "103", "--query", "[type='destination'; kw:'x']",
                          "--threshold", "0.1"],
    "discover-cf-nothing": ["discover", "@cf", "--user", "102", "--query", "[name='R']"],
    "discover-travel": ["discover", "@travel", "--user", "u02", "--query", "[type='destination'; kw:'food']",
                        "--threshold", "0.2", "--alpha", "0.3"],
    "build-index-jazz": ["build-index", "@jazz", "--strategy", "network", "--theta", "0.5", "--out", "built.snap"],
    "build-index-tag-behavior": ["build-index", "@tag", "--strategy", "behavior", "--theta", "0.3",
                                 "--out", "built.snap"],
    "build-index-tag-hybrid": ["build-index", "@tag", "--strategy", "hybrid", "--theta", "0.2",
                               "--out", "built.snap"],
    "topk-index-jazz": ["topk", "--index", "jazz.snap", "--user", "u1", "--keywords", "jazz"],
    "topk-index-tag": ["topk", "--index", "tag.snap", "--user", "u003", "--keywords", "tag03,tag04", "--k", "4"],
    "topk-nodes-jazz": ["topk", "@jazz", "--user", "u1", "--keywords", "jazz", "--k", "1"],
    "topk-nodes-tag": ["topk", "@tag", "--strategy", "behavior", "--theta", "0.3", "--user", "u005",
                       "--keywords", "tag05", "--k", "3"],
    "group-social-cf": ["group", "@cf", "--items", "cf.items", "--criterion", "social:0.5"],
    "group-topical-cf": ["group", "@cf", "--items", "cf.items", "--criterion", "topical"],
    "group-structural-cf": ["group", "@cf", "--items", "cf.items", "--criterion", "structural:name",
                            "--max-groups", "2"],
    "group-social-tag": ["group", "@tag", "--items", "tag.items", "--criterion", "social:0.2", "--max-groups", "3"],
    "explain-collaborative-cf": ["explain", "@cf", "--user", "101", "--item", "203"],
    "explain-content-cf": ["explain", "@cf", "--user", "101", "--item", "203", "--strategy", "content"],
    "explain-content-tag": ["explain", "@tag", "--user", "u003", "--item", "i013", "--strategy", "content"],
}

GOLDEN = {
    'query-cf': {
        'text': (
            'ME\tnodes=1\tlinks=0\n'
            'G1\tnodes=3\tlinks=2\n'
            'G1v\tnodes=3\tlinks=2\n'
            'OTH\tnodes=5\tlinks=0\n'
            'G2\tnodes=5\tlinks=4\n'
            'G2v\tnodes=5\tlinks=4\n'
            'G3\tnodes=2\tlinks=2\n'
            'G4\tnodes=2\tlinks=1\n'
            'G4m\tnodes=2\tlinks=1\n'
            'G5\tnodes=6\tlinks=6\n'
            'G6\tnodes=4\tlinks=3\n'
            'G7\tnodes=4\tlinks=3\n'
        ),
        'json': (
            '{"binding":"ME","links":0,"nodes":1}\n'
            '{"binding":"G1","links":2,"nodes":3}\n'
            '{"binding":"G1v","links":2,"nodes":3}\n'
            '{"binding":"OTH","links":0,"nodes":5}\n'
            '{"binding":"G2","links":4,"nodes":5}\n'
            '{"binding":"G2v","links":4,"nodes":5}\n'
            '{"binding":"G3","links":2,"nodes":2}\n'
            '{"binding":"G4","links":1,"nodes":2}\n'
            '{"binding":"G4m","links":1,"nodes":2}\n'
            '{"binding":"G5","links":6,"nodes":6}\n'
            '{"binding":"G6","links":3,"nodes":4}\n'
            '{"binding":"G7","links":3,"nodes":4}\n'
        ),
    },
    'query-cf-out-dir': {
        'text': (
            'V\tnodes=6\tlinks=6\n'
            'C\tnodes=3\tlinks=12\n'
        ),
        'json': (
            '{"binding":"V","links":6,"nodes":6}\n'
            '{"binding":"C","links":12,"nodes":3}\n'
        ),
    },
    'query-jazz': {
        'text': (
            'S1\tnodes=3\tlinks=0\n'
            'S2\tnodes=0\tlinks=0\n'
            'S3\tnodes=0\tlinks=0\n'
        ),
        'json': (
            '{"binding":"S1","links":0,"nodes":3}\n'
            '{"binding":"S2","links":0,"nodes":0}\n'
            '{"binding":"S3","links":0,"nodes":0}\n'
        ),
    },
    'recommend-cf': {
        'text': '203\t0.666667\n',
        'json': '{"item":"203","score":0.6666666666666666}\n',
    },
    'recommend-cf-travel': {
        'text': (
            'p09\t0.333333\n'
            'p02\t0.291667\n'
            'p01\t0.250000\n'
        ),
        'json': (
            '{"item":"p09","score":0.3333333333333333}\n'
            '{"item":"p02","score":0.29166666666666663}\n'
            '{"item":"p01","score":0.25}\n'
        ),
    },
    'recommend-content-travel': {
        'text': 'p00\t1.000000\n',
        'json': '{"item":"p00","score":1.0}\n',
    },
    'recommend-content-tag': {
        'text': (
            'i001\t0.333333\n'
            'i007\t0.333333\n'
            'i034\t0.333333\n'
            'i002\t0.250000\n'
            'i008\t0.250000\n'
        ),
        'json': (
            '{"item":"i001","score":0.3333333333333333}\n'
            '{"item":"i007","score":0.3333333333333333}\n'
            '{"item":"i034","score":0.3333333333333333}\n'
            '{"item":"i002","score":0.25}\n'
            '{"item":"i008","score":0.25}\n'
        ),
    },
    'discover-cf': {
        'text': (
            '203\t1.000000\tsemantic=1.000000\tsocial=1.000000\n'
            '# provenance: 3 nodes, 2 links\n'
        ),
        'json': '{"combined":1.0,"item":"203","semantic":1.0,"social":1.0}\n',
    },
    'discover-cf-query': {
        'text': (
            '201\t0.500000\tsemantic=0.000000\tsocial=1.000000\n'
            '202\t0.500000\tsemantic=0.000000\tsocial=1.000000\n'
            '# provenance: 4 nodes, 3 links\n'
        ),
        'json': (
            '{"combined":0.5,"item":"201","semantic":0.0,"social":1.0}\n'
            '{"combined":0.5,"item":"202","semantic":0.0,"social":1.0}\n'
        ),
    },
    'discover-cf-nothing': {
        'text': '# provenance: 1 nodes, 0 links\n',
        'json': '',
    },
    'discover-travel': {
        'text': (
            'p02\t0.912500\tsemantic=1.000000\tsocial=0.875000\n'
            'p09\t0.700000\tsemantic=0.000000\tsocial=1.000000\n'
            'p01\t0.525000\tsemantic=0.000000\tsocial=0.750000\n'
            'p06\t0.525000\tsemantic=0.000000\tsocial=0.750000\n'
            'p03\t0.300000\tsemantic=1.000000\tsocial=0.000000\n'
            'p05\t0.300000\tsemantic=1.000000\tsocial=0.000000\n'
            'p07\t0.300000\tsemantic=1.000000\tsocial=0.000000\n'
            '# provenance: 10 nodes, 7 links\n'
        ),
        'json': (
            '{"combined":0.9124999999999999,"item":"p02","semantic":1.0,"social":0.8749999999999999}\n'
            '{"combined":0.7,"item":"p09","semantic":0.0,"social":1.0}\n'
            '{"combined":0.5249999999999999,"item":"p01","semantic":0.0,"social":0.75}\n'
            '{"combined":0.5249999999999999,"item":"p06","semantic":0.0,"social":0.75}\n'
            '{"combined":0.3,"item":"p03","semantic":1.0,"social":0.0}\n'
            '{"combined":0.3,"item":"p05","semantic":1.0,"social":0.0}\n'
            '{"combined":0.3,"item":"p07","semantic":1.0,"social":0.0}\n'
        ),
    },
    'build-index-jazz': {
        'text': 'clusters=2\tlists=1\tusers=3\n',
        'json': '{"clusters":2,"lists":1,"users":3}\n',
    },
    'build-index-tag-behavior': {
        'text': 'clusters=14\tlists=28\tusers=20\n',
        'json': '{"clusters":14,"lists":28,"users":20}\n',
    },
    'build-index-tag-hybrid': {
        'text': 'clusters=15\tlists=24\tusers=20\n',
        'json': '{"clusters":15,"lists":24,"users":20}\n',
    },
    'topk-index-jazz': {
        'text': 'i1\t2\n',
        'json': '{"item":"i1","score":2}\n',
    },
    'topk-index-tag': {
        'text': (
            'i013\t2\n'
            'i023\t2\n'
            'i025\t2\n'
            'i033\t2\n'
        ),
        'json': (
            '{"item":"i013","score":2}\n'
            '{"item":"i023","score":2}\n'
            '{"item":"i025","score":2}\n'
            '{"item":"i033","score":2}\n'
        ),
    },
    'topk-nodes-jazz': {
        'text': 'i1\t2\n',
        'json': '{"item":"i1","score":2}\n',
    },
    'topk-nodes-tag': {
        'text': (
            'i005\t1\n'
            'i006\t1\n'
            'i015\t1\n'
        ),
        'json': (
            '{"item":"i005","score":1}\n'
            '{"item":"i006","score":1}\n'
            '{"item":"i015","score":1}\n'
        ),
    },
    'group-social-cf': {
        'text': (
            'social:201\tP\tquality=0.900000\tsize=1\tmembers=201\n'
            'social:202\tQ\tquality=0.700000\tsize=1\tmembers=202\n'
            'social:203\tR\tquality=0.500000\tsize=1\tmembers=203\n'
        ),
        'json': (
            '{"id":"social:201","label":"P","members":["201"],"quality":0.9,"size":1}\n'
            '{"id":"social:202","label":"Q","members":["202"],"quality":0.7,"size":1}\n'
            '{"id":"social:203","label":"R","members":["203"],"quality":0.5,"size":1}\n'
        ),
    },
    'group-topical-cf': {
        'text': 'topic:(none)\t(none)\tquality=0.700000\tsize=3\tmembers=201,202,203\n',
        'json': '{"id":"topic:(none)","label":"(none)","members":["201","202","203"],"quality":0.7000000000000001,"size":3}\n',
    },
    'group-structural-cf': {
        'text': (
            'attr:name=P\tP\tquality=0.900000\tsize=1\tmembers=201\n'
            'attr:name=Q\tQ\tquality=0.700000\tsize=1\tmembers=202\n'
        ),
        'json': (
            '{"id":"attr:name=P","label":"P","members":["201"],"quality":0.9,"size":1}\n'
            '{"id":"attr:name=Q","label":"Q","members":["202"],"quality":0.7,"size":1}\n'
        ),
    },
    'group-social-tag': {
        'text': (
            'social:i012\ti012\tquality=0.700000\tsize=1\tmembers=i012\n'
            'social:i000\ti000\tquality=0.625000\tsize=2\tmembers=i000,i030\n'
            'social:i018\ti018\tquality=0.550000\tsize=1\tmembers=i018\n'
        ),
        'json': (
            '{"id":"social:i012","label":"i012","members":["i012"],"quality":0.7,"size":1}\n'
            '{"id":"social:i000","label":"i000","members":["i000","i030"],"quality":0.625,"size":2}\n'
            '{"id":"social:i018","label":"i018","members":["i018"],"quality":0.55,"size":1}\n'
        ),
    },
    'explain-collaborative-cf': {
        'text': (
            '0% of your friends endorsed this item\n'
            '102\t0.666667\n'
        ),
        'json': '{"evidence":[["102",0.6666666666666666]],"item":"203","strategy":"collaborative","summary":"0% of your friends endorsed this item","user":"101"}\n',
    },
    'explain-content-cf': {
        'text': 'similar to 0% of items you visited before\n',
        'json': '{"evidence":[],"item":"203","strategy":"content","summary":"similar to 0% of items you visited before","user":"101"}\n',
    },
    'explain-content-tag': {
        'text': (
            'similar to 100% of items you visited before\n'
            'i013\t1.000000\n'
            'i023\t0.666667\n'
            'i033\t0.666667\n'
            'i003\t0.250000\n'
        ),
        'json': '{"evidence":[["i013",1.0],["i023",0.6666666666666666],["i033",0.6666666666666666],["i003",0.25]],"item":"i013","strategy":"content","summary":"similar to 100% of items you visited before","user":"u003"}\n',
    },
}


@pytest.mark.parametrize("mode", ["text", "json"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_stdout(paths, case, mode):
    argv = expand(paths, CASES[case]) + (["--json"] if mode == "json" else [])
    code, out, err = run(*argv)
    assert (code, err) == (0, "")
    assert out == GOLDEN[case][mode]


@pytest.fixture(scope="module")
def golden_modules(tmp_path_factory):
    """Each golden call's exit code and loaded modules, by case; one
    child interpreter runs them all."""
    directory = tmp_path_factory.mktemp("golden")
    paths = write_paths(directory)
    return dict(zip(sorted(CASES), cli_modules_loaded([expand(paths, CASES[c]) for c in sorted(CASES)], directory)))


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_call_loads_only_its_subcommands_modules(golden_modules, case):
    argv = CASES[case]
    code, modules = golden_modules[case]
    assert code == 0
    assert modules == expected_cli_modules(argv, code)


def test_query_out_dir_writes_every_binding(paths):
    code, _, _ = run(*expand(paths, CASES["query-cf-out-dir"]))
    assert code == 0
    assert sorted(os.listdir(paths["out"])) == [
        f"{name}.{part}.jsonl" for name in ("C", "V") for part in ("links", "nodes")
    ]


@pytest.mark.parametrize(
    "argv, want",
    [
        (["--users", "100000", "--items", "1000000", "--tags-per-item", "20",
          "--tagger-fraction", "0.05", "--bytes", "10"], "1000000000000\n"),
        (["--users", "7", "--items", "3", "--tags-per-item", "2",
          "--tagger-fraction", "0.5", "--bytes", "4"], "84\n"),
    ],
)
def test_estimate_index_golden(argv, want):
    assert run("estimate-index", *argv) == (0, want, "")
