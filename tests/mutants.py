"""Mutants that the tests must kill, and a runner for them.

Each mutant names a module of ``src/socialgraph``, a source fragment
that occurs exactly once in it, the fragment's replacement, and the test
files each of which must fail once the replacement is made. The runner
copies ``src/``, ``tests/`` and ``pyproject.toml`` to a temporary
directory and applies one mutant at a time there, running each listed
test file in its own pytest process, one after another, once it has
seen each of those files pass on the unmutated copy. It reports a
mutant that some listed file lets pass (a survivor) and a mutant whose
fragment is no longer found exactly once (stale: the change that moved
the code must update or retire it), and exits 1 if there is either.

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    module: str
    fragment: str
    replacement: str
    must_fail: tuple  # test files, relative to the repository root


PLAN_RULES = "tests/test_plan_rules.py"
KEPT_STATE = "tests/test_kept_state.py"
DIFFERENTIAL = "tests/test_differential.py"
RUN_KEY = "key = _key(node.kind, keys, tuple(map(_param_key, values)))"
SKIP_TEST = "if len(top) < k or (-sum(heads), item) < top[-1]:"

MUTANTS = (
    # dsl.compile's select pushdown
    Mutant(
        "selection pushed below the outermost semi-join only",
        "dsl",
        "while g[1] == \"semijoin\":",
        "if g[1] == \"semijoin\":",
        (PLAN_RULES,),
    ),
    Mutant(
        "δ swapped in the pushed semi-join",
        "dsl",
        "(key, sj[2][1]), params_of[sj])",
        "(key, sj[2][1]), (DirectionalCondition(params_of[sj][0].d2, params_of[sj][0].d1),))",
        (PLAN_RULES,),
    ),
    Mutant(
        "equal keys kept as separate objects",
        "dsl",
        "        key = keys.setdefault(key, key)\n",
        "",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "children scheduled after their parent",
        "dsl",
        "            out.append(node)\n",
        "            out.insert(0, node)\n",
        (PLAN_RULES, "tests/test_dsl.py"),
    ),
    # dsl.compile's name resolution
    Mutant(
        "a later binding read as an input leaf",
        "dsl",
        "            if expr.name in unbound:\n                raise UnboundReferenceError(expr.name)\n",
        "",
        ("tests/test_dsl.py",),
    ),
    # dsl.execute's run keys and kept results
    Mutant(
        "a run key built from the children's compiled keys",
        "dsl",
        RUN_KEY,
        RUN_KEY.replace(", keys,", ", tuple(c.key for c in node.inputs),"),
        (PLAN_RULES, KEPT_STATE),
    ),
    Mutant(
        "a run key without the condition token",
        "dsl",
        RUN_KEY,
        RUN_KEY.replace("tuple(map(_param_key, values))", "tuple(values)"),
        (PLAN_RULES, KEPT_STATE),
    ),
    Mutant(
        "bound_results updated instead of replaced",
        "dsl",
        "vars(inputs[graph])[\"bound_results\"] = bound",
        "vars(inputs[graph]).setdefault(\"bound_results\", {}).update(bound)",
        (PLAN_RULES, KEPT_STATE),
    ),
    Mutant(
        "a run key that drops δ",
        "dsl",
        RUN_KEY,
        RUN_KEY.replace(
            "tuple(map(_param_key, values))",
            "() if node.kind == \"semijoin\" else tuple(map(_param_key, values))",
        ),
        (KEPT_STATE,),
    ),
    Mutant(
        "a node keeps its fresh key instead of the kept one it read",
        "dsl",
        "done[node] = entry",
        "done[node] = key, entry[1]",
        ("tests/test_long_plans.py",),
    ),
    Mutant(
        "a run ignores its own pending results",
        "dsl",
        "or fresh.get(node.graph, {}).get(key)",
        "or None",
        (PLAN_RULES,),
    ),
    # io's one reader, and load_index_snapshot's line checks
    Mutant(
        "a line's fault reported at line 1",
        "io",
        "raise GraphFileError(path, line_no, str(e)) from e",
        "raise GraphFileError(path, 1, str(e)) from e",
        ("tests/test_io.py", "tests/test_snapshot_fuzz.py", "tests/test_graph_fuzz.py"),
    ),
    Mutant(
        "model leader check dropped",
        "io",
        "raise ValueError(f\"cluster {cluster!r} has no leader\")",
        "pass",
        ("tests/test_io.py", "tests/test_snapshot_fuzz.py"),
    ),
    Mutant(
        "negative list scores accepted",
        "io",
        "if entries and entries[-1][1] < 0:",
        "if False:",
        ("tests/test_io.py", "tests/test_snapshot_fuzz.py"),
    ),
    # io's loaders, keeping one object per distinct value
    Mutant(
        "a pair key without the sign of zero",
        "io",
        "if score:  # 0.0 and -0.0",
        "if True:  # 0.0 and -0.0",
        ("tests/test_io.py", "tests/test_snapshot_fuzz.py"),
    ),
    Mutant(
        "a pair key without the score's JSON type",
        "io",
        "key = (item, score, type(score))",
        "key = (item, score)",
        ("tests/test_io.py",),
    ),
    Mutant(
        "no pair sharing",
        "io",
        "shared[key] = pair",
        "pass",
        ("tests/test_io.py",),
    ),
    Mutant(
        "float value sets shared by equality",
        "io",
        "values if 0.0 in values else share(values, values)",
        "share(values, values)",
        ("tests/test_io.py",),
    ),
    # discovery.content_recommend's walk over unseen items only
    Mutant(
        "acted items weighed and kept",
        "discovery",
        "            if item in mine:\n                continue\n",
        "",
        (DIFFERENTIAL,),
    ),
    # index.build_index's fold into nested buckets
    Mutant(
        "no item-id pre-sort",
        "index",
        "for key in sorted(taggers):",
        "for key in taggers:",
        (DIFFERENTIAL,),
    ),
    Mutant(
        "lists ranked by score ascending",
        "index",
        "entries.sort(key=itemgetter(1), reverse=True)",
        "entries.sort(key=itemgetter(1))",
        (DIFFERENTIAL,),
    ),
    Mutant(
        "a bucket overwritten instead of keeping the maximum",
        "index",
        "elif score > bucket.get(item, 0):",
        "else:",
        (DIFFERENTIAL,),
    ),
    Mutant(
        "clusters emitted unsorted",
        "index",
        "for cluster, bucket in sorted(clusters.items()):",
        "for cluster, bucket in clusters.items():",
        (DIFFERENTIAL,),
    ),
    Mutant(
        "a tuple per entry instead of one per (item, score) pair",
        "index",
        "lists[tag, cluster] = tuple(map(share, entries, entries))",
        "lists[tag, cluster] = tuple(entries)",
        ("tests/test_index.py",),
    ),
    # index.topk_query's id-ordered stop and random-access skip
    Mutant(
        "stop rule reads the least head id",
        "index",
        "frontier == -neg and max(",
        "frontier == -neg and min(",
        (DIFFERENTIAL,),
    ),
    Mutant(
        "stop rule reads the ids of zero-score heads",
        "index",
        "for j, s in enumerate(heads) if s > 0)",
        "for j, s in enumerate(heads) if pos[j] < len(lists[j]))",
        (DIFFERENTIAL,),
    ),
    Mutant(
        "skip bound read after list j has advanced",
        "index",
        SKIP_TEST,
        SKIP_TEST.replace(
            "-sum(heads)", "-(sum(heads) - heads[j] + (entries[p + 1][1] if p + 1 < len(entries) else 0))"
        ),
        (DIFFERENTIAL,),
    ),
    Mutant(
        "skip test on scores alone",
        "index",
        SKIP_TEST,
        SKIP_TEST.replace("(-sum(heads), item) < top[-1]", "-sum(heads) < top[-1][0]"),
        (DIFFERENTIAL,),
    ),
)


def run(mutants, root: str) -> int:
    survivors, stale = [], []
    with tempfile.TemporaryDirectory() as tmp:
        for part in ("src", "tests"):
            shutil.copytree(os.path.join(root, part), os.path.join(tmp, part), ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(root, "pyproject.toml"), tmp)
        env = {**os.environ, "PYTHONPATH": os.path.join(tmp, "src"), "PYTHONDONTWRITEBYTECODE": "1"}

        def pytest(test: str) -> int:
            cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", test]
            return subprocess.run(cmd, cwd=tmp, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode

        for test in sorted({test for m in mutants for test in m.must_fail}):
            if pytest(test) != 0:
                print(f"{test} fails without a mutant")
                return 1
        for m in mutants:
            path = os.path.join(tmp, "src", "socialgraph", f"{m.module}.py")
            with open(path, encoding="utf-8") as fh:
                source = fh.read()
            if source.count(m.fragment) != 1:
                stale.append(m)
                print(f"STALE     {m.name}: fragment found {source.count(m.fragment)} times in {m.module}.py")
                continue
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(source.replace(m.fragment, m.replacement))
            try:
                for test in m.must_fail:
                    killed = pytest(test) in (1, 2)  # tests failed, or collecting them did
                    print(f"{'killed' if killed else 'SURVIVED':9} {m.name}: {test}", flush=True)
                    if not killed:
                        survivors.append((m, test))
            finally:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(source)
    print(f"{len(mutants)} mutants: {len(survivors)} survivors, {len(stale)} stale")
    return 1 if survivors or stale else 0


def main(argv) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    return run(chosen, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
