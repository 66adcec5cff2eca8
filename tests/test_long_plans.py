"""Plans far deeper than Python's recursion limit, run again and again.

For each operator kind, a chain of ``3 * sys.getrecursionlimit()``
bindings applies the kind to the binding before, starting from
``lsel(G, $t)``; one more chain selects twice over the last of a chain
of semi-joins, once with ``$t``, so both selections are pushed below
every level. Each chain runs through ``dsl.execute`` twice on one graph,
reading what the first run kept, and once more after a fresh compile;
every binding must equal the program run as written, or every run must
fail alike. Nothing in ``compile`` or ``execute`` may recurse on a
plan's depth, and a key built in a run must compare with a kept key one
level deep. The same chains, with ``$t`` written in, run through the
CLI's ``query``.
"""

from __future__ import annotations

import io
import sys

import pytest

from reference import exact, run_as_written
from socialgraph import dsl
from socialgraph.cli import run_command
from socialgraph.fixtures import cf_fixture
from socialgraph.io import save_graph

DEPTH = 3 * sys.getrecursionlimit()
VISIT = "[type='visit']"
# Each kind applied to the binding before, ``{p}``.
STEPS = {
    "nsel": "nsel({p}, [type='user'])",
    "lsel": "lsel({p}, [type='visit'])",
    "union": "union({p}, G)",
    "intersect": "intersect({p}, G)",
    "nminus": "nminus({p}, G)",
    "lminus": "lminus({p}, G)",
    "compose": "compose({p}, G, (tgt,tgt), {{w: count}})",
    "semijoin": "semijoin({p}, G, (src,src))",
    "naggr": "naggr({p}, [type='visit'], src, n, count)",
    "laggr": "laggr({p}, [type='visit'], {{w: count}})",
    # fails at S2, whose input already holds the links it generates
    "paggr": "paggr({p}, path([type='visit'] @ src), {{w: count}})",
}


def chain(kind: str) -> str:
    if kind == "pushed":
        steps = [f"S{i} = semijoin(S{i - 1}, G, (src,src))" for i in range(1, DEPTH)]
        last = f"S{DEPTH - 1}"
        return "\n".join(["S0 = semijoin(G, G, (src,src))", *steps, f"A = lsel({last}, {VISIT})", f"C = union(A, lsel({last}, $t))"])
    steps = [f"S{i} = " + STEPS[kind].format(p=f"S{i - 1}") for i in range(1, DEPTH)]
    return "\n".join(["S0 = lsel(G, $t)", *steps])


def outcome(execute, *args):
    """Every binding's result, or the error."""
    try:
        return "ok", execute(*args)
    except Exception as e:  # every run must fail alike
        return "error", type(e).__name__, str(e)


def alike(got, want) -> bool:
    """Whether both runs failed alike, or each binding's result is the
    one ``want`` holds or exactly equal to it."""
    if "error" in (got[0], want[0]):
        return got == want
    got, want = got[1], want[1]
    return got.keys() == want.keys() and all(r is want[k] or exact(r) == exact(want[k]) for k, r in got.items())


def test_every_kind_has_a_chain():
    assert STEPS.keys() == dsl.OPS.keys()


@pytest.mark.parametrize("kind", (*STEPS, "pushed"))
def test_a_long_chain_runs_again_on_one_graph(kind, tmp_path):
    text, params = chain(kind), {"t": dsl.parse_condition(VISIT)}
    program = dsl.parse(text)
    want = outcome(run_as_written, program, {"G": cf_fixture()}, params)
    g, plan = cf_fixture(), dsl.compile(program)
    first = outcome(dsl.execute, plan, {"G": g}, params)
    assert alike(first, want)
    # run again, reading what the first run kept, then on a fresh compile
    assert alike(outcome(dsl.execute, plan, {"G": g}, params), first)
    assert alike(outcome(dsl.execute, dsl.compile(program), {"G": g}, params), first)
    # the CLI's query, with $t written in
    np, lp, script = str(tmp_path / "n.jsonl"), str(tmp_path / "l.jsonl"), tmp_path / "chain.sgs"
    save_graph(cf_fixture(), np, lp)
    script.write_text(text.replace("$t", VISIT))
    out, err = io.StringIO(), io.StringIO()
    code = run_command(["query", "--nodes", np, "--links", lp, "--script", str(script)], out=out, err=err)
    if want[0] == "error":
        assert (code, out.getvalue(), err.getvalue()) == (1, "", f"error: {want[2]}\n")
    else:
        lines = "".join(f"{name}\tnodes={len(r.nodes)}\tlinks={len(r.links)}\n" for name, r in want[1].items())
        assert (code, out.getvalue(), err.getvalue()) == (0, lines, "")
