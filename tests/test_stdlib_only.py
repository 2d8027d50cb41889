"""rsor runs on the Python standard library alone: libcrypto is reached
through CPython's own ``_hashlib``, and no third-party package is imported
on any path a scenario, a game batch or a keystream takes.  Its records are
named tuples, so those paths load neither ``dataclasses`` nor the
``inspect`` it imports; only writing a trace file loads ``json``.  Those
paths make too few ``base`` calls for ``SQR_GROUP`` to build its fixed-base
table."""

import json
import os
import subprocess
import sys
import textwrap

import pytest


@pytest.fixture(scope="module")
def modules():
    """(modules loaded before, modules loaded after) ``import rsor``, a
    baseline scenario, every registered game batch, a correctness game and
    a keystream, in a fresh interpreter, and whether ``SQR_GROUP`` built its
    fixed-base table.  Both snapshots are taken before the script imports
    ``json`` for its own output."""
    script = textwrap.dedent("""
        import sys

        before = sorted(sys.modules)

        import rsor
        from rsor.games import ADVERSARIES, game_correctness, run_game_batch
        from rsor.group import SQR_GROUP
        from rsor.sim import baseline_scenario, run_scenario

        run_scenario(baseline_scenario(seed=1))
        for adversary, (_cls, games, _expectation) in ADVERSARIES.items():
            for game in games:
                run_game_batch(game, adversary, games=2, seed=1)
        assert game_correctness(2, seed=1)["pass"]
        rsor.prg(bytes(16), 16)
        after = sorted(sys.modules)

        import json

        print(json.dumps([before, after, "_g_table" in vars(SQR_GROUP)]))
    """)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    before, after, sqr_table = json.loads(out.stdout)
    return set(before), set(after), sqr_table


def test_rsor_loads_only_standard_library_modules(modules):
    before, after, _sqr_table = modules
    loaded = {name.partition(".")[0] for name in after - before}
    assert loaded - set(sys.stdlib_module_names) - {"rsor"} == set(), \
        "rsor loaded non-standard modules"


def test_rsor_loads_neither_dataclasses_nor_inspect(modules):
    # Counted from before the import: an interpreter's site hooks may load
    # inspect themselves.
    before, after, _sqr_table = modules
    assert {"dataclasses", "inspect"} & (after - before) == set()


def test_rsor_loads_no_json_and_builds_no_sqr_table(modules):
    before, after, sqr_table = modules
    assert "json" not in after - before
    assert not sqr_table
