"""rsor runs on the Python standard library alone: libcrypto is reached
through CPython's own ``_hashlib``, and no third-party package is imported
on any path a scenario, a game batch or a keystream takes."""

import os
import subprocess
import sys
import textwrap


def test_rsor_loads_only_standard_library_modules():
    script = textwrap.dedent("""
        import sys

        before = set(sys.modules)

        import rsor
        from rsor.games import ADVERSARIES, game_correctness, run_game_batch
        from rsor.sim import baseline_scenario, run_scenario

        run_scenario(baseline_scenario(seed=1))
        for adversary, (_cls, games, _expectation) in ADVERSARIES.items():
            for game in games:
                run_game_batch(game, adversary, games=2, seed=1)
        assert game_correctness(2, seed=1)["pass"]
        rsor.prg(bytes(16), 16)
        loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
        print(" ".join(sorted(loaded - set(sys.stdlib_module_names) - {"rsor"})))
    """)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "", "rsor loaded non-standard modules: " + out.stdout
