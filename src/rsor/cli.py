"""Command-line front end: rsor-sim run | attack | game."""

import argparse
import sys

from . import sim
from .games import ADVERSARIES, GAMES, game_correctness, run_game_batch


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="rsor-sim",
        description="Deterministic simulator and game harness for the "
        "repliable service onion routing packet format.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a named or configured scenario")
    run.add_argument("--scenario", default="baseline",
                     help="built-in scenario name (%s)" % ", ".join(sorted(sim.SCENARIOS)))
    run.add_argument("--config", help="key-value scenario description file")
    run.add_argument("--seed", type=sim.parse_seed, help="default: the scenario's own seed")
    run.add_argument("--out", help="write the trace as JSON lines to this file")

    attack = sub.add_parser("attack", help="reproduce a deployed-format attack")
    attack.add_argument("name", choices=("tagging", "nymserver", "padding"))
    attack.add_argument("--trials", type=sim.parse_count, default=50)
    attack.add_argument("--seed", type=sim.parse_seed, default=0)

    game = sub.add_parser("game", help="run an onion-security game batch")
    game.add_argument("name", choices=sorted(GAMES))
    game.add_argument("--adversary",
                      help="adversary name (%s; default guessing); correctness takes none"
                      % ", ".join(sorted(ADVERSARIES)))
    game.add_argument("--games", type=sim.parse_count, default=200)
    game.add_argument("--seed", type=sim.parse_seed, default=0)
    game.add_argument("--legacy-zero-padding", action="store_true")
    return parser


def _cmd_run(args):
    if args.config:
        try:
            with open(args.config) as handle:
                scenario = sim.parse_config(handle.read())
        except (OSError, ValueError) as exc:
            print("bad config: %s" % exc, file=sys.stderr)
            return 2
    else:
        if args.scenario not in sim.SCENARIOS:
            print("unknown scenario: %s" % args.scenario, file=sys.stderr)
            return 2
        scenario = sim.SCENARIOS[args.scenario]()
    if args.seed is not None:
        scenario = scenario._replace(seed=args.seed)
    if not args.out:
        sim.write_trace(sys.stdout, sim.run_scenario(scenario))
        return 0
    # The file is opened before the run, so a path that cannot be written
    # is refused at once; run_scenario itself does no I/O.
    try:
        with open(args.out, "w", encoding="ascii") as out:
            trace = sim.run_scenario(scenario)
            sim.write_trace(out, trace)
    except OSError as exc:
        print("cannot write trace: %s" % exc, file=sys.stderr)
        return 2
    print("wrote %d events to %s" % (len(trace), args.out))
    return 0


def _cmd_attack(args):
    runner = {
        "tagging": sim.attack_tagging,
        "nymserver": sim.attack_nymserver,
        "padding": sim.attack_padding,
    }[args.name]
    summary = runner(trials=args.trials, seed=args.seed)
    width = max(len(k) for k in summary)
    for key in sorted(summary):
        print("%-*s  %s" % (width, key, summary[key]))
    return 0


def _cmd_game(args):
    params = sim.default_params(legacy_zero_filler=args.legacy_zero_padding)
    if args.name == "correctness":
        if args.adversary is not None:
            print("correctness takes no adversary", file=sys.stderr)
            return 2
        result = game_correctness(args.games, args.seed, params=params)
        print("correctness trials=%d pass=%s" % (result["trials"], result["pass"]))
        for failure in result["failures"]:
            print("failure: %r" % (failure,))
        return 0 if result["pass"] else 1
    try:
        result = run_game_batch(args.name, args.adversary or "guessing", args.games,
                                args.seed, params=params)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    print("game=%s adversary=%s games=%d wins=%d win-rate=%.4f p-value=%.4f"
          % (result["game"], result["adversary"], result["games"],
             result["wins"], result["win_rate"], result["binomial_pvalue"]))
    if result["expectation"] == "negative":
        ok = result["binomial_pvalue"] >= 0.01
        print("expected: indistinguishable from a fair coin -> %s"
              % ("pass" if ok else "FAIL"))
    else:
        ok = result["win_rate"] >= 0.95
        print("expected: win rate of at least 0.95 -> %s"
              % ("pass" if ok else "FAIL"))
    return 0 if ok else 1


def main(argv=None):
    args = _build_parser().parse_args(argv)
    handler = {"run": _cmd_run, "attack": _cmd_attack, "game": _cmd_game}
    return handler[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
