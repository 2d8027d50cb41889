import json

import pytest

from rsor import sim
from rsor.cli import main

# Paths that name no file to read or write: under a missing directory, or a directory.
MISSING, DIRECTORY = object(), object()


def test_run_writes_trace(tmp_path, capsys):
    out = tmp_path / "trace.jsonl"
    code = main(["run", "--scenario", "baseline", "--seed", "3", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines
    assert json.loads(lines[0])["time"] == 0


@pytest.mark.parametrize("where", [MISSING, DIRECTORY], ids=["missing-dir", "directory"])
def test_run_refuses_an_unwritable_out_path(tmp_path, capsys, monkeypatch, where):
    # Refused before the scenario runs, not after.
    monkeypatch.setattr(sim, "run_scenario", lambda scenario: pytest.fail("scenario ran"))
    out = tmp_path / "no-such-dir" / "trace.jsonl" if where is MISSING else tmp_path
    assert main(["run", "--scenario", "baseline", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("cannot write trace: ") and captured.err.count("\n") == 1
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_run_unknown_scenario(capsys):
    assert main(["run", "--scenario", "nope"]) == 2


def test_run_config_file(tmp_path, capsys):
    config = tmp_path / "scenario.cfg"
    config.write_text(
        "name = demo\nrelays = a, b\nsenders = alice\nreceivers = svc\n"
        "onion = alice | a, b | svc | hi\n"
    )
    assert main(["run", "--config", str(config), "--seed", "1"]) == 0
    assert "message-received" in capsys.readouterr().out


@pytest.mark.parametrize("line, named", [
    ("onion = alice | a, z | svc | hi", "'z'"),
    ("onion = bob | a, b | svc | hi", "'bob'"),
    ("this line has no equals sign", "this line has no equals sign"),
    # Names that do not fit an address field: a receiver, and a reply relay.
    ("onion = alice | a, b | %s | hi" % ("r" * 20), "'%s'" % ("r" * 20)),
    ("relays = a, %s\nonion = alice | a | svc | hi | %s, alice | ho" % ("q" * 16, "q" * 16),
     "'%s'" % ("q" * 16)),
    # Onions run_scenario could not derive, and a seed _seed_bytes cannot encode.
    ("relays = a, b, c, d, e, f\nonion = alice | a, b, c, d, e, f | svc | hi",
     "forward path length"),
    ("relays = a, b, c, d, e, f\nonion = alice | a | svc | hi | a, b, c, d, e, alice | ho",
     "reply path length"),
    ("onion = alice | a, b, a | svc | hi", "acyclic"),
    ("onion = alice | a | svc | hi | a, b, a, alice | ho", "acyclic"),
    ("onion = alice | a | svc | %s" % ("m" * 65), "payload frame"),
    # Configs whose real and ideal traces would differ.
    ("onion = alice | a | svc | hi | b, alice | %s" % ("m" * 65), "reply message"),
    ("relays = a, alice\nonion = alice | a, alice | svc | hi", "'alice' is both"),
    ("seed = -1", "seed -1"),
    pytest.param(MISSING, "scenario.cfg", id="missing-file"),
    pytest.param(DIRECTORY, "scenario.cfg", id="directory"),
])
def test_run_config_rejects_bad_input(tmp_path, capsys, line, named):
    config = tmp_path / "scenario.cfg"
    if line is DIRECTORY:
        config.mkdir()
    elif line is not MISSING:
        config.write_text("relays = a, b\nsenders = alice\nreceivers = svc\n" + line + "\n")
    assert main(["run", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert named in captured.err and captured.out == ""


def test_run_config_seed_applies_unless_seed_is_given(tmp_path, capsys):
    def trace(seed_line, *argv):
        config = tmp_path / "scenario.cfg"
        config.write_text("relays = a, b\nsenders = alice\nreceivers = svc\n"
                          "onion = alice | a, b | svc | hi\n" + seed_line)
        assert main(["run", "--config", str(config), *argv]) == 0
        return capsys.readouterr().out

    assert trace("seed = 42\n") == trace("seed = 0\n", "--seed", "42")
    assert trace("seed = 42\n") != trace("seed = 0\n")
    assert trace("seed = 42\n", "--seed", "0") == trace("seed = 0\n")


@pytest.mark.parametrize("argv", [
    ["run", "--seed", "-1"],
    ["run", "--seed", str(2**64)],
    ["attack", "padding", "--seed", "-1"],
    ["game", "tlu", "--seed", str(2**64)],
    ["attack", "tagging", "--trials", "0"],
    ["game", "tlu", "--games", "0"],
    ["game", "correctness", "--games", "-3"],
])
def test_out_of_range_seeds_and_counts_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_attack_summary(capsys):
    assert main(["attack", "tagging", "--trials", "3", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "success_rate" in out


def test_game_negative_control(capsys):
    code = main(["game", "tlu", "--adversary", "guessing", "--games", "40",
                 "--seed", "2"])
    assert code == 0
    assert "pass" in capsys.readouterr().out


def test_game_positive_control(capsys):
    code = main(["game", "sti", "--adversary", "path-length-padding",
                 "--games", "40", "--seed", "2", "--legacy-zero-padding"])
    assert code == 0


def test_game_correctness(capsys):
    assert main(["game", "correctness", "--games", "5", "--seed", "1"]) == 0


@pytest.mark.parametrize("adversary", ["guessing", "nope"])
def test_game_correctness_takes_no_adversary(adversary, capsys):
    assert main(["game", "correctness", "--adversary", adversary, "--games", "1"]) == 2
    captured = capsys.readouterr()
    assert "correctness takes no adversary" in captured.err and captured.out == ""


def test_game_rejects_unregistered_pairing(capsys):
    assert main(["game", "sti", "--adversary", "tag-consistency"]) == 2
