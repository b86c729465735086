"""The command table: parser surface, OOM exit, numeric input hygiene."""

import argparse
import json
import pathlib

import pytest

from repro.cli import COMMANDS, OPTIONS, build_parser, main

#: every subcommand's (option strings, dest, default, choices, nargs,
#: type) as the hand-built parser had them before the command table
SNAPSHOT = pathlib.Path(__file__).with_name("cli_parser_snapshot.json")

#: the one option the table dropped on purpose (the serial timeline)
REMOVED = {("run", "timeline")}

#: the range-checked int types stand where the snapshot has plain int
INT_TYPES = {"positive_int": "int", "count": "int"}


def _surface():
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    out = {}
    for name, p in sub.choices.items():
        rows = []
        for a in p._actions:
            kind = getattr(a.type, "__name__", None)
            rows.append([
                list(a.option_strings), a.dest,
                "==SUPPRESS==" if a.default is argparse.SUPPRESS
                else a.default,
                None if a.choices is None else list(a.choices),
                a.nargs, INT_TYPES.get(kind, kind)])
        out[name] = sorted(rows, key=lambda r: (r[1], r[0]))
    return out


class TestParserSurface:
    def test_matches_snapshot(self):
        want = json.loads(SNAPSHOT.read_text())
        for command, rows in want.items():
            want[command] = [r for r in rows
                             if (command, r[1]) not in REMOVED]
        assert _surface() == want

    def test_every_shared_option_is_used(self):
        used = {e[0] if isinstance(e, tuple) else e
                for c in COMMANDS.values() for e in c.options}
        assert used == set(OPTIONS)


@pytest.mark.parametrize("command,extra", [
    ("compile", []), ("run", []), ("check", []),
    ("pack", ["--out", "{tmp}/m.dna"]), ("trace", ["-o", "{tmp}/t.json"]),
], ids=["compile", "run", "check", "pack", "trace"])
def test_oom_exits_2(command, extra, tmp_path, capsys):
    extra = [a.format(tmp=tmp_path) for a in extra]
    assert main([command, "mobilenet", "--config", "cpu-tvm", *extra]) == 2
    assert "OUT OF MEMORY" in capsys.readouterr().out


@pytest.mark.parametrize("argv,option", [
    (["serve", "toyadmos", "--requests", "8", "--clients", "0"],
     "--clients"),
    (["run", "resnet", "--batch", "0"], "--batch"),
    (["df", "--l1-kb", "0"], "--l1-kb"),
    (["pack", "resnet", "--validate-runs", "-2"], "--validate-runs"),
    (["dse", "--budgets-kb", "0"], "--budgets-kb"),
], ids=["clients", "batch", "l1-kb", "validate-runs", "budgets-kb"])
def test_bad_numbers_are_usage_errors(argv, option, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {option}: must be >=" in err
