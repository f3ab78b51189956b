"""The README examples run as written: the Python quick start and every
line of the command-line block, the latter through cli.main."""

import json
import re
import shlex
from pathlib import Path

from mutation_forge.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(lang, marker):
    """The first fenced block of the given language containing marker."""
    for body in re.findall(r"```%s\n(.*?)```" % lang, README, re.S):
        if marker in body:
            return body
    raise AssertionError("no %s block with %r in README.md" % (lang, marker))


def test_quick_start_prints_the_constant(capsys):
    exec(_block("python", "map_polarization"), {})
    assert capsys.readouterr().out.split() == ["7/2"]


def test_command_line_block_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    results = {}
    for line in _block("sh", "mutforge generate").splitlines():
        if not line or line.startswith("#"):
            continue
        words = shlex.split(line)
        if words[0] == "python":
            assert words[1] == "-c", line
            exec(words[2], {})
            continue
        assert words[0] == "mutforge", line
        capsys.readouterr()
        assert main(words[1:]) == 0, line
        out = capsys.readouterr().out
        if "--out" not in words:
            results[words[1]] = json.loads(out)["result"]
    gen = json.loads((tmp_path / "gen.json").read_text())["result"]
    assert set(gen) == {"hom", "theta"}
    assert results["validate"]["ok"] is True
    assert results["dual"]["double_dual_ok"] is True
    assert results["mutate"]["involution_ok"] is True
    assert results["polarization"]["ok"] is True
    assert (tmp_path / "sweep.csv").read_text().count("\n") > 2
