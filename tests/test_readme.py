"""The README's diagram-file example and tile table, checked against the code."""

import json
import re
import shlex
from pathlib import Path

from slnpoly.cli import run_cli
from slnpoly.spintensor import SIGNATURE, Orient, Tile

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _section(title: str) -> str:
    start = README.index(f"## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:end if end >= 0 else None]


def _orients(text: str) -> tuple[Orient, ...]:
    return () if text == "none" else tuple(Orient(o) for o in text.split(", "))


def test_readme_vertex_example_prints_its_value(tmp_path, capsys):
    block = re.search(r"```json\n(.*?)\n```", _section("Diagram files"), re.S).group(1)
    cli = _section("CLI")
    echoed = re.search(r"echo '(.*)' > vertex\.json", cli).group(1)
    assert json.loads(echoed) == json.loads(block)
    command, value = re.search(r"\n(slnpoly eval [^\n]*vertex\.json[^\n]*)\n# ([^\n]*)\n",
                               cli).groups()
    path = tmp_path / "vertex.json"
    path.write_text(block)
    argv = [str(path) if arg == "vertex.json" else arg for arg in shlex.split(command)[1:]]
    assert argv[:3] == ["eval", "--n", "3"] and "--gamma" in argv
    assert run_cli(argv) == 0
    assert capsys.readouterr().out.strip() == value


def test_readme_lists_each_tile_signature():
    listed = {}
    for names, ins, outs in re.findall(r"^- ((?:`\w+`(?:, )?)+): ([a-z, ]+) -> ([a-z, ]+)[;.]$",
                                       _section("Diagram files"), re.M):
        for name in re.findall(r"`(\w+)`", names):
            listed[Tile(name)] = (_orients(ins), _orients(outs))
    assert listed == SIGNATURE
