"""README claims that the code can check: the command list, the dump table,
the artifact formats and the model methods it names."""

import re
from pathlib import Path

from cfswarm import cli, data, metrics, optim
from cfswarm.model import CrnModel

README = Path(__file__).resolve().parents[1] / "README.md"


def section(title):
    text = README.read_text()
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start:end if end >= 0 else len(text)]


def test_quickstart_names_exactly_the_cli_commands():
    shown = re.findall(r"^cfswarm (\S+)", section("Quickstart"), re.M)
    assert sorted(shown) == sorted(cli.COMMANDS)


def test_dump_table_names_every_dump_array():
    lines = section("Quickstart").splitlines()
    start = lines.index("| array | shape | holds |") + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append(line)
    listed = [name for row in rows
              for name in re.findall(r"`(\w+)`", row.split("|")[1])]
    assert sorted(listed) == sorted(metrics._DUMP_ARRAYS)


def test_named_model_methods_exist():
    named = set(re.findall(r"`CrnModel\.(\w+)", README.read_text()))
    assert named
    assert {name for name in named if not hasattr(CrnModel, name)} == set()


def test_readme_names_every_artifact_format():
    text = README.read_text()
    formats = (data.DATASET_FORMAT, optim.CHECKPOINT_FORMAT,
               metrics.EVAL_DUMP_FORMAT)
    assert [f for f in formats if f"`{f}`" not in text] == []
