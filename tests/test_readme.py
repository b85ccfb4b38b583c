"""The README's library quickstart runs as written, and each command in
its command-line section parses."""

import pathlib
import re
import shlex

from tplab import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quickstart_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_readme_commands_parse():
    text = "".join(re.findall(r"```sh\n(.*?)```", README.read_text(), re.S))
    lines = text.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines
                if line.startswith("tplab ")]
    assert {argv[0] for argv in commands} == {"cov", "sample", "estimate",
                                              "validate"}
    for argv in commands:
        cli._parser().parse_args(argv)
