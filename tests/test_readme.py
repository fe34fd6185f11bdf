"""Every ``python -m timeit`` command in ``README.md`` runs from the root of a checkout.

Each command sets ``PYTHONPATH=src``, so that it imports the checkout's
package where none is installed, and its set-up and statement run once, in
this process and untimed: a command whose names have gone stale fails here.
Shell variables assigned in the command's ``sh`` block (``S='...'``) are
expanded first.
"""

import re
import shlex
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def timeit_commands():
    """Each ``python -m timeit`` command in the README's ``sh`` blocks as an argument list, its variables expanded."""
    commands = []
    for indent, block in re.findall(r"^( *)```sh\n(.*?)^\1```", README.read_text(), flags=re.S | re.M):
        # A block in a list item is indented as its fence is; a shell reads it without.
        script = re.sub(f"^{indent}", "", block, flags=re.M).replace("\\\n", " ")
        variables = re.findall(r"^\s*(\w+)='([^']*)'", script, flags=re.M)
        for line in script.splitlines():
            if "python -m timeit" in line:
                for name, value in variables:
                    line = line.replace(f'"${name}"', shlex.quote(value))
                commands.append(shlex.split(line))
    return commands


def parse(argv):
    """The environment assignments, set-up lines and statements of a ``python -m timeit`` argument list."""
    i = argv.index("python")
    assert argv[i : i + 3] == ["python", "-m", "timeit"], argv
    env = dict(a.split("=", 1) for a in argv[:i])
    setup, statements, rest = [], [], iter(argv[i + 3 :])
    for a in rest:
        if a == "-s":
            setup.append(next(rest))
        elif a in ("-n", "-r"):
            next(rest)
        else:
            statements.append(a)
    return env, setup, statements


COMMANDS = timeit_commands()


def test_the_readme_has_timeit_commands():
    assert len(COMMANDS) >= 8


@pytest.mark.parametrize("argv", COMMANDS, ids=[parse(argv)[2][0] for argv in COMMANDS])
def test_command_runs_from_the_checkout(argv):
    env, setup, statements = parse(argv)
    assert env.get("PYTHONPATH") == "src"
    assert statements
    namespace = {}
    exec("\n".join(setup), namespace)
    exec("\n".join(statements), namespace)
