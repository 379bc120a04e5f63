"""The README's task-kind list and CLI usage match the task table and the parser."""

import argparse
import os
import re

from holomult.cli import build_parser
from holomult.manifest import TASKS

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def readme():
    with open(README, encoding="utf-8") as handle:
        return handle.read()


def test_task_kinds_match_the_table():
    paragraph = readme().split("Task kinds:", 1)[1].split("\n\n", 1)[0]
    documented = {}
    for item in re.findall(r"`([^`]+)`", paragraph):
        kind, *required = item.split("[", 1)[0].split()  # "[f2 ...]" marks repeats
        documented[kind] = (len(required), "[" in item)
    table = {kind: (len(spec.args), spec.variadic) for kind, spec in TASKS.items()}
    assert documented == table


def test_cli_usage_matches_the_subcommands():
    usage = readme().split("## CLI", 1)[1].split("```", 2)[1]
    documented = [line.split()[1] for line in usage.splitlines() if line.startswith("holomult ")]
    parser = build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert documented == list(subs.choices)
