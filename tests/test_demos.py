"""Every demo script and README's library quick start run against the current library.

README's CLI quick start names exactly the subcommands the parser has.
"""

import argparse
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from dualcap.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OMP_NUM_THREADS": "1"}
    run = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr


def test_readme_library_quick_start_reproduces_all_eight_training_captions(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quick start (library)", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, "README.md", "exec"), {})
    captions = ast.literal_eval(capsys.readouterr().out)  # the block prints name -> (caption, references)
    assert len(captions) == 8
    assert all(caption == references[0] for caption, references in captions.values())


def test_readme_cli_quick_start_names_every_subcommand():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```\n(.*?)```", readme.split("## Quick start (CLI)", 1)[1], re.DOTALL).group(1)
    named = [line.split()[1] for line in block.splitlines() if line.startswith("dualcap ")]
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert named == list(sub.choices)
