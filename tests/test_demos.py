"""Smoke test: every narrative script under demos/ runs to completion."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

import corrcache

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(corrcache.__file__)))
_DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(_DEMOS) >= 4


@pytest.mark.parametrize("script", _DEMOS, ids=[p.stem for p in _DEMOS])
def test_demo_exits_cleanly(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=_SRC)
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
