"""Every demo script runs to completion against the current API, and
prints the same bytes at one and at two BLAS threads."""

import runpy
import sys
from pathlib import Path

import pytest

from saddlebounds import densecore

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys, monkeypatch, request):
    monkeypatch.setattr(sys, "argv", [str(path)])
    with densecore.one_blas_thread:
        runpy.run_path(str(path), run_name="__main__")
    one = capsys.readouterr().out
    assert one.strip()
    request.getfixturevalue("two_blas_threads")
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out == one
