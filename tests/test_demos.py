"""Every demo script runs to a clean exit.

Each script is run in-process with ``runpy`` (as ``__main__``), in a
temporary working directory so the files it writes under ``runs/`` land
there.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_clean(script, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    try:
        runpy.run_path(str(script), run_name="__main__")
    except SystemExit as exit_:
        assert exit_.code in (None, 0), f"{script.name} exited with {exit_.code!r}"
    assert capsys.readouterr().out
