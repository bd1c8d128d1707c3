"""Every demo script runs to completion against the library in ``src``.

Each demo runs with ``-W error::RuntimeWarning``, the filter the suite runs
under, so a numpy overflow or invalid value fails the demo too.
"""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_present():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_exits_cleanly(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(script)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_green_demo_fails_on_a_wrong_kernel(monkeypatch, capsys):
    # a double integral off by one part in 1e9 misses every eps4 line's 1e-11
    # tolerance, so the demo must name those lines and exit 1
    from zeeman2d import greenfn

    exact = greenfn.reduced_double_integral
    monkeypatch.setattr(greenfn, "reduced_double_integral", lambda cfg: (1 + 1e-9) * exact(cfg))
    with pytest.raises(SystemExit) as err:
        runpy.run_path(str(ROOT / "demos" / "green_function_checks.py"), run_name="__main__")
    assert err.value.code == 1
    out = capsys.readouterr()
    assert out.err.count("FAILED: (n=") == 6
    assert "Every route" not in out.out
