"""The quick demos run to completion against the package as it stands.

Demo 04 trains for about a minute and is left to be run by hand.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
QUICK_DEMOS = ("01_matches_and_features.py", "02_labels_and_balancing.py",
               "03_network_anatomy.py")


@pytest.mark.parametrize("demo", QUICK_DEMOS)
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
