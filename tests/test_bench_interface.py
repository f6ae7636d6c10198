"""The benchmark's modules import against this checkout's ``src/``.

``bench/replay.py`` and ``bench/child.py`` call the package through names a
refactor could drop (``FsFpState``, ``extend_state``, ``intersect_all``,
``ipkit.cli._product_formula_sweep`` and more); a change that drops one
breaks every benchmark run, so the import is part of this suite.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_modules_import_against_src():
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "bench"), src]))
    done = subprocess.run(
        [sys.executable, "-c", "import ipkit, replay, child; print(ipkit.__file__)"],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert os.path.realpath(done.stdout.strip()).startswith(os.path.realpath(src) + os.sep)
