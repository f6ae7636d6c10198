"""What ``import ipkit.cli`` loads: only the layers ``search`` and ``verify`` run.

The partition and semigroup layers load on first use of one of their names,
and the certificate stamp uses ``time``, not ``datetime``.  Each check runs
in a fresh interpreter, since this suite's own imports load every layer.
"""

import subprocess
import sys

import pytest

LAZY_LAYERS = ("ipkit.semigroup", "ipkit.partition", "datetime")


def _python(script: str) -> str:
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_cli_loads_neither_partition_nor_semigroup_nor_datetime():
    out = _python(
        "import sys, ipkit.cli\n"
        f"print([m for m in {LAZY_LAYERS!r} if m in sys.modules])\n"
    )
    assert out == "[]\n"


def test_every_exported_name_resolves_and_is_listed():
    out = _python(
        """
import sys
import ipkit
listed = dir(ipkit)
star = {}
exec("from ipkit import *", star)
for name in ipkit.__all__:
    assert name in listed, name
    assert name in star, name
for name, module in ipkit._LAZY.items():
    assert star[name] is getattr(sys.modules[f"ipkit.{module}"], name), name
try:
    ipkit.no_such_name
except AttributeError as exc:
    print(exc)
print(len(ipkit.__all__))
"""
    )
    import ipkit

    assert out == f"module 'ipkit' has no attribute 'no_such_name'\n{len(ipkit.__all__)}\n"


@pytest.mark.parametrize("read", [
    "from ipkit.cli import _product_formula_sweep",
    "import ipkit.cli; _product_formula_sweep = ipkit.cli._product_formula_sweep",
])
def test_cli_still_gives_the_product_formula_sweep(read):
    out = _python(
        f"{read}\n"
        "from ipkit import cli, semigroup\n"
        "print(_product_formula_sweep is semigroup._product_formula_sweep)\n"
        "try:\n"
        "    cli.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    assert out == "True\nmodule 'ipkit.cli' has no attribute 'no_such_name'\n"
