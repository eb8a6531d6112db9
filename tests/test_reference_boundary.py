"""The reference oracles stay outside the product path.

:mod:`repro.reference` holds the textbook copies of the decision
procedures that the differential tests compare against.  Importing
every other ``repro`` module in a fresh interpreter must not pull it
in, and the public ``repro.core`` surface must not re-export an oracle.
"""

import json
import os
import subprocess
import sys

PROBE = """
import json, pkgutil, sys
import repro
import repro.core
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if info.name != "repro.reference":
        __import__(info.name)
print(json.dumps({
    "reference_loaded": "repro.reference" in sys.modules,
    "core_all": list(repro.core.__all__),
}))
"""


def _probe() -> dict:
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    result = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_no_product_module_imports_the_reference_oracles():
    assert _probe()["reference_loaded"] is False


def test_core_exports_no_naive_oracle():
    naive = [name for name in _probe()["core_all"] if name.endswith("_naive")]
    assert naive == []
