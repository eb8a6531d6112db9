"""The ``repro`` package runs on the standard library alone.

Every module is imported in a fresh interpreter, and every top-level
module that the imports pulled in must be part of the standard library
(or ``repro`` itself).  A third-party import anywhere in the package —
even one behind a single CLI subcommand — fails here, instead of
failing with ``ModuleNotFoundError`` on an install that lacks it.
"""

import json
import os
import subprocess
import sys

PROBE = """
import json, pkgutil, sys
before = set(sys.modules)
import repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    __import__(info.name)
added = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps(sorted(added)))
"""


def test_every_repro_module_imports_only_the_standard_library():
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
    added = set(json.loads(result.stdout))
    assert "repro" in added
    foreign = sorted(
        name for name in added
        if name != "repro" and name not in sys.stdlib_module_names
    )
    assert foreign == [], f"non-stdlib imports: {foreign}"
