"""Start-up: what importing the package loads.

Every CLI call is a fresh interpreter, so each one pays for what
`import superschur.cli` loads, and the catalog loader for what
`import superschur.catalog` loads.  `dataclasses` pulls in `inspect`
(and with it `ast`, `dis` and `tokenize`), `typing` is a large module of
its own, and `freenilp` is needed only once the shipped catalog builds
its free quotients.  The probe runs with `-S`, so no site hook has
loaded any of them before it looks.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
loaded = [set(sys.modules)]
import superschur.catalog
loaded.append(set(sys.modules))
import superschur.cli
loaded.append(set(sys.modules))
count = len(superschur.catalog.builtin_algebras())
import json
print(json.dumps({
    "catalog": sorted(loaded[1] - loaded[0]),
    "cli": sorted(loaded[2] - loaded[1]),
    "count": count,
}))
"""


def probe() -> dict:
    proc = subprocess.run(
        [sys.executable, "-S", "-c", PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout)


def test_imports_load_only_what_they_need():
    found = probe()
    assert {"dataclasses", "inspect", "typing", "superschur.freenilp"}.isdisjoint(found["catalog"])
    assert "superschur.catalog" in found["catalog"]
    assert {"dataclasses", "inspect"}.isdisjoint(found["cli"])
    assert "superschur.freenilp" in found["cli"]
    assert found["count"] == 26
