"""What a fresh interpreter loads when it imports the package and its CLI:
no ``dataclasses`` (which pulls in ``inspect``, ``ast`` and ``dis``), no
Hironaka route until a Hironaka name is used, and every module whose
functions the benchmark's tracer wraps."""

import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench.spans import LAYERS  # noqa: E402

PROBE = """
import json, sys
import circleinv, circleinv.cli
loaded = sorted(sys.modules)
from circleinv import HironakaData, gamma_cm, hilb_from_hironaka
value = str(gamma_cm(1, HironakaData((2, 4), (0,))))
try:
    circleinv.nosuch
    unknown = None
except AttributeError:
    unknown = "AttributeError"
print(json.dumps({"loaded": loaded, "later": sorted(sys.modules), "value": value,
                  "series": repr(hilb_from_hironaka(HironakaData((2,), (0, 1)))),
                  "unknown": unknown, "all": circleinv.__all__,
                  "unresolved": [n for n in circleinv.__all__ if not hasattr(circleinv, n)]}))
"""


def probe() -> dict:
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_fresh_import():
    out = probe()
    loaded = set(out["loaded"])
    assert not loaded & {"dataclasses", "inspect", "circleinv.hironaka"}
    assert {module for _, module, _ in LAYERS} <= loaded
    # the Hironaka names load their module on first use, and it too needs
    # no dataclasses
    assert "circleinv.hironaka" in out["later"] and "dataclasses" not in out["later"]
    assert out["value"] == "1/4"
    assert out["series"] == "RationalFunction(Polynomial(1*t^0) / (1-t^1))"
    assert out["unknown"] == "AttributeError"
    assert len(out["all"]) == 28 and out["unresolved"] == []
