"""The package's public surface and what importing it costs."""

import subprocess
import sys
from pathlib import Path

import heatlab

SRC = Path(__file__).resolve().parents[1] / "src"


def test_every_public_name_resolves():
    missing = [name for name in heatlab.__all__ if not hasattr(heatlab, name)]
    assert not missing, f"__all__ names without a binding: {missing}"
    assert len(set(heatlab.__all__)) == len(heatlab.__all__)


def test_cli_import_loads_no_scipy_extras_or_jsonschema():
    # start-up time: the three scipy modules cost about 0.35 s and most runs
    # need none; the config table replaced jsonschema, which cost 0.06 s
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import heatlab.cli; "
            "print(*sys.modules)")
    done = subprocess.run([sys.executable, "-c", code, str(SRC)],
                          capture_output=True, text=True, check=True)
    loaded = set(done.stdout.split())
    assert "heatlab.cli" in loaded
    assert not loaded & {"scipy.interpolate", "scipy.special",
                         "scipy.integrate", "jsonschema"}
