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


def test_cli_import_loads_no_scipy_extras_or_jsonschema(tmp_path):
    # start-up time: the three scipy modules cost about 0.35 s and most runs
    # need none; the config table replaced jsonschema, which cost 0.06 s.
    # The comparison barrier is closed-form, so its run needs no quadrature
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import heatlab.cli; "
            "loaded = list(sys.modules); "
            "status = heatlab.cli.run(sys.argv[2], sys.argv[3]); "
            "print(*loaded); print(status, *sys.modules)")
    done = subprocess.run([sys.executable, "-c", code, str(SRC),
                           str(SRC.parent / "configs" / "comparison.json"),
                           str(tmp_path)],
                          capture_output=True, text=True, check=True)
    *_, imported, ran = done.stdout.splitlines()
    loaded = set(imported.split())
    assert "heatlab.cli" in loaded
    assert not loaded & {"scipy.interpolate", "scipy.special",
                         "scipy.integrate", "jsonschema"}
    status, *after = ran.split()
    assert status == "0" and "heatlab.experiments" in after
    assert "scipy.integrate" not in after
