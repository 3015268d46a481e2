"""The package's public surface, what importing it costs, and its imports."""

import ast
import subprocess
import sys
from pathlib import Path

import heatlab

SRC = Path(__file__).resolve().parents[1] / "src"
ROOT = SRC.parent

# imported names that nothing reads, each kept for the reason given
UNREAD_IMPORTS_KEPT: dict[tuple[str, str], str] = {}
# start-up weight a run never needs: scipy.linalg's package init loads
# numpy.testing and numpy.f2py (about 0.25 s), the three scipy modules cost
# about 0.35 s, and the config table replaced jsonschema (0.06 s)
NOT_LOADED = {"scipy.linalg", "numpy.testing", "numpy.f2py",
              "scipy.interpolate", "scipy.special", "scipy.integrate",
              "jsonschema"}


def test_every_public_name_resolves():
    missing = [name for name in heatlab.__all__ if not hasattr(heatlab, name)]
    assert not missing, f"__all__ names without a binding: {missing}"
    assert len(set(heatlab.__all__)) == len(heatlab.__all__)


def test_cli_import_loads_no_scipy_extras_or_jsonschema(tmp_path):
    # the solver loads LAPACK's dpttrf/dpttrs without scipy.linalg, and the
    # comparison barrier is closed-form, so its run needs no quadrature
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
    assert not loaded & NOT_LOADED
    status, *after = ran.split()
    assert status == "0" and "heatlab.experiments" in after
    assert not set(after) & NOT_LOADED


def test_runs_load_no_numpy_ma(tmp_path):
    # np.isin and np.unique load numpy.ma (about 28 ms a process); projecting
    # a datum onto the grid needs neither
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import heatlab.cli; "
            "status = [heatlab.cli.run(c, o) for c, o in zip(sys.argv[2::2], "
            "sys.argv[3::2])]; print(*status, 'numpy.ma' in sys.modules)")
    configs = [str(ROOT / "configs" / f"{name}.json")
               for name in ("degiorgi_annulus", "completeness_euclidean")]
    done = subprocess.run([sys.executable, "-c", code, str(SRC),
                           configs[0], str(tmp_path / "d"),
                           configs[1], str(tmp_path / "c")],
                          capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "0 0 False"


def test_solver_lapack_is_scipy_linalg_lapack():
    # imported after heatlab, scipy.linalg must hand out the same routines,
    # and the benchmark's solve_banded name must still resolve to scipy's
    code = """
import sys
sys.path.insert(0, sys.argv[1])
import numpy as np
import heatlab.cli
from heatlab import solver
import scipy.linalg
from scipy.linalg import lapack

rng = np.random.default_rng(7)
d, e, b = 4.0 + rng.random(50), rng.random(49), rng.random((50, 2))
ours = solver.dpttrf(d, e)
theirs = lapack.dpttrf(d, e)
assert all(np.array_equal(x, y) for x, y in zip(ours, theirs)), "dpttrf"
x, info = solver.dpttrs(*ours[:2], b)
y, info_theirs = lapack.dpttrs(*theirs[:2], b)
assert info == info_theirs == 0 and x.tobytes() == y.tobytes(), "dpttrs"
assert solver.solve_banded is scipy.linalg.solve_banded
"""
    subprocess.run([sys.executable, "-c", code, str(SRC)], check=True)


def test_missing_lapack_extension_fails_at_import(tmp_path):
    # a scipy without its compiled linalg/_flapack stops the import, naming
    # the directory searched
    (tmp_path / "scipy").mkdir()
    (tmp_path / "scipy" / "__init__.py").write_text("")
    code = ("import sys; sys.path[:0] = sys.argv[1:]; import heatlab.solver")
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path), str(SRC)],
                          capture_output=True, text=True)
    assert done.returncode != 0
    assert done.stderr.rstrip().splitlines()[-1] == (
        "ImportError: scipy's LAPACK extension _flapack not found in "
        f"{tmp_path / 'scipy' / 'linalg'}")


def unread_imports(source: str) -> list[str]:
    """Names an import statement binds that no expression reads."""
    tree = ast.parse(source)
    bound = [alias.asname or alias.name.split(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in bound if name not in read]


def test_no_unread_imports():
    # __init__.py imports are re-exports, read through __all__
    unread = [(path, name)
              for folder in ("src/heatlab", "tests", "demos")
              for file in sorted((ROOT / folder).rglob("*.py"))
              if file.name != "__init__.py"
              for path in [file.relative_to(ROOT).as_posix()]
              for name in unread_imports(file.read_text())
              if (path, name) not in UNREAD_IMPORTS_KEPT]
    assert not unread, f"imported but never read: {unread}"
    for path, name in UNREAD_IMPORTS_KEPT:  # no stale exemption
        assert name in unread_imports((ROOT / path).read_text()), (path, name)


def test_unread_import_check_catches_a_leftover():
    source = (SRC / "heatlab" / "experiments.py").read_text()
    assert unread_imports(source) == []
    planted = source.replace("from .solver import (",
                             "from .solver import (exhaustion_radii, ", 1)
    assert planted != source
    assert unread_imports(planted) == ["exhaustion_radii"]


def test_source_stays_within_the_line_gate():
    # 10% below the initial 2,472 lines; removals must not grow back
    lines = sum(len(file.read_text().splitlines())
                for file in (SRC / "heatlab").rglob("*.py"))
    assert lines <= 2_225, f"src/heatlab has {lines} lines, over the 2,225 gate"
