"""The package's public surface, what importing it costs, and its imports."""

import ast
import subprocess
import sys
from pathlib import Path

import heatlab

SRC = Path(__file__).resolve().parents[1] / "src"
ROOT = SRC.parent

# imported names that nothing reads, each kept for the reason given
UNREAD_IMPORTS_KEPT = {
    ("src/heatlab/solver.py", "solve_banded"):
        "perfbench wraps heatlab.solver.solve_banded by name",
}


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
