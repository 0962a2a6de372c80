import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("module,absent", [
    ("wordposets", ["dataclasses", "inspect", "json"]),
    ("wordposets.cli", ["dataclasses", "inspect"]),
])
def test_import_leaves_heavy_modules_unloaded(module, absent):
    # a cold process pays for every module the package pulls in; json loads
    # only where a JSON graph is read or --json output is written
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import {module}; "
            f"print(sorted(set({absent!r}) & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
