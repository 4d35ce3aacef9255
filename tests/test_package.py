"""The package's export list and its runtime dependencies."""

import os
import subprocess
import sys
from pathlib import Path

import qperm


def test_every_exported_name_resolves():
    assert len(set(qperm.__all__)) == len(qperm.__all__)
    assert [name for name in qperm.__all__ if not hasattr(qperm, name)] == []


def test_star_import_binds_exactly_the_export_list():
    namespace = {}
    exec("from qperm import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(qperm.__all__)


# The modules loaded before the recording (site hooks may load packages of
# their own) are subtracted, so only what qperm brings in is counted.
DEPENDENCY_PROBE = """
import sys
start = set(sys.modules)
import qperm.cli
code = qperm.cli.main(["reproduce-all", "--k-max", "2", "--n-range", "4..4"])
loaded = sorted({name.partition(".")[0] for name in set(sys.modules) - start})
print(code, *loaded, file=sys.stderr)
"""


def test_numpy_is_the_only_runtime_dependency():
    proc = subprocess.run(
        [sys.executable, "-c", DEPENDENCY_PROBE],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(Path(qperm.__file__).parents[1])},
    )
    code, *loaded = proc.stderr.splitlines()[-1].split()
    assert code == "0", proc.stderr
    assert "numpy" in loaded and "qperm" in loaded
    outside = [m for m in loaded if m not in sys.stdlib_module_names | {"numpy", "qperm"}]
    assert outside == []
