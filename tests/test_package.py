import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path

import steploc.cusum


def test_import_steploc_loads_no_submodule():
    # Each name is imported from the module that defines it, so the package
    # itself pulls in neither its modules nor numpy.
    code = "import steploc, sys; print(sorted(m for m in sys.modules if m.startswith(('steploc', 'numpy'))))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout == "['steploc']\n"


def test_import_steploc_cusum_loads_no_other_module():
    # The scan kernel depends on numpy alone; its references live in tests/oracles.py.
    code = "import steploc.cusum, sys; print(sorted(m for m in sys.modules if m.startswith('steploc')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout == "['steploc', 'steploc.cusum']\n"


def test_import_steploc_l0_loads_only_the_scan_module_besides():
    # The observation contract and the prefix sums both come from steploc.cusum.
    code = "import steploc.l0, sys; print(sorted(m for m in sys.modules if m.startswith('steploc')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout == "['steploc', 'steploc.cusum', 'steploc.l0']\n"


def test_import_steploc_signal_loads_only_the_scan_module_besides():
    # The integer rule that the signal checks its counts and positions by comes from steploc.cusum.
    code = "import steploc.signal, sys; print(sorted(m for m in sys.modules if m.startswith('steploc')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout == "['steploc', 'steploc.cusum', 'steploc.signal']\n"


def test_only_steploc_cusum_states_what_an_integer_is():
    # Every other module takes INTEGER_TYPES or check_integer from steploc.cusum;
    # serialize.json_dumps tests int only to print it.
    src = Path(steploc.cusum.__file__).parent
    said = {path.name: re.findall(r"isinstance\([^)]*, int\)|np\.integer", path.read_text())
            for path in src.glob("*.py")}
    assert {name: found for name, found in said.items() if found} == {
        "cusum.py": ["np.integer"], "serialize.py": ["isinstance(obj, int)"]}


def test_steploc_imports_only_exported_names():
    # One import path per name: a module takes each public name it imports
    # from another steploc module from that module's __all__.
    src = Path(steploc.cusum.__file__).parent
    unexported = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("steploc."):
                exported = importlib.import_module(node.module).__all__
                unexported += [f"{path.name}: {node.module}.{alias.name}" for alias in node.names
                               if not alias.name.startswith("_") and alias.name not in exported]
    assert unexported == []
