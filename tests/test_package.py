import subprocess
import sys


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
