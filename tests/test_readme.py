import os
import subprocess
import sys
from pathlib import Path

from helpers import SRC

README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_library_quick_start_runs(tmp_path):
    """README's quick start, run as written; its imports name the module of
    each name, and the optimized portfolio prints as Python floats."""
    section = README.read_text().split("## Library quick start")[1]
    code = section.split("```python\n")[1].split("```")[0]
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": os.path.abspath(SRC)})
    assert proc.returncode == 0, proc.stderr
    assert "np.float64" not in proc.stdout
