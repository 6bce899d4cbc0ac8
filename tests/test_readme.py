"""README's "Library use" block runs as written.

It is the one place the library is shown to users, so it is run in a
fresh interpreter that imports this checkout's wugnet, with nothing but
`src` added to the import path.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import wugnet

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_code() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    return re.search(r"^```python\n(.*?)^```$", section, re.S | re.M).group(1)


def test_the_library_use_block_prints_one_similarity():
    src = str(Path(wugnet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", library_use_code()], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert len(lines) == 1
    assert 0.0 <= float(lines[0]) <= 1.0
