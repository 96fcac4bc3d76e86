"""What a run records about the environment it ran in.

`environment()` gives the block every report sidecar carries under
``env``: the Python and numpy versions, the batch-kernel backend, whether
numba imports, the CPU count, and the git revision of the checkout this
package runs from with whether its tracked files differ from it (both
None when the package does not sit in a git work tree, or git fails).
The git state takes two subprocesses, so it is read once per process.
"""

from __future__ import annotations

import functools
import importlib.util
import os
import platform
import subprocess
from pathlib import Path
from typing import Optional

import numpy

from .hpt import kernels

# src/minet/obs.py -> the checkout's root
_ROOT = Path(__file__).resolve().parents[2]


def environment() -> dict:
    rev, dirty = _git_state()
    return {"python": platform.python_version(),
            "numpy": numpy.__version__,
            "kernel_backend": kernels.BACKEND,
            "numba_importable": importlib.util.find_spec("numba") is not None,
            "cpu_count": os.cpu_count(),
            "git": {"rev": rev, "dirty": dirty}}


@functools.cache
def _git_state() -> tuple[Optional[str], Optional[bool]]:
    if not (_ROOT / ".git").exists():
        return None, None
    try:
        rev = subprocess.run(["git", "-C", str(_ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        status = subprocess.run(["git", "-C", str(_ROOT), "status",
                                 "--porcelain", "--untracked-files=no"],
                                capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None, None
    if rev.returncode or status.returncode:
        return None, None
    return rev.stdout.strip(), bool(status.stdout.strip())
