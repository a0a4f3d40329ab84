"""What a result was measured on: the tree's revision and digest, Python, cores."""

from __future__ import annotations

import hashlib
import os
import platform
from pathlib import Path


def revision(root: Path) -> str:
    """The checked-out git commit, read from .git without running git; "none" outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def src_sha256(src: Path) -> str:
    """Digest of every .py file under src/, so a result names its tree even without git."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def python_version() -> str:
    return f"{platform.python_implementation()} {platform.python_version()}"


def nproc() -> int:
    return len(os.sched_getaffinity(0))
