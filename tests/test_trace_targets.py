"""Every function the benchmark's traced run wraps must exist under its name.

``bench/trace_job.py`` looks its TARGETS up by (module, attribute path) and
only warns on stderr about a missing one, so a rename would silently drop
that layer's spans.  This resolves each target with ``getattr`` alone; it
installs no wrappers.
"""

from __future__ import annotations

import importlib
import runpy
from pathlib import Path

import pytest

TRACE_JOB = Path(__file__).resolve().parents[1] / "bench" / "trace_job.py"
TARGETS = runpy.run_path(str(TRACE_JOB), run_name="trace_job_targets")["TARGETS"]


@pytest.mark.parametrize(
    "module_name,path", sorted({(module, path) for _, module, path, _ in TARGETS})
)
def test_trace_target_resolves(module_name, path):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
