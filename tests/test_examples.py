"""The tour scripts under ``examples/`` run end to end.

Each script is loaded in-process and its ``main()`` executed with its
``OUTPUT_DIR`` pointed at a temporary directory, so the artifacts never land
in the source tree.  The scripts assert their own claims (for instance that
materialized views match fresh queries after every step), so running them is
a behavioural check, not only an import check.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"example_{name}", EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ("session_tour", "materialize_tour", "trace_tour"))
def test_example_runs(name, tmp_path, capsys, global_obs):
    module = _load(name)
    if hasattr(module, "OUTPUT_DIR"):
        module.OUTPUT_DIR = tmp_path
    module.main()
    assert capsys.readouterr().out.strip()
