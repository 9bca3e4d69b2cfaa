"""The callables ``perfbench/spans.py`` wraps still live where it looks.

``traced()`` reads each target as ``owner.__dict__[attr]``, so renaming
or moving one of them breaks the traced benchmark with a bare
``KeyError``.  This guard names the missing target instead.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "perfbench_spans", ROOT / "perfbench" / "spans.py"
)
spans = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(spans)


@pytest.mark.parametrize(
    "mod_name, cls_name, attr",
    [target[:3] for target in spans.TARGETS],
    ids=lambda v: v if isinstance(v, str) else "-",
)
def test_target_is_in_its_owners_dict(mod_name, cls_name, attr):
    owner = importlib.import_module(mod_name)
    if cls_name:
        owner = getattr(owner, cls_name)
    assert attr in owner.__dict__, f"{mod_name}.{cls_name or ''}.{attr}"


def test_program_cache_lookup_is_in_its_dict():
    from repro.sim.progcache import ProgramCache

    assert "get_or_build" in ProgramCache.__dict__
