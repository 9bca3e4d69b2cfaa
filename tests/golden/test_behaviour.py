"""Tier-1 behaviour lock: the regenerated ledger equals the checked-in
``behaviour.json`` byte for byte (see :mod:`tests.golden.ledger` for the
contents and the ``--update`` path)."""

import json

import pytest

from repro.ops import backward_variants, forward_variants
from repro.validate import DEFAULT_GRID

from .ledger import EXECUTE_MODES, LEDGER_PATH, MODELS, build_ledger, render


@pytest.fixture(scope="module")
def committed():
    return json.loads(LEDGER_PATH.read_text())


def test_ledger_covers_every_combination(committed):
    variants = len(forward_variants()) + len(backward_variants())
    assert len(committed) == (
        len(DEFAULT_GRID) * variants * len(MODELS) * len(EXECUTE_MODES)
    )
    for entry in committed.values():
        assert sorted(entry) == ["cycles", "fingerprint"]
        assert all(type(v) is int for v in entry.values())


def test_jit_matches_interpreter(committed):
    for key, entry in committed.items():
        if key.endswith("/jit"):
            assert entry == committed[key[: -len("jit")] + "numeric"], key


def test_regenerated_ledger_is_byte_identical(committed):
    ledger = build_ledger()
    moved = sorted(
        k for k in set(ledger) | set(committed)
        if ledger.get(k) != committed.get(k)
    )
    assert not moved, (
        f"{len(moved)} ledger entries moved (first: {moved[:5]}); if "
        "intentional, run `PYTHONPATH=src python -m tests.golden.ledger "
        "--update` and record it in CHANGES.md"
    )
    assert render(ledger) == LEDGER_PATH.read_text()
