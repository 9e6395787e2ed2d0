"""Decisions golden: whole management runs must reproduce the pinned logs.

``tests/golden/cluster_decisions.json`` pins, per case, every Freon /
Freon-EC / traditional decision of a full 1990 s cluster run (plus one
two-tier pipeline run) and the digests of its records, telemetry
registry, event log and fault log (see ``decisions.py``).  A fresh run
must match the stored payload exactly.
"""

import json

import pytest

from .decisions import CASES, GOLDEN_DECISIONS_FILE, generate
from .traces import GOLDEN_DIR


@pytest.fixture(scope="module")
def stored():
    path = GOLDEN_DIR / GOLDEN_DECISIONS_FILE
    if not path.exists():
        pytest.fail(
            f"missing decisions golden {path}; regenerate with "
            f"'PYTHONPATH=src python -m tests.golden.decisions'"
        )
    return json.loads(path.read_text())


def test_every_case_is_pinned(stored):
    assert sorted(stored) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_decisions_match_golden(name, stored):
    fresh = generate(name)
    expected = stored[name]
    # Readable fields first, so a mismatch names what drifted.
    for key in sorted(expected):
        if not key.endswith("sha256"):
            assert fresh[key] == expected[key], f"{name}: {key} drifted"
    assert fresh == expected
