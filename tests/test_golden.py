"""Pin output bytes across code changes, not only across reruns.

``golden_digests.json`` holds the sha256 of every suite scenario's
``summary_json()`` and of the silence sweep's ``metrics.csv`` and
``sweep_manifest.json``. A change that alters any of these bytes on purpose
must regenerate the file and say why.
"""

import hashlib
import json
from pathlib import Path

import pytest

from conftest import SUITE

GOLDEN = json.loads((Path(__file__).parent / "golden_digests.json").read_text())


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_golden_file_covers_the_suite():
    assert sorted(GOLDEN["summary_json"]) == sorted(SUITE)
    assert sorted(GOLDEN["silence_sweep"]) == ["metrics.csv", "sweep_manifest.json"]


@pytest.mark.parametrize("name", SUITE)
def test_summary_digest(run_cached, name):
    digest = _sha256(run_cached(name).summary_json().encode())
    assert digest == GOLDEN["summary_json"][name]


@pytest.mark.parametrize("rel", ["metrics.csv", "sweep_manifest.json"])
def test_silence_sweep_digest(silence_sweep, rel):
    assert _sha256((silence_sweep / rel).read_bytes()) == GOLDEN["silence_sweep"][rel]
