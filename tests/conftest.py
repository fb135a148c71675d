import collections
import os
from pathlib import Path

import pytest
from hypothesis import settings

# Every property test is seeded: examples derive from the test alone, so a run
# repeats. The "ci" profile (HYPOTHESIS_PROFILE=ci) raises the budget of tests
# that take theirs from the profile, such as the differential engine test.
settings.register_profile("default", derandomize=True, deadline=None, max_examples=60)
settings.register_profile("ci", settings.get_profile("default"), max_examples=300)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"

# standard suite: every checked-in single-run scenario
SUITE = [
    "baseline_single.json",
    "symmetric_crossing.json",
    "ghost_regression_notify_off.json",
    "ghost_regression_notify_on.json",
    "segment_trip.json",
    "latency_fleet.json",
]

_RUN_CACHE = {}


@pytest.fixture(scope="session")
def scenarios_dir() -> Path:
    return SCENARIOS


@pytest.fixture(scope="session")
def run_cached():
    """One engine run per scenario file per test session."""
    from pseudosim import run_scenario

    def _run(name: str):
        if name not in _RUN_CACHE:
            _RUN_CACHE[name] = run_scenario(str(SCENARIOS / name))
        return _RUN_CACHE[name]

    return _run


@pytest.fixture(scope="session")
def silence_sweep(tmp_path_factory, scenarios_dir):
    """The checked-in silence sweep, run once per test session."""
    from pseudosim import cli

    out = tmp_path_factory.mktemp("silence-sweep")
    spec = str(scenarios_dir / "sweeps" / "silence_sweep.json")
    assert cli.main(["sweep", "--spec", spec, "--out", str(out), "--parallel", "4"]) == 0
    return out


@pytest.fixture
def ed25519_calls(monkeypatch):
    """Counts the Ed25519 key loads, signatures and verifications sba makes."""
    from pseudosim import sba

    calls = collections.Counter()
    real = sba.Ed25519PrivateKey

    class CountingPublicKey:
        def __init__(self, key):
            self._key = key

        def verify(self, signature, data):
            calls["verify"] += 1
            return self._key.verify(signature, data)

    class CountingPrivateKey:
        def __init__(self, key):
            self._key = key

        @classmethod
        def from_private_bytes(cls, raw):
            calls["load"] += 1
            return cls(real.from_private_bytes(raw))

        def sign(self, data):
            calls["sign"] += 1
            return self._key.sign(data)

        def public_key(self):
            return CountingPublicKey(self._key.public_key())

    monkeypatch.setattr(sba, "Ed25519PrivateKey", CountingPrivateKey)
    return calls
