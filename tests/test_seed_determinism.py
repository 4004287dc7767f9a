"""Seed-determinism audit: every sampler × path, byte-identical across runs.

``seedaudit.py`` fingerprints every sampler kind through every sampling
path (scalar, seeded bulk, stratified, without-replacement, served), the
CLI, a sharded update pass, snapshot recovery and a durable serving
session (its replies and recovery, and apart its WAL bytes) under one
fixed root seed.  This suite runs it in two
*fresh* Python processes — fresh hash randomization, fresh module
state, fresh event loops — and asserts the fingerprints agree entry by
entry.  Any path that leaks
process-local state into its draws fails here with the exact
``kind/path`` name attached.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import seedaudit

_HERE = os.path.dirname(os.path.abspath(__file__))
_SCRIPT = os.path.join(_HERE, "seedaudit.py")

EXPECTED_KEYS = sorted(
    [f"{kind}/{path}" for kind in seedaudit.build_factories()
     for path in ("scalar", "bulk", "stratified", "served")]
    + [f"{kind}/without-replacement"
       for kind in ("static", "dynamic", "sharded", "windowed")]
    + [f"cli/{kind}{suffix}" for kind in seedaudit.shard_kinds()
       for suffix in ("", "/shards=3")]
    + [f"sharded-{kind}/updates" for kind in seedaudit.shard_kinds()]
    + [f"{name}/recovered" for name in seedaudit.recovered_factories()]
    + ["durable/wal", "durable/wal-segments"]
    + ["dynamic/write-read", "weighted-dynamic/write-read"]
)


def _run_audit() -> dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(_HERE), "src")
    env["PYTHONPATH"] = src + os.pathsep * bool(env.get("PYTHONPATH")) + env.get(
        "PYTHONPATH", ""
    )
    proc = subprocess.run(
        [sys.executable, _SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        timeout=300,
    )
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def audits():
    return _run_audit(), _run_audit()


def test_audit_covers_every_kind_and_path(audits):
    first, _second = audits
    assert sorted(first) == EXPECTED_KEYS


@pytest.mark.parametrize("key", EXPECTED_KEYS)
def test_fingerprints_agree_across_fresh_processes(audits, key):
    first, second = audits
    assert first[key] == second[key], (
        f"{key} drew different values in two fresh processes under the "
        "same root seed"
    )


def _in_git_checkout() -> bool:
    done = subprocess.run(
        ["git", "-C", _HERE, "rev-parse", "HEAD"], capture_output=True, check=False
    )
    return done.returncode == 0


@pytest.mark.skipif(not _in_git_checkout(), reason="needs the git history")
def test_against_reports_the_keys_that_moved(monkeypatch, capsys):
    """``--against REV`` audits REV's exported ``src`` and this checkout's."""
    audited = []
    results = iter([
        {"a/x": "1", "b/x": "2", "gone/x": "3"},  # REV
        {"a/x": "1", "b/x": "9", "new/x": "4"},  # this checkout
        {"a/x": "1"},
        {"a/x": "1"},
    ])

    def fake_audit(src):
        assert os.path.isfile(os.path.join(src, "repro", "__init__.py"))
        audited.append(src)
        return next(results)

    monkeypatch.setattr(seedaudit, "_audit", fake_audit)
    assert seedaudit.main(["--against", "HEAD"]) == 1
    assert capsys.readouterr().out.split() == ["b/x", "gone/x", "new/x"]
    assert audited[0] != audited[1]
    assert audited[1] == os.path.join(os.path.dirname(_HERE), "src")
    assert seedaudit.main(["--against", "HEAD"]) == 0
    assert capsys.readouterr().out == ""
