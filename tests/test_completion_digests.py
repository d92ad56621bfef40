"""Seeded results stay bit-identical to the committed digests."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import pcimpute

ROOT = Path(__file__).resolve().parents[1]
RECORDED = Path(__file__).resolve().parent / "data" / "completion_digests.txt"


def test_every_digest_matches_the_committed_file():
    # The child keeps the machine's default OpenBLAS thread count: the digests
    # were recorded on one thread and must not depend on it.
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(pcimpute.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "completion_digests.py")],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    stamp, *lines = proc.stdout.splitlines()
    recorded_stamp, *recorded = RECORDED.read_text(encoding="utf-8").splitlines()
    if stamp != recorded_stamp:
        pytest.skip(
            f"digests recorded under '{recorded_stamp}', this environment is '{stamp}'; "
            "bits depend on those builds"
        )
    assert lines == recorded
