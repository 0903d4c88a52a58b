"""Byte identity: every file of the digest-table runs hashes as recorded.

The table is only valid for the versions it was made with; on any other
Python, numpy or scipy the tests skip. Rewrite it with
`PYTHONPATH=src python tests/artifact_digests.py`.
"""
import json

import pytest

import artifact_digests as digests

TABLE = json.loads(digests.TABLE.read_text(encoding="utf-8"))
RUNS = digests.runs()

pytestmark = pytest.mark.skipif(
    TABLE["versions"] != digests.versions(),
    reason=f"digests recorded with {TABLE['versions']}, running {digests.versions()}")


def test_table_covers_every_run():
    assert sorted(TABLE["runs"]) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_artifacts_match_digest_table(tmp_path, name):
    config, extra = RUNS[name]
    assert digests.digests(config, extra, tmp_path / "out") == TABLE["runs"][name]
