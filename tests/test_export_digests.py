"""Every file that ``fejerlab run --all --out`` writes, byte for byte.

The runs at the default seeds and at ``--seed 3`` must write exactly the
files listed in ``export_digests.json``, each with its sha256 digest.  A
change meant to alter exported bytes rewrites the table with
``PYTHONPATH=src python tests/test_export_digests.py`` and lists the changed
files.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from fejerlab.cli import main

TABLE = Path(__file__).with_name("export_digests.json")
RUNS = {"default": [], "seed-3": ["--seed", "3"]}


def _export_digests(run: str, out: Path) -> dict:
    """The sha256 of each file that the run writes under ``out``, by path."""
    assert main(["run", "--all", *RUNS[run], "--out", str(out)]) == 0
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


@pytest.mark.parametrize("run", list(RUNS))
def test_exported_files_keep_their_digests(run, tmp_path):
    expected = json.loads(TABLE.read_text())[run]
    got = _export_digests(run, tmp_path)
    changed = sorted(k for k in expected.keys() | got.keys() if expected.get(k) != got.get(k))
    assert not changed, f"exported files that changed at {run}: {changed}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = {run: _export_digests(run, Path(tmp) / run) for run in RUNS}
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
