"""Freeze the scan workload's input: one commit's tree, as a tar.xz.

    python3 perfbench/freeze_corpus.py COMMIT

Writes ``corpus.tar.xz`` (everything the six-stage scan reads: the
sources under ``src/``, the contract stage's consumer files under
``tests/`` and ``benchmarks/``, the golden ``contract.json`` and the
``[tool.trust-lint]`` policy in ``pyproject.toml``) and ``corpus.json``
(commit id, file counts, archive digest).  Run it from a git checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import subprocess
import tarfile
from pathlib import Path

HERE = Path(__file__).resolve().parent


def wanted(name: str) -> bool:
    """Whether the scan reads this path of the tree."""
    return (name == "pyproject.toml"
            or name == "benchmarks/results/contract.json"
            or (name.endswith(".py")
                and name.split("/")[0] in ("src", "tests", "benchmarks")))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("commit")
    args = parser.parse_args(argv)
    commit = subprocess.run(["git", "rev-parse", args.commit], check=True,
                            capture_output=True, text=True).stdout.strip()
    tree = subprocess.run(["git", "archive", "--format=tar", commit],
                          check=True, capture_output=True).stdout

    members = []
    with tarfile.open(fileobj=io.BytesIO(tree)) as source:
        for member in source.getmembers():
            if member.isfile() and wanted(member.name):
                members.append((member.name,
                                source.extractfile(member).read()))
    members.sort()

    buffer = io.BytesIO()
    with tarfile.open(fileobj=buffer, mode="w:xz",
                      format=tarfile.PAX_FORMAT) as archive:
        for name, data in members:
            info = tarfile.TarInfo(name)
            info.size, info.mode, info.mtime = len(data), 0o644, 0
            archive.addfile(info, io.BytesIO(data))
    (HERE / "corpus.tar.xz").write_bytes(buffer.getvalue())

    provenance = {
        "commit": commit,
        "files": len(members),
        "python_files_scanned": sum(1 for name, _ in members
                                    if name.startswith("src/")
                                    and name.endswith(".py")),
        "archive_sha256": hashlib.sha256(buffer.getvalue()).hexdigest(),
    }
    (HERE / "corpus.json").write_text(
        json.dumps(provenance, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(provenance))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
