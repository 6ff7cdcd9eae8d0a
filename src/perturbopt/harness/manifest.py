"""Result manifests: enough metadata to re-run any output bit-exactly.

The manifest records the artifact version (package version plus the
``kernels.backend()`` name), the full config snapshot, per-operation seed
labels, wall-clock timings, and SHA-256 digests of every emitted data
file.  Data files are deterministic given the manifest; timings are
metadata and may vary.
"""

from __future__ import annotations

import hashlib
import json
import os
import time

from .. import __version__
from ..kernels import backend

MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 1


def file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def artifact_version() -> str:
    return f"perturbopt-{__version__}+{backend()}"


class ManifestWriter:
    """Collects timings and emitted files; written last."""

    def __init__(self, out_dir: str, config_doc: dict, seed_labels: dict | None = None):
        self.out_dir = out_dir
        self.config_doc = config_doc
        self.seed_labels = seed_labels or {}
        self.timings: dict[str, float] = {}
        self.files: list[str] = []

    def time(self, name: str):
        writer = self

        class _Timer:
            def __enter__(self):
                self.t0 = time.perf_counter()
                return self

            def __exit__(self, *exc):
                writer.timings[name] = time.perf_counter() - self.t0
                return False

        return _Timer()

    def add_file(self, path: str) -> str:
        self.files.append(path)
        return path

    def write(self) -> str:
        doc = {
            "manifest_version": MANIFEST_VERSION,
            "artifact_version": artifact_version(),
            "config": self.config_doc,
            "seed_labels": self.seed_labels,
            "timings": self.timings,
            "files": {
                os.path.relpath(p, self.out_dir): file_digest(p) for p in self.files
            },
        }
        path = os.path.join(self.out_dir, MANIFEST_NAME)
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path


def load_manifest(out_dir: str) -> dict:
    with open(os.path.join(out_dir, MANIFEST_NAME)) as fh:
        return json.load(fh)


def verify_manifest(out_dir: str) -> tuple[bool, list[str]]:
    """Re-hash every file recorded in the manifest; list the mismatches."""
    doc = load_manifest(out_dir)
    bad = []
    for rel, digest in doc.get("files", {}).items():
        path = os.path.join(out_dir, rel)
        if not os.path.exists(path):
            bad.append(f"{rel}: missing")
        elif file_digest(path) != digest:
            bad.append(f"{rel}: digest mismatch")
    return (not bad), bad
