"""Run manifests: provenance stamps for experiment grids.

A manifest answers "what exactly produced these numbers?" months after
the fact: the git commit, Python/platform, the experiment setup (scale,
traces, invocations, trace seed), which engine executed the samples
(interpreter or replay), the ``REPRO_*`` environment knobs in force,
and a per-configuration metrics rollup.

Usage has two halves:

* The harness half is passive. While a manifest is *active*
  (:func:`begin_manifest` … :func:`finish_manifest`),
  :func:`record_result` — called by
  :func:`repro.experiments.common.run_benchmark_suite` after every
  finished configuration — appends that configuration's rollup. When no
  manifest is active the call is a single ``is None`` check.
* The driver half lives in the CLI: ``python -m repro run`` opens a
  manifest when ``REPRO_MANIFEST=<path>`` is set (or ``--manifest`` is
  passed) and writes it when the experiments finish. The CI workflow
  uploads the file as an artifact next to the bench JSONs.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from typing import List, Optional

#: Environment variable holding the manifest output path.
MANIFEST_ENV = "REPRO_MANIFEST"

#: Environment knobs worth stamping into every manifest.
_ENV_KEYS = (
    "REPRO_JOBS", "REPRO_TRACE", "REPRO_METRICS", "REPRO_PROFILE",
    "REPRO_LEDGER",
)


def git_sha(repo_dir: Optional[str] = None) -> Optional[str]:
    """The current git commit hash, or ``None`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=repo_dir or os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


class RunManifest:
    """One experiment invocation's provenance record.

    Collects an environment header at construction and per-configuration
    result entries via :meth:`add_result`; :meth:`write` serializes the
    whole record as indented JSON.
    """

    SCHEMA = 1

    def __init__(self, command: Optional[str] = None) -> None:
        self.command = command
        self.created_unix = time.time()
        self.git = git_sha()
        self.python = platform.python_version()
        self.platform = platform.platform()
        self.env = {
            key: os.environ[key] for key in _ENV_KEYS if key in os.environ
        }
        self.results: List[dict] = []

    def add_result(
        self,
        workload: str,
        mode: str,
        bits: Optional[int],
        runtime: str,
        engine: str,
        setup: Optional[dict] = None,
        samples: int = 0,
        metrics: Optional[dict] = None,
    ) -> None:
        """Append one finished configuration's entry.

        ``engine`` is the engine that ran the grid: ``"replay"`` for
        every harness grid (individual samples may still have fallen
        back to ``"interp"``, which the metrics rollup's ``engine.*``
        counters show).
        """
        self.results.append(
            {
                "workload": workload,
                "mode": mode,
                "bits": bits,
                "runtime": runtime,
                "engine": engine,
                "setup": setup or {},
                "samples": samples,
                "metrics": metrics or {},
            }
        )

    def to_dict(self) -> dict:
        """The full manifest as one JSON-serializable dict."""
        return {
            "schema": self.SCHEMA,
            "command": self.command,
            "created_unix": round(self.created_unix, 3),
            "git_sha": self.git,
            "python": self.python,
            "platform": self.platform,
            "argv": sys.argv,
            "env": self.env,
            "results": self.results,
        }

    def write(self, path: str) -> None:
        """Serialize to ``path`` as indented JSON."""
        with open(path, "w", encoding="utf-8") as file:
            json.dump(self.to_dict(), file, indent=2)
            file.write("\n")


#: The manifest currently collecting results, if any.
_active: Optional[RunManifest] = None


def begin_manifest(command: Optional[str] = None) -> RunManifest:
    """Open a manifest; subsequent :func:`record_result` calls feed it."""
    global _active
    _active = RunManifest(command=command)
    return _active


def active_manifest() -> Optional[RunManifest]:
    """The manifest currently collecting results, or ``None``."""
    return _active


def finish_manifest(path: Optional[str] = None) -> Optional[RunManifest]:
    """Close the active manifest, writing it to ``path`` when given."""
    global _active
    manifest, _active = _active, None
    if manifest is not None and path:
        manifest.write(path)
    return manifest


def record_result(
    workload: str,
    mode: str,
    bits: Optional[int],
    runtime: str,
    engine: str,
    setup: Optional[dict] = None,
    samples: int = 0,
    metrics: Optional[dict] = None,
) -> None:
    """Feed one configuration to the active manifest (no-op when idle)."""
    if _active is None:
        return
    _active.add_result(
        workload, mode, bits, runtime, engine,
        setup=setup, samples=samples, metrics=metrics,
    )


def manifest_path_from_env() -> Optional[str]:
    """The ``REPRO_MANIFEST`` output path, or ``None`` when unset."""
    path = os.environ.get(MANIFEST_ENV, "").strip()
    return path or None
