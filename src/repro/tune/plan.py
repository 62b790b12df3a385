"""Persisted tuned plans: (workload, arch) -> winning tune config.

The plan file is the autotuner's repeat-traffic fast path: the first run of
a workload on an architecture pays for the search, every later run loads
the winner and applies it without re-probing.  Loading is strictly
*fail-open* — a corrupt, truncated, or stale-schema plan file downgrades to
a warning and an empty store, never an exception, because a bad cache must
not be able to kill a production run.  The next ``save()`` overwrites the
bad file with a fresh valid plan.
"""

from __future__ import annotations

import json
import os
import warnings

#: Bumped whenever a config dimension or value is retired, or the entry
#: shape changes: an older plan may still name it, so it re-searches through
#: the fail-open path below.  Version 2 plans held one entry per kernel and
#: could name ``graph``/``sort``/``overlap``/``qeq_*``.
SCHEMA_VERSION = 3


class TunePlanStore:
    """JSON-backed store of tuned winners keyed (workload, arch)."""

    def __init__(self, path: str | None) -> None:
        self.path = path
        self.data: dict = {"schema_version": SCHEMA_VERSION, "plans": {}}
        self.load_error: str | None = None
        if path and os.path.exists(path):
            self._load(path)

    def _load(self, path: str) -> None:
        try:
            with open(path) as fh:
                loaded = json.load(fh)
            if not isinstance(loaded, dict):
                raise ValueError("top level is not a JSON object")
            version = loaded.get("schema_version")
            if version != SCHEMA_VERSION:
                raise ValueError(
                    f"schema_version {version!r} != expected {SCHEMA_VERSION}"
                )
            if not isinstance(loaded.get("plans"), dict):
                raise ValueError("missing 'plans' table")
            self.data = loaded
        except (OSError, ValueError) as err:  # json errors are ValueErrors
            self.load_error = str(err)
            warnings.warn(
                f"tuned plan {path!r} unusable ({err}); "
                "falling back to search",
                RuntimeWarning,
                stacklevel=3,
            )

    # ------------------------------------------------------------- access
    def lookup(self, workload: str, arch: str) -> dict | None:
        """The stored entry, or None (also on a malformed entry)."""
        entry = self.data["plans"].get(workload, {}).get(arch)
        if not isinstance(entry, dict) or not isinstance(entry.get("config"), dict):
            return None
        return entry

    def record(self, workload: str, arch: str, *, config: dict, score: float) -> None:
        self.data["plans"].setdefault(workload, {})[arch] = {
            "config": dict(config),
            "score": score,
        }

    def save(self) -> None:
        if not self.path:
            return
        with open(self.path, "w") as fh:
            json.dump(self.data, fh, indent=2, sort_keys=True)
            fh.write("\n")
