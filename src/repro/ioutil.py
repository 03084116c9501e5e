"""Crash-safe file I/O helpers.

Long-running tools (sweeps, fault campaigns, soaks) checkpoint partial
results to disk; a plain ``open(...).write(...)`` interrupted by a crash
or a SIGKILL can leave a truncated file that poisons the next resume.
The write helpers follow the standard atomic-replace protocol:

1. write the full payload to a temporary file in the *same directory*
   (``os.replace`` is only atomic within one filesystem);
2. flush and ``fsync`` so the bytes are durable before the rename;
3. ``os.replace`` onto the destination — readers see either the old
   complete file or the new complete file, never a prefix.

:func:`load_checkpoint` is the matching resume side.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any, Mapping, Optional


def atomic_write_bytes(path, data: bytes) -> None:
    """Atomically replace ``path`` with ``data``.

    Binary twin of :func:`atomic_write_text`; used by the JIT disk cache
    (:mod:`repro.circuits.jit`), whose entries embed marshalled code
    objects and must never be observable half-written.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path, text: str) -> None:
    """Atomically replace ``path`` with ``text`` (UTF-8)."""
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_json(path, payload: Any, indent: int = 2) -> None:
    """Atomically replace ``path`` with ``payload`` serialized as JSON."""
    atomic_write_text(path, json.dumps(payload, indent=indent) + "\n")


def load_checkpoint(path, meta: Mapping[str, Any], version) -> Optional[dict]:
    """The checkpoint document at ``path`` if a run with the same settings
    wrote it, else ``None``.

    A document matches when its ``meta["version"]`` is ``version`` and
    every other ``meta`` entry except ``complete`` equals ours.  A
    missing or unreadable file means a fresh start; a readable one from
    different settings is announced as one.
    """
    path = os.fspath(path)
    if not os.path.isfile(path):
        return None
    try:
        with open(path, encoding="utf-8") as fh:
            prior = json.load(fh)
    except (ValueError, OSError):
        return None  # unreadable checkpoint: start over
    pmeta = prior.get("meta", {}) if isinstance(prior, dict) else {}
    if pmeta.get("version") == version and all(
        pmeta.get(k) == v for k, v in meta.items() if k != "complete"
    ):
        return prior
    print(f"checkpoint {path} is from different settings; starting over")
    return None
