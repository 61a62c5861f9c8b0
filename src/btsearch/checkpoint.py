"""Checkpoint files: pending job payloads plus shared tokens, so a run can
be stopped and resumed (possibly elsewhere) without losing work.

The final checkpoint of a ``stop_after_jobs`` run is written once every
worker is idle.  Periodic checkpoints are written while jobs are in flight
and list those jobs too, so a job that finished after the snapshot runs
again on resume (at-least-once).  Each write goes to ``<path>.tmp`` and is
renamed over ``path``, so a failed write leaves the previous checkpoint
intact.

Line-oriented text format::

    mts-checkpoint 1 <app-name>
    S <shared-token-base64>     (zero or more)
    N <job-payload-base64>      (zero or more, job-list order)
"""

from __future__ import annotations

import base64
import binascii
import os
from pathlib import Path
from typing import Iterable, Sequence

from .errors import CheckpointError

_MAGIC = "mts-checkpoint"
_VERSION = "1"


def checkpoint_write(
    path: str | Path,
    app_name: str,
    jobs: Iterable[bytes],
    shared_tokens: Sequence[bytes] = (),
) -> None:
    """Atomically replace ``path`` with the pending job payloads and shared store."""
    lines = [f"{_MAGIC} {_VERSION} {app_name}"]
    for token in shared_tokens:
        lines.append("S " + base64.b64encode(token).decode("ascii"))
    for job in jobs:
        lines.append("N " + base64.b64encode(job).decode("ascii"))
    tmp = Path(f"{path}.tmp")
    try:
        tmp.write_text("\n".join(lines) + "\n", encoding="ascii")
        os.replace(tmp, path)
    except OSError:
        tmp.unlink(missing_ok=True)
        raise


def checkpoint_read(
    path: str | Path,
    expected_app: str | None = None,
) -> tuple[list[bytes], list[bytes]]:
    """Reconstruct ``(job_payloads, shared_tokens)`` from a checkpoint file."""
    try:
        text = Path(path).read_text(encoding="ascii")
    except (OSError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    lines = text.splitlines()
    if not lines:
        raise CheckpointError(f"{path}: empty checkpoint file")
    header = lines[0].split()
    if len(header) != 3 or header[0] != _MAGIC:
        raise CheckpointError(f"{path}: line 1: not a checkpoint header: {lines[0]!r}")
    if header[1] != _VERSION:
        raise CheckpointError(f"{path}: line 1: unsupported checkpoint version {header[1]!r}")
    if expected_app is not None and header[2] != expected_app:
        raise CheckpointError(
            f"{path}: checkpoint belongs to application {header[2]!r}, expected {expected_app!r}"
        )
    jobs: list[bytes] = []
    tokens: list[bytes] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        tag, _, body = line.partition(" ")
        if tag not in ("S", "N"):
            raise CheckpointError(f"{path}: line {lineno}: unrecognized checkpoint line")
        try:
            data = base64.b64decode(body.strip(), validate=True)
        except (binascii.Error, ValueError) as exc:
            raise CheckpointError(f"{path}: line {lineno}: bad base64 payload: {exc}") from exc
        if tag == "S":
            tokens.append(data)
        else:
            jobs.append(data)
    return jobs, tokens
