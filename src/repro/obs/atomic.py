"""Atomic file writes: every artefact written after a run (stores, dataset
metadata, metrics, trace and Chrome-trace JSON, Prometheus text, ledgers)
replaces its target whole or not at all.  The live ``--trace`` sink alone
streams in place, so that ``monitor``/``top`` can tail it."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator, Union


@contextmanager
def staged_file(path: Union[str, Path], mode: str = "wb") -> Iterator[IO]:
    """Open a sibling staging file that replaces ``path`` on a clean exit.

    If the block raises, the staging file is removed and whatever was at
    ``path`` before is left untouched.  A writer killed outright cannot
    remove its file, so each write first removes the staging files of
    ``path`` whose writer's pid is no longer alive on this host.
    """
    path = Path(path)
    prefix = f".{path.name}."
    for name in sorted(os.listdir(path.parent)):
        pid = name[len(prefix) : -len(".tmp")]
        if name.startswith(prefix) and name.endswith(".tmp") and pid.isdigit():
            try:
                os.kill(int(pid), 0)
            except ProcessLookupError:
                path.with_name(name).unlink(missing_ok=True)
            except PermissionError:  # alive, owned by another user
                pass
    staging = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(staging, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(staging, path)
    finally:
        if staging.exists():
            staging.unlink()
