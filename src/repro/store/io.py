"""Persistence for session records: JSON Lines (optionally gzipped).

One JSON object per session, mirroring :class:`SessionRecord`.  The format
is deliberately boring — it is the interchange surface between the
generator, the analysis library, and external tooling.
"""

from __future__ import annotations

import gzip
import io
import json
from pathlib import Path
from typing import Iterable, Iterator, Union

from repro.obs.atomic import staged_file
from repro.store.records import SessionRecord
from repro.store.store import SessionStore, StoreBuilder

PathLike = Union[str, Path]


def _open(path: PathLike, mode: str):
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def record_to_dict(record: SessionRecord) -> dict:
    return {
        "start_time": record.start_time,
        "duration": record.duration,
        "honeypot_id": record.honeypot_id,
        "protocol": record.protocol,
        "client_ip": record.client_ip,
        "client_asn": record.client_asn,
        "client_country": record.client_country,
        "n_login_attempts": record.n_login_attempts,
        "login_success": record.login_success,
        "username": record.username,
        "password": record.password,
        "commands": list(record.commands),
        "uris": list(record.uris),
        "file_hashes": list(record.file_hashes),
        "close_reason": record.close_reason,
        "client_version": record.client_version,
    }


def record_from_dict(data: dict) -> SessionRecord:
    return SessionRecord(
        start_time=float(data["start_time"]),
        duration=float(data["duration"]),
        honeypot_id=data["honeypot_id"],
        protocol=data["protocol"],
        client_ip=int(data["client_ip"]),
        client_asn=int(data.get("client_asn", -1)),
        client_country=data.get("client_country", ""),
        n_login_attempts=int(data.get("n_login_attempts", 0)),
        login_success=bool(data.get("login_success", False)),
        username=data.get("username", ""),
        password=data.get("password", ""),
        commands=tuple(data.get("commands", ())),
        uris=tuple(data.get("uris", ())),
        file_hashes=tuple(data.get("file_hashes", ())),
        close_reason=data.get("close_reason", "client-disconnect"),
        client_version=data.get("client_version", ""),
    )


def write_jsonl(records: Iterable[SessionRecord], path: PathLike) -> int:
    """Write records to a JSONL (or .jsonl.gz) file. Returns row count.

    The file is staged beside ``path`` and renamed over it only once every
    record is written, so a failed write leaves the previous file intact.
    """
    path = Path(path)
    count = 0
    with staged_file(path) as raw:
        binary = (gzip.GzipFile(path.name, "wb", fileobj=raw)
                  if path.suffix == ".gz" else raw)
        with io.TextIOWrapper(binary, encoding="utf-8") as fh:
            for record in records:
                fh.write(json.dumps(record_to_dict(record), separators=(",", ":")))
                fh.write("\n")
                count += 1
    return count


def iter_jsonl(path: PathLike) -> Iterator[SessionRecord]:
    """Stream records from a JSONL (or .jsonl.gz) file.

    A line cut mid-record, or a gzip stream that ends early, raises
    ``ValueError`` naming the path and line.  A plain ``.jsonl`` cut
    exactly at a line boundary reads as a shorter, valid trace: the format
    carries no record count or trailer to detect that by.
    """
    lineno = 0
    with _open(path, "r") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    data = json.loads(line)
                except json.JSONDecodeError as err:
                    raise ValueError(f"{path}:{lineno}: truncated or corrupt "
                                     f"record ({err.msg})") from err
                yield record_from_dict(data)
        except EOFError as err:
            raise ValueError(
                f"{path}:{lineno + 1}: compressed stream ends early") from err


def read_jsonl(path: PathLike) -> SessionStore:
    """Load a JSONL trace into a frozen :class:`SessionStore`."""
    builder = StoreBuilder()
    for record in iter_jsonl(path):
        builder.append(record)
    return builder.build()
