"""String interning tables used by the columnar session store."""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Optional, Tuple

#: Rolling-digest seed for an empty table.
_EMPTY_CHAIN = b"\x00" * 16

#: The fork mark of a table built from scratch: the empty prefix.
EMPTY_MARK: Tuple[int, bytes] = (0, _EMPTY_CHAIN)


def mark_proven(mark: Tuple[int, bytes], marks: Dict[int, bytes], n: int,
                chain: bytes) -> bool:
    """Whether ``mark`` names a prefix of a table of ``n`` entries whose
    rolling digest is ``chain`` and whose trusted snapshots are ``marks``.

    The empty prefix always holds.  Otherwise the mark must match a
    snapshot or the table's current state: never a wrong answer, since the
    rolling 128-bit digest makes a false match cryptographically
    implausible and append-only tables keep a recorded mark valid.
    """
    length, at = mark
    return length == 0 or marks.get(length) == at or (n == length and chain == at)


def _chain_step(chain: bytes, value: str) -> bytes:
    """One step of the rolling content digest: H(prev || value)."""
    h = hashlib.blake2b(chain, digest_size=16)
    h.update(value.encode("utf-8", "surrogatepass"))
    return h.digest()


class StringTable:
    """Bidirectional string <-> integer-id mapping.

    Id 0 upward; lookups of unknown strings either raise or intern depending
    on the call used.  The table is append-only, so ids are stable.

    The table also maintains a rolling content digest (``_chain``) updated
    on every *new* intern, plus prefix marks recorded at :meth:`copy` time.
    A mark ``(length, chain)`` proves what the first ``length`` entries
    were when the fork happened; since tables are append-only, a copied
    table whose mark matches one of ours remaps its shared prefix to the
    identity without comparing a single string — the shard-merge fast path
    (:meth:`repro.store.store.StoreBuilder.adopt_store`).
    """

    def __init__(self, initial: Optional[Iterable[str]] = None):
        self._strings: List[str] = []
        self._ids: Dict[str, int] = {}
        self._chain: bytes = _EMPTY_CHAIN
        #: Trusted prefix snapshots: length -> chain at that length.  Only
        #: lengths at which a fork was taken are recorded, so the dict
        #: stays tiny.
        self._marks: Dict[int, bytes] = {}
        #: The (length, chain) this table was forked at; the empty mark
        #: for a table built from scratch.
        self._fork_mark: Tuple[int, bytes] = EMPTY_MARK
        if initial:
            for s in initial:
                self.intern(s)

    def intern(self, value: str) -> int:
        """Return the id of ``value``, adding it if unseen."""
        existing = self._ids.get(value)
        if existing is not None:
            return existing
        new_id = len(self._strings)
        self._strings.append(value)
        self._ids[value] = new_id
        self._chain = _chain_step(self._chain, value)
        return new_id

    def id_of(self, value: str) -> int:
        """Id of an already-interned string (KeyError if unknown)."""
        return self._ids[value]

    def value_of(self, string_id: int) -> str:
        return self._strings[string_id]

    def __len__(self) -> int:
        return len(self._strings)

    def __contains__(self, value: str) -> bool:
        return value in self._ids

    def values(self) -> List[str]:
        return list(self._strings)

    def copy(self) -> "StringTable":
        """An independent table with the same contents and ids.

        Both sides record the fork point: the copy carries it as its
        ``_fork_mark`` (shipped with its :meth:`tail`), the parent adds it
        to its trusted ``_marks`` so a later :meth:`proves` check is one
        dict lookup.
        """
        out = StringTable()
        out._strings = list(self._strings)
        out._ids = dict(self._ids)
        out._chain = self._chain
        out._fork_mark = (len(self._strings), self._chain)
        self._marks[len(self._strings)] = self._chain
        # A copy of a copy still shares the grandparent's prefix; keep the
        # inherited marks so sibling forks recognise each other through
        # the merge builder.
        out._marks = dict(self._marks)
        return out

    def tail(self) -> Tuple[Tuple[int, bytes], List[str]]:
        """``(fork mark, the entries interned after it)``."""
        return self._fork_mark, self._strings[self._fork_mark[0]:]

    def proves(self, mark: Tuple[int, bytes]) -> bool:
        """Whether ``mark`` (another table's fork mark, possibly from
        another process) names a prefix of this table."""
        return mark_proven(mark, self._marks, len(self._strings), self._chain)
