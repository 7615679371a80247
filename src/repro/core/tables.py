"""Builders for the paper's tables.

* Table 1 — session-category shares, overall and per protocol;
* Table 2 — most used successful passwords;
* Table 3 — most popular commands (split at ";" and "|");
* Tables 4/5/6 — top-20 hashes by sessions / client IPs / active days
  (thin wrappers over :mod:`repro.core.hashes`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.classify import CATEGORIES
from repro.core.context import StoreOrContext, as_context, as_store
from repro.core.hashes import HashTableRow, top_hash_table
from repro.intel.database import IntelDatabase
from repro.store.store import PROTOCOL_SSH, PROTOCOL_TELNET


@dataclass
class CategoryTable:
    """Table 1: overall category shares and per-protocol splits."""

    overall: Dict[str, float]  # category -> share of all sessions
    ssh_share_of_category: Dict[str, float]  # category -> SSH share
    protocol_totals: Dict[str, float]  # "ssh"/"telnet" -> share of sessions


def table1_categories(store: StoreOrContext) -> CategoryTable:
    ctx = as_context(store)
    store = ctx.store
    n = max(len(store), 1)
    overall: Dict[str, float] = {}
    ssh_share: Dict[str, float] = {}
    is_ssh = store.protocol == PROTOCOL_SSH
    for i, cat in enumerate(CATEGORIES):
        mask = ctx.category_mask(i)
        count = int(mask.sum())
        overall[cat.value] = count / n
        ssh_share[cat.value] = float(is_ssh[mask].mean()) if count else 0.0
    return CategoryTable(
        overall=overall,
        ssh_share_of_category=ssh_share,
        protocol_totals={
            "ssh": float(is_ssh.mean()),
            "telnet": float((store.protocol == PROTOCOL_TELNET).mean()),
        },
    )


def table2_passwords(store: StoreOrContext, k: int = 10) -> List[Tuple[str, int]]:
    """Table 2: top successful passwords by login count (ties by password,
    so the ranking does not depend on the order ids were interned in)."""
    store = as_store(store)
    mask = store.login_success & (store.password_id >= 0)
    counts = np.bincount(store.password_id[mask], minlength=len(store.passwords))
    rows = [(store.passwords.value_of(int(i)), int(counts[i]))
            for i in np.flatnonzero(counts)]
    return sorted(rows, key=lambda row: (-row[1], row[0]))[:k]


def table3_commands(store: StoreOrContext, k: int = 20) -> List[Tuple[str, int]]:
    """Table 3: most popular commands, weighted by session occurrences.

    The store interns command scripts, so the count of a command is the sum
    of sessions over the scripts containing it (commands are already split
    at ";" and "|" by the shell, matching the paper's method).
    """
    store = as_store(store)
    script_sessions = np.bincount(
        store.script_id[store.script_id >= 0], minlength=len(store.scripts)
    )
    counter: Counter = Counter()
    for script_id, sessions in enumerate(script_sessions):
        if sessions == 0:
            continue
        for command in store.scripts[script_id].commands:
            counter[command] += int(sessions)
    return counter.most_common(k)


@dataclass
class HashTables:
    """Tables 4/5/6: the top-k hashes under each of the paper's orderings.

    Supports ``tables.by_sessions`` attribute access and, for callers
    written against the old dict return type, ``tables["by_sessions"]``.
    """

    by_sessions: List[HashTableRow]
    by_clients: List[HashTableRow]
    by_days: List[HashTableRow]

    #: The orderings, in table number order (4, 5, 6).
    KEYS = ("by_sessions", "by_clients", "by_days")

    def __getitem__(self, key: str) -> List[HashTableRow]:
        if key not in self.KEYS:
            raise KeyError(key)
        return getattr(self, key)

    def __iter__(self):
        return iter(self.KEYS)

    def keys(self) -> Tuple[str, ...]:
        return self.KEYS

    def values(self) -> List[List[HashTableRow]]:
        return [getattr(self, key) for key in self.KEYS]

    def items(self) -> List[Tuple[str, List[HashTableRow]]]:
        return [(key, getattr(self, key)) for key in self.KEYS]


def tables_4_5_6(
    store: StoreOrContext,
    intel: IntelDatabase,
    labels: Optional[Dict[str, str]] = None,
    k: int = 20,
) -> HashTables:
    """The three top-20 hash tables."""
    ctx = as_context(store)
    store = ctx.store
    stats = ctx.hash_stats
    return HashTables(
        by_sessions=top_hash_table(stats, store, intel, "sessions", k, labels),
        by_clients=top_hash_table(stats, store, intel, "clients", k, labels),
        by_days=top_hash_table(stats, store, intel, "days", k, labels),
    )


def format_table(rows: List[Tuple], headers: List[str]) -> str:
    """Plain-text table renderer used by the benchmarks."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in str_rows)) if str_rows else len(headers[i])
        for i in range(len(headers))
    ]
    def fmt(row):
        return "  ".join(str(c).ljust(w) for c, w in zip(row, widths))
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(r) for r in str_rows)
    return "\n".join(lines)
