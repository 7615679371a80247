"""Vectorized block session engine.

The scalar emission path hands every session block straight to the store
builder.  The block engine buffers those blocks in emission order and
flushes them as ONE ``append_block`` per builder — one concatenate per
column, one CSR hash adoption — without touching interning order or any RNG
stream, so the frozen store is byte-identical to the scalar path.

Selection is by environment: ``REPRO_EMIT_PATH=block`` (the default) or
``scalar``.  :func:`make_emitter` is the single construction seam: each
shard builds one over its forked builder.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import get_metrics, inc as _metric_inc
from repro.simulation.rng import RngStream, weight_cdf
from repro.store.store import HashBlockCsr, HashIdsArg, StoreBuilder
from repro.workload.emit import SessionEmitter

_EMIT_PATHS = ("block", "scalar")

#: Builder column names in ``append_block`` keyword order (hashes aside).
_COLUMNS = (
    "start_time",
    "duration",
    "honeypot_id",
    "protocol",
    "client_ip",
    "client_asn",
    "client_country_id",
    "n_attempts",
    "login_success",
    "script_id",
    "password_id",
    "username_id",
    "close_reason_id",
    "version_id",
)


def emit_path() -> str:
    """The selected emission path: ``"block"`` (default) or ``"scalar"``."""
    path = os.environ.get("REPRO_EMIT_PATH", "block").strip().lower() or "block"
    if path not in _EMIT_PATHS:
        raise ValueError(
            f"REPRO_EMIT_PATH={path!r} is not one of {_EMIT_PATHS}"
        )
    return path


def make_emitter(builder: StoreBuilder) -> SessionEmitter:
    """The emitter for the configured path (callers must flush() at the end)."""
    if emit_path() == "block":
        return BlockEmitter(builder)
    return SessionEmitter(builder)


class TransitionTable:
    """A categorical state-transition row with its CDF precomputed.

    Wraps a fixed weight vector (e.g. the auth-outcome or close-reason
    distribution of a session phase) so batched draws skip the per-call
    cumsum.  ``sample`` draws the exact same values as
    ``rng.choice_indices(n, size, p=weights)`` — the CDF spelling is a
    pure precomputation, not a different distribution.
    """

    __slots__ = ("weights", "cdf", "n")

    def __init__(self, weights: Sequence[float]):
        self.weights = np.asarray(weights, dtype=np.float64)
        self.cdf = weight_cdf(self.weights)
        self.n = int(self.weights.size)

    def sample(self, rng: RngStream, size: int) -> np.ndarray:
        """``size`` next-state indices in ``[0, n)``."""
        return np.asarray(rng.choice_indices(self.n, size=size, cdf=self.cdf))


def _hash_piece(hash_ids: HashIdsArg, n: int) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """``(lengths, values)`` arrays for one buffered block's hash spec.

    Mirrors ``StoreBuilder._append_block_hashes`` exactly; ``values`` is
    None when no row of the piece carries hashes.
    """
    if hash_ids is None:
        return np.zeros(n, np.int64), None
    if isinstance(hash_ids, HashBlockCsr):
        if len(hash_ids.lengths) != n:
            raise ValueError("append_block sequences must share one length")
        return hash_ids.lengths, (hash_ids.values if len(hash_ids.values) else None)
    if isinstance(hash_ids, tuple):
        k = len(hash_ids)
        if not k:
            return np.zeros(n, np.int64), None
        return (
            np.full(n, k, np.int64),
            np.tile(np.asarray(hash_ids, np.int64), n),
        )
    if len(hash_ids) != n:
        raise ValueError("append_block sequences must share one length")
    if not any(hash_ids):
        return np.zeros(n, np.int64), None
    lengths = np.fromiter((len(t) for t in hash_ids), np.int64, count=n)
    values = np.fromiter(
        (h for t in hash_ids for h in t), np.int64, count=int(lengths.sum())
    )
    return lengths, values


class BlockEmitter(SessionEmitter):
    """Session emitter that defers builder writes until :meth:`flush`.

    Blocks are buffered in emission order — each column keeps its own list
    of per-piece arrays, so flush is one concatenate per column plus one
    CSR hash block, regardless of how many blocks were emitted.  Interning
    and RNG consumption happen at exactly the same points as the scalar
    path, so the built store is byte-identical.
    """

    def __init__(self, builder: StoreBuilder):
        super().__init__(builder)
        # Per-column lists of buffered array pieces, all aligned in
        # emission order; hash specs ride alongside as (spec, n) pairs.
        self._col_parts: Dict[str, List] = {name: [] for name in _COLUMNS}
        self._hash_specs: List[Tuple[HashIdsArg, int]] = []
        self._pending_rows = 0

    # -- buffering -------------------------------------------------------------

    def append_block(
        self,
        start_time: np.ndarray,
        duration: np.ndarray,
        honeypot: Sequence[int],
        protocol: np.ndarray,
        client_ip: np.ndarray,
        client_asn: np.ndarray,
        client_country: np.ndarray,
        n_attempts: np.ndarray,
        login_success: np.ndarray,
        script_id: Sequence[int],
        password_id: np.ndarray,
        username_id: np.ndarray,
        hash_ids: HashIdsArg,
        close_reason: np.ndarray,
        version_id: np.ndarray,
    ) -> None:
        n = len(start_time)
        if not n:
            return
        cols = self._col_parts
        cols["start_time"].append(start_time)
        cols["duration"].append(duration)
        cols["honeypot_id"].append(honeypot)
        cols["protocol"].append(protocol)
        cols["client_ip"].append(client_ip)
        cols["client_asn"].append(client_asn)
        cols["client_country_id"].append(client_country)
        cols["n_attempts"].append(n_attempts)
        cols["login_success"].append(login_success)
        cols["script_id"].append(script_id)
        cols["password_id"].append(password_id)
        cols["username_id"].append(username_id)
        cols["close_reason_id"].append(close_reason)
        cols["version_id"].append(version_id)
        self._hash_specs.append((hash_ids, n))
        self._pending_rows += n
        _metric_inc("emit.block.buffered_blocks")

    # -- flush -----------------------------------------------------------------

    def flush(self) -> None:
        """Write every buffered piece to the builder as one block."""
        if not self._pending_rows:
            return
        with get_metrics().span("emit.block.flush"):
            n_total = self._pending_rows
            self._pending_rows = 0

            columns: Dict[str, np.ndarray] = {}
            for name in _COLUMNS:
                parts = self._col_parts[name]
                self._col_parts[name] = []
                dtype = self.builder._cols[
                    _INTERNAL_COLUMN.get(name, name)
                ].dtype
                columns[name] = (
                    np.asarray(parts[0], dtype=dtype)
                    if len(parts) == 1
                    else np.concatenate(parts, dtype=dtype, casting="unsafe")
                )

            specs, self._hash_specs = self._hash_specs, []
            length_parts: List[np.ndarray] = []
            value_parts: List[np.ndarray] = []
            for spec, n in specs:
                lengths, values = _hash_piece(spec, n)
                length_parts.append(lengths)
                if values is not None:
                    value_parts.append(values)
            hash_block = HashBlockCsr(
                values=(
                    np.concatenate(value_parts)
                    if value_parts
                    else np.zeros(0, np.int64)
                ),
                lengths=(
                    length_parts[0]
                    if len(length_parts) == 1
                    else np.concatenate(length_parts)
                ),
            )

            self.builder.append_block(hash_ids=hash_block, **columns)
            _metric_inc("emit.block.flushes")
            _metric_inc("emit.block.rows", n_total)


#: append_block keyword -> internal ``StoreBuilder._cols`` key, for the
#: three columns whose internal name drops the ``_id`` suffix.
_INTERNAL_COLUMN = {
    "honeypot_id": "honeypot",
    "client_country_id": "client_country",
    "close_reason_id": "close_reason",
}
