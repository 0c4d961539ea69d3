"""Content-addressed, versioned store of fitted BST models.

A registry maps a :class:`ModelKey` -- ``(city, isp, config_hash)``,
where the hash is :func:`repro.obs.runs.config_fingerprint` over the
:class:`~repro.core.config.BSTConfig` that produced the fit -- to a
fitted :class:`~repro.core.bst.BSTResult` stored on disk:

- ``<root>/objects/<digest>.json`` -- the serialized fit
  (:func:`repro.core.serialize.bst_result_to_dict`), named by the
  SHA-256 of its canonical JSON bytes.  Registering the same fit twice
  writes one object (content addressing makes registration idempotent).
- ``<root>/objects/<digest>.arrays`` -- an mmap-able binary sidecar of
  the same fit: a small JSON header (stage parameters, catalog) plus
  the raw bytes of the big per-row arrays (``group_indices``,
  ``tiers``).  :meth:`ModelRegistry.load_shared` maps it read-only, so
  N worker processes serving the same model share one page-cache copy
  of the arrays and skip the multi-megabyte JSON parse entirely.
- ``<root>/index.json`` -- the key -> record mapping, where a
  :class:`ModelRecord` carries the digest plus staleness metadata
  (creation time, training-set size, schema version), the training
  distribution summary the serving drift check compares against, and
  -- when the training sample was supplied at registration -- a
  quantized lookup table proven byte-identical to the exact GMM path
  on that sample (see :class:`repro.serve.engine.QuantizedLookup`).

All writes are atomic (temp file + ``os.replace``), so a crashed
registration never leaves a half-written object or index.  The registry
caches no fit: every load reads its object from disk, and a serving
process keeps the models it serves in
:class:`~repro.serve.server.AssignmentService`.  ``serve.registry.*``
counters report load/miss/registration traffic.  The index is read on
every call but parsed once per distinct file content, so
:meth:`ModelRegistry.resolve`
-- the one "newest registered model matching these selectors" rule the
server, the router and the stream monitor share -- sees another
process's registration on its next call without re-parsing an
unchanged index.

:func:`shard_for` is the one place the ``(city, isp) -> shard`` hash
lives: the router and the sharded workers must agree on it byte for
byte.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import mmap
import os
import threading
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.bst import BSTResult
from repro.core.config import BSTConfig
from repro.core.serialize import (
    SCHEMA_VERSION,
    bst_result_from_dict,
    bst_result_to_dict,
)
from repro.market.plans import PlanCatalog
from repro.obs import metrics as obs_metrics
from repro.obs.logging import get_logger, kv
from repro.obs.runs import config_fingerprint
from repro.obs.trace import span

log = get_logger("serve.registry")

__all__ = ["ModelKey", "ModelRecord", "ModelRegistry", "shard_for"]

INDEX_SCHEMA = 1

# Sidecar format: magic, then an 8-byte little-endian header length,
# then the JSON header, then raw array bytes at the offsets the header
# names.  Bump the magic when the layout changes.
_SHARED_MAGIC = b"RPROARR1"


def shard_for(city: str, isp: str, n_shards: int) -> int:
    """The worker shard owning ``(city, isp)`` models.

    Deterministic (crc32, no ``PYTHONHASHSEED`` dependence) and shared
    by the router and every worker -- both sides must route a model to
    the same process.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    return zlib.crc32(f"{city}|{isp}".encode("utf-8")) % int(n_shards)


@dataclass(frozen=True)
class ModelKey:
    """Identity of one registered model: city, ISP, and config hash."""

    city: str
    isp: str
    config_hash: str

    @property
    def slug(self) -> str:
        return f"{self.city}|{self.isp}|{self.config_hash}"

    @classmethod
    def from_slug(cls, slug: str) -> "ModelKey":
        parts = slug.split("|")
        if len(parts) != 3:
            raise ValueError(f"malformed model key slug {slug!r}")
        return cls(city=parts[0], isp=parts[1], config_hash=parts[2])


@dataclass(frozen=True)
class ModelRecord:
    """Index entry for one registered model (JSON-able).

    Frozen because the registry hands the same parsed records to every
    caller until the index file changes.
    """

    key: ModelKey
    digest: str
    created_utc: str
    created_s: float  # epoch seconds, for staleness arithmetic
    train_size: int
    schema_version: int = SCHEMA_VERSION
    training_stats: dict[str, dict[str, float]] = field(default_factory=dict)
    # Quantized lookup table proven byte-identical on the training
    # sample at registration (None when no sample was supplied or the
    # proof failed); see repro.serve.engine.QuantizedLookup.
    lookup: dict[str, Any] | None = None

    def age_s(self, now: float | None = None) -> float:
        """Seconds since registration."""
        # lint: allow[DET002] age compares against the stored epoch stamp
        now = time.time() if now is None else now
        return max(now - self.created_s, 0.0)

    def to_dict(self) -> dict[str, Any]:
        return {
            "city": self.key.city,
            "isp": self.key.isp,
            "config_hash": self.key.config_hash,
            "digest": self.digest,
            "created_utc": self.created_utc,
            "created_s": self.created_s,
            "train_size": self.train_size,
            "schema_version": self.schema_version,
            "training_stats": self.training_stats,
            "lookup": self.lookup,
        }

    @classmethod
    def from_dict(cls, row: dict[str, Any]) -> "ModelRecord":
        try:
            return cls(
                key=ModelKey(
                    city=row["city"],
                    isp=row["isp"],
                    config_hash=row["config_hash"],
                ),
                digest=row["digest"],
                created_utc=row.get("created_utc", ""),
                created_s=float(row.get("created_s", 0.0)),
                train_size=int(row.get("train_size", 0)),
                schema_version=int(row.get("schema_version", 1)),
                training_stats=dict(row.get("training_stats", {})),
                lookup=row.get("lookup"),
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(
                f"truncated model record: missing field ({exc})"
            ) from exc


def _direction_stats(values: np.ndarray) -> dict[str, float]:
    """Training-distribution summary one direction's drift check uses."""
    values = np.asarray(values, dtype=float)
    finite = values[np.isfinite(values)]
    if finite.size == 0:
        return {}
    return {
        "n": int(finite.size),
        "mean": float(finite.mean()),
        "std": float(finite.std()),
        "p50": float(np.quantile(finite, 0.50)),
        "p95": float(np.quantile(finite, 0.95)),
    }


def _atomic_write(path: Path, data: bytes) -> None:
    """Write-then-rename so readers never observe a partial file."""
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def _pad16(n: int) -> int:
    """``n`` rounded up to a multiple of 16 (array offset alignment)."""
    return (n + 15) // 16 * 16


def _read_shared(path: Path) -> BSTResult:
    """Rehydrate a fit from its ``.arrays`` sidecar, zero-copy.

    The big int64 arrays come back as read-only views over a shared
    read-only ``mmap`` of the file; the mapping stays alive for as long
    as the views reference it (numpy holds the buffer).
    """
    with open(path, "rb") as fh:
        mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    if mm[: len(_SHARED_MAGIC)] != _SHARED_MAGIC:
        raise ValueError(f"corrupt model sidecar {path}: bad magic")
    header_len = int.from_bytes(
        mm[len(_SHARED_MAGIC) : len(_SHARED_MAGIC) + 8], "little"
    )
    header_start = len(_SHARED_MAGIC) + 8
    try:
        header = json.loads(
            mm[header_start : header_start + header_len].decode("utf-8")
        )
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"corrupt model sidecar {path}: {exc}") from exc
    if header.get("shared_schema") != 1:
        raise ValueError(
            f"unknown sidecar schema {header.get('shared_schema')!r} in "
            f"{path}; this build reads 1"
        )
    data = dict(header["dict"])
    offset = _pad16(header_start + header_len)
    for spec in header["arrays"]:
        count = int(spec["count"])
        view = np.frombuffer(
            mm, dtype=np.dtype(spec["dtype"]), count=count, offset=offset
        )
        data[spec["name"]] = view
        offset = _pad16(offset + view.nbytes)
    return bst_result_from_dict(data)


class ModelRegistry:
    """Directory-backed model store; it caches no loaded fit.

    Thread-safe: the index read-modify-write and the index parse memo
    run under one lock.  Multiple registries may point at the same root
    (e.g. a server and a batch CLI, or several workers' refit
    schedulers): the index read-modify-write also holds a ``flock`` on
    ``index.lock``, and content addressing keeps identical
    registrations idempotent.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self._lock = threading.RLock()
        # (index file bytes, records by slug) of the last parse.
        self._index_memo: tuple[bytes, dict[str, ModelRecord]] = (b"", {})

    # ------------------------------------------------------------------
    @property
    def index_path(self) -> Path:
        return self.root / "index.json"

    @property
    def objects_dir(self) -> Path:
        return self.root / "objects"

    def object_path(self, digest: str) -> Path:
        return self.objects_dir / f"{digest}.json"

    def key_for(
        self,
        city: str,
        catalog: PlanCatalog,
        config: BSTConfig | None = None,
    ) -> ModelKey:
        """The registry key for a (city, catalog, config) combination."""
        return ModelKey(
            city=str(city),
            isp=catalog.isp_name,
            config_hash=config_fingerprint(config or BSTConfig()),
        )

    # ------------------------------------------------------------------
    def register(
        self,
        key: ModelKey,
        result: BSTResult,
        downloads=None,
        uploads=None,
    ) -> ModelRecord:
        """Store a fitted model under ``key``; returns its record.

        ``downloads``/``uploads`` (the training sample, optional) feed
        the record's ``training_stats`` -- the baseline the serving
        drift check compares live traffic against -- and, when both
        are present, the quantized lookup table: compiled from the fit
        and *proven byte-identical* to the exact GMM path on the
        training sample before being persisted (a failed proof
        registers the model without a table; an unproven table is
        never stored).  Registration also writes the mmap-able
        ``.arrays`` sidecar that :meth:`load_shared` serves worker
        processes from.
        """
        payload = bst_result_to_dict(result)
        blob = json.dumps(
            payload, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        digest = hashlib.sha256(blob).hexdigest()
        training_stats: dict[str, dict[str, float]] = {}
        if downloads is not None:
            training_stats["download_mbps"] = _direction_stats(downloads)
        if uploads is not None:
            training_stats["upload_mbps"] = _direction_stats(uploads)
        record = ModelRecord(
            key=key,
            digest=digest,
            # lint: allow[DET002] registration timestamp is provenance
            created_utc=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            created_s=time.time(),  # lint: allow[DET002] provenance
            train_size=len(result),
            schema_version=SCHEMA_VERSION,
            training_stats=training_stats,
            lookup=self._build_lookup(key, result, downloads, uploads),
        )
        with span("serve.registry.register", key=key.slug) as sp:
            with self._lock:
                self.objects_dir.mkdir(parents=True, exist_ok=True)
                obj_path = self.object_path(digest)
                if not obj_path.exists():
                    _atomic_write(obj_path, blob)
                self._persist_shared(digest, payload)
                with open(self.root / "index.lock", "wb") as lock:
                    fcntl.flock(lock, fcntl.LOCK_EX)  # other processes
                    entries = self._parse_index(self._index_bytes())
                    entries[key.slug] = record.to_dict()
                    self._persist_index(entries)
            sp.set(digest=digest[:16], train_size=record.train_size)
        obs_metrics.counter("serve.registry.registered").inc()
        log.info(
            "registered model",
            extra=kv(
                key=key.slug,
                digest=digest[:16],
                train_size=record.train_size,
            ),
        )
        return record

    def lookup(self, key: ModelKey) -> ModelRecord | None:
        """The record registered under ``key``, or None."""
        with self._lock:
            return self._index_records().get(key.slug)

    def load(self, key: ModelKey) -> tuple[BSTResult, ModelRecord]:
        """Load the model registered under ``key`` from disk.

        Returns the fit and its record, read from one index parse.
        Raises ``KeyError`` when the key is unregistered and
        ``ValueError`` when the stored object is corrupt.
        """
        record = self._record(key)
        with span("serve.registry.load", key=key.slug):
            obj_path = self.object_path(record.digest)
            try:
                text = obj_path.read_text(encoding="utf-8")
            except FileNotFoundError:
                raise ValueError(
                    f"registry index references missing object "
                    f"{record.digest[:16]} for {key.slug!r}"
                ) from None
            try:
                data = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"corrupt model object {obj_path}: {exc}"
                ) from exc
            result = bst_result_from_dict(data)
        obs_metrics.counter("serve.registry.loads").inc()
        return result, record

    def load_shared(self, key: ModelKey) -> tuple[BSTResult, ModelRecord]:
        """Load via the mmap'd ``.arrays`` sidecar.

        The returned result's big per-row arrays (``group_indices``,
        ``tiers``) are read-only zero-copy views into a shared
        read-only mapping of the content-addressed sidecar file, so N
        worker processes loading the same model share one page-cache
        copy instead of each parsing the multi-megabyte JSON object.
        The sidecar is created on first use when registration predates
        it.  Raises the same errors as :meth:`load`.
        """
        record = self._record(key)
        path = self.shared_path(record.digest)
        if not path.exists():
            # Sidecar missing (registered by an older build): build it
            # from the JSON object once, then fall through to the map.
            result, _ = self.load(key)
            self._persist_shared(record.digest, bst_result_to_dict(result))
        with span("serve.registry.load_shared", key=key.slug):
            result = _read_shared(path)
        obs_metrics.counter("serve.registry.shared_loads").inc()
        return result, record

    def _record(self, key: ModelKey) -> ModelRecord:
        """``key``'s record; counts a miss and raises ``KeyError``."""
        record = self.lookup(key)
        if record is None:
            obs_metrics.counter("serve.registry.misses").inc()
            raise KeyError(f"no model registered for {key.slug!r}")
        return record

    def shared_path(self, digest: str) -> Path:
        """The mmap sidecar path for a content digest."""
        return self.objects_dir / f"{digest}.arrays"

    def _persist_shared(self, digest: str, payload: dict) -> None:
        """Write the binary sidecar for a serialized fit (idempotent).

        Content-addressed and deterministic, so concurrent writers
        race benignly: both produce identical bytes and the atomic
        rename keeps readers consistent.
        """
        path = self.shared_path(digest)
        if path.exists():
            return
        self.objects_dir.mkdir(parents=True, exist_ok=True)
        head = dict(payload)
        arrays = [
            ("group_indices", np.asarray(head.pop("group_indices"),
                                         dtype="<i8")),
            ("tiers", np.asarray(head.pop("tiers"), dtype="<i8")),
        ]
        header = {
            "shared_schema": 1,
            "dict": head,
            "arrays": [
                {"name": name, "dtype": "<i8", "count": int(arr.size)}
                for name, arr in arrays
            ],
        }
        header_bytes = json.dumps(
            header, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        buf = bytearray()
        buf += _SHARED_MAGIC
        buf += len(header_bytes).to_bytes(8, "little")
        buf += header_bytes
        buf += b" " * (_pad16(len(buf)) - len(buf))
        for _, arr in arrays:
            buf += arr.tobytes()
            buf += b"\0" * (_pad16(len(buf)) - len(buf))
        _atomic_write(path, bytes(buf))

    def _build_lookup(
        self, key: ModelKey, result: BSTResult, downloads, uploads
    ) -> dict[str, Any] | None:
        """Compile + prove the quantized table; None when not possible."""
        if downloads is None or uploads is None:
            return None
        from repro.serve.engine import QuantizedLookup, TierAssigner

        try:
            table = QuantizedLookup.build(
                TierAssigner(result), downloads, uploads
            )
        except ValueError as exc:
            log.warning(
                "quantized lookup not persisted for model",
                extra=kv(key=key.slug, reason=str(exc)),
            )
            return None
        return table.to_dict()

    def records(self) -> list[ModelRecord]:
        """Every registered model's record, sorted by key slug."""
        with self._lock:
            return list(self._index_records().values())

    def resolve(
        self,
        city: str | None = None,
        isp: str | None = None,
        config_hash: str | None = None,
        shard: tuple[int, int] | None = None,
    ) -> ModelRecord:
        """The newest registered record matching the selectors.

        ``None`` selectors match anything; ``shard`` = ``(index,
        total)`` keeps only models whose ``(city, isp)`` lands on that
        shard under :func:`shard_for`.  Ties on ``created_s`` go to the
        first key slug.  Raises ``KeyError`` when nothing matches.
        Like :meth:`records`, it reads the index on every call, so a
        registration by any process is visible on the next one.
        """
        candidates = [
            record
            for record in self.records()
            if (city is None or record.key.city == city)
            and (isp is None or record.key.isp == isp)
            and (config_hash is None or record.key.config_hash == config_hash)
            and (
                shard is None
                or shard_for(record.key.city, record.key.isp, shard[1])
                == shard[0]
            )
        ]
        if not candidates:
            raise KeyError(
                "no registered model matches "
                f"city={city!r} isp={isp!r} config_hash={config_hash!r}"
            )
        return max(candidates, key=lambda r: r.created_s)

    def models(self) -> list[dict[str, Any]]:
        """The ``GET /models`` listing: every record plus its ``age_s``."""
        return [
            {**record.to_dict(), "age_s": round(record.age_s(), 3)}
            for record in self.records()
        ]

    # ------------------------------------------------------------------
    def _index_bytes(self) -> bytes:
        try:
            return self.index_path.read_bytes()
        except FileNotFoundError:
            return b""

    def _index_records(self) -> dict[str, ModelRecord]:
        """Slug -> record for the index on disk, sorted by slug.

        Reads the file on every call; the parse is memoized on its
        exact bytes, so an unchanged index is not parsed again and a
        corrupt one raises ``ValueError`` on every call.  Call with
        ``self._lock`` held; the result is shared, do not mutate it.
        """
        raw = self._index_bytes()
        if raw != self._index_memo[0]:
            entries = self._parse_index(raw)
            self._index_memo = (
                raw,
                {
                    slug: ModelRecord.from_dict(entries[slug])
                    for slug in sorted(entries)
                },
            )
        return self._index_memo[1]

    def _parse_index(self, raw: bytes) -> dict[str, Any]:
        if not raw.strip():
            return {}
        try:
            data = json.loads(raw)
        except ValueError as exc:  # bad JSON or bad UTF-8
            raise ValueError(
                f"corrupt registry index {self.index_path}: {exc}"
            ) from exc
        if not isinstance(data, dict):
            raise ValueError(
                f"corrupt registry index {self.index_path}: expected a "
                "JSON object"
            )
        schema = data.get("index_schema", INDEX_SCHEMA)
        if schema != INDEX_SCHEMA:
            raise ValueError(
                f"unknown registry index schema {schema!r} in "
                f"{self.index_path}; this build reads {INDEX_SCHEMA}"
            )
        entries = data.get("entries", {})
        if not isinstance(entries, dict):
            raise ValueError(
                f"corrupt registry index {self.index_path}: 'entries' "
                "must be an object"
            )
        return entries

    def _persist_index(self, entries: dict[str, Any]) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        payload = {
            "index_schema": INDEX_SCHEMA,
            "entries": entries,
        }
        _atomic_write(
            self.index_path,
            json.dumps(payload, sort_keys=True, indent=2).encode("utf-8"),
        )
