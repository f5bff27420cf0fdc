"""On-disk keyed ``.npz`` store for expensive deterministic computations.

Classifier weights, prescreen bad-rate vectors and whole rollouts are
deterministic functions of their configuration.  :class:`ArtifactCache`
stores them as ``.npz`` entries keyed by :func:`config_hash` of a key
document (embedded in the entry, so it can be re-hashed later); the
rollout store :class:`repro.cache.RolloutCache` is its sharded
subclass, and a store's namespaces (``prescreen/``) are flat stores in
subdirectories of its root.  :func:`atomic_write` is the package's one
temp-file + rename writer.

Set the environment variable ``REPRO_NO_CACHE=1`` to bypass every
store, or ``REPRO_CACHE_DIR`` to relocate the default root.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
import zipfile
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import IO, Any, Callable, Dict, Iterator, List, Optional, Union

import numpy as np

__all__ = ["ArtifactCache", "atomic_write", "config_hash", "default_cache_dir"]

#: Orphaned ``*.npz.tmp`` files older than this are swept on store();
#: young ones may belong to a concurrent writer mid-flight.
_STALE_TMP_AGE_S = 3600.0

#: What reading a corrupt or truncated ``.npz`` entry may raise; every
#: one of them makes the entry a miss.
_LOAD_ERRORS = (OSError, ValueError, KeyError, zipfile.BadZipFile)

#: Archive member holding the canonical JSON of an entry's key document.
_KEY_MEMBER = "cache_key_json"


def default_cache_dir() -> Path:
    """Return the cache root (``$REPRO_CACHE_DIR`` or ``~/.cache/repro``)."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


def config_hash(config: Dict[str, Any]) -> str:
    """Hash a JSON-serializable config dict to a stable hex digest."""
    blob = _canonical_json(config)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:24]


def _canonical_json(config: Dict[str, Any]) -> str:
    return json.dumps(config, sort_keys=True, default=_jsonify)


def _jsonify(obj: Any) -> Any:
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if hasattr(obj, "to_config"):
        return obj.to_config()
    raise TypeError(f"not JSON-serializable: {type(obj)!r}")


@contextmanager
def atomic_write(path: Union[str, Path], mode: str = "wb") -> Iterator[IO]:
    """Open a temp file beside *path*; move it over *path* on success.

    The final :func:`os.replace` is an atomic rename, so readers and
    concurrent writers only ever see whole files (the last rename
    wins).  If the block raises, the temp file is removed and the
    target keeps its previous bytes.  Text modes write UTF-8.
    """
    target = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=target.parent, suffix=f"{target.suffix}.tmp"
    )
    try:
        encoding = None if "b" in mode else "utf-8"
        with os.fdopen(fd, mode, encoding=encoding) as handle:
            yield handle
        os.replace(tmp_name, target)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp_name)
        raise


class ArtifactCache:
    """Keyed store of ``.npz`` entries under one root directory.

    Entries are flat under the root here and hash-prefix sharded in
    subclasses that raise ``_shards``.  Any error in ``_LOAD_ERRORS``
    makes a load a miss; a hit refreshes the entry's mtime (LRU order).
    Stores are atomic and sweep stale temp files of dead writers.

    Parameters
    ----------
    root:
        Store directory, e.g. ``default_cache_dir() / "classifiers"``.
    enabled:
        Force-enable/disable; defaults to honouring ``REPRO_NO_CACHE``.
    """

    #: Hash-prefix directory levels between the root and an entry.
    _shards = 0

    def __init__(self, root: Union[str, Path], *, enabled: Optional[bool] = None):
        if enabled is None:
            enabled = os.environ.get("REPRO_NO_CACHE", "0") != "1"
        self.root = Path(root)
        self.enabled = enabled

    def path_for(self, key: str) -> Path:
        """Entry path for a content address."""
        shards = [key[2 * i : 2 * i + 2] for i in range(self._shards)]
        return self.root.joinpath(*shards, f"{key}.npz")

    def entries(self) -> List[Path]:
        """Every entry under the root (namespaces included), sorted."""
        return sorted(self._files(".npz"))

    def _files(self, suffix: str) -> Iterator[Path]:
        """Files under the root whose names end in *suffix*."""
        for directory, _, names in os.walk(self.root):
            for name in names:
                if name.endswith(suffix):
                    yield Path(directory, name)

    def total_bytes(self) -> int:
        """Bytes currently held by the store (0 if the root is absent)."""
        total = 0
        for path in self.entries():
            try:
                total += path.stat().st_size
            except OSError:
                continue
        return total

    def load(self, config: Dict[str, Any]) -> Optional[Dict[str, np.ndarray]]:
        """Return the cached arrays for *config*, or ``None`` on a miss."""
        if not self.enabled:
            return None
        return self._get(config, _read_arrays)

    def store(self, config: Dict[str, Any], arrays: Dict[str, np.ndarray]) -> Path:
        """Atomically persist *arrays* under the hash of *config*."""
        if not self.enabled:
            return self.path_for(config_hash(config))

        def write(path: Path, extra: Dict[str, str]) -> None:
            with atomic_write(path) as handle:
                np.savez(handle, **arrays, **extra)

        return self._put(config, write)

    def _get(self, config: Dict[str, Any], read: Callable[[Path], Any]) -> Any:
        """``read(entry path)`` for *config*; ``None`` if absent or unreadable."""
        path = self.path_for(config_hash(config))
        try:
            value = read(path)
        except _LOAD_ERRORS:
            return None
        with suppress(OSError):
            os.utime(path)
        return value

    def _put(
        self,
        config: Dict[str, Any],
        write: Callable[[Path, Dict[str, str]], None],
    ) -> Path:
        """Write *config*'s entry with ``write(path, extra)``; return the path.

        *write* must go through :func:`atomic_write` and add the
        ``extra`` member (the key document's JSON) to the archive.
        """
        path = self.path_for(config_hash(config))
        path.parent.mkdir(parents=True, exist_ok=True)
        self._sweep_tmp(max_age_s=_STALE_TMP_AGE_S)
        write(path, {_KEY_MEMBER: _canonical_json(config)})
        return path

    def clear(self) -> int:
        """Delete every entry and temp file under the root; count the entries."""
        removed = 0
        for path in self.entries():
            try:
                path.unlink()
            except OSError:
                continue
            removed += 1
        self._sweep_tmp(max_age_s=0.0)
        return removed

    def _sweep_tmp(self, max_age_s: float) -> None:
        """Unlink ``*.npz.tmp`` files under the root older than *max_age_s*."""
        now = time.time()
        for tmp in self._files(".npz.tmp"):
            # OSError: raced with a concurrent writer finishing its
            # rename (or another sweep); the file is gone either way.
            with suppress(OSError):
                if now - tmp.stat().st_mtime >= max_age_s:
                    tmp.unlink()


def _read_arrays(path: Path) -> Dict[str, np.ndarray]:
    with np.load(path, allow_pickle=False) as data:
        return {name: data[name] for name in data.files if name != _KEY_MEMBER}

