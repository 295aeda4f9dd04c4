"""Execution backends: where a batch of tasks actually runs.

One protocol, two implementations:

``SerialBackend``
    In-process loop; zero overhead, the reference semantics.
``ProcessBackend``
    ``ProcessPoolExecutor`` with a per-worker initializer carrying the
    shared context; the backend that buys real speedup for the pure
    Python growth kernel.

All backends guarantee *ordered* results — ``map_ordered(fn, items)``
returns results positionally aligned with ``items`` — which is what lets
the reducer fold worker output deterministically.  Extra backends (e.g.
a cluster RPC pool) can be registered with :func:`register_backend`.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Dict, List, Optional, Protocol, Sequence, Tuple, TypeVar

from ..errors import ConfigurationError

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ProcessBackend",
    "make_backend",
    "register_backend",
    "available_backends",
    "resolve_backend_name",
]

ItemT = TypeVar("ItemT")
ResultT = TypeVar("ResultT")


class ExecutionBackend(Protocol):
    """Protocol every backend satisfies.

    Attributes
    ----------
    name:
        Registry name (``serial`` / ``process`` / custom).
    workers:
        Concurrency the backend was sized for (1 for serial).
    uses_processes:
        True when tasks run in other processes, i.e. the callable must
        be module-level and all arguments picklable, and shared context
        must travel through the initializer rather than a closure.
    """

    name: str
    workers: int
    uses_processes: bool

    def map_ordered(
        self, fn: Callable[[ItemT], ResultT], items: Sequence[ItemT]
    ) -> List[ResultT]:
        """Apply ``fn`` to every item, returning results in item order."""
        ...

    def map_ordered_batched(
        self,
        fn: Callable[[Sequence[ItemT]], List[ResultT]],
        items: Sequence[ItemT],
        chunk_size: int,
    ) -> List[ResultT]:
        """Apply a chunk function over ``items`` split into ``chunk_size`` runs.

        ``fn`` receives a contiguous sub-sequence and returns its results
        in sub-sequence order; the flattened output is positionally
        aligned with ``items``, exactly like :meth:`map_ordered`.  Pool
        backends dispatch one executor call per chunk, amortising
        per-task dispatch (and, for processes, per-task pickling)
        overhead across the chunk.
        """
        ...

    def close(self) -> None:
        """Release pooled resources; the backend may not be reused after."""
        ...


def _chunk(items: Sequence[ItemT], chunk_size: int) -> List[Sequence[ItemT]]:
    """Split ``items`` into contiguous runs of at most ``chunk_size``."""
    if chunk_size < 1:
        raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")
    return [items[i : i + chunk_size] for i in range(0, len(items), chunk_size)]


class SerialBackend:
    """Run every task inline, in submission order."""

    name = "serial"
    workers = 1
    uses_processes = False

    def __init__(
        self,
        workers: int = 1,
        initializer: Optional[Callable[..., None]] = None,
        initargs: Tuple = (),
    ) -> None:
        if initializer is not None:
            initializer(*initargs)

    def map_ordered(
        self, fn: Callable[[ItemT], ResultT], items: Sequence[ItemT]
    ) -> List[ResultT]:
        return [fn(item) for item in items]

    def map_ordered_batched(
        self,
        fn: Callable[[Sequence[ItemT]], List[ResultT]],
        items: Sequence[ItemT],
        chunk_size: int,
    ) -> List[ResultT]:
        items = list(items)
        results: List[ResultT] = []
        for chunk in _chunk(items, chunk_size):
            results.extend(fn(chunk))
        return results

    def close(self) -> None:
        pass


class ProcessBackend:
    """A process pool; the initializer ships shared context once per worker."""

    name = "process"
    uses_processes = True

    def __init__(
        self,
        workers: int,
        initializer: Optional[Callable[..., None]] = None,
        initargs: Tuple = (),
    ) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._initializer = initializer
        self._initargs = initargs
        self._executor = None

    def _ensure(self):
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=self._initializer,
                initargs=self._initargs,
            )
        return self._executor

    def map_ordered(
        self, fn: Callable[[ItemT], ResultT], items: Sequence[ItemT]
    ) -> List[ResultT]:
        items = list(items)
        if not items:
            return []
        executor = self._ensure()
        chunksize = max(1, len(items) // (self.workers * 2))
        return list(executor.map(fn, items, chunksize=chunksize))

    def map_ordered_batched(
        self,
        fn: Callable[[Sequence[ItemT]], List[ResultT]],
        items: Sequence[ItemT],
        chunk_size: int,
    ) -> List[ResultT]:
        items = list(items)
        if not items:
            return []
        executor = self._ensure()
        # Each chunk is one map item -> one future, one executor
        # dispatch, one pickle round-trip per chunk.
        chunks = _chunk(items, chunk_size)
        results: List[ResultT] = []
        for chunk_results in executor.map(fn, chunks):
            results.extend(chunk_results)
        return results

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


#: Registered backend factories, keyed by name.
_BACKENDS: Dict[str, Callable[..., ExecutionBackend]] = {
    "serial": SerialBackend,
    "process": ProcessBackend,
}


def register_backend(name: str, factory: Callable[..., ExecutionBackend]) -> None:
    """Register a custom backend factory under ``name``.

    The factory is called as ``factory(workers, initializer=..., initargs=...)``.
    """
    _BACKENDS[name] = factory


def available_backends() -> List[str]:
    """Names accepted by :func:`make_backend` (besides ``auto``)."""
    return sorted(_BACKENDS)


def resolve_backend_name(name: str, workers: int) -> str:
    """Resolve ``auto`` to a concrete backend for the given concurrency."""
    if name != "auto":
        return name
    return "serial" if workers <= 1 else "process"


def make_backend(
    name: str,
    workers: int = 1,
    initializer: Optional[Callable[..., None]] = None,
    initargs: Tuple = (),
) -> ExecutionBackend:
    """Instantiate a backend by name (``auto``/``serial``/``process``).

    ``auto`` picks ``serial`` for one worker and ``process`` otherwise.
    ``workers`` may be 0 to mean "one per CPU".
    """
    if workers == 0:
        workers = os.cpu_count() or 1
    if workers < 0:
        raise ConfigurationError(f"workers must be >= 0, got {workers}")
    resolved = resolve_backend_name(name, workers)
    try:
        factory = _BACKENDS[resolved]
    except KeyError:
        valid = ", ".join(["auto"] + available_backends())
        raise ConfigurationError(
            f"unknown execution backend {name!r}; expected one of {valid}"
        )
    return factory(workers, initializer=initializer, initargs=initargs)
