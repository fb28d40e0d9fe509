"""Write-ahead log of ingest frames: durability before application.

Every ingest batch a cluster node accepts is first appended to its WAL
as a ``WALO`` codec frame (op tag + raw pre-expansion inputs, with a
CRC-32 over the body), then expanded and folded into shard state.
Replaying the file therefore reconstructs shard state bit-identically:
expansions are deterministic and superaccumulator folds are exact and
merge-order-independent, so "same records" implies "same rounded
value" — no matter how the records were interleaved across shards
before the crash or will be after replay.

Tail semantics follow the classic WAL contract:

* a *torn tail* — the file ends mid-record because the process died
  inside a write — is expected and tolerated: replay stops at the last
  complete record and reports ``truncated=True``. A header whose
  record would run past the end of the file is a torn tail too; the
  reader never allocates for bytes the file does not hold;
* corruption *before* the tail (CRC mismatch, bad magic, nonsense
  lengths with more bytes following) is not a crash artifact and
  raises :class:`~repro.errors.CodecError`.

:class:`WalWriter` is the async façade used by the node service. One
writer thread per WAL owns the log's open file descriptor: it takes
every record queued since its last fsync, writes them as one blob,
fsyncs, and resolves the whole batch's waiters with one
``loop.call_soon_threadsafe``. The event loop only creates a future
and appends to a lock-guarded list, so it never touches the file (the
CC004 discipline). Batching amortizes the fsync, which is the entire
cost of a WAL at cluster scale. The first failed write or fsync
poisons the writer: no record is ever acknowledged behind a torn one.
"""

from __future__ import annotations

import asyncio
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro import codec
from repro.errors import ServiceError

__all__ = [
    "WAL_IO", "WalRecord", "WriteAheadLog", "WalWriter", "read_wal", "iter_wal"
]

#: error code of a failed WAL write or fsync; node handles treat a
#: response carrying it as the node being down
WAL_IO = "wal-io"


@dataclass(frozen=True)
class WalRecord:
    """One durably logged ingest batch.

    Attributes:
        seq: cluster per-stream sequence number, or
            :data:`repro.codec.WAL_UNSEQUENCED` for scatter-mode
            records that carry no dedup identity.
        stream: target stream name.
        values: the float64 batch exactly as ingested: the
            *pre-expansion* inputs — replay re-runs the deterministic
            expansion, so the recovered term multiset is bit-identical
            to the original ingest.
        op: the ingest kind (``"sum"``/``"pairs"``/``"squares"``/
            ``"observations"``; see :data:`repro.codec.REDUCE_OP_CODES`).
        values2: the second input array of a ``"pairs"`` record, else
            ``None``.
    """

    seq: int
    stream: str
    values: np.ndarray
    op: str = "sum"
    values2: Optional[np.ndarray] = None

    @property
    def sequenced(self) -> bool:
        return self.seq != codec.WAL_UNSEQUENCED


def iter_wal(path: Union[str, Path]) -> Iterator[Union[WalRecord, bool]]:
    """Yield every complete record, then one ``bool``: tail-torn flag.

    The trailing flag (always the final yield) is ``True`` when the
    file ended mid-record — the signature of a crash during append.
    The file's size is taken once, when it is opened; a header whose
    record runs past it counts as that torn tail, so a garbage length
    never turns into a giant read.

    Raises:
        CodecError: corruption before the tail (CRC/magic/lengths).
        OSError: unreadable file.
    """
    with open(Path(path), "rb") as fh:
        left = os.fstat(fh.fileno()).st_size
        while left:
            if left < codec.WAL_HEADER_SIZE:
                yield True
                return
            header = fh.read(codec.WAL_HEADER_SIZE)
            total = codec.wal_record_size(header)
            if total > left:
                yield True
                return
            body = fh.read(total - codec.WAL_HEADER_SIZE)
            left -= total
            seq, stream, op, values, values2 = codec.decode_wal_record(header + body)
            yield WalRecord(
                seq=seq, stream=stream, values=values, op=op, values2=values2
            )
        yield False


def read_wal(path: Union[str, Path]) -> Tuple[List[WalRecord], bool]:
    """All complete records plus the torn-tail flag; ``([], False)``
    for a missing file (a node that never ingested has no WAL)."""
    if not Path(path).exists():
        return [], False
    records: List[WalRecord] = []
    truncated = False
    for item in iter_wal(path):
        if isinstance(item, bool):
            truncated = item
        else:
            records.append(item)
    return records, truncated


class WriteAheadLog:
    """Synchronous append-only WAL file over one open descriptor.

    All methods block; the async service reaches them only from
    :class:`WalWriter`'s thread. Useful directly in synchronous tools
    (benchmarks, forensics, tests), as a context manager that closes
    the descriptor.

    The descriptor opens on the first append and stays open until
    :meth:`close`. When that first append creates the file, the parent
    directory is fsynced once as well, so the new directory entry is
    as durable as the records behind it.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._fd: Optional[int] = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def _open(self) -> int:
        if self._fd is None:
            flags = os.O_WRONLY | os.O_CREAT | os.O_APPEND
            self.path.parent.mkdir(parents=True, exist_ok=True)
            try:
                self._fd = os.open(self.path, flags | os.O_EXCL, 0o644)
            except FileExistsError:
                self._fd = os.open(self.path, flags, 0o644)
            else:
                dir_fd = os.open(self.path.parent, os.O_RDONLY)
                try:
                    os.fsync(dir_fd)
                finally:
                    os.close(dir_fd)
        return self._fd

    def append(
        self,
        seq: int,
        stream: str,
        op: str,
        x: codec.F64Input,
        y: Optional[codec.F64Input] = None,
    ) -> int:
        """Encode, append, fsync one record; returns bytes written.

        The record carries the ingest kind ``op`` and its raw
        pre-expansion inputs; ``y`` is required for ``"pairs"`` and
        rejected otherwise — see :func:`repro.codec.encode_wal_record`.
        Inputs may be raw little-endian float64 bytes (a binary-wire
        frame body): the codec logs them verbatim, so the durability
        path never re-encodes what the network delivered.
        """
        blob = codec.encode_wal_record(seq, stream, op, x, y)
        self.append_blob(blob)
        return len(blob)

    def append_blob(self, blob: bytes) -> None:
        """Append pre-encoded record bytes and fsync (group commit)."""
        fd = self._open()
        view = memoryview(blob)
        while view:
            view = view[os.write(fd, view):]
        os.fsync(fd)

    def close(self) -> None:
        fd, self._fd = self._fd, None
        if fd is not None:
            os.close(fd)

    def replay(self) -> Tuple[List[WalRecord], bool]:
        """(records, truncated) — see :func:`read_wal`."""
        return read_wal(self.path)

    def size(self) -> int:
        return self.path.stat().st_size if self.path.exists() else 0


def _wal_io_error(message: str) -> ServiceError:
    err = ServiceError(message)
    err.code = WAL_IO
    return err


class WalWriter:
    """Async group-commit writer around :class:`WriteAheadLog`.

    ``append`` takes one record already encoded with
    :func:`repro.codec.encode_wal_record` — so a record that cannot be
    encoded fails its caller before anything is claimed or queued — and
    resolves only after the record is on disk (fsync'd), so a node acks
    an ingest only once replay is guaranteed to recover it. Appends
    that arrive while a batch is being synced all go into the next
    batch — one fsync covers them all.

    ``start`` binds the writer to the running loop; the writer thread
    itself starts on the first ``append``, so a node that never ingests
    (a cold replay, say) never starts one. ``stop`` lets the thread
    flush everything queued, close the file and exit.

    The first ``OSError`` from a write or fsync fails that batch and
    every later ``append`` with ``ServiceError(code="wal-io")``. The
    fsync is never retried: after a failed one the kernel may have
    dropped the dirty pages, and a torn write may have left a partial
    record that a later record must not land behind.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.log = WriteAheadLog(path)
        self._wake = threading.Condition(threading.Lock())
        #: (record, waiter) pairs queued since the thread's last take
        self._pending: List[Tuple[bytes, "asyncio.Future[None]"]] = []
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: why the writer is poisoned (None while healthy)
        self._failure: Optional[str] = None
        self.records_written = 0
        self.batches_written = 0

    @property
    def path(self) -> Path:
        return self.log.path

    def start(self) -> None:
        self._loop = asyncio.get_running_loop()

    async def stop(self) -> None:
        """Flush and fsync everything queued, then join the thread."""
        thread = self._thread
        with self._wake:
            self._thread = None
            self._wake.notify()
        self._loop = None
        if thread is not None:
            await asyncio.to_thread(thread.join)

    async def append(self, record: bytes) -> None:
        """Durably log one encoded record; resolves after fsync."""
        loop = self._loop
        if loop is None:
            raise RuntimeError("WalWriter is not started")
        if self._failure is not None:
            raise _wal_io_error(self._failure)
        done: "asyncio.Future[None]" = loop.create_future()
        with self._wake:
            self._pending.append((record, done))
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._run,
                    args=(loop,),
                    name=f"wal-writer {self.log.path.name}",
                    daemon=True,
                )
                self._thread.start()
            else:
                self._wake.notify()
        await done

    def _run(self, loop: asyncio.AbstractEventLoop) -> None:
        """Writer thread: take, write, fsync, resolve, until stopped."""
        me = threading.current_thread()
        try:
            while True:
                with self._wake:
                    while not self._pending and self._thread is me:
                        self._wake.wait()
                    batch, self._pending = self._pending, []
                if not batch:
                    return  # stopped, and everything queued is flushed
                if self._failure is None:
                    try:
                        self.log.append_blob(b"".join(r for r, _ in batch))
                    except BaseException as exc:
                        # Any failure poisons the log. Only an OSError
                        # is expected; anything else still fails the
                        # batch's waiters, then kills the thread loudly.
                        self._failure = f"WAL append failed: {exc}"
                        if not isinstance(exc, OSError):
                            loop.call_soon_threadsafe(
                                self._resolve, batch, self._failure
                            )
                            raise
                try:
                    loop.call_soon_threadsafe(self._resolve, batch, self._failure)
                except RuntimeError:
                    return  # the loop is closed: nobody is waiting
        finally:
            self.log.close()

    def _resolve(
        self,
        batch: List[Tuple[bytes, "asyncio.Future[None]"]],
        failure: Optional[str],
    ) -> None:
        """Loop side of one commit: count it and wake its waiters."""
        if failure is None:
            self.records_written += len(batch)
            self.batches_written += 1
        err = None if failure is None else _wal_io_error(failure)
        for _, done in batch:
            if done.done():
                continue
            if err is None:
                done.set_result(None)
            else:
                done.set_exception(err)
