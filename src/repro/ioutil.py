"""Atomic and durable file-write helpers shared by every artifact producer.

Results files, perf snapshots, repro bundles, and the fabric result
journal are all read by *other* processes (CI artifact
uploads, resumed sweeps, ``repro-tpi replay``, ``repro-tpi
fabric-status``), so a crash mid-write must never leave a torn file
behind.  Two disciplines cover every writer:

* **whole-file atomicity** (:func:`atomic_write_text` /
  :func:`atomic_write_json`): the classic POSIX recipe — write to a
  temporary file in the same directory, flush + fsync, then
  ``os.replace`` — readers observe either the old content or the
  complete new content, never a prefix;
* **durable appends** (:func:`append_durable_line`): append-mode JSONL
  streams (the fabric journal) flush + fsync each
  record, so a committed line survives ``kill -9``; a crash can tear at
  most the line in flight, which readers tolerate
  (:func:`read_jsonl_tolerant`) and re-openers repair
  (:func:`repair_jsonl_tail`) so the next append starts on a fresh line.

Failures are structured: every helper converts the bare :class:`OSError`
the filesystem raises (ENOSPC, a vanished directory, a permission flip)
into :class:`~repro.errors.ArtifactWriteError` — after cleaning up any
temporary droppings — so callers can retry or degrade without pattern-
matching errno out of a string.  For tests, :func:`inject_faults`
installs a deterministic fault hook that makes any write step fail on
purpose (the fabric chaos campaign uses it to inject ENOSPC on journal
commits).
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
from pathlib import Path
from typing import Callable, Iterator, List, Optional, TextIO, Tuple, Union

from .errors import ArtifactWriteError

__all__ = [
    "atomic_write_text",
    "atomic_write_json",
    "atomic_replace_dir",
    "append_durable_line",
    "repair_jsonl_tail",
    "read_jsonl_tolerant",
    "set_fault_hook",
    "inject_faults",
]

#: Test-only fault-injection hook.  When set, every write step calls it
#: with ``(op, path)`` *before* touching the filesystem; the hook raises
#: an :class:`OSError` to simulate that step failing (ENOSPC, EIO, ...).
#: ``None`` (production) costs one attribute load per step.
_FAULT_HOOK: Optional[Callable[[str, Path], None]] = None
_FAULT_LOCK = threading.Lock()


def set_fault_hook(
    hook: Optional[Callable[[str, Path], None]],
) -> Optional[Callable[[str, Path], None]]:
    """Install (or clear, with ``None``) the write fault hook; returns
    the previous hook so callers can restore it."""
    global _FAULT_HOOK
    with _FAULT_LOCK:
        previous = _FAULT_HOOK
        _FAULT_HOOK = hook
    return previous


@contextlib.contextmanager
def inject_faults(hook: Callable[[str, Path], None]) -> Iterator[None]:
    """Context manager: run the body with ``hook`` as the fault hook.

    The hook receives ``(op, path)`` for every write step — ``op`` is one
    of ``"write"``, ``"fsync"``, ``"replace"``, ``"append"`` — and raises
    :class:`OSError` to make that step fail.  The previous hook is
    restored on exit, even on error.
    """
    previous = set_fault_hook(hook)
    try:
        yield
    finally:
        set_fault_hook(previous)


def _check_fault(op: str, path: Path) -> None:
    hook = _FAULT_HOOK
    if hook is not None:
        hook(op, path)


def _wrap_os_error(op: str, path: Path, exc: OSError) -> ArtifactWriteError:
    return ArtifactWriteError(
        op, str(path), str(exc), errno=getattr(exc, "errno", None)
    )


def atomic_write_text(
    path: Union[str, Path], text: str, encoding: str = "utf-8"
) -> Path:
    """Write ``text`` to ``path`` atomically (tmp file + ``os.replace``).

    On any filesystem failure the temporary file is removed (best
    effort) and a structured :class:`~repro.errors.ArtifactWriteError`
    is raised — the destination is untouched either way.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp.{os.getpid()}")
    op = "write"
    try:
        try:
            _check_fault("write", path)
            with tmp.open("w", encoding=encoding) as handle:
                handle.write(text)
                handle.flush()
                op = "fsync"
                _check_fault("fsync", path)
                os.fsync(handle.fileno())
            op = "replace"
            _check_fault("replace", path)
            os.replace(tmp, path)
        except OSError as exc:
            raise _wrap_os_error(op, path, exc) from exc
    finally:
        # Replace failed or never ran: leave no droppings.  Cleanup
        # itself failing (e.g. the directory vanished) must not mask
        # the original error.
        with contextlib.suppress(OSError):
            if tmp.exists():
                tmp.unlink()
    return path


def atomic_write_json(
    path: Union[str, Path],
    payload: object,
    indent: int = 2,
    sort_keys: bool = True,
    default=None,
) -> Path:
    """Serialize ``payload`` as JSON and write it atomically to ``path``."""
    text = json.dumps(
        payload, indent=indent, sort_keys=sort_keys, default=default
    )
    return atomic_write_text(path, text + "\n")


def append_durable_line(
    handle: TextIO, line: str, path: Union[str, Path]
) -> None:
    """Append one newline-terminated record durably (write+flush+fsync).

    ``handle`` must be an append-mode text handle on ``path`` (the path
    is only used for fault attribution and error messages).  ``line``
    must not itself contain newlines — one call is one record.  After
    this returns the record survives ``kill -9``; if it raises
    (:class:`~repro.errors.ArtifactWriteError`), the record may be torn
    or absent and the caller must treat it as *not written* — tolerant
    readers skip the partial line and :func:`repair_jsonl_tail` restores
    append alignment on the next open.
    """
    if "\n" in line:
        raise ValueError("a durable record must be a single line")
    path = Path(path)
    try:
        _check_fault("append", path)
        handle.write(line + "\n")
        handle.flush()
        os.fsync(handle.fileno())
    except OSError as exc:
        raise _wrap_os_error("append", path, exc) from exc


def repair_jsonl_tail(path: Union[str, Path]) -> bool:
    """Ensure an append-mode JSONL file ends on a line boundary.

    A writer killed mid-append can leave a final line without its
    newline; appending the next record would then concatenate two
    records into one corrupt line.  Called before re-opening a journal
    for append: if the file exists, is non-empty, and does not end in
    ``\\n``, a newline is appended (the torn fragment becomes its own
    undecodable line, which tolerant readers already skip).  Returns
    True when a repair was made.

    Missing and zero-length files need no repair and return False — the
    size is measured on the open handle (not stat-then-seek), so a file
    shrinking between checks can never turn into a seek error.  A
    whitespace-only tail (e.g. a lone space) is still a tail without a
    newline and is terminated like any other torn fragment.
    """
    path = Path(path)
    try:
        try:
            handle = path.open("rb")
        except FileNotFoundError:
            return False
        with handle:
            size = handle.seek(0, os.SEEK_END)
            if size == 0:
                return False
            handle.seek(size - 1)
            last = handle.read(1)
        if last == b"\n":
            return False
        _check_fault("append", path)
        with path.open("ab") as handle:
            handle.write(b"\n")
            handle.flush()
            os.fsync(handle.fileno())
        return True
    except OSError as exc:
        raise _wrap_os_error("append", path, exc) from exc


def read_jsonl_tolerant(
    path: Union[str, Path],
) -> Tuple[List[dict], List[str], List[str]]:
    """Read a JSONL file, tolerating torn/corrupt lines.

    Returns ``(records, good_lines, bad_lines)``: every line that decodes
    to a JSON object becomes a record (its raw text preserved in
    ``good_lines``, index-aligned); every line that fails to decode — the
    torn final line of a killed writer, a disk-corrupted middle line, a
    non-object — lands verbatim in ``bad_lines``.  Callers decide what to
    do with the casualties: the fabric journal and trace loaders count
    them.
    """
    records: List[dict] = []
    good: List[str] = []
    bad: List[str] = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        try:
            record = json.loads(stripped)
        except json.JSONDecodeError:
            bad.append(line)
            continue
        if not isinstance(record, dict):
            bad.append(line)
            continue
        records.append(record)
        good.append(line)
    return records, good, bad


def atomic_replace_dir(tmp_dir: Union[str, Path], final_dir: Union[str, Path]) -> Path:
    """Move a fully-written ``tmp_dir`` into place as ``final_dir``.

    Uses ``os.rename`` so the directory appears atomically.  If
    ``final_dir`` already exists (an identical bundle was written by a
    concurrent process — bundle names are content-addressed), the new
    copy is discarded and the existing directory wins.
    """
    tmp_dir, final_dir = Path(tmp_dir), Path(final_dir)
    try:
        os.rename(tmp_dir, final_dir)
    except OSError:
        if final_dir.is_dir():  # lost the race to an identical writer
            import shutil

            shutil.rmtree(tmp_dir, ignore_errors=True)
        else:
            raise
    return final_dir
