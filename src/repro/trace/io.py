"""Reading and writing traces in the classic ``din`` text format.

The ``din`` format (used by the dinero simulators that are contemporaries
of the paper) is one reference per line::

    <label> <hex address>

with labels ``0`` = data read, ``1`` = data write, ``2`` = instruction
fetch.  Blank lines and ``#`` comments are ignored on input.  Paths
ending in ``.gz`` are transparently (de)compressed — long traces are
very repetitive text and compress ~20x.
"""

from __future__ import annotations

import gzip
import io as _io
import re
import zlib
from pathlib import Path
from typing import IO, Union

from .reference import RefKind
from .trace import Trace, TraceBuilder

#: din label -> RefKind
_DIN_TO_KIND = {
    0: RefKind.LOAD,
    1: RefKind.STORE,
    2: RefKind.IFETCH,
}

#: RefKind -> din label
_KIND_TO_DIN = {kind: label for label, kind in _DIN_TO_KIND.items()}

#: Strict din token grammars.  ``int(...)`` alone is too permissive: it
#: accepts ``0x``/sign prefixes, surrounding whitespace, and ``_``
#: digit separators, none of which the din format allows.
_LABEL_RE = re.compile(r"[0-9]+\Z")
_ADDR_RE = re.compile(r"[0-9a-fA-F]+\Z")

PathOrFile = Union[str, Path, IO[str]]


def _open_for_read(source: PathOrFile) -> "tuple[IO[str], bool]":
    if isinstance(source, (str, Path)):
        if str(source).endswith(".gz"):
            return gzip.open(source, "rt", encoding="ascii"), True
        return open(source, "r", encoding="ascii"), True
    return source, False


def _open_for_write(target: PathOrFile) -> "tuple[IO[str], bool]":
    if isinstance(target, (str, Path)):
        if str(target).endswith(".gz"):
            return gzip.open(target, "wt", encoding="ascii"), True
        return open(target, "w", encoding="ascii"), True
    return target, False


def save_din(trace: Trace, target: PathOrFile) -> None:
    """Write ``trace`` to ``target`` (path or text file object) as din."""
    handle, owned = _open_for_write(target)
    try:
        write = handle.write
        for addr, kind in trace.pairs():
            write(f"{_KIND_TO_DIN[RefKind(kind)]} {addr:x}\n")
    finally:
        if owned:
            handle.close()


def load_din(source: PathOrFile, name: str = "") -> Trace:
    """Read a din-format trace from ``source`` (path or text file object).

    Raises :class:`ValueError` on malformed lines (including
    ``0x``-prefixed, sign-prefixed, or ``_``-separated tokens, which
    the din format does not allow, and addresses wider than 64 bits),
    unknown labels, and corrupt gzip input.
    """
    handle, owned = _open_for_read(source)
    builder = TraceBuilder()
    try:
        try:
            for lineno, line in enumerate(handle, start=1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                parts = stripped.split()
                if len(parts) != 2:
                    raise ValueError(
                        f"line {lineno}: expected '<label> <hexaddr>', got {stripped!r}"
                    )
                if not _LABEL_RE.match(parts[0]):
                    raise ValueError(
                        f"line {lineno}: malformed din label {parts[0]!r} "
                        f"(expected a bare decimal integer)"
                    )
                if not _ADDR_RE.match(parts[1]):
                    raise ValueError(
                        f"line {lineno}: malformed address {parts[1]!r} "
                        f"(expected bare hex digits, no 0x prefix or sign)"
                    )
                label = int(parts[0])
                if label not in _DIN_TO_KIND:
                    raise ValueError(f"line {lineno}: unknown din label {label}")
                addr = int(parts[1], 16)
                if addr >= 1 << 64:
                    raise ValueError(
                        f"line {lineno}: address {parts[1]!r} does not fit "
                        f"in 64 bits"
                    )
                builder.append(addr, _DIN_TO_KIND[label])
        except (gzip.BadGzipFile, EOFError, zlib.error) as exc:
            # BadGzipFile covers a wrong magic number, but a *truncated*
            # stream (the common half-written crash artifact) surfaces
            # as EOFError and corrupt deflate data as zlib.error; all
            # three are "corrupt gzip input" to the documented contract.
            raise ValueError(f"{source}: corrupt gzip trace ({exc})") from exc
    finally:
        if owned:
            handle.close()
    return builder.build(name=name)


def dumps_din(trace: Trace) -> str:
    """Return the din text for ``trace`` as a string."""
    buffer = _io.StringIO()
    save_din(trace, buffer)
    return buffer.getvalue()


def loads_din(text: str, name: str = "") -> Trace:
    """Parse din text into a :class:`Trace`."""
    return load_din(_io.StringIO(text), name=name)
