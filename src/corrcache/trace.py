"""Request-trace data model and on-disk text format.

A trace is an ordered sequence of (time, client, object, version) request
events plus a catalog giving the size of every identity the events may
reference.  Events are kept in parallel numpy arrays so multi-million-event
traces stay cheap to generate, sort, and scan.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

# Array sentinel for "no version".  On disk it is written as "-".
NO_VERSION = -1

# Identity keys pack (object_id, version) into one int: id << 8 | (version+1).
_VERSION_BITS = 8
_VERSION_SPAN = 1 << _VERSION_BITS


class TraceFormatError(ValueError):
    """A trace file (or in-memory trace) violates the format rules."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def pack_key(object_id: int, version: int | None) -> int:
    """Pack an identity into a single int key (used by the cache engine)."""
    v = NO_VERSION if version is None else int(version)
    if not -1 <= v < _VERSION_SPAN - 1:
        raise ValueError(f"version {v} out of range")
    return (int(object_id) << _VERSION_BITS) | (v + 1)


def unpack_key(key: int) -> tuple[int, int | None]:
    v = (key & (_VERSION_SPAN - 1)) - 1
    return key >> _VERSION_BITS, (None if v == NO_VERSION else v)


class ObjectCatalog:
    """Maps identities to positive sizes (abstract units).

    The sorted identity list and the `size_arrays()` pair are built on first
    use and kept until the next `add`.
    """

    def __init__(self, sizes: Mapping[tuple[int, int | None], float] | None = None):
        self._sizes: dict[tuple[int, int | None], float] = {}
        self._sorted: list[tuple[int, int | None]] | None = None
        self._arrays: tuple[np.ndarray, np.ndarray] | None = None
        if sizes:
            for (oid, ver), s in sizes.items():
                self.add(oid, s, ver)

    def add(self, object_id: int, size: float, version: int | None = None) -> None:
        size = float(size)
        if not size > 0:
            raise ValueError(f"object ({object_id}, {version}) size must be > 0, got {size}")
        self._sizes[(int(object_id), version)] = size
        self._sorted = self._arrays = None

    def size(self, object_id: int, version: int | None = None) -> float:
        return self._sizes[(object_id, version)]

    def __contains__(self, identity: tuple[int, int | None]) -> bool:
        return identity in self._sizes

    def __len__(self) -> int:
        return len(self._sizes)

    def __eq__(self, other) -> bool:
        return isinstance(other, ObjectCatalog) and self._sizes == other._sizes

    def identities(self) -> list[tuple[int, int | None]]:
        if self._sorted is None:
            self._sorted = sorted(
                self._sizes, key=lambda iv: (iv[0], -1 if iv[1] is None else iv[1])
            )
        return list(self._sorted)

    def total_volume(self) -> float:
        """Sum of sizes over all catalogued identities."""
        return float(sum(self._sizes.values()))

    def unit_sized(self) -> bool:
        """True when every identity has the same size."""
        vals = set(self._sizes.values())
        return len(vals) <= 1

    def size_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (keys, sizes) arrays in ascending key order, aligned for
        vectorized lookups."""
        if self._arrays is None:
            idents = self.identities()
            keys = np.array([pack_key(o, v) for o, v in idents], dtype=np.int64)
            sizes = np.array([self._sizes[iv] for iv in idents], dtype=np.float64)
            keys.flags.writeable = sizes.flags.writeable = False
            self._arrays = keys, sizes
        return self._arrays


class Trace:
    """An event sequence plus its object catalog and free-form metadata.

    Canonical event order is ascending (time, client, object_id); generators
    and the reader keep traces in that order, `validate_trace` checks it.
    """

    def __init__(
        self,
        times: np.ndarray,
        clients: np.ndarray,
        objects: np.ndarray,
        versions: np.ndarray | None,
        catalog: ObjectCatalog,
        meta: dict[str, str] | None = None,
    ):
        n = len(times)
        self.times = np.asarray(times, dtype=np.float64)
        self.clients = np.asarray(clients, dtype=np.int64)
        self.objects = np.asarray(objects, dtype=np.int64)
        if versions is None:
            versions = np.full(n, NO_VERSION, dtype=np.int64)
        self.versions = np.asarray(versions, dtype=np.int64)
        if not (len(self.clients) == len(self.objects) == len(self.versions) == n):
            raise ValueError("event arrays must have equal length")
        self.catalog = catalog
        self.meta = dict(meta or {})

    def __len__(self) -> int:
        return len(self.times)

    def sort_events(self) -> None:
        """Re-establish canonical (time, client, object) order in place."""
        order = np.lexsort((self.objects, self.clients, self.times))
        self.times = self.times[order]
        self.clients = self.clients[order]
        self.objects = self.objects[order]
        self.versions = self.versions[order]

    def is_sorted(self) -> bool:
        t, c, o = self.times, self.clients, self.objects
        if len(t) < 2:
            return True
        dt = np.diff(t)
        if (dt < 0).any():
            return False
        eq_t = dt == 0
        if not eq_t.any():
            return True
        dc = np.diff(c)
        if (eq_t & (dc < 0)).any():
            return False
        eq_tc = eq_t & (dc == 0)
        return not (eq_tc & (np.diff(o) < 0)).any()

    def identity_keys(self) -> np.ndarray:
        """Packed int identity per event (see pack_key)."""
        return (self.objects << _VERSION_BITS) | (self.versions + 1)


@dataclass
class ValidationReport:
    ok: bool
    violations: list[str] = field(default_factory=list)


def validate_trace(trace: Trace, max_violations: int = 20) -> ValidationReport:
    """Check ordering, time sanity, and catalog coverage.

    Returns a report listing up to `max_violations` problems instead of
    raising, so callers can show several issues at once.
    """
    problems: list[str] = []

    if len(trace) and not np.isfinite(trace.times).all():
        bad = int(np.flatnonzero(~np.isfinite(trace.times))[0])
        problems.append(f"event {bad}: non-finite time")
    elif len(trace) and trace.times[0] < 0:
        problems.append(f"event 0: negative time {trace.times[0]}")

    if len(trace) and (trace.clients < 1).any():
        bad = int(np.flatnonzero(trace.clients < 1)[0])
        problems.append(f"event {bad}: client id {int(trace.clients[bad])} below 1")

    if len(trace) and (trace.objects < 1).any():
        bad = int(np.flatnonzero(trace.objects < 1)[0])
        problems.append(f"event {bad}: object id {int(trace.objects[bad])} below 1")

    if len(trace) > 1:
        dt = np.diff(trace.times)
        dc = np.diff(trace.clients)
        do = np.diff(trace.objects)
        out_of_order = (dt < 0) | ((dt == 0) & ((dc < 0) | ((dc == 0) & (do < 0))))
        if out_of_order.any():
            bad = int(np.flatnonzero(out_of_order)[0]) + 1
            problems.append(f"unsorted at index {bad}")

    # catalog coverage: every referenced identity needs a size
    if len(trace):
        keys = trace.identity_keys()
        try:
            cat_keys, _ = trace.catalog.size_arrays()
        except (ValueError, OverflowError) as exc:
            problems.append(f"catalog: {exc}")
        else:
            unknown = np.unique(keys[~np.isin(keys, cat_keys)])
            # at least one, so that `ok` is False whatever the cap
            for key in unknown[: max(max_violations, 1)].tolist():
                oid, ver = unpack_key(key)
                problems.append(f"unknown object ({oid}, {ver}): referenced but not in catalog")

    return ValidationReport(ok=not problems, violations=problems[:max_violations])


@dataclass
class TraceStats:
    num_events: int
    num_clients: int
    distinct_objects: int
    distinct_identities: int
    time_span: tuple[float, float]
    footprint_volume: float
    catalog_volume: float
    events_per_client: dict[int, int]


def trace_stats(trace: Trace) -> TraceStats:
    """Summary counts used by the harness and by sanity tests."""
    if len(trace) == 0:
        return TraceStats(0, 0, 0, 0, (0.0, 0.0), 0.0, trace.catalog.total_volume(), {})
    keys = np.unique(trace.identity_keys())
    objs = np.unique(trace.objects)
    clients, counts = np.unique(trace.clients, return_counts=True)
    fp_volume = 0.0
    for key in keys.tolist():
        oid, ver = unpack_key(key)
        fp_volume += trace.catalog.size(oid, ver)
    return TraceStats(
        num_events=len(trace),
        num_clients=len(clients),
        distinct_objects=len(objs),
        distinct_identities=len(keys),
        time_span=(float(trace.times[0]), float(trace.times.max())),
        footprint_volume=fp_volume,
        catalog_volume=trace.catalog.total_volume(),
        events_per_client={int(c): int(n) for c, n in zip(clients, counts)},
    )


def _fmt_float(x: float) -> str:
    # repr() of a Python float is the shortest string that round-trips.
    return repr(float(x))


def _fmt_version(v: int) -> str:
    return "-" if v == NO_VERSION else str(v)


def write_trace(trace: Trace, path_or_file) -> None:
    """Write the text format: #meta lines, #obj catalog lines, event lines."""
    own = isinstance(path_or_file, (str, os.PathLike))
    f = open(path_or_file, "w", encoding="utf-8", newline="\n") if own else path_or_file
    try:
        for k, v in trace.meta.items():
            if "\n" in str(k) or "\n" in str(v) or "=" in str(k):
                raise TraceFormatError(f"meta key/value not representable: {k!r}={v!r}")
            f.write(f"#meta {k}={v}\n")
        for oid, ver in trace.catalog.identities():
            vtxt = "-" if ver is None else str(ver)
            f.write(f"#obj {oid} {vtxt} {_fmt_float(trace.catalog.size(oid, ver))}\n")
        times = trace.times.tolist()
        clients = trace.clients.tolist()
        objects = trace.objects.tolist()
        versions = trace.versions.tolist()
        write = f.write
        for t, c, o, v in zip(times, clients, objects, versions):
            write(f"{_fmt_float(t)} {c} {o} {_fmt_version(v)}\n")
    finally:
        if own:
            f.close()


def read_trace(path_or_file) -> Trace:
    """Parse the text format written by write_trace (round-trip identity).

    The leading #meta/#obj lines go through the line loop `_read_lines`; the
    event lines after them are parsed in blocks of whole lines.  When a block
    is not plain `write_trace` output (see `_plain_block`) or does not
    convert, the whole text is parsed again by `_read_lines`, which alone
    reports `TraceFormatError`s and their line numbers.
    """
    if isinstance(path_or_file, (str, os.PathLike)):
        with open(path_or_file, "r", encoding="utf-8") as f:
            text = f.read()
    else:
        text = path_or_file.read()
    body = 0
    while text.startswith("#", body):
        body = text.find("\n", body) + 1
        if body == 0:
            body = len(text)
    head = _read_lines(text[:body])
    columns = _parse_event_blocks(text, body)
    if columns is None:
        return _read_lines(text)
    return Trace(*columns, head.catalog, head.meta)


# Event text is cut into blocks of about this many characters, so that only
# one block's tokens are held as Python strings at a time.
_BLOCK_CHARS = 1 << 16

# Per line: three spaces, then the newline.
_LINE_SEPARATORS = np.array([ord(" ")] * 3 + [ord("\n")], dtype=np.uint8)


def _parse_event_blocks(text: str, start: int) -> tuple[np.ndarray, ...] | None:
    """(times, clients, objects, versions) of the event lines in
    ``text[start:]``, or None when a block needs the line loop.

    The columns are allocated once, one row per line, and filled block by
    block, so no block's arrays outlive it.
    """
    rows = text.count("\n", start) + (start < len(text) and not text.endswith("\n"))
    columns = (np.empty(rows, np.float64),) + tuple(np.empty(rows, np.int64) for _ in range(3))
    row = 0
    while start < len(text):
        end = text.find("\n", start + _BLOCK_CHARS - 1) + 1 or len(text)
        block = text[start:end]
        if not block.endswith("\n"):
            block += "\n"
        parsed = _parse_block(block)
        if parsed is None:
            return None
        n = len(parsed[0])
        for column, values in zip(columns, parsed):
            column[row : row + n] = values
        row += n
        start = end
    return columns


def _parse_block(block: str) -> tuple[np.ndarray, ...] | None:
    """The four columns of one block, or None when it needs the line loop."""
    if not _plain_block(block):
        return None
    tokens = block.split()
    versions = tokens[3::4]
    dashes = versions.count("-")
    try:
        times = np.array(tokens[0::4], dtype=np.float64)
        clients = np.array(tokens[1::4], dtype=np.int64)
        objects = np.array(tokens[2::4], dtype=np.int64)
        if dashes == len(versions):
            versions = np.full(len(versions), NO_VERSION, dtype=np.int64)
        else:
            if dashes:
                versions = [NO_VERSION if v == "-" else v for v in versions]
            versions = np.array(versions, dtype=np.int64)
    except (ValueError, OverflowError):
        # numpy converts each token with int()/float(), like the line loop,
        # which reports the failure with its line number
        return None
    return times, clients, objects, versions


def _plain_block(block: str) -> bool:
    """True when every line of `block` is four non-empty fields separated by
    single spaces and ended by a newline, with no other whitespace, no other
    control character, no non-ASCII character and no '#'."""
    if not block.endswith("\n") or "#" in block or not block.isascii():
        return False
    chars = np.frombuffer(block.encode("ascii"), dtype=np.uint8)
    # spaces, newlines and every other control character
    seps = np.flatnonzero(chars <= ord(" "))
    if len(seps) % 4:
        return False
    if not (chars[seps].reshape(-1, 4) == _LINE_SEPARATORS).all():
        return False
    # no empty field: no two separators in a row, none at the start
    return bool((np.diff(seps, prepend=-1) > 1).all())


def _read_lines(text: str) -> Trace:
    """The line-by-line parser: the reference for `read_trace`, and the only
    source of its `TraceFormatError`s."""
    meta: dict[str, str] = {}
    catalog = ObjectCatalog()
    times: list[float] = []
    clients: list[int] = []
    objects: list[int] = []
    versions: list[int] = []
    for lineno, raw in enumerate(io.StringIO(text), start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        if line.startswith("#meta "):
            body = line[len("#meta "):]
            if "=" not in body:
                raise TraceFormatError("malformed #meta line (missing '=')", lineno)
            k, v = body.split("=", 1)
            meta[k] = v
            continue
        if line.startswith("#obj "):
            parts = line.split()
            if len(parts) != 4:
                raise TraceFormatError("malformed #obj line", lineno)
            _, oid_s, ver_s, size_s = parts
            try:
                ver = None if ver_s == "-" else int(ver_s)
                catalog.add(int(oid_s), float(size_s), ver)
            except ValueError as exc:
                raise TraceFormatError(str(exc), lineno) from exc
            continue
        if line.startswith("#"):
            raise TraceFormatError(f"unknown directive {line.split()[0]!r}", lineno)
        parts = line.split()
        if len(parts) != 4:
            raise TraceFormatError(
                f"event line needs 4 fields (time client object version), got {len(parts)}",
                lineno,
            )
        t_s, c_s, o_s, v_s = parts
        try:
            times.append(float(t_s))
            clients.append(int(c_s))
            objects.append(int(o_s))
            versions.append(NO_VERSION if v_s == "-" else int(v_s))
        except ValueError as exc:
            raise TraceFormatError(str(exc), lineno) from exc
    return Trace(
        np.array(times, dtype=np.float64),
        np.array(clients, dtype=np.int64),
        np.array(objects, dtype=np.int64),
        np.array(versions, dtype=np.int64),
        catalog,
        meta,
    )


def trace_to_string(trace: Trace) -> str:
    buf = io.StringIO()
    write_trace(trace, buf)
    return buf.getvalue()
