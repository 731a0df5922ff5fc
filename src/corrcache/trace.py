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
# Ids outside the half-open ranges below would collide.  The client range
# keeps client << _KEY_BITS | key inside an int64, and with it the engine's
# per-pair codes (client - least client) * catalog size + catalog rank.
_VERSION_BITS = 8
_VERSION_SPAN = 1 << _VERSION_BITS
_OBJECT_BITS = 32
_KEY_BITS = _OBJECT_BITS + _VERSION_BITS
_OBJECT_RANGE = (1, 1 << _OBJECT_BITS)
_CLIENT_RANGE = (1, 1 << (63 - _KEY_BITS))
_VERSION_RANGE = (NO_VERSION, _VERSION_SPAN - 1)

# A catalog ranks through a dense table while that holds at most this many
# slots per identity (see ObjectCatalog._ranks).
_RANK_TABLE_FILL = 4


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
    if not _VERSION_RANGE[0] <= v < _VERSION_RANGE[1]:
        raise ValueError(f"version {v} out of range")
    if not _OBJECT_RANGE[0] <= object_id < _OBJECT_RANGE[1]:
        raise ValueError(f"object id {object_id} out of range")
    return (int(object_id) << _VERSION_BITS) | (v + 1)


def _sequential_sum(values: np.ndarray) -> float:
    """The sum of ``values`` added left to right, as a Python loop adds them
    under every interpreter (``sum()`` compensates from Python 3.12)."""
    return float(np.cumsum(values)[-1]) if len(values) else 0.0


def unpack_key(key: int) -> tuple[int, int | None]:
    v = (key & (_VERSION_SPAN - 1)) - 1
    return key >> _VERSION_BITS, (None if v == NO_VERSION else v)


def _pack_keys(objects: np.ndarray, versions: np.ndarray) -> np.ndarray:
    """`pack_key` over arrays, with version -1 for None; ids outside the
    packable ranges alias other identities' keys."""
    return (objects << _VERSION_BITS) | (versions + 1)


def _unpack_keys(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (objects, versions) arrays of packed keys, version -1 for None."""
    return keys >> _VERSION_BITS, (keys & (_VERSION_SPAN - 1)) - 1


class ObjectCatalog:
    """Maps identities to positive sizes (abstract units).

    The `size_arrays()` pair, whose key order is the identity order, and
    the rank table behind `_ranks` are built on first use and kept until the
    next `add`.
    """

    def __init__(self, sizes: Mapping[tuple[int, int | None], float] | None = None):
        self._sizes: dict[tuple[int, int | None], float] = {}
        self._arrays: tuple[np.ndarray, np.ndarray] | None = None
        self._table: tuple[np.ndarray | None, int, int] | None = None
        if sizes:
            for (oid, ver), s in sizes.items():
                self.add(oid, s, ver)

    def add(self, object_id: int, size: float, version: int | None = None) -> None:
        """Set an identity's size.  Version -1 is stored as None, as in the
        event columns; ids that `pack_key` cannot hold raise ValueError."""
        pack_key(object_id, version)
        if version == NO_VERSION:
            version = None
        size = float(size)
        if not size > 0:
            raise ValueError(f"object ({object_id}, {version}) size must be > 0, got {size}")
        self._sizes[(int(object_id), version)] = size
        self._arrays = self._table = None

    @classmethod
    def _from_arrays(cls, objects, versions, sizes) -> "ObjectCatalog":
        """The catalog that `add(objects[i], sizes[i], versions[i])` builds,
        called for each i in order; it raises what the first failing `add`
        raises."""
        objects = np.asarray(objects, dtype=np.int64)
        versions = np.asarray(versions, dtype=np.int64)
        sizes = np.asarray(sizes, dtype=np.float64)
        ok = (objects >= _OBJECT_RANGE[0]) & (objects < _OBJECT_RANGE[1])
        ok &= (versions >= _VERSION_RANGE[0]) & (versions < _VERSION_RANGE[1])
        ok &= sizes > 0
        catalog = cls()
        if not ok.all():
            # `add` refuses the first identity that fails a check
            bad = int(np.flatnonzero(~ok)[0])
            catalog.add(int(objects[bad]), float(sizes[bad]), int(versions[bad]))
        stored = [None if v == NO_VERSION else v for v in versions.tolist()]
        catalog._sizes = dict(zip(zip(objects.tolist(), stored), sizes.tolist()))
        return catalog

    def size(self, object_id: int, version: int | None = None) -> float:
        return self._sizes[(object_id, None if version == NO_VERSION else version)]

    def __contains__(self, identity: tuple[int, int | None]) -> bool:
        object_id, version = identity
        return (object_id, None if version == NO_VERSION else version) in self._sizes

    def __len__(self) -> int:
        return len(self._sizes)

    def __eq__(self, other) -> bool:
        return isinstance(other, ObjectCatalog) and self._sizes == other._sizes

    def identities(self) -> list[tuple[int, int | None]]:
        """A new list of the identities in ascending key order: by object,
        then by version with None first."""
        objects, versions = _unpack_keys(self.size_arrays()[0])
        return [
            (o, None if v == NO_VERSION else v)
            for o, v in zip(objects.tolist(), versions.tolist())
        ]

    def total_volume(self) -> float:
        """Sum of sizes over all catalogued identities, added in ascending
        key order, so equal catalogs give equal volumes."""
        return _sequential_sum(self.size_arrays()[1])

    def unit_sized(self) -> bool:
        """True when every identity has the same size."""
        vals = set(self._sizes.values())
        return len(vals) <= 1

    def size_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (keys, sizes) arrays in ascending key order, aligned for
        vectorized lookups."""
        if self._arrays is None:
            n = len(self._sizes)
            objects = np.fromiter((o for o, _ in self._sizes), dtype=np.int64, count=n)
            versions = np.array(
                [NO_VERSION if v is None else v for _, v in self._sizes], dtype=np.int64
            )
            # `add` has checked the ranges, so the keys are distinct
            keys = _pack_keys(objects, versions)
            order = np.argsort(keys)
            keys = keys[order]
            sizes = np.fromiter(self._sizes.values(), dtype=np.float64, count=n)[order]
            keys.flags.writeable = sizes.flags.writeable = False
            self._arrays = keys, sizes
        return self._arrays

    def _ranks(self, objects: np.ndarray, versions: np.ndarray) -> np.ndarray:
        """Each identity's index in `size_arrays()` as int32, or -1 where the
        catalog lacks it.

        A dense catalog looks ranks up in a table indexed by
        ``(object - least object) * version slots + version + 1``; a sparse
        one, whose table would hold more than `_RANK_TABLE_FILL` slots per
        identity, binary-searches its keys.
        """
        table, first, span = self._rank_table()
        if table is None:
            cat_keys = self.size_arrays()[0]
            keys = _pack_keys(objects, versions)
            ranks = np.searchsorted(cat_keys, keys)
            known = ranks < len(cat_keys)
            known[known] = cat_keys[ranks[known]] == keys[known]
            # packed keys alias outside the packable ranges
            known &= (objects >= _OBJECT_RANGE[0]) & (objects < _OBJECT_RANGE[1])
            known &= (versions >= _VERSION_RANGE[0]) & (versions < _VERSION_RANGE[1])
            return np.where(known, ranks, -1).astype(np.int32)
        last = first + len(table) // span - 1
        if len(objects) and (
            objects.min() < first or objects.max() > last
            or versions.min() < NO_VERSION or versions.max() + 1 >= span
        ):
            inside = (objects >= first) & (objects <= last)
            inside &= (versions >= NO_VERSION) & (versions + 1 < span)
            ranks = np.full(len(objects), -1, dtype=np.int32)
            ranks[inside] = table[(objects[inside] - first) * span + versions[inside] + 1]
            return ranks
        return table[(objects - first) * span + versions + 1]

    def _rank_table(self) -> tuple[np.ndarray | None, int, int]:
        """(table, least object id, version slots) for `_ranks`; the table
        is None for a sparse catalog."""
        if self._table is None:
            keys = self.size_arrays()[0]
            table, first, span = None, 0, 0
            if len(keys):
                objects, versions = _unpack_keys(keys)
                slots = versions + 1
                first, span = int(objects[0]), int(slots.max()) + 1
                size = (int(objects[-1]) - first + 1) * span
                if size <= _RANK_TABLE_FILL * len(keys):
                    table = np.full(size, -1, dtype=np.int32)
                    table[(objects - first) * span + slots] = np.arange(len(keys), dtype=np.int32)
                    table.flags.writeable = False
            self._table = table, first, span
        return self._table


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
        """Re-establish canonical (time, client, object) order in place.

        Events equal in all three keep their order.  One sort by time, then
        a sort of only the runs of tied times by (time, client, object,
        position), gives the order of a 3-key `np.lexsort`, which is used
        directly when most neighbours tie (slot times).
        """
        order = np.argsort(self.times)
        times = self.times[order]
        tied = times[1:] == times[:-1]
        ties = int(np.count_nonzero(tied))
        # NaNs sort last and never compare equal, so no tie run holds them
        if 2 * ties > len(tied) or (len(times) and np.isnan(times[-1])):
            order = np.lexsort((self.objects, self.clients, self.times))
        elif ties:
            in_run = np.zeros(len(times), dtype=bool)
            in_run[1:] = tied
            in_run[:-1] |= tied
            run = order[in_run]
            order[in_run] = run[
                np.lexsort((run, self.objects[run], self.clients[run], self.times[run]))
            ]
        self.times = self.times[order]
        self.clients = self.clients[order]
        self.objects = self.objects[order]
        self.versions = self.versions[order]

    def identity_keys(self) -> np.ndarray:
        """Packed int identity per event (see pack_key)."""
        return _pack_keys(self.objects, self.versions)


@dataclass
class ValidationReport:
    ok: bool
    violations: list[str] = field(default_factory=list)


def validate_trace(trace: Trace, max_violations: int = 20) -> ValidationReport:
    """Check time sanity, id ranges, canonical order and catalog coverage.

    Returns a report listing up to `max_violations` problems instead of
    raising, so callers can show several issues at once.  `simulate` runs
    the same check and refuses every trace it rejects.
    """
    problems, _, _ = _checked_sizes(trace, max_violations)
    return ValidationReport(ok=not problems, violations=problems[:max_violations])


def _checked_sizes(
    trace: Trace, max_violations: int
) -> tuple[list[str], np.ndarray | None, np.ndarray | None]:
    """The problems `validate_trace` reports, of which the first
    `max_violations` are complete, and, when there are none, the per-event
    sizes and catalog ranks (see `ObjectCatalog._ranks`)."""
    problems: list[str] = []
    times = trace.times
    if len(trace) and not np.isfinite(times).all():
        bad = int(np.flatnonzero(~np.isfinite(times))[0])
        problems.append(f"event {bad}: non-finite time")
    elif len(trace) and times[0] < 0:
        problems.append(f"event 0: negative time {times[0]}")

    # ranges first: an out-of-range id packs into another identity's key
    ranges_ok = True
    for name, ids, (lo, hi) in (
        ("object id", trace.objects, _OBJECT_RANGE),
        ("client id", trace.clients, _CLIENT_RANGE),
        ("version", trace.versions, _VERSION_RANGE),
    ):
        if len(ids) and not lo <= ids.min() <= ids.max() < hi:
            bad = int(np.flatnonzero((ids < lo) | (ids >= hi))[0])
            v = int(ids[bad])
            where = f"below {lo}" if v < lo else f"outside the packable range [{lo}, {hi})"
            problems.append(f"event {bad}: {name} {v} {where}")
            ranges_ok = False

    if len(trace) > 1:
        dt = np.diff(times)
        dc = np.diff(trace.clients)
        do = np.diff(trace.objects)
        out_of_order = (dt < 0) | ((dt == 0) & ((dc < 0) | ((dc == 0) & (do < 0))))
        if out_of_order.any():
            bad = int(np.flatnonzero(out_of_order)[0]) + 1
            problems.append(f"unsorted at index {bad}")

    if not ranges_ok:
        return problems, None, None
    # coverage: each event's rank in the catalog's key order
    ranks = trace.catalog._ranks(trace.objects, trace.versions)
    unknown = ranks < 0
    if unknown.any():
        keys = np.unique(_pack_keys(trace.objects[unknown], trace.versions[unknown]))
        # at least one, so that a report is never ok when something is wrong
        for key in keys[: max(max_violations, 1)].tolist():
            oid, ver = unpack_key(key)
            problems.append(f"unknown object ({oid}, {ver}): referenced but not in catalog")
    if problems:
        return problems, None, None
    return problems, trace.catalog.size_arrays()[1][ranks], ranks


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


def _presence(trace: Trace) -> tuple[np.ndarray, np.ndarray]:
    """A mask over the catalog's `size_arrays()` of the identities the
    trace names, and a mask over its events of those that name an identity
    the catalog lacks."""
    ranks = trace.catalog._ranks(trace.objects, trace.versions)
    unknown = ranks < 0
    return np.bincount(ranks[~unknown], minlength=len(trace.catalog)) > 0, unknown


def _distinct_identities(trace: Trace) -> int:
    """How many distinct identities the trace names, catalogued or not."""
    present, unknown = _presence(trace)
    missing = _pack_keys(trace.objects[unknown], trace.versions[unknown])
    return int(np.count_nonzero(present)) + len(np.unique(missing))


def trace_stats(trace: Trace) -> TraceStats:
    """Summary counts used by the harness and by sanity tests."""
    if len(trace) == 0:
        return TraceStats(0, 0, 0, 0, (0.0, 0.0), 0.0, trace.catalog.total_volume(), {})
    present, unknown = _presence(trace)
    if unknown.any():
        # the least unknown identity, as a lookup in ascending key order meets it
        objects, versions = trace.objects[unknown], trace.versions[unknown]
        first = np.lexsort((versions, objects))[0]
        ver = int(versions[first])
        raise KeyError((int(objects[first]), None if ver == NO_VERSION else ver))
    cat_keys, cat_sizes = trace.catalog.size_arrays()
    keys = cat_keys[present]
    objs = np.unique(_unpack_keys(keys)[0])
    clients, counts = np.unique(trace.clients, return_counts=True)
    return TraceStats(
        num_events=len(trace),
        num_clients=len(clients),
        distinct_objects=len(objs),
        distinct_identities=len(keys),
        time_span=(float(trace.times[0]), float(trace.times.max())),
        footprint_volume=_sequential_sum(cat_sizes[present]),
        catalog_volume=trace.catalog.total_volume(),
        events_per_client={int(c): int(n) for c, n in zip(clients, counts)},
    )


def _fmt_float(x: float) -> str:
    # repr() of a Python float is the shortest string that round-trips.
    return repr(float(x))


def _fmt_version(v: int) -> str:
    return "-" if v == NO_VERSION else str(v)


# Events are written in blocks of at most this many, each one joined string,
# so that only one block's strings are held at a time.
_WRITE_BLOCK = 1 << 11

# Whole-number times below this bound are written as their digits plus
# ".0", which is what repr() gives; from 1e16 up repr() switches to exponents.
_WHOLE_BOUND = 1e16


def write_trace(trace: Trace, path_or_file) -> None:
    """Write the text format: #meta lines, #obj catalog lines, event lines."""
    own = isinstance(path_or_file, (str, os.PathLike))
    f = open(path_or_file, "w", encoding="utf-8", newline="\n") if own else path_or_file
    try:
        for k, v in trace.meta.items():
            if any(ch in f"{k}{v}" for ch in "\r\n") or "=" in str(k):
                raise TraceFormatError(f"meta key/value not representable: {k!r}={v!r}")
            f.write(f"#meta {k}={v}\n")
        cat_keys, cat_sizes = trace.catalog.size_arrays()
        ids, vers = _unpack_keys(cat_keys)
        for o, v, s in zip(ids.tolist(), vers.tolist(), cat_sizes.tolist()):
            f.write(f"#obj {o} {_fmt_version(v)} {_fmt_float(s)}\n")
        _write_events(trace, f)
    finally:
        if own:
            f.close()


def _write_events(trace: Trace, f) -> None:
    """The event lines of `write_trace`, one block at a time.

    A line is four strings, each ending in the separator that follows it,
    interleaved into one list per block and joined.  Client, object and
    version strings come from tables kept across blocks.  When every time in
    a block is a whole number in [0, `_WHOLE_BOUND`) other than -0.0, the
    time strings come from a table of the block's distinct times; otherwise
    each is its repr().
    """
    columns = (
        (trace.clients, {}, "{} ".format),
        (trace.objects, {}, "{} ".format),
        (trace.versions, {}, lambda v: _fmt_version(v) + "\n"),
    )
    for start in range(0, len(trace), _WRITE_BLOCK):
        block = slice(start, start + _WRITE_BLOCK)
        times = trace.times[block]
        parts = [""] * (4 * len(times))
        whole = (times < _WHOLE_BOUND) & (times == np.floor(times)) & ~np.signbit(times)
        if whole.all():
            ints = times.astype(np.int64).tolist()
            strings = {t: f"{t}.0 " for t in set(ints)}
            parts[0::4] = map(strings.__getitem__, ints)
        else:
            parts[0::4] = [f"{t!r} " for t in times.tolist()]
        for i, (column, table, fmt) in enumerate(columns, start=1):
            parts[i::4] = _tabled(column[block].tolist(), table, fmt)
        f.write("".join(parts))


def _tabled(values: list, table: dict, fmt) -> map:
    """The strings ``fmt(value)`` of `values`, each formatted once into
    `table`, which is kept across the blocks of one column."""
    for value in set(values).difference(table):
        table[value] = fmt(value)
    return map(table.__getitem__, values)


def read_trace(path_or_file) -> Trace:
    """Parse the text format written by write_trace (round-trip identity).

    The leading #meta/#obj lines are parsed by `_parse_header`, the event
    lines after them in blocks of whole lines.  When a header line or an
    event block is not plain `write_trace` output (see `_plain_block`) or
    does not convert, that part is parsed again by `_read_lines`, which
    alone reports `TraceFormatError`s and their line numbers.
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
    head = _parse_header(text[:body])
    if head is None:
        parsed = _read_lines(text[:body])
        head = parsed.meta, parsed.catalog
    columns = _parse_blocks(text, body, _EVENT_FIELDS)
    if columns is None:
        return _read_lines(text)
    meta, catalog = head
    return Trace(*columns, catalog, meta)


def _parse_header(head: str) -> tuple[dict[str, str], ObjectCatalog] | None:
    """The meta and catalog of the header lines in `head`, or None when one
    needs the line loop: a line that is neither "#meta key=value" nor a
    plain "#obj" line, a "#meta" line after an "#obj" line, or an #obj line
    that does not convert or that `ObjectCatalog.add` refuses."""
    meta: dict[str, str] = {}
    start = 0
    while head.startswith("#meta ", start):
        end = head.find("\n", start) + 1 or len(head)
        line = head[start + len("#meta "):end].rstrip("\n")
        if "=" not in line:
            return None
        key, value = line.split("=", 1)
        meta[key] = value
        start = end
    if start == len(head):
        return meta, ObjectCatalog()
    if not head.startswith("#obj ", start):
        return None
    # without their "#obj " prefixes the lines are blocks of three fields;
    # a '#' left in them marks a line that had none
    lines = head[start + len("#obj "):].replace("\n#obj ", "\n")
    columns = _parse_blocks(lines, 0, _OBJ_FIELDS) if lines else None
    if columns is None:
        return None
    try:
        catalog = ObjectCatalog._from_arrays(*columns)
    except ValueError:
        return None
    return meta, catalog


# Event text is cut into blocks of about this many characters, so that only
# one block's arrays, and the tokens of a block that needs them, are held at
# a time.
_BLOCK_CHARS = 1 << 16

def _parse_blocks(text: str, start: int, fields) -> tuple[np.ndarray, ...] | None:
    """The columns of the lines in ``text[start:]``, one per field kind of
    `fields`, or None when a block needs the line loop.

    The columns are allocated once, one row per line, and filled block by
    block, so no block's arrays outlive it.
    """
    rows = text.count("\n", start) + (start < len(text) and not text.endswith("\n"))
    columns = tuple(np.empty(rows, dtype) for dtype, _, _ in fields)
    row = 0
    while start < len(text):
        end = text.find("\n", start + _BLOCK_CHARS - 1) + 1 or len(text)
        block = text[start:end]
        if not block.endswith("\n"):
            block += "\n"
        parsed = _parse_block(block, fields)
        if parsed is None:
            return None
        n = len(parsed[0])
        for column, values in zip(columns, parsed):
            column[row : row + n] = values
        row += n
        start = end
    return columns


def _parse_block(block: str, fields) -> list[np.ndarray] | None:
    """The columns of one block, or None when it needs the line loop.

    Each field is converted from the block's bytes when its tokens allow
    (see `_digit_values`), else from its tokens by int()/float(), as numpy
    converts strings; a token neither accepts sends the block to the line
    loop, which reports the failure with its line number.
    """
    plain = _plain_block(block, len(fields))
    if plain is None:
        return None
    chars, ends = plain
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    starts, ends = starts.reshape(-1, len(fields)).T, ends.reshape(-1, len(fields)).T
    tokens = None
    columns = []
    for i, (_, from_bytes, from_tokens) in enumerate(fields):
        values = from_bytes(chars, starts[i], ends[i])
        if values is None:
            if tokens is None:
                tokens = block.split()
            try:
                values = from_tokens(tokens[i :: len(fields)])
            except (ValueError, OverflowError):
                return None
        columns.append(values)
    return columns


# 10**17 down to 1: the place values of up to 18 right-aligned digits, the
# most an int64 holds for every digit string
_PLACES = 10 ** np.arange(17, -1, -1, dtype=np.int64)

# Whole-number float tokens of at most this many digits before ".0" are
# below 2**53, so their int64 values convert to float64 exactly.
_WHOLE_DIGITS = 15


def _digit_values(chars: np.ndarray, starts: np.ndarray, ends: np.ndarray, most: int = 18):
    """The int64 values of the tokens ``chars[starts[i]:ends[i]]`` when each
    is 1 to `most` ASCII digits, else None.

    The digits are gathered right-aligned into a (width, tokens) matrix,
    zero left of each token, and weighted by their place values in one
    product.
    """
    lengths = ends - starts
    width = int(lengths.max())
    if width > most:
        return None
    places = np.arange(-width, 0)[:, None]
    # every end is at least 1 and the widest token and a separator lie in
    # the block, so an index below 0 counts from the block's end; it falls
    # left of its token, where the digits are zeroed
    digits = chars[ends + places] - np.uint8(ord("0"))  # other bytes wrap above 9
    digits *= places >= -lengths
    if (digits > 9).any():
        return None
    return _PLACES[-width:] @ digits


def _digit_versions(chars: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """`_digit_values` of version tokens, with "-" as NO_VERSION."""
    dash = (ends - starts == 1) & (chars[starts] == ord("-"))
    versions = np.full(len(dash), NO_VERSION, dtype=np.int64)
    if not dash.all():
        values = _digit_values(chars, starts[~dash], ends[~dash])
        if values is None:
            return None
        versions[~dash] = values
    return versions


def _whole_floats(chars: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """The float64 values of tokens that are 1 to `_WHOLE_DIGITS` ASCII
    digits followed by ".0", as `write_trace` writes whole numbers, else
    None."""
    point = ends - 2
    if not (
        (point > starts).all()
        and (chars[point] == ord(".")).all()
        and (chars[ends - 1] == ord("0")).all()
    ):
        return None
    values = _digit_values(chars, starts, point, _WHOLE_DIGITS)
    return None if values is None else values.astype(np.float64)


def _version_column(tokens: list[str]) -> np.ndarray:
    """Version tokens as int64, "-" as NO_VERSION; raises what int() raises."""
    dashes = tokens.count("-")
    if dashes == len(tokens):
        return np.full(len(tokens), NO_VERSION, dtype=np.int64)
    if dashes:
        tokens = [NO_VERSION if v == "-" else v for v in tokens]
    return np.array(tokens, dtype=np.int64)


def _int_column(tokens: list[str]) -> np.ndarray:
    return np.array(tokens, dtype=np.int64)


def _float_column(tokens: list[str]) -> np.ndarray:
    return np.array(tokens, dtype=np.float64)


# The field kinds of a line: (dtype, conversion from the block's bytes or
# None, conversion from the field's tokens).
_INT_FIELD = (np.int64, _digit_values, _int_column)
_VERSION_FIELD = (np.int64, _digit_versions, _version_column)
_FLOAT_FIELD = (np.float64, _whole_floats, _float_column)
# time client object version
_EVENT_FIELDS = (_FLOAT_FIELD, _INT_FIELD, _INT_FIELD, _VERSION_FIELD)
# "#obj" object version size
_OBJ_FIELDS = (_INT_FIELD, _VERSION_FIELD, _FLOAT_FIELD)


def _plain_block(block: str, fields: int = 4) -> tuple[np.ndarray, np.ndarray] | None:
    """The bytes of `block` as uint8 and the positions of its separators
    when every line is `fields` non-empty fields separated by single spaces
    and ended by a newline, with no other whitespace, no other control
    character, no non-ASCII character and no '#'; else None."""
    if not block.endswith("\n") or "#" in block or not block.isascii():
        return None
    chars = np.frombuffer(block.encode("ascii"), dtype=np.uint8)
    # spaces, newlines and every other control character
    seps = np.flatnonzero(chars <= ord(" "))
    if len(seps) % fields:
        return None
    line_seps = np.frombuffer((" " * (fields - 1) + "\n").encode("ascii"), dtype=np.uint8)
    if not (chars[seps].reshape(-1, fields) == line_seps).all():
        return None
    # no empty field: no two separators in a row, none at the start
    if not (np.diff(seps, prepend=-1) > 1).all():
        return None
    return chars, seps


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
