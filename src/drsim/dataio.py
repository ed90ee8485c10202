"""Ingestion and feature construction for half-hourly consumption data.

Consumption CSVs carry one row per (household, half-hour) with columns
household_id,timestamp,kwh,tariff,group; temperature CSVs carry hourly
timestamp,temp_c rows. Half-hour h in 1..48 covers [(h-1)/2, h/2) hours of
the day. Tariffs are LOW/NORMAL/HIGH for time-of-use households and FLAT for
standard ones; FLAT maps to NORMAL internally so every series lives on the
same three-level code.

read_consumption_csv reads the file in chunks: the lines that start in one
byte range of about 1 MB. The chunks are parsed on the usable CPUs
(parallel.imap_forked), each worker reading its range itself (preadv), and
merged in file order by the parent, a few chunks behind. A plain chunk
(ASCII without quotes, NUL or lone CR, 5 fields on every non-blank line, no
field wider than the keys) is parsed with numpy: the text fields become ids
through packed byte keys, each distinct timestamp text is parsed once per
worker, kwh goes through one bytes -> float64 cast, and every check runs on
the whole chunk at once. The merge numbers the chunk's households after
those read before and puts its rows straight into the (n, T, 48) kWh and
tariff grids, which grow with the households and days read, so each reading
is held once, in the grids that are returned. A cell no row holds is NaN
in kWh and -1 in tariff; the grids are the only record of which cells were
read. If a chunk is not plain, or would fail a check, or two rows of a
plain file hold one (household, half-hour) cell, what the bulk parse read
is dropped and the csv row loop reads the whole file again from its header;
it alone raises the parse and validation errors, duplicates included, so
their messages and line numbers are those of a reader that reads every row
that way, whichever chunk finishes first, and its rows go into the same
grids. prepare_dataset repairs those grids in place, filling the NaN and -1
cells and moving the kept households down over the flagged ones, and adds
the features; save_prepared writes each array into the npz from memory,
with no whole-array copy.

Run artifacts are written through replacing (CSVs through write_csv), so a
file appears whole or not at all; replacing_all does the same for a set of
files that must appear together. read_csv reads them back, header checked.
"""

import array
import contextlib
import csv
import datetime
import math
import mmap
import os
import warnings
import zipfile
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import parallel

HALF_HOURS = 48
LOW, NORMAL, HIGH = 0, 1, 2
TARIFF_NAMES = ("LOW", "NORMAL", "HIGH")
TARIFF_CODES = {"LOW": LOW, "NORMAL": NORMAL, "HIGH": HIGH, "FLAT": NORMAL}
GROUPS = ("TOU", "STD")

CONSUMPTION_HEADER = ["household_id", "timestamp", "kwh", "tariff", "group"]
TEMPERATURE_HEADER = ["timestamp", "temp_c"]

COVERAGE_THRESHOLD = 0.95
DEFAULT_SMOOTHING = 0.998

_CHUNK_BYTES = 1 << 20  # bytes of a consumption file whose lines make one bulk-parse chunk
_KEY_BYTES = 32         # widest field the bulk parse takes; a wider one goes to the row loop
_LINE_BYTES = 5 * _KEY_BYTES + 6  # longest plain line: 5 fields, 4 commas, CR and LF
_LOOP_ROWS = 1 << 16    # rows the row loop holds before it adds them to the grids
_WRITE_BYTES = 1 << 20  # bytes of an array save_prepared hands to the npz file at a time
# anonymous mappings private to the process, where mmap can make them
_PRIVATE = {"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE") else {}
_HEADER_LINE = ",".join(CONSUMPTION_HEADER).encode()
_KWH_BYTES = np.zeros(256, dtype=bool)        # bytes a kwh field may hold in the bulk parse,
_KWH_BYTES[list(b"\0.0123456789eE+-")] = True  # \0 only as padding: plain chunks hold none


class DataParseError(ValueError):
    """Malformed file content (bad header, field count, number format)."""


class DataValidationError(ValueError):
    """Well-formed but invalid content (negative load, unknown tariff)."""


class UnrecoverableDataError(ValueError):
    """Gap repair cannot proceed (household fully missing)."""


class ConfigError(ValueError):
    """Out-of-range configuration value."""


@dataclass
class ConsumptionData:
    household_ids: list        # n ids, in order of first appearance in the file
    groups: list
    dates: list                # T datetime.date, consecutive
    kwh: np.ndarray            # (n, T, 48), NaN where unobserved
    tariff: np.ndarray         # (n, T, 48) int8, -1 where unobserved
    coverage: dict             # id -> share of its T * 48 slots observed (tariff >= 0)
    flagged: list              # ids with coverage < threshold


@dataclass
class TemperatureSeries:
    timestamps: list     # datetime.datetime, hourly, strictly increasing
    temp_c: np.ndarray


def _parse_timestamp(text, line_no):
    try:
        ts = datetime.datetime.fromisoformat(text)
    except ValueError:
        raise DataParseError(f"line {line_no}: bad timestamp {text!r}") from None
    if ts.second or ts.microsecond or ts.tzinfo is not None:
        raise DataValidationError(f"line {line_no}: timestamp {text!r} not on the half-hour grid")
    return ts


def _half_hour(text, line_no):
    """A consumption timestamp's half-hour: its day's ordinal times 48 plus
    its half-hour of the day."""
    ts = _parse_timestamp(text, line_no)
    if ts.minute not in (0, 30):
        raise DataValidationError(f"line {line_no}: timestamp {text!r} not on the half-hour grid")
    return ts.date().toordinal() * HALF_HOURS + ts.hour * 2 + ts.minute // 30


def _map(size):
    """An anonymous mapping of size bytes (at least 1), private where it can
    be, for an array that is not on the heap: its untouched pages take no
    memory and read as zeros, and all of it goes back to the system when it
    is dropped, where a freed heap block under a live one stays resident and
    raises the peak of later stages."""
    return mmap.mmap(-1, max(size, 1), **_PRIVATE)


def _resized(buf, size):
    """buf holding size bytes, its first bytes kept and any new ones zero.
    Where mmap cannot resize (no mremap), a larger size copies buf into a new
    mapping and a smaller one keeps buf as it is. No array may view buf."""
    try:
        buf.resize(max(size, 1))
    except SystemError:
        if size > len(buf):
            new = _map(size)
            np.frombuffer(new, np.uint8, len(buf))[:] = np.frombuffer(buf, np.uint8)
            return new
    return buf


class _Grids:
    """What read_consumption_csv has read so far: the households' ids and
    groups, and the kWh and tariff grids their rows went into.

    The grids are (households, days, 48) arrays in C order, each on a
    mapping of its own (_map), with tariff codes stored +1, so that cells no
    row has written read 0 as unobserved and their untouched pages take no
    memory. They grow as rows are added: a new household extends them at
    the end (mmap.resize: mremap moves no data), and a day outside the days
    laid out lays them out again with room for as many days again on that
    side, so a file in timestamp order is laid out a few times, not once a
    chunk. finish cuts them to the days read, in place.
    """

    DTYPES = (np.float64, np.int8)

    def __init__(self):
        self.index_of = {}              # household id -> index, in order of first appearance
        self.groups = []
        self.maps = [_map(0), _map(0)]  # the kWh and tariff grids' mappings
        self.n = 0                      # households laid out
        self.start = self.days = 0      # ordinal of the grids' first day; days laid out
        self.first = self.last = None   # ordinals of the first and last day read
        self.rows = 0                   # rows added

    def grids(self):
        """The kWh and tariff grids, (n, days, 48) views of the mappings."""
        shape = (self.n, self.days, HALF_HOURS)
        return [np.frombuffer(buf, dtype, math.prod(shape)).reshape(shape)
                for buf, dtype in zip(self.maps, self.DTYPES)]

    def _nbytes(self, n, days):
        return [n * days * HALF_HOURS * np.dtype(dtype).itemsize for dtype in self.DTYPES]

    def add(self, household, half_hour, kwh, code):
        """Write rows into the grids, given as numpy columns: household
        index, half-hour (see _half_hour), kWh and tariff code. Grows the
        grids to every household registered and every day of these rows."""
        lo, hi = int(half_hour.min()) // HALF_HOURS, int(half_hour.max()) // HALF_HOURS
        self.first = lo if self.first is None else min(lo, self.first)
        self.last = hi if self.last is None else max(hi, self.last)
        end = self.start + self.days
        if self.first < self.start or self.last >= end:
            start, stop = self.first, self.last + 1
            if self.days:                 # room for as many days again on an outgrown side
                start = self.start if start >= self.start else min(start, self.start - self.days)
                stop = end if stop <= end else max(stop, end + self.days)
            old = self.grids()
            self.maps = [_map(size) for size in self._nbytes(self.n, stop - start)]
            at, self.start, self.days = self.start - start, start, stop - start
            for grid, was in zip(self.grids(), old):
                grid[:, at:at + was.shape[1]] = was
            del old, grid, was
        if len(self.groups) > self.n:
            self.n = len(self.groups)
            self.maps = [_resized(buf, size)
                         for buf, size in zip(self.maps, self._nbytes(self.n, self.days))]
        cells = household.astype(np.int64)
        cells *= self.days * HALF_HOURS
        cells += half_hour
        cells -= self.start * HALF_HOURS
        kwh_grid, tariff_grid = self.grids()
        kwh_grid.reshape(-1)[cells] = kwh
        tariff_grid.reshape(-1)[cells] = code + 1
        self.rows += cells.size

    def finish(self):
        """(dates, kwh, tariff) of the rows added, the grids cut to the days
        read, or None if two rows hold one cell. The cells no row holds are
        NaN in kwh and -1 in tariff."""
        if not self.rows:
            raise DataValidationError("no data rows")
        if np.count_nonzero(self.grids()[1]) < self.rows:
            return None
        n_days = self.last - self.first + 1
        if self.days != n_days:
            at, width = self.first - self.start, n_days * HALF_HOURS
            for grid in self.grids():
                flat = grid.reshape(-1)
                for i in range(self.n):   # each household moves down: numpy copies overlaps right
                    src = (i * self.days + at) * HALF_HOURS
                    flat[i * width:(i + 1) * width] = flat[src:src + width]
            del grid, flat
            self.start, self.days = self.first, n_days
            self.maps = [_resized(buf, size)
                         for buf, size in zip(self.maps, self._nbytes(self.n, n_days))]
        kwh, tariff = self.grids()
        tariff -= 1
        for i in range(self.n):           # a household's mask at a time, not the grid's
            np.copyto(kwh[i], np.nan, where=tariff[i] < 0)
        dates = [datetime.date.fromordinal(d) for d in range(self.first, self.last + 1)]
        return dates, kwh, tariff


def _distinct(keys):
    """(first row of each distinct key, each row's key id) for a bytes array,
    ids numbered in order of first appearance."""
    starts_run = np.ones(keys.size, dtype=bool)
    starts_run[1:] = keys[1:] != keys[:-1]
    runs = np.flatnonzero(starts_run)    # rows where the key changes: few, for most fields
    _, first, run_id = np.unique(keys[runs], return_index=True, return_inverse=True)
    appearance = np.argsort(first)
    rank = np.empty(appearance.size, np.intc)
    rank[appearance] = np.arange(appearance.size)
    run_of_row = np.cumsum(starts_run, dtype=np.intc)
    run_of_row -= 1
    return runs[first[appearance]], rank[run_id.ravel()][run_of_row]


def _decoded(keys):
    return [key.decode("ascii") for key in keys.tolist()]


def _split_chunk(buf, size, mask):
    """Cut buf[:size], whole lines, into fields.

    Returns None if the lines are not plain. Otherwise returns the five
    fields of the rows, each an array of NUL-padded bytes (none if every line
    is blank). buf ends in _KEY_BYTES bytes past any chunk, the last of them
    never CR; mask is scratch space as long as buf.
    """
    if buf.find(b'"', 0, size) >= 0 or buf.find(b"\0", 0, size) >= 0:
        return None
    a = np.frombuffer(buf, np.uint8)
    chunk, mask = a[:size], mask[:size]
    if chunk.max() >= 0x80:
        return None
    line_end = np.flatnonzero(np.equal(chunk, ord("\n"), out=mask))
    crlf = a[line_end - 1] == ord("\r")      # a[-1] for a blank first line
    if np.count_nonzero(np.equal(chunk, ord("\r"), out=mask)) != np.count_nonzero(crlf):
        return None                          # a lone CR
    line_start = np.r_[0, line_end[:-1] + 1]
    line_end -= crlf
    blank = line_start == line_end
    n_rows = blank.size - np.count_nonzero(blank)
    if not n_rows:
        return ()
    commas = np.flatnonzero(np.equal(chunk, ord(","), out=mask))
    if commas.size != 4 * n_rows:
        return None
    bounds = np.empty((n_rows, 6), np.int32)  # line start, its 4 commas, line end
    bounds[:, 0], bounds[:, 5] = line_start[~blank], line_end[~blank]
    bounds[:, 1:5] = commas.reshape(-1, 4)
    del commas, line_start, line_end, crlf, blank   # a smaller peak, a smaller heap
    width = np.diff(bounds, axis=1)
    width[:, 1:] -= 1
    if width.min() < 0:
        return None                          # some line holds more or fewer than 4 commas
    if width.max() > _KEY_BYTES or not width[:, 2].all():
        return None

    def field(j):
        w = max(int(width[:, j].max()), 1)
        out = sliding_window_view(a, w)[bounds[:, j] + (j > 0)]
        if width[:, j].min() < w:
            out *= np.arange(w) < width[:, j, None]
        return out.view(f"S{w}").ravel()

    return [field(j) for j in range(5)]


class _Stamps:
    """The timestamp texts a bulk parse has met, sorted, and their half-hours
    (see _half_hour): each distinct text is parsed once per process."""

    def __init__(self):
        self.keys, self.half_hours = np.array([], dtype="S1"), np.array([], np.int32)

    def half_hours_of(self, ts):
        """The half-hours (int32) of the timestamp texts ts, or None if one
        of them is not a timestamp on the half-hour grid."""
        half_hour = np.full(ts.size, -1, np.int32)
        if self.keys.size:
            at = np.minimum(np.searchsorted(self.keys, ts), self.keys.size - 1)
            known = self.keys[at] == ts
            half_hour[known] = self.half_hours[at[known]]
        unknown = np.flatnonzero(half_hour < 0)
        new_rows, new_id = _distinct(ts[unknown])
        new_keys = ts[unknown[new_rows]]
        try:
            new = np.array([_half_hour(text, 0) for text in _decoded(new_keys)], np.int32)
        except ValueError:
            return None
        half_hour[unknown] = new[new_id]
        if new_keys.size:
            keys = np.concatenate([self.keys, new_keys])
            order = np.argsort(keys)
            self.keys, self.half_hours = keys[order], np.concatenate([self.half_hours, new])[order]
        return half_hour


def _read_at(fd, view, offset):
    """Fill view with the bytes of fd from offset on, up to the end of the
    file, and return how many were read. preadv reads straight into view
    and leaves the file position, which fork shares with the pool's
    workers, where it is."""
    got = 0
    while got < len(view):
        n = os.preadv(fd, [view[got:]], offset + got)
        if not n:
            break
        got += n
    return got


def _parse_chunk(fd, start, stop, buf, mask, stamps):
    """Parse the lines of the consumption file fd that start in bytes
    [start, stop); start - 1 is a byte of the file. Runs in a pool worker,
    or in-process, and touches nothing of the parent's but what fork copied.

    Returns (end, rows). rows is None if the lines are not plain or a row in
    them would fail a check. Otherwise end is the offset of the first line
    start at or after stop, or of the end of the file if that comes first,
    or None if the file's last line had no line end and this chunk gave it
    one; and rows is () for no rows, or (households, groups, household,
    half_hour, kwh, code): the chunk's household ids and group names in
    order of first appearance, and per row the index of its household among
    them (intc), its half-hour (int32, see _half_hour), kWh (float64) and
    tariff code (int8). buf (a private mapping, so that each worker has its
    own) holds the bytes read, _LINE_BYTES past stop, then _KEY_BYTES
    more; mask is scratch space as long as buf; stamps is a _Stamps.
    """
    size = stop - start + 1 + _LINE_BYTES
    got = _read_at(fd, memoryview(buf)[:size], start - 1)
    # the first line start at or after start; if the window holds none, the
    # line that runs through it is wider than a window, and its chunk fails
    first = buf.find(b"\n", 0, got) + 1 or got
    cut = stop - start + 1                      # stop, in buf
    end = first if first >= cut else buf.find(b"\n", cut - 1, got) + 1
    if not end:                                 # the chunk's last line runs past the window
        if got == size:
            return None, None                   # wider than a plain line
        end = got                               # to the end of the file
    size, at = end - first, start - 1 + end
    if end > first and buf[end - 1] != ord("\n"):
        buf[end] = ord("\n")                   # the file's last line has no line end: give it one
        size, at = size + 1, None
    if not size:
        return at, ()
    buf.move(0, first, size)
    fields = _split_chunk(buf, size, mask)
    if not fields:
        return at, fields
    hid, ts, kwh_text, tariff, group = fields
    tariff_rows, tariff_id = _distinct(tariff)
    codes = [TARIFF_CODES.get(t) for t in _decoded(tariff[tariff_rows])]
    group_rows, group_id = _distinct(group)
    names = _decoded(group[group_rows])
    if None in codes or not set(names) <= set(GROUPS):
        return at, None
    hh_rows, hh_id = _distinct(hid)
    hh_group = group_id[hh_rows]
    if (group_id != hh_group[hh_id]).any():
        return at, None                         # a household changes group inside the chunk
    half_hour = stamps.half_hours_of(ts)
    if half_hour is None or not _KWH_BYTES[kwh_text.view(np.uint8)].all():
        return at, None
    try:
        # the cast ignores trailing NULs; the byte check keeps out whitespace,
        # underscores, inf and nan, so what it parses is what float() parses
        kwh = kwh_text.astype(np.float64)
    except ValueError:
        return at, None
    if not ((kwh >= 0.0) & (kwh < math.inf)).all():
        return at, None
    return at, (_decoded(hid[hh_rows]), [names[g] for g in hh_group.tolist()], hh_id,
                half_hour, kwh, np.array(codes, np.int8)[tariff_id])


def _merge_chunk(grids, rows):
    """Add the rows of a chunk that _parse_chunk parsed to grids, numbering
    its new households after those read before, and return True; or return
    False if one of its households changes group, leaving grids only fit to
    be dropped."""
    if not rows:
        return True
    households, groups, household, half_hour, kwh, code = rows
    index = []
    for h, g in zip(households, groups):
        i = grids.index_of.setdefault(h, len(grids.groups))
        if i == len(grids.groups):
            grids.groups.append(g)
        elif grids.groups[i] != g:
            return False
        index.append(i)
    grids.add(np.array(index, np.intc)[household], half_hour, kwh, code)
    return True


def _chunks(fd, start):
    """The (start, stop) byte ranges of _CHUNK_BYTES from start on, as long
    as the file holds every byte a chunk reads; the last one may reach past
    its end. Each size is taken before the range is handed out, so before
    its chunk is read."""
    while True:
        stop = start + _CHUNK_BYTES
        whole = os.fstat(fd).st_size >= stop + _LINE_BYTES
        yield start, stop
        if not whole:
            return
        start = stop


def _read_plain_chunks(raw, grids):
    """Read a consumption file into grids in plain chunks, parsed on the
    usable CPUs and merged in file order. Returns whether they reached the
    end of the file: False if the header or a chunk is not plain, or a
    chunk would fail a check."""
    head = raw.readline()
    if head not in (_HEADER_LINE, _HEADER_LINE + b"\n", _HEADER_LINE + b"\r\n"):
        return False
    if not hasattr(os, "preadv"):         # Windows, say: the row loop reads the file
        return False
    fd = raw.fileno()
    # one buffer and one mask, made before the pool starts so that each worker
    # has its own through fork, and chunks add no large blocks to the heap
    buf = mmap.mmap(-1, _CHUNK_BYTES + 2 + _LINE_BYTES + _KEY_BYTES, **_PRIVATE)
    mask = np.frombuffer(_map(len(buf)), bool)
    stamps = _Stamps()
    end = len(head)
    while True:
        chunks = parallel.imap_forked(lambda chunk: _parse_chunk(fd, *chunk, buf, mask, stamps),
                                      _chunks(fd, end))
        with contextlib.closing(chunks):
            for end, rows in chunks:
                if rows is None or not _merge_chunk(grids, rows):
                    return False
        # no chunk is in flight: the file ends here unless rows were appended meanwhile
        if end is None or os.fstat(fd).st_size <= end:
            return True


def _read_rows(reader, line_no, grids):
    """The row loop: add csv reader rows, the first from line line_no, to
    grids, which holds no rows yet, _LOOP_ROWS rows at a time."""
    index_of, groups = grids.index_of, grids.groups
    texts = {}          # timestamp text -> (half-hour, slot id)
    slots = {}          # half-hour -> slot id, numbered in the order first read
    marks = []          # per household, one byte per slot id: 1 once a row holds it
    columns = [array.array(code) for code in "iqdb"]
    hh_col, half_hour_col, kwh_col, code_col = columns

    def add_rows():
        grids.add(*(np.frombuffer(col, dtype) for col, dtype in
                    zip(columns, (np.intc, np.int64, np.float64, np.int8))))
        for col in columns:
            del col[:]

    for line_no, row in enumerate(reader, start=line_no):
        if not row:
            continue
        if len(row) != 5:
            raise DataParseError(f"line {line_no}: expected 5 fields, got {len(row)}")
        hid, ts_text, kwh_text, tariff, group = row
        text = texts.get(ts_text)
        if text is None:
            half_hour = _half_hour(ts_text, line_no)
            text = texts[ts_text] = (half_hour, slots.setdefault(half_hour, len(slots)))
        try:
            kwh = float(kwh_text)
        except ValueError:
            raise DataParseError(f"line {line_no}: bad kwh value {kwh_text!r}") from None
        if not 0.0 <= kwh < math.inf:
            if not math.isfinite(kwh):
                raise DataValidationError(f"line {line_no}: non-finite kwh")
            raise DataValidationError(f"line {line_no}: negative kwh {kwh!r}")
        code = TARIFF_CODES.get(tariff)
        if code is None:
            raise DataValidationError(
                f"line {line_no}: unknown tariff {tariff!r} "
                f"(expected one of {', '.join(sorted(set(TARIFF_CODES)))})"
            )
        if group not in GROUPS:
            raise DataValidationError(f"line {line_no}: unknown group {group!r}")
        index = index_of.get(hid)
        if index is None:
            index = index_of[hid] = len(groups)
            groups.append(group)
            marks.append(bytearray())
        elif groups[index] != group:
            raise DataValidationError(
                f"line {line_no}: household {hid} changes group {groups[index]} -> {group}"
            )
        held, (half_hour, slot) = marks[index], text
        if slot >= len(held):
            held.extend(bytes(len(slots) - len(held)))
        elif held[slot]:
            raise DataValidationError(f"line {line_no}: duplicate reading for {hid} at {ts_text}")
        held[slot] = 1
        hh_col.append(index)
        half_hour_col.append(half_hour)
        kwh_col.append(kwh)
        code_col.append(code)
        if len(hh_col) == _LOOP_ROWS:
            add_rows()
    if hh_col:
        add_rows()


def read_consumption_csv(path):
    """Parse and validate a consumption CSV into (n, T, 48) grids, one row
    per household in order of first appearance, NaN in kwh and -1 in tariff
    where no row holds the cell.

    Households with less than 95% slot coverage over the file's date range
    are listed in .flagged (they stay in the grids; prepare_dataset drops
    them).
    Raises DataParseError / DataValidationError with the offending line;
    of several faults the one on the earliest line wins.

    The file is read in chunks of the lines that start in a byte range of
    _CHUNK_BYTES, parsed in bulk with numpy on the usable CPUs while they are
    plain and pass every check, each distinct timestamp text parsed once per
    process; the parent merges the chunks in file order, each chunk's rows
    going into the grids as it comes, and those grids are the ones
    returned. The file ends for the bulk parse only when no chunk is in
    flight, so rows appended during the read are read. If a chunk is not
    plain or fails a check, or the grids hold fewer cells than there were
    rows (a duplicate reading), the grids are dropped and a csv row loop
    reads the whole file from its header into new ones; it raises every
    error, duplicates included, so messages and line numbers are those of a
    row-at-a-time reader, whatever the CPU count and whichever chunk
    finishes first.
    """
    grids = _Grids()
    with open(path, "rb") as raw:
        read = _read_plain_chunks(raw, grids) and grids.finish()
    if not read:
        grids = _Grids()                      # the bulk parse's grids go back
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataParseError("line 1: empty file") from None
            if header != CONSUMPTION_HEADER:
                raise DataParseError(f"line 1: expected header {','.join(CONSUMPTION_HEADER)}")
            _read_rows(reader, 2, grids)
        read = grids.finish()
    dates, kwh, tariff = read
    ids = list(grids.index_of)
    coverage = {hid: (tariff[i] >= 0).sum() / tariff[i].size for i, hid in enumerate(ids)}
    flagged = [hid for hid in ids if coverage[hid] < COVERAGE_THRESHOLD]
    if flagged:
        warnings.warn(f"{len(flagged)} household(s) below {COVERAGE_THRESHOLD:.0%} coverage")
    return ConsumptionData(ids, grids.groups, dates, kwh, tariff, coverage, flagged)


def read_temperature_csv(path):
    """Parse an hourly timestamp,temp_c CSV; timestamps strictly increasing."""
    timestamps = []
    temps = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataParseError("line 1: empty file") from None
        if header != TEMPERATURE_HEADER:
            raise DataParseError(f"line 1: expected header {','.join(TEMPERATURE_HEADER)}")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise DataParseError(f"line {line_no}: expected 2 fields, got {len(row)}")
            ts = _parse_timestamp(row[0], line_no)
            if ts.minute != 0:
                raise DataValidationError(f"line {line_no}: temperature not on the hour")
            try:
                value = float(row[1])
            except ValueError:
                raise DataParseError(f"line {line_no}: bad temp_c value {row[1]!r}") from None
            if not math.isfinite(value):
                raise DataValidationError(f"line {line_no}: non-finite temperature")
            if timestamps and ts <= timestamps[-1]:
                raise DataValidationError(f"line {line_no}: timestamps not increasing")
            timestamps.append(ts)
            temps.append(value)
    if not timestamps:
        raise DataValidationError("no temperature rows")
    return TemperatureSeries(timestamps, np.asarray(temps))


@contextlib.contextmanager
def replacing(path, mode="w"):
    """replacing_all of one file, opened: the temporary file beside path is
    renamed over path on a clean exit; if the block raises, it goes and path
    is untouched."""
    with replacing_all([path]) as (tmp,):
        with open(tmp, mode, newline=None if "b" in mode else "") as fh:
            yield fh


@contextlib.contextmanager
def replacing_all(paths):
    """Temporary paths beside paths for the block to write; each is renamed
    over its target only after the block has written all of them. If the
    block raises, the temporary files go and every target is untouched."""
    tmps = [os.path.join(head, f".{name}.{os.getpid()}.tmp")
            for head, name in map(os.path.split, map(os.fspath, paths))]
    try:
        yield tmps
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    finally:
        for tmp in tmps:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)


def write_csv(path, header, rows):
    """A header row (none if None), then rows streamed from any iterable; floats by repr."""
    with replacing(path) as fh:
        writer = csv.writer(fh)
        if header is not None:
            writer.writerow(header)
        writer.writerows(rows)


def read_csv(path, header, error):
    """The rows after header as string lists; error, naming path, if the header differs."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        found = next(reader, None)
        if found != header:
            what = "empty file" if found is None else f"header {','.join(found)}"
            raise error(f"{path}: {what}, expected header {','.join(header)}")
        return list(reader)


def temperature_grid(series, dates):
    """Interpolate hourly readings onto the (T, 48) half-hour grid.

    Each half-hour takes the linearly interpolated value at its start
    instant; instants outside the reading range clamp to the ends.
    """
    base = datetime.datetime.combine(dates[0], datetime.time())
    src = np.array([(ts - base).total_seconds() for ts in series.timestamps])
    n_days = len(dates)
    starts = np.arange(n_days * HALF_HOURS) * 1800.0
    grid = np.interp(starts, src, series.temp_c)
    return grid.reshape(n_days, HALF_HOURS)


def _missing_runs(observed_flat):
    idx = np.flatnonzero(~observed_flat)
    if idx.size == 0:
        return []
    return np.split(idx, np.where(np.diff(idx) != 1)[0] + 1)


def _nearest_observed_day(observed_col, t):
    """Nearest day index with an observation in this half-hour column, ties earlier."""
    days = np.flatnonzero(observed_col)
    if days.size == 0:
        return None
    return int(days[np.argmin(np.abs(days - t))])


def repair_household(kwh):
    """Fill the unobserved (NaN) slots of one household's (T, 48) grid.

    Gaps shorter than a day interpolate linearly along the flattened series.
    Day-long or edge gaps interpolate the same half-hour across the nearest
    observed days (copying when only one side exists). A household with no
    observations at all cannot be repaired.
    """
    observed = ~np.isnan(kwh)
    if not observed.any():
        raise UnrecoverableDataError("household has no observations")
    out = kwh.copy()
    flat = out.ravel()
    obs = observed.ravel()
    n = flat.size
    day_cells = []
    for run in _missing_runs(obs):
        left = run[0] - 1
        right = run[-1] + 1
        if left >= 0 and right < n and len(run) < HALF_HOURS:
            flat[run] = np.interp(run, [left, right], [flat[left], flat[right]])
        else:
            day_cells.extend(run.tolist())
    leftovers = []
    for cell in day_cells:
        t, h = divmod(cell, HALF_HOURS)
        col = observed[:, h]
        days = np.flatnonzero(col)
        if days.size == 0:
            leftovers.append(cell)
            continue
        prev = days[days < t]
        nxt = days[days > t]
        if prev.size and nxt.size:
            p, q = prev[-1], nxt[0]
            flat[cell] = np.interp(t, [p, q], [out[p, h], out[q, h]])
        else:
            flat[cell] = out[_nearest_observed_day(col, t), h]
    if leftovers:
        # half-hour never observed on any day: fall back to interpolation
        # along the flattened series between the nearest observed slots
        anchors = np.flatnonzero(obs)
        flat[leftovers] = np.interp(leftovers, anchors, flat[anchors])
    return out


def repair_tariffs(tariff):
    """Fill the unobserved (-1) codes of one household's (T, 48) tariff grid
    from the nearest observed day at the same half-hour (ties to the earlier
    day); NORMAL if never observed."""
    out = tariff.copy()
    for t, h in np.argwhere(tariff < 0):
        src = _nearest_observed_day(tariff[:, h] >= 0, t)
        out[t, h] = NORMAL if src is None else tariff[src, h]
    return out


@dataclass
class SmoothedTemperature:
    grid: np.ndarray    # (T, 48) exponentially smoothed
    daily: np.ndarray   # (T,) daily means of the smoothed grid


def smooth_temperature(tau, a=DEFAULT_SMOOTHING):
    """Exponential smoothing along the flattened half-hour series.

    bar[0] = tau[0]; bar[k] = (1 - a) * tau[k] + a * bar[k-1].
    """
    if not 0.0 <= a < 1.0:
        raise ConfigError(f"smoothing constant a={a!r} outside [0, 1)")
    tau = np.asarray(tau, dtype=float)
    flat = tau.ravel()
    bar = np.empty_like(flat)
    bar[0] = flat[0]
    for k in range(1, flat.size):
        bar[k] = (1.0 - a) * flat[k] + a * bar[k - 1]
    grid = bar.reshape(tau.shape)
    return SmoothedTemperature(grid, grid.mean(axis=1))


@dataclass
class Calendar:
    w: np.ndarray       # (T,) 1 on working days (Mon-Fri), 0 otherwise
    kappa: np.ndarray   # (T,) linear day-of-range position in [0, 1]


def build_calendar(dates):
    w = np.array([1.0 if d.weekday() < 5 else 0.0 for d in dates])
    n = len(dates)
    kappa = np.zeros(1) if n == 1 else np.arange(n) / (n - 1)
    return Calendar(w, kappa)


@dataclass
class TemperaturePca:
    mean: np.ndarray          # (49,)
    components: np.ndarray    # (3, 49), sign-fixed
    explained: np.ndarray     # (3,) variance ratios, non-increasing
    score_min: np.ndarray     # (3,) training score bounds
    score_max: np.ndarray

    def transform(self, rows):
        """Project onto the components and rescale by the training bounds."""
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        scores = (rows - self.mean) @ self.components.T
        return (scores - self.score_min) / (self.score_max - self.score_min)


def fit_temperature_pca(rows):
    """PCA of daily temperature trajectories (48 half-hours + smoothed daily).

    Keeps the first three components; each component's largest-magnitude
    loading is made positive so the decomposition is reproducible.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[0] < 4:
        raise DataValidationError("need at least 4 training days for the temperature PCA")
    if not np.isfinite(rows).all():
        raise DataValidationError("non-finite temperature trajectory")
    mean = rows.mean(axis=0)
    centered = rows - mean
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    tol = s[0] * max(rows.shape) * np.finfo(float).eps if s.size else 0.0
    rank = int((s > tol).sum())
    if rank < 3:
        raise DataValidationError(f"temperature matrix rank {rank} < 3")
    components = vt[:3].copy()
    for comp in components:
        if comp[np.argmax(np.abs(comp))] < 0:
            comp *= -1.0
    explained = s[:3] ** 2 / (s**2).sum()
    scores = centered @ components.T
    return TemperaturePca(
        mean=mean,
        components=components,
        explained=explained,
        score_min=scores.min(axis=0),
        score_max=scores.max(axis=0),
    )


@dataclass
class DayPartition:
    train: np.ndarray   # sorted day indices
    test: np.ndarray
    fraction: float
    seed: int


def partition_days(n_days, fraction, seed):
    """Seeded random split into floor(fraction * n_days) training days."""
    if not 0.0 < fraction < 1.0:
        raise ConfigError(f"train fraction {fraction!r} outside (0, 1)")
    n_train = int(fraction * n_days)
    if n_train < 1 or n_train >= n_days:
        raise ConfigError(f"fraction {fraction!r} leaves an empty split for {n_days} days")
    perm = np.random.default_rng(seed).permutation(n_days)
    return DayPartition(
        train=np.sort(perm[:n_train]),
        test=np.sort(perm[n_train:]),
        fraction=float(fraction),
        seed=int(seed),
    )


def _conditionals(pca_scores, kappa, w, tariffs):
    """The CVAE's day conditionals (D, 101) from pca_scores (D, 3), kappa (D,),
    w (D,) and tariffs (D, 48): the 3 scaled PCA scores, kappa, w, then the
    Low and High indicator blocks over the 48 half-hours."""
    return np.hstack([pca_scores, kappa[:, None], w[:, None], tariffs == LOW,
                      tariffs == HIGH]).astype(float, copy=False)


def build_conditional_vector(pca_scores, kappa, w, tariffs):
    """One day's conditional (101,): the one-row case of
    PreparedDataset.conditional_matrix's layout."""
    pca_scores = np.asarray(pca_scores, dtype=float)
    tariffs = np.asarray(tariffs)
    if pca_scores.shape != (3,):
        raise ValueError("expected 3 PCA scores")
    if tariffs.shape != (HALF_HOURS,):
        raise ValueError(f"expected {HALF_HOURS} tariff codes")
    return _conditionals(pca_scores[None], np.array([float(kappa)]), np.array([float(w)]),
                         tariffs[None])[0]


@dataclass
class PreparedDataset:
    """Repaired grids plus every derived feature the models consume."""

    household_ids: list
    groups: list
    kwh: np.ndarray            # (n, T, 48)
    tariff: np.ndarray         # (n, T, 48) int8
    dates: list
    tau: np.ndarray            # (T, 48)
    tau_bar: np.ndarray        # (T, 48)
    tau_bar_daily: np.ndarray  # (T,)
    calendar: Calendar
    pca: TemperaturePca
    pca_scores: np.ndarray     # (T, 3) scaled scores for all days
    partition: DayPartition
    flagged: list
    smoothing_a: float

    @property
    def n_days(self):
        return len(self.dates)

    def conditional_matrix(self, days, tariffs):
        """Day conditionals (D, 101) for days (D,) under tariffs (D, 48); row
        d is build_conditional_vector of days[d] under tariffs[d]."""
        tariffs = np.asarray(tariffs)
        if tariffs.shape != (len(days), HALF_HOURS):
            raise ValueError(f"expected {len(days)} x {HALF_HOURS} tariff codes")
        return _conditionals(self.pca_scores[days], self.calendar.kappa[days],
                             self.calendar.w[days], tariffs)


def prepare_dataset(consumption, temperature, smoothing_a=DEFAULT_SMOOTHING,
                    train_fraction=0.75, seed=0):
    """Repair, smooth, featurize and partition an ingested dataset.

    Households flagged for low coverage are dropped here (their ids stay in
    .flagged), and the gaps of the others are repaired. The repair is made
    in the consumption's own grids, which become the dataset's: each kept
    household moves down over the flagged ones before it, so consumption
    is spent. The temperature PCA is fit on training days only.
    """
    kept = [i for i, hid in enumerate(consumption.household_ids)
            if hid not in consumption.flagged]
    if not kept:
        raise UnrecoverableDataError("no household passes the coverage threshold")
    kwh, tariff = consumption.kwh, consumption.tariff
    # one household at a time, so one household's repaired copy is alive beside
    # the grids; row <= i, so no household is overwritten before it is read
    for row, i in enumerate(kept):
        kwh[row] = repair_household(kwh[i])
        tariff[row] = repair_tariffs(tariff[i])
    tau = temperature_grid(temperature, consumption.dates)
    smoothed = smooth_temperature(tau, smoothing_a)
    calendar = build_calendar(consumption.dates)
    partition = partition_days(len(consumption.dates), train_fraction, seed)
    trajectories = np.column_stack([tau, smoothed.daily])
    pca = fit_temperature_pca(trajectories[partition.train])
    return PreparedDataset(
        household_ids=[consumption.household_ids[i] for i in kept],
        groups=[consumption.groups[i] for i in kept],
        kwh=kwh[:len(kept)],
        tariff=tariff[:len(kept)],
        dates=list(consumption.dates),
        tau=tau,
        tau_bar=smoothed.grid,
        tau_bar_daily=smoothed.daily,
        calendar=calendar,
        pca=pca,
        pca_scores=pca.transform(trajectories),
        partition=partition,
        flagged=list(consumption.flagged),
        smoothing_a=float(smoothing_a),
    )


PREPARED_KEYS = ("household_ids", "groups", "kwh", "tariff", "dates", "tau", "tau_bar",
                 "tau_bar_daily", "w", "kappa", "pca_mean", "pca_components", "pca_explained",
                 "pca_score_min", "pca_score_max", "pca_scores", "train", "test", "fraction",
                 "seed", "flagged", "smoothing_a")


def _write_npy(fh, array):
    """Write what np.save writes for array to fh, its data straight from
    memory, _WRITE_BYTES at a time, where np.save copies up to 16 MiB of it
    into bytes first. For arrays whose header fits format 1.0 (ValueError
    for a longer one) and whose dtype holds no objects."""
    header = np.lib.format.header_data_from_array_1_0(array)
    np.lib.format.write_array_header_1_0(fh, header)
    data = np.ascontiguousarray(array.T if header["fortran_order"] else array)
    data = data.reshape(-1).view(np.uint8)
    for start in range(0, data.size, _WRITE_BYTES):
        fh.write(data[start:start + _WRITE_BYTES])


def save_prepared(dataset, path):
    """Write dataset to path as an npz file, byte for byte what np.savez
    writes for its PREPARED_KEYS arrays; each array goes in through
    _write_npy, so none is copied whole on the way."""
    arrays = {
        "household_ids": np.array(dataset.household_ids),
        "groups": np.array(dataset.groups),
        "kwh": dataset.kwh,
        "tariff": dataset.tariff,
        "dates": np.array([d.isoformat() for d in dataset.dates]),
        "tau": dataset.tau,
        "tau_bar": dataset.tau_bar,
        "tau_bar_daily": dataset.tau_bar_daily,
        "w": dataset.calendar.w,
        "kappa": dataset.calendar.kappa,
        "pca_mean": dataset.pca.mean,
        "pca_components": dataset.pca.components,
        "pca_explained": dataset.pca.explained,
        "pca_score_min": dataset.pca.score_min,
        "pca_score_max": dataset.pca.score_max,
        "pca_scores": dataset.pca_scores,
        "train": dataset.partition.train,
        "test": dataset.partition.test,
        "fraction": np.array(dataset.partition.fraction),
        "seed": np.array(dataset.partition.seed),
        "flagged": np.array(dataset.flagged, dtype=str),
        "smoothing_a": np.array(dataset.smoothing_a),
    }
    # uncompressed, as np.savez writes: every later stage loads this file, and
    # zlib cost more time than the ~45% it saves in size is worth
    with replacing(path, "wb") as fh, zipfile.ZipFile(fh, "w", allowZip64=True) as npz:
        for key, value in arrays.items():
            with npz.open(key + ".npy", "w", force_zip64=True) as member:
                _write_npy(member, np.asanyarray(value))


def check_shapes(path, arrays, shapes, error, stage):
    """error, naming path, for the first key of shapes whose array in arrays
    has another shape; the stage named is the one that rewrites the file."""
    for key, shape in shapes.items():
        if np.shape(arrays[key]) != shape:
            raise error(f"{path}: {key} has shape {np.shape(arrays[key])}, expected {shape}; "
                        f"rerun `drsim {stage} --force`")


def load_prepared(path):
    """The dataset that save_prepared wrote to path. DataValidationError,
    naming path, for a missing key, arrays whose shapes disagree with the
    household ids and dates, or train/test days outside the record."""
    rerun = "rerun `drsim ingest --force`"
    with np.load(path, allow_pickle=False) as z:
        missing = [key for key in PREPARED_KEYS if key not in z.files]
        if missing:
            raise DataValidationError(f"{path}: missing {', '.join(missing)}; {rerun}")
        arrays = {key: z[key] for key in PREPARED_KEYS}
    n, t = (len(np.atleast_1d(arrays[key])) for key in ("household_ids", "dates"))
    shapes = {"household_ids": (n,), "groups": (n,), "dates": (t,),
              "kwh": (n, t, HALF_HOURS), "tariff": (n, t, HALF_HOURS),
              "tau": (t, HALF_HOURS), "tau_bar": (t, HALF_HOURS), "tau_bar_daily": (t,),
              "w": (t,), "kappa": (t,), "pca_scores": (t, 3)}
    check_shapes(path, arrays, shapes, DataValidationError, "ingest")
    for key in ("train", "test"):
        days = arrays[key]
        if days.ndim != 1 or days.dtype.kind not in "iu" or not ((0 <= days) & (days < t)).all():
            raise DataValidationError(
                f"{path}: {key} holds day indices outside 0..{t - 1}; {rerun}")
    return PreparedDataset(
        household_ids=[str(s) for s in arrays["household_ids"]],
        groups=[str(s) for s in arrays["groups"]],
        kwh=arrays["kwh"],
        tariff=arrays["tariff"],
        dates=[datetime.date.fromisoformat(str(s)) for s in arrays["dates"]],
        tau=arrays["tau"],
        tau_bar=arrays["tau_bar"],
        tau_bar_daily=arrays["tau_bar_daily"],
        calendar=Calendar(arrays["w"], arrays["kappa"]),
        pca=TemperaturePca(
            mean=arrays["pca_mean"],
            components=arrays["pca_components"],
            explained=arrays["pca_explained"],
            score_min=arrays["pca_score_min"],
            score_max=arrays["pca_score_max"],
        ),
        pca_scores=arrays["pca_scores"],
        partition=DayPartition(
            train=arrays["train"],
            test=arrays["test"],
            fraction=float(arrays["fraction"]),
            seed=int(arrays["seed"]),
        ),
        flagged=[str(s) for s in arrays["flagged"]],
        smoothing_a=float(arrays["smoothing_a"]),
    )
