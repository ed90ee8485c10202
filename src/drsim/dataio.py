"""Ingestion and feature construction for half-hourly consumption data.

Consumption CSVs carry one row per (household, half-hour) with columns
household_id,timestamp,kwh,tariff,group; temperature CSVs carry hourly
timestamp,temp_c rows. Half-hour h in 1..48 covers [(h-1)/2, h/2) hours of
the day. Tariffs are LOW/NORMAL/HIGH for time-of-use households and FLAT for
standard ones; FLAT maps to NORMAL internally so every series lives on the
same three-level code.

read_consumption_csv reads the file once, as long as it is when the read
starts, in chunks of about 1 MB of lines parsed on the usable CPUs and
merged in file order: by numpy when a chunk is plain (ASCII without quotes,
NUL or lone CR, 5 fields a line, no field wider than the keys) and passes
every check, else by the csv module. Each chunk's rows go straight into the
(n, T, 48) kWh and tariff grids that are returned, NaN and -1 where no row
holds the cell; faults, duplicates among them, name the earliest line.
prepare_dataset repairs those grids in place and adds the features;
save_prepared writes each array into the npz from memory.

Run artifacts are written through replacing (CSVs through write_csv), so a
file appears whole or not at all; replacing_all does the same for a set of
files that must appear together. read_csv reads them back, header checked.
"""

import contextlib
import csv
import datetime
import io
import itertools
import locale
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

_CHUNK_BYTES = 1 << 20  # bytes of a consumption file whose lines make one chunk
_KEY_BYTES = 32         # widest field the numpy parse takes; a wider one goes to the csv module
_WRITE_BYTES = 1 << 20  # bytes of an array save_prepared hands to the npz file at a time
# anonymous mappings private to the process, where mmap can make them
_PRIVATE = {"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE") else {}
_HEADER_LINE = ",".join(CONSUMPTION_HEADER).encode()
_KWH_BYTES = np.zeros(256, dtype=bool)        # bytes a kwh field may hold in the numpy parse,
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


def _numbered(exc, line_no):
    """exc, raised by the checks of a row on line line_no, with that line
    before its message; a csv.Error or UnicodeDecodeError names none."""
    if isinstance(exc, (DataParseError, DataValidationError)):
        return type(exc)(f"line {line_no}: {exc}")
    return exc


def _parse_timestamp(text):
    try:
        ts = datetime.datetime.fromisoformat(text)
    except ValueError:
        raise DataParseError(f"bad timestamp {text!r}") from None
    if ts.second or ts.microsecond or ts.tzinfo is not None:
        raise DataValidationError(f"timestamp {text!r} not on the half-hour grid")
    return ts


def _half_hour(text):
    """A consumption timestamp's half-hour: its day's ordinal times 48 plus
    its half-hour of the day."""
    ts = _parse_timestamp(text)
    if ts.minute not in (0, 30):
        raise DataValidationError(f"timestamp {text!r} not on the half-hour grid")
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
    groups, and the (households, days, 48) kWh and tariff grids, in C order
    on mappings of their own (_map), tariff codes stored +1 so that cells no
    row wrote read 0 and their untouched pages take no memory. A new
    household extends them at the end (mmap.resize: mremap moves no data);
    a day outside them lays them out again with room for as many days again
    on that side, so a file in timestamp order is laid out a few times.
    """

    DTYPES = (np.float64, np.int8)

    def __init__(self):
        self.index_of = {}              # household id -> index, in order of first appearance
        self.groups = []
        self.maps = [_map(0), _map(0)]  # the kWh and tariff grids' mappings
        self.n = 0                      # households laid out
        self.start = self.days = 0      # ordinal of the grids' first day; days laid out
        self.first = self.last = None   # ordinals of the first and last day read

    def grids(self):
        """The kWh and tariff grids, (n, days, 48) views of the mappings."""
        shape = (self.n, self.days, HALF_HOURS)
        return [np.frombuffer(buf, dtype, math.prod(shape)).reshape(shape)
                for buf, dtype in zip(self.maps, self.DTYPES)]

    def _nbytes(self, n, days):
        return [n * days * HALF_HOURS * np.dtype(dtype).itemsize for dtype in self.DTYPES]

    def add(self, household, half_hour, kwh, code):
        """Write rows (columns: household index, half-hour, kWh, tariff code)
        into the grids, grown to every household and day, and return None;
        if a cell of the rows holds a reading, write none, return that row."""
        if not household.size:
            return None
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
        taken = np.flatnonzero(tariff_grid.reshape(-1)[cells])   # codes are stored +1
        if taken.size:
            return int(taken[0])
        kwh_grid.reshape(-1)[cells] = kwh
        tariff_grid.reshape(-1)[cells] = code + 1
        return None

    def finish(self):
        """(dates, kwh, tariff) of the rows added, the grids cut to the days
        read. The cells no row holds are NaN in kwh and -1 in tariff."""
        if self.first is None:
            raise DataValidationError("no data rows")
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


def _split_chunk(buf, size):
    """Cut buf[:size], whole lines ending in a LF, into fields: None if the
    lines are not plain, else the number of lines and the five fields of the
    rows, each an array of NUL-padded bytes (none if every line is blank).
    buf holds at least _KEY_BYTES bytes past the lines, of any value, and
    its last size bytes are scratch space.
    """
    if buf.find(b'"', 0, size) >= 0 or buf.find(b"\0", 0, size) >= 0:
        return None
    a = np.frombuffer(buf, np.uint8)
    chunk, mask = a[:size], a[len(a) - size:].view(bool)
    if chunk.max() >= 0x80:
        return None
    line_end = np.flatnonzero(np.equal(chunk, ord("\n"), out=mask))
    crlf = chunk[line_end - 1] == ord("\r")  # chunk[-1], a LF, for a blank first line
    if np.count_nonzero(np.equal(chunk, ord("\r"), out=mask)) != np.count_nonzero(crlf):
        return None                          # a lone CR
    line_start = np.r_[0, line_end[:-1] + 1]
    line_end -= crlf
    blank = line_start == line_end
    lines, n_rows = blank.size, blank.size - np.count_nonzero(blank)
    if not n_rows:
        return lines, ()
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

    return lines, [field(j) for j in range(5)]


class _ChunkState:
    """What a process keeps from one chunk it parses to the next: the
    timestamp texts a numpy parse has met, sorted, and their half-hours, so
    that each distinct text is parsed once, and the buffer plain chunks are
    read into."""

    def __init__(self):
        self.keys, self.half_hours = np.array([], dtype="S1"), np.array([], np.int32)
        self.texts = {}     # for the csv module: timestamp text -> half-hour
        self.buf = b""

    def buffer(self, size):
        """A private anonymous mapping of at least size bytes, holding what
        the last chunk left there. The process maps it on its first chunk,
        with room to grow, and keeps it for the next: fresh memory for each
        chunk cost page faults or left freed heap resident."""
        if len(self.buf) < size:
            self.buf = mmap.mmap(-1, 2 * size, **_PRIVATE)
        return self.buf

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
            new = np.array([_half_hour(text) for text in _decoded(new_keys)], np.int32)
        except ValueError:
            return None
        half_hour[unknown] = new[new_id]
        if new_keys.size:
            keys = np.concatenate([self.keys, new_keys])
            order = np.argsort(keys)
            self.keys, self.half_hours = keys[order], np.concatenate([self.half_hours, new])[order]
        return half_hour


def _first_repeat(household, half_hour):
    """The first row whose (household, half_hour) cell an earlier row holds,
    or None. Rows in cell order need no sort: their keys increase."""
    key = household.astype(np.int64) * (int(half_hour.max(initial=0)) + 1) + half_hour
    if (key[1:] > key[:-1]).all():
        return None
    order = np.argsort(key, kind="stable")   # equal keys keep their row order
    repeats = order[1:][np.diff(key[order]) == 0]
    return int(repeats.min()) if repeats.size else None


def _line_start(fh, at, size):
    """The offset of the first line start at or after at in the file fh (0,
    or just past a LF), or size, where the read ends, if that comes first."""
    if not at:
        return 0
    fh.seek(at - 1)
    fh.readline()
    return min(fh.tell(), size)


def _parse_plain(fh, start, first, end, state):
    """_parse_chunk by numpy for a plain chunk whose rows pass every check
    but the one for repeats; None for any other."""
    lines = 0
    if not start:                               # the header's line, as csv.writer writes it
        fh.seek(0)
        head = fh.readline(min(len(_HEADER_LINE) + 2, end))
        if head not in (_HEADER_LINE + b"\n", _HEADER_LINE + b"\r\n"):
            return None
        first, lines = len(head), 1
    buf = state.buffer(2 * (end - first + 1) + _KEY_BYTES)   # lines, _KEY_BYTES, scratch space
    fh.seek(first)
    size = fh.readinto(memoryview(buf)[:end - first])
    if size and buf[size - 1] != ord("\n"):
        buf[size] = ord("\n")                  # the file's last line has no line end: give it one
        size += 1
    split = _split_chunk(buf, size) if size else (0, ())
    if split is None:
        return None
    lines += split[0]
    if not split[1]:
        return lines, (), None, None
    hid, ts, kwh_text, tariff, group = split[1]
    tariff_rows, tariff_id = _distinct(tariff)
    codes = [TARIFF_CODES.get(t) for t in _decoded(tariff[tariff_rows])]
    group_rows, group_id = _distinct(group)
    names = _decoded(group[group_rows])
    if None in codes or not set(names) <= set(GROUPS):
        return None
    hh_rows, hh_id = _distinct(hid)
    hh_group = group_id[hh_rows]
    if (group_id != hh_group[hh_id]).any():
        return None                             # a household changes group inside the chunk
    half_hour = state.half_hours_of(ts)
    if half_hour is None or not _KWH_BYTES[kwh_text.view(np.uint8)].all():
        return None
    try:
        # the cast ignores trailing NULs; the byte check keeps out whitespace,
        # underscores, inf and nan, so what it parses is what float() parses
        kwh = kwh_text.astype(np.float64)
    except ValueError:
        return None
    if not ((kwh >= 0.0) & (kwh < math.inf)).all():
        return None
    rows = (_decoded(hid[hh_rows]), [names[g] for g in hh_group.tolist()], hh_id, half_hour, kwh,
            np.array(codes, np.int8)[tariff_id])
    return lines, rows, _first_repeat(hh_id, half_hour), None


def _parse_csv_chunk(fh, start, first, end, texts):
    """_parse_chunk by the csv module for any chunk: its lines, however long,
    decoded as open(path, newline="") decodes them, each row checked up to
    the first faulty one. No field may hold a line break: a chunk may cut it.
    texts maps the timestamp texts met in the process to their half-hours."""
    fh.seek(first)
    data = fh.read(end - first)
    encoding = locale.getpreferredencoding(False)
    try:
        text, undecodable = data.decode(encoding), None
    except UnicodeDecodeError as exc:           # a fault of its line, placed in that line
        line = max(data.rfind(b"\n", 0, exc.start), data.rfind(b"\r", 0, exc.start)) + 1
        text, undecodable = data[:line].decode(encoding), UnicodeDecodeError(
            exc.encoding, data[line:exc.end], exc.start - line, exc.end - line, exc.reason)
    index_of, groups, cells = {}, [], []      # household id -> index; per row its cell
    reader = csv.reader(io.StringIO(text, newline=""))
    k, fault = -1, None
    try:
        for k, row in enumerate(reader):
            if not (start or k):
                if row != CONSUMPTION_HEADER:
                    raise DataParseError(f"expected header {','.join(CONSUMPTION_HEADER)}")
                continue
            if not row:
                continue
            # a row on more lines than one, or cut by the chunk's end: a quoted line break
            if reader.line_num != k + 1 or row[-1][-1:] in ("\n", "\r"):
                raise DataParseError("field holds a line break")
            if len(row) != 5:
                raise DataParseError(f"expected 5 fields, got {len(row)}")
            hid, ts_text, kwh_text, tariff, group = row
            half_hour = texts.get(ts_text)
            if half_hour is None:
                half_hour = texts[ts_text] = _half_hour(ts_text)
            try:
                kwh = float(kwh_text)
            except ValueError:
                raise DataParseError(f"bad kwh value {kwh_text!r}") from None
            if not 0.0 <= kwh < math.inf:
                raise DataValidationError(
                    f"negative kwh {kwh!r}" if math.isfinite(kwh) else "non-finite kwh")
            code = TARIFF_CODES.get(tariff)
            if code is None:
                raise DataValidationError(f"unknown tariff {tariff!r} "
                                          f"(expected one of {', '.join(sorted(TARIFF_CODES))})")
            if group not in GROUPS:
                raise DataValidationError(f"unknown group {group!r}")
            index = index_of.setdefault(hid, len(groups))
            if index == len(groups):
                groups.append(group)
            elif groups[index] != group:
                raise DataValidationError(
                    f"household {hid} changes group {groups[index]} -> {group}")
            cells.append((index, half_hour, kwh, code))
        if undecodable:
            fault = k + 1, undecodable
    except csv.Error as exc:                    # raised while reading row k + 1
        fault = k + 1, exc
    except (DataParseError, DataValidationError) as exc:
        fault = k, exc
    cells = np.array(cells, "intc,int32,float64,int8")   # household, half-hour, kWh, code
    columns = [cells[name] for name in cells.dtype.names]
    rows = (list(index_of), groups, *columns) if cells.size else ()
    return k + 1, rows, _first_repeat(*columns[:2]), fault


def _parse_chunk(path, start, stop, size, state):
    """Parse the lines of the consumption file at path that start in bytes
    [start, stop), the header's if start is 0, reading no byte past size,
    where a line it cuts ends: by numpy if they are plain and pass every
    check (_parse_plain), else by the csv module (_parse_csv_chunk). Runs
    in a pool worker or in-process; opens the file.

    Returns (end, lines, rows, repeat, fault): end, the first line start at
    or after stop, or size if that comes first; lines, the chunk's csv rows,
    blank ones included; rows, () or (households, groups, household,
    half_hour, kwh, code) for the rows before the first fault: household
    ids and groups by first appearance, then per row its household's index
    among them (intc), half-hour (int32), kWh (float64) and tariff code
    (int8); repeat, the first of these rows whose cell an earlier one holds,
    or None; fault, None or (k, error) for the first faulty row, the
    chunk's csv row k, the error not yet numbered (_numbered). state is
    the process's _ChunkState.
    """
    with open(path, "rb") as fh:
        first, end = _line_start(fh, start, size), _line_start(fh, stop, size)
        return end, *(_parse_plain(fh, start, first, end, state)
                      or _parse_csv_chunk(fh, start, first, end, state.texts))


def _merge_chunk(grids, rows, repeat):
    """Add a chunk's rows (see _parse_chunk) to grids, numbering its new
    households after those read before, and return None; or return the
    first row whose household changes group or whose cell another row
    holds (repeat, or a cell written before), leaving grids to be dropped."""
    if not rows:
        return None
    households, groups, household, *columns = rows
    index, stop = [], household.size if repeat is None else repeat
    for h, (hid, group) in enumerate(zip(households, groups)):
        i = grids.index_of.setdefault(hid, len(grids.groups))
        if i == len(grids.groups):
            grids.groups.append(group)
        elif grids.groups[i] != group:
            stop = min(stop, int(np.argmax(household == h)))   # the household's first row
        index.append(i)
    taken = grids.add(np.array(index, np.intc)[household[:stop]], *(c[:stop] for c in columns))
    return taken if taken is not None or stop == household.size else stop


def _data_row(path, first, end, j):
    """(k, row): data row j of the chunk in bytes [first, end) of the file
    at path, read again by the csv module, and k its csv row in the chunk."""
    with open(path, "rb") as fh:
        fh.seek(first)
        data = fh.read(end - first)
    # a byte that cannot be decoded lies past the rows merged; a stand-in keeps the rows apart
    text = data.decode(locale.getpreferredencoding(False), "replace")
    rows = enumerate(csv.reader(io.StringIO(text, newline="")))
    data_rows = ((k, row) for k, row in rows if row and (k or first))   # not the header
    return next(itertools.islice(data_rows, j, None))


def _read_chunks(path, grids):
    """Read the consumption file at path, as long as it is now, into grids,
    its chunks parsed on the usable CPUs and merged in file order, and
    return how many csv rows it holds; raise the fault of the earliest line."""
    size, state = os.stat(path).st_size, _ChunkState()
    parsed = parallel.imap_forked(
        lambda start: _parse_chunk(path, start, start + _CHUNK_BYTES, size, state),
        range(0, size, _CHUNK_BYTES))
    line = end = 0                  # csv rows merged; where the next chunk's lines start
    with contextlib.closing(parsed):
        for result in parsed:
            first, (end, lines, rows, repeat, fault) = end, result
            bad = _merge_chunk(grids, rows, repeat)
            if bad is not None:
                k, (hid, ts_text, *_, group) = _data_row(path, first, end, bad)
                was = grids.groups[grids.index_of[hid]]
                fault = k, DataValidationError(
                    f"household {hid} changes group {was} -> {group}" if was != group
                    else f"duplicate reading for {hid} at {ts_text}")
            if fault:
                raise _numbered(fault[1], line + fault[0] + 1)
            line += lines
    return line


def read_consumption_csv(path):
    """Parse and validate a consumption CSV into (n, T, 48) grids, one row
    per household in order of first appearance, NaN in kwh and -1 in tariff
    where no row holds the cell.

    Households with less than 95% slot coverage over the file's date range
    are listed in .flagged (they stay in the grids; prepare_dataset drops
    them). Raises DataParseError / DataValidationError with the offending
    line (csv rows from the header's, line 1, blank ones included); of
    several faults the earliest line's wins, whichever chunk finishes first.
    The file is read once, in chunks (_read_chunks), as long as it is when
    the read starts.
    """
    grids = _Grids()
    if not _read_chunks(path, grids):
        raise DataParseError("line 1: empty file")
    dates, kwh, tariff = grids.finish()
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
            try:
                if len(row) != 2:
                    raise DataParseError(f"expected 2 fields, got {len(row)}")
                ts = _parse_timestamp(row[0])
                if ts.minute != 0:
                    raise DataValidationError("temperature not on the hour")
                try:
                    value = float(row[1])
                except ValueError:
                    raise DataParseError(f"bad temp_c value {row[1]!r}") from None
                if not math.isfinite(value):
                    raise DataValidationError("non-finite temperature")
                if timestamps and ts <= timestamps[-1]:
                    raise DataValidationError("timestamps not increasing")
            except (DataParseError, DataValidationError) as exc:
                raise _numbered(exc, line_no) from None
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
