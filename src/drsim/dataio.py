"""Ingestion and feature construction for half-hourly consumption data.

Consumption CSVs carry one row per (household, half-hour) with columns
household_id,timestamp,kwh,tariff,group; temperature CSVs carry hourly
timestamp,temp_c rows. Half-hour h in 1..48 covers [(h-1)/2, h/2) hours of
the day. Tariffs are LOW/NORMAL/HIGH for time-of-use households and FLAT for
standard ones; FLAT maps to NORMAL internally so every series lives on the
same three-level code.

read_consumption_csv reads the file in byte chunks of about 1 MB, each cut
at a line end. A plain chunk (ASCII without quotes, NUL or lone CR, 5 fields
on every non-blank line, no field wider than the keys) becomes columns with
numpy: the text fields become ids through packed byte keys, kwh goes through
one bytes -> float64 cast, and every check runs on the whole chunk before
it changes any state. The first chunk that is not plain, or that would fail
a check, hands itself and the rest of the file to the csv row loop, which
alone raises the parse and validation errors, with the messages and line
numbers of a reader that reads every row that way.

Run artifacts are written through replacing (CSVs through write_csv), so a
file appears whole or not at all; replacing_all does the same for a set of
files that must appear together. read_csv reads them back, header checked.
"""

import array
import bisect
import contextlib
import csv
import datetime
import io
import math
import mmap
import os
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

HALF_HOURS = 48
LOW, NORMAL, HIGH = 0, 1, 2
TARIFF_NAMES = ("LOW", "NORMAL", "HIGH")
TARIFF_CODES = {"LOW": LOW, "NORMAL": NORMAL, "HIGH": HIGH, "FLAT": NORMAL}
GROUPS = ("TOU", "STD")

CONSUMPTION_HEADER = ["household_id", "timestamp", "kwh", "tariff", "group"]
TEMPERATURE_HEADER = ["timestamp", "temp_c"]

COVERAGE_THRESHOLD = 0.95
DEFAULT_SMOOTHING = 0.998

_CHUNK_BYTES = 1 << 20  # bytes per bulk read of a consumption file, cut back to a line end
_KEY_BYTES = 32         # widest field the bulk parse takes; a wider one goes to the row loop
_TEXT_BLOCK = 8192      # bytes io.TextIOWrapper decodes at a time (its default _CHUNK_SIZE)
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
class HouseholdData:
    household_id: str
    group: str
    kwh: np.ndarray        # (T, 48), NaN where unobserved
    tariff: np.ndarray     # (T, 48) int8, -1 where unobserved
    observed: np.ndarray   # (T, 48) bool


@dataclass
class ConsumptionData:
    households: list
    dates: list                      # T datetime.date, consecutive
    coverage: dict = field(default_factory=dict)
    flagged: list = field(default_factory=list)   # ids with coverage < threshold

    @property
    def n_days(self):
        return len(self.dates)


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


def _half_hour_slot(text, line_no):
    """(date, half-hour index) of a consumption timestamp."""
    ts = _parse_timestamp(text, line_no)
    if ts.minute not in (0, 30):
        raise DataValidationError(f"line {line_no}: timestamp {text!r} not on the half-hour grid")
    return ts.date(), ts.hour * 2 + ts.minute // 30


def _raise_duplicate(hh_col, text_col, text_slot, index_of, texts, blanks):
    """Raise for the first row whose (household, slot) an earlier row holds.

    Row r came from line r + 2 plus the blank lines read before it; blanks
    holds the number of rows read before each blank line.
    """
    slot = np.asarray(text_slot, dtype=np.int64)[np.frombuffer(text_col, np.intc)]
    key = np.frombuffer(hh_col, np.intc) * np.int64(len(text_slot)) + slot
    order = np.argsort(key, kind="stable")
    repeats = order[1:][key[order[1:]] == key[order[:-1]]]
    if repeats.size:
        row = int(repeats.min())
        line_no = row + 2 + bisect.bisect_right(blanks, row)
        raise DataValidationError(
            f"line {line_no}: duplicate reading for {list(index_of)[hh_col[row]]} "
            f"at {texts[text_col[row]]}"
        ) from None


def _pages(n, dtype):
    """An empty array of n items in pages mapped for it alone, not on the heap:
    its untouched pages take no memory, and all of it goes back to the system
    when it is dropped, where a freed heap block under a live one stays
    resident and raises the peak of later stages."""
    return np.frombuffer(mmap.mmap(-1, max(n * np.dtype(dtype).itemsize, 1)), dtype, n)


class _Columns:
    """What read_consumption_csv has read so far.

    Rows go to four columns: household index, timestamp id, kwh and tariff
    code. The bulk parse writes numpy columns sized ahead from the file size,
    so they do not regrow chunk by chunk; the row loop appends its rows to
    array columns after those.
    """

    DTYPES = (np.intc, np.intc, np.float64, np.int8)

    def __init__(self):
        self.index_of = {}              # household id -> index, in order of first appearance
        self.groups = []
        self.text_ids = {}              # timestamp text -> index into texts
        self.texts, self.text_slot = [], []   # distinct timestamp texts and their slot ids
        self.slots = {}                 # (date, half-hour) -> slot id
        self.bulk = [np.empty(0, dtype) for dtype in self.DTYPES]
        self.n_bulk = 0                 # rows in the bulk columns
        self.loop = [array.array(code) for code in "iidb"]
        self.blanks = []                # rows read before each blank line
        # the bulk parse's timestamp texts as sorted bytes, and their ids
        self.ts_keys, self.ts_key_ids = np.array([], dtype="S1"), np.array([], np.intc)

    def append_bulk(self, columns, expected_rows):
        """Append rows to the bulk columns, first making room for expected_rows
        in all if they are full."""
        end = self.n_bulk + len(columns[0])
        if end > len(self.bulk[0]):
            size = max(end, expected_rows)
            for i, old in enumerate(self.bulk):
                self.bulk[i] = _pages(size, old.dtype)
                self.bulk[i][:self.n_bulk] = old[:self.n_bulk]
        for col, new in zip(self.bulk, columns):
            col[self.n_bulk:end] = new
        self.n_bulk = end

    def truncate(self, rows, blanks):
        """Forget the bulk rows after the first rows and the blank lines after
        the first blanks. Ids stay: rows read again get the same ones."""
        self.n_bulk = rows
        del self.blanks[blanks:]

    def columns(self):
        """The four columns of every row read, as numpy arrays."""
        return [np.concatenate([col[:self.n_bulk], np.frombuffer(more, col.dtype)])
                if more else col[:self.n_bulk] for col, more in zip(self.bulk, self.loop)]

    def raise_duplicate(self):
        hh, text, _, _ = self.columns()
        _raise_duplicate(hh, text, self.text_slot, self.index_of, self.texts, self.blanks)


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

    Returns None if the lines are not plain. Otherwise returns the line
    count, the rows before each blank line, and the five fields of the rows,
    each an array of NUL-padded bytes (none if every line is blank). buf ends
    in _KEY_BYTES bytes past any chunk, the last of them never CR; mask is
    scratch space as long as buf.
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
    rows_before_blank = np.cumsum(~blank)[blank]
    n_lines = blank.size
    n_rows = n_lines - rows_before_blank.size
    if not n_rows:
        return n_lines, rows_before_blank, ()
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

    return n_lines, rows_before_blank, [field(j) for j in range(5)]


def _parse_chunk(buf, size, cols, mask, bytes_left):
    """Append the rows of buf[:size], whole lines, to cols and return its line
    count, or return None and leave cols as they were if those lines are not
    plain or a row in them would fail a check. bytes_left, the bytes of the
    file after the chunk, sizes the columns."""
    split = _split_chunk(buf, size, mask)
    if split is None:
        return None
    n_lines, rows_before_blank, fields = split
    if not fields:
        cols.blanks.extend([cols.n_bulk] * n_lines)
        return n_lines
    hid, ts, kwh_text, tariff, group = fields
    tariff_rows, tariff_id = _distinct(tariff)
    codes = [TARIFF_CODES.get(t) for t in _decoded(tariff[tariff_rows])]
    group_rows, group_id = _distinct(group)
    names = _decoded(group[group_rows])
    if None in codes or not set(names) <= set(GROUPS):
        return None
    hh_rows, hh_id = _distinct(hid)
    hh_group = group_id[hh_rows]
    if (group_id != hh_group[hh_id]).any():
        return None                          # a household changes group inside the chunk
    index, new_households = [], []
    for h, g in zip(_decoded(hid[hh_rows]), hh_group.tolist()):
        i = cols.index_of.get(h)
        if i is None:
            i = len(cols.groups) + len(new_households)
            new_households.append((h, names[g]))
        elif cols.groups[i] != names[g]:
            return None
        index.append(i)

    text_id = np.full(ts.size, -1, np.intc)
    if cols.ts_keys.size:
        at = np.minimum(np.searchsorted(cols.ts_keys, ts), cols.ts_keys.size - 1)
        known = cols.ts_keys[at] == ts
        text_id[known] = cols.ts_key_ids[at[known]]
    unknown = np.flatnonzero(text_id < 0)
    new_rows, new_id = _distinct(ts[unknown])
    new_texts = _decoded(ts[unknown[new_rows]])
    try:
        new_slots = [_half_hour_slot(text, 0) for text in new_texts]
    except ValueError:
        return None
    text_id[unknown] = len(cols.texts) + new_id

    if not _KWH_BYTES[kwh_text.view(np.uint8)].all():
        return None
    try:
        # the cast ignores trailing NULs; the byte check keeps out whitespace,
        # underscores, inf and nan, so what it parses is what float() parses
        kwh = kwh_text.astype(np.float64)
    except ValueError:
        return None
    if not ((kwh >= 0.0) & (kwh < math.inf)).all():
        return None

    for h, group in new_households:
        cols.index_of[h] = len(cols.groups)
        cols.groups.append(group)
    if new_texts:
        keys = np.concatenate([cols.ts_keys, ts[unknown[new_rows]]])
        ids = np.concatenate([cols.ts_key_ids, np.arange(len(new_texts)) + len(cols.texts)])
        order = np.argsort(keys)
        cols.ts_keys, cols.ts_key_ids = keys[order], ids[order].astype(np.intc)
    for text, slot in zip(new_texts, new_slots):
        cols.text_ids[text] = len(cols.texts)
        cols.texts.append(text)
        cols.text_slot.append(cols.slots.setdefault(slot, len(cols.slots)))
    cols.blanks.extend((cols.n_bulk + rows_before_blank).tolist())
    cols.append_bulk((np.array(index, np.intc)[hh_id], text_id, kwh,
                      np.array(codes, np.int8)[tariff_id]),
                     cols.n_bulk + kwh.size + kwh.size * bytes_left // size * 9 // 8)
    return n_lines


def _read_plain_chunks(raw, cols):
    """Read the plain chunks at the start of a consumption file into cols.

    Returns None when they reach the end of the file. Otherwise returns a
    checkpoint (byte offset, line number, rows, blank lines) at the start of
    the file, of the first data line and of each chunk read, the last being
    the chunk the row loop must take over.
    """
    head = raw.readline()
    checkpoints = [(0, 1, 0, 0)]
    if head not in (_HEADER_LINE, _HEADER_LINE + b"\n", _HEADER_LINE + b"\r\n"):
        return checkpoints
    # one buffer and one mask for every chunk, so chunks add no large blocks to
    # the heap
    buf = mmap.mmap(-1, _CHUNK_BYTES + _KEY_BYTES)
    mask = _pages(len(buf), bool)
    offset, line_no, kept = len(head), 2, 0   # kept: bytes of a partial line at buf's start
    file_size = os.fstat(raw.fileno()).st_size
    while True:
        checkpoints.append((offset, line_no, cols.n_bulk, len(cols.blanks)))
        got = raw.readinto(memoryview(buf)[kept:_CHUNK_BYTES])
        size = kept + got
        if not size:
            return None
        if got:
            cut = buf.rfind(b"\n", 0, size) + 1
        else:                                 # the last line has no line end: give it one
            buf[size] = ord("\n")
            cut = size + 1
        left = max(file_size - offset - cut, 0)
        if not cut or (lines := _parse_chunk(buf, cut, cols, mask, left)) is None:
            return checkpoints
        kept = max(size - cut, 0)
        buf[:kept] = buf[cut:size]
        offset, line_no = offset + cut, line_no + lines


def _row_loop_start(raw, cols, checkpoints):
    """(offset, line number) where the row loop takes over from the bulk parse.

    A text reader decodes the file in _TEXT_BLOCK pieces from its start and an
    undecodable byte fails its whole piece, so the row loop starts at the line
    holding the last piece boundary before the chunk that was not plain, and
    cols forgets the rows after it: then the rows read before such an error are
    the same as when the row loop reads the whole file.
    """
    boundary = checkpoints[-1][0] // _TEXT_BLOCK * _TEXT_BLOCK
    at = bisect.bisect_right([c[0] for c in checkpoints], boundary) - 1
    offset, line_no, rows, blanks = checkpoints[at]
    raw.seek(offset)
    lines = raw.read(boundary - offset).split(b"\n")[:-1]
    n_blank = sum(line in (b"", b"\r") for line in lines)
    cols.truncate(rows + len(lines) - n_blank, blanks + n_blank)
    return offset + sum(len(line) + 1 for line in lines), line_no + len(lines)


def _read_rows(reader, line_no, cols):
    """The row loop: append csv reader rows, the first from line line_no, to cols."""
    index_of, groups = cols.index_of, cols.groups
    text_ids, texts, text_slot, slots = cols.text_ids, cols.texts, cols.text_slot, cols.slots
    hh_col, text_col, kwh_col, code_col = cols.loop
    blanks = cols.blanks
    for line_no, row in enumerate(reader, start=line_no):
        if not row:
            blanks.append(cols.n_bulk + len(hh_col))
            continue
        if len(row) != 5:
            raise DataParseError(f"line {line_no}: expected 5 fields, got {len(row)}")
        hid, ts_text, kwh_text, tariff, group = row
        text_id = text_ids.get(ts_text)
        if text_id is None:
            slot = _half_hour_slot(ts_text, line_no)
            text_id = text_ids[ts_text] = len(texts)
            texts.append(ts_text)
            text_slot.append(slots.setdefault(slot, len(slots)))
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
        elif groups[index] != group:
            raise DataValidationError(
                f"line {line_no}: household {hid} changes group {groups[index]} -> {group}"
            )
        hh_col.append(index)
        text_col.append(text_id)
        kwh_col.append(kwh)
        code_col.append(code)


def read_consumption_csv(path):
    """Parse and validate a consumption CSV into aligned (T, 48) grids.

    Households with less than 95% slot coverage over the file's date range
    are listed in .flagged (they stay in the record set; callers decide).
    Raises DataParseError / DataValidationError with the offending line;
    of several faults the one on the earliest line wins.

    One pass fills flat columns (household index, timestamp id, kwh, tariff
    code), parsing each distinct timestamp text once; the columns are
    scattered into the grids at the end. The pass reads chunks of about
    _CHUNK_BYTES in bulk with numpy while they are plain and pass every
    check. From the first chunk that does not, a csv row loop reads the rest
    of the file, counting lines on from the rows read so far (it starts up
    to 8 KiB earlier, see _row_loop_start); it raises every error, so
    messages and line numbers are those of a row-at-a-time reader. Duplicate
    readings are found in bulk, after the pass or before any error the row
    loop raises, since a duplicate on an earlier line wins.
    """
    cols = _Columns()
    with open(path, "rb") as raw:
        checkpoints = _read_plain_chunks(raw, cols)
        if checkpoints is not None:
            offset, line_no = _row_loop_start(raw, cols, checkpoints)
    if checkpoints is not None:
        # a fresh file, so the text reader's pieces fall where they fall when it
        # reads the whole file; what lies before offset is ASCII
        with open(path, "rb") as raw, io.TextIOWrapper(raw, newline="") as fh:
            raw.seek(offset // _TEXT_BLOCK * _TEXT_BLOCK)   # before the wrapper reads
            fh.read(offset % _TEXT_BLOCK)
            reader = csv.reader(fh)
            if line_no == 1:
                try:
                    header = next(reader)
                except StopIteration:
                    raise DataParseError("line 1: empty file") from None
                if header != CONSUMPTION_HEADER:
                    raise DataParseError(
                        f"line 1: expected header {','.join(CONSUMPTION_HEADER)}"
                    )
                line_no = 2
            try:
                _read_rows(reader, line_no, cols)
            except (ValueError, csv.Error):
                cols.raise_duplicate()
                raise

    hh_col, text_col, kwh_col, code_col = cols.columns()
    if not hh_col.size:
        raise DataValidationError("no data rows")
    _raise_duplicate(hh_col, text_col, cols.text_slot, cols.index_of, cols.texts, cols.blanks)
    index_of, groups, slots, text_slot = cols.index_of, cols.groups, cols.slots, cols.text_slot

    day = np.array([d.toordinal() for d, _ in slots])
    first, last = int(day.min()), int(day.max())
    dates = [datetime.date.fromordinal(n) for n in range(first, last + 1)]
    n_days = len(dates)
    slot_cell = (day - first) * HALF_HOURS + np.array([h for _, h in slots])
    cells = (hh_col.astype(np.int64) * (n_days * HALF_HOURS)
             + slot_cell[np.asarray(text_slot)[text_col]])
    kwh = np.full((len(groups), n_days, HALF_HOURS), np.nan)
    tariff = np.full(kwh.shape, -1, dtype=np.int8)
    kwh.reshape(-1)[cells] = kwh_col
    tariff.reshape(-1)[cells] = code_col
    observed = ~np.isnan(kwh)

    households = []
    coverage = {}
    flagged = []
    for i, hid in enumerate(index_of):
        cov = observed[i].sum() / observed[i].size
        coverage[hid] = cov
        if cov < COVERAGE_THRESHOLD:
            flagged.append(hid)
        households.append(HouseholdData(hid, groups[i], kwh[i], tariff[i], observed[i]))

    if flagged:
        warnings.warn(f"{len(flagged)} household(s) below {COVERAGE_THRESHOLD:.0%} coverage")
    return ConsumptionData(households, dates, coverage, flagged)


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
    """Open a temporary file beside path and rename it over path on a clean
    exit; if the block raises, the temporary file goes and path is untouched."""
    head, name = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, newline=None if "b" in mode else "") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


@contextlib.contextmanager
def replacing_all(paths):
    """Temporary paths beside paths for the block to write; each is renamed
    over its target only after the block has written all of them. If the
    block raises, the temporary files go and every target is untouched."""
    tmps = [os.path.join(head, f".{name}.{os.getpid()}.all.tmp")
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


def repair_household(kwh, observed):
    """Fill unobserved slots of one household's (T, 48) grid.

    Gaps shorter than a day interpolate linearly along the flattened series.
    Day-long or edge gaps interpolate the same half-hour across the nearest
    observed days (copying when only one side exists). A household with no
    observations at all cannot be repaired.
    """
    n_days, _ = kwh.shape
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


def repair_tariffs(tariff, observed):
    """Fill unobserved tariff codes from the nearest observed day at the
    same half-hour (ties to the earlier day); NORMAL if never observed."""
    out = tariff.copy()
    missing = np.argwhere(~observed)
    for t, h in missing:
        src = _nearest_observed_day(observed[:, h], t)
        out[t, h] = NORMAL if src is None else tariff[src, h]
    return out


def repair_gaps(data):
    """Repair every household in a ConsumptionData; idempotent."""
    households = []
    for hh in data.households:
        kwh = repair_household(hh.kwh, hh.observed)
        tar = repair_tariffs(hh.tariff, hh.observed)
        households.append(HouseholdData(hh.household_id, hh.group, kwh, tar, hh.observed))
    return ConsumptionData(households, data.dates, dict(data.coverage), list(data.flagged))


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


def build_conditional_vector(pca_scores, kappa, w, tariffs):
    """Day-level conditional: 3 scaled PCA scores, kappa, w, then the
    Low and High indicator blocks over the 48 half-hours (length 101)."""
    pca_scores = np.asarray(pca_scores, dtype=float)
    tariffs = np.asarray(tariffs)
    if pca_scores.shape != (3,):
        raise ValueError("expected 3 PCA scores")
    if tariffs.shape != (HALF_HOURS,):
        raise ValueError(f"expected {HALF_HOURS} tariff codes")
    return np.concatenate(
        [
            pca_scores,
            [float(kappa), float(w)],
            (tariffs == LOW).astype(float),
            (tariffs == HIGH).astype(float),
        ]
    )


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

    def conditional_matrix(self, tariffs):
        """Stack day conditionals for a (T, 48) tariff schedule."""
        return np.stack(
            [
                build_conditional_vector(
                    self.pca_scores[t], self.calendar.kappa[t], self.calendar.w[t], tariffs[t]
                )
                for t in range(self.n_days)
            ]
        )


def prepare_dataset(consumption, temperature, smoothing_a=DEFAULT_SMOOTHING,
                    train_fraction=0.75, seed=0):
    """Repair, smooth, featurize and partition an ingested dataset.

    Households flagged for low coverage are dropped here (their ids stay in
    .flagged). The temperature PCA is fit on training days only.
    """
    kept = [hh for hh in consumption.households if hh.household_id not in consumption.flagged]
    if not kept:
        raise UnrecoverableDataError("no household passes the coverage threshold")
    repaired = repair_gaps(
        ConsumptionData(kept, consumption.dates, dict(consumption.coverage), [])
    )
    tau = temperature_grid(temperature, consumption.dates)
    smoothed = smooth_temperature(tau, smoothing_a)
    calendar = build_calendar(consumption.dates)
    partition = partition_days(len(consumption.dates), train_fraction, seed)
    trajectories = np.column_stack([tau, smoothed.daily])
    pca = fit_temperature_pca(trajectories[partition.train])
    return PreparedDataset(
        household_ids=[hh.household_id for hh in repaired.households],
        groups=[hh.group for hh in repaired.households],
        kwh=np.stack([hh.kwh for hh in repaired.households]),
        tariff=np.stack([hh.tariff for hh in repaired.households]),
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


def save_prepared(dataset, path):
    # uncompressed: every later stage loads this file, and zlib cost more time than
    # the ~45% it saves in size is worth
    with replacing(path, "wb") as fh:
        np.savez(
            fh,
            household_ids=np.array(dataset.household_ids),
            groups=np.array(dataset.groups),
            kwh=dataset.kwh,
            tariff=dataset.tariff,
            dates=np.array([d.isoformat() for d in dataset.dates]),
            tau=dataset.tau,
            tau_bar=dataset.tau_bar,
            tau_bar_daily=dataset.tau_bar_daily,
            w=dataset.calendar.w,
            kappa=dataset.calendar.kappa,
            pca_mean=dataset.pca.mean,
            pca_components=dataset.pca.components,
            pca_explained=dataset.pca.explained,
            pca_score_min=dataset.pca.score_min,
            pca_score_max=dataset.pca.score_max,
            pca_scores=dataset.pca_scores,
            train=dataset.partition.train,
            test=dataset.partition.test,
            fraction=np.array(dataset.partition.fraction),
            seed=np.array(dataset.partition.seed),
            flagged=np.array(dataset.flagged, dtype=str),
            smoothing_a=np.array(dataset.smoothing_a),
        )


def load_prepared(path):
    with np.load(path, allow_pickle=False) as z:
        pca = TemperaturePca(
            mean=z["pca_mean"],
            components=z["pca_components"],
            explained=z["pca_explained"],
            score_min=z["pca_score_min"],
            score_max=z["pca_score_max"],
        )
        return PreparedDataset(
            household_ids=[str(s) for s in z["household_ids"]],
            groups=[str(s) for s in z["groups"]],
            kwh=z["kwh"],
            tariff=z["tariff"],
            dates=[datetime.date.fromisoformat(str(s)) for s in z["dates"]],
            tau=z["tau"],
            tau_bar=z["tau_bar"],
            tau_bar_daily=z["tau_bar_daily"],
            calendar=Calendar(z["w"], z["kappa"]),
            pca=pca,
            pca_scores=z["pca_scores"],
            partition=DayPartition(
                train=z["train"],
                test=z["test"],
                fraction=float(z["fraction"]),
                seed=int(z["seed"]),
            ),
            flagged=[str(s) for s in z["flagged"]],
            smoothing_a=float(z["smoothing_a"]),
        )
