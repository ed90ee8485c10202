import csv
import datetime
import io
import os
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drsim import causality, clustering, dataio, metrics, parallel, synthdata
from drsim.dataio import HIGH, LOW, NORMAL


HEADER = "household_id,timestamp,kwh,tariff,group\n"


def write_csv(path, body, header=HEADER):
    path.write_text(header + body)
    return path


def day_rows(hid, date, kwh=0.4, tariff="NORMAL", group="TOU", skip=()):
    rows = []
    for h in range(48):
        if h in skip:
            continue
        ts = datetime.datetime.combine(date, datetime.time(h // 2, 30 * (h % 2)))
        rows.append(f"{hid},{ts.isoformat(timespec='minutes')},{kwh},{tariff},{group}")
    return "\n".join(rows) + "\n"


D1 = datetime.date(2024, 3, 4)
D2 = datetime.date(2024, 3, 5)
D3 = datetime.date(2024, 3, 6)


def reference_read_consumption(path):
    """The row-at-a-time reader the streaming one replaced, kept as the
    oracle for valid input: one datetime parse and one dict entry per row.
    Its error checks are left out; the message tests pin those."""
    per_household, groups = {}, {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            if not row:
                continue
            hid, ts_text, kwh_text, tariff, group = row
            ts = datetime.datetime.fromisoformat(ts_text)
            if hid not in per_household:
                per_household[hid] = {}
                groups[hid] = group
            slot = (ts.date(), ts.hour * 2 + ts.minute // 30)
            per_household[hid][slot] = (float(kwh_text), dataio.TARIFF_CODES[tariff])
    all_dates = [d for rows in per_household.values() for d, _ in rows]
    first, last = min(all_dates), max(all_dates)
    n_days = (last - first).days + 1
    dates = [first + datetime.timedelta(days=i) for i in range(n_days)]
    day_index = {d: i for i, d in enumerate(dates)}
    ids = list(per_household)
    kwh = np.full((len(ids), n_days, 48), np.nan)
    tar = np.full((len(ids), n_days, 48), -1, dtype=np.int8)
    for i, hid in enumerate(ids):
        for (d, h), (value, code) in per_household[hid].items():
            kwh[i, day_index[d], h] = value
            tar[i, day_index[d], h] = code
    observed = ~np.isnan(kwh)
    coverage = {hid: observed[i].sum() / observed[i].size for i, hid in enumerate(ids)}
    flagged = [hid for hid in ids if coverage[hid] < dataio.COVERAGE_THRESHOLD]
    return dataio.ConsumptionData(ids, [groups[hid] for hid in ids], dates, kwh, tar, coverage,
                                  flagged)


class TestReadConsumption:
    def test_round_trip_from_writer(self, small_population, small_csv_dir):
        data = dataio.read_consumption_csv(small_csv_dir / "consumption.csv")
        assert data.household_ids == small_population.household_ids
        assert data.dates == small_population.dates
        np.testing.assert_allclose(data.kwh, small_population.kwh, atol=5e-7)
        np.testing.assert_array_equal(data.tariff, small_population.tariff)
        assert not np.isnan(data.kwh).any()
        assert set(data.coverage.values()) == {1.0}

    def test_flat_maps_to_normal(self, small_population, small_csv_dir):
        data = dataio.read_consumption_csv(small_csv_dir / "consumption.csv")
        std = [i for i, group in enumerate(data.groups) if group == "STD"]
        assert std and (data.tariff[std] == NORMAL).all()

    def test_rejects_wrong_header(self, tmp_path):
        p = write_csv(tmp_path / "c.csv", "", header="household,timestamp,kwh,tariff,group\n")
        with pytest.raises(dataio.DataParseError, match="line 1"):
            dataio.read_consumption_csv(p)

    def test_rejects_short_row(self, tmp_path):
        p = write_csv(tmp_path / "c.csv", day_rows("a", D1) + "a,2024-03-05T00:00,0.4,NORMAL\n")
        with pytest.raises(dataio.DataParseError, match="line 50"):
            dataio.read_consumption_csv(p)

    def test_rejects_negative_kwh_with_line_number(self, tmp_path):
        body = day_rows("a", D1).replace("a,2024-03-04T05:00,0.4", "a,2024-03-04T05:00,-0.4")
        p = write_csv(tmp_path / "c.csv", body)
        with pytest.raises(dataio.DataValidationError, match="line 12"):
            dataio.read_consumption_csv(p)

    def test_rejects_non_finite_kwh(self, tmp_path):
        body = day_rows("a", D1).replace("a,2024-03-04T05:00,0.4", "a,2024-03-04T05:00,nan")
        p = write_csv(tmp_path / "c.csv", body)
        with pytest.raises(dataio.DataValidationError, match="line 12"):
            dataio.read_consumption_csv(p)

    def test_rejects_unparseable_kwh(self, tmp_path):
        body = day_rows("a", D1).replace("a,2024-03-04T05:00,0.4", "a,2024-03-04T05:00,x")
        with pytest.raises(dataio.DataParseError, match="line 12"):
            dataio.read_consumption_csv(write_csv(tmp_path / "c.csv", body))

    def test_rejects_off_grid_timestamp(self, tmp_path):
        body = day_rows("a", D1).replace("a,2024-03-04T05:00,", "a,2024-03-04T05:07,")
        with pytest.raises(dataio.DataValidationError, match="line 12"):
            dataio.read_consumption_csv(write_csv(tmp_path / "c.csv", body))

    def test_rejects_unknown_tariff(self, tmp_path):
        body = day_rows("a", D1, tariff="PEAK")
        with pytest.raises(dataio.DataValidationError, match="line 2"):
            dataio.read_consumption_csv(write_csv(tmp_path / "c.csv", body))

    def test_rejects_unknown_group(self, tmp_path):
        body = day_rows("a", D1, group="VIP")
        with pytest.raises(dataio.DataValidationError, match="line 2"):
            dataio.read_consumption_csv(write_csv(tmp_path / "c.csv", body))

    def test_rejects_duplicate_slot(self, tmp_path):
        body = day_rows("a", D1) + "a,2024-03-04T00:00,0.5,NORMAL,TOU\n"
        with pytest.raises(dataio.DataValidationError, match="line 50"):
            dataio.read_consumption_csv(write_csv(tmp_path / "c.csv", body))

    def test_rejects_group_change(self, tmp_path):
        body = day_rows("a", D1) + day_rows("a", D2, group="STD")
        with pytest.raises(dataio.DataValidationError, match="group"):
            dataio.read_consumption_csv(write_csv(tmp_path / "c.csv", body))

    def test_empty_file_raises(self, tmp_path):
        with pytest.raises(dataio.DataParseError):
            dataio.read_consumption_csv(write_csv(tmp_path / "c.csv", "", header=""))

    def test_low_coverage_household_flagged(self, tmp_path):
        # household b misses 3 of its 48 slots on the only day: coverage 0.9375
        body = day_rows("a", D1) + day_rows("b", D1, skip=(3, 4, 5))
        with pytest.warns(UserWarning, match="coverage"):
            data = dataio.read_consumption_csv(write_csv(tmp_path / "c.csv", body))
        assert data.flagged == ["b"]
        assert data.coverage["b"] == pytest.approx(45 / 48)

    def test_gap_marks_unobserved_not_flagged(self, tmp_path):
        body = day_rows("a", D1) + day_rows("a", D2, skip=(7,))
        data = dataio.read_consumption_csv(write_csv(tmp_path / "c.csv", body))
        assert data.flagged == []
        assert np.isnan(data.kwh[0, 1, 7]) and data.tariff[0, 1, 7] == -1
        assert np.count_nonzero(~np.isnan(data.kwh)) == np.count_nonzero(data.tariff >= 0) == 95

    @pytest.mark.parametrize("body, error, match", [
        pytest.param(day_rows("a", D1) + "a,2024-03-04T00:00,0.5,NORMAL,TOU\n"
                     + day_rows("a", D2, tariff="PEAK"),
                     dataio.DataValidationError, "line 50: duplicate reading for a at ",
                     id="duplicate-before-unknown-tariff"),
        pytest.param(day_rows("a", D1) + "a,2024-03-05T00:00,0.5,PEAK,TOU\n"
                     + "a,2024-03-04T00:00,0.5,NORMAL,TOU\n",
                     dataio.DataValidationError, "line 50: unknown tariff",
                     id="unknown-tariff-before-duplicate"),
        pytest.param(day_rows("a", D1).replace("a,2024-03-04T05:00,0.4", "a,2024-03-04T05:00,-0.4")
                     + "a,2024-03-04T00:00,0.5,NORMAL,TOU\n",
                     dataio.DataValidationError, "line 12: negative kwh",
                     id="negative-kwh-before-duplicate"),
        pytest.param(day_rows("a", D1) + "\n\n" + "a,2024-03-04T00:00,0.5,NORMAL,TOU\n"
                     + "a,2024-03-05T00:00,x,NORMAL,TOU\n",
                     dataio.DataValidationError, "line 52: duplicate",
                     id="blank-lines-count-toward-the-line"),
    ])
    def test_earliest_line_wins(self, tmp_path, body, error, match):
        with pytest.raises(error, match=match):
            dataio.read_consumption_csv(write_csv(tmp_path / "c.csv", body))

    def test_two_spellings_of_one_slot_are_a_duplicate(self, tmp_path):
        body = day_rows("a", D1) + "a,2024-03-04 00:30,0.5,NORMAL,TOU\n"
        with pytest.raises(dataio.DataValidationError,
                           match="line 50: duplicate reading for a at 2024-03-04 00:30$"):
            dataio.read_consumption_csv(write_csv(tmp_path / "c.csv", body))

    def test_matches_row_at_a_time_reader_bit_for_bit(self, tmp_path):
        path = write_mixed_file(tmp_path / "c.csv")
        with pytest.warns(UserWarning, match="1 household"):
            got = dataio.read_consumption_csv(path)
        assert_same_data(got, reference_read_consumption(path))
        assert len(got.dates) == 3 and got.flagged == ["s"]


def write_mixed_file(path):
    """A consumption file of 3 households over 3 days, with rows interleaved
    and out of order, gaps, a low-coverage STD/FLAT household (s), both
    timestamp spellings, blank lines and CRLF endings."""
    rng = np.random.default_rng(3)
    rows = []
    for hid, group, sep, skip in (("a", "TOU", "T", {(1, 5), (1, 6), (2, 47)}),
                                  ("s", "STD", " ", {(1, h) for h in range(10, 30)}),
                                  ("c", "TOU", " ", set())):
        for t in range(3):
            for h in range(48):
                if (t, h) in skip or (hid == "c" and t == 0 and h < 4):
                    continue
                ts = datetime.datetime.combine(D1, datetime.time(h // 2, 30 * (h % 2)))
                ts += datetime.timedelta(days=t)
                tariff = "FLAT" if group == "STD" else ("LOW", "NORMAL", "HIGH")[(h + t) % 3]
                kwh = rng.uniform(0.0, 3.0)
                kwh_text = "0" if h == 7 else f"{kwh:.6e}" if h % 5 == 0 else repr(kwh)
                rows.append(f"{hid},{ts.isoformat(sep, 'minutes')},{kwh_text},{tariff},{group}")
    rows = [rows[i] for i in rng.permutation(len(rows))]
    for at in (0, 17, 200):
        rows.insert(at, "")
    path.write_bytes("\r\n".join([HEADER.strip()] + rows + [""]).encode())
    return path


def assert_same_data(got, want):
    """Two ConsumptionData hold the same ids, groups, dates, coverage and
    grids, bit for bit, and got's grids mark the same cells unread: NaN in
    kwh where tariff is -1."""
    assert got.household_ids == want.household_ids and got.groups == want.groups
    assert got.dates == want.dates
    assert got.coverage == want.coverage and got.flagged == want.flagged
    for name in ("kwh", "tariff"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    np.testing.assert_array_equal(np.isnan(got.kwh), got.tariff < 0)


def outcome(path):
    """What read_consumption_csv makes of path: its data, or its error's type and text."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return dataio.read_consumption_csv(path)
    except Exception as exc:
        return type(exc), str(exc)


@pytest.fixture()
def chunks_parsed(monkeypatch, tmp_path):
    """What the chunk parse did, in the pool's workers or in-process: a
    function that returns, and forgets, the start offsets of the chunks
    _parse_chunk was given and of those _parse_csv_chunk parsed, each
    sorted."""
    log = tmp_path / "chunks_parsed.log"

    def logged(kind, parse):
        def spy(source, start, stop, *args):
            with open(log, "a") as fh:
                fh.write(f"{kind} {start}\n")
            return parse(source, start, stop, *args)
        return spy

    monkeypatch.setattr(dataio, "_parse_chunk", logged("given", dataio._parse_chunk))
    monkeypatch.setattr(dataio, "_parse_csv_chunk", logged("csv", dataio._parse_csv_chunk))

    def taken():
        entries = [line.split() for line in log.read_text().splitlines()] if log.exists() else []
        log.unlink(missing_ok=True)
        return tuple(tuple(sorted(int(start) for kind, start in entries if kind == name))
                     for name in ("given", "csv"))

    return taken


def chunk_of(given, offset):
    """The start of the chunk, among the starts given, that holds the line at offset."""
    return max(start for start in given if start <= offset)


THREE_DAYS = day_rows("a", D1) + day_rows("b", D1) + day_rows("a", D2) + day_rows("b", D2)


@pytest.fixture(params=[1, 2], ids=["1cpu", "2cpus"])
def cpus(request, monkeypatch):
    """The usable CPUs forced to 1 (chunks parsed in-process) or 2 (on the fork pool)."""
    monkeypatch.setattr(parallel, "usable_cpus", lambda: request.param)
    return request.param


class TestChunkedRead:
    """The bulk parse with chunks of ~100 bytes, so that faults fall in late
    chunks, after the bulk parse has read the lines before them, on one CPU
    and on two, where the chunks are parsed on the fork pool."""

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch, cpus):
        monkeypatch.setattr(dataio, "_CHUNK_BYTES", 100)

    def test_mixed_file_matches_reference_without_the_csv_module(self, tmp_path, chunks_parsed):
        TestReadConsumption().test_matches_row_at_a_time_reader_bit_for_bit(tmp_path)
        given, by_csv = chunks_parsed()
        assert len(given) > 10 and by_csv == ()

    @pytest.mark.parametrize("body, error, message", [
        pytest.param(day_rows("a", D1) + "a,2024-03-05T00:00,0.4,NORMAL\n",
                     dataio.DataParseError, "line 50: expected 5 fields, got 4", id="short-row"),
        pytest.param(day_rows("a", D1).replace("T05:00,0.4", "T05:00,-0.4"),
                     dataio.DataValidationError, "line 12: negative kwh -0.4", id="negative"),
        pytest.param(day_rows("a", D1).replace("T05:00,0.4", "T05:00,nan"),
                     dataio.DataValidationError, "line 12: non-finite kwh", id="nan"),
        pytest.param(day_rows("a", D1).replace("T05:00,0.4", "T05:00,1e999"),
                     dataio.DataValidationError, "line 12: non-finite kwh", id="overflow"),
        pytest.param(day_rows("a", D1).replace("T05:00,0.4", "T05:00,x"),
                     dataio.DataParseError, "line 12: bad kwh value 'x'", id="unparseable"),
        pytest.param(day_rows("a", D1).replace("T05:00,0.4", "T05:00,1.2.3"),
                     dataio.DataParseError, "line 12: bad kwh value '1.2.3'", id="two-points"),
        pytest.param(day_rows("a", D1).replace("T05:00,0.4", "T05:00,"),
                     dataio.DataParseError, "line 12: bad kwh value ''", id="empty-kwh"),
        pytest.param(day_rows("a", D1).replace("a,2024-03-04T05:00,", "a,2024-03-04T05:07,"),
                     dataio.DataValidationError,
                     "line 12: timestamp '2024-03-04T05:07' not on the half-hour grid", id="off-grid"),
        pytest.param(day_rows("a", D1).replace("a,2024-03-04T05:00,", "a,2024-03-04T5,"),
                     dataio.DataParseError, "line 12: bad timestamp '2024-03-04T5'",
                     id="bad-timestamp"),
        pytest.param(day_rows("a", D1).replace("T05:00,0.4,NORMAL", "T05:00,0.4,PEAK"),
                     dataio.DataValidationError,
                     "line 12: unknown tariff 'PEAK' (expected one of FLAT, HIGH, LOW, NORMAL)",
                     id="unknown-tariff"),
        pytest.param(day_rows("a", D1).replace("T05:00,0.4,NORMAL,TOU", "T05:00,0.4,NORMAL,VIP"),
                     dataio.DataValidationError, "line 12: unknown group 'VIP'",
                     id="unknown-group"),
        pytest.param(day_rows("a", D1) + "a,2024-03-04T00:00,0.5,NORMAL,TOU\n",
                     dataio.DataValidationError,
                     "line 50: duplicate reading for a at 2024-03-04T00:00", id="duplicate"),
        pytest.param(day_rows("a", D1) + day_rows("a", D2, group="STD"),
                     dataio.DataValidationError, "line 50: household a changes group TOU -> STD",
                     id="group-change"),
        pytest.param(day_rows("a", D1) + "a,2024-03-04T00:00,0.5,NORMAL,TOU\n"
                     + day_rows("a", D2, tariff="PEAK"),
                     dataio.DataValidationError,
                     "line 50: duplicate reading for a at 2024-03-04T00:00",
                     id="duplicate-before-unknown-tariff"),
        pytest.param(day_rows("a", D1) + "a,2024-03-05T00:00,0.5,PEAK,TOU\n"
                     + "a,2024-03-04T00:00,0.5,NORMAL,TOU\n",
                     dataio.DataValidationError,
                     "line 50: unknown tariff 'PEAK' (expected one of FLAT, HIGH, LOW, NORMAL)",
                     id="unknown-tariff-before-duplicate"),
        pytest.param(day_rows("a", D1) + "\n\n" + "a,2024-03-04T00:00,0.5,NORMAL,TOU\n"
                     + "a,2024-03-05T00:00,x,NORMAL,TOU\n",
                     dataio.DataValidationError,
                     "line 52: duplicate reading for a at 2024-03-04T00:00",
                     id="blank-lines-count-toward-the-line"),
        pytest.param(day_rows("a", D1) + "a,2024-03-04 00:30,0.5,NORMAL,TOU\n",
                     dataio.DataValidationError,
                     "line 50: duplicate reading for a at 2024-03-04 00:30",
                     id="two-spellings-of-one-slot"),
        pytest.param(day_rows("a", D1).replace("T05:00,0.4,NORMAL,TOU", "T05:00,0.4,NORMAL,TOU,x")
                     .replace("T05:30,0.4,NORMAL,TOU", "T05:30,0.4,NORMAL"),
                     dataio.DataParseError, "line 12: expected 5 fields, got 6",
                     id="uneven-commas"),
        pytest.param(day_rows("a", D1) + "a," + "2" * 40 + ",0.5,NORMAL,TOU\n",
                     dataio.DataParseError, f"line 50: bad timestamp '{'2' * 40}'",
                     id="field-wider-than-the-keys"),
    ])
    def test_error_cases_keep_their_messages(self, tmp_path, body, error, message):
        assert outcome(write_csv(tmp_path / "c.csv", body)) == (error, message)

    @pytest.mark.parametrize("text, error, message", [
        ("", dataio.DataParseError, "line 1: empty file"),
        ("household,timestamp,kwh,tariff,group\n" + day_rows("a", D1),
         dataio.DataParseError, "line 1: expected header household_id,timestamp,kwh,tariff,group"),
        (HEADER, dataio.DataValidationError, "no data rows"),
        (HEADER + "\n\r\n", dataio.DataValidationError, "no data rows"),
    ])
    def test_header_and_empty_cases_keep_their_messages(self, tmp_path, text, error, message):
        assert outcome(write_csv(tmp_path / "c.csv", text, header="")) == (error, message)

    def test_field_wider_than_the_keys_before_narrow_ones(self, tmp_path, monkeypatch):
        # one chunk of lines 2 to 20 ends in a narrow group field, while line 12's
        # is wider than the bytes kept past the chunk
        wide = "G" * (dataio._KEY_BYTES + 8)
        body = day_rows("a", D1).replace("T05:00,0.4,NORMAL,TOU", f"T05:00,0.4,NORMAL,{wide}")
        monkeypatch.setattr(dataio, "_CHUNK_BYTES", len("".join(body.splitlines(True)[:19])))
        assert outcome(write_csv(tmp_path / "c.csv", body)) == (
            dataio.DataValidationError, f"line 12: unknown group '{wide}'")

    @pytest.mark.parametrize("chunk", [100, 300, 1000])
    def test_faults_that_span_chunks(self, tmp_path, monkeypatch, chunk):
        # the first reading and the fault fall in different chunks at 100
        # bytes, and in one chunk for some of the larger sizes
        monkeypatch.setattr(dataio, "_CHUNK_BYTES", chunk)
        duplicate = write_csv(tmp_path / "d.csv", THREE_DAYS + "b,2024-03-04T23:30,1.0,LOW,TOU\n")
        assert outcome(duplicate) == (
            dataio.DataValidationError, "line 194: duplicate reading for b at 2024-03-04T23:30")
        for changed_line, message in ((98, "line 98: household a changes group TOU -> STD"),
                                      (75, "line 75: household b changes group TOU -> STD"),
                                      (50, "line 51: household b changes group STD -> TOU")):
            lines = THREE_DAYS.splitlines(keepends=True)
            lines[changed_line - 2] = lines[changed_line - 2].replace(",TOU", ",STD")
            path = write_csv(tmp_path / "g.csv", "".join(lines))
            assert outcome(path) == (dataio.DataValidationError, message)

    @pytest.mark.parametrize("body, message", [
        pytest.param(day_rows("a", D1) + "a,2024-03-04T00:00,0.5,NORMAL,TOU\n",
                     "line 50: duplicate reading for a at 2024-03-04T00:00", id="duplicate"),
        pytest.param(day_rows("a", D1) + "a,2024-03-04 00:30,0.5,NORMAL,TOU\n",
                     "line 50: duplicate reading for a at 2024-03-04 00:30",
                     id="two-spellings-of-one-slot"),
        pytest.param(day_rows("a", D1) + "\n\n" + "a,2024-03-04T00:00,0.5,NORMAL,TOU\n",
                     "line 52: duplicate reading for a at 2024-03-04T00:00",
                     id="blank-lines-before-the-duplicate"),
    ])
    def test_plain_file_with_a_duplicate_is_read_once(self, tmp_path, chunks_parsed, body,
                                                      message):
        # the merge finds the cell taken and reads the one chunk's lines again to
        # name the row; no chunk goes to the csv module or is parsed twice
        assert outcome(write_csv(tmp_path / "c.csv", body)) == (
            dataio.DataValidationError, message)
        given, by_csv = chunks_parsed()
        assert len(given) == len(set(given)) > 10 and by_csv == ()

    def test_duplicate_in_a_quoted_file_keeps_its_message(self, tmp_path, chunks_parsed):
        body = day_rows("a", D1) + "a,2024-03-04T00:00,0.5,NORMAL,TOU\n"
        plain = outcome(write_csv(tmp_path / "plain.csv", body))
        assert chunks_parsed()[1] == ()
        quoted = outcome(write_csv(tmp_path / "quoted.csv", body.replace("a,", '"a",')))
        assert quoted == plain == (
            dataio.DataValidationError, "line 50: duplicate reading for a at 2024-03-04T00:00")
        # every chunk that holds a line start went to the csv module; on two
        # CPUs a chunk past the last line's start may be in flight, and parses nothing
        data = (tmp_path / "quoted.csv").read_bytes()
        last_line = data.rindex(b"\n", 0, len(data) - 1) + 1
        given, by_csv = chunks_parsed()
        assert by_csv == tuple(start for start in given if start <= last_line)

    @pytest.mark.parametrize("variant, by_csv", [
        ("quote-all", "every chunk"), ("non-ascii-id", "late"), ("lone-cr", "late"),
        ("nul-in-kwh", "late"), ("spaced-kwh", "late"), ("underscored-kwh", "late"),
        ("negative-zero", "no chunk"), ("signed-exponent", "no chunk"), ("crlf", "no chunk"),
        ("quoted-id", "late"), ("cr-before-row", "late"),
    ])
    def test_variants_read_as_reference_or_keep_the_message(self, tmp_path, variant, by_csv,
                                                            chunks_parsed):
        # about 20 KB, so a late variant first shows on line 551, many chunks
        # into the file; the csv module parses only the chunks that hold a
        # changed line
        body = "".join(day_rows(h, d) for d in (D1, D2, D3) for h in "abcd")
        lines = original = (HEADER + body).splitlines(keepends=True)
        late = 550                            # index of file line 551
        fault = None
        if variant == "quote-all":
            rows = list(csv.reader(lines))
            with open(tmp_path / "c.csv", "w", newline="") as fh:
                csv.writer(fh, quoting=csv.QUOTE_ALL, lineterminator="\n").writerows(rows)
        else:
            lines = list(original)
            if variant == "non-ascii-id":
                lines[late:] = [line.replace("d,", "dé,", 1) for line in lines[late:]]
            elif variant == "lone-cr":
                lines[late] = lines[late].replace("\n", "\r")
            elif variant == "cr-before-row":       # csv reads a blank line there
                lines[late] = "\r" + lines[late]
            elif variant == "quoted-id":
                lines[late] = '"d"' + lines[late][1:]
            elif variant == "crlf":
                lines = [line.replace("\n", "\r\n") for line in lines]
            else:
                kwh = {"nul-in-kwh": "1.5\0", "spaced-kwh": " 1.5 ", "underscored-kwh": "1_5",
                       "negative-zero": "-0", "signed-exponent": "+.5e-3"}[variant]
                lines[late] = lines[late].replace(",0.4,", f",{kwh},")
                if variant == "nul-in-kwh":
                    fault = ((dataio.DataParseError, f"line {late + 1}: bad kwh value '1.5\\x00'")
                             if sys.version_info >= (3, 11)
                             else (csv.Error, "line contains NUL"))
            (tmp_path / "c.csv").write_bytes("".join(lines).encode())
        got = outcome(tmp_path / "c.csv")
        if fault:
            assert got == fault
        else:
            assert_same_data(got, reference_read_consumption(tmp_path / "c.csv"))
        given, parsed_by_csv = chunks_parsed()
        if by_csv == "every chunk":
            assert parsed_by_csv == given
        elif by_csv == "no chunk":
            assert parsed_by_csv == ()
        else:
            offsets = np.cumsum([0] + [len(line.encode()) for line in lines])
            changed = {chunk_of(given, offsets[i])
                       for i, (line, was) in enumerate(zip(lines, original)) if line != was}
            assert parsed_by_csv == tuple(sorted(changed)) and len(given) > 100

    @pytest.mark.parametrize("cut", [False, True], ids=["whole-rows", "cut-last-line"])
    def test_rows_appended_after_the_read_starts_are_not_read(self, tmp_path, monkeypatch,
                                                              chunks_parsed, cut):
        # the read takes the file's size before it parses a chunk: whole rows of
        # new households on a new day, appended as each of the first ten chunks
        # is merged while later ones are parsed or in flight, are not read, and
        # a last line the size cuts is read as far as it goes, completed or not
        body = day_rows("a", D1) + day_rows("b", D2)
        if cut:
            body = body[:body.rindex(",NORMAL,TOU")]
        path = write_csv(tmp_path / "c.csv", body)
        as_it_was = outcome(write_csv(tmp_path / "as_it_was.csv", body))
        chunks_parsed()
        size, merge_chunk, merged = path.stat().st_size, dataio._merge_chunk, []

        def merge_and_grow(grids, rows, repeat):
            if len(merged) < 10:
                with open(path, "a") as fh:
                    fh.write((",NORMAL,TOU\n" if cut and not merged else "")
                             + day_rows(f"n{len(merged)}", D3))
            merged.append(rows)
            return merge_chunk(grids, rows, repeat)

        monkeypatch.setattr(dataio, "_merge_chunk", merge_and_grow)
        got = outcome(path)
        assert len(merged) > 10 and path.stat().st_size > size + 10 * 1000
        if cut:
            assert got == as_it_was == (dataio.DataParseError, "line 97: expected 5 fields, got 3")
        else:
            assert_same_data(got, as_it_was)
            assert got.household_ids == ["a", "b"]
        given, by_csv = chunks_parsed()
        assert given == tuple(range(0, size, 100)) and by_csv == ((given[-1],) if cut else ())

    def test_faulty_chunk_that_finishes_first_keeps_the_message(self, tmp_path, monkeypatch,
                                                                 chunks_parsed, cpus):
        # lines 6 and 8 fail, in neighbouring chunks; line 6's is held back, so
        # on two CPUs line 8's finishes first, yet line 6 is named
        body = day_rows("a", D1).replace("T02:00,0.4", "T02:00,-0.4").replace(
            "T03:00,0.4,NORMAL", "T03:00,0.4,PEAK")
        path = write_csv(tmp_path / "c.csv", body)
        data, finished = path.read_bytes(), tmp_path / "order"
        first_at, fault_at = data.index(b"a,2024-03-04T02:00"), data.index(b"a,2024-03-04T03:00")
        parse_chunk = dataio._parse_chunk

        def held_back(source, start, stop, *args):
            if start <= first_at < stop:
                time.sleep(0.2)
            parsed = parse_chunk(source, start, stop, *args)
            with open(finished, "a") as fh:
                fh.write(f"{start}\n")
            return parsed

        monkeypatch.setattr(dataio, "_parse_chunk", held_back)
        assert outcome(path) == (dataio.DataValidationError, "line 6: negative kwh -0.4")
        starts = [int(line) for line in finished.read_text().split()]
        held, faulty = (at - at % 100 for at in (first_at, fault_at))
        assert held < faulty and held in chunks_parsed()[1]
        if cpus == 2:
            assert starts.index(faulty) < starts.index(held)
        else:                                 # in-process, the read stops at the held chunk
            assert starts[-1] == held

    def test_duplicate_rows_in_different_chunks_keep_the_message(self, tmp_path,
                                                                  chunks_parsed):
        body = day_rows("a", D1) + day_rows("b", D1) + "a,2024-03-04T00:30,0.5,NORMAL,TOU\n"
        path = write_csv(tmp_path / "c.csv", body)
        data = path.read_bytes()            # the two readings lie 30 chunks apart
        assert data.index(b"a,2024-03-04T00:30") + 30 * 100 < data.rindex(b"a,2024-03-04T00:30")
        assert outcome(path) == (dataio.DataValidationError,
                                 "line 98: duplicate reading for a at 2024-03-04T00:30")
        assert chunks_parsed()[1] == ()

    def test_without_fork_the_chunks_are_read_in_process(self, tmp_path, monkeypatch,
                                                         chunks_parsed):
        # each chunk opens the file itself and reads it by seek and readinto, so
        # the same step runs where the platform cannot fork
        path = write_mixed_file(tmp_path / "c.csv")
        quoted = tmp_path / "q.csv"
        quoted.write_bytes(path.read_bytes().replace(b",TOU", b',"TOU"'))
        monkeypatch.setattr(parallel.multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        parse_chunk, pids = dataio._parse_chunk, set()
        monkeypatch.setattr(dataio, "_parse_chunk",
                            lambda *args: pids.add(os.getpid()) or parse_chunk(*args))
        want = reference_read_consumption(path)
        assert_same_data(outcome(path), want)
        assert chunks_parsed()[1] == ()
        assert_same_data(outcome(quoted), want)
        assert chunks_parsed()[1] and pids == {os.getpid()}

    @pytest.mark.parametrize("cut", [False, True], ids=["in-one-chunk", "cut-by-a-chunk"])
    def test_line_break_in_a_quoted_field_names_the_line_its_row_starts(self, tmp_path,
                                                                         monkeypatch, cut):
        # line 12's tariff field holds a line break; a chunk boundary cuts it, or
        # one chunk holds the whole file
        body = day_rows("a", D1).replace("T05:00,0.4,NORMAL", 'T05:00,0.4,"NOR\nMAL"')
        path = write_csv(tmp_path / "c.csv", body)
        data = path.read_bytes()
        second_half = data.index(b'MAL"')
        monkeypatch.setattr(dataio, "_CHUNK_BYTES", second_half if cut else 1 << 20)
        assert outcome(path) == (dataio.DataParseError, "line 12: field holds a line break")

    @pytest.mark.parametrize("variant, fault_line", [("lone-cr", 60), ("cr-before-row", 61)])
    def test_rows_after_a_cr_are_counted_as_the_csv_module_counts_them(
            self, tmp_path, chunks_parsed, variant, fault_line):
        # line 10 ends in a lone CR (two csv rows on one line), or a CR comes
        # before it (a blank csv row); line 60, many chunks later, is negative
        lines = (HEADER + day_rows("a", D1) + day_rows("b", D1)).splitlines(keepends=True)
        lines[59] = lines[59].replace(",0.4,", ",-0.4,")
        lines[9] = lines[9].replace("\n", "\r") if variant == "lone-cr" else "\r" + lines[9]
        text = "".join(lines)
        (tmp_path / "c.csv").write_bytes(text.encode())
        rows = list(csv.reader(io.StringIO(text[:text.index("-0.4")], newline="")))
        assert len(rows) == fault_line
        assert outcome(tmp_path / "c.csv") == (dataio.DataValidationError,
                                               f"line {fault_line}: negative kwh -0.4")
        given, by_csv = chunks_parsed()
        cr_chunk, fault_chunk = (chunk_of(given, len("".join(lines[:i]))) for i in (9, 59))
        assert cr_chunk in by_csv and cr_chunk < fault_chunk

    def test_duplicate_across_chunks_in_timestamp_order(self, tmp_path):
        # rows in timestamp order are not in cell order; the copy of an early row
        # lands many chunks after it
        rows = [line for _, _, line in sorted(household_major_rows())]
        hid, ts, _, tariff, group = rows[30].split(",")
        rows.insert(150, f"{hid},{ts},9.5,{tariff},{group}")
        path = write_csv(tmp_path / "c.csv", "\n".join(rows) + "\n")
        assert outcome(path) == (dataio.DataValidationError,
                                 f"line 152: duplicate reading for {hid} at {ts}")

    def test_duplicate_in_a_plain_chunk_beats_a_later_csv_fault_that_finishes_first(
            self, tmp_path, monkeypatch, chunks_parsed, cpus):
        # line 20 repeats line 4's cell in a plain chunk, which is held back; line
        # 30, quoted, holds an unknown tariff and is parsed by the csv module,
        # finishing first on two CPUs
        lines = (HEADER + day_rows("a", D1)).splitlines(keepends=True)
        lines[19] = lines[3].replace(",0.4,", ",0.7,")
        lines[29] = lines[29].replace("NORMAL", '"PEAK"')
        path = tmp_path / "c.csv"
        path.write_bytes("".join(lines).encode())
        dup_at, fault_at = (len("".join(lines[:i]).encode()) for i in (19, 29))
        parse_chunk, finished = dataio._parse_chunk, tmp_path / "order"

        def held_back(source, start, stop, *args):
            if start <= dup_at < stop:
                time.sleep(0.2)
            parsed = parse_chunk(source, start, stop, *args)
            with open(finished, "a") as fh:
                fh.write(f"{start}\n")
            return parsed

        monkeypatch.setattr(dataio, "_parse_chunk", held_back)
        assert outcome(path) == (dataio.DataValidationError,
                                 "line 20: duplicate reading for a at 2024-03-04T01:00")
        held, faulty = (at - at % 100 for at in (dup_at, fault_at))
        starts = [int(line) for line in finished.read_text().split()]
        given, by_csv = chunks_parsed()
        assert held < faulty and held not in by_csv
        if cpus == 2:
            assert faulty in by_csv and starts.index(faulty) < starts.index(held)

    @pytest.mark.parametrize("duplicate_at, error", [
        (6000, dataio.DataValidationError), (8192 + 200, dataio.DataValidationError),
        (8192 + 2000, UnicodeDecodeError),
    ])
    def test_undecodable_byte_fails_at_its_line(self, tmp_path, monkeypatch, duplicate_at,
                                                error):
        # a byte that cannot be decoded is a fault of its line, like any other:
        # a duplicate on an earlier line is reported, one on a later line is
        # not, and the error does not depend on where the chunks start
        body = "".join(day_rows(h, d) for h in "abcd" for d in (D1, D2))
        data = (HEADER + body).encode()
        end = data.index(b"\n", duplicate_at) + 1
        data = data[:end] + day_rows("a", D1).split("\n")[0].encode() + b"\n" + data[end:]
        bad = data.index(b"\n", 8192 + 1000) + 10
        data = data[:bad] + b"\xff" + data[bad:]
        path = tmp_path / "c.csv"
        path.write_bytes(data)
        got = outcome(path)
        monkeypatch.setattr(dataio, "_CHUNK_BYTES", 1 << 20)   # one chunk, not plain
        assert got == outcome(path)
        assert got[0] is error


def test_a_chunk_reads_no_byte_past_the_size_taken(tmp_path):
    # whatever the file holds past the size a read took, each chunk parses
    # what a copy cut at that size gives, the header's line included
    data = (HEADER + day_rows("a", D1)).encode()
    path, cut = tmp_path / "c.csv", tmp_path / "cut.csv"
    path.write_bytes(data)

    def parsed(source, start, size):
        end, lines, rows, repeat, fault = dataio._parse_chunk(
            source, start, start + 100, size, dataio._ChunkState())
        rows = [getattr(column, "tolist", lambda: column)() for column in rows]
        return end, lines, rows, repeat, fault and (fault[0], repr(fault[1]))

    for size in [*range(1, 80), *range(len(data) - 80, len(data))]:
        cut.write_bytes(data[:size])
        for start in {0, (size - 1) // 100 * 100}:     # the first chunk, and the one size cuts
            assert parsed(path, start, size) == parsed(cut, start, size), (size, start)


def household_major_rows(n_households=12, n_days=8):
    """(cell, household, line) of n_households TOU households over n_days,
    household by household, with gaps (never at the first half-hour), every
    tariff and kWh values above 0."""
    rng = np.random.default_rng(8)
    base = datetime.datetime.combine(D1, datetime.time())
    rows = []
    for i in range(n_households):
        gaps = set(rng.choice(np.arange(1, n_days * 48), size=5 + i, replace=False).tolist())
        for cell in range(n_days * 48):
            if cell in gaps:
                continue
            ts = (base + datetime.timedelta(minutes=30 * cell)).isoformat(timespec="minutes")
            tariff = ("LOW", "NORMAL", "HIGH")[(cell // 48 + cell % 48 // 8) % 3]
            rows.append((cell, i, f"h{i:02d},{ts},{rng.uniform(0.1, 3.0)!r},{tariff},TOU"))
    return rows


class TestGrowingGrids:
    """The bulk parse writes each chunk's rows into grids that grow with the
    households and days read."""

    @pytest.fixture()
    def chunks_of(self, monkeypatch):
        def set_bytes(size):
            monkeypatch.setattr(dataio, "_CHUNK_BYTES", size)
        return set_bytes

    @pytest.fixture()
    def adds(self, monkeypatch):
        """The rows of each _Grids.add call, one entry per call."""
        seen, add = [], dataio._Grids.add

        def spy(grids, household, *columns):
            seen.append(household.size)
            return add(grids, household, *columns)

        monkeypatch.setattr(dataio._Grids, "add", spy)
        return seen

    @pytest.mark.parametrize("chunk", [100, 300, 1000])
    def test_chunks_fill_the_grids_of_one_read(self, tmp_path, chunks_of, adds,
                                               chunks_parsed, chunk):
        lines = [line for _, _, line in household_major_rows()]
        path = tmp_path / "c.csv"
        path.write_text(HEADER + "\n".join(lines) + "\n")
        one_read = outcome(path)
        assert adds == [len(lines)]
        chunks_of(chunk)
        got = outcome(path)
        assert_same_data(got, one_read)
        assert_same_data(got, reference_read_consumption(path))
        assert np.isnan(got.kwh).any() and (got.tariff == -1).any()
        # each chunk went into the grids as it was parsed, by numpy
        assert len(adds) > len(path.read_bytes()) // chunk // 2 and sum(adds) == 2 * len(lines)
        assert chunks_parsed()[1] == ()

    @pytest.mark.parametrize("chunk", [100, 1000])
    def test_mixed_file_fills_the_grids_of_one_read(self, tmp_path, chunks_of, chunk):
        path = write_mixed_file(tmp_path / "c.csv")
        one_read = outcome(path)
        chunks_of(chunk)
        got = outcome(path)
        assert_same_data(got, one_read)
        assert np.isnan(got.kwh).any() and (got.tariff == -1).any()

    def test_timestamp_major_rows_fill_the_grids_of_household_major(self, tmp_path, chunks_of,
                                                                    chunks_parsed):
        # in timestamp order every chunk reads a day or two past the days laid out
        rows = household_major_rows()
        by_household, by_time = tmp_path / "h.csv", tmp_path / "t.csv"
        by_household.write_text(HEADER + "\n".join(line for _, _, line in rows) + "\n")
        by_time.write_text(HEADER + "\n".join(line for _, _, line in sorted(rows)) + "\n")
        chunks_of(1000)
        got = outcome(by_time)
        assert_same_data(got, outcome(by_household))
        assert got.household_ids == [f"h{i:02d}" for i in range(12)]
        assert chunks_parsed()[1] == ()

    def test_days_outside_the_first_households_grow_the_grids(self, tmp_path, chunks_of,
                                                              chunks_parsed):
        # a reads days 3-5, then b starts two days earlier and c ends three days later
        days = [D1 + datetime.timedelta(days=t) for t in range(8)]
        body = ("".join(day_rows("a", d, kwh=0.1 + t) for t, d in enumerate(days) if 2 <= t <= 4)
                + "".join(day_rows("b", d, tariff="LOW", skip=(5,)) for d in days[:4])
                + "".join(day_rows("c", d, tariff="HIGH") for d in days[1:]))
        path = write_csv(tmp_path / "c.csv", body)
        want = reference_read_consumption(path)
        assert want.dates == days
        for chunk in (100, 1000, 1 << 20):
            chunks_of(chunk)
            assert_same_data(outcome(path), want)
        assert chunks_parsed()[1] == ()

    def test_timestamp_order_lays_the_grids_out_a_few_times(self, tmp_path, monkeypatch,
                                                            chunks_of):
        # 64 days in timestamp order, a few hours of them a chunk: the grids are
        # laid out again as the days read pass the days laid out, each time with
        # room for as many days again, so 7 times (1, 2, 4, ... 64 days), not 64
        base = datetime.datetime.combine(D1, datetime.time())
        lines = [f"{h},{(base + datetime.timedelta(minutes=30 * k)).isoformat(timespec='minutes')},"
                 f"{k % 7 / 4},NORMAL,TOU" for k in range(64 * 48) for h in ("a", "b")]
        path = tmp_path / "t.csv"
        path.write_text(HEADER + "\n".join(lines) + "\n")
        chunks_of(1000)
        maps, make = [], dataio._map
        monkeypatch.setattr(dataio, "_map", lambda size: maps.append(size) or make(size))
        got = outcome(path)
        assert_same_data(got, reference_read_consumption(path))
        # two mappings a layout and two empty ones to start from
        assert len(maps) == 2 * 7 + 2

    def test_grids_are_copied_where_mmap_cannot_resize(self, tmp_path, monkeypatch, chunks_of,
                                                       chunks_parsed):
        class Unresizable(dataio.mmap.mmap):
            def resize(self, size):
                raise SystemError("mmap: resizing not available--no mremap()")

        path = tmp_path / "h.csv"
        path.write_text(HEADER + "\n".join(line for _, _, line in household_major_rows()) + "\n")
        late = tmp_path / "d.csv"
        late.write_text(HEADER + day_rows("a", D2) + day_rows("b", D1) + day_rows("c", D3))
        chunks_of(1000)
        want = [outcome(path), outcome(late)]
        monkeypatch.setattr(dataio, "_map",
                            lambda size: Unresizable(-1, max(size, 1), **dataio._PRIVATE))
        assert isinstance(dataio._Grids().maps[0], Unresizable)
        for p, data in zip((path, late), want):
            assert_same_data(outcome(p), data)
        assert chunks_parsed()[1] == ()

    @pytest.mark.parametrize("chunk, original, copy_at", [
        pytest.param(1 << 20, 100, 101, id="same-chunk"),
        pytest.param(1000, 100, 2000, id="later-chunk"),
        pytest.param(1000, 0, None, id="data-row-1-as-the-last-row"),
    ])
    def test_duplicate_is_named_with_its_line(self, tmp_path, chunks_of, chunks_parsed, chunk,
                                              original, copy_at):
        rows = [line for _, _, line in household_major_rows()]
        fields = rows[original].split(",")
        copy_at = len(rows) if copy_at is None else copy_at
        rows.insert(copy_at, ",".join(fields[:2] + ["1.5", "NORMAL", "TOU"]))
        path = tmp_path / "d.csv"
        path.write_text(HEADER + "\n".join(rows) + "\n")
        chunks_of(chunk)
        assert outcome(path) == (dataio.DataValidationError,
                                 f"line {copy_at + 2}: duplicate reading for "
                                 f"{fields[0]} at {fields[1]}")
        given, by_csv = chunks_parsed()
        assert len(given) == len(set(given)) and by_csv == ()

    def test_quoted_file_goes_into_the_grids_chunk_by_chunk(self, tmp_path, chunks_of, adds,
                                                             chunks_parsed):
        rows = [line for _, _, line in household_major_rows()]
        path = tmp_path / "q.csv"                 # quoted, so the csv module parses every chunk
        path.write_text(HEADER + "\n".join(f'"{line}"'.replace(",", '","') for line in rows)
                        + "\n")
        plain = tmp_path / "p.csv"
        plain.write_text(HEADER + "\n".join(rows) + "\n")
        chunks_of(10_000)
        want = outcome(plain)
        assert chunks_parsed()[1] == ()
        del adds[:]
        assert_same_data(outcome(path), want)
        given, by_csv = chunks_parsed()
        assert by_csv == given and len(given) > 5
        assert len(adds) == len(given) and sum(adds) == len(rows)

    def test_finish_marks_unread_cells_a_household_at_a_time(self, tmp_path):
        # the NaN fill takes one household's mask at a time: its traced peak
        # stays far below one boolean of the whole grid
        rows = household_major_rows(n_households=24, n_days=20)
        path = tmp_path / "g.csv"
        path.write_text(HEADER + "\n".join(line for _, _, line in rows) + "\n")
        grids = dataio._Grids()
        assert dataio._read_chunks(path, grids) == len(rows) + 1
        tracemalloc.start()
        try:
            _, kwh, tariff = grids.finish()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.count_nonzero(tariff < 0) == sum(5 + i for i in range(24))
        np.testing.assert_array_equal(np.isnan(kwh), tariff < 0)
        assert peak < tariff.size // 4

    def test_traced_peak_is_below_20_bytes_a_row(self, tmp_path):
        # 66 households x 100 days x 48 half-hours = 316,800 rows. The grids
        # take 9 bytes a cell (kwh, tariff) and every cell is read once; they
        # live in mapped pages that tracemalloc does not see.
        base = datetime.datetime.combine(D1, datetime.time())
        stamps = [(base + datetime.timedelta(minutes=30 * k)).isoformat(timespec="minutes")
                  for k in range(100 * 48)]
        path = tmp_path / "c.csv"
        with open(path, "w") as fh:
            fh.write(HEADER)
            for h in range(66):
                fh.write("".join(f"h{h:02d},{ts},{k % 97 / 50},NORMAL,TOU\n"
                                 for k, ts in enumerate(stamps)))
        tracemalloc.start()
        try:
            data = dataio.read_consumption_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert data.kwh.shape == (66, 100, 48) and (data.tariff >= 0).all()
        assert peak < 20 * 316_800


class TestTemperature:
    def test_read_rejects_non_increasing(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text(
            "timestamp,temp_c\n2024-03-04T00:00,5.0\n2024-03-04T00:00,6.0\n"
        )
        with pytest.raises(dataio.DataValidationError, match="line 3"):
            dataio.read_temperature_csv(p)

    def test_grid_linear_interpolation_oracle(self):
        base = datetime.datetime(2024, 3, 4)
        series = dataio.TemperatureSeries(
            [base + datetime.timedelta(hours=k) for k in range(24)],
            np.arange(24, dtype=float),
        )
        grid = dataio.temperature_grid(series, [D1])
        assert grid.shape == (1, 48)
        np.testing.assert_allclose(grid[0, ::2], np.arange(24.0))
        # half-past readings sit midway between consecutive hourly values
        np.testing.assert_allclose(grid[0, 1:46:2], np.arange(23.0) + 0.5)
        # beyond the last reading the grid clamps to the edge value
        assert grid[0, 47] == 23.0


class TestRepair:
    def test_short_gap_linear_interpolation(self):
        kwh = np.ones((1, 48))
        kwh[0, 9:12] = 1.0, np.nan, 3.0
        out = dataio.repair_household(kwh)
        assert out[0, 10] == pytest.approx(2.0)
        assert np.isnan(kwh[0, 10])           # the input is not touched

    def test_run_of_three_interpolates(self):
        kwh = np.arange(96, dtype=float).reshape(2, 48)
        kwh[0, 20:23] = np.nan
        out = dataio.repair_household(kwh)
        np.testing.assert_allclose(out[0, 20:23], [20.0, 21.0, 22.0])

    def test_full_day_gap_uses_neighbour_days(self):
        kwh = np.stack([np.full(48, 1.0), np.full(48, np.nan), np.full(48, 3.0)])
        out = dataio.repair_household(kwh)
        np.testing.assert_allclose(out[1], 2.0)

    def test_edge_gap_copies_nearest_day(self):
        kwh = np.stack([np.full(48, np.nan), np.full(48, 5.0), np.full(48, 7.0)])
        out = dataio.repair_household(kwh)
        np.testing.assert_allclose(out[0], 5.0)

    def test_no_observations_raises(self):
        with pytest.raises(dataio.UnrecoverableDataError):
            dataio.repair_household(np.full((2, 48), np.nan))

    def test_repair_preserves_observed_and_is_idempotent(self, rng):
        kwh = rng.uniform(0.1, 2.0, size=(6, 48))
        observed = rng.uniform(size=(6, 48)) > 0.1
        out = dataio.repair_household(np.where(observed, kwh, np.nan))
        np.testing.assert_array_equal(out[observed], kwh[observed])
        assert not np.isnan(out).any()
        again = dataio.repair_household(out)
        np.testing.assert_array_equal(again, out)

    def test_repair_tariffs_nearest_day_ties_earlier(self):
        tariff = np.full((4, 48), NORMAL, dtype=np.int8)
        tariff[0, 5], tariff[1, 5], tariff[2, 5] = LOW, -1, HIGH
        out = dataio.repair_tariffs(tariff)
        assert out[1, 5] == LOW  # days 0 and 2 tie; earlier wins
        assert tariff[1, 5] == -1            # the input is not touched

    def test_repair_tariffs_defaults_to_normal(self):
        tariff = np.full((2, 48), HIGH, dtype=np.int8)
        tariff[:, 3] = -1
        out = dataio.repair_tariffs(tariff)
        assert out[0, 3] == NORMAL and out[1, 3] == NORMAL
        assert (np.delete(out, 3, axis=1) == HIGH).all()


class TestSmoothing:
    def test_recursion_oracle(self):
        out = dataio.smooth_temperature(np.array([[2.0, 4.0, 6.0]]), a=0.5)
        np.testing.assert_allclose(out.grid, [[2.0, 3.0, 4.5]])
        np.testing.assert_allclose(out.daily, [19.0 / 6.0])

    def test_zero_a_is_identity(self, rng):
        tau = rng.normal(size=(3, 48))
        out = dataio.smooth_temperature(tau, a=0.0)
        np.testing.assert_array_equal(out.grid, tau)

    @given(st.floats(min_value=0.0, max_value=0.999), st.floats(-20.0, 40.0))
    @settings(max_examples=25, deadline=None)
    def test_constant_series_is_fixed_point(self, a, level):
        tau = np.full((2, 48), level)
        out = dataio.smooth_temperature(tau, a=a)
        np.testing.assert_allclose(out.grid, level, atol=1e-9)

    @pytest.mark.parametrize("a", [-0.1, 1.0, 1.5])
    def test_invalid_a_raises(self, a):
        with pytest.raises(dataio.ConfigError):
            dataio.smooth_temperature(np.zeros((1, 48)), a=a)


class TestCalendarFeatures:
    def test_calendar_known_week(self):
        dates = [datetime.date(2024, 1, 1) + datetime.timedelta(days=i) for i in range(7)]
        cal = dataio.build_calendar(dates)  # 2024-01-01 is a Monday
        np.testing.assert_array_equal(cal.w, [1, 1, 1, 1, 1, 0, 0])
        assert cal.kappa[0] == 0.0 and cal.kappa[-1] == 1.0
        np.testing.assert_allclose(np.diff(cal.kappa), 1.0 / 6.0)

    def test_conditional_vector_layout(self):
        tariffs = np.full(48, NORMAL, dtype=np.int8)
        tariffs[5], tariffs[40] = LOW, HIGH
        v = dataio.build_conditional_vector(np.array([0.1, 0.2, 0.3]), 0.5, 1.0, tariffs)
        assert v.shape == (101,)
        np.testing.assert_array_equal(v[:5], [0.1, 0.2, 0.3, 0.5, 1.0])
        assert v[5 + 5] == 1.0 and v[5:53].sum() == 1.0
        assert v[53 + 40] == 1.0 and v[53:].sum() == 1.0


class TestPca:
    def rank3_rows(self, n=40):
        rng = np.random.default_rng(8)
        basis = np.linalg.qr(rng.normal(size=(49, 3)))[0].T
        raw = rng.normal(size=(n, 3))
        # mean-zero orthonormal score columns make the planted directions
        # exactly the principal axes (singular values 5 > 2 > 1)
        u = np.linalg.svd(raw - raw.mean(axis=0), full_matrices=False)[0]
        scores = u * np.array([5.0, 2.0, 1.0])
        return scores @ basis + 10.0, basis

    def test_recovers_rank3_structure(self):
        rows, basis = self.rank3_rows()
        pca = dataio.fit_temperature_pca(rows)
        for comp in pca.components:
            # each fitted direction must match a planted one up to sign
            overlap = np.abs(basis @ comp)
            assert overlap.max() == pytest.approx(1.0, abs=1e-8)
        np.testing.assert_allclose(pca.explained.sum(), 1.0, atol=1e-10)
        assert (np.diff(pca.explained) <= 1e-12).all()

    def test_sign_convention(self):
        rows, _ = self.rank3_rows()
        pca = dataio.fit_temperature_pca(rows)
        for comp in pca.components:
            assert comp[np.argmax(np.abs(comp))] > 0

    def test_transform_train_rows_in_unit_box(self):
        rows, _ = self.rank3_rows()
        pca = dataio.fit_temperature_pca(rows)
        scores = pca.transform(rows)
        assert scores.min() >= -1e-12 and scores.max() <= 1.0 + 1e-12

    def test_rank_deficient_raises(self):
        rng = np.random.default_rng(1)
        rows = np.outer(rng.normal(size=30), rng.normal(size=49))
        with pytest.raises(dataio.DataValidationError, match="rank"):
            dataio.fit_temperature_pca(rows)

    def test_too_few_days_raises(self):
        with pytest.raises(dataio.DataValidationError):
            dataio.fit_temperature_pca(np.zeros((3, 49)))


class TestPartition:
    def test_floor_rule(self):
        part = dataio.partition_days(365, 0.75, seed=0)
        assert len(part.train) == 273 and len(part.test) == 92

    def test_disjoint_sorted_union(self):
        part = dataio.partition_days(50, 0.6, seed=5)
        merged = np.concatenate([part.train, part.test])
        assert np.array_equal(np.sort(merged), np.arange(50))
        assert np.array_equal(part.train, np.sort(part.train))

    def test_seed_determinism(self):
        a = dataio.partition_days(100, 0.75, seed=3)
        b = dataio.partition_days(100, 0.75, seed=3)
        c = dataio.partition_days(100, 0.75, seed=4)
        np.testing.assert_array_equal(a.train, b.train)
        assert not np.array_equal(a.train, c.train)

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.2])
    def test_invalid_fraction_raises(self, fraction):
        with pytest.raises(dataio.ConfigError):
            dataio.partition_days(10, fraction, seed=0)

    def test_degenerate_split_raises(self):
        with pytest.raises(dataio.ConfigError):
            dataio.partition_days(2, 0.05, seed=0)


class TestPreparedDataset:
    def test_shapes_and_content(self, prepared_small, small_population):
        ds = prepared_small
        n = len(small_population.household_ids)
        T = len(small_population.dates)
        assert ds.kwh.shape == (n, T, 48)
        assert ds.tariff.shape == (n, T, 48)
        assert ds.tau.shape == (T, 48)
        assert ds.pca_scores.shape == (T, 3)
        assert len(ds.partition.train) == int(0.75 * T)
        train_scores = ds.pca_scores[ds.partition.train]
        assert train_scores.min() >= -1e-9 and train_scores.max() <= 1 + 1e-9

    def test_conditional_matrix_matches_per_day_vectors(self, prepared_small):
        ds = prepared_small

        def per_day(days, tariffs):
            return np.stack([dataio.build_conditional_vector(
                ds.pca_scores[d], ds.calendar.kappa[d], ds.calendar.w[d], tariff)
                for d, tariff in zip(days, tariffs)])

        every_day = np.arange(ds.n_days)
        mat = ds.conditional_matrix(every_day, ds.tariff[0])
        assert mat.shape == (ds.n_days, 101) and mat.dtype == np.float64
        np.testing.assert_array_equal(mat, per_day(every_day, ds.tariff[0]))
        # any days under any tariffs: row i is day i's conditional, whatever the others
        days = [5, 0, 5]
        np.testing.assert_array_equal(ds.conditional_matrix(days, ds.tariff[1][days]),
                                      per_day(days, ds.tariff[1][days]))
        # scenario-style: test days repeated, each under one fixed schedule
        days = np.repeat(ds.partition.test, 3)
        schedule = np.full((len(days), 48), NORMAL, dtype=np.int8)
        schedule[:, 12:18] = LOW
        schedule[::2, 36:40] = HIGH
        np.testing.assert_array_equal(ds.conditional_matrix(days, schedule),
                                      per_day(days, schedule))

    def test_conditional_matrix_needs_one_schedule_per_day(self, prepared_small):
        with pytest.raises(ValueError, match="tariff codes"):
            prepared_small.conditional_matrix([0, 1, 2], prepared_small.tariff[0][:2])

    def test_save_load_round_trip(self, prepared_small, tmp_path):
        path = tmp_path / "prepared.npz"
        dataio.save_prepared(prepared_small, path)
        loaded = dataio.load_prepared(path)
        np.testing.assert_array_equal(loaded.kwh, prepared_small.kwh)
        np.testing.assert_array_equal(loaded.tariff, prepared_small.tariff)
        np.testing.assert_array_equal(loaded.tau_bar, prepared_small.tau_bar)
        np.testing.assert_array_equal(loaded.pca_scores, prepared_small.pca_scores)
        np.testing.assert_array_equal(loaded.partition.train, prepared_small.partition.train)
        assert loaded.household_ids == prepared_small.household_ids
        assert loaded.groups == prepared_small.groups
        assert loaded.dates == prepared_small.dates
        assert loaded.smoothing_a == prepared_small.smoothing_a

    @pytest.mark.parametrize("key, change, error", [
        ("pca_scores", None, r"missing pca_scores"),
        ("kwh", np.s_[:, :10], r"kwh has shape \(\d+, 10, 48\), expected \(\d+, \d+, 48\)"),
        ("tariff", np.s_[:-1], r"tariff has shape"),
        ("kwh", np.s_[..., :47], r"kwh has shape"),
        ("tau", np.s_[:-1], r"tau has shape"),
        ("tau_bar", np.s_[:, :24], r"tau_bar has shape"),
        ("tau_bar_daily", np.s_[:-1], r"tau_bar_daily has shape"),
        ("w", np.s_[1:], r"w has shape"),
        ("kappa", lambda kappa: kappa[None], r"kappa has shape"),
        ("pca_scores", np.s_[:, :2], r"pca_scores has shape"),
        ("dates", lambda dates: dates[None], r"dates has shape"),
        ("household_ids", np.s_[:-1], r"groups has shape \(\d+,\), expected"),
        ("groups", np.s_[:-1], r"groups has shape"),
        ("train", lambda days: days + 1000, r"train holds day indices outside 0\.\.\d+"),
        ("test", lambda days: -days - 1, r"test holds day indices outside"),
        ("test", lambda days: days.astype(float), r"test holds day indices outside"),
    ], ids=["no-pca-scores", "kwh-days", "tariff-households", "kwh-slots", "tau", "tau-bar",
            "tau-bar-daily", "w", "kappa", "pca-scores", "dates", "ids", "groups",
            "train-past-the-end", "negative-test", "float-test"])
    def test_a_file_that_disagrees_names_itself(self, prepared_small, tmp_path, key, change,
                                                error):
        path = tmp_path / "prepared.npz"
        dataio.save_prepared(prepared_small, path)
        with np.load(path) as z:
            arrays = dict(z)
        if change is None:
            del arrays[key]
        else:
            arrays[key] = change(arrays[key]) if callable(change) else arrays[key][change]
        np.savez(path, **arrays)
        with pytest.raises(dataio.DataValidationError,
                           match=rf"prepared\.npz: {error}.*rerun `drsim ingest --force`$"):
            dataio.load_prepared(path)

    def test_flagged_households_dropped(self, tmp_path):
        # over 8 days b misses half of every day and is flagged; a misses a
        # slot inside day 3 and c the first two slots of the record
        days = [D1 + datetime.timedelta(days=t) for t in range(8)]
        body = "".join(
            day_rows("a", d, kwh=0.1 * (t + 1), tariff=("LOW", "NORMAL", "HIGH")[t % 3],
                     skip=(5,) if t == 3 else ())
            + day_rows("b", d, skip=range(24))
            + day_rows("c", d, kwh=0.3 + 0.05 * t, tariff="FLAT", group="STD",
                       skip=(0, 1) if t == 0 else ())
            for t, d in enumerate(days))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            data = dataio.read_consumption_csv(write_csv(tmp_path / "c.csv", body))
        assert data.flagged == ["b"]
        assert np.isnan(data.kwh[0]).any() and np.isnan(data.kwh[2]).any()
        # prepare_dataset repairs data's own grids, so the expected ones come first
        kept = [0, 2]
        kwh = np.stack([dataio.repair_household(data.kwh[i]) for i in kept])
        tariff = np.stack([dataio.repair_tariffs(data.tariff[i]) for i in kept])
        ds = dataio.prepare_dataset(data, eight_days_of_temperature(), train_fraction=0.75,
                                    seed=0)
        assert ds.household_ids == ["a", "c"] and ds.groups == ["TOU", "STD"]
        assert ds.flagged == ["b"]
        np.testing.assert_array_equal(ds.kwh, kwh)
        np.testing.assert_array_equal(ds.tariff, tariff)
        assert not np.isnan(ds.kwh).any() and (ds.tariff >= 0).all()

    def test_repair_is_made_in_the_consumption_grids(self, tmp_path):
        # b, flagged, lies between a and c, and e, flagged, after c and d: c and d
        # move down one place, and a, repaired where it lies, keeps its place
        days = [D1 + datetime.timedelta(days=t) for t in range(8)]
        body = "".join(
            day_rows("a", d, kwh=0.2 + 0.1 * t, tariff=("LOW", "HIGH")[t % 2],
                     skip=range(40, 48) if t == 2 else ())
            + day_rows("b", d, skip=range(0, 48, 2))
            + day_rows("c", d, kwh=1.0 - 0.05 * t, tariff=("NORMAL", "LOW", "HIGH")[t % 3],
                       skip=(3, 4) if t in (0, 7) else ())
            + day_rows("d", d, kwh=0.7, tariff="FLAT", group="STD", skip=(t,))
            + (day_rows("e", d) if t < 4 else "")
            for t, d in enumerate(days))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            data = dataio.read_consumption_csv(write_csv(tmp_path / "c.csv", body))
        assert data.flagged == ["b", "e"]
        kwh, tariff = data.kwh.copy(), data.tariff.copy()
        ds = dataio.prepare_dataset(data, eight_days_of_temperature(), seed=3)
        assert ds.household_ids == ["a", "c", "d"]
        np.testing.assert_array_equal(ds.kwh, np.stack(
            [dataio.repair_household(kwh[i]) for i in (0, 2, 3)]))
        np.testing.assert_array_equal(ds.tariff, np.stack(
            [dataio.repair_tariffs(tariff[i]) for i in (0, 2, 3)]))
        assert np.shares_memory(ds.kwh, data.kwh) and np.shares_memory(ds.tariff, data.tariff)
        assert ds.kwh.flags.c_contiguous and ds.tariff.flags.c_contiguous

    @pytest.mark.parametrize("slice_bytes", [7, 4096, None])
    def test_saved_file_is_what_np_savez_writes(self, prepared_small, tmp_path, monkeypatch,
                                                slice_bytes):
        ds = prepared_small
        if slice_bytes:
            monkeypatch.setattr(dataio, "_WRITE_BYTES", slice_bytes)
        assert ds.kwh.nbytes > 4 * dataio._WRITE_BYTES or slice_bytes is None
        reference = tmp_path / "reference.npz"
        np.savez(reference, household_ids=np.array(ds.household_ids),
                 groups=np.array(ds.groups), kwh=ds.kwh, tariff=ds.tariff,
                 dates=np.array([d.isoformat() for d in ds.dates]), tau=ds.tau,
                 tau_bar=ds.tau_bar, tau_bar_daily=ds.tau_bar_daily, w=ds.calendar.w,
                 kappa=ds.calendar.kappa, pca_mean=ds.pca.mean,
                 pca_components=ds.pca.components, pca_explained=ds.pca.explained,
                 pca_score_min=ds.pca.score_min, pca_score_max=ds.pca.score_max,
                 pca_scores=ds.pca_scores, train=ds.partition.train, test=ds.partition.test,
                 fraction=np.array(ds.partition.fraction), seed=np.array(ds.partition.seed),
                 flagged=np.array(ds.flagged, dtype=str), smoothing_a=np.array(ds.smoothing_a))
        path = tmp_path / "prepared.npz"
        dataio.save_prepared(ds, path)
        assert path.read_bytes() == reference.read_bytes()
        loaded = dataio.load_prepared(path)
        for key in ("household_ids", "groups", "dates", "flagged", "smoothing_a"):
            assert getattr(loaded, key) == getattr(ds, key), key
        for key in ("kwh", "tariff", "tau", "tau_bar", "tau_bar_daily", "pca_scores"):
            a, b = getattr(loaded, key), getattr(ds, key)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), key

    @pytest.mark.parametrize("array", [
        np.array(["a", "bcd", "éf"]), np.array([], dtype=str), np.arange(-5, 5, dtype=np.int8),
        np.linspace(0.0, 1.0, 3000).reshape(30, 100), np.array(0.25), np.array(7),
        np.asfortranarray(np.arange(600.0).reshape(20, 30)), np.arange(600.0)[::3],
        np.arange(300, dtype=">i4"), np.zeros((0, 48)),
    ], ids=["str", "empty-str", "int8", "float64-over-many-slices", "0-d-float", "0-d-int",
            "fortran-order", "strided", "big-endian", "empty-2-d"])
    def test_npy_writer_writes_what_numpy_writes(self, monkeypatch, array):
        monkeypatch.setattr(dataio, "_WRITE_BYTES", 1000)
        got, want = io.BytesIO(), io.BytesIO()
        dataio._write_npy(got, array)
        np.lib.format.write_array(want, array)
        assert got.getvalue() == want.getvalue()
        got.seek(0)
        loaded = np.lib.format.read_array(got)
        assert loaded.dtype == array.dtype and np.array_equal(loaded, array)


def eight_days_of_temperature():
    """Hourly temperatures over the eight days from D1."""
    ts = [datetime.datetime.combine(D1, datetime.time()) + datetime.timedelta(hours=k)
          for k in range(8 * 24)]
    return dataio.TemperatureSeries(ts, np.random.default_rng(5).normal(10.0, 3.0, len(ts)))


class TestArtifactFiles:
    HEADER = ["a", "b"]

    def test_round_trip_writes_floats_by_repr(self, tmp_path):
        path = tmp_path / "x.csv"
        dataio.write_csv(path, self.HEADER, ([i, 0.1 * i] for i in range(3)))
        assert path.read_bytes() == b"a,b\r\n0,0.0\r\n1,0.1\r\n2,0.2\r\n"
        assert dataio.read_csv(path, self.HEADER, ValueError) == [
            ["0", "0.0"], ["1", "0.1"], ["2", "0.2"]
        ]

    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "x.csv"
        dataio.write_csv(path, self.HEADER, [[1, 2.5]])
        before = path.read_bytes()

        def rows():
            yield [3, 4.5]
            raise RuntimeError("generator died")

        with pytest.raises(RuntimeError, match="generator died"):
            dataio.write_csv(path, self.HEADER, rows())
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["x.csv"]

    def test_failed_first_write_leaves_no_file(self, tmp_path):
        with pytest.raises(KeyboardInterrupt):
            with dataio.replacing(tmp_path / "m.npz", "wb") as fh:
                np.savez(fh, a=np.arange(3))
                raise KeyboardInterrupt
        assert list(tmp_path.iterdir()) == []

    def test_temporary_file_is_hidden_beside_target(self, tmp_path):
        with dataio.replacing(tmp_path / "m.csv") as fh:
            fh.write("x\n")
            [tmp] = tmp_path.iterdir()
            assert tmp.match(".m.csv.*.tmp")
        assert [p.name for p in tmp_path.iterdir()] == ["m.csv"]
        with dataio.replacing_all([tmp_path / "a.csv", tmp_path / "b.csv"]) as (a, b):
            assert all(Path(t).parent == tmp_path for t in (a, b))
            assert Path(a).match(".a.csv.*.tmp") and Path(b).match(".b.csv.*.tmp")
            dataio.write_csv(a, self.HEADER, [])
            dataio.write_csv(b, self.HEADER, [])
            assert not (tmp_path / "a.csv").exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "b.csv", "m.csv"]

    def test_wrong_header_names_file(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,c\n1,2\n")
        with pytest.raises(dataio.DataParseError, match="x.csv: header a,c, expected header a,b"):
            dataio.read_csv(path, self.HEADER, dataio.DataParseError)

    @pytest.mark.parametrize("reader, error", [
        (causality.read_profiles_csv, causality.FitError),
        (clustering.read_assignments_csv, clustering.ClusteringError),
        (metrics.read_report_csv, metrics.ScoringError),
        (synthdata.read_ground_truth_csv, synthdata.SynthError),
    ])
    def test_empty_artifact_raises_module_error(self, tmp_path, reader, error):
        path = tmp_path / "artifact.csv"
        path.write_text("")
        with pytest.raises(error, match="artifact.csv: empty file"):
            reader(path)
