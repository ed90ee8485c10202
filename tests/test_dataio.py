import csv
import datetime
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drsim import causality, clustering, dataio, metrics, synthdata
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
    households, coverage, flagged = [], {}, []
    for hid, rows in per_household.items():
        kwh = np.full((n_days, 48), np.nan)
        tar = np.full((n_days, 48), -1, dtype=np.int8)
        for (d, h), (value, code) in rows.items():
            kwh[day_index[d], h] = value
            tar[day_index[d], h] = code
        observed = ~np.isnan(kwh)
        coverage[hid] = observed.sum() / observed.size
        if coverage[hid] < dataio.COVERAGE_THRESHOLD:
            flagged.append(hid)
        households.append(dataio.HouseholdData(hid, groups[hid], kwh, tar, observed))
    return dataio.ConsumptionData(households, dates, coverage, flagged)


class TestReadConsumption:
    def test_round_trip_from_writer(self, small_population, small_csv_dir):
        data = dataio.read_consumption_csv(small_csv_dir / "consumption.csv")
        assert [hh.household_id for hh in data.households] == small_population.household_ids
        assert data.dates == small_population.dates
        hh0 = data.households[0]
        np.testing.assert_allclose(hh0.kwh, small_population.kwh[0], atol=5e-7)
        np.testing.assert_array_equal(hh0.tariff, small_population.tariff[0])
        assert hh0.observed.all()
        assert data.coverage[hh0.household_id] == 1.0

    def test_flat_maps_to_normal(self, small_population, small_csv_dir):
        data = dataio.read_consumption_csv(small_csv_dir / "consumption.csv")
        std = [hh for hh in data.households if hh.group == "STD"]
        assert std and all((hh.tariff == NORMAL).all() for hh in std)

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
        hh = data.households[0]
        assert not hh.observed[1, 7] and hh.observed.sum() == 95

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
        # interleaved and out of order, gaps, a low-coverage STD/FLAT
        # household, both timestamp spellings, blank lines and CRLF endings
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
        path = tmp_path / "c.csv"
        path.write_bytes("\r\n".join([HEADER.strip()] + rows + [""]).encode())

        with pytest.warns(UserWarning, match="1 household"):
            got = dataio.read_consumption_csv(path)
        want = reference_read_consumption(path)
        for name in ("household_id", "group"):
            assert [getattr(hh, name) for hh in got.households] == \
                [getattr(hh, name) for hh in want.households]
        assert got.dates == want.dates and len(got.dates) == 3
        assert got.coverage == want.coverage
        assert got.flagged == want.flagged == ["s"]
        for g, w in zip(got.households, want.households):
            for name in ("kwh", "tariff", "observed"):
                a, b = getattr(g, name), getattr(w, name)
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


def assert_same_data(got, want):
    """Two ConsumptionData hold the same ids, dates, coverage and grids, bit for bit."""
    for name in ("household_id", "group"):
        assert [getattr(hh, name) for hh in got.households] == \
            [getattr(hh, name) for hh in want.households]
    assert got.dates == want.dates
    assert got.coverage == want.coverage and got.flagged == want.flagged
    for g, w in zip(got.households, want.households):
        for name in ("kwh", "tariff", "observed"):
            a, b = getattr(g, name), getattr(w, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


def outcome(path):
    """What read_consumption_csv makes of path: its data, or its error's type and text."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return dataio.read_consumption_csv(path)
    except Exception as exc:
        return type(exc), str(exc)


THREE_DAYS = day_rows("a", D1) + day_rows("b", D1) + day_rows("a", D2) + day_rows("b", D2)


class TestChunkedRead:
    """The bulk parse with chunks of ~100 bytes, so that faults fall in late
    chunks, after the bulk parse has read the lines before them."""

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(dataio, "_CHUNK_BYTES", 100)

    @pytest.fixture()
    def row_loop_starts(self, monkeypatch):
        """Line numbers at which the row loop took over, one per read."""
        starts = []
        read_rows = dataio._read_rows

        def spy(reader, line_no, cols):
            starts.append(line_no)
            return read_rows(reader, line_no, cols)

        monkeypatch.setattr(dataio, "_read_rows", spy)
        return starts

    def test_mixed_file_matches_reference_without_the_row_loop(self, tmp_path, row_loop_starts):
        TestReadConsumption().test_matches_row_at_a_time_reader_bit_for_bit(tmp_path)
        assert row_loop_starts == []

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

    @pytest.mark.parametrize("variant, row_loop", [
        ("quote-all", "from the header"), ("non-ascii-id", "late"), ("lone-cr", "late"),
        ("nul-in-kwh", "late"), ("spaced-kwh", "late"), ("underscored-kwh", "late"),
        ("negative-zero", "never"), ("signed-exponent", "never"), ("crlf", "never"),
        ("quoted-id", "late"), ("cr-before-row", "late"),
    ])
    def test_variants_read_as_reference_or_keep_the_message(self, tmp_path, variant, row_loop,
                                                            row_loop_starts):
        # about 20 KB, so the row loop, which starts at the line holding the text
        # reader's last 8 KiB boundary before the chunk, starts past line 400
        body = "".join(day_rows(h, d) for d in (D1, D2, D3) for h in "abcd")
        lines = (HEADER + body).splitlines(keepends=True)
        late = 550                            # index of file line 551
        fault = None
        if variant == "quote-all":
            rows = list(csv.reader(lines))
            with open(tmp_path / "c.csv", "w", newline="") as fh:
                csv.writer(fh, quoting=csv.QUOTE_ALL, lineterminator="\n").writerows(rows)
        else:
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
        if row_loop == "from the header":
            assert row_loop_starts == [2]
        elif row_loop == "never":
            assert row_loop_starts == []
        else:
            assert 400 < row_loop_starts[0] <= late + 1

    @pytest.mark.parametrize("duplicate_at, error", [
        (6000, dataio.DataValidationError), (8192 + 200, UnicodeDecodeError),
    ])
    def test_undecodable_byte_fails_as_in_the_row_loop(self, tmp_path, monkeypatch,
                                                       duplicate_at, error):
        # the text reader decodes 8 KiB at a time, so a bad byte fails the rows
        # of its whole block: a duplicate in an earlier block is reported, one in
        # the same block is not
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
        kwh = np.full((1, 48), np.nan)
        kwh[0, :] = 1.0
        kwh[0, 10] = np.nan
        observed = ~np.isnan(kwh)
        kwh[0, 9], kwh[0, 11] = 1.0, 3.0
        out = dataio.repair_household(np.nan_to_num(kwh), observed)
        assert out[0, 10] == pytest.approx(2.0)

    def test_run_of_three_interpolates(self):
        kwh = np.arange(96, dtype=float).reshape(2, 48)
        observed = np.ones((2, 48), dtype=bool)
        observed[0, 20:23] = False
        out = dataio.repair_household(kwh, observed)
        np.testing.assert_allclose(out[0, 20:23], [20.0, 21.0, 22.0])

    def test_full_day_gap_uses_neighbour_days(self):
        kwh = np.stack([np.full(48, 1.0), np.zeros(48), np.full(48, 3.0)])
        observed = np.ones((3, 48), dtype=bool)
        observed[1] = False
        out = dataio.repair_household(kwh, observed)
        np.testing.assert_allclose(out[1], 2.0)

    def test_edge_gap_copies_nearest_day(self):
        kwh = np.stack([np.zeros(48), np.full(48, 5.0), np.full(48, 7.0)])
        observed = np.ones((3, 48), dtype=bool)
        observed[0] = False
        out = dataio.repair_household(kwh, observed)
        np.testing.assert_allclose(out[0], 5.0)

    def test_no_observations_raises(self):
        with pytest.raises(dataio.UnrecoverableDataError):
            dataio.repair_household(np.zeros((2, 48)), np.zeros((2, 48), dtype=bool))

    def test_repair_preserves_observed_and_is_idempotent(self, rng):
        kwh = rng.uniform(0.1, 2.0, size=(6, 48))
        observed = rng.uniform(size=(6, 48)) > 0.1
        out = dataio.repair_household(np.where(observed, kwh, 0.0), observed)
        np.testing.assert_array_equal(out[observed], kwh[observed])
        again = dataio.repair_household(out, np.ones_like(observed))
        np.testing.assert_array_equal(again, out)

    def test_repair_tariffs_nearest_day_ties_earlier(self):
        tariff = np.full((4, 48), NORMAL, dtype=np.int8)
        tariff[0, 5], tariff[2, 5] = LOW, HIGH
        observed = np.ones((4, 48), dtype=bool)
        observed[1, 5] = False
        out = dataio.repair_tariffs(tariff, observed)
        assert out[1, 5] == LOW  # days 0 and 2 tie; earlier wins

    def test_repair_tariffs_defaults_to_normal(self):
        tariff = np.full((2, 48), HIGH, dtype=np.int8)
        observed = np.ones((2, 48), dtype=bool)
        observed[:, 3] = False
        out = dataio.repair_tariffs(tariff, observed)
        assert out[0, 3] == NORMAL and out[1, 3] == NORMAL


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

    def test_conditional_matrix_shape(self, prepared_small):
        ds = prepared_small
        mat = ds.conditional_matrix(ds.tariff[0])
        assert mat.shape == (ds.n_days, 101)

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

    def test_flagged_households_dropped(self, tmp_path):
        body = day_rows("a", D1) + day_rows("a", D2) + day_rows("b", D1, skip=range(24))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            data = dataio.read_consumption_csv(write_csv(tmp_path / "c.csv", body))
        assert data.flagged == ["b"]
        ts = [datetime.datetime.combine(D1, datetime.time()) + datetime.timedelta(hours=k)
              for k in range(48)]
        temperature = dataio.TemperatureSeries(ts, np.linspace(5, 8, 48))
        with pytest.raises(dataio.DataValidationError):
            # only two days: the PCA cannot be fit, but the flagged household
            # must already be gone by the time that error surfaces
            dataio.prepare_dataset(data, temperature, train_fraction=0.5, seed=0)


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
