import hashlib
import io
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from firedss import cli, ingest
from firedss.ingest import (
    BadCell, Dataset, MissingColumn, RangeViolation, SingleClass, TooFewRows,
    UnknownColumn, UnknownToken, ZeroVariance,
)

from oracles import two_pass_pearson

HEADER = "X,Y,month,day,FFMC,DMC,DC,ISI,temp,RH,wind,rain,area"
ROW1 = "8,6,aug,mon,92.3,88.9,495.6,8.5,24.1,27,3.1,0.0,0.0"
BOM = "\ufeff"    # a UTF-8 byte order mark, as spreadsheet exports write


def make_csv(*rows):
    return HEADER + "\n" + "\n".join(rows) + "\n"


def random_dataset(rng, n_rows):
    rows = []
    for _ in range(n_rows):
        rows.append("%d,%d,%s,%s,%.1f,%.1f,%.1f,%.1f,%.1f,%d,%.1f,%.1f,%.2f" % (
            rng.randint(1, 9), rng.randint(2, 9),
            rng.choice(ingest.MONTHS), rng.choice(ingest.DAYS),
            rng.uniform(20, 96), rng.uniform(1, 290), rng.uniform(7, 860),
            rng.uniform(0, 22), rng.uniform(2, 33), rng.randint(15, 100),
            rng.uniform(0.4, 9.4), rng.uniform(0, 6),
            rng.uniform(0, 100) if rng.random() < 0.5 else 0.0))
    return ingest.parse_dataset(make_csv(*rows))


class TestParse:
    def test_reference_row(self):
        d = ingest.parse_dataset(make_csv(ROW1))
        (rec,) = d.records()
        assert rec == ingest.WeatherRecord(
            x=8, y=6, month="aug", day="mon", ffmc=92.3, dmc=88.9, dc=495.6,
            isi=8.5, temp=24.1, rh=27.0, wind=3.1, rain=0.0, area=0.0)
        assert d.provenance == ({"name": "parse"},)

    def test_empty_dataset(self):
        d = ingest.parse_dataset(HEADER + "\n")
        assert len(d) == 0

    def test_bundled_file_has_517_rows(self, dataset_text):
        # line-count oracle: rows = non-empty lines minus the header
        expected = sum(1 for line in dataset_text.splitlines() if line.strip()) - 1
        d = ingest.parse_dataset(dataset_text)
        assert len(d) == expected == 517

    def test_header_case_insensitive_and_reordered(self):
        text = ("area,x,y,MONTH,day,ffmc,dmc,dc,isi,TEMP,rh,wind,rain\n"
                "0.0,8,6,aug,mon,92.3,88.9,495.6,8.5,24.1,27,3.1,0.0\n")
        d = ingest.parse_dataset(text)
        assert d.records()[0].x == 8 and d.records()[0].area == 0.0

    @pytest.mark.parametrize("row, error, message", [
        ("0.0,8,6,aug,mon,92.3,88.9,495.6,8.5,24.1,140,3.1,0.0", RangeViolation,
         "line 2, column RH: value 140.0 out of range"),
        ("0.0,8,6,AUG,mon,92.3,88.9,495.6,8.5,24.1,27,3.1,x", BadCell,
         "line 2, column rain: cannot parse 'x'"),
        ("0.0,8,6,Sept,mon,92.3,88.9,495.6,8.5,24.1,27,3.1,x", RangeViolation,
         "line 2, column month: value 'sept' out of range"),
    ], ids=["range", "bad-cell", "first-in-column-order"])
    def test_reordered_header_errors_name_the_canonical_column(self, row, error, message):
        # each column's parser reads the cell under its header, and the first
        # bad cell in canonical column order is reported
        text = "area,x,y,MONTH,day,ffmc,dmc,dc,isi,TEMP,rh,wind,rain\n" + row + "\n"
        with pytest.raises(error) as err:
            ingest.parse_dataset(text)
        assert type(err.value) is error and str(err.value) == message

    def test_crlf(self):
        d = ingest.parse_dataset(HEADER + "\r\n" + ROW1 + "\r\n")
        assert len(d) == 1

    def test_missing_column(self):
        with pytest.raises(MissingColumn, match="area"):
            ingest.parse_dataset(HEADER.rsplit(",", 1)[0] + "\n")

    def test_extra_column(self):
        with pytest.raises(UnknownColumn):
            ingest.parse_dataset(HEADER + ",bogus\n")

    def test_bad_cell(self):
        with pytest.raises(BadCell) as err:
            ingest.parse_dataset(make_csv(ROW1.replace("92.3", "oops")))
        assert err.value.column == "FFMC" and err.value.line == 2

    @pytest.mark.parametrize("old, new, column", [("92.3", "nan", "FFMC"),
                                                  ("24.1", "inf", "temp")])
    def test_non_finite_cell_is_bad(self, old, new, column):
        with pytest.raises(BadCell) as err:
            ingest.parse_dataset(make_csv(ROW1.replace(old, new)))
        assert str(err.value) == f"line 2, column {column}: cannot parse {new!r}"

    def test_range_violation(self):
        with pytest.raises(RangeViolation):
            ingest.parse_dataset(make_csv(ROW1.replace(",27,", ",140,")))

    @pytest.mark.parametrize("x, y, column", [("1" * 400, "6", "X"),
                                              ("8", "-" + "9" * 400, "Y")], ids=["X", "Y"])
    def test_grid_index_past_float_range_is_a_range_violation(self, x, y, column):
        # X and Y are checked as ints, never made floats
        with pytest.raises(RangeViolation) as err:
            ingest.parse_dataset(make_csv(ROW1.replace("8,6,", f"{x},{y},", 1)))
        assert err.value.column == column and err.value.value == int(max(x, y, key=len))

    @pytest.mark.parametrize("before, line", [
        ([ROW1, ""], 4),
        ([ROW1.replace(",mon,", ',"mon\n",')], 4),
        ([], 2),
    ], ids=["past-a-blank-line", "past-a-two-line-row", "first-row"])
    def test_errors_name_the_file_line(self, before, line):
        # blank lines and a quoted cell's line break count; the header is line 1
        bad = ROW1.rsplit(",", 1)[0] + ",x"
        message = f"line {line}, column area: cannot parse 'x'"
        with pytest.raises(BadCell, match=message) as err:
            ingest.parse_dataset(make_csv(*before, bad))
        assert err.value.line == line
        with pytest.raises(RangeViolation, match=f"^line {line - 1}, column month"):
            list(ingest.iter_records(
                io.StringIO(make_csv(*before, ROW1.replace("aug", "xyz"))[len(HEADER) + 1:]),
                header=False))

    def test_unknown_month_token(self):
        with pytest.raises(RangeViolation):
            ingest.parse_dataset(make_csv(ROW1.replace("aug", "xyz")))

    def test_malformed_quoting_is_bad_cell(self):
        with pytest.raises(BadCell):
            ingest.parse_dataset(make_csv('"8,6,aug,mon,92.3,88.9,495.6,8.5,24.1,27,3.1,0.0,0.0'))

    def test_roundtrip_identity(self):
        rng = random.Random(7)
        d = random_dataset(rng, 40)
        again = ingest.parse_dataset(ingest.serialize_csv(d))
        assert again.rows == d.rows and again.schema == d.schema


# CSV edge inputs that every ingest path must treat alike
EDGE_INPUTS = {
    "zero_byte": "",
    "blank_line_before_header": "\n" + make_csv(ROW1),
    "empty_quoted_line": HEADER + "\n" + ROW1 + '\n""\n' + ROW1 + "\n",
    "quoted_cell_spans_lines": HEADER + "\n" + ROW1.replace(",aug,", ',"aug\n",') + "\n",
    "header_only": HEADER + "\n",
    "crlf_and_blank_lines": HEADER + "\r\n\r\n" + ROW1 + "\r\n   \r\n",
    "reordered_upper_header": "AREA,X,Y,MONTH,DAY,FFMC,DMC,DC,ISI,TEMP,RH,WIND,RAIN\n"
                              "0.0,8,6,aug,mon,92.3,88.9,495.6,8.5,24.1,27,3.1,0.0\n",
    "short_row": make_csv(ROW1.rsplit(",", 1)[0]),
}


def _outcome(parse):
    try:
        return parse()
    except Exception as exc:  # compared by type across the two paths
        return type(exc)


class TestUnifiedReader:
    @pytest.mark.parametrize("name", sorted(EDGE_INPUTS))
    def test_parse_dataset_and_iter_records_agree(self, name):
        text = EDGE_INPUTS[name]
        batch = _outcome(lambda: ingest.parse_dataset(text).rows)
        streamed = _outcome(lambda: tuple(
            tuple(r) for r in ingest.iter_records(io.StringIO(text))))
        assert batch == streamed

    def test_edge_outcomes(self):
        def rows(name):
            return _outcome(lambda: ingest.parse_dataset(EDGE_INPUTS[name]).rows)
        assert rows("zero_byte") is MissingColumn
        assert len(rows("blank_line_before_header")) == 1
        assert len(rows("empty_quoted_line")) == 2
        (row,) = rows("quoted_cell_spans_lines")
        assert row[2] == "aug"
        assert rows("short_row") is BadCell

    @pytest.mark.parametrize("text, expected", [
        (make_csv(ROW1, ROW1), 2),
        (EDGE_INPUTS["reordered_upper_header"], 1),
        (ROW1 + "\n" + ROW1 + "\n", 2),
        ("\n" + make_csv(ROW1), 1),
        ("", 0),
        (BOM + make_csv(ROW1), 1),
        (BOM + ROW1 + "\n", 1),
    ])
    def test_detected_header(self, text, expected):
        records = list(ingest.iter_records(io.StringIO(text), header=None))
        assert [tuple(r) for r in records] == \
            [ingest.parse_dataset(make_csv(ROW1)).rows[0]] * expected

    def test_headerless_rows_in_canonical_order(self):
        (record,) = ingest.iter_records([ROW1 + "\n"], header=False)
        assert tuple(record) == ingest.parse_dataset(make_csv(ROW1)).rows[0]
        with pytest.raises(BadCell):
            list(ingest.iter_records([HEADER + "\n"], header=False))

    @pytest.mark.parametrize("good_rows, where",
                             [(1, "line 3"), (0, "line 2"), (None, "line 1")])
    def test_oversized_cell_is_a_dataset_error(self, good_rows, where):
        huge = ROW1.replace(",aug,", ',"' + "a" * 200_000 + '",')
        text = huge + "\n" if good_rows is None else make_csv(*[ROW1] * good_rows, huge)
        message = f"^{where}: field larger than field limit"
        with pytest.raises(ingest.DatasetError, match=message):
            ingest.parse_dataset(text)
        with pytest.raises(ingest.DatasetError, match=message):
            list(ingest.iter_records(io.StringIO(text)))


# cells at the edges of each column's parsers: spaces (str.strip's, and
# those int() and float() take), signs, exponents, underscores, non-ASCII
# digits, non-finite values, every bound, and tokens in mixed case
EDGE_CELLS = {
    "X": ["0", "1", "9", "10", " 4 ", "+5", "1_0", "\u0663", "5.0", "-1", "\x1c4", "4\x1f", ""],
    "Y": ["1", "2", "9", "10", "0x9", "\u00a07"],
    "month": ["jan", "AUG", "Dec ", " sEp", "sept", "", "ja n", "\x1cmay"],
    "day": ["mon", "SUN", "\u2003tue", "xyz", "Fri\x1f"],
    "FFMC": ["0", "101", "101.0", "101.5", "-0.0", "nan", "NaN", "inf", " 92.3 ", "+1e2",
             "1E1", "\u0669\u0662.\u0663", "1_0.5", "1__0", "abc", "\x1d50"],
    "DMC": ["0", "-0.0", "-0.1", "1e308", "1e309", "-nan"],
    "DC": ["-inf", "0.0", "1_000", "\u00a0700\u2003"],
    "ISI": ["+0", "-0", ".", "0x1"],
    "temp": ["-40.5", "-1e308", "-1e309", "nan", "\u00a012", "Infinity"],
    "RH": ["100", "100.0", "100.1", "0", "-0.0", "-1", "1e2", "1e-2"],
    "wind": ["0.0", " -0.0", "1e-320", "5e-324"],
    "rain": ["0", "inf", "+inf"],
    "area": ["0", "1.5e3", "x", "1_"],
}


def _typed(rows):
    """Rows as (type, repr) pairs, so that 0.0 and -0.0, or 1 and 1.0, differ."""
    return [tuple((type(v), repr(v)) for v in row) for row in rows]


def _lazy_outcome(rows):
    """(the rows an iterable gives, typed, and the error that ends it or None)."""
    got = []
    try:
        for row in rows:
            got.append(row)
    except ingest.DatasetError as exc:
        return _typed(got), (type(exc), str(exc))
    return _typed(got), None


def _edge_table(rng, n_rows, p_edge):
    """A seeded header order, and rows of ROW1's cells with each cell an
    edge cell with probability p_edge and one in 20 rows a cell short or
    long, each with its 1-based file line after blank lines."""
    names = list(ingest.CANONICAL_COLUMNS)
    rng.shuffle(names)
    base = dict(zip(ingest.CANONICAL_COLUMNS, ROW1.split(",")))
    lines, rows, ends = [",".join(names)], [], []
    for _ in range(n_rows):
        while rng.random() < 0.1:
            lines.append("")
        cells = [rng.choice(EDGE_CELLS[n]) if rng.random() < p_edge else base[n] for n in names]
        if rng.random() < 0.05:
            cells = cells[:-1] if rng.random() < 0.5 else cells + ["0"]
        lines.append(",".join(cells))
        rows.append(cells)
        ends.append(len(lines))
    return names, "\n".join(lines) + "\n", rows, ends


class TestBlockParser:
    """A block of rows is parsed a column at a time; parsing it row by row
    with _parse_row, in file order, is the oracle."""

    @pytest.mark.parametrize("seed", range(4))
    def test_each_column_parser_agrees_with_its_cell_parser(self, seed):
        rng = random.Random(seed)
        base = dict(zip(ingest.CANONICAL_COLUMNS, ROW1.split(",")))
        for name, (parse, parse_column) in zip(ingest.CANONICAL_COLUMNS, ingest._PARSERS):
            for _ in range(60):
                p_edge = rng.choice([0.05, 0.3, 1.0])
                cells = tuple(rng.choice(EDGE_CELLS[name]) if rng.random() < p_edge
                              else base[name] for _ in range(rng.randint(1, 12)))
                try:
                    expected = [parse(1, c) for c in cells]
                except ingest.DatasetError:
                    expected = None
                got = parse_column(cells)
                if expected is None:
                    assert got is None, (name, cells)
                else:
                    assert got is not None, (name, cells)
                    assert _typed([got]) == _typed([expected]), (name, cells)

    @pytest.mark.parametrize("seed", range(8))
    def test_blocks_give_the_rows_or_the_first_error_of_parsing_row_by_row(self, seed,
                                                                           monkeypatch):
        parse_row, row_parses = ingest._parse_row, []
        monkeypatch.setattr(ingest, "_parse_row",
                            lambda *args: row_parses.append(args) or parse_row(*args))
        rng = random.Random(seed)
        for _ in range(40):
            n_rows = rng.randint(1, 30)
            p_edge = rng.choice([0.0, 0.01, 0.05, 0.2])
            names, text, rows, ends = _edge_table(rng, n_rows, p_edge)
            columns = tuple(zip(ingest._PARSERS, ingest._header_order(names)))
            expected = _lazy_outcome(
                parse_row(line, cells, columns) for line, cells in zip(ends, rows))
            for block in {1, rng.randint(2, n_rows + 1), n_rows, None}:
                row_parses.clear()
                got = _lazy_outcome(ingest.iter_records(io.StringIO(text), block=block))
                assert got == expected, (seed, text, block)
                # rows are parsed one by one only to report an error
                assert expected[1] is not None or not row_parses
            if expected[1] is None:
                assert _typed(ingest.parse_dataset(text).rows) == expected[0]
            else:
                with pytest.raises(expected[1][0]) as err:
                    ingest.parse_dataset(text)
                assert str(err.value) == expected[1][1]

    @pytest.mark.parametrize("block", [None, 1, 5, 20])
    def test_a_bad_cell_is_reported_before_a_csv_error_after_it(self, block):
        # line 4's cell fails before the reader meets line 6's oversized field
        huge = ROW1.replace(",aug,", ',"' + "a" * 200_000 + '",')
        text = make_csv(ROW1, ROW1, ROW1.replace("92.3", "abc"), ROW1, huge, ROW1)
        message = "^line 4, column FFMC: cannot parse 'abc'$"
        records = ingest.iter_records(io.StringIO(text), block=block)
        assert [tuple(next(records)) for _ in range(2)] == \
            [ingest.parse_dataset(make_csv(ROW1)).rows[0]] * 2
        with pytest.raises(BadCell, match=message):
            next(records)
        with pytest.raises(BadCell, match=message):
            ingest.parse_dataset(text)

    @pytest.mark.parametrize("block", [1, 3, None])     # 1, k - 1 and one block
    def test_a_decode_error_of_the_lines_is_raised_after_the_rows_before_it(self, block):
        # the k-th line raises, as a stream source's UTF-8 reader does
        k = 4
        error = UnicodeDecodeError("utf-8", b"a\xffg\n", 1, 2, "invalid start byte")

        def lines():
            yield from [ROW1 + "\n"] * (k - 1)
            raise error

        records = ingest.iter_records(lines(), header=False, block=block)
        assert [tuple(next(records)) for _ in range(k - 1)] == \
            [ingest.parse_dataset(make_csv(ROW1)).rows[0]] * (k - 1)
        with pytest.raises(UnicodeDecodeError) as caught:
            next(records)
        assert caught.value is error


class TestByteOrderMark:
    """The reader drops one byte order mark before the first line, in every
    header mode (header=None: TestUnifiedReader.test_detected_header)."""

    def test_convert_of_the_bundled_table(self, capsys, tmp_path, dataset_text):
        csv_path, out = tmp_path / "bom.csv", tmp_path / "bom.nt"
        csv_path.write_text(BOM + dataset_text, encoding="utf-8")
        assert cli.main(["convert", str(csv_path), str(out)]) == 0
        capsys.readouterr()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == \
            "c2a60090074e438c2f6b4d8ac212a8361f2131e257543c911d3e5c4a49e03cc3"

    def test_stream_of_the_bundled_table(self, capsys, tmp_path, dataset_text):
        csv_path, sink = tmp_path / "bom.csv", tmp_path / "alerts.jsonl"
        csv_path.write_text(BOM + dataset_text, encoding="utf-8")
        assert cli.main(["stream", "--dataset", str(csv_path), "--sink", str(sink)]) == 0
        assert json.loads(capsys.readouterr().out)["records_in"] == 517
        assert sink.stat().st_size > 0

    def test_headerless_first_record(self):
        (record,) = ingest.iter_records([BOM + ROW1 + "\n"], header=False)
        assert tuple(record) == ingest.parse_dataset(make_csv(ROW1)).rows[0]

    def test_only_one_mark_is_dropped(self):
        with pytest.raises(ingest.UnknownColumn, match=f"^unknown column: {BOM}X$"):
            ingest.parse_dataset(BOM + BOM + make_csv(ROW1))


class TestLogTransform:
    def test_zero_maps_to_zero(self):
        d = ingest.parse_dataset(make_csv(ROW1))
        out = ingest.log_transform_area(d)
        assert out.records()[0].area == 0.0

    def test_reference_value(self):
        # ln(1 + 54.29) from an independent high-precision source
        import mpmath
        expected = float(mpmath.log(mpmath.mpf("55.29")))
        d = ingest.parse_dataset(make_csv(ROW1[: ROW1.rfind(",")] + ",54.29"))
        out = ingest.log_transform_area(d)
        assert out.records()[0].area == pytest.approx(expected, abs=1e-12)
        assert out.records()[0].area == pytest.approx(4.012592060349841, abs=1e-12)

    def test_analytic_identity(self):
        row = ROW1[: ROW1.rfind(",")] + "," + repr(math.e - 1)
        out = ingest.log_transform_area(ingest.parse_dataset(make_csv(row)))
        assert out.records()[0].area == pytest.approx(1.0, abs=1e-12)

    def test_provenance_appended(self):
        out = ingest.log_transform_area(ingest.parse_dataset(make_csv(ROW1)))
        assert out.provenance[-1]["name"] == "log1p"

    def test_negative_area_names_its_record_from_1(self):
        d = ingest.parse_dataset(make_csv(ROW1, ROW1))
        i = d.column_index("area")
        hacked = Dataset(d.schema, [d.rows[0], d.rows[1][:i] + (-1.5,) + d.rows[1][i + 1:]],
                         d.provenance)
        with pytest.raises(ingest.NegativeInput, match="^record 2: area -1.5 < 0$"):
            ingest.log_transform_area(hacked)


class TestZscore:
    def base(self, values):
        rows = [ROW1[: ROW1.rfind(",")] + "," + repr(float(v)) for v in values]
        return ingest.parse_dataset(make_csv(*rows))

    def test_three_point_column(self):
        d = self.base([1, 2, 3])
        out, params = ingest.zscore_normalize(d, ["area"])
        got = out.column("area")
        r = math.sqrt(3.0 / 2.0)
        assert got == pytest.approx([-r, 0.0, r], abs=1e-12)
        assert params.mean("area") == pytest.approx(2.0)
        assert params.stddev("area") == pytest.approx(math.sqrt(2.0 / 3.0))

    def test_zero_mean_unit_variance(self):
        d = random_dataset(random.Random(3), 60)
        out, _ = ingest.zscore_normalize(d, ["temp", "DC"])
        for col in ("temp", "DC"):
            vals = np.array(out.column(col))
            assert abs(vals.mean()) < 1e-9
            assert abs(vals.var() - 1.0) < 1e-9

    def test_constant_column_rejected(self):
        d = self.base([5, 5, 5])
        with pytest.raises(ZeroVariance, match="area"):
            ingest.zscore_normalize(d, ["area"])

    def test_idempotent_on_normalized_params(self):
        d = self.base([1, 2, 3, 10])
        once, _ = ingest.zscore_normalize(d, ["area"])
        twice, params = ingest.zscore_normalize(once, ["area"])
        assert params.mean("area") == pytest.approx(0.0, abs=1e-12)
        assert params.stddev("area") == pytest.approx(1.0, abs=1e-12)
        assert twice.column("area") == pytest.approx(once.column("area"), abs=1e-9)

    def test_denormalize_roundtrip(self):
        d = random_dataset(random.Random(11), 30)
        out, params = ingest.zscore_normalize(d, ["FFMC", "temp", "wind"])
        for col in ("FFMC", "temp", "wind"):
            back = np.array(out.column(col)) * params.stddev(col) + params.mean(col)
            assert list(back) == pytest.approx(d.column(col), abs=1e-9)

    def test_unknown_column(self):
        with pytest.raises(UnknownColumn):
            ingest.zscore_normalize(self.base([1, 2]), ["bogus"])


class TestOneHot:
    def test_reference_row_encoding(self):
        d = ingest.parse_dataset(make_csv(ROW1))
        out = ingest.one_hot_encode(d, ["month"])
        assert out.column("month=aug") == [1]
        others = [out.column(f"month={m}")[0] for m in ingest.MONTHS if m != "aug"]
        assert others == [0] * 11

    def test_column_count(self):
        d = ingest.parse_dataset(make_csv(ROW1))
        out = ingest.one_hot_encode(d, ["month", "day"])
        assert len(out.schema) == 11 + 12 + 7

    def test_layout_is_calendar_order(self):
        d = ingest.parse_dataset(make_csv(ROW1))
        out = ingest.one_hot_encode(d, ["month", "day"])
        month_cols = [n for n in out.column_names if n.startswith("month=")]
        assert month_cols == [f"month={m}" for m in ingest.MONTHS]

    def test_non_categorical_rejected(self):
        d = ingest.parse_dataset(make_csv(ROW1))
        with pytest.raises(ingest.WrongColumnKind, match="^column temp is numeric; onehot"):
            ingest.one_hot_encode(d, ["temp"])

    def test_unknown_token(self):
        d = ingest.parse_dataset(make_csv(ROW1))
        hacked = Dataset(d.schema, [tuple("xyz" if v == "mon" else v for v in d.rows[0])],
                         d.provenance)
        with pytest.raises(UnknownToken):
            ingest.one_hot_encode(hacked, ["day"])

    @pytest.mark.parametrize("encode", [ingest.one_hot_encode, ingest.ordinal_encode])
    def test_unknown_token_names_its_record_from_1(self, encode):
        # a Dataset row has no file line after filter or resample, so
        # transform errors count the Dataset's records from 1
        d = ingest.parse_dataset(make_csv(ROW1, ROW1))
        hacked = Dataset(d.schema, [d.rows[0], tuple("xyz" if v == "mon" else v
                                                     for v in d.rows[1])], d.provenance)
        with pytest.raises(UnknownToken, match="^record 2, column day: unknown token 'xyz'$"):
            encode(hacked, ["day"])

    @given(st.integers(min_value=0, max_value=10 ** 9))
    @settings(max_examples=60, deadline=None)
    def test_exactly_one_hot_per_row(self, seed):
        d = random_dataset(random.Random(seed), 8)
        out = ingest.one_hot_encode(d, ["month", "day"])
        for row in out.rows:
            by_name = dict(zip(out.column_names, row))
            assert sum(by_name[f"month={m}"] for m in ingest.MONTHS) == 1
            assert sum(by_name[f"day={t}"] for t in ingest.DAYS) == 1


class TestCorrelation:
    def test_unit_diagonal_and_symmetry(self):
        d = random_dataset(random.Random(5), 50)
        cm = ingest.correlation_matrix(d)
        assert np.allclose(np.diag(cm.values), 1.0)
        assert np.allclose(cm.values, cm.values.T)

    def test_perfect_linear_relation(self):
        rows = []
        for i, v in enumerate([1, 2, 3]):
            rows.append(f"{v},{2 + v},aug,mon,{88 + i}.0,{80 - 3 * i}.0,{400 + 7 * i}.0,"
                        f"{5 + i}.0,{20 + i}.5,{40 + i},{4 - i}.0,0.{i},{float(i)}")
        cm = ingest.correlation_matrix(ingest.parse_dataset(make_csv(*rows)))
        assert cm.value("X", "Y") == pytest.approx(1.0, abs=1e-12)

    def test_matches_two_pass_oracle_on_random_data(self):
        for seed in range(6):
            d = random_dataset(random.Random(seed), 50)
            cm = ingest.correlation_matrix(d)
            for a, b, got in cm.pairs():
                want = two_pass_pearson([float(v) for v in d.column(a)],
                                        [float(v) for v in d.column(b)])
                assert got == pytest.approx(want, abs=1e-9), (a, b)

    def test_too_few_rows(self):
        with pytest.raises(TooFewRows):
            ingest.correlation_matrix(ingest.parse_dataset(make_csv(ROW1)))

    def test_zero_variance_rejected(self):
        d = ingest.parse_dataset(make_csv(ROW1, ROW1))
        with pytest.raises(ZeroVariance):
            ingest.correlation_matrix(d)


class TestOutliers:
    def base(self, values):
        rows = [ROW1[: ROW1.rfind(",")] + "," + repr(float(v)) for v in values]
        return ingest.parse_dataset(make_csv(*rows))

    def test_zscore_removes_spike(self):
        d = self.base([1, 1, 1, 1, 100])
        out = ingest.filter_outliers(d, "area", "zscore", 1.5)
        assert out.column("area") == [1.0, 1.0, 1.0, 1.0]
        assert out.provenance[-1]["removed"] == 1

    def test_iqr_all_equal_keeps_everything(self):
        d = self.base([7, 7, 7, 7])
        out = ingest.filter_outliers(d, "area", "iqr")
        assert len(out) == 4

    def test_noop_when_within_threshold(self):
        d = self.base([1, 2, 3, 4])
        out = ingest.filter_outliers(d, "area", "zscore", 3.0)
        assert out.rows == d.rows

    def test_infinite_threshold_removes_nothing(self):
        d = self.base([1, 5, 250, -0.0])
        out = ingest.filter_outliers(d, "area", "zscore", math.inf)
        assert len(out) == len(d)
        out = ingest.filter_outliers(d, "area", "iqr", math.inf)
        assert len(out) == len(d)

    def test_never_grows(self):
        rng = random.Random(2)
        for _ in range(10):
            d = random_dataset(rng, 25)
            out = ingest.filter_outliers(d, "DC", "iqr", rng.choice([0.5, 1.5, 3.0]))
            assert len(out) <= len(d)

    def test_zscore_constant_column(self):
        with pytest.raises(ZeroVariance):
            ingest.filter_outliers(self.base([3, 3, 3]), "area", "zscore")


class TestResample:
    def base(self, areas):
        rows = [ROW1[: ROW1.rfind(",")] + "," + repr(float(v)) for v in areas]
        return ingest.parse_dataset(make_csv(*rows))

    def test_oversample_counts(self):
        d = self.base([0] * 8 + [5, 9])
        out = ingest.resample(d, "area", "oversample", seed=1)
        labels = [v > 0 for v in out.column("area")]
        assert len(out) == 16 and sum(labels) == 8

    def test_undersample_counts(self):
        d = self.base([0] * 8 + [5, 9])
        out = ingest.resample(d, "area", "undersample", seed=1)
        labels = [v > 0 for v in out.column("area")]
        assert len(out) == 4 and sum(labels) == 2

    def test_deterministic_under_seed(self):
        d = self.base([0, 0, 0, 1, 2])
        a = ingest.resample(d, "area", "oversample", seed=99)
        b = ingest.resample(d, "area", "oversample", seed=99)
        assert a.rows == b.rows
        assert ingest.serialize_csv(a) == ingest.serialize_csv(b)

    def test_categorical_label_column(self):
        rows = [ROW1, ROW1.replace("aug", "sep"), ROW1.replace("aug", "sep")]
        d = ingest.parse_dataset(make_csv(*rows))
        out = ingest.resample(d, "month", "oversample", seed=0)
        months = out.column("month")
        assert months.count("aug") == months.count("sep") == 2

    def test_single_class_rejected(self):
        with pytest.raises(SingleClass):
            ingest.resample(self.base([0, 0, 0]), "area", "oversample", seed=0)

    @given(st.integers(min_value=0, max_value=10 ** 6), st.integers(1, 7), st.integers(1, 7))
    @settings(max_examples=40, deadline=None)
    def test_balances_exactly(self, seed, npos, nneg):
        if npos == nneg:
            npos += 1
        d = self.base([0.0] * nneg + [1.0 + i for i in range(npos)])
        over = ingest.resample(d, "area", "oversample", seed=seed)
        labels = [v > 0 for v in over.column("area")]
        assert labels.count(True) == labels.count(False) == max(npos, nneg)
        under = ingest.resample(d, "area", "undersample", seed=seed)
        labels = [v > 0 for v in under.column("area")]
        assert labels.count(True) == labels.count(False) == min(npos, nneg)


class TestOrdinalEncode:
    def test_tokens_to_calendar_numbers(self):
        d = ingest.parse_dataset(make_csv(ROW1))
        out = ingest.ordinal_encode(d)
        assert out.column("month") == [8] and out.column("day") == [1]
        assert set(out.numeric_columns()) == set(out.column_names)

    def test_full_pair_count(self, dataset_text):
        d = ingest.ordinal_encode(ingest.parse_dataset(dataset_text))
        cm = ingest.correlation_matrix(d)
        assert len(list(cm.pairs())) == 78
