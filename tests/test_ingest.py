import dataclasses
import io
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from firedss import ingest
from firedss.ingest import (
    BadCell, Dataset, MissingColumn, RangeViolation, SingleClass, TooFewRows,
    UnknownColumn, UnknownToken, ZeroVariance,
)

from oracles import two_pass_pearson

HEADER = "X,Y,month,day,FFMC,DMC,DC,ISI,temp,RH,wind,rain,area"
ROW1 = "8,6,aug,mon,92.3,88.9,495.6,8.5,24.1,27,3.1,0.0,0.0"


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
        assert err.value.column == "FFMC" and err.value.row == 0

    def test_range_violation(self):
        with pytest.raises(RangeViolation):
            ingest.parse_dataset(make_csv(ROW1.replace(",27,", ",140,")))

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
            dataclasses.astuple(r) for r in ingest.iter_records(io.StringIO(text))))
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
    ])
    def test_detected_header(self, text, expected):
        records = list(ingest.iter_records(io.StringIO(text), header=None))
        assert [dataclasses.astuple(r) for r in records] == \
            [ingest.parse_dataset(make_csv(ROW1)).rows[0]] * expected

    def test_headerless_rows_in_canonical_order(self):
        (record,) = ingest.iter_records([ROW1 + "\n"], header=False)
        assert record == ingest.parse_record_fields(ROW1.split(","))
        with pytest.raises(BadCell):
            list(ingest.iter_records([HEADER + "\n"], header=False))

    @pytest.mark.parametrize("good_rows, where",
                             [(1, "row 1"), (0, "row 0"), (None, "header")])
    def test_oversized_cell_is_a_dataset_error(self, good_rows, where):
        huge = ROW1.replace(",aug,", ',"' + "a" * 200_000 + '",')
        text = huge + "\n" if good_rows is None else make_csv(*[ROW1] * good_rows, huge)
        message = f"^{where}: field larger than field limit"
        with pytest.raises(ingest.DatasetError, match=message):
            ingest.parse_dataset(text)
        with pytest.raises(ingest.DatasetError, match=message):
            list(ingest.iter_records(io.StringIO(text)))


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
        back = ingest.denormalize(out, params)
        for col in ("FFMC", "temp", "wind"):
            assert back.column(col) == pytest.approx(d.column(col), abs=1e-9)

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
        with pytest.raises(UnknownColumn):
            ingest.one_hot_encode(d, ["temp"])

    def test_unknown_token(self):
        d = ingest.parse_dataset(make_csv(ROW1))
        hacked = Dataset(d.schema, [tuple("xyz" if v == "mon" else v for v in d.rows[0])],
                         d.provenance)
        with pytest.raises(UnknownToken):
            ingest.one_hot_encode(hacked, ["day"])

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
