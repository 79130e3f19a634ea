import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from firedss import fwi
from firedss.fwi import ClassBands, FwiCodes, FwiInputs, OutOfRange

import oracles

STARTUP = FwiInputs(temp=17, rh=42, wind=25, rain=0, month=4)


def random_inputs(rng):
    return FwiInputs(
        temp=rng.uniform(-15, 45),
        rh=rng.uniform(0, 100),
        wind=rng.uniform(0, 90),
        rain=rng.uniform(0, 60) if rng.random() < 0.5 else 0.0,
        month=rng.randint(1, 12))


class TestWorkedExample:
    def test_ffmc(self):
        assert fwi.update_ffmc(85.0, STARTUP) == pytest.approx(87.692980, abs=1e-6)

    def test_dmc(self):
        assert fwi.update_dmc(6.0, STARTUP) == pytest.approx(8.545051, abs=1e-6)

    def test_dc(self):
        assert fwi.update_dc(15.0, STARTUP) == pytest.approx(19.014, abs=1e-6)

    def test_chain(self):
        f = fwi.update_ffmc(fwi.FFMC_START, STARTUP)
        d = fwi.update_dmc(fwi.DMC_START, STARTUP)
        c = fwi.update_dc(fwi.DC_START, STARTUP)
        i = fwi.isi(f, STARTUP.wind)
        b = fwi.bui(d, c)
        z = fwi.fwi(i, b)
        assert i == pytest.approx(10.853661, abs=1e-6)
        assert b == pytest.approx(8.490427, abs=1e-6)
        assert z == pytest.approx(10.096371, abs=1e-6)


class TestFfmc:
    def test_equilibrium_fixed_point(self):
        # pick a moisture value strictly between the wetting and drying
        # equilibria: neither branch moves it. The code-to-moisture and
        # moisture-to-code conversions of the standard equations are not
        # exact inverses (residual 7.8/(59.5+F), i.e. 0.0196 + 0.00033*F
        # code points), so that residual is the attainable bound here.
        t, h = 17.0, 42.0
        ed = (0.942 * h ** 0.679 + 11.0 * math.exp((h - 100.0) / 10.0)
              + 0.18 * (21.1 - t) * (1.0 - math.exp(-0.115 * h)))
        ew = (0.618 * h ** 0.753 + 10.0 * math.exp((h - 100.0) / 10.0)
              + 0.18 * (21.1 - t) * (1.0 - math.exp(-0.115 * h)))
        m = (ed + ew) / 2.0
        prev = 59.5 * (250.0 - m) / (147.2 + m)
        out = fwi.update_ffmc(prev, FwiInputs(temp=t, rh=h, wind=10, rain=0, month=6))
        residual = 7.8 / (59.5 + prev)
        assert out == pytest.approx(prev, abs=residual + 1e-9)
        assert out == pytest.approx(prev, abs=0.06)

    def test_heavy_rain_lowers_ffmc(self):
        wet = FwiInputs(temp=17, rh=42, wind=25, rain=50, month=4)
        assert fwi.update_ffmc(85.0, wet) < 85.0

    def test_bounds_enforced(self):
        with pytest.raises(OutOfRange):
            fwi.update_ffmc(102.0, STARTUP)
        with pytest.raises(OutOfRange):
            FwiInputs(temp=10, rh=120, wind=0, rain=0, month=1)

    def test_result_in_range_randomized(self):
        rng = random.Random(42)
        for _ in range(2000):
            out = fwi.update_ffmc(rng.uniform(0, 101), random_inputs(rng))
            assert 0.0 <= out <= 101.0 and math.isfinite(out)


class TestDmc:
    def test_cold_dry_day_is_identity(self):
        frozen = FwiInputs(temp=-5, rh=80, wind=5, rain=1.0, month=12)
        assert fwi.update_dmc(12.0, frozen) == 12.0

    def test_rain_from_zero_stays_nonnegative(self):
        soaking = FwiInputs(temp=5, rh=95, wind=5, rain=30, month=11)
        assert fwi.update_dmc(0.0, soaking) >= 0.0

    def test_rejects_negative(self):
        with pytest.raises(OutOfRange):
            fwi.update_dmc(-1.0, STARTUP)


class TestDc:
    def test_cold_winter_day_is_identity(self):
        # negative day-length factor, temperature at the clamp: zero drying
        frozen = FwiInputs(temp=-2.8, rh=50, wind=5, rain=0, month=1)
        assert fwi.update_dc(40.0, frozen) == 40.0

    def test_downpour_bounds(self):
        soaked = FwiInputs(temp=17, rh=42, wind=5, rain=100, month=8)
        out = fwi.update_dc(15.0, soaked)
        assert 0.0 <= out < 15.0

    def test_rejects_negative(self):
        with pytest.raises(OutOfRange):
            fwi.update_dc(-0.1, STARTUP)


class TestIsi:
    def test_saturated_fuel_gives_zero(self):
        assert fwi.isi(0.0, 25.0) == pytest.approx(0.0, abs=1e-6)

    def test_monotone_in_wind(self):
        values = [fwi.isi(88.0, w) for w in (0, 5, 10, 20, 40)]
        assert values == sorted(values) and values[0] < values[-1]


class TestBui:
    def test_zero_dmc(self):
        assert fwi.bui(0.0, 100.0) == 0.0
        assert fwi.bui(0.0, 0.0) == 0.0

    def test_reference_codes(self):
        want = oracles.ref_bui(88.9, 495.6)
        assert fwi.bui(88.9, 495.6) == pytest.approx(want, abs=1e-9)


class TestFwi:
    def test_zero_isi(self):
        assert fwi.fwi(0.0, 50.0) == 0.0

    def test_monotone_in_isi(self):
        values = [fwi.fwi(i, 8.5) for i in (0.5, 1, 2, 5, 10, 30)]
        assert values == sorted(values)

    def test_continuous_at_unit_intensity(self):
        # bui fixed; find isi where the intermediate crosses 1. The scaling
        # branch has unbounded slope at the crossing, so probe very close.
        fd = 0.626 * 8.0 ** 0.809 + 2.0
        isi_at_one = 1.0 / (0.1 * fd)
        below = fwi.fwi(isi_at_one * (1 - 1e-9), 8.0)
        above = fwi.fwi(isi_at_one * (1 + 1e-9), 8.0)
        assert below == pytest.approx(1.0, abs=1e-4)
        assert above == pytest.approx(1.0, abs=1e-4)


class TestOracleEquivalence:
    N = 20_000  # per-operation samples in the module suite; acceptance runs 1e5

    def test_updates_match_reference(self):
        rng = random.Random(20240501)
        for _ in range(self.N):
            w = random_inputs(rng)
            prev_f = rng.uniform(0, 101)
            prev_d = rng.uniform(0, 400)
            prev_c = rng.uniform(0, 1000)
            assert fwi.update_ffmc(prev_f, w) == pytest.approx(
                oracles.ref_ffmc(prev_f, w.temp, w.rh, w.wind, w.rain), abs=1e-4)
            assert fwi.update_dmc(prev_d, w) == pytest.approx(
                oracles.ref_dmc(prev_d, w.temp, w.rh, w.rain, w.month), abs=1e-4)
            assert fwi.update_dc(prev_c, w) == pytest.approx(
                oracles.ref_dc(prev_c, w.temp, w.rain, w.month), abs=1e-4)

    def test_indices_match_reference(self):
        rng = random.Random(20240502)
        for _ in range(self.N):
            f = rng.uniform(0, 101)
            wind = rng.uniform(0, 90)
            d = rng.uniform(0, 400)
            c = rng.uniform(0, 1000)
            i = rng.uniform(0, 40)
            b = rng.uniform(0, 300)
            assert fwi.isi(f, wind) == pytest.approx(oracles.ref_isi(f, wind), abs=1e-4)
            assert fwi.bui(d, c) == pytest.approx(oracles.ref_bui(d, c), abs=1e-4)
            assert fwi.fwi(i, b) == pytest.approx(oracles.ref_fwi(i, b), abs=1e-4)

    def test_range_invariants_randomized(self):
        rng = random.Random(20240503)
        for _ in range(5000):
            w = random_inputs(rng)
            f = fwi.update_ffmc(rng.uniform(0, 101), w)
            d = fwi.update_dmc(rng.uniform(0, 400), w)
            c = fwi.update_dc(rng.uniform(0, 1000), w)
            i = fwi.isi(f, w.wind)
            b = fwi.bui(d, c)
            z = fwi.fwi(i, b)
            for v in (f, d, c, i, b, z):
                assert math.isfinite(v) and v >= 0.0
            assert f <= 101.0


REFERENCE_ROWS = [
    # (ffmc, dmc, dc, isi, ignition, dmc_class, dc_class, spread)
    (92.3, 88.9, 495.6, 8.5, "extremely easy", "difficult and extensive",
     "difficult and extensive", "fast"),
    (94.4, 146.0, 614.7, 11.3, "extremely easy", "difficult and extensive",
     "difficult and extensive", "fast"),
    (81.6, 56.7, 665.6, 1.9, "moderately easy", "difficult and extensive",
     "difficult and extensive", "slow"),
    (81.6, 56.7, 665.6, 1.9, "moderately easy", "difficult and extensive",
     "difficult and extensive", "slow"),
    (81.6, 56.7, 665.6, 1.9, "moderately easy", "difficult and extensive",
     "difficult and extensive", "slow"),
]


class TestClassify:
    @pytest.mark.parametrize("row", REFERENCE_ROWS)
    def test_reference_rows(self, row):
        ffmc_v, dmc_v, dc_v, isi_v, ign, dmc_lab, dc_lab, spread = row
        codes = FwiCodes(ffmc_v, dmc_v, dc_v, isi_v,
                         fwi.bui(dmc_v, dc_v), 0.0)
        got = fwi.classify(codes)
        assert got.ignition_potential == ign
        assert got.dmc_class == dmc_lab
        assert got.dc_class == dc_lab
        assert got.spread_rate == spread
        assert got.fire_trigger is True

    def test_all_zero_codes(self):
        got = fwi.classify(FwiCodes(0, 0, 0, 0, 0, 0))
        assert got.ignition_potential == "difficult"
        assert got.dmc_class == "easy"
        assert got.dc_class == "easy"
        assert got.spread_rate == "slow"
        assert got.fire_trigger is False

    @given(st.floats(min_value=0, max_value=1e6, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_total_and_single_valued(self, value):
        for quantity in fwi.QUANTITIES:
            label = fwi.DEFAULT_BANDS.classify_value(quantity, value)
            assert label in fwi.DEFAULT_BANDS.labels(quantity)

    @given(st.floats(0, 2000, allow_nan=False), st.floats(0, 2000, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_band_monotonicity(self, a, b):
        lo, hi = min(a, b), max(a, b)
        for quantity in fwi.QUANTITIES:
            bands = fwi.DEFAULT_BANDS
            idx_lo = bands.label_index(quantity, bands.classify_value(quantity, lo))
            idx_hi = bands.label_index(quantity, bands.classify_value(quantity, hi))
            assert idx_lo <= idx_hi

    def test_band_boundaries_are_half_open(self):
        bands = fwi.DEFAULT_BANDS
        assert bands.classify_value("spread_rate", 4.0) == "moderate"
        assert bands.classify_value("spread_rate", 3.9999) == "slow"
        assert bands.classify_value("ignition_potential", 90.0) == "extremely easy"


class TestBandConfig:
    def test_roundtrip(self):
        text = fwi.dump_bands(fwi.DEFAULT_BANDS)
        loaded = fwi.load_bands(text)
        assert loaded.bands == fwi.DEFAULT_BANDS.bands
        assert loaded.trigger == fwi.DEFAULT_BANDS.trigger

    def test_bundled_file_matches_defaults(self):
        from firedss import data_text
        loaded = fwi.load_bands(data_text("default.bands"))
        assert loaded.bands == fwi.DEFAULT_BANDS.bands

    def test_rejects_unsorted_bounds(self):
        with pytest.raises(fwi.BandConfigError):
            ClassBands({"dc_class": [(300, "a"), (150, "b"), (math.inf, "c")]}, [])

    def test_rejects_bounded_tail(self):
        with pytest.raises(fwi.BandConfigError):
            ClassBands({"dc_class": [(150, "a"), (300, "b")]}, [])

    def test_rejects_unknown_trigger_label(self):
        with pytest.raises(fwi.BandConfigError):
            ClassBands({"dc_class": [(math.inf, "x")]}, [("dc_class", "nope")])

    @pytest.mark.parametrize("edit, line, message", [
        (("bui_class = 40:low, 80:moderate, inf:high\n", ""), 8, "no bands for bui_class"),
        (("bui_class = 40:", "bui_class = nan:"), 3, "bounds must be > 0"),
        (("bui_class = 40:", "bui_class = -5:"), 3, "bounds must be > 0"),
        (("bui_class = 40:", "bui_class = 0:"), 3, "bounds must be > 0"),
        (("bui_class = 40:", "bui_class = abc:"), 3, "bad band 'abc:low'"),
        (("bui_class = 40:", "bui_class = 40:a, inf:b\nbui_class = 40:"), 4,
         "bui_class defined twice"),
        (("trigger = ", "trigger = dc_class=easy\ntrigger = "), 10, "trigger defined twice"),
        (("trigger = ", "fwi = inf:x\ntrigger = "), 9, "unknown quantity 'fwi'"),
        (("dmc_class=difficult", "dmc_class=grim"), 9, "unknown label"),
    ])
    def test_file_errors_name_the_line(self, edit, line, message):
        from firedss import data_text
        text = data_text("default.bands")
        assert edit[0] in text
        with pytest.raises(fwi.BandConfigError, match=f"^line {line}: .*{message}"):
            fwi.load_bands(text.replace(edit[0], edit[1], 1))

    def test_file_without_trigger_never_triggers(self):
        text = fwi.dump_bands(fwi.DEFAULT_BANDS).rsplit("trigger", 1)[0]
        assert fwi.load_bands(text).trigger == ()

    def test_nan_or_unpositive_first_bound_rejected_in_code(self):
        for first in (math.nan, -5.0, 0.0):
            with pytest.raises(fwi.BandConfigError):
                ClassBands({"dc_class": [(first, "a"), (math.inf, "b")]}, [])

    def test_custom_trigger_predicate(self):
        bands = ClassBands(
            {"dc_class": [(100, "calm"), (math.inf, "grim")],
             "dmc_class": [(50, "calm"), (math.inf, "grim")],
             "ignition_potential": [(math.inf, "any")],
             "spread_rate": [(math.inf, "any")]},
            trigger=[("dc_class", "grim")])
        codes = FwiCodes(10, 10, 500, 1, 30, 3)
        assert fwi.classify(codes, bands).fire_trigger is True
