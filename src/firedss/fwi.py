"""Daily Fire Weather Index chain and categorical danger classification.

The six-code chain (FFMC, DMC, DC, ISI, BUI, FWI) follows the standard
daily equations of the Canadian system (Van Wagner 1987 / Van Wagner &
Pickett 1985). Reference startup chain, used throughout the tests:

    update_ffmc(85, temp=17, rh=42, wind=25, rain=0)     -> 87.692980...
    update_dmc(6,  temp=17, rh=42, rain=0, month=4)      -> 8.545051...
    update_dc(15,  temp=17, rain=0, month=4)             -> 19.014
    isi(87.692980, wind=25)                              -> 10.853661...
    bui(8.545051, 19.014)                                -> 8.490427...
    fwi(10.853661, 8.490427)                             -> 10.096371...

Classification maps code values onto ordered half-open bands [lo, hi);
band thresholds and the fire-trigger predicate are configuration, not code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

FFMC_START = 85.0
DMC_START = 6.0
DC_START = 15.0

# day-length factor by month, 46N standard table
DMC_DAY_LENGTH = (6.5, 7.5, 9.0, 12.8, 13.9, 13.9, 12.4, 10.9, 9.4, 8.0, 7.0, 6.0)
DC_DAY_LENGTH = (-1.6, -1.6, -1.6, 0.9, 3.8, 5.8, 6.4, 5.0, 2.4, 0.4, -1.6, -1.6)


class OutOfRange(ValueError):
    pass


class BandConfigError(ValueError):
    pass


@dataclass(frozen=True)
class FwiInputs:
    """One day of weather driving the moisture codes."""
    temp: float          # deg C
    rh: float            # %, 0-100
    wind: float          # km/h
    rain: float          # mm over 24 h
    month: int = 7       # 1-12, selects the day-length factors

    def __post_init__(self):
        if not 0.0 <= self.rh <= 100.0:
            raise OutOfRange(f"rh {self.rh} outside [0, 100]")
        if self.wind < 0.0:
            raise OutOfRange(f"wind {self.wind} < 0")
        if self.rain < 0.0:
            raise OutOfRange(f"rain {self.rain} < 0")
        if not 1 <= self.month <= 12:
            raise OutOfRange(f"month {self.month} outside 1-12")


@dataclass(frozen=True)
class FwiCodes:
    ffmc: float
    dmc: float
    dc: float
    isi: float
    bui: float
    fwi: float


def _moisture_from_ffmc(ffmc_value):
    return 147.2 * (101.0 - ffmc_value) / (59.5 + ffmc_value)


def update_ffmc(prev_ffmc, inputs: FwiInputs) -> float:
    """Today's FFMC from yesterday's value and today's weather.

    Rainfall routine engages above 0.5 mm; afterwards the moisture content
    relaxes toward the drying or wetting equilibrium. Result clamped to
    [0, 101].
    """
    if not 0.0 <= prev_ffmc <= 101.0:
        raise OutOfRange(f"prev_ffmc {prev_ffmc} outside [0, 101]")
    t, h, w, r = inputs.temp, inputs.rh, inputs.wind, inputs.rain

    mo = _moisture_from_ffmc(prev_ffmc)
    if r > 0.5:
        rf = r - 0.5
        mr = mo + 42.5 * rf * math.exp(-100.0 / (251.0 - mo)) * (1.0 - math.exp(-6.93 / rf))
        if mo > 150.0:
            mr += 0.0015 * (mo - 150.0) ** 2 * math.sqrt(rf)
        mo = min(mr, 250.0)

    ed = (0.942 * h ** 0.679 + 11.0 * math.exp((h - 100.0) / 10.0)
          + 0.18 * (21.1 - t) * (1.0 - math.exp(-0.115 * h)))
    if mo > ed:
        ko = (0.424 * (1.0 - (h / 100.0) ** 1.7)
              + 0.0694 * math.sqrt(w) * (1.0 - (h / 100.0) ** 8))
        kd = ko * 0.581 * math.exp(0.0365 * t)
        m = ed + (mo - ed) * 10.0 ** (-kd)
    else:
        ew = (0.618 * h ** 0.753 + 10.0 * math.exp((h - 100.0) / 10.0)
              + 0.18 * (21.1 - t) * (1.0 - math.exp(-0.115 * h)))
        if mo < ew:
            ko = (0.424 * (1.0 - ((100.0 - h) / 100.0) ** 1.7)
                  + 0.0694 * math.sqrt(w) * (1.0 - ((100.0 - h) / 100.0) ** 8))
            kw = ko * 0.581 * math.exp(0.0365 * t)
            m = ew - (ew - mo) * 10.0 ** (-kw)
        else:
            m = mo

    value = 59.5 * (250.0 - m) / (147.2 + m)
    return min(max(value, 0.0), 101.0)


def update_dmc(prev_dmc, inputs: FwiInputs) -> float:
    """Today's DMC: rain routine above 1.5 mm, then the log drying rate
    scaled by the monthly day-length factor. Drying stops below -1.1 C."""
    if prev_dmc < 0.0:
        raise OutOfRange(f"prev_dmc {prev_dmc} < 0")
    t, h, r = inputs.temp, inputs.rh, inputs.rain

    te = max(t, -1.1)
    rk = 1.894 * (te + 1.1) * (100.0 - h) * DMC_DAY_LENGTH[inputs.month - 1] * 1.0e-4

    if r > 1.5:
        rw = 0.92 * r - 1.27
        # negative-exponent form: underflows instead of overflowing at
        # extreme (non-physical) code values
        wmi = 20.0 + 280.0 * math.exp(-0.023 * prev_dmc)
        if prev_dmc <= 33.0:
            b = 100.0 / (0.5 + 0.3 * prev_dmc)
        elif prev_dmc <= 65.0:
            b = 14.0 - 1.3 * math.log(prev_dmc)
        else:
            b = 6.2 * math.log(prev_dmc) - 17.2
        wmr = wmi + 1000.0 * rw / (48.77 + b * rw)
        pr = max(43.43 * (5.6348 - math.log(wmr - 20.0)), 0.0)
    else:
        pr = prev_dmc

    return max(pr + rk, 0.0)


def update_dc(prev_dc, inputs: FwiInputs) -> float:
    """Today's DC: rain routine above 2.8 mm, then potential
    evapotranspiration with the monthly factor, both clamped at zero."""
    if prev_dc < 0.0:
        raise OutOfRange(f"prev_dc {prev_dc} < 0")
    t, r = inputs.temp, inputs.rain

    te = max(t, -2.8)
    pe = max((0.36 * (te + 2.8) + DC_DAY_LENGTH[inputs.month - 1]) / 2.0, 0.0)

    if r > 2.8:
        rw = 0.83 * r - 1.27
        smi = 800.0 * math.exp(-prev_dc / 400.0)
        dr = prev_dc - 400.0 * math.log(1.0 + 3.937 * rw / smi)
        value = dr + pe if dr > 0.0 else pe
    else:
        value = prev_dc + pe

    return max(value, 0.0)


def isi(ffmc_value, wind) -> float:
    """Initial Spread Index: exponential wind effect times the fine-fuel
    moisture function of FFMC."""
    if not 0.0 <= ffmc_value <= 101.0:
        raise OutOfRange(f"ffmc {ffmc_value} outside [0, 101]")
    if wind < 0.0:
        raise OutOfRange(f"wind {wind} < 0")
    m = _moisture_from_ffmc(ffmc_value)
    ff = 19.1152 * math.exp(-0.1386 * m) * (1.0 + m ** 5.31 / 4.93e7)
    return ff * math.exp(0.05039 * wind)


def bui(dmc_value, dc_value) -> float:
    """Buildup Index: harmonic-style blend of DMC and DC, branching on
    whether DMC exceeds 0.4*DC. Zero when DMC is zero."""
    if dmc_value < 0.0 or dc_value < 0.0:
        raise OutOfRange(f"dmc {dmc_value} / dc {dc_value} must be >= 0")
    if dmc_value == 0.0:
        return 0.0
    if dmc_value <= 0.4 * dc_value:
        value = 0.8 * dmc_value * dc_value / (dmc_value + 0.4 * dc_value)
    else:
        value = dmc_value - (1.0 - 0.8 * dc_value / (dmc_value + 0.4 * dc_value)) \
            * (0.92 + (0.0114 * dmc_value) ** 1.7)
    return max(value, 0.0)


def fwi(isi_value, bui_value) -> float:
    """Final Fire Weather Index from ISI and BUI, with the log-scaling
    branch above intermediate intensity 1."""
    if isi_value < 0.0 or bui_value < 0.0:
        raise OutOfRange(f"isi {isi_value} / bui {bui_value} must be >= 0")
    if bui_value <= 80.0:
        fd = 0.626 * bui_value ** 0.809 + 2.0
    else:
        fd = 1000.0 / (25.0 + 108.64 * math.exp(-0.023 * bui_value))
    b = 0.1 * isi_value * fd
    if b > 1.0:
        return math.exp(2.72 * (0.434 * math.log(b)) ** 0.647)
    return max(b, 0.0)


def compute_codes(record) -> FwiCodes:
    """Complete the six-code chain for a dataset record that already carries
    FFMC/DMC/DC/ISI: derive BUI and FWI from them."""
    b = bui(record.dmc, record.dc)
    return FwiCodes(ffmc=record.ffmc, dmc=record.dmc, dc=record.dc,
                    isi=record.isi, bui=b, fwi=fwi(record.isi, b))


# --- classification ---------------------------------------------------------

# danger quantity -> the code it classifies, in stream alert order; the
# quantities that are DangerClassification fields are also its labels
QUANTITIES = {
    "ignition_potential": "ffmc",
    "dmc_class": "dmc",
    "dc_class": "dc",
    "spread_rate": "isi",
    "bui_class": "bui",
    "fwi_class": "fwi",
}


@dataclass(frozen=True)
class DangerClassification:
    ignition_potential: str
    dmc_class: str
    dc_class: str
    spread_rate: str
    fire_trigger: bool


_LABELLED = {f.name for f in fields(DangerClassification)}


class ClassBands:
    """Ordered (upper-bound, label) bands per quantity, partitioning [0, inf).

    Bands are half-open [lo, hi); the last band of every quantity is
    unbounded. `trigger` is a conjunction of (quantity, label) pairs that
    defines the fire-trigger predicate.
    """

    def __init__(self, bands, trigger):
        self.bands = {q: tuple((float(u), str(l)) for u, l in bs)
                      for q, bs in bands.items()}
        self.trigger = tuple((q, l) for q, l in trigger)
        for q, bs in self.bands.items():
            _check_bands(q, bs)
        for q, label in self.trigger:
            if q not in self.bands:
                raise BandConfigError(f"trigger references unknown quantity {q}")
            if label not in self.labels(q):
                raise BandConfigError(f"trigger references unknown label {label!r}")

    def labels(self, quantity):
        return tuple(l for _, l in self.bands[quantity])

    def classify_value(self, quantity, value):
        if not math.isfinite(value) or value < 0.0:
            raise OutOfRange(f"{quantity} value {value} not finite and >= 0")
        for upper, label in self.bands[quantity]:
            if value < upper:
                return label
        raise AssertionError("unreachable: last band is unbounded")

    def label_index(self, quantity, label):
        return self.labels(quantity).index(label)


def _check_bands(quantity, bands, where=""):
    uppers = [u for u, _ in bands]
    # each bound > 0 and > the one before, phrased so that a NaN bound fails
    if not all(lo < hi for lo, hi in zip([0.0] + uppers, uppers)):
        raise BandConfigError(f"{where}{quantity}: bounds must be > 0 and increasing")
    if uppers[-1:] != [math.inf]:
        raise BandConfigError(f"{where}{quantity}: must end with an unbounded band")
    if not all(l for _, l in bands):
        raise BandConfigError(f"{where}{quantity}: empty label")


DEFAULT_BANDS = ClassBands(
    bands={
        "ignition_potential": [(70, "difficult"), (80, "possible"),
                               (90, "moderately easy"), (math.inf, "extremely easy")],
        "spread_rate": [(4, "slow"), (8, "moderate"), (math.inf, "fast")],
        "dmc_class": [(20, "easy"), (40, "moderate"),
                      (math.inf, "difficult and extensive")],
        "dc_class": [(150, "easy"), (300, "moderate"),
                     (math.inf, "difficult and extensive")],
        "bui_class": [(40, "low"), (80, "moderate"), (math.inf, "high")],
        "fwi_class": [(5, "low"), (15, "moderate"), (30, "high"),
                      (math.inf, "extreme")],
    },
    trigger=[("dmc_class", "difficult and extensive"),
             ("dc_class", "difficult and extensive")],
)


def classify(codes: FwiCodes, bands: ClassBands = DEFAULT_BANDS) -> DangerClassification:
    """Map a code vector onto danger labels plus the fire-trigger verdict."""
    def label_for(quantity):
        return bands.classify_value(quantity, getattr(codes, QUANTITIES[quantity]))

    labels = {q: label_for(q) for q in QUANTITIES if q in _LABELLED}
    trigger = all(label_for(q) == lab for q, lab in bands.trigger)
    return DangerClassification(fire_trigger=trigger, **labels)


# --- band configuration files ------------------------------------------------

def dump_bands(bands: ClassBands) -> str:
    """Serialize bands to the plain-text key-value format."""
    lines = []
    for quantity in sorted(bands.bands):
        parts = []
        for upper, label in bands.bands[quantity]:
            bound = "inf" if upper == math.inf else format(upper, "g")
            parts.append(f"{bound}:{label}")
        lines.append(f"{quantity} = " + ", ".join(parts))
    lines.append("trigger = " + " & ".join(f"{q}={l}" for q, l in bands.trigger))
    return "\n".join(lines) + "\n"


def load_bands(text: str) -> ClassBands:
    """Parse the plain-text band configuration written by dump_bands.

    Format, one key per line (# starts a comment):
        <quantity> = <upper>:<label>, <upper>:<label>, ..., inf:<label>
        trigger = <quantity>=<label> & <quantity>=<label>

    Every quantity in QUANTITIES is defined once, the trigger at most once.
    """
    bands = {}
    trigger, trigger_line = None, 0
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise BandConfigError(f"line {lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in bands or (key == "trigger" and trigger is not None):
            raise BandConfigError(f"line {lineno}: {key} defined twice")
        if key == "trigger":
            pairs = []
            for clause in value.split("&"):
                if "=" not in clause:
                    raise BandConfigError(f"line {lineno}: bad trigger clause {clause!r}")
                q, lab = clause.split("=", 1)
                pairs.append((q.strip(), lab.strip()))
            trigger, trigger_line = pairs, lineno
            continue
        if key not in QUANTITIES:
            raise BandConfigError(f"line {lineno}: unknown quantity {key!r}")
        entries = []
        for part in value.split(","):
            bound, _, label = part.partition(":")
            try:
                entries.append((float(bound), label.strip()))
            except ValueError:
                raise BandConfigError(f"line {lineno}: bad band {part.strip()!r}") from None
        _check_bands(key, entries, f"line {lineno}: ")
        bands[key] = entries
    missing = [q for q in QUANTITIES if q not in bands]
    if missing:
        raise BandConfigError(f"line {max(len(lines), 1)}: no bands for {', '.join(missing)}")
    try:
        return ClassBands(bands, trigger or [])
    except BandConfigError as exc:  # the bands themselves passed line by line
        raise BandConfigError(f"line {trigger_line}: {exc}") from None
