"""Write perfbench/reference_rows.jsonl, the fixed per-row reference that the
stream workloads check their sinks against.

For every data row of the bundled forestfires_synthetic.csv it records the
two derived codes (BUI, FWI) and the six danger labels under the default
bands. The file is committed; rerun this script only when a change to the
fire-weather chain or the bands is meant to change the alerts:

    python3 perfbench/make_reference.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from firedss import data_text, fwi, ingest  # noqa: E402

QUANTITY_CODES = (("ignition_potential", "ffmc"), ("dmc_class", "dmc"),
                  ("dc_class", "dc"), ("spread_rate", "isi"),
                  ("bui_class", "bui"), ("fwi_class", "fwi"))


def main():
    rows = []
    for record in ingest.parse_dataset(data_text("forestfires_synthetic.csv")).records():
        codes = fwi.compute_codes(record)
        rows.append({
            "bui": codes.bui,
            "fwi": codes.fwi,
            "labels": [fwi.DEFAULT_BANDS.classify_value(q, getattr(codes, c))
                       for q, c in QUANTITY_CODES],
        })
    text = "\n".join(json.dumps(r, sort_keys=True) for r in rows) + "\n"
    (HERE / "reference_rows.jsonl").write_text(text, encoding="utf-8")
    print(f"{len(rows)} rows -> {HERE / 'reference_rows.jsonl'}")


if __name__ == "__main__":
    main()
