#!/usr/bin/env python
"""CI identity gate: untraced runs must stay bit-identical.

Usage: python benchmarks/check_identity.py [--baseline benchmarks/baseline.json]

Runs every cell of :func:`repro.bench.pinned_cells` once (no tracing,
no cache) and compares its result-payload SHA-256 against the pin
committed under ``identity`` in the baseline.  A cell with no pin fails,
and so does a pin with no cell, so the table and the baseline cannot
drift apart.  This is the observability subsystem's hard invariant: with
the default NullTracer, simulated results — and therefore runner cache
keys — are byte-for-byte what they were before telemetry existed.  It
needs no timing run, so it is cheap enough to run on every push.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "src"))

DEFAULT_BASELINE = str(pathlib.Path(__file__).parent / "baseline.json")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", default=DEFAULT_BASELINE)
    args = parser.parse_args(argv)

    from repro.bench import flatten_pins, pinned_cells

    pins = flatten_pins(
        json.loads(pathlib.Path(args.baseline).read_text())["identity"]
    )
    cells = pinned_cells()
    failed = False
    for key in sorted(set(pins) - {cell.key for cell in cells}):
        print(
            f"FAIL: baseline pin {'/'.join(key)} has no pinned cell — "
            "add the cell to repro.bench.pinned_cells or drop the pin"
        )
        failed = True
    for cell in cells:
        if cell.key not in pins:
            print(
                f"FAIL: {cell.label} has no pin under "
                f"{'/'.join(cell.key)} in {args.baseline}"
            )
            failed = True
            continue
        expected, current = pins[cell.key], cell.sha256()
        if current != expected:
            print(
                f"FAIL: untraced {cell.label} payload hash moved\n"
                f"  baseline {expected}\n"
                f"  current  {current}\n"
                "Untraced simulation results changed — either fix the code "
                "or, for an intended behaviour change, re-anchor "
                "benchmarks/baseline.json."
            )
            failed = True
        else:
            print(
                f"OK: untraced {cell.label} payload sha256 matches baseline "
                f"({current[:12]}…)"
            )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
