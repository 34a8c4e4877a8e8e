#!/usr/bin/env python
"""CI identity gate: untraced runs must stay bit-identical.

Usage: python benchmarks/check_identity.py [--baseline benchmarks/baseline.json]

Runs the fixed Fig. 5 smoke cell once (no tracing, no cache) and
compares its result-payload SHA-256 against the committed baseline; the
packet rack cell, the fabric cell and the pinned flow-mode rack cells
are checked the same way when the baseline carries their hashes.
This is the observability subsystem's hard invariant: with the default
NullTracer, simulated results — and therefore runner cache keys — are
byte-for-byte what they were before telemetry existed.  Unlike the
bench gate this needs no timing run, so it is cheap enough to run on
every push.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "src"))

DEFAULT_BASELINE = str(pathlib.Path(__file__).parent / "baseline.json")


def _fabric_payload() -> dict:
    """The fabric smoke cell's payload sha, without bench_fabric's
    timing repeats — identity only needs one run."""
    import hashlib
    import json as json_mod

    from repro.bench import fabric_smoke_config
    from repro.fabric.system import run_fabric

    result = run_fabric(fabric_smoke_config(), shard_jobs=1)
    blob = json_mod.dumps(
        result.to_dict(), sort_keys=True, separators=(",", ":")
    )
    return {"payload_sha256": hashlib.sha256(blob.encode()).hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", default=DEFAULT_BASELINE)
    args = parser.parse_args(argv)

    from repro.bench import (
        bench_fig5,
        bench_rack,
        flow_rack_smoke_specs,
        payload_sha256,
    )

    identity = json.loads(pathlib.Path(args.baseline).read_text())["identity"]
    checks = [(
        "fig5", identity["fig5_payload_sha256"],
        lambda: bench_fig5(repeats=1)["payload_sha256"],
    )]
    # racks joined the identity gate when the cluster layer landed; older
    # baselines without the key skip the check rather than fail
    if "rack_payload_sha256" in identity:
        checks.append((
            "rack", identity["rack_payload_sha256"],
            lambda: bench_rack()["payload_sha256"],
        ))
    if "fabric_payload_sha256" in identity:
        checks.append((
            "fabric", identity["fabric_payload_sha256"],
            lambda: _fabric_payload()["payload_sha256"],
        ))
    # flow-mode racks: one pinned payload per cell, keyed by cell label
    flow_pins = identity.get("flow_rack_payload_sha256", {})
    for cell, spec in flow_rack_smoke_specs().items():
        if cell in flow_pins:
            checks.append((
                f"flow rack {cell}", flow_pins[cell],
                lambda spec=spec: payload_sha256(spec),
            ))
    failed = False
    for label, expected, run in checks:
        current = run()
        if current != expected:
            print(
                f"FAIL: untraced {label} payload hash moved\n"
                f"  baseline {expected}\n"
                f"  current  {current}\n"
                "Untraced simulation results changed — either fix the code "
                "or, for an intended behaviour change, re-anchor "
                "benchmarks/baseline.json."
            )
            failed = True
        else:
            print(
                f"OK: untraced {label} payload sha256 matches baseline "
                f"({current[:12]}…)"
            )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
