#!/usr/bin/env python3
"""Watch Algorithm 1 adapt Fwd_Th in real time.

Runs HAL on NAT while the offered rate steps 10 → 80 → 25 Gbps, sampling
the LBP's forwarding threshold and the SNIC/host split every few
milliseconds, and prints an ASCII strip chart of the adaptation. Also
compares the adaptive-step variant against the fixed-step baseline.

Run:  python examples/policy_playground.py
"""

from repro import ConstantRateGenerator, HalSystem, LbpConfig, TrafficSpec

PHASES = ((10.0, 0.05), (80.0, 0.08), (25.0, 0.05))  # (rate Gbps, seconds)


def run_variant(label: str, config: LbpConfig) -> None:
    system = HalSystem("nat", lbp_config=config, initial_threshold_gbps=10.0)
    samples = []

    def sample() -> None:
        # Algorithm 1 is evaluated on demand: catch it up before reading
        system.lbp.advance_to(system.sim.now)
        samples.append(
            (system.sim.now, system.hlb.director.fwd_threshold_gbps,
             system.hlb.rate_rx_gbps)
        )

    system.sim.every(0.004, sample)

    start = 0.0
    for rate, seconds in PHASES:
        generator = ConstantRateGenerator(
            system.plan, TrafficSpec(batch=16), system.rng, rate,
            stream=f"gen-{rate}-{start}",
        )
        generator.start(system.sim, system.ingress, seconds)
        start = system.sim.run(until=start + seconds)
    system.stop_periodic()

    print(f"\n== {label} ==")
    print(f"{'t (ms)':>7s} {'Rate_Rx':>8s} {'Fwd_Th':>7s}  threshold")
    scale = 50.0 / 60.0  # 60 Gbps full scale
    for t, threshold, rate in samples[:: max(1, len(samples) // 24)]:
        bar = "#" * int(threshold * scale)
        print(f"{t * 1e3:7.1f} {rate:8.1f} {threshold:7.1f}  {bar}")
    print(
        f"final threshold {system.hlb.director.fwd_threshold_gbps:.1f} Gbps, "
        f"{system.lbp.adjustments_up} raises / {system.lbp.adjustments_down} cuts"
    )


def main() -> None:
    print("Offered rate steps: " + " -> ".join(f"{r:.0f}G" for r, _ in PHASES))
    run_variant("adaptive step (default)", LbpConfig(adaptive_step=True))
    run_variant("fixed step", LbpConfig(adaptive_step=False))
    print(
        "\nThe adaptive variant sheds overload in a few policy periods;"
        "\nthe fixed step crawls toward the new operating point."
    )


if __name__ == "__main__":
    main()
