#!/usr/bin/env python3
"""Tolerating two timing faults with three replicas.

The paper notes its two-replica setup "can be easily relaxed by adding
more replicas ... using the principles outlined in this paper".  This
example builds the 3-way network, kills replica 1 mid-run and replica 3
later, and shows the consumer never noticing either fault — the
replicator and selector detect and isolate each replica in turn and
finish on the last survivor.  It is the paper's duplicated network with
three replica models instead of two: the same sizing and builder.

Run:  python examples/triple_modular_redundancy.py
"""

from repro.core.duplicate import NetworkBlueprint, build_duplicated
from repro.kpn.network import Network
from repro.kpn.process import PacedRelay, PeriodicConsumer, PeriodicSource
from repro.rtc.pjd import PJD
from repro.rtc.sizing import size_duplicated_network

PRODUCER = PJD(10.0, 1.0, 10.0)
CONSUMER = PJD(10.0, 1.0, 10.0)
VARIANTS = [PJD(10.0, 2.0, 10.0), PJD(10.0, 5.0, 10.0),
            PJD(10.0, 8.0, 10.0)]
TOKENS = 150


def blueprint(consumer_tokens: int) -> NetworkBlueprint:
    def make_producer(net: Network):
        return net.add_process(
            PeriodicSource("P", PRODUCER, TOKENS,
                           payload=lambda i: (i, 64), seed=11)
        )

    def make_consumer(net: Network):
        return net.add_process(
            PeriodicConsumer("C", CONSUMER, consumer_tokens, seed=12)
        )

    def make_critical(net, prefix, variant, input_ep, output_ep):
        relay = net.add_process(
            PacedRelay(f"{prefix}/stage", VARIANTS[variant],
                       seed=100 + variant)
        )
        relay.input = input_ep
        relay.output = output_ep
        return [relay]

    return NetworkBlueprint("tmr", make_producer, make_critical,
                            make_consumer)


def main() -> None:
    sizing = size_duplicated_network(PRODUCER, VARIANTS, VARIANTS, CONSUMER)
    print("3-way sizing:")
    print(f"  replicator capacities : {sizing.replicator_capacities}")
    print(f"  selector capacities   : {sizing.selector_capacities}")
    print(f"  initial fill / priming: {sizing.selector_initial_fill} / "
          f"{sizing.selector_priming}")
    print(f"  thresholds D          : selector "
          f"{sizing.selector_threshold}, replicator "
          f"{sizing.replicator_threshold}")
    print()

    tmr = build_duplicated(blueprint(TOKENS + sizing.selector_priming), sizing)
    sim = tmr.network.instantiate()

    fault_times = {0: 400.0, 2: 900.0}
    for replica, at in fault_times.items():
        def kill(r=replica):
            for process in tmr.replicas[r]:
                sim.kill(process.name)
        sim.schedule_at(at, kill)

    sim.run()

    print("Faults: replica 1 killed at t=400 ms, replica 3 at t=900 ms")
    for report in tmr.detection_log:
        latency = report.time - fault_times[report.replica]
        print(f"  replica {report.replica + 1} flagged at the "
              f"{report.site:<10s} +{latency:6.1f} ms after its fault "
              f"[{report.mechanism}]")
    print()
    real = [t for t in tmr.consumer.tokens if t.seqno > 0]
    ordered = [t.seqno for t in real] == list(range(1, TOKENS + 1))
    print(f"Consumer: {len(real)}/{TOKENS} tokens, in order: {ordered}, "
          f"stalls: {tmr.consumer.stalls}")
    print("Two faults tolerated; the last survivor carried the stream.")


if __name__ == "__main__":
    main()
