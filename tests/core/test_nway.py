"""Tests for the n-replica generalisation (the paper's stated extension:
"tolerating up to n timing faults can be easily constructed").

The replicator, selector, sizing and assembly of the duplicated network
take their replica count from the capacities (or models) they are given;
these tests drive them with n = 2..4."""

import pytest

from repro.core.duplicate import NetworkBlueprint, build_duplicated
from repro.core.replicator import ReplicatorChannel
from repro.core.selector import SelectorChannel
from repro.kpn.errors import SimulationError
from repro.kpn.network import Network
from repro.kpn.process import PacedRelay, PeriodicConsumer, PeriodicSource
from repro.kpn.tokens import Token
from repro.rtc.pjd import PJD
from repro.rtc.sizing import size_duplicated_network

PRODUCER = PJD(10.0, 1.0, 10.0)
CONSUMER = PJD(10.0, 1.0, 10.0)
TRIPLE = [PJD(10.0, 2.0, 10.0), PJD(10.0, 5.0, 10.0), PJD(10.0, 8.0, 10.0)]


def tok(seqno):
    return Token(value=seqno, seqno=seqno, stamp=0.0)


def triple_blueprint(tokens, consumer_tokens, seed=1):
    def make_producer(net: Network):
        return net.add_process(
            PeriodicSource("P", PRODUCER, tokens,
                           payload=lambda i: (i * 17 % 97, 16),
                           seed=seed * 10 + 1)
        )

    def make_consumer(net: Network):
        return net.add_process(
            PeriodicConsumer("C", CONSUMER, consumer_tokens,
                             seed=seed * 10 + 2)
        )

    def make_critical(net: Network, prefix, variant, input_ep, output_ep):
        relay = net.add_process(
            PacedRelay(f"{prefix}/stage", TRIPLE[variant],
                       seed=seed * 10 + 50 + variant)
        )
        relay.input = input_ep
        relay.output = output_ep
        return [relay]

    return NetworkBlueprint("triple", make_producer, make_critical,
                            make_consumer)


@pytest.fixture(scope="module")
def sizing3():
    return size_duplicated_network(PRODUCER, TRIPLE, TRIPLE, CONSUMER)


class TestNWaySizing:
    def test_reduces_to_pairwise_for_two(self):
        # Two of the triple's models through the n-replica sizing give the
        # paper's pairwise numbers (pinned from the two-replica solver).
        two = TRIPLE[:2]
        pairwise = size_duplicated_network(PRODUCER, two, two, CONSUMER)
        nway = size_duplicated_network(
            PRODUCER, list(two), list(two), CONSUMER
        )
        assert nway.replicator_capacities == pairwise.replicator_capacities
        assert nway.selector_capacities == pairwise.selector_capacities
        assert nway.selector_threshold == pairwise.selector_threshold
        assert pairwise.n == 2
        assert pairwise.replicator_capacities == (2, 2)
        assert pairwise.selector_capacities == (4, 4)
        assert pairwise.selector_threshold == 3
        assert pairwise.selector_detection_bound == 55.0

    def test_three_replicas(self, sizing3):
        assert sizing3.n == 3
        assert len(sizing3.selector_initial_fill) == 3
        assert sizing3.selector_detection_bound > 0
        assert list(sizing3.as_dict()) == [
            "|R1|", "|R2|", "|R3|", "|S1|", "|S2|", "|S3|",
            "|S1|_0", "|S2|_0", "|S3|_0", "D_selector", "D_replicator",
            "selector_bound_ms", "replicator_bound_ms",
        ]

    def test_requires_two(self):
        with pytest.raises(ValueError):
            size_duplicated_network(PRODUCER, TRIPLE[:1], TRIPLE[:1], CONSUMER)


class TestNWaySelectorRules:
    def test_first_of_group_enqueued_rest_dropped(self):
        sel = SelectorChannel("sel", capacities=(5, 5, 5))
        for k in (1, 0, 2):
            sel.poll_write(k, tok(1), float(k))
        assert sel.fill == 1
        assert sel.drops == [1, 0, 1]  # interface 1 was first

    def test_straggler_catches_up_correctly(self):
        sel = SelectorChannel("sel", capacities=(8, 8, 8))
        # Interfaces 0 and 1 write groups 1..3; interface 2 lags.
        for seq in (1, 2, 3):
            sel.poll_write(0, tok(seq), float(seq))
            sel.poll_write(1, tok(seq), float(seq) + 0.1)
        for seq in (1, 2, 3):
            sel.poll_write(2, tok(seq), 10.0 + seq)
        assert sel.drops[2] == 3  # all late duplicates dropped
        # Interface 2 then leads group 4: its token must be the one kept.
        sel.poll_write(2, tok(4), 20.0)
        sel.poll_write(0, tok(4), 21.0)
        sel.poll_write(1, tok(4), 22.0)
        seqnos = []
        while True:
            status, token = sel.poll_read(0, 30.0)
            if status != "ok":
                break
            seqnos.append(token.seqno)
        assert seqnos == [1, 2, 3, 4]

    def test_two_faults_tolerated(self):
        sel = SelectorChannel("sel", capacities=(4, 4, 4),
                                  divergence_threshold=2)
        # Interfaces 1 and 2 go silent; 0 keeps writing.
        for seq in range(1, 8):
            sel.poll_write(0, tok(seq), float(seq))
        assert sel.fault == [False, True, True]
        # The survivor continues with plain FIFO semantics.
        status, token = sel.poll_read(0, 10.0)
        assert status == "ok" and token.seqno == 1

    def test_survivor_cannot_be_flagged(self):
        # The front replica is unreachable by both mechanisms: divergence
        # measures lag *behind* the front, and the consumer can never
        # read more tokens than the front wrote.  The last healthy
        # replica is therefore safe by construction.
        sel = SelectorChannel("sel", capacities=(6, 6),
                                  divergence_threshold=1)
        sel.poll_write(0, tok(1), 0.0)
        sel.poll_write(0, tok(2), 1.0)  # flags interface 1
        assert sel.fault == [False, True]
        for seq in range(1, 30):
            sel.poll_write(1, tok(seq), 10.0 + seq)
            sel.poll_read(0, 10.0 + seq + 0.5)
        assert sel.fault == [False, True]

    def test_all_faulty_guard(self):
        sel = SelectorChannel("sel", capacities=(6, 6),
                                  divergence_threshold=1)
        sel._flag(0, "stall", 0.0, "forced")
        with pytest.raises(SimulationError):
            sel._flag(1, "stall", 1.0, "forced")


class TestNWayReplicatorRules:
    def test_duplicates_to_all(self):
        rep = ReplicatorChannel("rep", capacities=(3, 3, 3))
        rep.poll_write(0, tok(1), 0.0)
        assert [rep.fill(k) for k in range(3)] == [1, 1, 1]

    def test_two_dead_replicas_flagged_independently(self):
        rep = ReplicatorChannel("rep", capacities=(2, 2, 4))
        for seq in range(1, 5):
            rep.poll_write(0, tok(seq), float(seq))
            rep.poll_read(2, float(seq) + 0.5)  # only replica 3 drains
        assert rep.fault == [True, True, False]

    def test_divergence_against_front(self):
        rep = ReplicatorChannel("rep", capacities=(9, 9, 9),
                                    divergence_threshold=2)
        for seq in range(1, 5):
            rep.poll_write(0, tok(seq), float(seq))
            rep.poll_read(0, float(seq))
            rep.poll_read(1, float(seq))
        assert rep.fault == [False, False, True]


class TestFlaggedInterfaces:
    def test_lag_of_exactly_d_is_not_flagged(self):
        # Replica 2 lags the front by D + 1, replica 1 by exactly D:
        # only the first is a fault.
        rep = ReplicatorChannel("rep", capacities=(9, 9, 9),
                                divergence_threshold=2)
        for seq in range(1, 4):
            rep.poll_write(0, tok(seq), 0.0)
        rep.poll_read(1, 0.0)
        for _ in range(3):
            rep.poll_read(0, 0.0)
        assert rep.fault == [False, False, True]
        assert rep.log.reports[0].detail == "reads=3/1/0 D=2"

    @pytest.mark.parametrize("n", [2, 3])
    def test_flagged_leader_is_out_of_the_comparison(self, n):
        # Interface 0 delivers tokens 1 and 2, then is quarantined (a
        # coordinator condemned its replica).  Rule S3 compares only
        # healthy interfaces, so interface 1's token 2 is enqueued even
        # though the flagged leader's virtual fill is larger.
        sel = SelectorChannel("sel", capacities=(4,) * n)
        sel.poll_write(0, tok(1), 0.0)
        sel.poll_write(0, tok(2), 0.0)
        sel.poll_write(1, tok(1), 0.0)
        assert sel.fill == 2
        sel.quarantine(0)
        sel.poll_write(1, tok(2), 1.0)
        assert sel.fill == 3
        assert sel.drops[1] == 1


class TestVerifyDuplicates:
    @pytest.mark.parametrize("n", [2, 3])
    def test_every_late_member_is_compared(self, n):
        sel = SelectorChannel("sel", capacities=(4,) * n,
                              verify_duplicates=True)
        for k in range(n):
            sel.poll_write(k, Token(value=7, seqno=1, stamp=0.0), 0.0)
        assert sel._pending_values == {}  # group complete, nothing held
        for k in range(n - 1):
            sel.poll_write(k, Token(value=8, seqno=2, stamp=0.0), 1.0)
        with pytest.raises(SimulationError, match="differs in value"):
            sel.poll_write(n - 1, Token(value=9, seqno=2, stamp=0.0), 1.0)


class TestRecoveryNeedsTwoReplicas:
    """The countermeasure's re-prime and handover are defined for the
    paper's pair only; a three-replica channel refuses them."""

    def test_reprime_rejects_three(self):
        rep = ReplicatorChannel("rep", capacities=(3, 3, 3))
        rep.poll_write(0, tok(1), 0.0)
        with pytest.raises(ValueError, match="exactly two replicas"):
            rep.reprime(0)
        assert rep.fault == [False, False, False]
        assert [rep.fill(k) for k in range(3)] == [1, 1, 1]

    def test_begin_recovery_rejects_three(self):
        sel = SelectorChannel("sel", capacities=(4, 4, 4))
        with pytest.raises(ValueError, match="exactly two replicas"):
            sel.begin_recovery(0, handover=0, now=0.0)
        assert sel.fault == [False, False, False]

    def test_pair_still_recovers(self):
        rep = ReplicatorChannel("rep", capacities=(3, 3))
        rep.poll_write(0, tok(1), 0.0)
        rep.quarantine(0)
        assert rep.reprime(0) == 1
        sel = SelectorChannel("sel", capacities=(4, 4))
        sel.begin_recovery(1, handover=0, now=0.0)
        assert sel.fault == [False, False]


class TestAllFlaggedMessage:
    def test_pair_keeps_single_fault_wording(self):
        rep = ReplicatorChannel("rep", capacities=(2, 2))
        rep._flag(0, "overflow", 0.0, "forced")
        with pytest.raises(SimulationError) as info:
            rep._flag(1, "overflow", 1.0, "forced")
        assert str(info.value) == (
            "rep: both replicas flagged faulty — single-fault assumption "
            "violated (or FIFO capacities under-sized)"
        )

    def test_triple_names_its_fault_budget(self):
        sel = SelectorChannel("sel", capacities=(4, 4, 4))
        sel._flag(0, "stall", 0.0, "forced")
        sel._flag(2, "stall", 0.0, "forced")
        with pytest.raises(SimulationError) as info:
            sel._flag(1, "stall", 1.0, "forced")
        assert str(info.value) == (
            "sel: all 3 replicas flagged faulty — 2-fault assumption "
            "violated (or capacities/threshold under-sized)"
        )

    def test_divergence_detail_lists_every_counter(self):
        rep = ReplicatorChannel("rep", capacities=(9, 9, 9),
                                divergence_threshold=2)
        for seq in range(1, 5):
            rep.poll_write(0, tok(seq), float(seq))
            rep.poll_read(0, float(seq))
            rep.poll_read(1, float(seq))
        (report,) = rep.log
        assert (report.replica, report.detail) == (2, "reads=3/2/0 D=2")


class TestNWayNetwork:
    def test_triple_modular_redundancy_runs_clean(self, sizing3):
        blueprint = triple_blueprint(
            60, 60 + sizing3.selector_priming
        )
        nway = build_duplicated(blueprint, sizing3)
        _, stats = nway.run(max_events=200_000)
        assert len(nway.detection_log) == 0
        assert nway.consumer.stalls == 0
        assert len(nway.consumer.arrival_times) == (
            60 + sizing3.selector_priming
        )

    def test_tolerates_two_sequential_faults(self, sizing3):
        blueprint = triple_blueprint(
            80, 80 + sizing3.selector_priming
        )
        nway = build_duplicated(blueprint, sizing3)
        sim = nway.network.instantiate()

        def kill(replica):
            def fire():
                for process in nway.replicas[replica]:
                    sim.kill(process.name)
            return fire

        sim.schedule_at(200.0, kill(0))
        sim.schedule_at(450.0, kill(2))
        sim.run(max_events=300_000)
        flagged = {r.replica for r in nway.detection_log}
        assert 0 in flagged and 2 in flagged
        assert nway.consumer.stalls == 0
        real = [t for t in nway.consumer.tokens if t.seqno > 0]
        assert [t.seqno for t in real] == list(range(1, 81))
        assert [t.value for t in real] == [i * 17 % 97 for i in range(80)]

    def test_fault_free_output_matches_duplicated(self, sizing3):
        blueprint3 = triple_blueprint(30, 30 + sizing3.selector_priming)
        nway = build_duplicated(blueprint3, sizing3)
        nway.run(max_events=100_000)

        two = TRIPLE[:2]
        sizing2 = size_duplicated_network(PRODUCER, two, two, CONSUMER)
        blueprint2 = triple_blueprint(30, 30 + sizing2.selector_priming)
        duplicated = build_duplicated(blueprint2, sizing2)
        duplicated.run(max_events=100_000)

        nway_vals = [t.value for t in nway.consumer.tokens if t.seqno > 0]
        dup_vals = [
            t.value for t in duplicated.consumer.tokens if t.seqno > 0
        ]
        assert nway_vals == dup_vals


# -- characterisation pin: the replica-count sweep configuration -----------
#
# benchmarks/bench_nway_redundancy.py at seed 7: n = 2..4 replicas of the
# synthetic PJD chain, replica 0 fail-stopped at 400 ms.  Sizing, the
# detection log, the selector's per-interface drops and the consumer's
# token stream are pinned so the replica count can be varied through one
# channel pair without moving any of them.

SWEEP_PRODUCER = PJD(10.0, 1.0, 10.0)
SWEEP_CONSUMER = PJD(10.0, 1.0, 10.0)
SWEEP_VARIANTS = [PJD(10.0, 2.0, 10.0), PJD(10.0, 4.0, 10.0),
                  PJD(10.0, 6.0, 10.0), PJD(10.0, 8.0, 10.0)]
SWEEP_TOKENS = 120
SWEEP_SEED = 7
SWEEP_LOG = [
    (410.4872778433379, "selector", 0, "stall"),
    (420.49550028343435, "replicator", 0, "overflow"),
]
SWEEP_PINS = {
    # n: (|R_k|, |S_k|, D_selector, D_replicator, selector.drops)
    2: (2, 4, 3, 3, [1, 38]),
    3: (2, 4, 3, 3, [1, 38, 120]),
    4: (2, 4, 4, 4, [3, 39, 120, 117]),
}
#: sha256 prefix of ``repr(consumer.arrival_times)`` (identical for all n).
SWEEP_ARRIVALS_SHA = "5b8aca50157280cd"


def sweep_blueprint(consumer_tokens):
    seed = SWEEP_SEED

    def make_producer(net: Network):
        return net.add_process(
            PeriodicSource("P", SWEEP_PRODUCER, SWEEP_TOKENS,
                           payload=lambda i: (i, 64), seed=seed)
        )

    def make_consumer(net: Network):
        return net.add_process(
            PeriodicConsumer("C", SWEEP_CONSUMER, consumer_tokens,
                             seed=seed + 1)
        )

    def make_critical(net, prefix, variant, input_ep, output_ep):
        relay = net.add_process(
            PacedRelay(f"{prefix}/stage", SWEEP_VARIANTS[variant],
                       seed=seed + 50 + variant)
        )
        relay.input = input_ep
        relay.output = output_ep
        return [relay]

    return NetworkBlueprint("nway", make_producer, make_critical,
                            make_consumer)


class TestReplicaSweepPinned:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_fail_stop_of_replica_0(self, n):
        import hashlib
        models = SWEEP_VARIANTS[:n]
        sizing = size_duplicated_network(
            SWEEP_PRODUCER, models, models, SWEEP_CONSUMER
        )
        r_cap, s_cap, d_sel, d_rep, drops = SWEEP_PINS[n]
        assert sizing.replicator_capacities == (r_cap,) * n
        assert sizing.selector_capacities == (s_cap,) * n
        assert sizing.selector_threshold == d_sel
        assert sizing.replicator_threshold == d_rep
        assert sizing.selector_priming == 2

        network = build_duplicated(
            sweep_blueprint(SWEEP_TOKENS + sizing.selector_priming), sizing
        )
        sim = network.network.instantiate()

        def kill():
            for process in network.replicas[0]:
                sim.kill(process.name)

        sim.schedule_at(400.0, kill)
        sim.run(max_events=400_000)

        assert [
            (r.time, r.site, r.replica, r.mechanism)
            for r in network.detection_log
        ] == SWEEP_LOG
        assert network.selector.drops == drops
        tokens = [(t.seqno, t.value) for t in network.consumer.tokens]
        assert tokens == [
            (-1, ("__priming__", 0)), (0, ("__priming__", 1)),
        ] + [(i + 1, i) for i in range(SWEEP_TOKENS)]
        arrivals = repr(network.consumer.arrival_times).encode()
        assert hashlib.sha256(arrivals).hexdigest()[:16] == (
            SWEEP_ARRIVALS_SHA
        )
