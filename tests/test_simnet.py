import pytest

from pvx.simnet import (
    ClientSubmit,
    Deliver,
    SimNetwork,
    TimerFire,
    parse_faults,
)


def drain(net):
    events = []
    while net.pending():
        event = net.pop()
        events.append((net.time, event))
    return events


def test_same_seed_same_trace():
    def run():
        net = SimNetwork(42, (1_000, 5_000), 0.2)
        for i in range(50):
            net.send("b", ("msg", i))
            net.send("c", ("msg", i))
        return drain(net)

    assert run() == run()


def test_different_seed_different_trace():
    def run(seed):
        net = SimNetwork(seed, (1_000, 5_000), 0.0)
        for i in range(20):
            net.send("b", ("msg", i))
        return drain(net)

    assert run(1) != run(2)


def test_full_drop_delivers_nothing_but_timers_fire():
    net = SimNetwork(1, (1_000, 5_000), 1.0)
    net.send("b", "hello")
    net.set_timer("a", "tick", 500)
    events = drain(net)
    assert all(isinstance(e, TimerFire) for _, e in events)
    assert net.stats.dropped == 1 and net.stats.delivered == 0


def test_delay_bounds_respected():
    net = SimNetwork(3, (100, 200), 0.0)
    for _ in range(100):
        net.send("b", "x")
    for at, event in drain(net):
        assert isinstance(event, Deliver)
        assert 100 <= at <= 200


def test_event_ordering_ties_broken_by_insertion():
    net = SimNetwork(1, (1_000, 5_000), 0.0)
    net.schedule(100, "first")
    net.schedule(100, "second")
    net.schedule(50, "zeroth")
    events = [e for _, e in drain(net)]
    assert events == ["zeroth", "first", "second"]


def test_fault_parsing():
    assert parse_faults(["crash@5000"]).crash_at == 5000
    assert parse_faults(["mute@10..20"]).mute_windows == ((10, 20),)
    assert parse_faults(["equivocate@3"]).equivocate_heights == frozenset({3})
    merged = parse_faults(["crash@900", "mute@1..5", "mute@7..9",
                           "equivocate@2"])
    assert merged.crash_at == 900
    assert merged.mute_windows == ((1, 5), (7, 9))
    assert merged.equivocate_heights == frozenset({2})
    assert merged.crashed(900) and not merged.crashed(899)
    assert merged.muted(3) and merged.muted(8) and not merged.muted(6)
    with pytest.raises(ValueError):
        parse_faults(["crash"])
    with pytest.raises(ValueError):
        parse_faults(["mute@5"])
    with pytest.raises(ValueError):
        parse_faults(["explode@5"])


def test_earliest_crash_wins():
    assert parse_faults(["crash@9", "crash@5"]).crash_at == 5


@pytest.mark.parametrize("spec", ["crash@-1", "mute@-4..-2", "mute@5..3",
                                  "equivocate@0"])
def test_fault_that_can_never_act_is_refused(spec):
    with pytest.raises(ValueError, match="can never act"):
        parse_faults([spec])


def test_client_submit_event():
    net = SimNetwork(1, (1_000, 5_000), 0.0)
    net.schedule(0, ClientSubmit("a", "tx"))
    events = drain(net)
    assert events == [(0, ClientSubmit("a", "tx"))]
