"""Property-based equivalence of IncrementalSta against from-scratch Sta.

Each test drives a seeded random edit sequence over registry circuits
through :func:`repro.netlist.edit.dirty_between` +
:meth:`IncrementalSta.refresh` and asserts after *every* step that the
maintained annotation (load, arrival, required, slack, delay, NCP) is
exactly the one a fresh :class:`Sta` computes.  Exact equality is
intentional: the incremental engine re-runs the same float expressions
on the same operands (its full recomputes run the flat level sweep),
which is what keeps GDO's decisions those of a from-scratch ``Sta``.
"""

import random

import pytest

from repro.circuits.registry import build
from repro.library import mcnc_like
from repro.netlist import Branch, dirty_between
from repro.netlist.edit import (
    insert_gate, prune_dangling, replace_input, set_branch_constant,
    substitute_stem, would_create_cycle,
)
from repro.timing import IncrementalSta, Sta


@pytest.fixture(scope="module")
def lib():
    return mcnc_like()


# ----------------------------------------------------------------------
# random edit generator
# ----------------------------------------------------------------------
def _apply_random_edit(net, rng):
    """One random structural edit on ``net``; returns False if the drawn
    edit was inapplicable (caller simply draws again)."""
    order = net.topo_order()
    if not order:
        return False
    kind = rng.randrange(4)
    if kind == 0:
        # Reconnect one gate input pin to another signal.
        out = rng.choice(order)
        gate = net.gates[out]
        if gate.nin == 0:
            return False
        pin = rng.randrange(gate.nin)
        pool = [
            s for s in list(net.pis) + order
            if s != gate.inputs[pin] and not would_create_cycle(net, out, s)
        ]
        if not pool:
            return False
        replace_input(net, Branch(out, pin), rng.choice(pool))
        return True
    if kind == 1:
        # Redirect every reader of a stem to an earlier signal, then
        # reclaim the dangling cone (exercises the removed-set path).
        stems = [s for s in order if net.fanout_count(s) > 0]
        if not stems:
            return False
        stem = rng.choice(stems)
        idx = order.index(stem)
        pool = [s for s in list(net.pis) + order[:idx] if s != stem]
        if not pool:
            return False
        substitute_stem(net, stem, rng.choice(pool))
        if stem not in net.pos:
            prune_dangling(net, roots=[stem])
        return True
    if kind == 2:
        # Insert a fresh gate over two existing signals and wire one
        # downstream reader onto it.
        pool = list(net.pis) + order
        a, b = rng.choice(pool), rng.choice(pool)
        new = insert_gate(net, rng.choice(["AND", "OR", "XOR"]), [a, b])
        readers = [
            out for out in net.topo_order()
            if net.gates[out].nin > 0 and out != new
            and not would_create_cycle(net, out, new)
        ]
        if readers:
            out = rng.choice(readers)
            pin = rng.randrange(net.gates[out].nin)
            replace_input(net, Branch(out, pin), new)
        return True
    # kind == 3: tie one gate input pin to a constant.
    out = rng.choice(order)
    gate = net.gates[out]
    if gate.nin == 0:
        return False
    pin = rng.randrange(gate.nin)
    victim = gate.inputs[pin]
    set_branch_constant(net, Branch(out, pin), rng.randrange(2))
    if victim in net.gates and victim not in net.pos:
        prune_dangling(net, roots=[victim])
    return True


def _assert_same_annotation(inc, net, lib):
    fresh = Sta(net, lib, po_load=inc.po_load, eps=inc.eps)
    assert inc.delay == fresh.delay
    assert inc.load == fresh.load
    assert inc.arrival == fresh.arrival
    assert inc.required == fresh.required
    assert inc.slack == fresh.slack
    for sig in net.signals():
        assert inc.ncp(sig) == fresh.ncp(sig), sig
    for out in net.topo_order():
        for pin in range(net.gates[out].nin):
            br = Branch(out, pin)
            assert inc.ncp_edge(br) == fresh.ncp_edge(br), br


# ----------------------------------------------------------------------
@pytest.mark.parametrize("name,seed", [
    ("Z5xp1", 1), ("9sym", 2), ("term1", 3), ("C432", 4),
])
def test_refresh_matches_scratch_over_edit_sequence(lib, name, seed):
    net = build(name, small=True)
    lib.rebind(net)
    rng = random.Random(seed)
    inc = IncrementalSta(net, lib)
    _assert_same_annotation(inc, net, lib)
    steps = 0
    while steps < 12:
        before = net.copy()
        if not _apply_random_edit(net, rng):
            continue
        steps += 1
        dirty, removed = dirty_between(before, net)
        inc.refresh(dirty, removed)
        _assert_same_annotation(inc, net, lib)
    assert inc.incremental_updates + inc.scratch_updates > 1


def test_refresh_none_falls_back_to_scratch(lib):
    net = build("Z5xp1", small=True)
    lib.rebind(net)
    inc = IncrementalSta(net, lib)
    scratch_before = inc.scratch_updates
    out = net.topo_order()[-1]
    gate = net.gates[out]
    if gate.nin:
        replace_input(net, Branch(out, 0), net.pis[0])
    inc.refresh(None)
    assert inc.scratch_updates == scratch_before + 1
    _assert_same_annotation(inc, net, lib)


def test_refresh_large_dirty_set_falls_back(lib):
    net = build("9sym", small=True)
    lib.rebind(net)
    inc = IncrementalSta(net, lib)
    scratch_before = inc.scratch_updates
    inc.refresh(set(net.signals()))  # > scratch_fraction of the gates
    assert inc.scratch_updates == scratch_before + 1
    assert inc.incremental_updates == 0
    _assert_same_annotation(inc, net, lib)


def test_refresh_empty_dirty_is_noop(lib):
    net = build("Z5xp1", small=True)
    lib.rebind(net)
    inc = IncrementalSta(net, lib)
    counts = (inc.scratch_updates, inc.incremental_updates)
    inc.refresh(set())
    assert (inc.scratch_updates, inc.incremental_updates) == counts
    _assert_same_annotation(inc, net, lib)


def test_counters_track_work(lib):
    net = build("Z5xp1", small=True)
    lib.rebind(net)
    inc = IncrementalSta(net, lib)
    assert inc.scratch_updates == 1
    out = net.topo_order()[-1]
    before = net.copy()
    replace_input(net, Branch(out, 0), net.pis[0])
    dirty, removed = dirty_between(before, net)
    inc.refresh(dirty, removed)
    assert inc.incremental_updates == 1
    assert inc.signals_touched > 0
