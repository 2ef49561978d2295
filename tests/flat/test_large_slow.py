"""Slow large-circuit regression for the flat kernels.

The registry suite tops out near 2k gates; this generates a >10k-gate
control netlist — a size class the default test run never touches — and
asserts the flat kernels stay bitwise-differential against the dict
reference engines on sim + STA.

Gated behind ``-m slow`` (excluded by the default addopts); run with::

    PYTHONPATH=src python -m pytest tests/flat/test_large_slow.py \
        -m slow --override-ini "addopts=-q"
"""

import numpy as np
import pytest

from repro.circuits.registry import random_control
from repro.flat.batchsim import flat_simulate
from repro.flat.flatsta import FlatTiming
from repro.flat.view import FlatView
from repro.library import mcnc_like
from repro.sim import BitSimulator
from repro.sim.vectors import random_words
from repro.timing import Sta

pytestmark = pytest.mark.slow

N_GATES = 10_500


@pytest.fixture(scope="module")
def big():
    net = random_control(n_pi=96, n_gates=N_GATES, n_po=48, seed=13,
                         locality=64, name="big13")
    lib = mcnc_like()
    lib.rebind(net)
    assert net.num_gates > 10_000
    return net, lib


def test_flat_kernels_differential_at_scale(big):
    net, lib = big
    sim = BitSimulator(net)
    words = random_words(net.pis, 8, 77)
    state = sim.simulate(dict(words))
    view = FlatView.build(net, library=lib)
    values = flat_simulate(view, words)
    for sig, idx in view.index_of.items():
        assert np.array_equal(values[idx], state.word(sig)), sig
    sta = Sta(net, lib)
    ft = FlatTiming(view)
    assert ft.delay == sta.delay
    assert ft.arrival_dict() == sta.arrival
    assert ft.required_dict() == sta.required

