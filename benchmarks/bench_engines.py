"""Substrate engine throughput benchmarks.

Not a paper table — these keep the performance-critical kernels honest:
bit-parallel simulation (the BPFS engine), word-parallel observability,
the CDCL miter, BDD construction, STA, and technology mapping.
"""

import pytest

from repro.bdd import BddManager, build_signal_bdds
from repro.circuits.registry import SMALL_SUITE
from repro.sat import miter_equivalent
from repro.sim import BitSimulator, ObservabilityEngine
from repro.synth import map_netlist, script_rugged
from repro.timing import Sta


@pytest.fixture(scope="module")
def mapped(lib):
    return script_rugged(SMALL_SUITE["C880"](), lib)


def test_bitsim_throughput(benchmark, mapped):
    """Simulate 4096 vectors (64 words) through the mapped netlist."""
    sim = BitSimulator(mapped)

    def run():
        return sim.simulate_random(n_words=64, seed=1)

    state = benchmark(run)
    assert state.n_words == 64


def test_observability_throughput(benchmark, mapped):
    sim = BitSimulator(mapped)
    state = sim.simulate_random(n_words=16, seed=2)
    targets = mapped.topo_order()[-24:]

    def run():
        eng = ObservabilityEngine(sim, state)
        return [eng.stem_observability(t) for t in targets]

    words = benchmark(run)
    assert len(words) == len(targets)


def test_sta_throughput(benchmark, mapped, lib):
    def run():
        sta = Sta(mapped, lib)
        sta.ncp(mapped.topo_order()[-1])
        return sta

    sta = benchmark(run)
    assert sta.delay > 0


def test_miter_throughput(benchmark, mapped):
    twin = mapped.copy()

    def run():
        return miter_equivalent(mapped, twin)

    assert benchmark(run) is True


def test_bdd_build_throughput(benchmark, mapped):
    def run():
        mgr = BddManager(max_nodes=500_000)
        return build_signal_bdds(mapped, mgr, targets=list(mapped.pos))

    bdds = benchmark(run)
    assert all(po in bdds for po in mapped.pos)


def test_mapping_throughput(benchmark, lib):
    source = SMALL_SUITE["C432"]()

    def run():
        return map_netlist(source, lib, mode="area", tree=True)

    mapped = benchmark(run)
    assert mapped.num_gates > 0

