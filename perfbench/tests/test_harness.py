"""Self-tests of the benchmark harness: aggregation rules, span self
time, failure accounting, the independent output check and the
agreement of BENCHMARK.json with the harness."""

import json
import os

import pytest

import run
from evaluate import outputs_match
from layers import PER_LAYER
from spans import Tracer, root_total, self_times
from summary import geomean, percentile, tail_percentile
from workloads import WORKLOADS, Pass, Unit, latency_tail

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


# --- aggregation -------------------------------------------------------
def test_geomean():
    assert geomean([1.0, 4.0]) == pytest.approx(2.0)
    assert geomean([0.5, 2.0]) == pytest.approx(1.0)
    assert geomean([0.9]) == pytest.approx(0.9)
    assert geomean([]) == 1.0


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(39) is None
    assert tail_percentile(40) == 75
    assert tail_percentile(99) == 75
    assert tail_percentile(100) == 90
    assert tail_percentile(200) == 95
    assert tail_percentile(1000) == 99


def test_percentile_interpolates_between_ranks():
    values = list(range(1, 42))  # 1..41
    assert percentile(values, 50) == 21
    assert percentile(values, 75) == 31
    assert percentile([1.0, 2.0], 50) == pytest.approx(1.5)


def test_latency_tail_uses_ok_units_and_the_rule():
    units = [Unit(name="j", seconds=float(i), run_seconds=0.5)
             for i in range(40)]
    assert latency_tail(units) == pytest.approx(percentile(
        [float(i) for i in range(40)], 75))
    units[0].failed = "job failed"
    assert latency_tail(units) is None  # 39 ok samples: too few


# --- spans ---------------------------------------------------------------
class _Clock:
    """Advances one tick per read, so span times are exact."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_self_time_of_nested_and_recursive_spans():
    tracer = Tracer(clock=_Clock())

    def extract_cone(depth):
        if depth:
            extract_cone(depth - 1)

    class Broker:
        def prove(self):
            obligation_from_nets()

    def obligation_from_nets():
        extract_cone(1)  # recursive: extract_cone inside extract_cone

    g = {"extract_cone": extract_cone,
         "obligation_from_nets": obligation_from_nets}
    extract_cone = tracer.timed("netlist.extract_cone", g["extract_cone"])
    obligation_from_nets = tracer.timed("proof.obligation",
                                        g["obligation_from_nets"])
    tracer.patch(Broker, "prove",
                 lambda fn: tracer.timed("proof.prove", fn))
    Broker().prove()
    # clock ticks: prove [1, 8], obligation [2, 7], cone [3, 6], cone [4, 5]
    own = self_times(tracer.spans)
    assert own == {"proof.prove": 2.0, "proof.obligation": 2.0,
                   "netlist.extract_cone": 3.0}
    assert sum(own.values()) == root_total(tracer.spans) == 7.0
    assert tracer.calls["netlist.extract_cone"] == 2
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 2]


def test_patch_keeps_descriptor_kind_and_uninstall_restores():
    class Thing:
        @classmethod
        def build(cls, x):
            return (cls, x)

        def method(self):
            return "m"

    original = Thing.__dict__["build"]
    tracer = Tracer()
    tracer.patch(Thing, "build", lambda fn: tracer.timed("flat.b", fn))
    tracer.patch(Thing, "method", lambda fn: tracer.counted("x.m", fn))
    assert Thing.build(3) == (Thing, 3)
    assert Thing().method() == "m"
    assert tracer.calls == {"flat.b": 1, "x.m": 1}
    tracer.uninstall()
    assert Thing.__dict__["build"] is original


def test_measure_runs_even_when_the_call_raises():
    tracer = Tracer()

    def solve():
        raise RuntimeError("budget")

    def measure(values, result, args):
        values["sat.calls_seen"] += 1

    wrapped = tracer.timed("sat.solve", solve, measure)
    with pytest.raises(RuntimeError):
        wrapped()
    assert tracer.values["sat.calls_seen"] == 1
    assert tracer.spans[0].end >= tracer.spans[0].start


# --- failure accounting -----------------------------------------------
def _unit(name, equivalent=True, failed=""):
    return Unit(name=name, seconds=1.0, run_seconds=1.0, commits=1,
                delay_before=10.0, delay_after=8.0, area_before=4.0,
                area_after=4.0, equivalent=equivalent, failed=failed)


def test_failed_and_unverified_fractions():
    passes = [
        Pass(wall=2.0, units=[_unit("a"), _unit("b", equivalent=None)]),
        Pass(wall=2.0, units=[_unit("c", failed="output mismatch"),
                              _unit("d", equivalent=False)]),
    ]
    e2e = run.end_to_end(passes, [0.1, 0.2, 0.3])
    assert e2e["failed_frac"] == pytest.approx(0.25)
    # None and False both count as unverified; a failed unit whose
    # verdict was True does not.
    assert e2e["unverified_frac"] == pytest.approx(0.5)
    assert e2e["setup_s"] == pytest.approx(0.2)
    assert e2e["jobs_per_s"] == pytest.approx(3 / 4.0)
    assert e2e["delay_ratio"] == pytest.approx(0.8)
    assert e2e["job_latency_p75_s"] is None


# --- independent output check -----------------------------------------
def _net(second_func):
    from repro.netlist.netlist import Netlist

    net = Netlist("t")
    for pi in ("a", "b", "c"):
        net.add_pi(pi)
    net.add_gate("x", "AND", ["a", "b"])
    net.add_gate("y", second_func, ["x", "c"])
    net.set_pos(["y", "x"])
    return net


def test_output_check_accepts_equal_and_rejects_different():
    assert outputs_match(_net("OR"), _net("OR"), seed=1)
    assert not outputs_match(_net("OR"), _net("XOR"), seed=1)


def test_output_check_rejects_a_changed_interface():
    other = _net("OR")
    other.add_pi("d")
    assert not outputs_match(_net("OR"), other, seed=1)


# --- BENCHMARK.json ---------------------------------------------------
def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert [m["name"] for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in doc["per_layer"]} == PER_LAYER
    assert {w["name"]: w["why"] for w in doc["workloads"]} == \
        {name: w.why for name, w in WORKLOADS.items()}
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert max(m["bound"] for m in doc["end_to_end"]) == \
        next(m["bound"] for m in doc["end_to_end"]
             if m["name"] == "setup_s")
    assert isinstance(doc["run_seconds"], int)
    assert 1 <= doc["run_seconds"] <= 60
