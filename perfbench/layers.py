"""Which public calls of each layer the traced run wraps, and the
per-layer metrics derived from the spans and the program's own counts.

Span names are ``<layer>.<what>``; the layer is the ``repro`` package
the call belongs to.  Functions imported by name are patched at every
module that imported them (that is where callers look them up);
methods are patched on their class.  Work done in forked children
(proof pool, partition regions, service workers) is invisible to the
wrappers; for it the metrics use the counts the program ships back.
"""

from __future__ import annotations

import importlib
from typing import Dict

from spans import Tracer, root_total, self_times
from summary import fraction

#: per-layer metric -> (unit, better); BENCHMARK.json lists the same
PER_LAYER = {
    "opt.commits": ("count", "higher"),
    "opt.trials": ("count", "lower"),
    "opt.commit_frac": ("fraction", "higher"),
    "opt.self_s": ("s", "lower"),
    "clauses.enumerate_s": ("s", "lower"),
    "clauses.enumerate_calls": ("count", "lower"),
    "clauses.candidates": ("count", "lower"),
    "analysis.static_s": ("s", "lower"),
    "analysis.static_calls": ("count", "lower"),
    "analysis.static_proved": ("count", "higher"),
    "analysis.static_refuted": ("count", "higher"),
    "sim.s": ("s", "lower"),
    "sim.calls": ("count", "lower"),
    "sim.refuted_frac": ("fraction", "higher"),
    "flat.s": ("s", "lower"),
    "flat.view_builds": ("count", "lower"),
    "transform.s": ("s", "lower"),
    "transform.calls": ("count", "lower"),
    "timing.s": ("s", "lower"),
    "timing.calls": ("count", "lower"),
    "timing.signals_touched": ("count", "lower"),
    "netlist.extract_cone_s": ("s", "lower"),
    "netlist.extract_cone_calls": ("count", "lower"),
    "netlist.fanin_calls": ("count", "lower"),
    "netlist.copy_s": ("s", "lower"),
    "proof.obligation_s": ("s", "lower"),
    "proof.canon_s": ("s", "lower"),
    "proof.cone_gates": ("count", "lower"),
    "proof.prove_s": ("s", "lower"),
    "proof.prefetch_s": ("s", "lower"),
    "proof.pool_wait_s": ("s", "lower"),
    "proof.prefetched": ("count", "lower"),
    "proof.dispatched": ("count", "lower"),
    "proof.cache_hit_frac": ("fraction", "higher"),
    "proof.valid": ("count", "higher"),
    "proof.invalid": ("count", "lower"),
    "proof.unknown": ("count", "lower"),
    "cnf.encode_s": ("s", "lower"),
    "cnf.clauses": ("count", "lower"),
    "sat.solve_s": ("s", "lower"),
    "sat.calls": ("count", "lower"),
    "sat.conflicts": ("count", "lower"),
    "sat.decisions": ("count", "lower"),
    "bdd.s": ("s", "lower"),
    "bdd.calls": ("count", "lower"),
    "verify.s": ("s", "lower"),
    "verify.undecided": ("count", "lower"),
    "partition.plan_s": ("s", "lower"),
    "partition.regions_s": ("s", "lower"),
    "partition.merge_s": ("s", "lower"),
    "partition.regions": ("count", "lower"),
    "partition.conflicts": ("count", "lower"),
    "partition.rounds": ("count", "lower"),
    "service.submit_s": ("s", "lower"),
    "service.run_s": ("s", "lower"),
    "service.overhead_s": ("s", "lower"),
    "store.hit_frac": ("fraction", "higher"),
    "store.misses": ("count", "lower"),
    "obs.journal_records": ("count", "lower"),
    "trace.coverage": ("fraction", "higher"),
    "trace.overhead_frac": ("fraction", "lower"),
    # reported with every workload's traced run; not end-to-end metrics
    # because they are 0 on most workloads or need >= 40 samples
    "job_latency_p75_s": ("s", "lower"),
    "unverified_frac": ("fraction", "lower"),
    "failed_frac": ("fraction", "lower"),
}


def _count_len(key: str):
    def measure(values, result, args):
        if result is not None:
            values[key] += len(result)
    return measure


def _count_gates(values, result, args):
    if result is not None:
        values["proof.cone_gates"] += result.num_gates


def _count_clauses(values, result, args):
    if result is not None:
        values["cnf.clauses"] += len(result[0].clauses)


def _count_solver(values, result, args):
    solver = args[0]
    values["sat.conflicts"] += solver.conflicts
    values["sat.decisions"] += solver.decisions


def _count_prefetched(values, result, args):
    values["proof.prefetched"] += sum(1 for ob in args[1] if ob is not None)


def _count_undecided(values, result, args):
    if result is None:
        values["verify.undecided"] += 1


# (module, attribute) -> span name; "Class.method" patches the class.
# A measure callback, when given, adds the call's work counts.
TIMED = [
    ("repro.clauses.candidates", "CandidateEnumerator.delay_targets",
     "clauses.enumerate", None),
    ("repro.clauses.candidates", "CandidateEnumerator.two_subs",
     "clauses.enumerate", _count_len("clauses.candidates")),
    ("repro.clauses.candidates", "CandidateEnumerator.three_subs",
     "clauses.enumerate", _count_len("clauses.candidates")),
    ("repro.analysis.static_refuter", "StaticRefuter.__init__",
     "analysis.static", None),
    ("repro.analysis.static_refuter", "StaticRefuter.classify",
     "analysis.static", None),
    ("repro.sim.bitsim", "BitSimulator.__init__", "sim.sim", None),
    ("repro.sim.bitsim", "BitSimulator.simulate", "sim.sim", None),
    ("repro.sim.bitsim", "BitSimulator.incremental", "sim.sim", None),
    ("repro.sim.bitsim", "BitSimulator.resimulate_cone", "sim.sim", None),
    ("repro.sim.observability", "ObservabilityEngine.refreshed",
     "sim.sim", None),
    ("repro.flat.view", "FlatView.build", "flat.view_build", None),
    ("repro.opt.engine", "flat_simulate", "flat.kernel", None),
    ("repro.flat.batchsim", "batch_observability", "flat.kernel", None),
    ("repro.opt.gdo", "apply_candidate_inplace", "transform.transform",
     None),
    ("repro.transform.substitution", "InplaceSubstitution.undo",
     "transform.transform", None),
    ("repro.timing.incremental", "IncrementalSta.refresh_trial",
     "timing.timing", None),
    ("repro.timing.incremental", "IncrementalSta.refresh",
     "timing.timing", None),
    ("repro.timing.sta", "Sta.__init__", "timing.timing", None),
    ("repro.opt.gdo", "extract_cone", "netlist.extract_cone",
     _count_gates),
    ("repro.proof.obligation", "extract_cone", "netlist.extract_cone",
     _count_gates),
    ("repro.transform.substitution", "extract_cone",
     "netlist.extract_cone", _count_gates),
    ("repro.netlist.netlist", "Netlist.copy", "netlist.copy", None),
    ("repro.proof.broker", "obligation_from_nets", "proof.obligation",
     None),
    ("repro.opt.gdo", "build_obligation", "proof.canon", None),
    ("repro.proof.obligation", "build_obligation", "proof.canon", None),
    ("repro.proof.broker", "ProofBroker.prove", "proof.prove", None),
    ("repro.proof.broker", "ProofBroker.prove_batch", "proof.pool_wait",
     _count_prefetched),
    ("repro.opt.gdo", "_GdoRunner._prefetch_proofs", "proof.prefetch",
     None),
    ("repro.sat.miter", "build_miter_cnf", "cnf.encode", _count_clauses),
    ("repro.sat.solver", "Solver.solve", "sat.solve", _count_solver),
    ("repro.bdd.circuit_bdd", "bdd_equivalent", "bdd.bdd", None),
    ("repro.proof.backends", "bdd_equivalent", "bdd.bdd", None),
    ("repro.verify.equiv", "bdd_equivalent", "bdd.bdd", None),
    ("repro.transform.substitution", "bdd_equivalent", "bdd.bdd", None),
    ("repro.verify.equiv", "check_equivalence", "verify.check",
     _count_undecided),
    ("repro.partition.runner", "partition_netlist", "partition.plan",
     None),
    ("repro.partition.runner", "_optimize_all", "partition.regions",
     None),
    ("repro.partition.runner", "splice_region", "partition.merge", None),
    ("repro.service.client", "ServiceClient.submit", "service.submit",
     None),
    ("repro.service.client", "ServiceClient.status", "service.status",
     None),
]

COUNTED = [
    ("repro.netlist.netlist", "Netlist.transitive_fanin",
     "netlist.fanin"),
]


def _owner(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def install(tracer: Tracer) -> None:
    """Wrap every call in :data:`TIMED` and :data:`COUNTED`."""
    for module, attr, span, measure in TIMED:
        owner, name = _owner(module, attr)
        tracer.patch(owner, name,
                     lambda fn, s=span, m=measure: tracer.timed(s, fn, m))
    for module, attr, counter in COUNTED:
        owner, name = _owner(module, attr)
        tracer.patch(owner, name,
                     lambda fn, c=counter: tracer.counted(c, fn))


def batch_metrics(tracer: Tracer, results) -> Dict[str, float]:
    """Per-layer metrics of one traced batch pass.

    ``results`` are the pass's :class:`repro.GdoResult` objects; the
    spans must come from that pass alone.
    """
    own = self_times(tracer.spans)
    calls, values = tracer.calls, tracer.values

    def t(*names: str) -> float:
        return sum(own.get(n, 0.0) for n in names)

    def n(*names: str) -> int:
        return sum(calls.get(x, 0) for x in names)

    commits = trials = to_bpfs = refuted = 0
    static_proved = static_refuted = 0
    sta_touched = 0
    dispatched = valid = invalid = unknown = hits = lookups = 0
    regions = conflicts = rounds = 0
    for result in results:
        s = result.stats
        commits += len(s.history)
        if s.obs is not None:
            trials += s.obs.counter_sum("gdo_trials")
            to_bpfs += s.obs.counter_sum("gdo_to_bpfs")
            refuted += s.obs.counter("gdo_rejected", reason="refuted")
        static_proved += s.static_proved
        static_refuted += s.static_refuted
        sta_touched += s.engine.sta_signals_touched
        p = s.proof
        dispatched += p.dispatched
        valid += p.sat_valid + p.bdd_valid
        invalid += p.sat_invalid + p.bdd_invalid
        unknown += p.unknown_final
        hits += p.cache_hits
        lookups += p.cache_hits + p.cache_misses
        regions += s.partition_regions
        conflicts += s.partition_conflicts
        rounds += s.partition_rounds
    root = root_total(tracer.spans)
    opt_self = own.get("opt.optimize", 0.0)
    return {
        "opt.commits": commits,
        "opt.trials": trials,
        "opt.commit_frac": fraction(commits, trials),
        "opt.self_s": opt_self,
        "clauses.enumerate_s": t("clauses.enumerate"),
        "clauses.enumerate_calls": n("clauses.enumerate"),
        "clauses.candidates": values["clauses.candidates"],
        "analysis.static_s": t("analysis.static"),
        "analysis.static_calls": n("analysis.static"),
        "analysis.static_proved": static_proved,
        "analysis.static_refuted": static_refuted,
        "sim.s": t("sim.sim"),
        "sim.calls": n("sim.sim"),
        "sim.refuted_frac": fraction(refuted, to_bpfs),
        "flat.s": t("flat.view_build", "flat.kernel"),
        "flat.view_builds": n("flat.view_build"),
        "transform.s": t("transform.transform"),
        "transform.calls": n("transform.transform"),
        "timing.s": t("timing.timing"),
        "timing.calls": n("timing.timing"),
        "timing.signals_touched": sta_touched,
        "netlist.extract_cone_s": t("netlist.extract_cone"),
        "netlist.extract_cone_calls": n("netlist.extract_cone"),
        "netlist.fanin_calls": n("netlist.fanin"),
        "netlist.copy_s": t("netlist.copy"),
        "proof.obligation_s": t("proof.obligation"),
        "proof.canon_s": t("proof.canon"),
        "proof.cone_gates": values["proof.cone_gates"],
        "proof.prove_s": t("proof.prove"),
        "proof.prefetch_s": t("proof.prefetch"),
        "proof.pool_wait_s": t("proof.pool_wait"),
        "proof.prefetched": values["proof.prefetched"],
        "proof.dispatched": dispatched,
        "proof.cache_hit_frac": fraction(hits, lookups),
        "proof.valid": valid,
        "proof.invalid": invalid,
        "proof.unknown": unknown,
        "cnf.encode_s": t("cnf.encode"),
        "cnf.clauses": values["cnf.clauses"],
        "sat.solve_s": t("sat.solve"),
        "sat.calls": n("sat.solve"),
        "sat.conflicts": values["sat.conflicts"],
        "sat.decisions": values["sat.decisions"],
        "bdd.s": t("bdd.bdd"),
        "bdd.calls": n("bdd.bdd"),
        "verify.s": t("verify.check"),
        "verify.undecided": values["verify.undecided"],
        "partition.plan_s": t("partition.plan"),
        "partition.regions_s": t("partition.regions"),
        "partition.merge_s": t("partition.merge"),
        "partition.regions": regions,
        "partition.conflicts": conflicts,
        "partition.rounds": rounds,
        "trace.coverage": fraction(root - opt_self, root),
    }
