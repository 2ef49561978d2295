"""Redundancy addition and removal (RAR) — the single-C2-clause
optimization strategy of Sec. 3.

"Adding a new gate perturbs the network and can make other signals
stuck-at redundant such that after removal of these redundancies an
optimization gain is achieved.  This concept is exploited in
[Kunz/Menon 94] and [Cheng/Entrena 93]."

The loop: (1) sweep existing redundancies; (2) enumerate permissible
bridges (Fig. 2 insertions whose single C2-clause survives BPFS and is
proven by the miter); (3) apply a bridge on a trial copy, run
redundancy removal, and keep the result when the netlist got smaller.
GDO uses clause *combinations* directly; RAR is the indirect,
insertion-first strategy — implemented here both for completeness and
as the baseline the paper positions itself against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

from ..atpg.redundancy import remove_all_redundancies
from ..library.cells import TechLibrary
from ..netlist.edit import dirty_between
from ..netlist.netlist import Branch, Netlist
from ..sim.bitsim import BitSimulator
from ..sim.observability import ObservabilityEngine
from ..sim.vectors import random_words
from ..transform.insertion import (
    Insertion, apply_insertion, candidate_insertions,
)
from ..transform.substitution import TransformError
from ..netlist.gatefunc import AND, OR
from ..sat.miter import miter_equivalent
from ..sat.solver import SolverBudgetExceeded


@dataclass
class RarStats:
    """Aggregate statistics of one RAR run."""

    literals_before: int = 0
    literals_after: int = 0
    gates_before: int = 0
    gates_after: int = 0
    insertions: int = 0
    removals: int = 0
    iterations: int = 0
    cpu_seconds: float = 0.0
    equivalent: Optional[bool] = None
    log: List[str] = field(default_factory=list)

    @property
    def literal_reduction(self) -> float:
        if self.literals_before <= 0:
            return 0.0
        return 1.0 - self.literals_after / self.literals_before


def _prove_insertion(net: Netlist, insertion: Insertion,
                     max_conflicts: Optional[int]) -> bool:
    trial = net.copy()
    try:
        apply_insertion(trial, insertion)
    except TransformError:
        return False
    try:
        return miter_equivalent(net, trial, max_conflicts=max_conflicts)
    except SolverBudgetExceeded:
        return False


def rar_optimize(
    net: Netlist,
    library: Optional[TechLibrary] = None,
    n_words: int = 8,
    seed: int = 0,
    max_iterations: int = 10,
    max_targets: int = 24,
    max_pool: int = 24,
    max_trials_per_iteration: int = 12,
    max_conflicts: Optional[int] = 50_000,
    verify_final: bool = True,
) -> RarStats:
    """Run RAR on a netlist; the input is not modified.

    The bit-parallel simulation state and the observability cache are
    carried across iterations by dirty-cone refresh; an adoption that
    changes the PI set rebuilds them on the same vectors.

    Returns the statistics; the optimized netlist is ``stats.net``.
    """
    work = net.copy(name=net.name)
    stats = RarStats(
        literals_before=work.num_literals, gates_before=work.num_gates,
    )
    start = time.perf_counter()
    # Phase 0: clean existing redundancies.
    stats.removals += remove_all_redundancies(
        work, n_words=n_words, seed=seed, max_conflicts=max_conflicts,
    )
    # One vector batch for the whole run: iteration k simulates the
    # current netlist on the same PI words, which is what makes state
    # carry-over across adoptions possible.
    sim = BitSimulator(work)
    state = sim.simulate(random_words(work.pis, n_words, seed))
    engine = ObservabilityEngine(sim, state)
    for iteration in range(max_iterations):
        stats.iterations = iteration + 1
        delta = _rar_iteration(work, engine, stats, n_words, seed,
                               max_targets, max_pool,
                               max_trials_per_iteration, max_conflicts)
        if delta is None:
            break
        dirty, removed = delta
        if set(work.pis) == set(engine.sim.net.pis):
            sim, state, changed = BitSimulator.incremental(
                work, engine.sim, engine.state, dirty)
            engine = engine.refreshed(sim, state, dirty | changed | removed)
        else:
            sim = BitSimulator(work)
            state = sim.simulate(random_words(work.pis, n_words, seed))
            engine = ObservabilityEngine(sim, state)
    stats.literals_after = work.num_literals
    stats.gates_after = work.num_gates
    stats.cpu_seconds = time.perf_counter() - start
    if verify_final:
        from ..verify.equiv import check_equivalence

        stats.equivalent = check_equivalence(net, work)
    stats.net = work  # type: ignore[attr-defined]
    return stats


def _rar_iteration(work, engine, stats, n_words, seed, max_targets,
                   max_pool, max_trials, max_conflicts):
    """One insertion attempt over ``engine``'s view of ``work``.

    Returns ``(dirty, removed)`` signal sets of the adopted edit, or
    ``None`` when no profitable bridge was found.
    """
    # Prefer targets deep in the netlist (richer observability DC sets).
    order = work.topo_order()
    targets: List[Branch] = []
    for out in reversed(order):
        gate = work.gates[out]
        targets.extend(Branch(out, pin) for pin in range(gate.nin))
        if len(targets) >= max_targets:
            break
    pool = [s for s in order[-max_pool:]]
    trials = 0
    for target in targets:
        if trials >= max_trials:
            break
        for func in (AND, OR):
            found = candidate_insertions(engine, target, pool, func)
            for insertion in found:
                if insertion.side == work.gates[target.gate].inputs[target.pin]:
                    continue  # bridging a wire with itself is a no-op
                trials += 1
                if trials > max_trials:
                    break
                if not _prove_insertion(work, insertion, max_conflicts):
                    continue
                trial = work.copy()
                try:
                    apply_insertion(trial, insertion)
                except TransformError:
                    continue
                removed = remove_all_redundancies(
                    trial, n_words=n_words, seed=seed,
                    max_conflicts=max_conflicts, max_rounds=6,
                )
                if trial.num_literals < work.num_literals:
                    stats.insertions += 1
                    stats.removals += removed
                    stats.log.append(
                        f"bridge {func.name}({insertion.side}) on "
                        f"{target.gate}/{target.pin}: literals "
                        f"{work.num_literals} -> {trial.num_literals}"
                    )
                    delta = dirty_between(work, trial)
                    _adopt(work, trial)
                    return delta
    return None


def _adopt(work: Netlist, trial: Netlist) -> None:
    work.gates = trial.gates
    work.pos = trial.pos
    work.pis = trial.pis
    work._pi_set = trial._pi_set
    work._name_counter = trial._name_counter
    work.invalidate()
