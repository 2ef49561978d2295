"""The benchmark's four workloads.

Each workload builds its inputs in :meth:`setup`, runs one pass over
them in :meth:`run` and releases what setup started in :meth:`close`.
A pass returns one :class:`Unit` per circuit run or service job: its
time next to the work it did (commits, delay and area before and
after, proofs dispatched, a digest of the output structure), so two
runs can be checked to have done the same work.

The harness drives only the program's public API: ``repro.gdo_optimize``,
``repro.circuits.registry``, ``repro.io`` and the ``repro.service``
daemon and client.  Every output is checked by :mod:`evaluate`, which
shares no code with the program's simulators or equivalence checker.
"""

from __future__ import annotations

import os
import random
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from evaluate import outputs_match
from layers import batch_metrics
from spans import Tracer, self_times
from summary import fraction, percentile, tail_percentile

#: caps of the serial C5315 baseline (the benchmark's refute workload)
C5315_CAPS = dict(
    n_words=8, verify_words=16, max_rounds=2, max_passes_per_phase=6,
    max_trials_per_pass=128, max_proofs_per_pass=48,
)

TERMINAL = ("done", "failed", "deadlettered")

#: how often the service client polls an in-flight job's status
POLL_S = 0.02


@dataclass
class Unit:
    """One circuit run (batch) or one job (service)."""

    name: str
    seconds: float        # batch: gdo_optimize wall; service: latency
    run_seconds: float    # the optimizer's own time (service: job result)
    commits: int = 0
    delay_before: float = 0.0
    delay_after: float = 0.0
    area_before: float = 0.0
    area_after: float = 0.0
    dispatched: int = 0
    cache_hits: int = 0
    cache_lookups: int = 0
    signature: str = ""
    equivalent: Optional[bool] = None
    failed: str = ""      # why the unit failed; empty when it did not

    def row(self) -> dict:
        return dict(self.__dict__)


@dataclass
class Pass:
    wall: float
    units: List[Unit]
    layers: Dict[str, float] = field(default_factory=dict)


def _failed_unit(name: str, seconds: float, why: str) -> Unit:
    return Unit(name=name, seconds=seconds, run_seconds=seconds,
                failed=why)


class BatchWorkload:
    """``gdo_optimize`` over a fixed list of registry circuits."""

    def __init__(self, name: str, circuits: List[str], small: bool,
                 config: Dict[str, object], why: str):
        self.name = name
        self.circuits = circuits
        self.small = small
        self.config = config
        self.why = why

    def setup(self, seed: int, workdir: str):
        from repro import mcnc_like
        from repro.circuits.registry import build

        lib = mcnc_like()
        nets = []
        for circuit in self.circuits:
            net = build(circuit, small=self.small)
            lib.rebind(net)
            nets.append(net)
        return lib, nets

    def close(self, state) -> None:
        pass

    def run(self, state, seed: int, tracer: Optional[Tracer] = None
            ) -> Pass:
        from repro import GdoConfig, gdo_optimize
        from repro.service.worker import signature_digest

        lib, nets = state
        cfg = GdoConfig(**self.config)
        units: List[Unit] = []
        results = []
        wall = 0.0
        for net in nets:
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    result = gdo_optimize(net, lib, cfg)
                else:
                    tracer.trace = net.name
                    with tracer.span("opt.optimize"):
                        result = gdo_optimize(net, lib, cfg)
            except Exception as exc:  # noqa: BLE001 - counted as failed
                seconds = time.perf_counter() - t0
                wall += seconds
                units.append(_failed_unit(
                    net.name, seconds, f"{type(exc).__name__}: {exc}"))
                continue
            seconds = time.perf_counter() - t0
            wall += seconds
            results.append(result)
            s = result.stats
            ok = outputs_match(net, result.net, seed)
            units.append(Unit(
                name=net.name, seconds=seconds, run_seconds=seconds,
                commits=len(s.history),
                delay_before=s.delay_before, delay_after=s.delay_after,
                area_before=s.area_before, area_after=s.area_after,
                dispatched=s.proof.dispatched,
                cache_hits=s.proof.cache_hits,
                cache_lookups=s.proof.cache_hits + s.proof.cache_misses,
                signature=signature_digest(result.net),
                equivalent=s.equivalent,
                failed="" if ok else "output mismatch",
            ))
        layers = batch_metrics(tracer, results) if tracer else {}
        return Pass(wall=wall, units=units, layers=layers)


class ServiceWorkload:
    """A closed loop of jobs against an in-process optimization
    service: one client thread keeps ``in_flight`` jobs outstanding and
    submits the next job when one reaches a terminal state."""

    def __init__(self, name: str, circuits: List[str], jobs: int,
                 in_flight: int, workers: int, config: Dict[str, object],
                 why: str):
        self.name = name
        self.circuits = circuits
        self.jobs = jobs
        self.in_flight = in_flight
        self.workers = workers
        self.config = config
        self.why = why

    def order(self, seed: int) -> List[str]:
        """Submission order: round-robin over the circuits at seed 0,
        a seeded shuffle of the same multiset otherwise."""
        names = [self.circuits[i % len(self.circuits)]
                 for i in range(self.jobs)]
        if seed:
            random.Random(seed).shuffle(names)
        return names

    def setup(self, seed: int, workdir: str):
        from repro import mcnc_like
        from repro.circuits.registry import build
        from repro.io import write_blif
        from repro.service.client import ServiceClient
        from repro.service.server import OptimizationService

        lib = mcnc_like()
        nets, texts = {}, {}
        for circuit in self.circuits:
            net = build(circuit, small=True)
            lib.rebind(net)
            nets[circuit] = net
            texts[circuit] = write_blif(net)
        root = os.path.join(workdir, f"service-{time.monotonic_ns()}")
        service = OptimizationService(root, workers=self.workers)
        try:
            service.start()
            client = ServiceClient(port=service.address[1])
            client.ping()
        except BaseException:
            service.close()
            raise
        return lib, nets, texts, root, service, client

    def close(self, state) -> None:
        # The spool stays on disk: its job files are fsync'ed, and
        # deleting them takes 10-15 s a pass on a disk mounted with
        # online discard.
        _, _, _, _, service, _ = state
        service.close()

    def run(self, state, seed: int, tracer: Optional[Tracer] = None
            ) -> Pass:
        from repro.io import parse_blif

        lib, nets, texts, root, service, client = state
        pending = deque(self.order(seed))
        in_flight: Dict[str, tuple] = {}
        done: List[tuple] = []
        first = time.perf_counter()
        while pending or in_flight:
            while pending and len(in_flight) < self.in_flight:
                circuit = pending.popleft()
                if tracer is not None:
                    tracer.trace = f"job{len(done) + len(in_flight)}"
                t0 = time.perf_counter()
                job = client.submit(texts[circuit], fmt="blif",
                                    name=circuit, config=self.config)
                in_flight[job] = (circuit, t0)
            time.sleep(POLL_S)
            for job in list(in_flight):
                status = client.status(job)
                if status.get("state") in TERMINAL:
                    circuit, t0 = in_flight.pop(job)
                    done.append((job, circuit,
                                 time.perf_counter() - t0, status))
        wall = time.perf_counter() - first
        units = []
        for job, circuit, latency, status in done:
            result = status.get("result")
            if status["state"] != "done" or not result:
                units.append(_failed_unit(
                    circuit, latency,
                    f"job {status['state']}: {status.get('error', '')}"))
                continue
            path = os.path.join(root, "jobs", job, "result.blif")
            with open(path, "r", encoding="utf-8") as fh:
                out = parse_blif(fh.read(), lib)
            ok = outputs_match(nets[circuit], out, seed)
            units.append(Unit(
                name=circuit, seconds=latency,
                run_seconds=result["seconds"], commits=result["mods"],
                delay_before=result["delay_before"],
                delay_after=result["delay_after"],
                area_before=result["area_before"],
                area_after=result["area_after"],
                dispatched=result["proof"]["dispatched"],
                cache_hits=result["proof"]["cache_hits"],
                cache_lookups=result["proof"]["cache_hits"]
                + result["proof"]["cache_misses"],
                signature=result["signature"],
                equivalent=result["equivalent"],
                failed="" if ok else "output mismatch",
            ))
        layers = self._layers(tracer, root, units) if tracer else {}
        return Pass(wall=wall, units=units, layers=layers)

    @staticmethod
    def _layers(tracer: Tracer, root: str, units: List[Unit]
                ) -> Dict[str, float]:
        from repro.service.server import service_stats

        stats = service_stats(root)
        hits = stats["cross_client_hits"] + stats["local_hits"]
        misses = stats["store_misses"]
        records = 0
        jobs_dir = os.path.join(root, "jobs")
        for job in os.listdir(jobs_dir):
            path = os.path.join(jobs_dir, job, "journal.jsonl")
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    records += sum(1 for _ in fh)
        ok = [u for u in units if not u.failed]
        run_s = sum(u.run_seconds for u in ok)
        latency = sum(u.seconds for u in ok)
        return {
            "opt.commits": sum(u.commits for u in ok),
            "proof.dispatched": sum(u.dispatched for u in ok),
            "proof.cache_hit_frac": fraction(
                sum(u.cache_hits for u in ok),
                sum(u.cache_lookups for u in ok)),
            "service.submit_s": sum(
                t for name, t in self_times(tracer.spans).items()
                if name in ("service.submit", "service.status")),
            "service.run_s": run_s,
            "service.overhead_s": latency - run_s,
            "store.hit_frac": fraction(hits, hits + misses),
            "store.misses": misses,
            "obs.journal_records": records,
            "trace.coverage": fraction(run_s, latency),
        }


WORKLOADS = {
    w.name: w for w in (
        BatchWorkload(
            "refute_c5315", ["C5315"], small=False,
            config=dict(C5315_CAPS, proof_workers=2),
            why="Proving is ~90% of the time, the prefetch pool runs only "
                "here, and nothing commits. This is ROADMAP's baseline, and "
                "items 2a-2c must show their gain here.",
        ),
        BatchWorkload(
            "commit_suite",
            ["Z5xp1", "9sym", "C499", "C880", "C1908", "C6288"],
            small=True, config=dict(proof_workers=1),
            why="Proofs are VALID or discharged statically; enumeration, the "
                "static refuter and the trial/STA/sim engine get most calls. "
                "Changes aimed at refute_c5315 should leave it flat.",
        ),
        BatchWorkload(
            "partition_c5315", ["C5315"], small=False,
            config=dict(C5315_CAPS, proof_workers=2, partition_workers=2,
                        partition_regions=8, partition_max_rounds=2,
                        partition_min_gates=64),
            why="The only workload that runs repro.partition. Since its "
                "work matches refute_c5315, the pair gives ROADMAP item 5 "
                "its keep-or-delete numbers directly.",
        ),
        ServiceWorkload(
            "service_mix",
            ["Z5xp1", "9sym", "C432", "C499", "C880", "C1908", "alu4"],
            jobs=40, in_flight=2, workers=2,
            config=dict(proof_workers=1, n_words=8, max_rounds=2),
            why="It exercises the spool, the lease, forked workers, the "
                "per-job journal and the shared verdict store (writes and "
                "reads). No batch workload touches these layers.",
        ),
    )
}


def latency_tail(units: List[Unit]) -> Optional[float]:
    """The 75th-percentile latency when it has >= 10 samples beyond
    it, else ``None``."""
    samples = [u.seconds for u in units if not u.failed]
    if tail_percentile(len(samples)) is None:
        return None
    return percentile(samples, 75)
