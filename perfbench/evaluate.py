"""Independent output check: evaluate two netlists on the same seeded
random input vectors and compare their outputs.

Deliberately shares no code with the program's simulators
(``repro.sim``, ``repro.flat``) or its equivalence checker
(``repro.verify``): each gate is evaluated from its function's truth
table, on Python integers holding one bit per vector.
"""

from __future__ import annotations

import random
from typing import Dict, List


def _truth_rows(func, nin: int, cache: Dict) -> List[int]:
    """Row indices (input k = bit k) on which the gate outputs 1."""
    key = (func.name, nin)
    rows = cache.get(key)
    if rows is None:
        table = func.truth_table(nin)
        rows = [row for row, bit in enumerate(table) if bit]
        cache[key] = rows
    return rows


def evaluate(net, vectors: Dict[str, int], width: int) -> List[int]:
    """Output words of ``net`` (one per PO, in PO order) for the input
    words ``vectors`` (one ``width``-bit integer per PI)."""
    mask = (1 << width) - 1
    value: Dict[str, int] = dict(vectors)
    cache: Dict = {}
    # Depth-first from each PO, so the check relies on neither the
    # netlist's own topological order nor its caches.
    open_: set = set()
    for po in net.pos:
        stack = [(po, False)]
        while stack:
            sig, expanded = stack.pop()
            if sig in value:
                continue
            gate = net.gates.get(sig)
            if gate is None:
                raise ValueError(f"{net.name}: undriven signal {sig!r}")
            if not expanded:
                if sig in open_:
                    raise ValueError(f"{net.name}: combinational cycle "
                                     f"through {sig!r}")
                open_.add(sig)
                stack.append((sig, True))
                stack.extend((s, False) for s in gate.inputs
                             if s not in value)
                continue
            ins = [value[s] for s in gate.inputs]
            word = 0
            for row in _truth_rows(gate.func, len(ins), cache):
                term = mask
                for k, x in enumerate(ins):
                    term &= x if (row >> k) & 1 else ~x
                word |= term
            value[sig] = word & mask
    return [value[po] for po in net.pos]


def outputs_match(before, after, seed: int, width: int = 256) -> bool:
    """True when ``after`` computes the same PO words as ``before`` on
    ``width`` random vectors drawn from ``seed``."""
    if sorted(before.pis) != sorted(after.pis) or \
            len(before.pos) != len(after.pos):
        return False
    rnd = random.Random(seed)
    vectors = {pi: rnd.getrandbits(width) for pi in sorted(before.pis)}
    return evaluate(before, vectors, width) == \
        evaluate(after, vectors, width)
