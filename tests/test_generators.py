"""Seeded generators: output locks.

``random_system`` builds the set-up systems of the joining workloads and the
self-joining draws of the removal search, so its output for a seed must not
move.  Each digest below is the sha256 over seeds 0..199 of the canonical
JSON of the system, followed by ``repr`` of the generator's next draw (which
pins how many draws the construction consumed).  When the output is meant to
change, record the new digests and say why in CHANGES.md.
"""
from __future__ import annotations

import hashlib
import random

import pytest

from ergolab.generators import random_system
from ergolab.serialize import canonical_dumps, system_to_json

RANDOM_SYSTEM_DIGESTS = {
    1: "c80d843702cfa4e37525da9c2947328174d81ab12eaa11223670d3f32041732d",
    2: "0cd923e6545731f18ab8781bb32364ec80e52c385ab157fa747e49746b229d79",
    3: "692d1984faf63b213bff1b8353dc1b74b0269be2966f4fe9d31b6defccf65603",
    4: "81ad95413ebf4ba2eb6ef5e425956eb28d15e0cd32b727481ed6fed6cb84256c",
}


def random_system_digest(dim: int) -> str:
    h = hashlib.sha256()
    for seed in range(200):
        rng = random.Random(seed)
        sys_ = random_system(rng, max_points=12, dim=dim)
        h.update(canonical_dumps(system_to_json(sys_)).encode() + b"\n")
        h.update(repr(rng.random()).encode() + b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("dim", sorted(RANDOM_SYSTEM_DIGESTS))
def test_random_system_output_is_locked(dim):
    assert random_system_digest(dim) == RANDOM_SYSTEM_DIGESTS[dim]
