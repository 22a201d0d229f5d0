"""Seeded generators: output locks.

``random_system`` builds the set-up systems of the joining workloads and the
self-joining draws of the removal search, so its output for a seed must not
move.  Each digest below is the sha256 over seeds 0..199 of the canonical
JSON of the system, followed by ``repr`` of the generator's next draw (which
pins how many draws the construction consumed).  ``RANDOM_SYSTEM_DIGESTS``
locks ``max_points=12`` per dimension; ``DRAW_SIZED_DIGESTS`` locks the
removal draws' sizes, ``max_points`` 1-4 at dimensions 2-4, keyed
``(max_points, dim)``.  When the output is meant to change, record the new
digests and say why in CHANGES.md.
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

DRAW_SIZED_DIGESTS = {
    (1, 2): "760a5ac59d1400dfff2c22eb63db411c3a388cf8477d7399ad76f020a892da61",
    (1, 3): "a9ba903fc91ee71c63eb243a16507d8390235a4c16a8c05adf98beb43130f2e9",
    (1, 4): "1ebbdb5067fc3e5e36ca79a68d8f38421621a2ce84050ce57eeefff509370def",
    (2, 2): "e0b0edd1292fca08fe9892151ec6fdc79dd57b4435d720cf7e094e29cb7bc1a1",
    (2, 3): "d7992d7905ef0bd90275eac5b911e7382e1e6136187606700b11ee7256f43724",
    (2, 4): "fcea1a2b996d200008739e5c68ac72dbd81e22eb0db89a59c991fba4cf32a508",
    (3, 2): "bf2e1f81884a28ff6279280d4c9e756315ce1d9e94708dcfd2a480ca44c9c477",
    (3, 3): "b173a02606168de41ce02adbbfabe3499b93ed817991173533aed5a23bf86d37",
    (3, 4): "0dade519449a53ab551e2ef9ddd84c1270a664e929c1990b2a125de8b04fc44b",
    (4, 2): "f565afdd761e9cdced806409d03f9a10723feeebc03a6b8b513c16960453c9dd",
    (4, 3): "e3725c7ada080d6bdcadb2f74cd301a34d4fe990402a81a2a9950d68740cb181",
    (4, 4): "627c01739cf93fbef4e0cc3871a392b57e56da34ecebab2f82d4af6a08c7b9c1",
}


def random_system_digest(dim: int, max_points: int = 12) -> str:
    h = hashlib.sha256()
    for seed in range(200):
        rng = random.Random(seed)
        sys_ = random_system(rng, max_points=max_points, dim=dim)
        h.update(canonical_dumps(system_to_json(sys_)).encode() + b"\n")
        h.update(repr(rng.random()).encode() + b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("dim", sorted(RANDOM_SYSTEM_DIGESTS))
def test_random_system_output_is_locked(dim):
    assert random_system_digest(dim) == RANDOM_SYSTEM_DIGESTS[dim]


@pytest.mark.parametrize("max_points, dim", sorted(DRAW_SIZED_DIGESTS))
def test_draw_sized_random_systems_are_locked(max_points, dim):
    assert random_system_digest(dim, max_points) == DRAW_SIZED_DIGESTS[max_points, dim]
