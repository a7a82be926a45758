"""Pinned digests of every record kind a sweep or shard task writes.

Figures, calibration, the result cache and the multinode assembly all
read these records, so their content must stay byte-identical however
the tasks build them.  Each digest is a SHA-256 of
``json.dumps(record, sort_keys=True)`` without the host-clock fields
``host_wall_s`` and ``events_per_s``.

The tasks are built from ``spmm_task``/``shard_tasks`` keyword
overrides only, so the pins do not depend on how a task's config is
rewritten.  Shard 23 of the 32-way split of the 64-vertex ``arxiv``
window owns 2 rows and no edges: the record of a shard with nothing to
simulate.
"""

import hashlib
import json

import pytest

from repro.piuma.degradation import DEGRADATION_PRESETS
from repro.runtime.errors import TaskError
from repro.runtime.runner import spmm_task
from repro.runtime.shard import shard_tasks

HOST_FIELDS = ("host_wall_s", "events_per_s")
MODERATE = DEGRADATION_PRESETS["moderate"]
ERROR = TaskError("pinned failure", label="pinned", attempts=2,
                  cause="injected")


def point(**overrides):
    return spmm_task("arxiv", 32, max_vertices=1024, seed=3, **overrides)


def edge_shard(**overrides):
    return shard_tasks("arxiv", 32, 4, max_vertices=1024, seed=3,
                       **overrides)[1]


def empty_shard(**overrides):
    return shard_tasks("arxiv", 64, 32, max_vertices=64, **overrides)[23]


RECORDS = {
    "spmm-run": lambda: point().run(),
    "spmm-fallback": lambda: point().fallback_record(ERROR),
    "spmm-moderate-run": lambda: point(degradation=MODERATE).run(),
    "spmm-moderate-fallback":
        lambda: point(degradation=MODERATE).fallback_record(ERROR),
    "spmm-reference-run": lambda: point(engine="reference").run(),
    "shard-run": lambda: edge_shard().run(),
    "shard-fallback": lambda: edge_shard().fallback_record(ERROR),
    "shard-shard-fallback":
        lambda: edge_shard().shard_fallback_record(ERROR),
    "shard-moderate-run": lambda: edge_shard(degradation=MODERATE).run(),
    "shard-moderate-fallback":
        lambda: edge_shard(degradation=MODERATE).fallback_record(ERROR),
    "empty-shard-run": lambda: empty_shard().run(),
    "empty-shard-fallback": lambda: empty_shard().fallback_record(ERROR),
    "empty-shard-shard-fallback":
        lambda: empty_shard().shard_fallback_record(ERROR),
    "empty-shard-moderate-run":
        lambda: empty_shard(degradation=MODERATE).run(),
}

RECORD_DIGESTS = {
    "spmm-run":
        "82fb2feca8ce418ce579c5f6d73b446d92f04f90be115aa41dd59cabdded4f2c",
    "spmm-fallback":
        "c2ffd59e05c59d8b673d0d614e01526065a2d9346ca5cd2eb3cffd664a1794ee",
    "spmm-moderate-run":
        "0d17bc6f00a2176462bdf6ace086f12a37df0be95a350e69aab43dd0ef745910",
    "spmm-moderate-fallback":
        "f5fd2a9323a9f36c5b8ec72658fbb5328f77bdd0ff4e3b9c9034dc5d595f792e",
    "spmm-reference-run":
        "7a56e7db20b9dfe15c0186607b0555e52155abe438de5c7f71f6cf969cd15e05",
    "shard-run":
        "bcd743dec3770e3d9ca57eefc13004553ecfee673e95a01b9dc891b40e332f25",
    "shard-fallback":
        "26a828b6e79214ec0e9b5f818082d1a5fb40125fb20a76b03c41c104758faf91",
    "shard-shard-fallback":
        "f002d1220c447d0e025c6483563fdc0aede8cd530a736039ca30626b7272871f",
    "shard-moderate-run":
        "055999c00479d85f79b32655bb23d0ea609247de3ee7ce76778afb353cdcae73",
    "shard-moderate-fallback":
        "79aaa112851f6be8f6c3e4d183053ac098d0dce1141388a3c4db96fc7b5626aa",
    "empty-shard-run":
        "06d9b253bc472f09666e0f51e2402597bb3d5aca9f4d503a65d0a2fdc0ab71d2",
    "empty-shard-fallback":
        "1a7840cdcd833929345bc2e99071ba35f21d0416faccf0fdbd43e08e0a8b413e",
    "empty-shard-shard-fallback":
        "19e53ebafd6e5ca9b4adb4ab64a3efe5247ea61caf119d71cd9ff919734dff6a",
    "empty-shard-moderate-run":
        "49a1839446ecfebf6e4f324169c569662ffa1042b2fcb545eb6e2ee287974b6a",
}


def record_digest(record):
    kept = {k: v for k, v in record.items() if k not in HOST_FIELDS}
    text = json.dumps(kept, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("kind", sorted(RECORDS))
def test_record_is_byte_identical(kind):
    assert record_digest(RECORDS[kind]()) == RECORD_DIGESTS[kind]
