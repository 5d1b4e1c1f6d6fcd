"""Shared fixtures for the test suite.

The ``tiny_config`` fixture shrinks every size knob so that flushes and
compactions happen within a few hundred operations, letting unit tests
exercise deep-tree behaviour quickly.
"""

from __future__ import annotations

import random

import pytest

from repro import DB
from repro.lsm.builder import build_balanced_columns
from repro.lsm.config import LSMConfig
from repro.workload.ycsb import OP_DELETE, OP_PUT, Operation


@pytest.fixture
def tiny_config() -> LSMConfig:
    """A configuration that compacts early and often."""
    return LSMConfig(
        memtable_bytes=2048,
        sstable_target_bytes=2048,
        block_bytes=512,
        fan_out=4,
        level1_capacity_bytes=4096,
        max_levels=6,
        bloom_bits_per_key=10,
    )


@pytest.fixture
def udc_db(tiny_config: LSMConfig) -> DB:
    return DB(config=tiny_config, policy="udc")


@pytest.fixture
def ldc_db(tiny_config: LSMConfig) -> DB:
    return DB(config=tiny_config, policy="ldc")


@pytest.fixture
def tiered_db(tiny_config: LSMConfig) -> DB:
    return DB(config=tiny_config, policy="tiered")


@pytest.fixture(params=["udc", "ldc", "tiered"])
def any_db(request: pytest.FixtureRequest, tiny_config: LSMConfig) -> DB:
    """Parametrised fixture running a test against every policy."""
    return DB(config=tiny_config, policy=request.param)


def key_of(index: int, width: int = 12) -> bytes:
    """Fixed-width numeric key used throughout the tests."""
    return str(index).zfill(width).encode()


def with_deletes(operations, every: int) -> list:
    """``operations`` with every ``every``-th put made a delete of its key.

    The generator emits no deletes; tests that need tombstones in a
    generated stream add them here.
    """
    stream, puts = [], 0
    for op in operations:
        if op.kind == OP_PUT:
            puts += 1
            if not puts % every:
                op = Operation(OP_DELETE, op.key)
        stream.append(op)
    return stream


@pytest.fixture
def seeded_rng() -> random.Random:
    return random.Random(0xC0FFEE)


def build_balanced_from_records(records, config: LSMConfig, next_file_id):
    """``build_balanced_columns`` driven from a plain sorted record list.

    The records -> columns step compaction gets from ``merge_windows``:
    parallel key / record / size columns.
    """
    return build_balanced_columns(
        [record.key for record in records],
        list(records),
        [record.encoded_size for record in records],
        config,
        next_file_id,
    )
