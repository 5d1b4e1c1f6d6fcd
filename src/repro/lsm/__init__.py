"""The LSM-tree engine substrate (a LevelDB-analogue in Python).

Exposes the database facade, configuration, and the building blocks the
paper's LDC policy plugs into.
"""

from .bloom import BloomFilter
from .cache import BlockCache
from .config import KIB, MIB, LSMConfig
from .db import DB, WriteBatch
from .keys import in_range, key_successor
from .memtable import MemTable
from .record import (
    KIND_DELETE,
    KIND_PUT,
    KVRecord,
    delete_record,
    put_record,
)
from .sstable import SSTable
from .version import VersionSet
from .wal import WriteAheadLog
from .compaction import (
    CompactionPolicy,
    PolicySpec,
    available_policies,
    get_spec,
    make_policy,
)

__all__ = [
    "DB",
    "WriteBatch",
    "LSMConfig",
    "KIB",
    "MIB",
    "MemTable",
    "SSTable",
    "BloomFilter",
    "BlockCache",
    "VersionSet",
    "WriteAheadLog",
    "KVRecord",
    "KIND_PUT",
    "KIND_DELETE",
    "put_record",
    "delete_record",
    "key_successor",
    "in_range",
    "CompactionPolicy",
    "PolicySpec",
    "available_policies",
    "get_spec",
    "make_policy",
]
