"""Engine activity names (the paper's Table I) and their counter keys.

An activity charge is an in-place bump of ``engine.activity.<activity>``
in the registry's counter dict — virtual time spent in compaction, flush,
WAL appends, memtable work and read service; ``db.metrics()
.activity_share()`` is the Table I breakdown ("DoCompactionWork 61.4%,
file system 20.9%, DoWrite 8.04%").  docs/METRICS.md lists every key.
"""

ACT_COMPACTION = "compaction"  # DoCompactionWork
ACT_FLUSH = "flush"  # memtable dump to L0
ACT_WAL = "wal"  # log append (file system share)
ACT_WRITE = "write"  # DoWrite: memtable insert + stalls
ACT_READ = "read"  # point-lookup service
ACT_SCAN = "scan"  # range-query service

#: Prebuilt dotted keys: several charges per operation, no f-string each.
ACT_COMPACTION_KEY = f"engine.activity.{ACT_COMPACTION}"
ACT_FLUSH_KEY = f"engine.activity.{ACT_FLUSH}"
ACT_WAL_KEY = f"engine.activity.{ACT_WAL}"
ACT_WRITE_KEY = f"engine.activity.{ACT_WRITE}"
ACT_READ_KEY = f"engine.activity.{ACT_READ}"
ACT_SCAN_KEY = f"engine.activity.{ACT_SCAN}"
