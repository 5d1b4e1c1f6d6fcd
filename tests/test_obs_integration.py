"""End-to-end observability tests: traced runs, policies and the CLI.

Covers the acceptance criteria of the observability redesign:

* a traced UDC-vs-LDC pair emits ``link``/``merge`` events only under LDC;
* summing a traced benchmark's per-round ``compaction_round`` bytes
  reproduces the device's compaction read/write totals within 1%.
"""

from __future__ import annotations

import json

import pytest

from repro import DB, RingBufferSink, Tracer
from repro.cli import main as cli_main
from repro.lsm.config import LSMConfig
from repro.obs import EV_COMPACTION_ROUND, EV_LINK, EV_MERGE, summarize_events

from tests.conftest import key_of


def traced_run(policy: object, config: LSMConfig, ops: int = 800) -> tuple:
    ring = RingBufferSink()
    db = DB(config=config, policy=policy, tracer=Tracer([ring]))
    for index in range(ops):
        db.put(key_of(index % (ops // 2)), b"v" * 64)
    return db, ring


class TestPolicyEventShapes:
    def test_link_merge_events_only_under_ldc(self, tiny_config: LSMConfig) -> None:
        udc_db, udc_ring = traced_run("udc", tiny_config)
        ldc_db, ldc_ring = traced_run("ldc", tiny_config)

        udc_kinds = summarize_events(udc_ring.events)
        ldc_kinds = summarize_events(ldc_ring.events)

        assert udc_kinds.get(EV_LINK, 0) == 0
        assert udc_kinds.get(EV_MERGE, 0) == 0
        assert ldc_kinds.get(EV_LINK, 0) > 0
        assert ldc_kinds.get(EV_MERGE, 0) > 0
        # both policies flushed and compacted
        for kinds in (udc_kinds, ldc_kinds):
            assert kinds.get("flush", 0) > 0
            assert kinds.get(EV_COMPACTION_ROUND, 0) > 0
        udc_db.close()
        ldc_db.close()

    def test_link_events_carry_plan_fields(self, tiny_config: LSMConfig) -> None:
        db, ring = traced_run("ldc", tiny_config)
        links = ring.events_of(EV_LINK)
        assert links
        for event in links:
            assert event["slices"] >= 1
            assert event["to_level"] == event["from_level"] + 1
            assert event["frozen_bytes"] >= 0
        db.close()


class TestByteAccounting:
    @pytest.mark.parametrize("policy_name", ["udc", "ldc"])
    def test_round_events_sum_to_device_totals(
        self, tiny_config: LSMConfig, policy_name: str
    ) -> None:
        """Acceptance criterion: per-round compaction event bytes sum to
        within 1% of the device's compaction read+write totals."""
        db, ring = traced_run(policy_name, tiny_config, ops=1500)

        rounds = ring.events_of(EV_COMPACTION_ROUND)
        assert rounds, "workload too small to trigger compaction"
        event_total = sum(e["bytes_read"] + e["bytes_written"] for e in rounds)
        device_total = (
            db.metrics().compaction_bytes_read
            + db.metrics().compaction_bytes_written
        )
        assert device_total > 0
        assert event_total == pytest.approx(device_total, rel=0.01)
        db.close()


class TestTraceCLI:
    def test_trace_subcommand_writes_jsonl(self, tmp_path, capsys) -> None:
        out = str(tmp_path / "trace.jsonl")
        code = cli_main(
            ["trace", "WO", "--ops", "1500", "--keys", "1000", "--trace-out", out]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "event counts" in printed
        assert "write amplification" in printed
        with open(out, encoding="utf-8") as handle:
            events = [json.loads(line) for line in handle]
        assert events
        kinds = {event["kind"] for event in events}
        assert "flush" in kinds
        assert all("t_us" in event for event in events)

    def test_trace_rejects_unknown_workload(self, capsys) -> None:
        assert cli_main(["trace", "NOPE"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_trace_rejects_unknown_policy(self, capsys) -> None:
        assert cli_main(["trace", "WO", "--policy", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "unknown compaction policy" in err
        assert "known policies" in err

    def test_trace_requires_workload(self, capsys) -> None:
        assert cli_main(["trace"]) == 2
        assert "requires a workload" in capsys.readouterr().err

    def test_list_includes_trace(self, capsys) -> None:
        assert cli_main(["list"]) == 0
        assert "trace" in capsys.readouterr().out.split()
