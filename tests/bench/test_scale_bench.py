"""Scale-bench: tier generation, correctness gates, and the artifact.

The load-bearing property: **the gate fires before anything is
written** — a build whose fingerprint diverges from the serial
reference must leave ``BENCH_scale.json`` untouched, even for tiers
that had already passed their own gates.
"""

from __future__ import annotations

import json

import pytest

import repro.bench.scale_bench as scale_bench
from repro.api import BuildConfig
from repro.bench.scale_bench import (
    DEFAULT_TIERS,
    FINGERPRINT_MAX_N,
    run_scale_bench,
    scale_bench_entry,
)
from repro.exceptions import ReproError


def _tier(name):
    return next(tier for tier in DEFAULT_TIERS if tier.name == name)


class TestTiers:
    def test_default_tiers_span_the_scales(self):
        targets = sorted(tier.target_n for tier in DEFAULT_TIERS)
        assert targets[0] <= 10**3
        assert targets[-1] >= 10**6
        assert {tier.family for tier in DEFAULT_TIERS} == {"cp", "rmat"}

    def test_generation_is_deterministic(self):
        tier = _tier("cp-1k")
        a, b = tier.generate(), tier.generate()
        assert a.n == b.n and a.m == b.m
        assert list(a.neighbors(0)) == list(b.neighbors(0))

    def test_unknown_tier_name_rejected(self):
        with pytest.raises(ReproError, match="unknown scale tiers"):
            run_scale_bench(["cp-1k", "nope"], output=None)

    def test_empty_selection_rejected(self):
        with pytest.raises(ReproError, match="no tiers"):
            run_scale_bench(max_n=1, output=None)


class TestSmallTierSmoke:
    def test_smallest_tier_records_a_verified_entry(self, tmp_path):
        out = tmp_path / "BENCH_scale.json"
        entries, text = run_scale_bench(["cp-1k"], output=out)
        assert len(entries) == 1
        entry = entries[0]
        assert entry["n"] <= FINGERPRINT_MAX_N
        assert entry["verify"]["mode"] == "fingerprint"
        assert entry["verify"]["identical"] is True
        assert entry["config"] == scale_bench.DEFAULT_CONFIG.to_dict()
        assert entry["build_s"] >= 0 and entry["peak_rss_mb"] > 0
        document = json.loads(out.read_text())
        assert document["schema"] == 2
        assert document["entries"][0]["tier"] == "cp-1k"
        assert "recorded_at" in document["entries"][0]
        assert "cp-1k" in text
        assert entry["workers"] == 1
        assert entry["speedup_vs_serial"] is None
        assert "round_split" in entry

    def test_custom_config_is_embedded(self, tmp_path):
        config = BuildConfig(bandwidth=8, backend="flat", core_backend="psl")
        entries, _ = run_scale_bench(["cp-1k"], config=config, output=None)
        assert entries[0]["config"]["bandwidth"] == 8

    def test_appends_to_existing_history(self, tmp_path):
        out = tmp_path / "BENCH_scale.json"
        run_scale_bench(["cp-1k"], output=out)
        run_scale_bench(["cp-1k"], output=out)
        assert len(json.loads(out.read_text())["entries"]) == 2


class TestSchema2:
    def test_workers_sweep_records_speedup(self, tmp_path):
        out = tmp_path / "BENCH_scale.json"
        entries, text = run_scale_bench(["cp-1k"], workers=[1, 2], output=out)
        assert [e["workers"] for e in entries] == [1, 2]
        assert entries[0]["speedup_vs_serial"] is None
        assert isinstance(entries[1]["speedup_vs_serial"], float)
        assert entries[1]["config"]["workers"] == 2
        assert "speedup" in text

    def test_schema1_history_upgrades_on_append(self, tmp_path):
        out = tmp_path / "BENCH_scale.json"
        legacy_entry = {
            "tier": "cp-1k",
            "config": {"workers": None},
            "verify": {"mode": "fingerprint"},
        }
        out.write_text(
            json.dumps({"schema": 1, "entries": [legacy_entry]}), encoding="utf-8"
        )
        run_scale_bench(["cp-1k"], output=out)
        document = json.loads(out.read_text())
        assert document["schema"] == 2
        upgraded = document["entries"][0]
        assert upgraded["workers"] == 1
        assert upgraded["round_split"] is None
        assert upgraded["speedup_vs_serial"] is None
        assert len(document["entries"]) == 2

    def test_peak_rss_uses_combined_accounting(self, monkeypatch):
        import repro.bench.memory as memory

        monkeypatch.setattr(memory, "peak_rss_mb", lambda: 100.0)
        memory.reset_child_peak_rss()
        memory.record_child_peak_rss(2048)  # 2 MB child
        assert scale_bench._peak_rss_mb() == pytest.approx(102.0)
        memory.reset_child_peak_rss()


class TestGateFiresBeforeWriting:
    def test_fingerprint_mismatch_writes_nothing(self, tmp_path, monkeypatch):
        out = tmp_path / "BENCH_scale.json"
        real = scale_bench.index_fingerprint
        # Corrupt the reference side only: the gate must trip.
        calls = []

        def skewed(index):
            calls.append(index)
            print_ = real(index)
            return print_ if len(calls) % 2 else print_ + b"x"

        monkeypatch.setattr(scale_bench, "index_fingerprint", skewed)
        with pytest.raises(ReproError, match="fingerprint gate"):
            run_scale_bench(["cp-1k"], output=out)
        assert not out.exists()

    def test_late_failure_discards_passed_tiers(self, tmp_path, monkeypatch):
        out = tmp_path / "BENCH_scale.json"
        seen = []

        def failing_verify(graph, index, config):
            seen.append(graph.n)
            if len(seen) > 1:
                raise ReproError("scale-bench fingerprint gate: forced")
            return {"mode": "fingerprint", "reference_s": 0.0, "identical": True}

        monkeypatch.setattr(scale_bench, "_verify_fingerprint", failing_verify)
        with pytest.raises(ReproError):
            run_scale_bench(["cp-1k", "rmat-10"], output=out)
        assert len(seen) == 2  # first tier passed, second tripped
        assert not out.exists()

    def test_bfs_gate_trips_on_a_wrong_distance(self):
        tier = _tier("cp-1k")
        graph = tier.generate()
        from repro.core.ct_index import CTIndex

        index = CTIndex.build(graph, config=scale_bench.DEFAULT_CONFIG)

        class Lying:
            n = graph.n

            def distance(self, s, t):
                return index.distance(s, t) + (1 if s != t else 0)

        with pytest.raises(ReproError, match="BFS gate"):
            scale_bench._verify_bfs(graph, Lying(), sources=1, targets=5)


@pytest.mark.slow
class TestLargeTiers:
    def test_hundred_thousand_node_tier_passes_its_gate(self, tmp_path):
        out = tmp_path / "BENCH_scale.json"
        entries, _ = run_scale_bench(["cp-100k"], output=out)
        assert entries[0]["n"] >= 90_000
        assert entries[0]["verify"]["mode"] == "bfs"
        assert entries[0]["verify"]["identical"] is True
        assert out.exists()
