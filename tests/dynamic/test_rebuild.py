"""Rebuild-verify-swap cycle of :class:`~repro.dynamic.BackgroundReindexer`.

The differential suite proves swapped overlays keep answering ground
truth; this file pins the *gatekeeping*: a rebuild that fails
fingerprint or answer verification must abort without touching the live
overlay, and the background thread must drain patches on demand and at
the auto threshold.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.ct_index import CTIndex
from repro.core.serialization import index_fingerprint
from repro.dynamic import BackgroundReindexer, DeltaOverlayIndex
from repro.exceptions import ConfigurationError, DynamicUpdateError
from repro.graphs.generators.random_graphs import gnp_graph


def make_overlay(seed: int = 5, n: int = 40, bandwidth: int = 3) -> DeltaOverlayIndex:
    graph = gnp_graph(n, 0.12, seed=seed)
    return DeltaOverlayIndex(CTIndex.build(graph, bandwidth))


def churn(overlay: DeltaOverlayIndex, count: int = 8) -> None:
    ops = []
    u = 0
    while len(ops) < count:
        v = (u * 7 + 3) % overlay.n
        if u != v and not overlay.materialize_current().has_edge(u, v):
            ops.append(("add", u, v, 1))
        u += 1
    overlay.apply(ops)


class TestSynchronousCycle:
    def test_empty_patch_is_skipped(self):
        overlay = make_overlay()
        reindexer = BackgroundReindexer(overlay)
        result = reindexer.rebuild_once()
        assert result.swapped is False
        assert result.reason == "empty_patch"
        assert reindexer.status()["rebuilds_skipped"] == 1

    def test_force_rebuilds_an_empty_patch(self):
        overlay = make_overlay()
        before = index_fingerprint(overlay.base)
        result = BackgroundReindexer(overlay).rebuild_once(force=True)
        assert result.swapped is True
        assert result.replayed_ops == 0
        assert result.verified_pairs == 48
        assert index_fingerprint(overlay.base) == before

    def test_rebuild_keeps_the_base_kernel_and_cache_size(self):
        graph = gnp_graph(40, 0.12, seed=5)
        base = CTIndex.build(
            graph, 3, backend="flat", kernel="python", extension_cache_size=0
        )
        overlay = DeltaOverlayIndex(base)
        assert BackgroundReindexer(overlay).rebuild_once(force=True).swapped
        assert overlay.base is not base
        assert overlay.base.storage_backend == "flat"
        assert overlay.base.extension_cache_size == 0
        assert overlay.base.kernel_request == "python"
        assert overlay.base.kernel == "python"

    def test_swap_drains_the_patch_and_records_fingerprint(self):
        overlay = make_overlay()
        churn(overlay)
        reindexer = BackgroundReindexer(overlay)
        result = reindexer.rebuild_once()
        assert result.swapped is True
        assert overlay.patch_size == 0
        assert overlay.swap_count == 1
        expected = hashlib.sha256(index_fingerprint(overlay.base)).hexdigest()
        assert result.fingerprint_sha256 == expected
        assert result.n == overlay.n
        summary = result.summary()
        assert summary["swapped"] is True
        assert summary["verified_pairs"] == result.verified_pairs

    def test_expected_fingerprint_mismatch_aborts_before_swap(self):
        overlay = make_overlay()
        churn(overlay)
        reindexer = BackgroundReindexer(
            overlay, expected_fingerprint="0" * 64
        )
        with pytest.raises(DynamicUpdateError, match="does not match"):
            reindexer.rebuild_once()
        # Overlay untouched: the patch is still live and still exact.
        assert overlay.patch_size > 0
        assert overlay.swap_count == 0

    def test_expected_fingerprint_match_allows_swap(self):
        overlay = make_overlay()
        churn(overlay)
        # Authority fingerprint = independent build of the same snapshot.
        snap_graph = overlay.materialize_current()
        authority = hashlib.sha256(
            index_fingerprint(CTIndex.build(snap_graph, overlay.base.bandwidth))
        ).hexdigest()
        reindexer = BackgroundReindexer(overlay, expected_fingerprint=authority)
        assert reindexer.rebuild_once().swapped is True

    def test_answer_verification_failure_aborts_swap(self, monkeypatch):
        overlay = make_overlay()
        churn(overlay)

        class LyingIndex:
            """Delegates everything except ``distance``, which lies."""

            def __init__(self, inner):
                self._inner = inner

            def __getattr__(self, name):
                return getattr(self._inner, name)

            def distance(self, s, t):
                real = self._inner.distance(s, t)
                return real + 1 if s != t else real

        real_build = CTIndex.build
        monkeypatch.setattr(
            "repro.dynamic.rebuild.CTIndex",
            type(
                "FakeCTIndex",
                (),
                {"build": staticmethod(lambda *a, **kw: LyingIndex(real_build(*a, **kw)))},
            ),
        )
        reindexer = BackgroundReindexer(overlay)
        with pytest.raises(DynamicUpdateError, match="verification failed"):
            reindexer.rebuild_once()
        assert overlay.swap_count == 0
        assert overlay.patch_size > 0

    def test_verify_samples_zero_disables_the_sample_check(self):
        overlay = make_overlay()
        churn(overlay)
        result = BackgroundReindexer(overlay, verify_samples=0).rebuild_once()
        assert result.swapped is True
        assert result.verified_pairs == 0

    def test_configuration_validation(self):
        overlay = make_overlay()
        with pytest.raises(ConfigurationError):
            BackgroundReindexer(overlay, verify_samples=-1)
        with pytest.raises(ConfigurationError):
            BackgroundReindexer(overlay, auto_threshold=0)

    def test_bandwidth_required_without_base_default(self):
        overlay = make_overlay()

        class NoBandwidth:
            def __init__(self, inner):
                self._inner = inner
                self.graph = inner.graph

            def __getattr__(self, name):
                if name == "bandwidth":
                    raise AttributeError(name)
                return getattr(self._inner, name)

        overlay2 = DeltaOverlayIndex(NoBandwidth(overlay.base))
        with pytest.raises(ConfigurationError, match="bandwidth"):
            BackgroundReindexer(overlay2)
        assert BackgroundReindexer(overlay2, bandwidth=3).bandwidth == 3


class TestBackgroundThread:
    def test_request_rebuild_drains_patch(self):
        overlay = make_overlay()
        churn(overlay)
        reindexer = BackgroundReindexer(overlay, poll_interval=0.01).start()
        try:
            baseline = reindexer.cycles()
            reindexer.request_rebuild()
            assert reindexer.wait_for_cycle(baseline, timeout=30)
            assert overlay.patch_size == 0
            status = reindexer.status()
            assert status["rebuilds_completed"] == 1
            assert status["running"] is True
            assert status["last_result"]["swapped"] is True
        finally:
            reindexer.stop()
        assert reindexer.status()["running"] is False

    def test_auto_threshold_triggers_without_request(self):
        overlay = make_overlay()
        reindexer = BackgroundReindexer(
            overlay, auto_threshold=4, poll_interval=0.01
        ).start()
        try:
            baseline = reindexer.cycles()
            churn(overlay, count=6)  # over the threshold
            assert reindexer.wait_for_cycle(baseline, timeout=30)
            assert overlay.patch_size == 0
            assert reindexer.status()["rebuilds_completed"] >= 1
        finally:
            reindexer.stop()

    def test_maybe_trigger_respects_threshold(self):
        overlay = make_overlay()
        reindexer = BackgroundReindexer(overlay, auto_threshold=5)
        assert reindexer.maybe_trigger() is False
        churn(overlay, count=5)
        assert reindexer.maybe_trigger() is True
        # Without a threshold maybe_trigger is inert.
        assert BackgroundReindexer(overlay).maybe_trigger() is False

    def test_error_cycles_are_counted_and_reported(self):
        overlay = make_overlay()
        churn(overlay)
        reindexer = BackgroundReindexer(
            overlay, expected_fingerprint="f" * 64, poll_interval=0.01
        ).start()
        try:
            baseline = reindexer.cycles()
            reindexer.request_rebuild()
            assert reindexer.wait_for_cycle(baseline, timeout=30)
            status = reindexer.status()
            assert status["rebuild_errors"] == 1
            assert "DynamicUpdateError" in status["last_error"]
            assert overlay.swap_count == 0  # the bad build never landed
        finally:
            reindexer.stop()

    def test_start_is_idempotent(self):
        overlay = make_overlay()
        reindexer = BackgroundReindexer(overlay, poll_interval=0.01)
        try:
            assert reindexer.start() is reindexer
            thread = reindexer._thread
            reindexer.start()
            assert reindexer._thread is thread
        finally:
            reindexer.stop()
