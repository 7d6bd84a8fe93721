"""Disk-pressure resilience for the plan cache: byte-budget GC,
ENOSPC brownout, scrub, and the put-vs-gc race guarantees.

The contract under test (PR 10 tentpole, disk tier):

* GC is deterministic -- oldest ``st_mtime_ns`` first, lexical
  relative-path tie-break, quarantined files never candidates -- and
  concurrency-safe without locks: a ``put`` racing a ``gc`` on the
  same key always leaves the old or the new valid entry behind,
  never neither, and racing GCs never double-count a victim.
* ``ENOSPC``/``EDQUOT`` on any write degrades to a journaled
  brownout (cache-off misses with periodic probe writes), never a
  crash and never a torn live entry.
"""

from __future__ import annotations

import json
import os
import time
import warnings

import pytest

import repro.runner.cache as cache_module
from repro.runner.cache import (
    BROWNOUT_JOURNAL,
    BROWNOUT_PROBE_WRITES,
    ENV_CACHE_MAX_BYTES,
    PlanCache,
    brownout_active,
    resolve_cache_max_bytes,
    stable_hash,
)
from repro.runner.faults import (
    ENV_FAULTS,
    CacheBrownout,
    SweepConfigError,
)


@pytest.fixture(autouse=True)
def clean_pressure_state(monkeypatch):
    """Isolate the process-wide brownout registry and the pressure
    env knobs from neighbouring tests."""
    monkeypatch.delenv(ENV_CACHE_MAX_BYTES, raising=False)
    monkeypatch.delenv(ENV_FAULTS, raising=False)
    cache_module._brownouts.clear()
    yield
    cache_module._brownouts.clear()


@pytest.fixture
def cache(tmp_path):
    return PlanCache(tmp_path / "cache")


def put_aged(cache, key, value, age_s):
    """Write one entry and backdate its mtime ``age_s`` seconds."""
    path = cache.put("report", key, value)
    stamp = time.time() - age_s
    os.utime(path, (stamp, stamp))
    return path


def _race_refresh_put(root, key, barrier, results):
    """Child body: refresh one entry while a sibling GC runs."""
    try:
        racing = PlanCache(root)
        barrier.wait()
        racing.put("report", key, {"fresh": True})
        results.put(("put-done", None))
    except Exception as error:  # pragma: no cover - failure path
        results.put(("error", f"{type(error).__name__}: {error}"))


def _race_gc(root, cap, barrier, results):
    """Child body: evict down to ``cap`` while a sibling put runs."""
    try:
        racing = PlanCache(root)
        barrier.wait()
        report = racing.gc(cap)
        results.put(("gc-done", report["removed"]))
    except Exception as error:  # pragma: no cover - failure path
        results.put(("error", f"{type(error).__name__}: {error}"))


class TestBudgetResolution:
    def test_unset_means_uncapped(self):
        assert resolve_cache_max_bytes() is None

    def test_env_and_argument(self, monkeypatch):
        monkeypatch.setenv(ENV_CACHE_MAX_BYTES, "4096")
        assert resolve_cache_max_bytes() == 4096
        assert resolve_cache_max_bytes(512) == 512

    def test_non_positive_env_rejected(self, monkeypatch):
        monkeypatch.setenv(ENV_CACHE_MAX_BYTES, "0")
        with pytest.raises(SweepConfigError):
            resolve_cache_max_bytes()


class TestGC:
    def test_unbounded_gc_is_a_noop_scan(self, cache):
        for i in range(3):
            cache.put("report", stable_hash({"i": i}), {"i": i})
        report = cache.gc()
        assert report["removed"] == 0
        assert report["max_bytes"] is None
        assert cache.entry_count() == 3

    def test_evicts_oldest_first(self, cache):
        oldest = put_aged(cache, stable_hash({"k": "a"}),
                          {"k": "a"}, 300)
        mid = put_aged(cache, stable_hash({"k": "b"}),
                       {"k": "b"}, 200)
        newest = put_aged(cache, stable_hash({"k": "c"}),
                          {"k": "c"}, 100)
        freed = oldest.stat().st_size
        total = sum(p.stat().st_size for p in (oldest, mid, newest))
        report = cache.gc(total - 1)
        assert report["removed"] == 1
        assert report["freed_bytes"] == freed
        assert report["bytes"] == total - freed
        assert not oldest.exists()
        assert mid.exists() and newest.exists()

    def test_lexical_tie_break_on_equal_mtime(self, cache):
        keys = sorted(
            stable_hash({"k": i}) for i in range(2)
        )
        paths = [
            cache.put("report", key, {"k": key}) for key in keys
        ]
        stamp = time.time() - 100
        for path in paths:
            os.utime(path, (stamp, stamp))
        by_relpath = sorted(
            paths,
            key=lambda p: p.relative_to(cache.root).as_posix(),
        )
        total = sum(p.stat().st_size for p in paths)
        assert cache.gc(total - 1)["removed"] == 1
        assert not by_relpath[0].exists()
        assert by_relpath[1].exists()

    def test_same_state_same_victims(self, tmp_path):
        """Two directories with identical layouts GC identically."""
        survivors = []
        for label in ("one", "two"):
            clone = PlanCache(tmp_path / label)
            total = 0
            for i in range(4):
                path = put_aged(clone, stable_hash({"i": i}),
                                {"i": i}, 400 - 100 * i)
                total += path.stat().st_size
            clone.gc(total // 2)
            survivors.append(sorted(
                p.relative_to(clone.root).as_posix()
                for p in clone.root.rglob("*.json")
            ))
        assert survivors[0] == survivors[1]
        assert 1 <= len(survivors[0]) <= 2

    def test_quarantined_files_are_not_victims(self, cache):
        key = stable_hash({"k": "corrupt"})
        cache.put("report", key, {"ok": True})
        cache.path_for("report", key).write_text("garbage")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cache.get("report", key)
        quarantine = cache.root / "quarantine"
        assert list(quarantine.iterdir())
        report = cache.gc(1)
        assert report["removed"] == 0
        assert list(quarantine.iterdir())

    def test_no_trash_files_left_behind(self, cache):
        for i in range(3):
            put_aged(cache, stable_hash({"i": i}), {"i": i},
                     300 - i)
        cache.gc(1)
        assert not list(cache.root.rglob("*.gc"))

    def test_put_enforces_the_env_budget(self, cache, monkeypatch):
        first = cache.put(
            "report", stable_hash({"i": 0}), {"i": 0}
        )
        budget = first.stat().st_size + 8
        monkeypatch.setenv(ENV_CACHE_MAX_BYTES, str(budget))
        for i in range(1, 4):
            put_aged(cache, stable_hash({"i": i}), {"i": i},
                     0)
        total = sum(
            p.stat().st_size
            for p in cache.root.rglob("*.json")
        )
        assert total <= budget
        assert cache.entry_count() >= 1

    def test_evict_restores_entry_refreshed_after_scan(
        self, cache, monkeypatch
    ):
        """The deterministic core of the put-vs-gc guarantee: a
        victim replaced between the GC's stat and its rename is
        detected (mtime mismatch) and atomically restored."""
        key = stable_hash({"k": "refresh"})
        path = put_aged(cache, key, {"v": 1}, 600)
        scanned = path.stat().st_mtime_ns
        real_rename = os.rename
        state = {"raced": False}

        def racing(source, destination):
            if not state["raced"]:
                state["raced"] = True
                cache.put("report", key, {"v": 2})
            return real_rename(source, destination)

        monkeypatch.setattr(os, "rename", racing)
        assert cache._evict(path, scanned) == 0
        assert json.loads(path.read_text())["value"] == {"v": 2}
        assert not list(cache.root.rglob("*.gc"))

    def test_racing_evictors_never_double_count(
        self, cache, monkeypatch
    ):
        """The loser of a rename race frees zero bytes."""
        key = stable_hash({"k": "victim"})
        path = put_aged(cache, key, {"v": 1}, 600)
        scanned = path.stat().st_mtime_ns
        real_rename = os.rename

        def stolen(source, destination):
            # A racing GC evicted the entry an instant earlier:
            # this evictor's own rename finds nothing to move.
            real_rename(source, str(source) + ".stolen")
            return real_rename(source, destination)

        monkeypatch.setattr(os, "rename", stolen)
        assert cache._evict(path, scanned) == 0
        monkeypatch.undo()
        assert not path.exists()
        assert cache._evict(path, scanned) == 0

    def test_put_between_scan_and_evict_keeps_fresh_entry(
        self, cache, monkeypatch
    ):
        """Regression: a ``put`` that lands after the GC's scan but
        before its eviction must survive.  The eviction compares
        against the *scanned* mtime; re-statting the victim at
        eviction time saw the fresh entry as unchanged and deleted
        it, leaving the key with no entry at all."""
        key = stable_hash({"k": "raced"})
        target = put_aged(cache, key, {"fresh": False}, 600)
        kept = put_aged(
            cache, stable_hash({"k": "filler"}), {"fill": True}, 300
        )
        real_scan = cache._scan

        def scan_then_refresh():
            scanned = list(real_scan())
            cache.put("report", key, {"fresh": True})
            return scanned

        monkeypatch.setattr(cache, "_scan", scan_then_refresh)
        # Room for one entry: the scan picks the older (raced) key.
        cache.gc(max(target.stat().st_size, kept.stat().st_size) + 16)
        document = json.loads(target.read_text())
        assert document["value"] == {"fresh": True}
        assert not list(cache.root.rglob("*.gc"))

    def test_put_vs_gc_race_leaves_a_valid_entry(self, tmp_path):
        """Spawn-context two-process race: one process refreshes a
        key while another GCs it away.  In every interleaving the
        key must end up as a complete valid entry -- old or new,
        never neither, never torn."""
        import multiprocessing

        context = multiprocessing.get_context("spawn")
        for attempt in range(3):
            root = tmp_path / f"race{attempt}"
            raced = PlanCache(root)
            key = stable_hash({"k": "raced"})
            filler = stable_hash({"k": "filler"})
            target = put_aged(raced, key, {"fresh": False}, 600)
            kept = put_aged(raced, filler, {"fill": True}, 300)
            # A budget that holds exactly one entry: the GC must
            # evict one of the two, and determinism picks the
            # older (raced) key unless the racing put already
            # refreshed it.
            cap = max(
                target.stat().st_size, kept.stat().st_size
            ) + 16
            assert cap < (
                target.stat().st_size + kept.stat().st_size
            )
            barrier = context.Barrier(2, timeout=30)
            results = context.Queue()
            workers = [
                context.Process(
                    target=_race_refresh_put,
                    args=(str(root), key, barrier, results),
                ),
                context.Process(
                    target=_race_gc,
                    args=(str(root), cap, barrier, results),
                ),
            ]
            for worker in workers:
                worker.start()
            outcomes = [results.get(timeout=60) for _ in workers]
            for worker in workers:
                worker.join(timeout=60)
                assert worker.exitcode == 0
            assert sorted(kind for kind, _ in outcomes) == [
                "gc-done", "put-done"
            ], outcomes
            entry = raced.path_for("report", key)
            assert entry.exists()
            document = json.loads(entry.read_text())
            assert document["value"] in (
                {"fresh": True}, {"fresh": False}
            )
            assert not list(root.rglob("*.gc"))


class TestStatsAndScrub:
    def test_stats_reports_usage(self, cache, monkeypatch):
        paths = [
            cache.put("report", stable_hash({"i": i}), {"i": i})
            for i in range(2)
        ]
        monkeypatch.setenv(ENV_CACHE_MAX_BYTES, "100000")
        stats = cache.stats()
        assert stats["entries"] == 2
        assert stats["bytes"] == sum(
            p.stat().st_size for p in paths
        )
        assert stats["max_bytes"] == 100000
        assert stats["quarantined"] == 0
        assert stats["brownout"] is False
        assert stats["root"] == str(cache.root)

    def test_stats_counts_quarantine(self, cache):
        key = stable_hash({"k": "corrupt"})
        cache.put("report", key, {"ok": True})
        cache.path_for("report", key).write_text("garbage")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cache.get("report", key)
        assert cache.stats()["quarantined"] == 1

    def test_scrub_quarantines_torn_entries(self, cache):
        for i in range(3):
            cache.put("report", stable_hash({"i": i}), {"i": i})
        torn = cache.path_for("report", stable_hash({"i": 1}))
        torn.write_text('{"payload": {}, "val')
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = cache.scrub()
        assert report == {"checked": 3, "quarantined": 1}
        assert not torn.exists()
        assert cache.entry_count() == 2
        assert cache.stats()["quarantined"] == 1
        # A clean cache scrubs clean.
        assert cache.scrub() == {"checked": 2, "quarantined": 0}


class TestBrownout:
    def test_disk_full_enters_brownout_then_recovers(
        self, cache, monkeypatch
    ):
        key = stable_hash({"k": "first"})
        monkeypatch.setenv(ENV_FAULTS, "disk-full:write=0")
        with pytest.warns(CacheBrownout):
            cache.put("report", key, {"ok": True})
        assert not cache.path_for("report", key).exists()
        assert cache.brownout
        assert brownout_active(cache.root)
        monkeypatch.delenv(ENV_FAULTS)
        # The next BROWNOUT_PROBE_WRITES puts are cache-off misses.
        for i in range(BROWNOUT_PROBE_WRITES):
            skipped = stable_hash({"skip": i})
            cache.put("report", skipped, {"i": i})
            assert not cache.path_for("report", skipped).exists()
        assert cache.brownout_skips == BROWNOUT_PROBE_WRITES
        assert cache.brownout
        # Then one probe write re-tries the disk and recovers.
        probe = stable_hash({"k": "probe"})
        cache.put("report", probe, {"ok": True})
        assert cache.path_for("report", probe).exists()
        assert not cache.brownout
        assert cache.get("report", probe) == {"ok": True}

    def test_brownout_transitions_are_journaled(
        self, cache, monkeypatch
    ):
        monkeypatch.setenv(ENV_FAULTS, "disk-full:write=0")
        with pytest.warns(CacheBrownout):
            cache.put("report", stable_hash({"k": 0}), {})
        monkeypatch.delenv(ENV_FAULTS)
        for i in range(BROWNOUT_PROBE_WRITES):
            cache.put("report", stable_hash({"skip": i}), {})
        cache.put("report", stable_hash({"k": "probe"}), {})
        journal = cache.root / BROWNOUT_JOURNAL
        events = [
            json.loads(line)["event"]
            for line in journal.read_text().splitlines()
            if line.strip()
        ]
        assert events == ["brownout", "recovered"]

    def test_failed_probe_reenters_without_a_second_warning(
        self, cache, monkeypatch
    ):
        monkeypatch.setenv(
            ENV_FAULTS, "disk-full:write=0;disk-full:write=1"
        )
        with pytest.warns(CacheBrownout):
            cache.put("report", stable_hash({"k": 0}), {})
        for i in range(BROWNOUT_PROBE_WRITES):
            cache.put("report", stable_hash({"skip": i}), {})
        # The probe (write index 1) fails too: brownout persists,
        # quietly -- one ongoing condition, one warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cache.put("report", stable_hash({"k": "probe"}), {})
        assert cache.brownout
        journal = cache.root / BROWNOUT_JOURNAL
        events = [
            json.loads(line)["event"]
            for line in journal.read_text().splitlines()
            if line.strip()
        ]
        assert events == ["brownout"]

    def test_reads_still_serve_during_brownout(
        self, cache, monkeypatch
    ):
        key = stable_hash({"k": "warm"})
        cache.put("report", key, {"ok": True})
        monkeypatch.setenv(ENV_FAULTS, "disk-full:write=1")
        with pytest.warns(CacheBrownout):
            cache.put("report", stable_hash({"k": "cold"}), {})
        assert cache.brownout
        assert cache.get("report", key) == {"ok": True}

    def test_replace_failure_never_tears_the_live_entry(
        self, cache, monkeypatch
    ):
        """ENOSPC at the atomic rename: the temp file is dropped,
        the existing entry keeps its old bytes, and the cache
        browns out instead of raising."""
        import errno

        key = stable_hash({"k": "live"})
        path = cache.put("report", key, {"v": 1})

        def full(source, destination):
            raise OSError(errno.ENOSPC, "injected ENOSPC")

        monkeypatch.setattr(os, "replace", full)
        with pytest.warns(CacheBrownout):
            cache.put("report", key, {"v": 2})
        monkeypatch.undo()
        assert json.loads(path.read_text())["value"] == {"v": 1}
        assert not list(path.parent.glob(".*.tmp"))
        assert cache.brownout

    def test_non_space_oserrors_still_raise(
        self, cache, monkeypatch
    ):
        """Brownout is for full disks only: a genuinely broken
        cache directory stays a loud error."""

        def broken(source, destination):
            raise PermissionError(13, "injected EACCES")

        monkeypatch.setattr(os, "replace", broken)
        with pytest.raises(PermissionError):
            cache.put("report", stable_hash({"k": 0}), {})
        assert not cache.brownout

    def test_brownout_is_shared_across_instances(
        self, tmp_path, monkeypatch
    ):
        """Two PlanCache objects over one root share the verdict --
        the default cache is re-resolved per call site."""
        first = PlanCache(tmp_path / "shared")
        second = PlanCache(tmp_path / "shared")
        monkeypatch.setenv(ENV_FAULTS, "disk-full:write=0")
        with pytest.warns(CacheBrownout):
            first.put("report", stable_hash({"k": 0}), {})
        assert second.brownout


class TestCacheEvictInjection:
    def test_injected_eviction_is_a_clean_miss(
        self, cache, monkeypatch
    ):
        monkeypatch.setenv(ENV_FAULTS, "cache-evict:write=0")
        key = stable_hash({"k": "evicted"})
        cache.put("report", key, {"ok": True})
        assert not cache.path_for("report", key).exists()
        assert cache.get("report", key) is None
        assert not cache.brownout
        # Later writes are untouched.
        monkeypatch.delenv(ENV_FAULTS)
        cache.put("report", key, {"ok": True})
        assert cache.get("report", key) == {"ok": True}
