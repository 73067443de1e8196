"""Tests for the process-pool fan-out layer and the sharded result cache.

Covers the concurrency-sensitive properties the serial harness tests
cannot: parallel/serial numeric identity and ordering, failure
propagation with grid-point naming, concurrent cache population from
multiple processes, and tolerance of torn cache entries.
"""

import json
import multiprocessing

import pytest

from repro.core.simulation import simulate
from repro.harness.cache import ResultCache, sim_cache_key
from repro.harness.parallel import (
    METRICS,
    SimJob,
    SimJobError,
    execute_job,
    resolve_workers,
    run_jobs,
    set_default_workers,
)
from repro.uarch.config import cortex_a5

#: Tiny but non-trivial grid: two schemes x two workloads at explicit n.
SMALL = tuple(
    SimJob(w, "lua", scheme, kwargs=(("check_output", False), ("n", 8)))
    for w in ("fibo", "n-sieve")
    for scheme in ("baseline", "scd")
)


@pytest.fixture(autouse=True)
def _reset_parallel_state():
    METRICS.reset()
    set_default_workers(None)
    yield
    set_default_workers(None)


class TestSimJob:
    def test_cache_key_matches_canonical(self):
        job = SimJob("fibo", "lua", "scd", kwargs=(("n", 8),))
        assert job.cache_key() == sim_cache_key(
            "lua", "scd", "fibo", "sim", None, {"n": 8}
        )

    def test_default_config_aliases_explicit(self):
        implicit = SimJob("fibo", "lua", "scd")
        explicit = SimJob("fibo", "lua", "scd", config=cortex_a5())
        assert implicit.cache_key() == explicit.cache_key()

    def test_kwargs_order_does_not_matter(self):
        a = sim_cache_key("lua", "scd", "fibo", "sim", None, {"n": 8, "check_output": False})
        b = sim_cache_key("lua", "scd", "fibo", "sim", None, {"check_output": False, "n": 8})
        assert a == b

    def test_distinct_kwargs_distinct_keys(self):
        a = sim_cache_key("lua", "scd", "fibo", "sim", None, {"n": 8})
        b = sim_cache_key("lua", "scd", "fibo", "sim", None, {"n": 9})
        assert a != b


class TestRunJobs:
    def test_workers1_matches_direct_simulate(self, tmp_cache):
        (result,) = run_jobs([SMALL[0]], workers=1, cache=tmp_cache)
        direct = simulate("fibo", vm="lua", scheme="baseline", n=8, check_output=False)
        assert result == direct

    def test_parallel_matches_serial_in_order(self, tmp_path):
        serial = run_jobs(
            SMALL, workers=1, cache=ResultCache("serial", root=tmp_path)
        )
        parallel = run_jobs(
            SMALL, workers=2, cache=ResultCache("parallel", root=tmp_path)
        )
        assert parallel == serial
        for job, result in zip(SMALL, parallel):
            assert (result.workload, result.scheme) == (job.workload, job.scheme)

    def test_batch_dedupes_repeated_jobs(self, tmp_cache):
        job = SMALL[0]
        results = run_jobs([job, job, job], workers=1, cache=tmp_cache)
        assert results[0] == results[1] == results[2]
        assert METRICS.sims == 1

    def test_pool_populates_shared_cache(self, tmp_cache):
        run_jobs(SMALL, workers=2, cache=tmp_cache)
        again = ResultCache(tmp_cache.name)
        for job in SMALL:
            assert again.get(job.cache_key()) is not None

    def test_failure_names_grid_point_serial(self, tmp_cache):
        bad = SimJob("no-such-workload", "lua", "scd")
        with pytest.raises(SimJobError) as err:
            run_jobs([bad], workers=1, cache=tmp_cache)
        assert err.value.key == ("lua", "scd", "no-such-workload")
        assert "no-such-workload" in str(err.value)

    def test_failure_names_grid_point_pool(self, tmp_cache):
        bad = SimJob("no-such-workload", "lua", "scd")
        with pytest.raises(SimJobError) as err:
            run_jobs([SMALL[0], bad], workers=2, cache=tmp_cache)
        assert err.value.key == ("lua", "scd", "no-such-workload")

    def test_resolve_workers_priority(self, monkeypatch):
        # Pin the cap high so priority semantics are observable on any host.
        monkeypatch.setattr("repro.harness.parallel.os.cpu_count", lambda: 8)
        assert resolve_workers(3) == 3
        set_default_workers(2)
        assert resolve_workers() == 2
        set_default_workers(None)
        monkeypatch.setenv("SCD_REPRO_JOBS", "5")
        assert resolve_workers() == 5
        monkeypatch.setenv("SCD_REPRO_JOBS", "junk")
        assert resolve_workers() >= 1

    def test_resolve_workers_capped_at_cpu_count(self, monkeypatch):
        """Oversubscribing a small host only adds pool overhead (the PR-1
        bench posted a 0.88x "speedup" at -j4 on one CPU), so every source
        of a worker count is capped at os.cpu_count()."""
        monkeypatch.setattr("repro.harness.parallel.os.cpu_count", lambda: 2)
        assert resolve_workers(16) == 2
        set_default_workers(16)
        assert resolve_workers() == 2
        set_default_workers(None)
        monkeypatch.setenv("SCD_REPRO_JOBS", "16")
        assert resolve_workers() == 2
        monkeypatch.delenv("SCD_REPRO_JOBS")
        assert resolve_workers() == 2
        assert resolve_workers(0) == 1


class TestMetricsAndCallbacks:
    """The per-call metrics/on_result hooks the sweep service relies on."""

    def test_explicit_metrics_leave_singleton_untouched(self, tmp_cache):
        from repro.harness.parallel import ThroughputMetrics

        own = ThroughputMetrics()
        run_jobs(SMALL[:2], workers=1, cache=tmp_cache, metrics=own)
        assert own.sims == 2
        # A torn (non-UTF-8) shard is quarantined into the caller's
        # metrics as well, and recomputed.
        key = SMALL[0].cache_key()
        tmp_cache.entry_path(key).write_bytes(b"\xff\xfe torn")
        torn = ThroughputMetrics()
        fresh = ResultCache(tmp_cache.name, root=tmp_cache.root)
        run_jobs(SMALL[:1], workers=2, cache=fresh, metrics=torn)
        assert (torn.quarantined, torn.sims) == (1, 1)
        assert METRICS.sims == 0 and METRICS.cache_hits == 0
        assert METRICS.quarantined == 0

    def test_on_result_fires_once_per_distinct_key(self, tmp_cache):
        seen = []
        run_jobs(
            [SMALL[0], SMALL[0], SMALL[1]], workers=1, cache=tmp_cache,
            on_result=lambda key, result, meta: seen.append((key, meta)),
        )
        # The repeated job is one distinct key: two callbacks, not three.
        assert sorted(key for key, _ in seen) == sorted(
            {j.cache_key() for j in SMALL[:2]}
        )
        assert all(not meta.get("cached") for _, meta in seen)

    def test_on_result_reports_cache_hits(self, tmp_cache):
        run_jobs([SMALL[0]], workers=1, cache=tmp_cache)
        seen = []
        results = run_jobs(
            [SMALL[0]], workers=1, cache=tmp_cache,
            on_result=lambda key, result, meta: seen.append((result, meta)),
        )
        ((result, meta),) = seen
        assert meta.get("cached") is True
        assert result == results[0]

    def test_exhausted_failure_never_fires_on_result(self, tmp_cache):
        from repro.harness.parallel import run_jobs_partial

        bad = SimJob("no-such-workload", "lua", "scd")
        seen = []
        resolved, failures = run_jobs_partial(
            [bad, SMALL[0]], workers=1, cache=tmp_cache, retries=0,
            on_result=lambda key, result, meta: seen.append(key),
        )
        assert [job for job, _ in failures] == [bad]
        assert seen == [SMALL[0].cache_key()]


class TestRetryBackoffResolver:
    def test_malformed_env_warns_and_falls_back(self, monkeypatch):
        from repro.harness.parallel import (
            DEFAULT_RETRY_BACKOFF_S,
            _retry_backoff_s,
        )

        monkeypatch.setenv("SCD_REPRO_RETRY_BACKOFF", "soon-ish")
        with pytest.warns(RuntimeWarning, match="soon-ish"):
            backoff = _retry_backoff_s(1)
        assert backoff == DEFAULT_RETRY_BACKOFF_S

    def test_well_formed_env_is_silent(self, monkeypatch):
        import warnings

        from repro.harness.parallel import _retry_backoff_s

        monkeypatch.setenv("SCD_REPRO_RETRY_BACKOFF", "0.25")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _retry_backoff_s(1) == 0.25
            assert _retry_backoff_s(2) == 0.5


def _worker_put(root, name, job_args):
    cache = ResultCache(name, root=root)
    job = SimJob(*job_args, kwargs=(("check_output", False), ("n", 8)))
    execute_job(job, cache)


class TestConcurrentCache:
    def test_two_processes_share_one_store(self, tmp_path):
        """Two processes populating one cache directory concurrently: no
        corruption, both entries (including a raced duplicate) readable."""
        ctx = multiprocessing.get_context()
        grids = [
            [("fibo", "lua", "baseline"), ("fibo", "lua", "scd")],
            [("n-sieve", "lua", "baseline"), ("fibo", "lua", "scd")],
        ]
        procs = [
            ctx.Process(target=_worker_put, args=(str(tmp_path), "shared", g[i]))
            for g in grids
            for i in range(2)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=120)
            assert p.exitcode == 0
        cache = ResultCache("shared", root=tmp_path)
        for w, vm, scheme in {g[i] for g in grids for i in range(2)}:
            key = sim_cache_key(vm, scheme, w, "sim", None,
                                {"check_output": False, "n": 8})
            result = cache.get(key)
            assert result is not None
            assert (result.workload, result.scheme) == (w, scheme)

    def test_corrupt_entry_reads_as_miss(self, tmp_cache):
        result = simulate("fibo", vm="lua", scheme="scd", n=8, check_output=False)
        tmp_cache.put("some-key", result)
        tmp_cache.entry_path("some-key").write_text('{"key": "some-key", "res')
        fresh = ResultCache(tmp_cache.name)
        assert fresh.get("some-key") is None
        fresh.put("some-key", result)  # recovers by overwriting
        assert ResultCache(tmp_cache.name).get("some-key") == result

    def test_miss_is_not_memoized(self, tmp_cache):
        """An entry written by another process after a miss is picked up
        on the next probe (the pre-v3 cache memoized the whole file and
        went permanently stale)."""
        result = simulate("fibo", vm="lua", scheme="scd", n=8, check_output=False)
        reader = ResultCache(tmp_cache.name)
        assert reader.get("late-key") is None
        tmp_cache.put("late-key", result)  # "another process" writes
        assert reader.get("late-key") == result

    def test_clear_removes_entries_and_tmp_strays(self, tmp_cache):
        result = simulate("fibo", vm="lua", scheme="scd", n=8, check_output=False)
        tmp_cache.put("k", result)
        stray = tmp_cache.entry_path("k").with_suffix(".json.999.tmp")
        stray.write_text("partial")
        tmp_cache.clear()
        assert not tmp_cache.path.exists()
        assert not stray.exists()
        assert tmp_cache.get("k") is None

    def test_entry_payload_is_self_describing(self, tmp_cache):
        result = simulate("fibo", vm="lua", scheme="scd", n=8, check_output=False)
        tmp_cache.put("k", result)
        payload = json.loads(tmp_cache.entry_path("k").read_text())
        assert payload["key"] == "k"
        assert payload["result"]["workload"] == "fibo"


class TestTimeoutAndRetryResolvers:
    """Non-finite timeouts and negative retry budgets never reach the pool."""

    @pytest.fixture(autouse=True)
    def _clean_env(self, monkeypatch):
        from repro.harness.parallel import set_default_job_timeout

        monkeypatch.delenv("SCD_REPRO_JOB_TIMEOUT", raising=False)
        monkeypatch.delenv("SCD_REPRO_RETRIES", raising=False)
        set_default_job_timeout(None)
        yield
        set_default_job_timeout(None)

    @pytest.mark.parametrize("raw", ("inf", "-inf", "nan"))
    def test_nonfinite_env_timeout_warns_and_is_ignored(self, monkeypatch, raw):
        from repro.harness.parallel import resolve_job_timeout

        monkeypatch.setenv("SCD_REPRO_JOB_TIMEOUT", raw)
        with pytest.warns(RuntimeWarning, match=f"SCD_REPRO_JOB_TIMEOUT='{raw}'"):
            assert resolve_job_timeout() is None

    @pytest.mark.parametrize("value", (float("inf"), float("nan")))
    def test_nonfinite_explicit_timeout_rejected(self, tmp_cache, value):
        from repro.harness.parallel import (
            resolve_job_timeout,
            set_default_job_timeout,
        )

        with pytest.raises(ValueError, match="finite"):
            resolve_job_timeout(value)
        # Rejected before any pool starts (inf used to overflow inside
        # concurrent.futures.wait; nan polled wait(timeout=0) forever).
        with pytest.raises(ValueError, match="finite"):
            run_jobs(SMALL[:2], workers=2, cache=tmp_cache, job_timeout=value)
        set_default_job_timeout(value)
        with pytest.raises(ValueError, match="finite"):
            resolve_job_timeout()

    @pytest.mark.parametrize("raw", ("inf", "nan"))
    def test_nonfinite_cli_timeout_is_usage_error(self, capsys, raw):
        from repro.harness.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["--job-timeout", raw, "list"])
        assert exc.value.code == 2
        assert "finite" in capsys.readouterr().err

    def test_negative_env_retries_warns_and_is_ignored(self, monkeypatch):
        from repro.harness.parallel import DEFAULT_RETRIES, resolve_retries

        monkeypatch.setenv("SCD_REPRO_RETRIES", "-3")
        with pytest.warns(RuntimeWarning, match="SCD_REPRO_RETRIES='-3'"):
            assert resolve_retries() == DEFAULT_RETRIES


#: Runs a 2-job sweep on a 2-worker pool under the spawn start method,
#: once with the interpreted reference path requested per job and once on
#: the default path, and prints what the parent needs to compare.
_SPAWN_SCRIPT = """
import json, multiprocessing, os, sys

from repro.harness.cache import ResultCache
from repro.harness.parallel import SimJob, ThroughputMetrics, run_jobs


def main(root):
    multiprocessing.set_start_method("spawn")
    os.cpu_count = lambda: 2  # a real 2-worker pool even on a 1-CPU host

    def grid(kwargs):
        return [SimJob("fibo", "lua", scheme, kwargs=kwargs)
                for scheme in ("baseline", "scd")]

    off = ThroughputMetrics()
    plain = run_jobs(grid((("use_kernel", False),)), workers=2,
                     cache=ResultCache("plain", root=os.path.join(root, "a")),
                     metrics=off)
    default = run_jobs(grid(()), workers=2,
                       cache=ResultCache("default", root=os.path.join(root, "b")),
                       metrics=ThroughputMetrics())
    print(json.dumps({
        "start_method": multiprocessing.get_start_method(),
        "sims": off.sims,
        "kernel_events": off.kernel_events,
        "plain": [r.to_dict() for r in plain],
        "default": [r.to_dict() for r in default],
    }))


if __name__ == "__main__":
    main(sys.argv[1])
"""


def test_use_kernel_kwarg_reaches_spawned_workers(tmp_path):
    """The rung selector rides in SimJob.kwargs, so it reaches pool
    workers under spawn too (a process-wide default only survived fork)."""
    import os
    import subprocess
    import sys

    script = tmp_path / "spawn_sweep.py"
    script.write_text(_SPAWN_SCRIPT)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    proc = subprocess.run(
        [sys.executable, str(script), str(tmp_path)],
        capture_output=True, text=True, env=env, check=True, timeout=600,
    )
    report = json.loads(proc.stdout)
    assert report["start_method"] == "spawn"
    assert report["sims"] == 2
    assert report["kernel_events"] == 0
    assert report["plain"] == report["default"]
