"""Tests for the batch placement service (repro.runner).

Covers the three acceptance criteria of the runner subsystem:

- resubmitting a byte-identical job is a cache hit: no placement
  iterations run (verified by the absence of new ``iteration`` events),
- a run killed mid-GP resumes from its on-disk checkpoint and finishes
  with *bit-exact* positions/HPWL versus the uninterrupted run (both
  float32 and float64),
- a 3x3 parameter sweep through one scheduler produces nine populated
  run directories,

plus the spec/hash semantics, store/event/checkpoint plumbing,
scheduler policy (retry, backoff, failure isolation, warm design
reuse) and the CLI verbs.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.benchgen import CircuitSpec, generate
from repro.core import DEFAULT_SEED, PlacementParams
from repro.runner import (
    DesignRef,
    EventLog,
    EventType,
    JobSpec,
    PlacerCheckpoint,
    ResultCache,
    RunLocked,
    RunStore,
    Scheduler,
    count_events,
    execute_job,
    expand_sweep,
    job_from_dict,
    read_events,
)
from repro.runner.store import (
    STATUS_COMPLETE,
    STATUS_FAILED,
    STATUS_RUNNING,
    STATUS_TIMEOUT,
    _atomic_write_json,
)


def make_db(seed=5, num_cells=60):
    return generate(CircuitSpec(
        name="runnertest", num_cells=num_cells, num_ios=8,
        utilization=0.6, seed=seed,
    ))


def gp_spec(stages=("gp",), **overrides) -> JobSpec:
    """A fast (by default GP-only) job spec for a pre-loaded database."""
    params = PlacementParams(max_global_iters=120, **overrides)
    return JobSpec(design=DesignRef("runnertest", scale=1),
                   params=params, stages=stages)


def _dead_pid() -> int:
    """A pid that existed a moment ago and is certainly gone now."""
    import subprocess

    proc = subprocess.Popen(["true"])
    proc.wait()  # reaped: os.kill(pid, 0) now raises ProcessLookupError
    return proc.pid


# ----------------------------------------------------------------------
class TestJobSpec:
    def test_design_ref_parse(self):
        ref = DesignRef.parse("designs/adaptec1.aux", scale=7)
        assert ref.source == "bookshelf"
        assert ref.scale == 7
        assert DesignRef.parse("tiny1").source == "suite"
        with pytest.raises(ValueError):
            DesignRef(name="x", source="magnetic-tape")

    def test_stage_validation(self):
        with pytest.raises(ValueError):
            JobSpec(design=DesignRef("a"), stages=("lg",))
        with pytest.raises(ValueError):
            JobSpec(design=DesignRef("a"), stages=("gp", "dp"))
        with pytest.raises(ValueError):
            JobSpec(design=DesignRef("a"), stages=("gp", "warp"))

    def test_effective_params_fold_stages(self):
        spec = JobSpec(design=DesignRef("a"), stages=("gp",))
        params = spec.effective_params()
        assert not params.legalize and not params.detailed
        spec = JobSpec(design=DesignRef("a"),
                       stages=("gp", "lg", "dp", "route"))
        params = spec.effective_params()
        assert params.legalize and params.detailed and params.routability

    def test_dict_roundtrip_preserves_hash(self):
        db = make_db()
        spec = gp_spec(seed=9, target_density=0.9)
        clone = JobSpec.from_dict(json.loads(
            json.dumps(spec.to_dict())))
        assert clone.job_hash(db) == spec.job_hash(db)
        assert clone.canonical_json() == spec.canonical_json()

    def test_hash_sensitivity(self):
        db = make_db()
        base = gp_spec()
        assert base.with_param_overrides(seed=1).job_hash(db) \
            != base.job_hash(db)
        assert base.with_param_overrides(target_density=0.8).job_hash(db) \
            != base.job_hash(db)
        # stage selection is part of the identity
        lg = JobSpec(design=base.design, params=base.params,
                     stages=("gp", "lg"))
        assert lg.job_hash(db) != base.job_hash(db)

    def test_hash_neutral_verbose(self):
        db = make_db()
        base = gp_spec()
        assert base.with_param_overrides(verbose=True).job_hash(db) \
            == base.job_hash(db)

    def test_hash_tracks_netlist_content(self):
        spec = gp_spec()
        assert spec.job_hash(make_db(seed=5)) \
            == spec.job_hash(make_db(seed=5))
        assert spec.job_hash(make_db(seed=5)) \
            != spec.job_hash(make_db(seed=6))

    def test_from_dict_rejects_newer_schema(self):
        data = gp_spec().to_dict()
        data["schema"] = 999
        with pytest.raises(ValueError):
            JobSpec.from_dict(data)

    def test_from_dict_rejects_older_schema_naming_the_remedy(self):
        """A spec.json written before a layout change is not re-run."""
        data = gp_spec().to_dict()
        data["schema"] = 1
        data["params"]["workspace_pooling"] = True  # the schema-1 layout
        with pytest.raises(ValueError, match=r"schema 1 .*re-submit"):
            JobSpec.from_dict(data)

    def test_user_json_with_retired_param_is_unknown(self):
        with pytest.raises(ValueError, match="unknown placement parameter"
                                             r".*workspace_pooling"):
            job_from_dict({"design": "tiny1",
                           "params": {"workspace_pooling": False}})


# ----------------------------------------------------------------------
class TestEvents:
    def test_roundtrip_and_counts(self, tmp_path):
        path = str(tmp_path / "ev.jsonl")
        with EventLog(path) as log:
            log.emit(EventType.RUN_START, design="d")
            log.emit(EventType.ITERATION, iteration=1, hpwl=10.0)
            log.emit(EventType.ITERATION, iteration=2, hpwl=9.0)
        events = list(read_events(path))
        assert [e["type"] for e in events] \
            == ["run_start", "iteration", "iteration"]
        assert events[1]["hpwl"] == 10.0
        assert count_events(path) == {"run_start": 1, "iteration": 2}

    def test_torn_tail_tolerated(self, tmp_path):
        path = str(tmp_path / "ev.jsonl")
        with EventLog(path) as log:
            log.emit(EventType.ITERATION, iteration=1)
        with open(path, "a") as handle:
            handle.write('{"type": "iterat')  # SIGKILL mid-write
        assert len(list(read_events(path))) == 1
        assert list(read_events(path, type="iteration"))[0]["iteration"] == 1


# ----------------------------------------------------------------------
class TestStoreAndCheckpoint:
    def test_store_layout_and_status(self, tmp_path):
        store = RunStore(str(tmp_path / "store"))
        spec = gp_spec()
        handle = store.open_run(spec, "ab" * 32)
        handle.set_status("running", attempts=1)
        handle.set_status(STATUS_COMPLETE, attempts=2)
        handle.write_metrics({"hpwl": {"final": 1.0}})
        handle.close()
        record = store.load("abab")
        assert record.state == STATUS_COMPLETE
        assert record.status["attempts"] == 2
        assert "created" in record.status
        assert record.load_spec().canonical_json() == spec.canonical_json()

    def test_load_by_prefix_rejects_ambiguity(self, tmp_path):
        store = RunStore(str(tmp_path / "store"))
        spec = gp_spec()
        store.open_run(spec, "aa" + "0" * 62).close()
        store.open_run(spec, "aa" + "1" * 62).close()
        with pytest.raises(KeyError):
            store.load("aa")
        with pytest.raises(KeyError):
            store.load("zz")
        assert store.load("aa0").job_hash == "aa" + "0" * 62

    def test_checkpoint_roundtrip_and_guards(self, tmp_path):
        path = str(tmp_path / "c" / "ckpt.pkl")
        state = {"pos": np.arange(4.0), "iteration": 30}
        PlacerCheckpoint(job_hash="x" * 64, iteration=30,
                         loop_state=state).save(path)
        ckpt = PlacerCheckpoint.load(path, expect_job_hash="x" * 64)
        assert ckpt.iteration == 30
        np.testing.assert_array_equal(ckpt.loop_state["pos"],
                                      state["pos"])
        with pytest.raises(ValueError):
            PlacerCheckpoint.load(path, expect_job_hash="y" * 64)


# ----------------------------------------------------------------------
class TestCacheHit:
    def test_identical_resubmission_runs_zero_iterations(self, tmp_path):
        """Acceptance: cache hit = no placement work, by event log."""
        db = make_db()
        store = RunStore(str(tmp_path / "store"))
        cache = ResultCache(store)
        spec = gp_spec()

        first = execute_job(spec, store, cache=cache, db=db)
        assert first.ok and not first.cached
        iters_before = count_events(
            os.path.join(first.directory, "events.jsonl"))["iteration"]
        assert iters_before > 0

        second = execute_job(spec, store, cache=cache, db=db)
        assert second.ok and second.cached
        assert second.metrics["hpwl"]["final"] \
            == first.metrics["hpwl"]["final"]
        counts = count_events(
            os.path.join(second.directory, "events.jsonl"))
        assert counts["iteration"] == iters_before  # no new iterations
        assert counts["cache_hit"] == 1
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_corrupt_entry_is_invalidated(self, tmp_path):
        db = make_db()
        store = RunStore(str(tmp_path / "store"))
        cache = ResultCache(store)
        spec = gp_spec()
        outcome = execute_job(spec, store, cache=cache, db=db)
        os.remove(os.path.join(outcome.directory, "metrics.json"))
        assert cache.lookup(outcome.job_hash) is None
        assert cache.stats.invalidations == 1

    def test_different_params_miss(self, tmp_path):
        db = make_db()
        store = RunStore(str(tmp_path / "store"))
        cache = ResultCache(store)
        execute_job(gp_spec(), store, cache=cache, db=db)
        other = execute_job(gp_spec(seed=123), store, cache=cache, db=db)
        assert not other.cached
        assert cache.stats.hits == 0 and cache.stats.misses == 2


# ----------------------------------------------------------------------
class _FakeClock:
    """monotonic() advancing one 'second' per call: the Nth GP
    iteration observes time N+1, so ``timeout=K`` kills the run
    deterministically at iteration K+1."""

    def __init__(self):
        self.now = 0.0

    def monotonic(self):
        self.now += 1.0
        return self.now


class TestKillResume:
    # the routability job spends 112 (float64) / 114 (float32)
    # iterations in inflation round 0, so iteration 146 overall is
    # iteration 34 / 32 of round 1: past that round's checkpoint at 30
    @pytest.mark.parametrize("stages,timeout,overrides", [
        (("gp",), 33.0, {}),
        (("gp", "route", "lg"), 145.0,
         dict(route_num_tiles=8, route_tile_capacity=1.0,
              inflation_max_rounds=2)),
    ], ids=["plain", "routability"])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_killed_run_resumes_bit_exactly(self, tmp_path, monkeypatch,
                                            dtype, stages, timeout,
                                            overrides):
        """Acceptance: SIGKILL mid-GP -> resume -> bit-exact result,
        in the plain flow and inside a routability inflation round."""
        db = make_db()
        spec = gp_spec(stages=stages, dtype=dtype, **overrides)

        # uninterrupted reference run
        ref_store = RunStore(str(tmp_path / "ref"))
        reference = execute_job(spec, ref_store, db=db)
        assert reference.ok

        # deterministically "kill" a second run at GP iteration
        # ``timeout + 1`` (fake clock + cooperative timeout stands in
        # for SIGKILL: the run dies between checkpoint writes exactly
        # like a killed process, leaving checkpoint.pkl from the
        # active round's iteration 30 behind)
        store = RunStore(str(tmp_path / "killed"))
        import repro.runner.execute as execute_mod

        monkeypatch.setattr(execute_mod, "time", _FakeClock())
        killed = execute_job(spec, store, db=db, checkpoint_every=10,
                             timeout=timeout)
        monkeypatch.undo()
        assert killed.status == STATUS_TIMEOUT
        ckpt_path = os.path.join(killed.directory, "checkpoint.pkl")
        assert os.path.exists(ckpt_path)
        ckpt = PlacerCheckpoint.load(ckpt_path)
        assert ckpt.iteration == 30
        if "route" in stages:
            assert ckpt.loop_state["inflation_round"] == 1

        resumed = execute_job(spec, store, db=db, resume=True)
        assert resumed.ok
        assert resumed.resumed_from == 30
        events = list(read_events(
            os.path.join(resumed.directory, "events.jsonl"),
            type="resume"))
        assert events and events[-1]["iteration"] == 30

        # bit-exact, not approximately equal
        assert resumed.metrics["hpwl"]["final"] \
            == reference.metrics["hpwl"]["final"]
        assert resumed.metrics["iterations"] \
            == reference.metrics["iterations"]
        np.testing.assert_array_equal(resumed.result.x, reference.result.x)
        np.testing.assert_array_equal(resumed.result.y, reference.result.y)
        # rc, sHPWL, inflation rounds and router calls carry over too
        assert resumed.metrics["routability"] \
            == reference.metrics["routability"]
        assert resumed.metrics["recoveries"] \
            == reference.metrics["recoveries"]

    def test_resume_without_checkpoint_restarts(self, tmp_path):
        db = make_db()
        store = RunStore(str(tmp_path / "store"))
        outcome = execute_job(gp_spec(), store, db=db, resume=True,
                              checkpoint_every=0)
        assert outcome.ok
        assert outcome.resumed_from is None


# ----------------------------------------------------------------------
class TestExecutePolicy:
    def test_failure_is_isolated_and_recorded(self, tmp_path):
        db = make_db()
        store = RunStore(str(tmp_path / "store"))
        outcome = execute_job(gp_spec(optimizer="levitation"), store,
                              db=db)
        assert outcome.status == STATUS_FAILED
        assert "levitation" in outcome.error
        record = store.load(outcome.job_hash[:16])
        assert record.state == STATUS_FAILED
        assert list(read_events(record.events_path, type="run_failed"))

    @pytest.mark.parametrize("profile", [True, False])
    def test_profile_event(self, tmp_path, profile):
        from repro.obs import active_tracer

        store = RunStore(str(tmp_path / "store"))
        outcome = execute_job(gp_spec(), store, db=make_db(),
                              profile=profile)
        assert outcome.ok
        assert active_tracer() is None  # the private tracer is gone
        # no one asked for a trace, so none is persisted
        assert not os.path.exists(
            os.path.join(outcome.directory, "trace.json"))
        events = list(read_events(
            store.load(outcome.job_hash[:16]).events_path, type="profile"))
        assert len(events) == (1 if profile else 0)
        if profile:
            ops = events[0]["ops"]
            assert {"wl.forward", "density.solve", "gp.step",
                    "stage.gp"} <= set(ops)
            for stats in ops.values():
                assert set(stats) == {"calls", "seconds", "self_seconds",
                                      "alloc_bytes", "peak_bytes"}
            assert ops["wl.forward"]["calls"] >= outcome.result.iterations

    def test_timeout_keeps_checkpoint_not_cached(self, tmp_path,
                                                 monkeypatch):
        db = make_db()
        store = RunStore(str(tmp_path / "store"))
        cache = ResultCache(store)
        import repro.runner.execute as execute_mod

        monkeypatch.setattr(execute_mod, "time", _FakeClock())
        outcome = execute_job(gp_spec(), store, cache=cache, db=db,
                              checkpoint_every=5, timeout=12.0)
        monkeypatch.undo()
        assert outcome.status == STATUS_TIMEOUT
        assert os.path.exists(
            os.path.join(outcome.directory, "checkpoint.pkl"))
        # a timed-out run is not a cache hit; resubmission resumes it
        assert cache.lookup(outcome.job_hash) is None


# ----------------------------------------------------------------------
class TestScheduler:
    def test_expand_sweep_cross_product(self):
        base = gp_spec()
        specs = expand_sweep(base, {"seed": [1, 2, 3],
                                    "target_density": [0.8, 0.9, 1.0]})
        assert len(specs) == 9
        combos = {(s.params.seed, s.params.target_density) for s in specs}
        assert len(combos) == 9
        with pytest.raises(ValueError):
            expand_sweep(base, {"frobnicate": [1]})
        assert expand_sweep(base, {}) == [base]

    def test_three_by_three_sweep_populates_nine_runs(self, tmp_path,
                                                      monkeypatch):
        """Acceptance: 3x3 sweep -> nine populated run directories."""
        db = make_db()
        monkeypatch.setattr(DesignRef, "load", lambda self: db)
        store = RunStore(str(tmp_path / "store"))
        scheduler = Scheduler(store, cache=ResultCache(store))
        base = JobSpec(design=DesignRef("runnertest", scale=1),
                       params=PlacementParams(max_global_iters=40,
                                              min_global_iters=5),
                       stages=("gp",))
        count = scheduler.submit_sweep(
            base, {"seed": [1, 2, 3], "target_density": [0.8, 0.9, 1.0]})
        assert count == 9 and scheduler.pending == 9
        outcomes = scheduler.run()
        assert scheduler.pending == 0
        assert len(outcomes) == 9
        assert all(o.ok for o in outcomes)
        assert len({o.job_hash for o in outcomes}) == 9
        records = store.list_runs()
        assert len(records) == 9
        for record in records:
            assert record.complete
            assert record.metrics["hpwl"]["final"] > 0
            assert os.path.exists(record.events_path)

    def test_warm_design_reuse(self, tmp_path, monkeypatch):
        db = make_db()
        loads = []

        def fake_load(self):
            loads.append(self.name)
            return db

        monkeypatch.setattr(DesignRef, "load", fake_load)
        store = RunStore(str(tmp_path / "store"))
        scheduler = Scheduler(store)
        base = JobSpec(design=DesignRef("runnertest", scale=1),
                       params=PlacementParams(max_global_iters=30,
                                              min_global_iters=5),
                       stages=("gp",))
        scheduler.submit(base)
        scheduler.submit(base.with_param_overrides(seed=2))
        scheduler.run()
        assert loads == ["runnertest"]  # loaded once, reused

    def test_retry_with_backoff_then_give_up(self, tmp_path, monkeypatch):
        db = make_db()
        monkeypatch.setattr(DesignRef, "load", lambda self: db)
        store = RunStore(str(tmp_path / "store"))
        delays = []
        scheduler = Scheduler(store, max_retries=2, backoff=0.5,
                              sleep=delays.append)
        scheduler.submit(gp_spec(optimizer="levitation"))
        outcome = scheduler.run()[0]
        assert outcome.status == STATUS_FAILED
        assert delays == [0.5, 1.0]  # exponential backoff
        record = store.load(outcome.job_hash[:16])
        assert record.status["attempts"] == 3
        retries = list(read_events(record.events_path, type="retry"))
        assert [r["attempt"] for r in retries] == [1, 2]

    def test_bad_design_is_isolated(self, tmp_path):
        store = RunStore(str(tmp_path / "store"))
        scheduler = Scheduler(store, max_retries=0)
        scheduler.submit(JobSpec(
            design=DesignRef("no-such-design-anywhere"), stages=("gp",)))
        outcomes = scheduler.run()
        assert outcomes[0].status == STATUS_FAILED
        assert "design load failed" in outcomes[0].error


# ----------------------------------------------------------------------
class TestSeedUnification:
    def test_one_default_seed_everywhere(self):
        assert DEFAULT_SEED == 42
        assert PlacementParams().seed == DEFAULT_SEED
        assert CircuitSpec(name="x", num_cells=2).seed == DEFAULT_SEED

    def test_cli_defaults_match(self):
        from repro.cli import build_parser

        parser = build_parser()
        assert parser.parse_args(["place", "d"]).seed == DEFAULT_SEED
        assert parser.parse_args(
            ["generate", "d", "--output", "o"]).seed == DEFAULT_SEED


# ----------------------------------------------------------------------
class TestCli:
    def run_cli(self, *argv) -> int:
        from repro.cli import main

        return main(list(argv))

    def test_place_json_creates_parent_dirs(self, tmp_path, capsys):
        gen_dir = tmp_path / "gen"
        self.run_cli("generate", "cj", "--cells", "80", "--output",
                     str(gen_dir))
        json_path = tmp_path / "deep" / "nested" / "metrics.json"
        svg_path = tmp_path / "deeper" / "plot.svg"
        code = self.run_cli("place", str(gen_dir / "cj.aux"), "--no-dp",
                            "--json", str(json_path),
                            "--svg", str(svg_path))
        assert code == 0
        assert svg_path.exists()
        metrics = json.loads(json_path.read_text())
        assert set(metrics) >= {"hpwl", "overflow", "iterations",
                                "runtime", "legal"}
        assert metrics["hpwl"]["final"] > 0

        report_json = tmp_path / "r" / "report.json"
        code = self.run_cli("report", str(gen_dir / "cj.aux"),
                            "--json", str(report_json))
        assert code == 0
        report = json.loads(report_json.read_text())
        assert report["hpwl"]["final"] > 0
        assert report["design"]["num_cells"] >= 80  # movables + pads

    def test_sweep_resume_runs_verbs(self, tmp_path, capsys, monkeypatch):
        db = make_db()
        monkeypatch.setattr(DesignRef, "load", lambda self: db)
        store = str(tmp_path / "store")
        code = self.run_cli(
            "sweep", "runnertest", "--store", store, "--stages", "gp",
            "--param", "seed=1,2", "--param", "max_global_iters=40",
            "--json", str(tmp_path / "sweep.json"))
        assert code == 0
        out = capsys.readouterr().out
        assert "sweep: 2 job(s)" in out
        payload = json.loads((tmp_path / "sweep.json").read_text())
        assert len(payload["outcomes"]) == 2
        assert all(o["status"] == "complete"
                   for o in payload["outcomes"])

        # identical resubmission: pure cache hits
        code = self.run_cli(
            "sweep", "runnertest", "--store", store, "--stages", "gp",
            "--param", "seed=1,2", "--param", "max_global_iters=40")
        assert code == 0
        assert "cache: 2 hit(s), 0 miss(es)" in capsys.readouterr().out

        code = self.run_cli("runs", "--store", store)
        assert code == 0
        listing = capsys.readouterr().out
        assert "complete" in listing
        short = payload["outcomes"][0]["job_hash"][:16]
        assert short in listing

        code = self.run_cli("runs", short, "--store", store)
        assert code == 0
        detail = capsys.readouterr().out
        assert "cache_hit=1" in detail

        code = self.run_cli("resume", short, "--store", store)
        assert code == 0
        assert "resum" in capsys.readouterr().out

    def test_batch_verb(self, tmp_path, capsys, monkeypatch):
        db = make_db()
        monkeypatch.setattr(DesignRef, "load", lambda self: db)
        specfile = tmp_path / "jobs.json"
        specfile.write_text(json.dumps({"jobs": [
            {"design": "runnertest", "stages": ["gp"],
             "params": {"max_global_iters": 40}},
            {"design": "runnertest", "stages": ["gp"],
             "params": {"max_global_iters": 40, "seed": 2}},
        ]}))
        store = str(tmp_path / "store")
        code = self.run_cli("batch", str(specfile), "--store", store)
        assert code == 0
        out = capsys.readouterr().out
        assert "batch: 2 job(s)" in out
        assert len(RunStore(store).list_runs()) == 2

    def test_workers_flag_parses(self):
        from repro.cli import build_parser

        parser = build_parser()
        assert parser.parse_args(["sweep", "d"]).workers == 1
        assert parser.parse_args(
            ["sweep", "d", "--workers", "4"]).workers == 4
        assert parser.parse_args(
            ["batch", "jobs.json", "--workers", "2"]).workers == 2


# ----------------------------------------------------------------------
class TestArtifactErrorRegression:
    """A failed Bookshelf write must not produce silent artifact-less
    cache hits (it used to emit RUN_FAILED then mark complete anyway)."""

    def test_bookshelf_failure_completes_but_degraded(self, tmp_path,
                                                      monkeypatch):
        import repro.bookshelf as bookshelf

        def boom(db, directory):
            raise OSError("disk full")

        monkeypatch.setattr(bookshelf, "write_bookshelf", boom)
        db = make_db()
        store = RunStore(str(tmp_path / "store"))
        cache = ResultCache(store)
        outcome = execute_job(gp_spec(), store, cache=cache, db=db)
        # metrics persisted, so the run is complete — but flagged
        assert outcome.ok
        assert "disk full" in outcome.artifact_error
        record = store.load(outcome.job_hash[:16])
        assert record.state == STATUS_COMPLETE
        assert "disk full" in record.artifact_error
        counts = count_events(record.events_path)
        assert counts["artifact_error"] == 1
        assert counts.get("run_failed", 0) == 0  # not a failure event

        # the cache serves the hit but surfaces the degraded state
        hit = execute_job(gp_spec(), store, cache=cache, db=db)
        assert hit.cached and hit.ok
        assert "disk full" in hit.artifact_error
        assert cache.stats.hits == 1
        assert cache.stats.degraded_hits == 1

    def test_metrics_failure_fails_the_run(self, tmp_path, monkeypatch):
        from repro.runner.store import RunHandle

        def boom(self, metrics):
            raise OSError("disk full")

        monkeypatch.setattr(RunHandle, "write_metrics", boom)
        db = make_db()
        store = RunStore(str(tmp_path / "store"))
        cache = ResultCache(store)
        outcome = execute_job(gp_spec(), store, cache=cache, db=db)
        assert outcome.status == STATUS_FAILED
        assert "metrics write failed" in outcome.error
        assert store.load(outcome.job_hash[:16]).state == STATUS_FAILED
        monkeypatch.undo()
        assert cache.lookup(outcome.job_hash) is None  # never a hit


# ----------------------------------------------------------------------
class TestDesignLoadFailureRegression:
    """A design-load failure must leave a visible run directory (it
    used to return an outcome with empty hash/directory — no status,
    no events, invisible to `runs`/`resume`)."""

    def test_load_failure_persists_a_run(self, tmp_path):
        store = RunStore(str(tmp_path / "store"))
        scheduler = Scheduler(store, max_retries=0)
        scheduler.submit(JobSpec(
            design=DesignRef("no-such-design-anywhere"), stages=("gp",)))
        outcome = scheduler.run()[0]
        assert outcome.status == STATUS_FAILED
        assert "design load failed" in outcome.error
        # the failure now has a home in the store
        assert outcome.job_hash and outcome.directory
        assert os.path.isdir(outcome.directory)
        record = store.load(outcome.job_hash[:16])
        assert record.state == STATUS_FAILED
        assert "design load failed" in record.status["error"]
        assert list(read_events(record.events_path, type="run_failed"))
        assert record.load_spec().design.name == "no-such-design-anywhere"

    def test_fallback_hash_is_deterministic_and_distinct(self):
        spec = JobSpec(design=DesignRef("missing"), stages=("gp",))
        assert spec.fallback_hash() == spec.fallback_hash()
        other_design = JobSpec(design=DesignRef("missing2"),
                               stages=("gp",))
        assert spec.fallback_hash() != other_design.fallback_hash()
        other_params = spec.with_param_overrides(seed=123)
        assert spec.fallback_hash() != other_params.fallback_hash()
        # retries of the same broken job share one directory
        assert JobSpec(design=DesignRef("missing"),
                       stages=("gp",)).fallback_hash() \
            == spec.fallback_hash()


# ----------------------------------------------------------------------
class TestTimeoutClockRegression:
    """The cooperative deadline must start at entry, not after the
    design load — a cold load used to escape the budget entirely."""

    def test_design_load_counts_against_the_budget(self, tmp_path,
                                                   monkeypatch):
        db = make_db()
        import repro.runner.execute as execute_mod

        clock = _FakeClock()
        monkeypatch.setattr(execute_mod, "time", clock)

        def slow_load(self):
            clock.now += 10.0  # the load burns 10 "seconds"
            return db

        monkeypatch.setattr(DesignRef, "load", slow_load)
        # budget 5s, load costs 10s: with the deadline started at entry
        # the very first iteration must observe the blown budget
        outcome = execute_job(gp_spec(), RunStore(str(tmp_path / "s")),
                              timeout=5.0)
        assert outcome.status == STATUS_TIMEOUT
        events = list(read_events(
            os.path.join(outcome.directory, "events.jsonl"),
            type="timeout"))
        assert events and events[-1]["iteration"] == 1


# ----------------------------------------------------------------------
class TestQueueDiscipline:
    """The queue is a deque drained with popleft — O(1) per job instead
    of list.pop(0)'s O(n) shift — and stays strictly FIFO."""

    def test_queue_is_a_deque_and_fifo(self, tmp_path, monkeypatch):
        from collections import deque

        import repro.runner.scheduler as sched_mod

        ran = []

        def stub_execute(spec, store, **kwargs):
            ran.append(spec.params.seed)
            return JobOutcomeStub(spec)

        class JobOutcomeStub:
            def __init__(self, spec):
                self.job_hash = "0" * 64
                self.directory = ""
                self.status = STATUS_COMPLETE
                self.design = spec.design.name
                self.cached = False
                self.ok = True

        monkeypatch.setattr(sched_mod, "execute_job", stub_execute)
        scheduler = Scheduler(RunStore(str(tmp_path / "store")))
        assert isinstance(scheduler._queue, deque)
        for seed in (3, 1, 2):
            scheduler.submit(gp_spec(seed=seed))
        outcomes = scheduler.run()
        assert ran == [3, 1, 2]  # submission order, not sorted
        assert len(outcomes) == 3


# ----------------------------------------------------------------------
class TestRunLease:
    """Advisory per-run locks: contention, stealing, orphan recovery."""

    def test_second_open_of_a_locked_run_raises(self, tmp_path):
        store = RunStore(str(tmp_path / "store"))
        spec = gp_spec()
        handle = store.open_run(spec, "ab" * 32)
        with pytest.raises(RunLocked):
            store.open_run(spec, "ab" * 32)
        handle.close()  # releasing the lease frees the run
        store.open_run(spec, "ab" * 32).close()

    def test_dead_owner_lease_is_stolen(self, tmp_path):
        import socket
        import time as time_mod

        store = RunStore(str(tmp_path / "store"))
        spec = gp_spec()
        directory = store.run_dir("cd" * 32)
        os.makedirs(directory)
        _atomic_write_json(os.path.join(directory, "lock.json"), {
            "pid": _dead_pid(), "host": socket.gethostname(),
            "heartbeat": time_mod.time(),  # fresh — pid check must win
        })
        handle = store.open_run(spec, "cd" * 32)  # steals, no raise
        assert handle.lease is not None
        handle.close()

    def test_expired_heartbeat_is_stolen_live_is_not(self, tmp_path):
        import time as time_mod

        store = RunStore(str(tmp_path / "store"))
        spec = gp_spec()
        directory = store.run_dir("ef" * 32)
        os.makedirs(directory)
        lock_path = os.path.join(directory, "lock.json")
        # another *host* (pid liveness unknowable) with an expired lease
        _atomic_write_json(lock_path, {
            "pid": 1, "host": "some-other-host",
            "heartbeat": time_mod.time() - 9999.0,
        })
        store.open_run(spec, "ef" * 32).close()
        # fresh heartbeat from another host: genuinely held
        _atomic_write_json(lock_path, {
            "pid": 1, "host": "some-other-host",
            "heartbeat": time_mod.time(),
        })
        with pytest.raises(RunLocked):
            store.open_run(spec, "ef" * 32)

    def test_recover_orphans_marks_failed_with_checkpoint(
            self, tmp_path, monkeypatch):
        import socket
        import time as time_mod

        db = make_db()
        store = RunStore(str(tmp_path / "store"))
        cache = ResultCache(store)
        import repro.runner.execute as execute_mod

        # leave a checkpoint behind via a deterministic timeout
        monkeypatch.setattr(execute_mod, "time", _FakeClock())
        killed = execute_job(gp_spec(), store, db=db,
                             checkpoint_every=10, timeout=12.0)
        monkeypatch.undo()
        assert os.path.exists(
            os.path.join(killed.directory, "checkpoint.pkl"))

        # simulate SIGKILL: status stuck `running`, stale lock on disk
        status_path = os.path.join(killed.directory, "status.json")
        status = json.loads(open(status_path).read())
        status["status"] = STATUS_RUNNING
        _atomic_write_json(status_path, status)
        _atomic_write_json(os.path.join(killed.directory, "lock.json"), {
            "pid": _dead_pid(), "host": socket.gethostname(),
            "heartbeat": time_mod.time(),
        })

        recovered = store.recover_orphans()
        assert [r.job_hash for r in recovered] == [killed.job_hash]
        record = store.load(killed.job_hash[:16])
        assert record.state == STATUS_FAILED
        assert record.status["orphaned"] is True
        assert "orphaned" in record.status["error"]
        assert not os.path.exists(record.lock_path)  # lock cleared
        assert os.path.exists(record.checkpoint_path)  # kept
        assert list(read_events(record.events_path, type="orphaned"))
        assert cache.lookup(killed.job_hash) is None  # not a hit

        # ...and the orphan is resumable from its checkpoint
        resumed = execute_job(gp_spec(), store, db=db, resume=True)
        assert resumed.ok
        assert resumed.resumed_from == 10

    def test_recover_orphans_spares_live_runs(self, tmp_path):
        store = RunStore(str(tmp_path / "store"))
        handle = store.open_run(gp_spec(), "aa" * 32)
        handle.set_status(STATUS_RUNNING, attempts=1)
        assert store.recover_orphans() == []  # our own live lease
        handle.close()
