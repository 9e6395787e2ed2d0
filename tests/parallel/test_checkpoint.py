"""Checkpoint/restore must continue a run bit-for-bit.

The acceptance bar is <= 1e-9 degrees C against an unsharded golden
run; the implementation round-trips every float verbatim (and the fault
RNG by internal state), so these tests assert exact equality — any
drift at all is a regression.
"""

import json

import pytest

from repro.cluster.simulation import ClusterSimulation, chaos_script
from repro.core.compiled import have_numpy
from repro.errors import ClusterError
from repro.faults.injector import FaultInjector
from repro.parallel import RunSpec, execute_spec
from repro.parallel.batch import BatchMember, BatchRunner, run_batch
from repro.parallel.engine import build_simulation


def _chaos_simulation(engine="python"):
    return ClusterSimulation(
        policy="freon",
        fiddle_script=chaos_script(),
        injector=FaultInjector(seed=11),
        engine=engine,
    )


def _run(simulation, ticks):
    for _ in range(ticks):
        simulation.step()


def _temperatures(simulation):
    return {
        name: simulation.solver.temperature(name, "CPU")
        for name in simulation.machines
    }


def _record_dicts(simulation):
    return [simulation._record_to_dict(r) for r in simulation.records]


class TestCheckpointRestore:
    #: Split point and horizon; crosses the t=480 emergency and the
    #: t=1060 tempd crash, so the resumed half replays real activity.
    SPLIT, END = 700, 1200

    @pytest.mark.parametrize(
        "policy", ["freon", "freon-ec", "traditional", "local-dvfs"]
    )
    def test_split_run_matches_golden(self, policy):
        golden = ClusterSimulation(policy=policy, fiddle_script=chaos_script(),
                                   injector=FaultInjector(seed=11))
        _run(golden, self.END)

        first = ClusterSimulation(policy=policy, fiddle_script=chaos_script(),
                                  injector=FaultInjector(seed=11))
        _run(first, self.SPLIT)
        # Force the plain-data contract: the checkpoint must survive
        # JSON, which is what a worker->parent hop serializes.
        state = json.loads(json.dumps(first.checkpoint()))

        second = ClusterSimulation(policy=policy, fiddle_script=chaos_script(),
                                   injector=FaultInjector(seed=11))
        second.apply_checkpoint(state)
        _run(second, self.END - self.SPLIT)

        assert _temperatures(second) == _temperatures(golden)
        assert _record_dicts(second) == _record_dicts(golden)
        assert second.result().fault_log == golden.result().fault_log
        assert second.result().adjustments == golden.result().adjustments

    @pytest.mark.skipif(not have_numpy(), reason="compiled engine needs numpy")
    def test_compiled_engine_round_trip(self):
        golden = _chaos_simulation(engine="compiled")
        _run(golden, self.END)

        first = _chaos_simulation(engine="compiled")
        _run(first, self.SPLIT)
        state = json.loads(json.dumps(first.checkpoint()))
        second = _chaos_simulation(engine="compiled")
        second.apply_checkpoint(state)
        _run(second, self.END - self.SPLIT)

        assert _temperatures(second) == _temperatures(golden)
        assert _record_dicts(second) == _record_dicts(golden)

    def test_restore_preserves_the_rng_stream(self):
        # Two sims checkpointed at the same tick draw identical fault
        # randomness afterwards; a third that never checkpointed is the
        # control.  (The chaos scenario's loss faults draw every send.)
        first = _chaos_simulation()
        _run(first, self.SPLIT)
        state = first.checkpoint()
        resumed = _chaos_simulation()
        resumed.apply_checkpoint(state)
        for sim in (first, resumed):
            _run(sim, 200)
        assert first.injector.checkpoint() == resumed.injector.checkpoint()

    def test_pause_mid_tempd_period_resumes_bit_exact(self):
        # Pause at t=90 — between the t=60 and t=120 tempd wakes and off
        # every daemon grid except admd's 5 s stats — so the resumed run
        # only stays aligned if the pending event queue itself was
        # checkpointed.  Then compare bit-for-bit with an unpaused run.
        golden = _chaos_simulation()
        _run(golden, 240)

        first = _chaos_simulation()
        _run(first, 90)
        state = json.loads(json.dumps(first.checkpoint()))
        # The wake cadence must be in the snapshot, not re-derived.
        kinds = {event[3] for event in state["kernel"]["events"]}
        assert "wake" in kinds and "tick" in kinds
        wakes = [e for e in state["kernel"]["events"] if e[3] == "wake"]
        assert {w[0] for w in wakes} == {120.0}

        second = _chaos_simulation()
        second.apply_checkpoint(state)
        _run(second, 150)

        assert _temperatures(second) == _temperatures(golden)
        assert _record_dicts(second) == _record_dicts(golden)
        assert second.result().adjustments == golden.result().adjustments
        assert (
            second.kernel.checkpoint()["events"]
            == golden.kernel.checkpoint()["events"]
        )

    def test_pause_mid_chaos_with_datagram_in_flight(self):
        # Freon-EC under the chaos storm, with a 2.5 s network delay and
        # the tempd crash moved to t=1019: paused at t=1021, machine 1's
        # tempd is down (the watchdog restarts it at t=1030) and the
        # t=1020 datagrams are still in flight.
        script = "fault net delay 2.5\n" + chaos_script(crash_time=1019.0)

        def build():
            return ClusterSimulation(
                policy="freon-ec", fiddle_script=script,
                injector=FaultInjector(seed=11),
            )

        golden = build()
        _run(golden, 1500)

        first = build()
        _run(first, 1021)
        state = json.loads(json.dumps(first.checkpoint()))
        assert state["channel"]["pending"]
        assert [m for m, _, _ in first.injector.crashed_daemons()] == [
            "machine1"
        ]

        second = build()
        second.apply_checkpoint(state)
        _run(second, 1500 - 1021)

        assert _record_dicts(second) == _record_dicts(golden)
        ours, theirs = second.result(), golden.result()
        assert ours.ec_events == theirs.ec_events
        assert ours.adjustments == theirs.adjustments
        assert ours.releases == theirs.releases
        assert ours.restarts == theirs.restarts
        assert ours.datagram_stats == theirs.datagram_stats
        assert len(theirs.restarts) == 1 and len(theirs.ec_events) > 0
        assert json.dumps(second.controller.checkpoint()) == json.dumps(
            golden.controller.checkpoint()
        )

    def test_version_mismatch_rejected(self):
        simulation = _chaos_simulation()
        state = simulation.checkpoint()
        state["version"] = 999
        with pytest.raises(ClusterError, match="version"):
            simulation.apply_checkpoint(state)

    def test_policy_mismatch_rejected(self):
        simulation = _chaos_simulation()
        state = simulation.checkpoint()
        other = ClusterSimulation(policy="traditional")
        with pytest.raises(ClusterError, match="policy"):
            other.apply_checkpoint(state)

    def test_checkpoint_is_json_able(self):
        simulation = _chaos_simulation()
        _run(simulation, 50)
        text = json.dumps(simulation.checkpoint())
        assert json.loads(text)["time"] == 50.0


@pytest.mark.skipif(not have_numpy(), reason="the batched engine needs numpy")
class TestBatchedCheckpointResume:
    """An in-flight batched sweep pauses and resumes bit-exactly.

    ``BatchRunner.checkpoints()`` promises snapshots identical to the
    ones ``execute_spec`` would take at the same tick, so a paused
    batch may resume on either path (and a paused sequential run may
    resume batched) with byte-identical results.
    """

    #: Past the t=480 emergencies, so the paused state carries fiddled
    #: inlets, Freon weight adjustments, and a drained event backlog.
    SPLIT, DURATION = 500, 560.0

    def _specs(self):
        return [
            RunSpec(run_id="pause-a", policy="freon", engine="compiled",
                    scenario="emergency", duration=self.DURATION),
            RunSpec(run_id="pause-b", policy="freon-ec", engine="compiled",
                    scenario="chaos", duration=self.DURATION, seed=3),
            # An inline (pool-refused) member: its checkpoints must ride
            # the same lockstep cadence as its pooled neighbors'.
            RunSpec(run_id="pause-c", policy="traditional", engine="python",
                    scenario="emergency", duration=self.DURATION),
        ]

    def _paused_runner(self, specs):
        members = [BatchMember(s, build_simulation(s)) for s in specs]
        runner = BatchRunner(members)
        assert runner.run_ticks(self.SPLIT) == self.SPLIT
        return runner

    def test_batched_checkpoints_equal_sequential_checkpoints(self):
        specs = self._specs()
        runner = self._paused_runner(specs)
        snapshots = runner.checkpoints()
        assert sorted(snapshots) == sorted(s.run_id for s in specs)
        for spec in specs:
            solo = build_simulation(spec)
            _run(solo, self.SPLIT)
            assert (
                json.dumps(snapshots[spec.run_id], sort_keys=True)
                == json.dumps(solo.checkpoint(), sort_keys=True)
            ), f"{spec.run_id}: batched snapshot differs from sequential"

    def test_paused_batch_resumes_bit_exact_on_either_path(self):
        specs = self._specs()
        runner = self._paused_runner(specs)
        # The worker->parent hop serializes; force the plain-data form.
        snapshots = json.loads(json.dumps(runner.checkpoints()))

        batched = run_batch(specs, checkpoints=snapshots)
        sequential = [
            execute_spec(spec, checkpoint=snapshots[spec.run_id])
            for spec in specs
        ]
        unpaused = [execute_spec(spec) for spec in specs]
        for spec, via_batch, via_seq, golden in zip(
            specs, batched, sequential, unpaused
        ):
            assert via_batch.resumed and via_seq.resumed
            # Both resume paths agree byte-for-byte, registry included.
            assert (
                json.dumps(via_batch.to_dict(), sort_keys=True)
                == json.dumps(via_seq.to_dict(), sort_keys=True)
            ), f"{spec.run_id}: resume paths diverged"
            # And the physics matches a never-paused run exactly (the
            # registry legitimately differs: a resumed run's telemetry
            # covers only the tail).
            want = golden.to_dict()
            got = via_batch.to_dict()
            assert got["records"] == want["records"]
            assert got["summary"] == want["summary"]

    def test_sequential_pause_resumes_batched(self):
        spec = self._specs()[0]
        solo = build_simulation(spec)
        _run(solo, self.SPLIT)
        snapshot = json.loads(json.dumps(solo.checkpoint()))
        (resumed,) = run_batch([spec], checkpoints={spec.run_id: snapshot})
        assert resumed.resumed
        golden = execute_spec(spec)
        assert resumed.to_dict()["records"] == golden.to_dict()["records"]
        assert resumed.to_dict()["summary"] == golden.to_dict()["summary"]
