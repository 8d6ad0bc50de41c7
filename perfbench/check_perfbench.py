"""The benchmark's own tests (not part of the repository's tier-1 suite).

    python3 -m pytest perfbench/check_perfbench.py -q

They pin what the measurements rest on: inputs are a pure function of the
seed, every generated event replays cleanly through a fresh ``live``
session while the population stays near its starting size, the traced run
does exactly the untraced run's work and checks, and the benchmark refuses
to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.session import FlexSession  # noqa: E402

from perfbench import harness, inputs, layers  # noqa: E402
from perfbench.oracle import Population  # noqa: E402

SEED = 43
#: Small enough to keep the event pools short; the scenario is full size.
SECONDS = 1.0
WORKLOADS = ("stream", "explore", "recover")


@pytest.fixture(scope="module")
def generated() -> dict[str, inputs.Inputs]:
    return {workload: inputs.generate(workload, SEED, SECONDS) for workload in WORKLOADS}


def fingerprint(generated: inputs.Inputs) -> tuple:
    """The scenario, then the workload's own inputs."""
    return (
        tuple(generated.scenario.flex_offers),
        (generated.stream, generated.tail, generated.script),
        generated.hot_region,
        generated.stream_region,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_inputs(generated, workload):
    again = inputs.generate(workload, SEED, SECONDS)
    assert fingerprint(again) == fingerprint(generated[workload])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_another_seed_gives_different_inputs(generated, workload):
    theirs = fingerprint(inputs.generate(workload, SEED + 1, SECONDS))
    ours = fingerprint(generated[workload])
    assert theirs[0] != ours[0]
    assert theirs[1] != ours[1]


def test_only_the_running_workload_inputs_are_generated(generated):
    assert generated["stream"].tail is None and generated["stream"].script == ()
    assert generated["explore"].stream == () and generated["explore"].tail is None
    assert generated["recover"].stream == () and generated["recover"].script == ()


def _replay(generated: inputs.Inputs, batches) -> tuple[FlexSession, Population, list[int]]:
    session = FlexSession(generated.scenario, engine="live", parameters=generated.parameters)
    population = Population(generated.scenario.flex_offers)
    sizes = []
    for batch in batches:
        session.ingest_many(batch.events)
        session.commit()
        population.apply(batch)
        sizes.append(len(session.live.offers()))
    return session, population, sizes


@pytest.mark.parametrize("workload", WORKLOADS)
def test_events_replay_cleanly_and_keep_the_population(generated, workload):
    ours = generated[workload]
    # Each sequence starts from the scenario's population on a fresh session.
    sequences = {
        "stream": ours.stream,
        "recover": ((ours.tail,),),
        "explore": (tuple(action.batch for action in ours.script if action.kind == "write"),),
    }[workload]
    start = len(ours.scenario.flex_offers)
    for batches in sequences:
        # Any engine error raises out of ingest/commit and fails the test.
        session, population, sizes = _replay(ours, batches)
        assert session.live.offers() == population.sorted()
        assert all(abs(size - start) <= 0.02 * start for size in sizes)


def test_explore_deck_shares(generated):
    script = generated["explore"].script
    analyst = [action.kind for action in script if action.kind != "write"]
    deck = sum(count for _, count in inputs.EXPLORE_DECK)
    head = analyst[: deck * (len(analyst) // deck)]
    for kind, count in inputs.EXPLORE_DECK:
        assert head.count(kind) == count * len(head) // deck


def test_tracer_restores_every_patched_name():
    def resolve(owner_path: str, attribute: str):
        module_name, _, class_name = owner_path.partition(":")
        owner = sys.modules[module_name]
        return (getattr(owner, class_name).__dict__ if class_name else vars(owner))[attribute]

    import importlib

    for _, owner_path, _ in layers.TARGETS:
        importlib.import_module(owner_path.partition(":")[0])
    before = [resolve(owner, attribute) for _, owner, attribute in layers.TARGETS]
    tracer = layers.LayerTracer()
    tracer.install()
    try:
        assert all(
            resolve(owner, attribute) is not original
            for (_, owner, attribute), original in zip(layers.TARGETS, before)
        )
    finally:
        tracer.uninstall()
    after = [resolve(owner, attribute) for _, owner, attribute in layers.TARGETS]
    assert all(a is b for a, b in zip(after, before))


@pytest.mark.parametrize("workload, units", [("stream", 6), ("explore", 60), ("recover", 4)])
def test_traced_run_does_the_untraced_run_work(tmp_path, workload, units):
    def measure(trace: bool) -> dict:
        return harness.run(
            workload, SEED, 2.0, trace, max_units=units, prosumers=900, workroot=tmp_path
        )

    plain, traced = measure(False), measure(True)
    assert plain["failures"] == traced["failures"] == []
    for key in ("attempted", "checks", "units"):
        assert plain[key] == traced[key]
    assert plain["units"] == units
    assert traced["metrics"]["trace.ops"][0] > 0
    assert traced["metrics"]["trace.coverage"][0] >= 0.9

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for report, section in ((plain, "end_to_end"), (traced, "per_layer")):
        assert [(name, unit) for name, (_, unit, _) in report["metrics"].items()] == [
            (metric["name"], metric["unit"]) for metric in declared[section]
        ]
    assert list(tmp_path.iterdir()) == []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    finished = subprocess.run(
        [sys.executable, *command[1:], "--workload", "stream", "--seed", "1", "--seconds", "1"]
        + ["--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert finished.returncode != 0
    assert '"metrics"' not in finished.stdout
