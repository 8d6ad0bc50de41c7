"""The SI-paper-style black-box proof: readers racing a committing engine.

Reader threads query with ``consistency="latest"`` — the lock-free mode that
never flushes — while a writer drives the engine through a mutated event
stream.  Every read records ``(version observed, canonical result)``; the
history is then verified the way the snapshot-isolation checker treats a
database as a black box:

* **atomicity** — each observed result is bit-identical to a from-scratch
  execution against the committed snapshot of the version it claims (a read
  that saw half a commit cannot match any single version);
* **monotonic reads** — no thread's observed versions ever decrease.

The snapshot ring's ``retain`` is raised so every version survives to be
re-executed — no read escapes verification.  ``HYPOTHESIS_PROFILE=extended``
(the weekly CI job) multiplies the reader workload.
"""

from __future__ import annotations

import os
import threading

import pytest

from repro.datagen.scenarios import ScenarioConfig, generate_scenario
from repro.live.replay import scenario_event_stream
from repro.readpath import run_concurrent_readers, verify_history
from repro.session import FlexSession
from repro.session.spec import QuerySpec

EXTENDED = os.environ.get("HYPOTHESIS_PROFILE", "") == "extended"
READS_PER_THREAD = 120 if EXTENDED else 25
READER_THREADS = 6 if EXTENDED else 4


@pytest.fixture(scope="module")
def race_scenario():
    return generate_scenario(ScenarioConfig(prosumer_count=40, seed=17))


def _specs(session, scenario):
    regions = sorted({offer.region for offer in scenario.offers_in_arrival_order()})
    return [
        QuerySpec(),
        QuerySpec.build(state="assigned"),
        QuerySpec.build(parameters=session.parameters),
        QuerySpec.build(region=regions[0] if regions else "Capital"),
    ]


@pytest.mark.parametrize("engine", ("live",))
def test_concurrent_reads_are_atomic_and_monotonic(engine, race_scenario):
    with FlexSession(race_scenario, engine=engine, live_preload=False) as session:
        backend = session.engine
        backend.readpath.manager.retain = 100_000  # verify every read
        events = scenario_event_stream(
            race_scenario, update_fraction=0.4, withdraw_fraction=0.2, seed=3
        ).replay_order()

        failures: list[BaseException] = []

        def writer() -> None:
            try:
                for index, event in enumerate(events):
                    session.ingest(event)
                    if index % 40 == 39:
                        session.commit()
                session.commit()
            except BaseException as exc:  # pragma: no cover - surfaced below
                failures.append(exc)

        thread = threading.Thread(target=writer, name="writer")
        thread.start()
        try:
            history = run_concurrent_readers(
                session,
                _specs(session, race_scenario),
                threads=READER_THREADS,
                reads_per_thread=READS_PER_THREAD,
            )
        finally:
            thread.join()
        assert not failures, failures
        backend.refresh()
        assert len(history) == READER_THREADS * READS_PER_THREAD
        violations = verify_history(history, backend)
        assert violations == [], "\n".join(violations)
        # The race was real: the engine committed while readers were reading.
        assert backend.readpath.manager.latest_version > 1


def test_checker_flags_a_torn_history(race_scenario):
    """The checker itself is falsifiable: a fabricated mixed-version read and
    a backwards read both surface as violations."""
    from collections import Counter

    from repro.readpath import ReadHistory, ReadObservation

    with FlexSession(race_scenario, engine="live") as session:
        backend = session.engine
        spec = QuerySpec()
        honest = session.query(spec)
        history = ReadHistory()
        history.record(0, 0, spec, honest)
        # A torn read: claims the honest version but saw different content.
        history.observations.append(
            ReadObservation(
                thread=0,
                sequence=1,
                version=honest.version,
                spec=spec,
                canonical=Counter({"not-a-real-offer": 1}),
            )
        )
        # Time travel: the same thread then reports an older version.
        history.observations.append(
            ReadObservation(
                thread=0,
                sequence=2,
                version=honest.version - 1,
                spec=spec,
                canonical=honest.canonical(),
            )
        )
        violations = verify_history(history, backend)
        assert any("torn read" in violation for violation in violations)
        assert any("time travel" in violation for violation in violations)
