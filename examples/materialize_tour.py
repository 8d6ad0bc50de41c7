"""A guided tour of materialized views: standing queries maintained from
commit deltas instead of re-execution.

Run with::

    python examples/materialize_tour.py

The script registers two standing specs over a live session — a raw regional
selection and a full aggregation — then streams a mutated/withdrawn event
stream through the engine and shows that the views stay current without a
single re-query: per-commit maintenance tests only the offers the commit
touched, commits that never intersect a view cost it a version bump, and
the result is bit-identical to a from-scratch ``session.query(spec)`` at any
point you care to check.  The finale opens a dashboard tab over one view and shows
the identity-diff redraw: after a commit that touched one aggregate, the
tab's ``sync()`` reports exactly the changed offers, nothing else.
"""

from __future__ import annotations

from repro.datagen import ScenarioConfig, generate_scenario
from repro.live.replay import scenario_event_stream
from repro.session import FlexSession, QuerySpec
from repro.views import ViewKind, VisualAnalysisFramework


def main() -> None:
    scenario = generate_scenario(ScenarioConfig(prosumer_count=80, seed=21))
    session = FlexSession(scenario, engine="live", live_preload=False)

    # ------------------------------------------------------------------
    # 1. Register standing specs — they are maintained, not re-run.
    # ------------------------------------------------------------------
    capital = session.materialize(QuerySpec.build(region="Capital"), name="capital")
    dashboard = session.materialize(
        session.offers().aggregate(session.parameters), name="dashboard"
    )
    print(f"registered: {[v.name for v in session.materialized_views]}")

    # ------------------------------------------------------------------
    # 2. Stream mutations and withdrawals through the engine.
    # ------------------------------------------------------------------
    stream = scenario_event_stream(
        scenario, update_fraction=0.25, withdraw_fraction=0.1, seed=3
    )
    for index, event in enumerate(stream.replay_order(), start=1):
        session.ingest(event)
        if index % 20 == 0:  # commit in batches so the delta path does real work
            session.commit()
    session.commit()

    for view in (capital, dashboard):
        stats = view.stats()
        fresh = session.query(view.spec)
        assert fresh.matches(view.result), f"{view.name} diverged"
        print(
            f"  {view.name:>9}: v{view.version}, {len(view.result.offers)} offers, "
            f"{stats['deltas_applied']} deltas applied, "
            f"{stats['commits_skipped']} commits skipped, "
            f"maintenance {stats['maintenance_seconds'] * 1000:.2f} ms "
            f"(== from-scratch query: True)"
        )

    # The regional view skipped every commit that only touched other regions;
    # its version still tracks the read path's published snapshot.
    assert capital.version == session.engine.readpath.manager.latest_version
    assert capital.staleness == 0

    # ------------------------------------------------------------------
    # 3. The UI loop: a tab that redraws only what changed.
    # ------------------------------------------------------------------
    framework = VisualAnalysisFramework.from_session(session)
    tab = framework.open_materialized_tab(dashboard, kind=ViewKind.DASHBOARD)
    changed, removed = tab.sync()
    print(f"  tab {tab.title!r}: nothing to redraw yet -> {(len(changed), len(removed))}")

    victim = next(o for o in session.engine.offers() if not o.is_aggregate)
    from repro.live.events import OfferWithdrawn

    session.ingest(OfferWithdrawn(victim.assignment_deadline, victim.id))
    session.commit()
    changed, removed = tab.sync()
    print(
        f"  after withdrawing offer {victim.id}: redraw {len(changed)} changed "
        f"aggregate(s), {len(removed)} removed — the rest are identical objects"
    )

    # ------------------------------------------------------------------
    # 4. Views follow the session across engine swaps and replays.
    # ------------------------------------------------------------------
    session.use_engine("async")
    session.commit()
    assert session.query(dashboard.spec).matches(dashboard.result)
    print(f"  after use_engine('async'): dashboard still current at v{dashboard.version}")

    session.replay(update_fraction=0.2, withdraw_fraction=0.05, engine="live")
    session.commit()
    assert session.query(dashboard.spec).matches(dashboard.result)
    print(
        f"  after replay(engine='live'): re-based ({dashboard.refreshes} refresh) "
        f"and tracking again at v{dashboard.version}"
    )

    session.close()
    print("materialize tour complete")


if __name__ == "__main__":
    main()
