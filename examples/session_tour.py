"""Tour of the unified session facade (``repro.session``).

Run with::

    python examples/session_tour.py

One ``FlexSession`` replaces the scattered entry points: the fluent query
builder answers reads, the view registry renders them, and switching the
engine from the batch snapshot to the event-driven live engine changes *how*
the answers are computed but not *what* they are.
"""

from __future__ import annotations

from pathlib import Path

from repro import FlexSession

OUTPUT_DIR = Path(__file__).resolve().parent / "output"


def main() -> None:
    OUTPUT_DIR.mkdir(exist_ok=True)

    # 1. One front door: scenario + warehouse + engine + views in one object.
    session = FlexSession.from_config(prosumers=120, seed=7)
    print(session.describe())
    print("registered views:", ", ".join(session.view_names))

    # 2. Fluent, index-aware queries with one typed result shape.
    assigned = session.offers().where(state="assigned").fetch()
    print(f"\n{assigned.describe()}")
    for row in assigned.to_frame()[:5]:
        print(f"  #{row['id']:<6} {row['region']:<18} {row['scheduled_energy']:7.2f} kWh")

    # 3. Aggregate the selection and open it in a registered view.
    pivot = (
        session.offers()
        .where(state="assigned")
        .aggregate(est_tolerance_slots=8)
        .to_view("pivot")
    )
    pivot_path = OUTPUT_DIR / "session_pivot.svg"
    pivot.save_svg(str(pivot_path))
    print(f"\npivot view of the aggregated selection -> {pivot_path}")

    # 4. Same spec, other engine: the live engine answers identically.
    spec = session.offers().where(state="assigned").aggregate().spec
    batch_result = session.query(spec)
    session.use_engine("live")
    live_result = session.query(spec)
    print(
        f"batch={len(batch_result)} vs live={len(live_result)} outputs, "
        f"equivalent={batch_result.matches(live_result)}"
    )

    # 5. Standing queries: subscribe the spec, then stream events through.
    #    The subscription is a materialized view; each delta names the offers
    #    a commit changed in its answer, which stays the query's answer.
    deltas = []
    capital = session.offers().where(region="Capital").aggregate().subscribe(deltas.append)
    report = session.replay(update_fraction=0.1, withdraw_fraction=0.05, seed=7)
    print(f"\nreplayed {report.events} events in {report.commit_count} commits")
    changed = sum(len(delta.changed_ids) for delta in deltas)
    print(f"Capital aggregation subscription: {len(deltas)} deltas, {changed} changed offers")
    assert capital.result.matches(session.query(capital.spec))
    print(f"subscribed view == query: {len(capital.result)} offers at v{capital.version}")


if __name__ == "__main__":
    main()
