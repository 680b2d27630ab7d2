"""CI smoke gate for the result-store daemon (``repro serve``).

Usage::

    python tools/check_serve_smoke.py [--spec fig04] [--store DIR]

Boots a :class:`~repro.serve.ResultServer` in-process on an ephemeral
port over a fresh store and drives the full cold/warm economics through
the HTTP client.  Around every run it reads the daemon's ``sweep.runs``
and ``engine.dispatch`` totals from ``GET /metrics``, so a simulation
anywhere in the run — including one a render starts behind the store's
back — shows up as a counter delta, not just as cell events:

1. **cold run** — the store is empty, so the plan must mark every cell
   pending, the run must compute all of them, and it must add exactly
   one ``sweep.runs`` per pending grid;
2. **warm run** — the identical request again: the plan must mark zero
   cells pending, stream no cell events, add zero to both counters
   (zero simulations), and return byte-identical metrics, result, and
   report;
3. **derived specs** — every registered derived spec whose bases are
   all the served spec (``fig05`` for ``fig04``) must plan zero pending
   cells and add zero to both counters;
4. **manifests** — the cold run must leave a parseable run manifest
   under ``<store>/runs/<run_id>/`` naming the spec; the warm and
   post-compaction runs, which compute nothing, must leave none;
5. **store lookups** — every cell key from the run must answer on
   ``GET /cell/<key>`` with the same metrics the run reported;
6. **conditional GET** — repeating ``GET /spec`` with the server's own
   ``ETag`` in ``If-None-Match`` must answer ``304 Not Modified`` with
   an empty body;
7. **compact then query** — after ``store.compact()`` the same run must
   still answer entirely from the index (zero cell events, zero added
   to both counters, byte-identical output) and ``/healthz`` must
   report the new generation;
8. **request and mechanism counters** — in the JSON ``GET /metrics``,
   every route the smoke called must have a ``serve.requests`` series
   with status ``200`` and a value above zero; and the cold run must
   have left at least one ``fsm.*`` counter above zero.  Request
   latencies are the ``serve.request`` spans, not metrics.

Exits non-zero with a named complaint on the first violation, so a CI
failure reads as "warm run recomputed 3 cells", not as a stack trace.
"""

import argparse
import json
import sys
import tempfile
import urllib.error
import urllib.request
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments import all_specs  # noqa: E402  (path bootstrap)
from repro.obs.manifest import read_manifest  # noqa: E402
from repro.serve import ResultServer, ServeClient  # noqa: E402
from repro.store import ResultStore  # noqa: E402


#: The daemon counters that move whenever anything is simulated.
SIMULATION_COUNTERS = ("sweep.runs", "engine.dispatch")

#: Every route the smoke calls; each must answer 200 at least once.
SMOKE_ROUTES = ("/cell", "/healthz", "/metrics", "/run", "/spec", "/specs")


def _canonical_cells(done: dict) -> str:
    return json.dumps([c["metrics"] for c in done["cells"]], sort_keys=True)


def _simulation_totals(client: ServeClient) -> "list[float]":
    rows = client.metrics()
    return [
        sum(row.get("value", 0.0) for row in rows if row["name"] == name)
        for name in SIMULATION_COUNTERS
    ]


def _counted_run(client: ServeClient, spec: str, events: list):
    """``client.run`` plus what it added to each simulation counter."""
    before = _simulation_totals(client)
    done = client.run(spec, on_event=events.append)
    after = _simulation_totals(client)
    added = {
        name: total - earlier
        for name, earlier, total in zip(SIMULATION_COUNTERS, before, after)
    }
    return done, added


def _describe(added: dict) -> str:
    return ", ".join(f"{name} +{value:g}" for name, value in added.items())


def check(spec: str, store_dir: Path) -> int:
    failures = []

    store = ResultStore(store_dir)
    with ResultServer(store, port=0) as server:
        client = ServeClient(server.url)

        health = client.healthz()
        if not health.get("ok"):
            failures.append(f"healthz not ok: {health}")
        if spec not in {s["id"] for s in client.specs()}:
            failures.append(f"spec {spec!r} missing from GET /specs")

        cold_events = []
        cold, cold_added = _counted_run(client, spec, cold_events)
        cold_plan = cold_events[0]
        if cold_plan["pending"] != cold_plan["cells"]:
            failures.append(
                f"cold plan expected every cell pending, got "
                f"{cold_plan['pending']}/{cold_plan['cells']}"
            )
        if cold["manifest"]["cells_computed"] != cold_plan["cells"]:
            failures.append(
                f"cold run computed {cold['manifest']['cells_computed']} "
                f"of {cold_plan['cells']} cells"
            )
        # The store started empty, so every grid of the plan is pending.
        if cold_added["sweep.runs"] != len(cold_plan["grids"]):
            failures.append(
                f"cold run made {cold_added['sweep.runs']:g} sweeps for "
                f"{len(cold_plan['grids'])} pending grids"
            )

        warm_events = []
        warm, warm_added = _counted_run(client, spec, warm_events)
        warm_plan = warm_events[0]
        if warm_plan["pending"] != 0:
            failures.append(f"warm plan still pending {warm_plan['pending']} cells")
        cell_events = [e for e in warm_events if e.get("event") == "cell"]
        if cell_events:
            failures.append(
                f"warm run streamed {len(cell_events)} cell events "
                f"(expected zero simulations)"
            )
        if warm["manifest"]["cells_computed"] != 0:
            failures.append(
                f"warm run recomputed {warm['manifest']['cells_computed']} cells"
            )
        if any(warm_added.values()):
            failures.append(f"warm run simulated: {_describe(warm_added)}")

        derived = [
            other.id
            for other in all_specs(include_hidden=True)
            if other.kind == "derived" and set(other.base) == {spec}
        ]
        for derived_id in derived:
            derived_events = []
            _, derived_added = _counted_run(client, derived_id, derived_events)
            if derived_events[0]["pending"] != 0:
                failures.append(
                    f"derived {derived_id} plan still pending "
                    f"{derived_events[0]['pending']} cells"
                )
            if any(derived_added.values()):
                failures.append(
                    f"derived {derived_id} run simulated: {_describe(derived_added)}"
                )

        if _canonical_cells(cold) != _canonical_cells(warm):
            failures.append("warm cell metrics differ from cold")
        if cold["result"] != warm["result"]:
            failures.append("warm collected result differs from cold")
        if cold["report"] != warm["report"]:
            failures.append("warm rendered report differs from cold")

        manifest = read_manifest(store_dir / "runs" / cold["run_id"])
        if manifest is None:
            failures.append("cold run manifest missing/corrupt")
        elif manifest.get("spec") != spec:
            failures.append(f"cold manifest names spec {manifest.get('spec')!r}")

        for cell in cold["cells"][:10]:
            fetched = client.cell(cell["key"])
            if fetched["metrics"] != cell["metrics"]:
                failures.append(f"GET /cell/{cell['key'][:12]}… metrics mismatch")
                break

        # conditional GET: the server's own ETag must answer 304
        spec_url = f"{server.url}/spec/{spec}"
        with urllib.request.urlopen(spec_url) as response:
            etag = response.headers.get("ETag")
        if not etag:
            failures.append("GET /spec sent no ETag header")
        else:
            request = urllib.request.Request(
                spec_url, headers={"If-None-Match": etag}
            )
            try:
                response = urllib.request.urlopen(request)
                status = response.status
            except urllib.error.HTTPError as exc:  # urllib flags 304 as error
                response = exc
                status = exc.code
            if status != 304:
                failures.append(
                    f"conditional GET /spec answered {status}, expected 304"
                )
            elif response.read() != b"":
                failures.append("304 response carried a body")

        # compact, then the same query must still answer from the index
        compaction = store.compact()
        if compaction.entries != len(store):
            failures.append(
                f"compact snapshot holds {compaction.entries} entries, "
                f"store holds {len(store)}"
            )
        post_events = []
        post, post_added = _counted_run(client, spec, post_events)
        post_cells = [e for e in post_events if e.get("event") == "cell"]
        if post_cells:
            failures.append(
                f"post-compact run streamed {len(post_cells)} cell events "
                f"(expected zero simulations)"
            )
        if post["manifest"]["cells_computed"] != 0:
            failures.append(
                f"post-compact run recomputed "
                f"{post['manifest']['cells_computed']} cells"
            )
        if any(post_added.values()):
            failures.append(f"post-compact run simulated: {_describe(post_added)}")
        for done, label in ((warm, "warm"), (post, "post-compact")):
            if (store_dir / "runs" / done["run_id"]).exists():
                failures.append(f"{label} run computed nothing but wrote a manifest")
        if _canonical_cells(cold) != _canonical_cells(post):
            failures.append("post-compact cell metrics differ from cold")
        if cold["result"] != post["result"]:
            failures.append("post-compact result differs from cold")
        generation = client.healthz().get("generation")
        if generation != compaction.generation:
            failures.append(
                f"healthz reports generation {generation}, compaction "
                f"returned {compaction.generation}"
            )

        # Every route the smoke called is counted as answered; the cold
        # run's fsm.* counters reached the daemon's registry.
        rows = client.metrics()
        answered = {
            row["labels"].get("route")
            for row in rows
            if row["name"] == "serve.requests"
            and row["labels"].get("status") == "200"
            and row.get("value", 0) > 0
        }
        unanswered = [route for route in SMOKE_ROUTES if route not in answered]
        if unanswered:
            failures.append(
                f"no serve.requests series with status 200 for {unanswered}"
            )
        if not any(
            row["name"].startswith("fsm.") and row.get("value", 0) > 0
            for row in rows
        ):
            failures.append("no fsm.* counter above zero after a cold run")

    if failures:
        for failure in failures:
            print(f"FAIL [{spec}]: {failure}", file=sys.stderr)
        return 1
    print(
        f"OK: served {spec} cold ({cold['manifest']['cells_computed']} computed, "
        f"{_describe(cold_added)}) then warm (0 computed, zero simulations, "
        f"byte-identical), derived {derived or 'none'} with zero simulations, "
        f"304 on conditional GET, "
        f"warm again after compaction to generation "
        f"{compaction.generation}, one manifest for the cold run only, "
        f"and 200s counted for {len(SMOKE_ROUTES)} routes in /metrics at "
        f"{server.url}"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", default="fig04", help="spec id to serve")
    parser.add_argument(
        "--store", type=Path, default=None,
        help="store directory (default: a fresh temp dir)",
    )
    args = parser.parse_args(argv)
    store_dir = args.store or Path(tempfile.mkdtemp(prefix="repro-serve-smoke-"))
    return check(args.spec, store_dir)


if __name__ == "__main__":
    sys.exit(main())
