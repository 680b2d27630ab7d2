"""End-to-end tests for the result-store daemon (repro.serve)."""

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.experiments import get_spec
from repro.experiments.spec import clear_result_cache
from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing
from repro.obs.manifest import read_manifest
from repro.serve import (
    ResultServer,
    ServeClient,
    ServeError,
    ServeUnsupportedError,
    expand_grid_specs,
    plan_grid,
)
from repro.serve.server import execute_run
from repro.store import ResultStore

from . import _specs


@pytest.fixture()
def server(tmp_path):
    store = ResultStore(tmp_path / "store")
    with ResultServer(store, port=0) as running:
        yield running


@pytest.fixture()
def client(server):
    return ServeClient(server.url)


class TestPlanning:
    def test_expand_grid_is_identity(self):
        assert expand_grid_specs(_specs.GRID) == [_specs.GRID]

    def test_expand_derived_reaches_bases(self):
        assert expand_grid_specs(_specs.DERIVED) == [_specs.GRID]

    def test_expand_custom_unsupported(self):
        with pytest.raises(ServeUnsupportedError, match="custom"):
            expand_grid_specs(_specs.CUSTOM)

    def test_plan_keys_match_the_sweep_runner(self, tmp_path):
        """The server's precomputed keys are exactly the keys the sweep
        runner journals under — the warm path depends on this."""
        from repro.perf.parallel import run_labeled_cells

        plan = plan_grid(_specs.GRID, "fast")
        store = ResultStore(tmp_path / "store")
        run_labeled_cells(plan.cells, engine="fast", journal=store, progress=False)
        assert all(key in store for key in plan.keys)


class TestReadRoutes:
    def test_healthz(self, client):
        health = client.healthz()
        assert health["ok"] is True
        assert health["store"]["entries"] == 0

    def test_specs_lists_the_registry(self, client):
        by_id = {spec["id"]: spec for spec in client.specs()}
        assert by_id["serve-test-grid"]["kind"] == "grid"
        assert by_id["serve-test-grid"]["hidden"] is True
        assert by_id["fig04"]["kind"] == "grid"

    def test_spec_detail_counts_cells(self, client):
        detail = client.spec("serve-test-grid")
        assert detail["servable"] is True
        assert detail["cells"] == 4  # 2 sizes x 1 factory x 2 traces
        assert detail["cached"] == 0

    def test_spec_detail_custom_unservable(self, client):
        assert client.spec("serve-test-custom")["servable"] is False

    def test_unknown_spec_404(self, client):
        with pytest.raises(ServeError, match="unknown spec") as excinfo:
            client.spec("nope")
        assert excinfo.value.status == 404

    def test_unknown_cell_404(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.cell("deadbeef")
        assert excinfo.value.status == 404

    def test_unknown_route_404(self, client):
        with pytest.raises(ServeError) as excinfo:
            client._get_json("/nope")
        assert excinfo.value.status == 404

    def test_metrics_export(self, client):
        client.healthz()
        names = {row["name"] for row in client.metrics()}
        assert "serve.requests" in names


class TestOpsEndpoints:
    def _fetch(self, server, path, headers=None):
        request = urllib.request.Request(
            f"{server.url}{path}", headers=headers or {}
        )
        with urllib.request.urlopen(request) as response:
            return response.headers, response.read().decode("utf-8")

    def test_default_metrics_stay_json(self, server, client):
        client.healthz()
        headers, body = self._fetch(server, "/metrics")
        assert headers["Content-Type"].startswith("application/json")
        payload = json.loads(body)
        assert {"metrics", "fleet_workers"} <= set(payload)

    def test_request_counters_account_for_every_request(self, client):
        registry = obs_metrics.install_registry(obs_metrics.MetricsRegistry())
        try:
            client.healthz()
            client.healthz()
            client.spec("serve-test-grid")
            with pytest.raises(ServeError):
                client.spec("nope")
            # A handler thread counts its request after answering it.
            deadline = time.monotonic() + 5.0
            while (registry.total("serve.requests") or 0) < 4:
                assert time.monotonic() < deadline, registry.export()
                time.sleep(0.01)
        finally:
            obs_metrics.uninstall_registry()
        counts = {
            (row["labels"]["route"], row["labels"]["status"]): row["value"]
            for row in registry.export()
            if row["name"] == "serve.requests"
        }
        assert counts == {
            ("/healthz", "200"): 2,
            ("/spec", "200"): 1,
            ("/spec", "404"): 1,
        }

    def test_healthz_counts_the_store_entries_a_run_wrote(self, client):
        client.run("serve-test-grid")
        assert client.healthz()["store"]["entries"] == 4

    def test_requests_are_spanned(self, server, client):
        tracer = obs_tracing.install_tracer(obs_tracing.Tracer())
        try:
            client.run("serve-test-grid")
        finally:
            obs_tracing.uninstall_tracer()
            tracer.close()
        by_name = {}
        for span in tracer.spans:
            by_name.setdefault(span.name, []).append(span)
        assert "serve.request" in by_name
        (run_span,) = by_name["execute_run"]
        assert run_span.attrs["spec"] == "serve-test-grid"
        assert run_span.attrs["cells_computed"] == 4
        assert run_span.attrs["run_id"]
        # The run span nests inside the request span that carried it.
        (request_span,) = [
            span
            for span in by_name["serve.request"]
            if span.attrs.get("method") == "POST"
        ]
        assert run_span.parent_id == request_span.span_id


class TestEtag:
    def test_repeat_spec_get_is_304_from_the_client_cache(self, client):
        first = client.spec("serve-test-grid")
        assert client.not_modified == 0
        second = client.spec("serve-test-grid")
        assert client.not_modified == 1
        assert second == first

    def test_store_mutation_invalidates_the_spec_etag(self, server, client):
        before = client.spec("serve-test-grid")
        assert before["cached"] == 0
        client.run("serve-test-grid")
        after = client.spec("serve-test-grid")
        assert client.not_modified == 0  # a full 200, not a stale 304
        assert after["cached"] == 4

    def test_compaction_invalidates_the_spec_etag(self, server, client):
        client.run("serve-test-grid")
        client.spec("serve-test-grid")
        server.store.compact()
        client.spec("serve-test-grid")
        assert client.not_modified == 0

    def test_cell_etag_survives_unrelated_writes(self, server, client):
        done = client.run("serve-test-grid")
        key = done["cells"][0]["key"]
        client.cell(key)
        # an unrelated record does not change this cell's answer
        server.store.record("feedface01", {}, 0.5, 0.0)
        client.cell(key)
        assert client.not_modified == 1

    def test_raw_conditional_get_receives_304(self, server, client):
        """Wire-level check: If-None-Match with the server's own ETag
        answers 304 with an empty body and the tag echoed back."""
        client.run("serve-test-grid")
        url = f"{server.url}/spec/serve-test-grid"
        with urllib.request.urlopen(url) as response:
            etag = response.headers["ETag"]
        assert etag
        request = urllib.request.Request(url, headers={"If-None-Match": etag})
        try:
            response = urllib.request.urlopen(request)
            status = response.status
        except urllib.error.HTTPError as exc:  # urllib treats 304 as error
            response = exc
            status = exc.code
        assert status == 304
        assert response.headers["ETag"] == etag
        assert response.read() == b""

    def test_wildcard_and_weak_tags_match(self, server, client):
        client.run("serve-test-grid")
        url = f"{server.url}/spec/serve-test-grid"
        with urllib.request.urlopen(url) as response:
            etag = response.headers["ETag"]
        for header in ("*", f"W/{etag}", f'"other", {etag}'):
            request = urllib.request.Request(url, headers={"If-None-Match": header})
            try:
                status = urllib.request.urlopen(request).status
            except urllib.error.HTTPError as exc:
                status = exc.code
            assert status == 304, header

    def test_mismatched_tag_gets_a_full_answer(self, server, client):
        url = f"{server.url}/spec/serve-test-grid"
        request = urllib.request.Request(
            url, headers={"If-None-Match": '"stale-tag"'}
        )
        with urllib.request.urlopen(request) as response:
            assert response.status == 200
            assert json.loads(response.read())["id"] == "serve-test-grid"


class TestRun:
    def test_cold_then_warm_is_byte_identical_with_zero_simulation(
        self, server, client
    ):
        events_cold = []
        done_cold = client.run("serve-test-grid", on_event=events_cold.append)
        plan_cold = events_cold[0]
        assert plan_cold["pending"] == 4
        assert sum(1 for e in events_cold if e["event"] == "cell") == 4
        assert done_cold["manifest"]["cells_computed"] == 4

        events_warm = []
        done_warm = client.run("serve-test-grid", on_event=events_warm.append)
        plan_warm = events_warm[0]
        assert plan_warm["pending"] == 0
        assert plan_warm["cached"] == 4
        # zero simulations: no cell events at all, straight to done
        assert [e["event"] for e in events_warm] == ["plan", "done"]
        assert done_warm["manifest"]["cells_computed"] == 0

        canonical_cold = json.dumps(
            [c["metrics"] for c in done_cold["cells"]], sort_keys=True
        )
        canonical_warm = json.dumps(
            [c["metrics"] for c in done_warm["cells"]], sort_keys=True
        )
        assert canonical_cold == canonical_warm
        assert done_cold["result"] == done_warm["result"]
        assert done_cold["report"] == done_warm["report"]

    def test_run_writes_a_manifest(self, server, client):
        done = client.run("serve-test-grid")
        run_dir = server.store.primary_dir / "runs" / done["run_id"]
        manifest = read_manifest(run_dir)
        assert manifest["spec"] == "serve-test-grid"
        assert manifest["run_id"] == done["run_id"]
        assert manifest["cells_total"] == 4
        assert manifest["engine"] == "fast"

    def test_cells_are_queryable_by_key_afterwards(self, client):
        done = client.run("serve-test-grid")
        for cell in done["cells"]:
            assert cell["key"] is not None
            fetched = client.cell(cell["key"])
            assert fetched["metrics"] == cell["metrics"]

    def test_derived_spec_served_from_base_cells(self, server, client):
        client.run("serve-test-grid")
        events = []
        done = client.run("serve-test-derived", on_event=events.append)
        assert events[0]["pending"] == 0
        assert done["manifest"]["cells_computed"] == 0
        base = client.run("serve-test-grid")
        for label, values in done["result"]["series"].items():
            for value, base_value in zip(values, base["result"]["series"][label]):
                assert value == pytest.approx(2.0 * base_value)

    def test_custom_spec_streams_an_error(self, client):
        with pytest.raises(ServeError, match="custom"):
            client.run("serve-test-custom")

    def test_unknown_spec_400(self, client):
        with pytest.raises(ServeError, match="unknown experiment spec") as excinfo:
            client.run("nope")
        assert excinfo.value.status == 400

    @pytest.mark.parametrize("workers", [[1], {}, True, 2.5, "2", 0, -1])
    def test_malformed_workers_400(self, client, workers):
        with pytest.raises(ServeError, match="'workers'") as excinfo:
            client.run("serve-test-grid", workers=workers)
        assert excinfo.value.status == 400

    @pytest.mark.parametrize("length", ["-1", "-5", "abc"])
    def test_bad_content_length_400(self, server, length):
        # Raw socket with a timeout: a server that waits for a body that
        # never comes fails this test instead of hanging it.
        request = f"POST /run HTTP/1.0\r\nContent-Length: {length}\r\n\r\n"
        with socket.create_connection((server.host, server.port), timeout=3) as sock:
            sock.sendall(request.encode("ascii"))
            response = sock.makefile("rb").read()
        assert response.startswith(b"HTTP/1.0 400 ")

    def test_failed_cells_are_simulated_again(self, server):
        """A failed run records nothing for its failed cells, so a repeat
        simulates them again and fails with the same named error."""
        for _ in range(2):
            events = []
            with pytest.raises(ServeError, match="poisoned cell") as excinfo:
                ServeClient(server.url).run(
                    "serve-test-poisoned", on_event=events.append
                )
            cells = [e for e in events if e.get("event") == "cell"]
            assert len(cells) == 2  # 1 parameter x 1 factory x 2 traces
            for cell in cells:
                assert "poisoned cell" in cell["error"]
                assert cell["trace"] in str(excinfo.value)
        journal = server.store.path
        assert not journal.exists() or journal.read_text() == ""

    def test_default_workers_apply_when_the_body_names_none(self, tmp_path):
        # serve --workers N: four pending cells on two workers go to the
        # fleet, and the run manifest records the count.
        registry = obs_metrics.install_registry(obs_metrics.MetricsRegistry())
        try:
            store = ResultStore(tmp_path / "store")
            with ResultServer(store, port=0, default_workers=2) as running:
                done = ServeClient(running.url).run("serve-test-grid")
        finally:
            obs_metrics.uninstall_registry()
        assert done["manifest"]["workers"] == 2
        assert registry.value("sweep.runs.by_backend", backend="fleet") == 1
        assert registry.value("sweep.workers", engine="fast") == 2

    def test_cold_compact_warm_round_trip(self, server, client):
        """The acceptance path: cold run, ``compact()``, then a warm run
        that answers entirely from the compacted shards — zero cell
        events, byte-identical output."""
        done_cold = client.run("serve-test-grid")
        stats = server.store.compact(shards=4)
        assert stats.generation == 1
        assert stats.entries == 4

        events_warm = []
        done_warm = client.run("serve-test-grid", on_event=events_warm.append)
        assert [e["event"] for e in events_warm] == ["plan", "done"]
        assert done_warm["manifest"]["cells_computed"] == 0
        assert json.dumps(
            [c["metrics"] for c in done_warm["cells"]], sort_keys=True
        ) == json.dumps([c["metrics"] for c in done_cold["cells"]], sort_keys=True)
        assert done_warm["result"] == done_cold["result"]
        assert client.healthz()["generation"] == 1

    def test_concurrent_identical_runs_compute_once(self, server, client):
        """Two simultaneous POST /run of one spec serialise on the
        per-spec lock: together they compute the grid exactly once."""
        results = []

        def run():
            results.append(client.run("serve-test-grid"))

        threads = [threading.Thread(target=run) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(results) == 2
        computed = sorted(r["manifest"]["cells_computed"] for r in results)
        assert computed == [0, 4]
        assert results[0]["result"] == results[1]["result"]


class TestWarmRunCost:
    """A run answered wholly from the store costs index lookups only."""

    def test_warm_run_hashes_each_cell_key_once(self, tmp_path, monkeypatch):
        from repro.perf.cells import CellIdentity

        store = ResultStore(tmp_path / "store")
        spec = get_spec("serve-test-grid")
        execute_run(store, spec, lambda event: None, workers=1)
        calls = []
        real_key = CellIdentity.key

        def counted_key(identity):
            calls.append(identity)
            return real_key(identity)

        monkeypatch.setattr(CellIdentity, "key", counted_key)
        events = []
        execute_run(store, spec, events.append, workers=1)
        assert events[0]["pending"] == 0
        assert len(calls) == events[0]["cells"] == 4

    def test_warm_repeat_writes_no_manifest(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec = get_spec("serve-test-grid")
        runs = store.primary_dir / "runs"
        cold = execute_run(store, spec, lambda event: None, workers=1)
        assert read_manifest(runs / cold["run_id"]) == cold["manifest"]
        listing = sorted(runs.iterdir())
        warm = execute_run(store, spec, lambda event: None, workers=1)
        assert warm["manifest"]["cells_computed"] == 0
        assert warm["manifest"]["run_id"] == warm["run_id"]
        assert sorted(runs.iterdir()) == listing


class TestServedRunsSimulateOnlyPendingCells:
    """A served run simulates exactly the cells its plan marks pending:
    the values it folds from the store fill ``run_spec``'s result
    cache, so rendering them (Figure 12 reads its base) never re-runs a
    grid behind the store's back."""

    #: The specs whose reports go beyond formatting their result: a
    #: peak, reduction, AMAT or claim summary, fig09's axis, and
    #: fig12's base miss rates.
    SPECS = [
        "fig05", "fig09", "fig11", "fig12", "fig15",
        "ext-assoc", "ext-hashed", "ext-warmup",
    ]

    @staticmethod
    def _simulations(store, spec_id, events):
        """(sweep runs, engine dispatches) one ``execute_run`` costs."""
        registry = obs_metrics.install_registry(obs_metrics.MetricsRegistry())
        try:
            execute_run(
                store, get_spec(spec_id), events.append, engine="fast", workers=1
            )
        finally:
            obs_metrics.uninstall_registry()
        return (
            registry.total("sweep.runs") or 0,
            registry.total("engine.dispatch") or 0,
        )

    @pytest.mark.parametrize("spec_id", SPECS)
    def test_fully_stored_spec_simulates_nothing(self, tmp_path, spec_id):
        store = ResultStore(tmp_path / "store")
        execute_run(store, get_spec(spec_id), lambda event: None, engine="fast",
                    workers=1)
        clear_result_cache()  # what a freshly started daemon holds
        events = []
        assert self._simulations(store, spec_id, events) == (0, 0)
        assert events[0]["pending"] == 0

    def test_cold_run_sweeps_each_pending_grid_once(self, tmp_path):
        clear_result_cache()
        events = []
        sweeps, dispatches = self._simulations(
            ResultStore(tmp_path / "store"), "fig11", events
        )
        assert sweeps == 1
        assert dispatches == events[0]["cells"] == events[0]["pending"]

    def test_flagless_resume_store_serves_without_simulating(self, tmp_path, capsys):
        """The experiments CLI and the daemon share one default engine, so a
        ``--resume-dir`` store filled with no engine named is the store a
        run naming no engine reads."""
        from repro.experiments.frontend import main as experiments_main

        store_dir = tmp_path / "store"
        clear_result_cache()
        assert experiments_main(["--only", "fig04", "--resume-dir", str(store_dir)]) == 0
        capsys.readouterr()
        filled = len(ResultStore(store_dir))
        assert filled > 0

        clear_result_cache()
        store = ResultStore(store_dir)
        events = []
        done = execute_run(store, get_spec("fig04"), events.append, workers=1)
        assert events[0]["cells"] == filled
        assert events[0]["pending"] == 0
        assert done["manifest"]["cells_computed"] == 0
        assert len(ResultStore(store_dir)) == filled
