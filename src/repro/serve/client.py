"""The stdlib client for the result-store daemon.

``urllib.request`` only — the serving stack stays dependency-free end
to end.  :class:`ServeClient` mirrors the server's routes one method
each; :meth:`ServeClient.run` consumes the NDJSON stream of a
``POST /run``, invoking an optional callback per event (the CLI uses
it for live progress) and returning the final ``done`` payload.

Error contract: transport failures and non-2xx responses raise
:class:`ServeError` with the server's own ``error`` text when the body
carried one; a run that streams an ``error`` event (unsupported spec,
failed cells) raises :class:`ServeError` too, so callers never have to
inspect event dicts to learn a run failed.

HTTP caching: :meth:`ServeClient.spec` and :meth:`ServeClient.cell`
remember the ``ETag`` the server sent per path and replay it as
``If-None-Match`` on the next request; a ``304 Not Modified`` answer is
served from the client's cached body without the server re-planning or
re-serialising anything.  ``ServeClient.not_modified`` counts the 304s
observed (the serve bench gates on the conditional path staying cheap).
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .. import env

#: Per-request socket timeout (seconds).  Generous because a cold
#: ``POST /run`` holds the connection for the whole sweep; the stream's
#: per-cell events keep the socket active well inside this window.
DEFAULT_TIMEOUT = 600.0


class ServeError(RuntimeError):
    """A serve request failed (transport, HTTP status, or run error)."""

    def __init__(self, message: str, status: "Optional[int]" = None) -> None:
        super().__init__(message)
        self.status = status


class ServeClient:
    """A client bound to one daemon URL (default: ``REPRO_SERVE_URL``)."""

    def __init__(
        self, url: "Optional[str]" = None, timeout: float = DEFAULT_TIMEOUT
    ) -> None:
        self.url = (url or env.serve_url()).rstrip("/")
        self.timeout = timeout
        #: path -> (etag, cached body text) for the conditional GETs.
        self._etag_cache: "Dict[str, Tuple[str, str]]" = {}
        #: How many requests were answered 304 from the local cache.
        self.not_modified = 0

    # -- plumbing --------------------------------------------------------------

    def _open(
        self,
        path: str,
        body: "Optional[dict]" = None,
        headers: "Optional[Dict[str, str]]" = None,
    ):
        request_headers = {"Content-Type": "application/json"}
        if headers:
            request_headers.update(headers)
        request = urllib.request.Request(
            f"{self.url}{path}",
            data=None if body is None else json.dumps(body).encode("utf-8"),
            headers=request_headers,
            method="GET" if body is None else "POST",
        )
        try:
            return urllib.request.urlopen(request, timeout=self.timeout)
        except urllib.error.HTTPError as exc:
            detail = ""
            try:
                detail = json.loads(exc.read().decode("utf-8")).get("error", "")
            except (ValueError, OSError):
                pass
            raise ServeError(
                f"{path}: HTTP {exc.code}" + (f": {detail}" if detail else ""),
                status=exc.code,
            ) from None
        except urllib.error.URLError as exc:
            raise ServeError(f"cannot reach {self.url}: {exc.reason}") from None

    def _get_json(self, path: str) -> dict:
        with self._open(path) as response:
            return json.loads(response.read().decode("utf-8"))

    def _get_json_conditional(self, path: str) -> dict:
        """GET with ``If-None-Match``; a 304 replays the cached body."""
        cached = self._etag_cache.get(path)
        headers = {"If-None-Match": cached[0]} if cached else None
        try:
            with self._open(path, headers=headers) as response:
                text = response.read().decode("utf-8")
                etag = response.headers.get("ETag")
                if etag:
                    self._etag_cache[path] = (etag, text)
                return json.loads(text)
        except ServeError as exc:
            if exc.status == 304 and cached is not None:
                self.not_modified += 1
                return json.loads(cached[1])
            raise

    # -- one method per route --------------------------------------------------

    def healthz(self) -> dict:
        return self._get_json("/healthz")

    def specs(self) -> "List[dict]":
        return self._get_json("/specs")["specs"]

    def spec(self, spec_id: str) -> dict:
        return self._get_json_conditional(f"/spec/{spec_id}")

    def cell(self, key: str) -> dict:
        return self._get_json_conditional(f"/cell/{key}")

    def metrics(self) -> "List[dict]":
        return self._get_json("/metrics")["metrics"]

    def run_events(
        self,
        spec_id: str,
        engine: "Optional[str]" = None,
        workers: "Optional[int]" = None,
    ) -> "Iterator[dict]":
        """Stream a run's NDJSON events as dicts (plan, cell*, done|error)."""
        body: dict = {"spec": spec_id}
        if engine is not None:
            body["engine"] = engine
        if workers is not None:
            body["workers"] = workers
        with self._open("/run", body) as response:
            for line in response:
                line = line.strip()
                if line:
                    yield json.loads(line.decode("utf-8"))

    def run(
        self,
        spec_id: str,
        engine: "Optional[str]" = None,
        workers: "Optional[int]" = None,
        on_event: "Optional[Callable[[dict], None]]" = None,
    ) -> dict:
        """Run a spec on the daemon and return the final ``done`` payload.

        ``on_event`` sees every streamed event (including the final
        one).  Raises :class:`ServeError` if the stream reports an
        error or ends without a ``done`` event.
        """
        done: "Optional[dict]" = None
        for event in self.run_events(spec_id, engine=engine, workers=workers):
            if on_event is not None:
                on_event(event)
            kind = event.get("event")
            if kind == "error":
                raise ServeError(f"run {spec_id!r} failed: {event.get('error')}")
            if kind == "done":
                done = event
        if done is None:
            raise ServeError(f"run {spec_id!r}: stream ended without a done event")
        return done
