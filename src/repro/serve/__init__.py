"""repro.serve — the long-running campaign service over the sweep engine.

Everything elsewhere in the repo is batch CLI; this package wraps the
campaign machinery in a stdlib-asyncio HTTP service so campaigns are
*submitted* rather than run:

* :mod:`repro.serve.scheduler` — :class:`Campaign` /
  :class:`CampaignScheduler`: content-hash identity (identical submissions
  dedupe to one campaign), a FIFO worker task serialising execution over
  the shared :class:`~repro.sweep.store.ResultStore`;
* :mod:`repro.serve.handlers`  — the transport-free route table
  (``/campaigns``, ``/records``, ``/aggregate``, ``/events``, ``/metrics``
  — JSON or Prometheus text — plus the ``/healthz`` / ``/readyz`` probes);
* :mod:`repro.serve.app`       — the asyncio HTTP/SSE front end
  (:class:`CampaignService` with request-latency histograms, process
  gauges read when ``/metrics`` is scraped and graceful SIGINT/SIGTERM
  drain; the test-friendly
  :class:`ServiceThread`; the ``python -m repro serve`` entry point
  :func:`run_service`);
* :mod:`repro.serve.dashboard` — the dependency-free single-page live
  dashboard behind ``GET /dashboard``;
* :mod:`repro.serve.config` / :mod:`repro.serve.client` — the frozen
  :class:`ServeConfig` and the stdlib :class:`ServeClient` behind
  ``python -m repro submit`` and :mod:`examples.submit_campaign`.

What makes the service cheap at scale is below it, not in it: records are
content-addressed, so identical submissions from any number of users are
pure cache hits against the store, and filtered/aggregate reads filter the
records the open store already holds (:meth:`repro.sweep.ResultStore.query`)
without replaying the JSONL.

Quick start::

    # terminal 1
    python -m repro serve --store campaigns.jsonl --port 8765

    # terminal 2
    python -m repro submit --preset dist-smoke --watch
"""

from .app import CampaignService, ServiceThread, route_template, run_service
from .client import ServeClient, ServeError
from .config import DEFAULT_HOST, DEFAULT_PORT, ServeConfig
from .dashboard import render_dashboard
from .scheduler import Campaign, CampaignScheduler, parse_submission

__all__ = [
    "CampaignService",
    "ServiceThread",
    "run_service",
    "route_template",
    "render_dashboard",
    "ServeClient",
    "ServeError",
    "ServeConfig",
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "Campaign",
    "CampaignScheduler",
    "parse_submission",
]
