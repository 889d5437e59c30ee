#!/usr/bin/env python3
"""Submit a campaign to the ``repro serve`` service and poll it to completion.

The campaign service turns the batch sweep machinery into a submit-and-query
workflow: a ``POST /campaigns`` with a :class:`repro.sweep.SweepSpec` (or
:class:`~repro.sweep.BoundaryQuery`) snapshot is deduped by content hash,
executed once, and its results served through filtered ``/records`` and
``/aggregate`` endpoints filtered from the records the store holds.  This
example drives that loop through :class:`repro.serve.ServeClient`:

1. submit a preset campaign (``dist-smoke`` by default),
2. poll ``GET /campaigns/{id}`` until it reaches a terminal state, printing
   progress as it goes,
3. fetch the aggregate and print the per-governor summary table,
4. submit the identical spec again and show it comes back as a cache hit
   with zero new simulations.

Point it at a running service (``python -m repro serve``) with ``--url``, or
let it spin up a private in-process service when no URL is given — handy for
trying the API without a second terminal.

Run with:  python examples/submit_campaign.py [--url http://host:8765]
                                              [--preset NAME] [--duration S]
"""

import argparse
import sys

from repro.analysis.reporting import format_kv, format_table
from repro.serve import ServeClient, ServeConfig
from repro.sweep import build_preset, preset_names


def progress(doc: dict) -> None:
    p = doc.get("progress") or {}  # empty until the first scenario lands
    done, total = p.get("done", 0), p.get("total", "?")
    print(f"\r  {doc['state']:8s} {done}/{total} scenarios", end="", flush=True)


def run(client: ServeClient, preset: str, duration_s: float, timeout_s: float) -> int:
    spec = build_preset(preset, duration_s=duration_s)
    print(f"submitting preset {preset!r} ({len(spec)} scenarios) "
          f"to {client.config.base_url}")
    submitted = client.submit(spec)
    campaign_id = submitted["id"]
    verb = "created" if submitted["created"] else "already known"
    print(f"campaign {campaign_id}: {verb}")

    doc = client.wait(campaign_id, timeout_s=timeout_s, progress=progress)
    print()  # end the \r progress line
    if doc["state"] != "done":
        print(f"campaign failed: {doc.get('error')}", file=sys.stderr)
        return 1
    print(format_kv(
        {k: v for k, v in doc["result"].items() if not isinstance(v, (list, dict))},
        title="Result",
    ))

    aggregate = client.aggregate(campaign_id)
    rows = aggregate["axes"].get("governor") or next(iter(aggregate["axes"].values()), [])
    if rows:
        print()
        print(format_table(rows, title="Per-governor summary"))

    # The whole point of content addressing: resubmitting is free.
    again = client.submit(spec)
    print(f"\nresubmitted: same campaign ({again['id'] == campaign_id}), "
          f"cached={again['cached']}, new simulations={again.get('executed', 0)}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--url", default=None,
                        help="service base URL (default: start a private one)")
    parser.add_argument("--token", default=None, help="bearer token, if the service wants one")
    parser.add_argument("--preset", default="dist-smoke", choices=preset_names())
    parser.add_argument("--duration", type=float, default=6.0,
                        help="simulated seconds per scenario (default 6)")
    parser.add_argument("--timeout", type=float, default=900.0,
                        help="seconds to wait for completion (default 900)")
    parser.add_argument("--store", default="serve_results.jsonl",
                        help="store path for the private service (no --url only)")
    args = parser.parse_args()

    if args.url:
        client = ServeClient(ServeConfig(base_url=args.url, api_token=args.token))
        return run(client, args.preset, args.duration, args.timeout)

    # No service around? Run one on an ephemeral port just for this script.
    from repro.serve import ServiceThread

    print("no --url given: starting a private in-process service")
    with ServiceThread(store_path=args.store, port=0, workers=2) as service:
        client = ServeClient(ServeConfig(base_url=service.base_url))
        return run(client, args.preset, args.duration, args.timeout)


if __name__ == "__main__":
    raise SystemExit(main())
