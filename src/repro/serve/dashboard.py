"""``GET /dashboard`` — a dependency-free, single-file live dashboard.

One Python function returning one self-contained HTML page: no frameworks, no
CDN, no build step — the page is served from this string and works with the
stdlib service alone.  The client side polls ``GET /campaigns`` and
``GET /metrics`` every couple of seconds, follows the most interesting
campaign's SSE ``/events`` stream, and renders:

* a KPI row — records, campaigns, requests/s (with a sparkline), RSS,
  fault/retry activity;
* the campaign table (state shown as a status dot *plus* the state word,
  never color alone);
* per-route request latency (p95 straight from the service's
  ``http_request_duration_seconds`` histograms);
* a bounded live event feed.

The server embeds a bootstrap snapshot (campaign list + store counts) as a
``<script type="application/json">`` block, so the *initial* HTML already
references live campaign data — scrapers and smoke tests can assert on the
response body without executing JavaScript, and a token-protected service
still shows the snapshot even though the poll loop's unauthenticated fetches
will 401.

Visual language follows the repo-wide chart conventions: chart chrome in
CSS custom properties with a selected dark mode (``prefers-color-scheme``
plus a ``data-theme`` override), text in ink tokens, status colors reserved
for campaign states, a single blue series hue for the one sparkline.
"""

from __future__ import annotations

import json

__all__ = ["render_dashboard"]


def render_dashboard(scheduler, store) -> str:
    """The dashboard page with a server-side bootstrap snapshot embedded."""
    campaigns = [c.to_dict() for c in scheduler.list()]
    bootstrap = {
        "records": len(store),
        "store": str(store.path),
        "campaigns": campaigns,
        "draining": scheduler.draining,
    }
    payload = json.dumps(bootstrap, default=str).replace("</", "<\\/")
    return _PAGE.replace("__BOOTSTRAP__", payload)


_PAGE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>repro campaign service</title>
<style>
  .viz-root {
    color-scheme: light;
    --page:           #f9f9f7;
    --surface-1:      #fcfcfb;
    --text-primary:   #0b0b0b;
    --text-secondary: #52514e;
    --text-muted:     #898781;
    --grid:           #e1e0d9;
    --border:         rgba(11,11,11,0.10);
    --series-1:       #2a78d6;
    --status-good:    #0ca30c;
    --status-warning: #fab219;
    --status-serious: #ec835a;
    --status-critical:#d03b3b;
  }
  @media (prefers-color-scheme: dark) {
    :root:where(:not([data-theme="light"])) .viz-root {
      color-scheme: dark;
      --page:           #0d0d0d;
      --surface-1:      #1a1a19;
      --text-primary:   #ffffff;
      --text-secondary: #c3c2b7;
      --text-muted:     #898781;
      --grid:           #2c2c2a;
      --border:         rgba(255,255,255,0.10);
      --series-1:       #3987e5;
    }
  }
  :root[data-theme="dark"] .viz-root {
    color-scheme: dark;
    --page:           #0d0d0d;
    --surface-1:      #1a1a19;
    --text-primary:   #ffffff;
    --text-secondary: #c3c2b7;
    --text-muted:     #898781;
    --grid:           #2c2c2a;
    --border:         rgba(255,255,255,0.10);
    --series-1:       #3987e5;
  }
  .viz-root {
    margin: 0; padding: 24px;
    background: var(--page); color: var(--text-primary);
    font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
  }
  h1 { font-size: 18px; margin: 0 0 4px; }
  .sub { color: var(--text-secondary); margin: 0 0 20px; font-size: 13px; }
  .tiles { display: flex; flex-wrap: wrap; gap: 12px; margin-bottom: 20px; }
  .tile {
    background: var(--surface-1); border: 1px solid var(--border);
    border-radius: 8px; padding: 12px 16px; min-width: 150px; flex: 1 1 150px;
  }
  .tile .label { color: var(--text-muted); font-size: 12px; }
  .tile .value { font-size: 28px; margin-top: 2px; }
  .tile svg { display: block; margin-top: 6px; }
  .tile .spark-line { fill: none; stroke: var(--series-1); stroke-width: 2; }
  section {
    background: var(--surface-1); border: 1px solid var(--border);
    border-radius: 8px; padding: 14px 16px; margin-bottom: 16px;
  }
  section h2 { font-size: 13px; margin: 0 0 10px; color: var(--text-secondary); font-weight: 600; }
  table { border-collapse: collapse; width: 100%; font-variant-numeric: tabular-nums; }
  th { text-align: left; color: var(--text-muted); font-weight: 500; font-size: 12px; }
  th, td { padding: 5px 12px 5px 0; border-bottom: 1px solid var(--grid); }
  tr:last-child td { border-bottom: none; }
  td.num, th.num { text-align: right; }
  .dot { display: inline-block; width: 8px; height: 8px; border-radius: 50%; margin-right: 6px; }
  .state-queued  .dot { background: var(--status-warning); }
  .state-running .dot { background: var(--series-1); }
  .state-done    .dot { background: var(--status-good); }
  .state-failed  .dot { background: var(--status-critical); }
  code { color: var(--text-secondary); font-size: 12px; }
  #feed {
    max-height: 260px; overflow-y: auto; font-family: ui-monospace, monospace;
    font-size: 12px; color: var(--text-secondary); white-space: pre-wrap;
  }
  #feed .t { color: var(--text-muted); }
  .empty { color: var(--text-muted); }
</style>
</head>
<body class="viz-root">
<h1>repro campaign service</h1>
<p class="sub" id="store-line"></p>

<div class="tiles">
  <div class="tile"><div class="label">records in store</div><div class="value" id="kpi-records">&ndash;</div></div>
  <div class="tile"><div class="label">campaigns</div><div class="value" id="kpi-campaigns">&ndash;</div></div>
  <div class="tile">
    <div class="label">requests / s</div><div class="value" id="kpi-rps">&ndash;</div>
    <svg id="spark" width="140" height="28" viewBox="0 0 140 28" role="img"
         aria-label="request rate, recent trend"><polyline class="spark-line" points=""/></svg>
  </div>
  <div class="tile"><div class="label">resident memory</div><div class="value" id="kpi-rss">&ndash;</div></div>
  <div class="tile"><div class="label">faults / retries</div><div class="value" id="kpi-faults">&ndash;</div></div>
</div>

<section>
  <h2>Campaigns</h2>
  <table>
    <thead><tr><th>id</th><th>kind</th><th>state</th><th class="num">scenarios</th>
      <th class="num">progress</th><th class="num">executed</th><th class="num">cache hits</th></tr></thead>
    <tbody id="campaign-rows"></tbody>
  </table>
  <p class="empty" id="campaign-empty">No campaigns submitted yet.</p>
</section>

<section>
  <h2>Request latency by route (p95, seconds)</h2>
  <table>
    <thead><tr><th>route</th><th class="num">requests</th><th class="num">p50</th>
      <th class="num">p95</th><th class="num">max</th></tr></thead>
    <tbody id="route-rows"></tbody>
  </table>
  <p class="empty" id="route-empty">No requests measured yet.</p>
</section>

<section>
  <h2>Live events <span id="feed-src" style="font-weight:400"></span></h2>
  <div id="feed"></div>
</section>

<script id="bootstrap" type="application/json">__BOOTSTRAP__</script>
<script>
"use strict";
const bootstrap = JSON.parse(document.getElementById("bootstrap").textContent);
const $ = (id) => document.getElementById(id);

function fmtBytes(n) {
  if (n == null) return "\\u2013";
  const units = ["B", "KiB", "MiB", "GiB"];
  let u = 0;
  while (n >= 1024 && u < units.length - 1) { n /= 1024; u++; }
  return n.toFixed(u ? 1 : 0) + " " + units[u];
}
function fmtSec(v) { return v == null ? "\\u2013" : Number(v).toFixed(4); }

function renderCampaigns(campaigns) {
  $("kpi-campaigns").textContent = campaigns.length;
  $("campaign-empty").style.display = campaigns.length ? "none" : "";
  $("campaign-rows").innerHTML = campaigns.map((c) => {
    const p = c.progress || {};
    const prog = p.total ? `${p.done}/${p.total}` : "\\u2013";
    const r = c.result || {};
    return `<tr class="state-${c.state}">
      <td><code>${c.id.slice(0, 16)}</code></td><td>${c.kind}</td>
      <td><span class="dot"></span>${c.state}</td>
      <td class="num">${c.scenarios ?? "\\u2013"}</td><td class="num">${prog}</td>
      <td class="num">${r.executed ?? "\\u2013"}</td><td class="num">${r.cached ?? "\\u2013"}</td>
    </tr>`;
  }).join("");
}

// --- request-rate sparkline: deltas of http_requests_total between polls ---
const rateHistory = [];
let lastTotal = null, lastPollT = null;
function updateRate(metrics) {
  let total = 0;
  for (const [key, value] of Object.entries(metrics.counters || {}))
    if (key.startsWith("http_requests_total")) total += value;
  const now = Date.now() / 1000;
  if (lastTotal != null && now > lastPollT)
    rateHistory.push((total - lastTotal) / (now - lastPollT));
  lastTotal = total; lastPollT = now;
  while (rateHistory.length > 40) rateHistory.shift();
  if (rateHistory.length) {
    $("kpi-rps").textContent = rateHistory[rateHistory.length - 1].toFixed(1);
    const max = Math.max(...rateHistory, 1e-9);
    const pts = rateHistory.map((v, i) =>
      `${(i / Math.max(rateHistory.length - 1, 1)) * 138 + 1},${26 - (v / max) * 22}`);
    const line = $("spark").querySelector("polyline");
    line.setAttribute("points", pts.join(" "));
    $("spark").setAttribute("aria-label",
      `request rate, recent trend, latest ${rateHistory[rateHistory.length - 1].toFixed(1)}/s`);
  }
}

function renderRoutes(metrics) {
  const routes = new Map();
  for (const [key, h] of Object.entries(metrics.histograms || {})) {
    const m = key.match(/^http_request_duration_seconds\\{.*route="([^"]*)"/);
    if (!m) continue;
    const agg = routes.get(m[1]) || { count: 0, p50: null, p95: null, max: null };
    agg.count += h.count;
    const q = h.quantiles || {};
    for (const [field, v] of [["p50", q.p50], ["p95", q.p95], ["max", h.max]])
      if (v != null) agg[field] = agg[field] == null ? v : Math.max(agg[field], v);
    routes.set(m[1], agg);
  }
  const rows = [...routes.entries()].sort((a, b) => b[1].count - a[1].count);
  $("route-empty").style.display = rows.length ? "none" : "";
  $("route-rows").innerHTML = rows.map(([route, a]) =>
    `<tr><td><code>${route}</code></td><td class="num">${a.count}</td>
     <td class="num">${fmtSec(a.p50)}</td><td class="num">${fmtSec(a.p95)}</td>
     <td class="num">${fmtSec(a.max)}</td></tr>`).join("");
}

function renderMetrics(metrics) {
  updateRate(metrics);
  renderRoutes(metrics);
  const rss = (metrics.gauges || {})["process_resident_memory_bytes"];
  $("kpi-rss").textContent = fmtBytes(rss);
  // Recovery activity: injected faults, in-campaign retries and
  // scheduler restarts, summed across label variants.
  let recovery = 0;
  for (const [key, value] of Object.entries(metrics.counters || {}))
    if (/^(faults\\.injected|retry\\.|scheduler\\.)/.test(key))
      recovery += value;
  $("kpi-faults").textContent = String(recovery);
}

// --- live event feed over SSE, following the most interesting campaign ---
let feedSource = null, feedCampaign = null;
function followEvents(campaigns) {
  const pick = campaigns.findLast((c) => c.state === "running")
    || campaigns.findLast((c) => c.state === "done") || campaigns[campaigns.length - 1];
  if (!pick || pick.id === feedCampaign) return;
  if (feedSource) feedSource.close();
  feedCampaign = pick.id;
  $("feed-src").textContent = `\\u2014 campaign ${pick.id.slice(0, 16)}`;
  feedSource = new EventSource(`/campaigns/${pick.id}/events`);
  feedSource.onmessage = feedSource.onerror = null;
  ["scenario", "sweep", "campaign", "probe", "counter", "gauge", "end", "shutdown"]
    .forEach((name) => feedSource.addEventListener(name, (ev) => {
      const feed = $("feed");
      const line = document.createElement("div");
      line.innerHTML = `<span class="t">${new Date().toLocaleTimeString()}</span> ${name} ${ev.data}`;
      feed.appendChild(line);
      while (feed.childNodes.length > 200) feed.removeChild(feed.firstChild);
      feed.scrollTop = feed.scrollHeight;
      if (name === "end" || name === "shutdown") feedSource.close();
    }));
}

async function poll() {
  try {
    const [campaigns, metrics] = await Promise.all([
      fetch("/campaigns").then((r) => r.json()),
      fetch("/metrics").then((r) => r.json()),
    ]);
    renderCampaigns(campaigns.campaigns || []);
    renderMetrics(metrics);
    followEvents(campaigns.campaigns || []);
    const health = await fetch("/healthz").then((r) => r.json());
    $("kpi-records").textContent = health.records ?? "\\u2013";
  } catch (err) { /* service away or token-protected: keep the bootstrap view */ }
}

$("store-line").textContent =
  `store ${bootstrap.store} \\u2014 ${bootstrap.records} records` +
  (bootstrap.draining ? " \\u2014 draining" : "");
$("kpi-records").textContent = bootstrap.records;
renderCampaigns(bootstrap.campaigns || []);
poll();
setInterval(poll, 2000);
</script>
</body>
</html>
"""
