//! The `GET /` dashboard: one self-contained HTML file, no external
//! assets, no framework. It polls `/status` once a second and renders
//! fleet / queue / accuracy sparklines on `<canvas>`, plus the scheduler
//! and parameter-service counters — enough to see stragglers, backlog,
//! and a learning (or collapsing) run at a glance from any browser
//! pointed at the ops port.

/// The single-file HTML dashboard served at `/`.
pub const DASHBOARD_HTML: &str = r##"<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>vc-dl ops</title>
<style>
  body { font: 13px/1.5 ui-monospace, "SF Mono", Menlo, Consolas, monospace;
         background: #101418; color: #cdd6e0; margin: 0; padding: 1.2rem; }
  h1 { font-size: 1.05rem; margin: 0 0 .2rem; color: #e8eef4; }
  #sub { color: #7f8c99; margin-bottom: 1rem; }
  .grid { display: grid; grid-template-columns: repeat(auto-fit, minmax(270px, 1fr));
          gap: .8rem; }
  .card { background: #171d24; border: 1px solid #242d37; border-radius: 6px;
          padding: .7rem .9rem; }
  .card h2 { font-size: .78rem; text-transform: uppercase; letter-spacing: .06em;
             color: #7f8c99; margin: 0 0 .4rem; }
  .big { font-size: 1.5rem; color: #e8eef4; }
  canvas { width: 100%; height: 46px; display: block; margin-top: .4rem; }
  table { border-collapse: collapse; width: 100%; }
  td { padding: .1rem .4rem .1rem 0; }
  td.v { text-align: right; color: #e8eef4; }
  #bar { height: 8px; background: #242d37; border-radius: 4px; overflow: hidden;
         margin-top: .4rem; }
  #bar div { height: 100%; background: #3fa7ff; width: 0; transition: width .4s; }
  .ok { color: #58d68d; } .bad { color: #ff6b6b; }
  a { color: #3fa7ff; text-decoration: none; }
</style>
</head>
<body>
<h1>vc-dl operations</h1>
<div id="sub">connecting&hellip;</div>
<div class="grid">
  <div class="card"><h2>Job</h2>
    <div><span class="big" id="epoch">-</span> <span id="epochs_total"></span></div>
    <div id="bar"><div id="barfill"></div></div>
    <table>
      <tr><td>assimilations</td><td class="v" id="assims">-</td></tr>
      <tr><td>open workunits</td><td class="v" id="open">-</td></tr>
      <tr><td>state</td><td class="v" id="state">-</td></tr>
    </table>
  </div>
  <div class="card"><h2>Accuracy (per epoch)</h2>
    <div class="big" id="acc">-</div><canvas id="c_acc"></canvas></div>
  <div class="card"><h2>Fleet (alive hosts)</h2>
    <div class="big" id="alive">-</div><canvas id="c_fleet"></canvas>
    <table>
      <tr><td>in flight</td><td class="v" id="inflight">-</td></tr>
      <tr><td>in backoff</td><td class="v" id="backoff">-</td></tr>
      <tr><td>mean reliability</td><td class="v" id="rel">-</td></tr>
    </table>
  </div>
  <div class="card"><h2>Work queue depth</h2>
    <div class="big" id="depth">-</div><canvas id="c_queue"></canvas></div>
  <div class="card"><h2>Scheduler</h2><table id="t_sched"></table></div>
  <div class="card"><h2>Parameter service</h2><table id="t_ps"></table>
    <div id="skew"></div></div>
</div>
<p>raw: <a href="/metrics">/metrics</a> &middot; <a href="/status">/status</a>
 &middot; <a href="/events">/events</a> &middot; <a href="/trace">/trace</a>
 &middot; <a href="/healthz">/healthz</a></p>
<script>
"use strict";
const hist = { acc: [], alive: [], depth: [] };
const MAXPTS = 240;
function push(arr, v) { arr.push(v); if (arr.length > MAXPTS) arr.shift(); }
function spark(id, data, color) {
  const c = document.getElementById(id), ctx = c.getContext("2d");
  c.width = c.clientWidth; c.height = c.clientHeight;
  ctx.clearRect(0, 0, c.width, c.height);
  if (data.length < 2) return;
  const lo = Math.min(...data), hi = Math.max(...data), span = (hi - lo) || 1;
  ctx.beginPath(); ctx.strokeStyle = color; ctx.lineWidth = 1.5;
  data.forEach((v, i) => {
    const x = i / (data.length - 1) * (c.width - 2) + 1;
    const y = c.height - 3 - (v - lo) / span * (c.height - 6);
    i ? ctx.lineTo(x, y) : ctx.moveTo(x, y);
  });
  ctx.stroke();
}
function rows(tbl, pairs) {
  document.getElementById(tbl).innerHTML = pairs
    .map(([k, v]) => `<tr><td>${k}</td><td class="v">${v}</td></tr>`).join("");
}
function render(s) {
  document.getElementById("sub").textContent =
    `${s.label} - t=${s.t_s.toFixed(1)}s`;
  document.getElementById("epoch").textContent = `epoch ${s.epochs_done}`;
  document.getElementById("epochs_total").textContent = `of ${s.epochs_total}`;
  document.getElementById("barfill").style.width =
    s.epochs_total ? (100 * s.epochs_done / s.epochs_total) + "%" : "0";
  document.getElementById("assims").textContent = s.assimilations;
  document.getElementById("open").textContent = s.open_workunits;
  const st = document.getElementById("state");
  st.textContent = s.done ? "finished" : "running";
  st.className = "v " + (s.done ? "ok" : "");
  const acc = s.epoch_acc.length ? s.epoch_acc[s.epoch_acc.length - 1] : NaN;
  document.getElementById("acc").textContent =
    isNaN(acc) ? "-" : (100 * acc).toFixed(1) + "%";
  document.getElementById("alive").textContent =
    `${s.fleet.alive} / ${s.fleet.hosts}`;
  document.getElementById("inflight").textContent = s.fleet.in_flight;
  document.getElementById("backoff").textContent = s.fleet.in_backoff;
  document.getElementById("rel").textContent = s.fleet.mean_reliability.toFixed(3);
  document.getElementById("depth").textContent = s.queue_depth;
  push(hist.alive, s.fleet.alive);
  push(hist.depth, s.queue_depth);
  hist.acc = s.epoch_acc.slice();
  spark("c_acc", hist.acc, "#58d68d");
  spark("c_fleet", hist.alive, "#3fa7ff");
  spark("c_queue", hist.depth, "#f5b041");
  rows("t_sched", [
    ["assigned", s.server.assigned], ["completed", s.server.completed],
    ["timeouts", s.server.timeouts], ["reassignments", s.server.reassignments],
    ["stale results", s.server.stale_results],
    ["invalid results", s.server.invalid_results],
    ["quorum disagreements", s.server.quorum_disagreements],
    ["backoffs", s.server.backoffs]]);
  rows("t_ps", [
    ["shards", s.ps.shard_versions.length],
    ["fetches", s.ps.fetches], ["cache hits", s.ps.cache_hits],
    ["bytes rx", s.ps.bytes_rx], ["bytes tx", s.ps.bytes_tx],
    ["bytes saved", s.ps.bytes_saved],
    ["compression", (s.ps.compression_ratio || 1).toFixed(2) + "x"]]);
  document.getElementById("skew").textContent =
    `versions [${s.ps.shard_versions.join(", ")}] skew ${s.ps.version_skew}`;
}
async function poll() {
  try {
    const r = await fetch("/status", { cache: "no-store" });
    render(await r.json());
  } catch (e) {
    document.getElementById("sub").textContent = "status poll failed: " + e;
  }
}
poll();
setInterval(poll, 1000);
</script>
</body>
</html>
"##;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dashboard_is_self_contained() {
        assert!(DASHBOARD_HTML.contains("<!doctype html"));
        // Polls /status, links the raw endpoints, loads nothing external.
        assert!(DASHBOARD_HTML.contains("fetch(\"/status\""));
        for ep in ["/metrics", "/events", "/trace", "/healthz"] {
            assert!(DASHBOARD_HTML.contains(ep), "links {ep}");
        }
        assert!(!DASHBOARD_HTML.contains("http://"));
        assert!(!DASHBOARD_HTML.contains("https://"));
        assert!(!DASHBOARD_HTML.contains("src="), "no external scripts");
        // Renders the three sparkline canvases.
        for c in ["c_acc", "c_fleet", "c_queue"] {
            assert!(DASHBOARD_HTML.contains(c), "sparkline {c}");
        }
    }
}
