"""Self-contained HTML run dashboard.

:func:`render_dashboard` turns one :class:`~repro.obs.profile.RunProfile`
(plus, optionally, recent postmortem bundles) into a single static
HTML file with **no external assets** — styles, data, and the inline
SVG charts are all embedded, so the file can be archived next to the
profile it renders and opened anywhere.

Sections:

* header + stat tiles — the run's identity and headline numbers
* round timeline — worklist ``entries`` / ``survivors`` / ``added``
  per Alg.-2 round (the geometric-decay observable), from the
  profile's ``round_log``
* kernel share — each kernel's slice of the modeled runtime
* incidents — recent postmortem bundles (when supplied)
* a data-table view of every chart (the accessibility fallback)

Chart conventions follow the repo's dataviz rules: categorical hues
in fixed validated order, 2px lines with surface-ringed end markers,
bars ≤ 24px with rounded data-ends, text in ink tokens (never series
colors), a legend for multi-series charts, hover tooltips, and a dark
mode stepped for the dark surface (``prefers-color-scheme``).
"""

from __future__ import annotations

import html

__all__ = ["render_dashboard"]

# Validated categorical slots (light, dark) — order is the CVD-safety
# mechanism, do not shuffle.  Slot 1 doubles as the sequential hue.
_SERIES = (
    ("#2a78d6", "#3987e5"),  # blue
    ("#eb6834", "#d95926"),  # orange
    ("#1baf7a", "#199e70"),  # aqua
)

_CSS = """
:root {
  color-scheme: light;
  --surface: #fcfcfb; --page: #f9f9f7;
  --ink: #0b0b0b; --ink-2: #52514e; --muted: #898781;
  --grid: #e1e0d9; --axis: #c3c2b7;
  --border: rgba(11,11,11,0.10);
  --s1: #2a78d6; --s2: #eb6834; --s3: #1baf7a;
}
@media (prefers-color-scheme: dark) {
  :root {
    color-scheme: dark;
    --surface: #1a1a19; --page: #0d0d0d;
    --ink: #ffffff; --ink-2: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --axis: #383835;
    --border: rgba(255,255,255,0.10);
    --s1: #3987e5; --s2: #d95926; --s3: #199e70;
  }
}
* { box-sizing: border-box; }
body {
  margin: 0; padding: 24px; background: var(--page); color: var(--ink);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
}
h1 { font-size: 20px; margin: 0 0 2px; }
h2 { font-size: 15px; margin: 0 0 10px; font-weight: 600; }
.sub { color: var(--ink-2); margin: 0 0 20px; }
.card {
  background: var(--surface); border: 1px solid var(--border);
  border-radius: 10px; padding: 16px 18px; margin: 0 0 16px;
}
.row { display: flex; flex-wrap: wrap; gap: 16px; }
.row > .card { flex: 1 1 340px; margin: 0; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; margin: 0 0 16px; }
.tile {
  background: var(--surface); border: 1px solid var(--border);
  border-radius: 10px; padding: 10px 16px 12px; min-width: 128px;
}
.tile .label { color: var(--ink-2); font-size: 12px; }
.tile .value { font-size: 24px; font-weight: 600; }
.tile .hero { font-size: 48px; }
.legend { display: flex; gap: 16px; color: var(--ink-2); font-size: 12px;
  margin: 2px 0 8px; flex-wrap: wrap; }
.legend .key { display: inline-flex; align-items: center; gap: 6px; }
.legend .swatch { width: 14px; height: 3px; border-radius: 2px;
  display: inline-block; }
svg text { font: 11px system-ui, -apple-system, "Segoe UI", sans-serif;
  fill: var(--muted); }
svg text.val { fill: var(--ink-2); }
svg .grid { stroke: var(--grid); stroke-width: 1; }
svg .axis { stroke: var(--axis); stroke-width: 1; }
table { border-collapse: collapse; width: 100%; font-size: 13px; }
th, td { text-align: right; padding: 4px 10px;
  border-bottom: 1px solid var(--grid);
  font-variant-numeric: tabular-nums; }
th { color: var(--ink-2); font-weight: 600; }
th:first-child, td:first-child { text-align: left; }
details { margin-top: 4px; }
summary { cursor: pointer; color: var(--ink-2); }
#tip {
  position: fixed; display: none; pointer-events: none; z-index: 10;
  background: var(--surface); color: var(--ink);
  border: 1px solid var(--border); border-radius: 6px;
  padding: 5px 9px; font-size: 12px;
  box-shadow: 0 2px 8px rgba(0,0,0,0.18); white-space: pre;
}
.hit { cursor: default; }
footer { color: var(--muted); font-size: 12px; margin-top: 8px; }
"""

_JS = """
(function () {
  var tip = document.getElementById('tip');
  document.addEventListener('mousemove', function (e) {
    var t = e.target.closest('[data-tip]');
    if (!t) { tip.style.display = 'none'; return; }
    tip.textContent = t.getAttribute('data-tip');
    tip.style.display = 'block';
    var x = e.clientX + 12, y = e.clientY + 12;
    var r = tip.getBoundingClientRect();
    if (x + r.width > window.innerWidth - 8) x = e.clientX - r.width - 12;
    if (y + r.height > window.innerHeight - 8) y = e.clientY - r.height - 12;
    tip.style.left = x + 'px'; tip.style.top = y + 'px';
  });
})();
"""


# ----------------------------------------------------------------------
# Formatting helpers
# ----------------------------------------------------------------------
def _esc(s) -> str:
    return html.escape(str(s), quote=True)


def _compact(v: float) -> str:
    """Auto-compact figure: 1,284 / 12.9K / 4.2M."""
    v = float(v)
    for bound, suffix in ((1e9, "B"), (1e6, "M"), (1e4, "K")):
        if abs(v) >= bound:
            return f"{v / (1e9 if suffix == 'B' else 1e6 if suffix == 'M' else 1e3):.1f}{suffix}"
    if v == int(v):
        return f"{int(v):,}"
    return f"{v:,.2f}"


def _seconds(v: float) -> str:
    v = float(v)
    if v <= 0:
        return "0"
    if v < 1e-3:
        return f"{v * 1e6:.1f}µs"
    if v < 1.0:
        return f"{v * 1e3:.2f}ms"
    return f"{v:.2f}s"


# ----------------------------------------------------------------------
# SVG chart builders (inline, no dependencies)
# ----------------------------------------------------------------------
def _round_timeline_svg(rounds: list[dict]) -> str:
    """Three-series line chart of the per-round worklist trajectory."""
    w, h = 560, 220
    pad_l, pad_r, pad_t, pad_b = 46, 64, 12, 26
    iw, ih = w - pad_l - pad_r, h - pad_t - pad_b
    n = len(rounds)
    series = [
        ("entries", "var(--s1)"),
        ("survivors", "var(--s2)"),
        ("added", "var(--s3)"),
    ]
    vmax = max(
        (float(r.get(k, 0)) for r in rounds for k, _ in series), default=1.0
    )
    vmax = vmax or 1.0

    def x(i: int) -> float:
        return pad_l + (iw * i / max(n - 1, 1))

    def y(v: float) -> float:
        return pad_t + ih * (1.0 - v / vmax)

    parts = [
        f'<svg viewBox="0 0 {w} {h}" width="100%" role="img" '
        f'aria-label="Worklist entries, survivors and added edges per round">'
    ]
    # Hairline gridlines at clean fractions + baseline axis.
    for frac in (0.0, 0.5, 1.0):
        gy = pad_t + ih * (1.0 - frac)
        cls = "axis" if frac == 0.0 else "grid"
        parts.append(
            f'<line class="{cls}" x1="{pad_l}" y1="{gy:.1f}" '
            f'x2="{pad_l + iw}" y2="{gy:.1f}"/>'
        )
        parts.append(
            f'<text x="{pad_l - 6}" y="{gy + 4:.1f}" text-anchor="end">'
            f"{_compact(vmax * frac)}</text>"
        )
    for name, color in series:
        pts = " ".join(
            f"{x(i):.1f},{y(float(r.get(name, 0))):.1f}"
            for i, r in enumerate(rounds)
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            'stroke-width="2" stroke-linejoin="round" stroke-linecap="round"/>'
        )
    # Markers with a 2px surface ring + per-point hover targets; direct
    # end labels (selective: endpoint only, in ink not series color).
    for name, color in series:
        for i, r in enumerate(rounds):
            v = float(r.get(name, 0))
            tip = f"round {i} · {name}: {int(v):,}"
            parts.append(
                f'<circle cx="{x(i):.1f}" cy="{y(v):.1f}" r="4" '
                f'fill="{color}" stroke="var(--surface)" stroke-width="2" '
                f'class="hit" data-tip="{_esc(tip)}"/>'
            )
        last = float(rounds[-1].get(name, 0))
        parts.append(
            f'<text class="val" x="{x(n - 1) + 9:.1f}" '
            f'y="{y(last) + 4:.1f}">{name}</text>'
        )
    for i in range(n):
        parts.append(
            f'<text x="{x(i):.1f}" y="{h - 8}" text-anchor="middle">{i}</text>'
        )
    parts.append("</svg>")
    return "".join(parts)


def _kernel_share_svg(kernels: dict, total_s: float) -> str:
    """Horizontal single-hue bars: each kernel's share of modeled time."""
    items = sorted(
        ((name, float(b.get("seconds", 0.0))) for name, b in kernels.items()),
        key=lambda kv: -kv[1],
    )
    if not items:
        return "<p class='sub'>no kernel breakdown in this profile</p>"
    total = total_s or sum(s for _, s in items) or 1.0
    bar_h, gap, pad_l, pad_r = 18, 10, 110, 150
    w = 560
    h = len(items) * (bar_h + gap) + 8
    iw = w - pad_l - pad_r
    vmax = items[0][1] or 1.0
    parts = [
        f'<svg viewBox="0 0 {w} {h}" width="100%" role="img" '
        f'aria-label="Share of modeled runtime per kernel">'
    ]
    parts.append(
        f'<line class="axis" x1="{pad_l}" y1="0" x2="{pad_l}" y2="{h}"/>'
    )
    for i, (name, secs) in enumerate(items):
        top = 4 + i * (bar_h + gap)
        bw = max(iw * secs / vmax, 1.5)
        share = 100.0 * secs / total
        tip = f"{name}: {_seconds(secs)} · {share:.1f}% of modeled time"
        # Rounded data-end, square at the baseline.
        parts.append(
            f'<path d="M{pad_l},{top} h{bw - 4:.1f} q4,0 4,4 v{bar_h - 8} '
            f'q0,4 -4,4 h-{bw - 4:.1f} z" fill="var(--s1)" class="hit" '
            f'data-tip="{_esc(tip)}"/>'
        )
        parts.append(
            f'<text x="{pad_l - 6}" y="{top + bar_h - 5}" '
            f'text-anchor="end">{_esc(name)}</text>'
        )
        parts.append(
            f'<text class="val" x="{pad_l + bw + 6:.1f}" '
            f'y="{top + bar_h - 5}">{share:.1f}% · {_seconds(secs)}</text>'
        )
    parts.append("</svg>")
    return "".join(parts)


# ----------------------------------------------------------------------
# The page
# ----------------------------------------------------------------------
def _tile(label: str, value: str, *, hero: bool = False) -> str:
    cls = "value hero" if hero else "value"
    return (
        f'<div class="tile"><div class="label">{_esc(label)}</div>'
        f'<div class="{cls}">{value}</div></div>'
    )


def _round_table(rounds: list[dict]) -> str:
    body = "".join(
        f"<tr><td>{i}</td><td>{int(r.get('entries', 0)):,}</td>"
        f"<td>{int(r.get('survivors', 0)):,}</td>"
        f"<td>{int(r.get('added', 0)):,}</td></tr>"
        for i, r in enumerate(rounds)
    )
    return (
        "<details><summary>data table</summary><table><thead>"
        "<tr><th>round</th><th>entries</th><th>survivors</th><th>added</th>"
        f"</tr></thead><tbody>{body}</tbody></table></details>"
    )


def _incidents_section(incidents: list[dict] | None) -> str:
    """The incidents panel: recent postmortem bundles, newest first."""
    if not incidents:
        return ""
    rows = "".join(
        f"<tr><td>{_esc(b.get('captured_at', '?'))}</td>"
        f"<td>{_esc(b.get('reason', '?'))}</td>"
        f"<td>{_esc(b.get('query') or '-')}</td>"
        f"<td>{_esc(b.get('error_kind') or '-')}</td>"
        f"<td>{_esc(str(b.get('exit_code', 0)))}</td>"
        f"<td class=\"mono\">{_esc(str(b.get('path', '')))}</td></tr>"
        for b in reversed(incidents)
    )
    return (
        '<div class="card"><h2>Incidents</h2>'
        "<p>Postmortem bundles captured by the flight recorder — "
        "inspect with <code>repro-mst postmortem</code>, re-execute "
        "with <code>repro-mst replay</code>.</p>"
        "<table><thead><tr><th>captured</th><th>reason</th>"
        "<th>query</th><th>kind</th><th>exit</th><th>bundle</th>"
        f"</tr></thead><tbody>{rows}</tbody></table></div>"
    )


def render_dashboard(
    profile: dict,
    *,
    title: str | None = None,
    incidents: list[dict] | None = None,
) -> str:
    """Render the full dashboard HTML for one run-profile dict.

    ``incidents`` is a list
    of postmortem-bundle summaries
    (:func:`~repro.obs.recorder.recent_bundles`) rendered as the
    incidents panel.
    """
    graph = profile.get("graph", {})
    rounds = profile.get("round_log") or []
    kernels = profile.get("kernels", {})
    modeled = float(profile.get("modeled_seconds", 0.0))
    name = title or (
        f"{profile.get('algorithm', 'run')} on {graph.get('name', '?')}"
    )

    tiles = [
        _tile("modeled time", _esc(_seconds(modeled)), hero=True),
        _tile("MST weight", _compact(profile.get("total_weight", 0))),
        _tile("MST edges", _compact(profile.get("num_mst_edges", 0))),
        _tile("rounds", _compact(profile.get("rounds", 0))),
    ]

    timeline = ""
    if rounds:
        legend = "".join(
            f'<span class="key"><span class="swatch" '
            f'style="background:{color}"></span>{label}</span>'
            for label, color in (
                ("entries", "var(--s1)"),
                ("survivors", "var(--s2)"),
                ("added", "var(--s3)"),
            )
        )
        timeline = (
            '<div class="card"><h2>Round timeline</h2>'
            f'<div class="legend">{legend}</div>'
            + _round_timeline_svg(rounds)
            + _round_table(rounds)
            + "</div>"
        )

    kernel_card = (
        '<div class="card"><h2>Kernel share of modeled time</h2>'
        + _kernel_share_svg(kernels, modeled)
        + "</div>"
    )

    sub = (
        f"{_esc(graph.get('name', '?'))} · "
        f"|V| {_compact(graph.get('vertices', 0))} · "
        f"|E| {_compact(graph.get('edges', 0))} · "
        f"digest {_esc(graph.get('digest', '?'))}"
    )
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>{_esc(name)}</title>
<style>{_CSS}</style>
</head>
<body>
<h1>{_esc(name)}</h1>
<p class="sub">{sub}</p>
<div class="tiles">{''.join(tiles)}</div>
{timeline}
<div class="row">{kernel_card}</div>
{_incidents_section(incidents)}
<footer>repro-mst dashboard · schema {_esc(profile.get('schema', '?'))}</footer>
<div id="tip"></div>
<script>{_JS}</script>
</body>
</html>
"""
