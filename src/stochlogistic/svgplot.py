"""Minimal standalone SVG rendering for datasets and histograms.

No plotting dependency: documents are assembled as strings with fixed
formatting, so identical inputs produce identical bytes.  Step plots
mirror the histogram figures (with vertical marker lines at analytic
values); scatter plots mirror the bifurcation diagrams.
"""

from __future__ import annotations

import math

from .errors import DomainError

_WIDTH, _HEIGHT = 720, 520
_ML, _MR, _MT, _MB = 72, 24, 40, 56
_TICK_TARGET = 6  # ticks per axis before the step is rounded to 1, 2, 2.5, 5 x 10^n

_PALETTE = (
    "#7b3294",  # purple
    "#0571b0",  # blue
    "#008837",  # green
    "#8c510a",  # brown
    "#e66101",  # orange
    "#ca0020",  # red
)


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _ticks(lo: float, hi: float) -> list[float]:
    raw = (hi - lo) / _TICK_TARGET
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if raw <= step:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * step:
        ticks.append(0.0 if abs(t) < 1e-12 else t)
        t += step
    return ticks


class _Canvas:
    def __init__(self, x_range, y_range, title: str, x_label: str, y_label: str):
        self.x_lo, self.x_hi = x_range
        self.y_lo, self.y_hi = y_range
        if self.x_hi <= self.x_lo:
            self.x_hi = self.x_lo + 1.0
        self.parts: list[str] = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
            f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
            f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
            f'<text x="{_WIDTH / 2:.1f}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15">{title}</text>',
        ]
        self._axes(x_label, y_label)

    def px(self, x: float) -> float:
        frac = (x - self.x_lo) / (self.x_hi - self.x_lo)
        return _ML + frac * (_WIDTH - _ML - _MR)

    def py(self, y: float) -> float:
        frac = (y - self.y_lo) / (self.y_hi - self.y_lo)
        return _HEIGHT - _MB - frac * (_HEIGHT - _MT - _MB)

    def _axes(self, x_label: str, y_label: str) -> None:
        x0, x1 = _ML, _WIDTH - _MR
        y0, y1 = _HEIGHT - _MB, _MT
        self.parts.append(
            f'<path d="M {x0} {y1} L {x0} {y0} L {x1} {y0}" fill="none" '
            f'stroke="black" stroke-width="1"/>'
        )
        for t in _ticks(self.x_lo, self.x_hi):
            px = self.px(t)
            self.parts.append(
                f'<line x1="{px:.2f}" y1="{y0}" x2="{px:.2f}" y2="{y0 + 5}" stroke="black"/>'
            )
            self.parts.append(
                f'<text x="{px:.2f}" y="{y0 + 20}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>'
            )
        for t in _ticks(self.y_lo, self.y_hi):
            py = self.py(t)
            self.parts.append(
                f'<line x1="{x0 - 5}" y1="{py:.2f}" x2="{x0}" y2="{py:.2f}" stroke="black"/>'
            )
            self.parts.append(
                f'<text x="{x0 - 8}" y="{py + 4:.2f}" text-anchor="end" '
                f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>'
            )
        self.parts.append(
            f'<text x="{(x0 + x1) / 2:.1f}" y="{_HEIGHT - 12}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13">{x_label}</text>'
        )
        self.parts.append(
            f'<text x="18" y="{(y0 + y1) / 2:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13" '
            f'transform="rotate(-90 18 {(y0 + y1) / 2:.1f})">{y_label}</text>'
        )

    def vline(self, x: float, color: str, label: str, slot: int) -> None:
        px = self.px(x)
        y1, y0 = _MT, _HEIGHT - _MB
        self.parts.append(
            f'<line x1="{px:.2f}" y1="{y1}" x2="{px:.2f}" y2="{y0}" '
            f'stroke="{color}" stroke-width="1.5" stroke-dasharray="6 3"/>'
        )
        self.legend(color, label, slot)

    def legend(self, color: str, label: str, slot: int) -> None:
        ly = _MT + 16 + 16 * slot
        self.parts.append(
            f'<line x1="{_WIDTH - _MR - 150}" y1="{ly - 4}" x2="{_WIDTH - _MR - 126}" '
            f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>'
        )
        self.parts.append(
            f'<text x="{_WIDTH - _MR - 120}" y="{ly}" font-family="sans-serif" '
            f'font-size="11">{label}</text>'
        )

    def finish(self) -> str:
        self.parts.append("</svg>")
        return "\n".join(self.parts) + "\n"


def render_histograms(
    histograms,
    title: str,
    labels: tuple[str, ...] | None = None,
    markers: tuple[tuple[float, str, str], ...] = (),
) -> str:
    """Overlaid step plots of one or more histograms, with optional
    vertical marker lines, each an (x, color, label) tuple drawn dashed
    at x and named in the legend.  DomainError on empty input."""
    hists = list(histograms)
    if not hists or any(h.total == 0 for h in hists):
        raise DomainError("cannot render an empty histogram")
    if labels is not None and len(labels) != len(hists):
        raise DomainError("one label per histogram required")
    y_hi = max(float(h.density().max()) for h in hists)
    canvas = _Canvas((0.0, 1.0), (0.0, 1.05 * y_hi), title, "x", "density")
    slot = 0
    for idx, h in enumerate(hists):
        color = _PALETTE[idx % len(_PALETTE)]
        dens, edges = h.density(), h.edges
        pts = [f"{canvas.px(edges[0]):.2f},{canvas.py(0.0):.2f}"]
        for i, d in enumerate(dens):
            y = canvas.py(float(d))
            pts.append(f"{canvas.px(edges[i]):.2f},{y:.2f}")
            pts.append(f"{canvas.px(edges[i + 1]):.2f},{y:.2f}")
        pts.append(f"{canvas.px(edges[-1]):.2f},{canvas.py(0.0):.2f}")
        canvas.parts.append(
            f'<polyline points="{" ".join(pts)}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        if labels is not None:
            canvas.legend(color, labels[idx], slot)
            slot += 1
    for m in markers:
        canvas.vline(*m, slot)
        slot += 1
    return canvas.finish()


def render_scatter(dataset, vlines: tuple[tuple[float, str, str], ...], title: str) -> str:
    """Point cloud of (parameter, terminal state) pairs, one dot per
    sample, with vertical reference lines given as (x, color, label)
    tuples, as render_histograms' markers."""
    params = dataset.parameters
    states = dataset.terminal_states
    if len(params) == 0 or states.size == 0:
        raise DomainError("cannot render an empty dataset")
    canvas = _Canvas(
        (float(params[0]), float(params[-1])), (0.0, 1.0), title, "growth rate", "terminal state"
    )
    dots = []
    for lam, row in zip(params, states):
        px = canvas.px(float(lam))
        for x in row:
            dots.append(f'<circle cx="{px:.2f}" cy="{canvas.py(float(x)):.2f}" r="0.6"/>')
    canvas.parts.append('<g fill="black" fill-opacity="0.55">')
    canvas.parts.extend(dots)
    canvas.parts.append("</g>")
    for slot, m in enumerate(vlines):
        canvas.vline(*m, slot)
    return canvas.finish()
