"""Deterministic SVG scatter plots with a Pareto step curve and shaded area."""

from .stats import pareto_curve

WIDTH, HEIGHT = 640, 480
X_LABEL, Y_LABEL, FILL, STROKE = "e-complexity", "i-complexity (bits)", "#b07cc6", "#6a2c91"
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 20, 60


def _fmt(v):
    return "%.2f" % v


def scatter_with_pareto(points, title):
    """SVG document (a string) for the points and their Pareto step curve."""
    curve = pareto_curve(points)
    max_x = max(p[0] for p in points) * 1.05
    max_y = max(max(p[1] for p in points), 1e-9) * 1.1
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(x):
        return MARGIN_L + x / max_x * plot_w

    def sy(y):
        return HEIGHT - MARGIN_B - y / max_y * plot_h

    # step path: start at x=0 at the first plateau height, step down rightwards
    path = ["M %s %s" % (_fmt(sx(0)), _fmt(sy(curve.breakpoints[0][1])))]
    prev_h = curve.breakpoints[0][1]
    for x, h in curve.breakpoints:
        if h != prev_h:
            path.append("V %s" % _fmt(sy(h)))
            prev_h = h
        path.append("H %s" % _fmt(sx(x)))
    curve_path = " ".join(path)
    area_path = curve_path + " V %s H %s Z" % (_fmt(sy(0)), _fmt(sx(0)))

    out = []
    out.append('<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
               'viewBox="0 0 %d %d">' % (WIDTH, HEIGHT, WIDTH, HEIGHT))
    out.append('<rect width="%d" height="%d" fill="white"/>' % (WIDTH, HEIGHT))
    out.append('<path d="%s" fill="%s" fill-opacity="0.3" stroke="none"/>'
               % (area_path, FILL))
    out.append('<path d="%s" fill="none" stroke="%s" stroke-width="2"/>'
               % (curve_path, STROKE))
    for x, y in sorted(points):
        out.append('<circle cx="%s" cy="%s" r="4" fill="%s"/>'
                   % (_fmt(sx(x)), _fmt(sy(y)), STROKE))
    ax_y = HEIGHT - MARGIN_B
    out.append('<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>'
               % (MARGIN_L, ax_y, WIDTH - MARGIN_R, ax_y))
    out.append('<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>'
               % (MARGIN_L, MARGIN_T, MARGIN_L, ax_y))
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = frac * max_x
        yv = frac * max_y
        out.append('<text x="%s" y="%d" font-size="11" text-anchor="middle">%s</text>'
                   % (_fmt(sx(xv)), ax_y + 16, _fmt(xv)))
        out.append('<text x="%d" y="%s" font-size="11" text-anchor="end">%s</text>'
                   % (MARGIN_L - 6, _fmt(sy(yv) + 4), _fmt(yv)))
    out.append('<text x="%d" y="%d" font-size="14" text-anchor="middle">%s</text>'
               % (MARGIN_L + plot_w // 2, HEIGHT - 14, X_LABEL))
    out.append('<text x="16" y="%d" font-size="14" text-anchor="middle" '
               'transform="rotate(-90 16 %d)">%s</text>'
               % (MARGIN_T + plot_h // 2, MARGIN_T + plot_h // 2, Y_LABEL))
    # escaped as xml.sax.saxutils.escape does, without the ~7 MiB that
    # importing it costs (it pulls in urllib.request)
    title = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    out.append('<text x="%d" y="%d" font-size="14">%s</text>'
               % (MARGIN_L, MARGIN_T - 4, title))
    out.append('</svg>')
    return "\n".join(out) + "\n"
