"""Render compiled plans and execution results as readable reports.

``describe_plan`` prints the generated SPMD program the way the paper's
Figure 16 presents its final code: communication calls first-class,
fused subgrid loop nests with their statements and memory profile.
"""

from __future__ import annotations

from repro.plan.printer import plan_to_text as describe_plan  # noqa: F401
from repro.runtime.executor import ExecutionResult


def _render_matrix(matrix: list[list[int]], npes: int) -> list[str]:
    """Plain-text heatmap of an npes x npes matrix: counts plus a
    per-cell shade picked from the row of glyphs below."""
    peak = max((v for row in matrix for v in row), default=0)
    glyphs = " .:*#"
    width = max(5, len(str(peak)) + 2)
    lines = ["      " + "".join(f"d{d:<{width - 1}}" for d in range(npes))]
    for s in range(npes):
        cells = []
        for d in range(npes):
            v = matrix[s][d]
            shade = glyphs[min(len(glyphs) - 1,
                               (v * (len(glyphs) - 1) + peak - 1) // peak
                               if peak else 0)]
            cells.append(f"{v}{shade}".rjust(width))
        lines.append(f"  s{s:<3}" + "".join(cells))
    return lines


def describe_profile(profile) -> str:
    """Plain-text report of a :class:`repro.obs.profile.CommProfile`:
    per-class comm matrices, per-PE phase totals, and the cost-model
    validation table."""
    head = f"communication profile: {profile.backend} backend"
    if profile.kernel:
        head += f", {profile.kernel}"
    if profile.level:
        head += f" @{profile.level}"
    head += f", grid {'x'.join(map(str, profile.grid))}"
    lines = [head, ""]

    by_class = profile.totals["messages_by_class"]
    bytes_by = profile.totals["bytes_by_class"]
    lines.append("messages by class: " + ", ".join(
        f"{c}={by_class[c]} ({bytes_by[c]}B)"
        for c in by_class if by_class[c]))
    if not any(by_class.values()):
        lines[-1] = "messages by class: none (no interprocessor traffic)"
    lines.append("")

    for cls_name, counts in by_class.items():
        if not counts:
            continue
        lines.append(f"{cls_name} messages (src row -> dst column):")
        lines += _render_matrix(profile.matrix[cls_name]["messages"],
                                profile.npes)
        lines.append("")

    lines.append("per-PE modelled phase seconds:")
    lines.append(f"  {'PE':>4} {'comm':>12} {'copy':>12} {'compute':>12}")
    for pe in range(profile.npes):
        ph = profile.phase_seconds(pe)
        lines.append(f"  {pe:>4} {ph['comm']:>12.3e} {ph['copy']:>12.3e} "
                     f"{ph['compute']:>12.3e}")
    lines.append("")

    val = profile.validation
    lines.append("cost-model validation (modelled self-time vs measured "
                 "wall per op):")
    lines.append(f"  {'op':>4}  {'name':<16} {'modelled_s':>12} "
                 f"{'wall_s':>12}  {'msgs':>6}")
    for row in val["rows"]:
        lines.append(f"  {row['op']:>4}  {row['name']:<16} "
                     f"{row['modelled_s']:>12.3e} {row['wall_s']:>12.3e}  "
                     f"{row['messages']:>6}")
    scale = val["scale_wall_per_modelled"]
    if scale is None:
        # Comm-free plan: nothing was modelled, so no scale exists and
        # the error statistic is skipped rather than rendered as 0.
        lines.append("  scale (wall per modelled second): n/a "
                     "(no modelled time)")
    else:
        lines.append(f"  scale (wall per modelled second): {scale:.3g}")
        lines.append(f"  weighted abs error after scaling: "
                     f"{val['mape_pct']:.1f}%")
    return "\n".join(lines)


def describe_metrics(registry) -> str:
    """Human-readable dump of a
    :class:`repro.obs.metrics.MetricsRegistry`: every metric with its
    kind, help text, and per-label samples.  A run's costs are on its
    reports and its times on its spans; the registry counts across
    runs."""
    from repro.obs.metrics import Histogram, format_labels
    metrics = registry.metrics()
    if not metrics:
        return "no metrics recorded"
    lines = []
    for metric in metrics:
        lines.append(f"{metric.name} [{metric.kind}]")
        if metric.help:
            lines.append(f"  {metric.help}")
        for key, value in metric.samples():
            label = format_labels(key) or "(no labels)"
            if isinstance(metric, Histogram):
                mean = (value["sum"] / value["count"]
                        if value["count"] else 0.0)
                lines.append(
                    f"  {label}: count={value['count']} "
                    f"sum={value['sum']:.6g} mean={mean:.3g}")
            else:
                lines.append(f"  {label}: {value:g}")
        lines.append("")
    return "\n".join(lines).rstrip("\n")


def describe_result(result: ExecutionResult) -> str:
    """Cost summary of one execution."""
    r = result.report
    lines = [
        f"modelled time: {result.modelled_time * 1e3:.3f} ms",
        f"messages: {r.messages} ({r.message_bytes} bytes)",
        f"intraprocessor copies: {r.copies} "
        f"({r.copy_elements} elements)",
        f"loop points: {r.loop_points} "
        f"(mem loads {r.mem_loads:g}, cached {r.cached_loads:g}, "
        f"stores {r.stores:g}, flops {r.flops:g})",
        f"peak memory per PE: {result.peak_memory_per_pe} bytes",
        f"communication fraction: {r.comm_time_fraction * 100:.1f}%",
    ]
    return "\n".join(lines)
