"""Static renderings: DOT cover diagrams and ASCII strategy canvases.

Output is deterministic byte for byte: nodes, edges, rows and section
markers all follow the package's canonical orders.
"""

from __future__ import annotations

from .dsl import MergeDirective, TransferDirective, Workspace
from .lattice import Subset
from .model import Model
from .presheaf import AssignmentPresheaf, global_sections


def _covers(objects: tuple[Subset, ...]) -> list[tuple[Subset, Subset]]:
    """Hasse edges of an arbitrary subset poset: u -> v when u ⊂ v with
    nothing strictly between.  Only the workspace graph needs this; a cover
    family generates its own edges with :meth:`CoverFamily.covers`."""
    edges = []
    for v in objects:
        for u in objects:
            if u == v or not u.issubset(v):
                continue
            if any(
                w != u and w != v and u.issubset(w) and w.issubset(v) for w in objects
            ):
                continue
            edges.append((u, v))
    return edges


def dot_cover_family(p: AssignmentPresheaf, name: str) -> str:
    """Hasse diagram of the cover family, one node per object with its
    section count."""
    lines = [f'digraph "{name}" {{', "  rankdir=BT;", '  node [shape=box];']
    for u in p.family.objects_sorted:
        lines.append(f'  "{u}" [label="{u}\\n{len(p.rows[u])}"];')
    for u, v in p.family.covers():
        lines.append(f'  "{u}" -> "{v}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def dot_workspace(ws: Workspace, artifacts: dict[str, Model]) -> str:
    """Hub-level diagram: one node per named model, labeled with its
    feature set; merge and transfer arrows from the directives, plus the
    remaining cover relations between distinct universes."""
    lines = ["digraph workspace {", "  rankdir=BT;", '  node [shape=box];']
    names = [n for n in artifacts]
    for n in names:
        lines.append(f'  "{n}" [label="{n}\\n{artifacts[n].features}"];')
    directed = set()
    for d in ws.directives:
        if isinstance(d, MergeDirective):
            for side in (d.left, d.right):
                lines.append(f'  "{side}" -> "{d.result}" [label="merge"];')
                directed.add((side, d.result))
        elif isinstance(d, TransferDirective):
            lines.append(
                f'  "{d.source}" -> "{d.result}" '
                f'[label="transfer {d.identification}", style=dashed];'
            )
            directed.add((d.source, d.result))
    universes = {n: artifacts[n].features for n in names}
    distinct = sorted(set(universes.values()), key=Subset.key)
    keep = {}
    for u in distinct:
        keep[u] = [n for n in names if universes[n] == u]
    for u, v in _covers(tuple(distinct)):
        for a in keep[u]:
            for b in keep[v]:
                if (a, b) not in directed:
                    lines.append(f'  "{a}" -> "{b}" [style=dotted];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def canvas(model: Model, p: AssignmentPresheaf) -> str:
    """ASCII strategy canvas of ``model`` and its compiled presheaf ``p``:
    features as columns, fiber values stacked per column (highest
    declaration rank on top), one marker trail per global section."""
    order = model.feature_order()
    sections = global_sections(p)
    marks: dict[tuple[str, str], list[str]] = {}
    for i, s in enumerate(sections, start=1):
        for f in order:
            marks.setdefault((f, s.value_of(f)), []).append(f"*{i}")

    depth = max(len(model.fibers[f].values) for f in order)
    cells: list[list[str]] = []
    header = ["value"] + list(order)
    for rank in range(depth - 1, -1, -1):
        row = [f"[{rank}]"]
        for f in order:
            values = model.fibers[f].values
            if rank < len(values):
                v = values[rank]
                tag = "".join(marks.get((f, v), ()))
                row.append(f"{v}{' ' + tag if tag else ''}")
            else:
                row.append("")
        cells.append(row)
    widths = [
        max(len(header[i]), *(len(r[i]) for r in cells)) for i in range(len(header))
    ]
    out = [f"canvas: {model.name}"]
    out.append("  " + " | ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in cells:
        out.append("  " + " | ".join(c.ljust(w) for c, w in zip(row, widths)))
    out.append("sections:")
    if not sections:
        out.append("  (none)")
    for i, s in enumerate(sections, start=1):
        shown = ", ".join(f"{f}={s.value_of(f)}" for f in order)
        out.append(f"  *{i} {shown}")
    return "\n".join(line.rstrip() for line in out) + "\n"
