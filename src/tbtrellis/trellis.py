"""Trellis containers, the tailbiting code-trellis builder, and exports.

States are the bit tuples themselves (encoder registers row-major,
syndrome-former cells in block order), so states match across modules
without translation.  A tailbiting subtrellis is identified by its
anchor: the state occupied at both cut 0 and cut N.

Every subtrellis query (path count, path enumeration, the highlighted
edges of ``to_dot`` and the decoder's ``min_weight_path``) reads one
backward pass, ``_to_anchor``, that gives each state at each cut the
least label weight and the number of its paths into the anchor.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

from .gf2 import format_bits, format_state
from .state_machines import enc_state_space, encoder

DEFAULT_MAX_PATHS = 2**20


@dataclass(frozen=True)
class Edge:
    src: tuple
    label: tuple
    dst: tuple


@dataclass(frozen=True)
class Trellis:
    kind: str  # "code" | "error" | "backward-error"
    n_sections: int
    states_per_cut: tuple
    sections: tuple

    @property
    def anchors(self):
        """States present at both cut 0 and cut N, in tuple order."""
        last = set(self.states_per_cut[-1])
        return [s for s in self.states_per_cut[0] if s in last]

    @cached_property
    def adjacency(self):
        """Per section, a dict from each source state to its outgoing edges."""
        out = []
        for section in self.sections:
            adj = {}
            for e in section:
                adj.setdefault(e.src, []).append(e)
            out.append(adj)
        return tuple(out)


def _make_trellis(kind, states, section_edges):
    """Assemble a time-invariant trellis from one section's edge list."""
    n_sections = len(section_edges)
    if n_sections < 1:
        raise ValueError("a trellis needs at least one section")
    cuts = tuple(tuple(states) for _ in range(n_sections + 1))
    sections = tuple(tuple(sorted(es, key=lambda e: (e.src, e.label, e.dst))) for es in section_edges)
    return Trellis(kind=kind, n_sections=n_sections, states_per_cut=cuts, sections=sections)


def build_tailbiting_code_trellis(G, N):
    """N identical encoder sections over all encoder states."""
    if N < 1:
        raise ValueError("need N >= 1 sections")
    edges = [Edge(src=beta, label=y, dst=nxt) for beta, _, nxt, y in encoder(G).edges()]
    return _make_trellis("code", enc_state_space(G), [edges] * N)


def _require_anchor(T, anchor):
    if anchor not in T.states_per_cut[0] or anchor not in T.states_per_cut[-1]:
        raise ValueError(f"state {format_state(anchor)} is not an anchor of this trellis")


def _to_anchor(T, anchor):
    """Per cut, {state: (least label weight, number of paths)} into ``anchor`` at cut N.

    One backward pass over ``T.adjacency``.  Only states with a path into
    the anchor appear, so cut 0 holds the anchor iff its subtrellis has a
    tailbiting path.  Raises unless ``anchor`` is an anchor of T.
    """
    _require_anchor(T, anchor)
    cuts = [{anchor: (0, 1)}]
    for adj in reversed(T.adjacency):
        nxt, cur = cuts[-1], {}
        for state, edges in adj.items():
            ways = [(sum(e.label) + nxt[e.dst][0], nxt[e.dst][1]) for e in edges if e.dst in nxt]
            if ways:
                cur[state] = (min(w for w, _ in ways), sum(c for _, c in ways))
        cuts.append(cur)
    return cuts[::-1]


def count_paths(T, anchor):
    """Number of tailbiting paths through the subtrellis at ``anchor``."""
    return _to_anchor(T, anchor)[0].get(anchor, (0, 0))[1]


def enumerate_paths(T, anchor, max_paths=DEFAULT_MAX_PATHS):
    """All tailbiting paths of one subtrellis, ordered by label sequence.

    Each path is a (labels, states) pair: N edge labels and N+1 states.
    Raises if the subtrellis holds more than ``max_paths`` paths.
    """
    cuts = _to_anchor(T, anchor)
    total = cuts[0].get(anchor, (0, 0))[1]
    if total > max_paths:
        raise ValueError(f"subtrellis has {total} paths, exceeding the bound {max_paths}")
    paths = []
    stack = [((), (anchor,))]
    while stack:
        labels, states = stack.pop()
        t = len(labels)
        if t == T.n_sections:
            paths.append((labels, states))
            continue
        for e in T.adjacency[t].get(states[-1], ()):
            if e.dst in cuts[t + 1]:
                stack.append((labels + (e.label,), states + (e.dst,)))
    paths.sort(key=lambda p: (p[0], p[1]))
    return paths


def _subtrellis_edges(T, anchor):
    """Edges lying on at least one tailbiting path of the subtrellis."""
    cuts = _to_anchor(T, anchor)
    chosen, here = set(), {anchor}
    for t, adj in enumerate(T.adjacency):
        on = [e for s in here for e in adj.get(s, ()) if e.dst in cuts[t + 1]]
        chosen.update((t, e) for e in on)
        here = {e.dst for e in on}
    return chosen


def to_dot(T, highlight=None):
    """GraphViz rendering: cuts as ranked columns, labels as bit strings."""
    bold = _subtrellis_edges(T, highlight) if highlight is not None else set()
    lines = [f'digraph "{T.kind}-trellis" {{', "\trankdir=LR;", '\tnode [shape=ellipse fontsize=10];']
    for t, states in enumerate(T.states_per_cut):
        nodes = " ".join(f'"{t}|{format_state(s)}" [label="{format_state(s)}"];' for s in states)
        lines.append("\t{ rank=same; %s }" % nodes)
    for t, section in enumerate(T.sections):
        for e in section:
            style = " style=bold penwidth=2" if (t, e) in bold else ""
            lines.append(
                f'\t"{t}|{format_state(e.src)}" -> "{t + 1}|{format_state(e.dst)}"'
                f' [label="{format_bits(e.label)}"{style}];'
            )
    lines.append("}")
    return "\n".join(lines)


def to_json(T):
    """JSON rendering: {"cuts": [[state strings]], "sections": [[edges]]}."""
    obj = {
        "cuts": [[format_state(s) for s in states] for states in T.states_per_cut],
        "sections": [
            [
                {"from": format_state(e.src), "label": format_bits(e.label), "to": format_state(e.dst)}
                for e in section
            ]
            for section in T.sections
        ],
    }
    return json.dumps(obj, indent=2)
