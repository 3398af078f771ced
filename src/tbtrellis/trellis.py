"""Trellis containers, the tailbiting code-trellis builder, and exports.

States are the bit tuples themselves (encoder registers row-major,
syndrome-former cells in block order), so states match across modules
without translation.  A tailbiting subtrellis is identified by its
anchor: the state occupied at both cut 0 and cut N.

Every subtrellis query reads integer rows derived once per trellis:
``Trellis._rows`` lists, per section and state index, the state's edges
in section order as (label weight, end index, edge index).  One backward
pass over them, ``_to_anchor``, gives each state at each cut the least
label weight and the exact number of its paths into the anchor; one
forward walk, ``_walk``, keeps cut by cut the edges from the states the
anchor reaches into states that still reach it.  ``count_paths`` reads
the pass, ``to_dot`` bolds the walk's edges, the decoder's
``min_weight_path`` follows the first optimal edge of the walk in section
order, and ``enumerate_paths`` expands the walk path by path.  The
verifier's set-equality suite reads none of them: it reads the sections
themselves into integer tables (``verify._tables``).
"""

from __future__ import annotations

import json
from functools import cached_property
from typing import NamedTuple

from .gf2 import format_bits, format_state
from .state_machines import _key, enc_state_space, encoder

DEFAULT_MAX_PATHS = 2**20


class Edge(NamedTuple):
    src: tuple
    label: tuple
    dst: tuple


class _Record:
    """An immutable record: ``_fields``, set once into ``__dict__`` by ``__init__``, with repr, equality and hash over
    them in order.

    Equality holds only between instances of one class.  Other attributes
    (a ``cached_property`` memo) stay out of all three.
    """

    def _values(self):
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def _replace(self, **changes):
        return type(self)(**{**dict(zip(self._fields, self._values())), **changes})

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{f}={v!r}' for f, v in zip(self._fields, self._values()))})"

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__


class Trellis(_Record):
    _fields = ("kind", "n_sections", "states_per_cut", "sections")

    def __init__(self, kind, n_sections, states_per_cut, sections):
        # kind: "code" | "error" | "backward-error"
        self.__dict__.update(kind=kind, n_sections=n_sections, states_per_cut=states_per_cut, sections=sections)

    @property
    def anchors(self):
        """States present at both cut 0 and cut N, in tuple order."""
        last = set(self.states_per_cut[-1])
        return [s for s in self.states_per_cut[0] if s in last]

    @cached_property
    def _rows(self):
        """Per section and state index of its cut, the state's edges in section order.

        Each edge is (label weight, end index, edge index), the end index
        into the next cut's states and the edge index into the section.
        """
        index = [{s: i for i, s in enumerate(states)} for states in self.states_per_cut]
        rows = [[[] for _ in states] for states in self.states_per_cut[:-1]]
        for t, section in enumerate(self.sections):
            for k, e in enumerate(section):
                rows[t][index[t][e.src]].append((sum(e.label), index[t + 1][e.dst], k))
        return rows


def _make_trellis(kind, states, section_edges):
    """Assemble a trellis over the same ``states`` at every cut from each section's edge list, kept in its order.

    Every builder hands its edges in (src, label, dst) order: the error
    modules arrive in it, and the code trellis sorts its one section once.
    """
    n_sections = len(section_edges)
    if n_sections < 1:
        raise ValueError("a trellis needs at least one section")
    cuts = tuple(tuple(states) for _ in range(n_sections + 1))
    sections = tuple(tuple(es) for es in section_edges)
    return Trellis(kind=kind, n_sections=n_sections, states_per_cut=cuts, sections=sections)


def build_tailbiting_code_trellis(G, N):
    """N identical encoder sections over all encoder states, each in (src, label, dst) order."""
    if N < 1:
        raise ValueError("need N >= 1 sections")
    edges = [Edge(src=beta, label=y, dst=nxt) for beta, _, nxt, y in encoder(G).edges()]
    section = tuple(sorted(edges))
    return _make_trellis("code", enc_state_space(G), [section] * N)


def _to_anchor(T, anchor):
    """Per cut and state index, (least label weight, number of paths) into ``anchor`` at cut N, and its index at cut 0.

    One backward pass over ``T._rows``; counts are Python integers, exact
    at any size.  A state without a path into the anchor holds (None, 0),
    so the anchor's count at cut 0 is its number of tailbiting paths.
    ``anchor`` is read once, as ``state_machines._key`` reads a state (a
    tuple, list or array); raises unless it is an anchor of T.
    """
    anchor = _key(anchor)
    if anchor not in T.states_per_cut[0] or anchor not in T.states_per_cut[-1]:
        raise ValueError(f"state {format_state(anchor)} is not an anchor of this trellis")
    cuts = [[(0, 1) if s == anchor else (None, 0) for s in T.states_per_cut[-1]]]
    for section in reversed(T._rows):
        nxt, cut = cuts[-1], []
        for edges in section:
            weight, count = None, 0
            for w, j, _ in edges:
                v, c = nxt[j]
                if c:
                    weight, count = w + v if weight is None or w + v < weight else weight, count + c
            cut.append((weight, count))
        cuts.append(cut)
    return cuts[::-1], T.states_per_cut[0].index(anchor)


def _walk(T, anchor):
    """The backward pass, the anchor's index at cut 0, and the subtrellis: per section, each state's live edges.

    Cut by cut from the anchor, each state the walk reaches keeps its
    edges (rows of ``T._rows``, in section order) into states that still
    reach the anchor; every other state's list is empty.
    """
    cuts, start = _to_anchor(T, anchor)
    here, walk = {start}, []
    for section, nxt in zip(T._rows, cuts[1:]):
        live = [[edge for edge in edges if nxt[edge[1]][1]] if i in here else [] for i, edges in enumerate(section)]
        here = {j for edges in live for _, j, _ in edges}
        walk.append(live)
    return cuts, start, walk


def count_paths(T, anchor):
    """Number of tailbiting paths through the subtrellis at ``anchor``."""
    cuts, start = _to_anchor(T, anchor)
    return cuts[0][start][1]


def enumerate_paths(T, anchor, max_paths=DEFAULT_MAX_PATHS):
    """All tailbiting paths of one subtrellis, ordered by label sequence.

    Each path is a (labels, states) pair: N edge labels and N+1 states.
    Raises if the subtrellis holds more than ``max_paths`` paths.
    """
    cuts, start, walk = _walk(T, anchor)
    total = cuts[0][start][1]
    if total > max_paths:
        raise ValueError(f"subtrellis has {total} paths, exceeding the bound {max_paths}")
    paths = [(start, ())]
    for live, section in zip(walk, T.sections):
        paths = [(j, edges + (section[k],)) for i, edges in paths for _, j, k in live[i]]
    return sorted((tuple(e.label for e in edges), (edges[0].src, *(e.dst for e in edges))) for _, edges in paths)


def to_dot(T, highlight=None):
    """GraphViz rendering: cuts as ranked columns, labels as bit strings."""
    # the edges on at least one tailbiting path of the highlighted subtrellis
    walk = _walk(T, highlight)[2] if highlight is not None else []
    bold = {(t, k) for t, live in enumerate(walk) for edges in live for _, _, k in edges}
    lines = [f'digraph "{T.kind}-trellis" {{', "\trankdir=LR;", '\tnode [shape=ellipse fontsize=10];']
    for t, states in enumerate(T.states_per_cut):
        nodes = " ".join(f'"{t}|{format_state(s)}" [label="{format_state(s)}"];' for s in states)
        lines.append("\t{ rank=same; %s }" % nodes)
    for t, section in enumerate(T.sections):
        for k, e in enumerate(section):
            style = " style=bold penwidth=2" if (t, k) in bold else ""
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
