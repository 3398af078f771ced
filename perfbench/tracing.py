"""Spans around the public functions of each tbtrellis module, kept in memory.

A function is wrapped wherever a caller looks it up: every module of the
package whose namespace holds the function object gets the wrapper in its
place, so ``decoder.min_weight_path`` and the ``sf_step`` that
``error_trellis`` imported are both seen.  The package itself is not
edited; ``uninstall`` puts every original back.
"""

from __future__ import annotations

import gzip
import statistics
import sys
from array import array
from time import perf_counter

SPANNED = {
    "decoder": ["decode_tailbiting", "min_weight_path"],
    "error_trellis": [
        "sigma_fin",
        "tailbiting_syndromes",
        "build_tailbiting_error_trellis",
        "error_trellis_module",
        "error_anchor",
        "backward_syndromes",
    ],
    "state_machines": [
        "sf_step",
        "sf_run",
        "dual_state_of",
        "encoder_run",
        "sf_state_space",
        "enc_state_space",
        "tailbiting_encode",
    ],
    "trellis": ["enumerate_paths", "count_paths"],
    "scalar_parity": ["hscalar_tailbiting", "is_tailbiting_codeword"],
    "verify": [
        "suite_superposition",
        "suite_zero_syndrome",
        "suite_set_equality",
        "suite_eta_zeta",
        "suite_hscalar_membership",
        "suite_decoder_oracle",
    ],
    "codespec": ["load_codespec"],
    "cli": ["main"],
}
COUNTED = {"gf2": ["as_bits"]}
# the returned Trellis of this span gives trellis.edges_per_section
TRELLIS_SPAN = "error_trellis.build_tailbiting_error_trellis"


class Tracer:
    """Records spans (name, start, end, parent span, op id) while an op is open."""

    def __init__(self, package="tbtrellis"):
        self.names = []
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_of = array("i")
        self.stack = [-1]
        self.op = None
        self.counts = {}
        self.trellis_edges = 0
        self.trellis_sections = 0
        modules = [m for name, m in sys.modules.items() if name == package or name.startswith(package + ".")]
        self.patches = []
        for group, wrap in ((SPANNED, self._span), (COUNTED, self._count)):
            for mod, fnames in group.items():
                for fname in fnames:
                    original = getattr(sys.modules[f"{package}.{mod}"], fname)
                    wrapper = wrap(f"{mod}.{fname}", original)
                    for m in modules:
                        for attr, value in list(vars(m).items()):
                            if value is original:
                                self.patches.append((m, attr, original, wrapper))

    def install(self):
        for m, attr, _, wrapper in self.patches:
            setattr(m, attr, wrapper)

    def uninstall(self):
        for m, attr, original, _ in self.patches:
            setattr(m, attr, original)

    def _span(self, name, fn):
        idx = len(self.names)
        self.names.append(name)
        trellis = name == TRELLIS_SPAN

        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            i = len(self.start)
            self.name_of.append(idx)
            self.parent.append(self.stack[-1])
            self.op_of.append(self.op)
            self.end.append(0.0)
            self.stack.append(i)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter()
                self.stack.pop()
            if trellis:
                self.trellis_sections += result.n_sections
                self.trellis_edges += sum(len(s) for s in result.sections)
            return result

        return wrapper

    def _count(self, name, fn):
        self.counts[name] = 0

        def wrapper(*args, **kwargs):
            if self.op is not None:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def snapshot(self):
        """Mark for ``aggregate``: span index and counters at this moment."""
        return len(self.start), dict(self.counts), self.trellis_edges, self.trellis_sections

    def aggregate(self, mark0, mark1):
        """Per-function calls, busy and self seconds over the spans between two marks."""
        lo, hi = mark0[0], mark1[0]
        dur = [self.end[i] - self.start[i] for i in range(lo, hi)]
        child = [0.0] * (hi - lo)
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                child[p - lo] += dur[i - lo]
        out = {name: [0, 0.0, 0.0] for name in self.names}
        for i in range(lo, hi):
            row = out[self.names[self.name_of[i]]]
            row[0] += 1
            row[1] += dur[i - lo]
            row[2] += dur[i - lo] - child[i - lo]
        counts = {name: mark1[1][name] - mark0[1][name] for name in self.counts}
        return out, counts, mark1[2] - mark0[2], mark1[3] - mark0[3]

    def write(self, path):
        """All spans as gzipped CSV: id, name, start and end (s, from the first span), parent, op."""
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write("span,name,start_s,end_s,parent,op\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.names[self.name_of[i]]},{self.start[i] - t0:.9f},"
                    f"{self.end[i] - t0:.9f},{self.parent[i]},{self.op_of[i]}\n"
                )


def layer_metrics(passes, ops_per_pass):
    """Per-layer metrics per op: calls from the first traced pass, times as medians over passes."""
    metrics = {}
    first = passes[0]
    for name, (calls, _, _) in first[0].items():
        if name.startswith("verify."):
            continue
        metrics[f"{name}.calls"] = (calls / ops_per_pass, "calls/op")
        metrics[f"{name}.busy_s"] = (statistics.median(p[0][name][1] for p in passes) / ops_per_pass, "s/op")
        metrics[f"{name}.self_s"] = (statistics.median(p[0][name][2] for p in passes) / ops_per_pass, "s/op")
    for name in first[0]:
        if name.startswith("verify."):
            metrics[f"{name}.busy_s"] = (statistics.median(p[0][name][1] for p in passes) / ops_per_pass, "s/op")
    for name, count in first[1].items():
        metrics[f"{name}.calls"] = (count / ops_per_pass, "calls/op")
    decodes = first[0]["decoder.decode_tailbiting"][0]
    searched = first[0]["decoder.min_weight_path"][0]
    metrics["decoder.anchors_per_word"] = (searched / decodes if decodes else 0.0, "count")
    edges, sections = first[2], first[3]
    metrics["trellis.edges_per_section"] = (edges / sections if sections else 0.0, "count")
    return metrics
