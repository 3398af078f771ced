"""One set-up as a user pays it: a fresh interpreter imports tbtrellis, loads the
code spec and makes one warm-up call, then exits.  ``run.py`` times this whole
process to get ``setup_s``.

    python3 perfbench/probe.py decode CODE_JSON BITS
    python3 perfbench/probe.py verify CODE_JSON N SEED
"""

import contextlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tbtrellis  # noqa: E402
import tbtrellis.cli  # noqa: E402

kind, code = sys.argv[1], sys.argv[2]
spec = tbtrellis.load_codespec(code)
if kind == "decode":
    tbtrellis.decode_tailbiting(spec.G, spec.H, tbtrellis.split_symbols(tbtrellis.parse_bits(sys.argv[3]), spec.n))
else:
    # one trial per randomized suite: every suite runs once, the exhaustive ones
    # in full; its verdict is not checked here but on every timed call
    argv = ["verify", "--code", code, "-N", sys.argv[3], "--seed", sys.argv[4], "--trials", "1"]
    with contextlib.redirect_stdout(io.StringIO()):
        tbtrellis.cli.main(argv)
