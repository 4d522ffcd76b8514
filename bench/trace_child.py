"""`python -m braggbell.cli ARGS` with spans recorded around braggbell's
public functions. The spans are written as JSON to the file named by
BRAGGBENCH_SPANS and carry the op id BRAGGBENCH_OP.

    python3 bench/trace_child.py ARGS...
"""

import json
import os
import sys
from pathlib import Path

from spans import Tracer

tracer = Tracer()
tracer.op = int(os.environ["BRAGGBENCH_OP"])
tracer.install()
from braggbell import cli  # noqa: E402  (after install, so cli.main is wrapped)

code = cli.main(sys.argv[1:])
Path(os.environ["BRAGGBENCH_SPANS"]).write_text(json.dumps(tracer.spans))
sys.exit(code)
