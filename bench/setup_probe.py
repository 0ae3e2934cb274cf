"""One set-up, as a fresh process: import the CLI, parse configs, assemble couplings.

``python3 bench/setup_probe.py CONFIG...``.  The benchmark times this whole
process, from start to exit, as one sample of ``setup_s``.  It stops short
of any eigendecomposition, so work moved into set-up shows there.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spinpst.cli  # noqa: E402,F401  (the module a user's first command loads)
from spinpst.config import RunConfig  # noqa: E402

for path in sys.argv[1:]:
    cfg = RunConfig.from_file(path)
    cfg.couplings()
    cfg.partition()
