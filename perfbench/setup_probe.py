"""Child process for `setup_s`: start, set up one run, stop at the first step.

Usage: python3 setup_probe.py ROOT CONFIG SEED OUT

Goes through the same path as `ldgm run` (config file, problem registry,
reference solve, evaluation grid and truth values, init) and prints the
`time.monotonic()` reading at which the training loop is entered.  The
parent reads the same clock just before starting this process.
"""

import sys
import time
from pathlib import Path


class _Ready(Exception):
    pass


def _stop_at_loop(*args, **kwargs):
    print(repr(time.monotonic()), flush=True)
    raise _Ready


def main(root, config, seed, out) -> int:
    sys.path.insert(0, str(Path(root) / "src"))
    from ldgm import cli, trainer
    from ldgm.config import ExperimentConfig

    trainer.train_loop = _stop_at_loop
    cfg = ExperimentConfig.from_file(config)
    try:
        cli.run_single(cfg, int(seed), out)
    except _Ready:
        return 0
    print("training loop was never entered", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:5]))
