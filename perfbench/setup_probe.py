"""Time one set-up of the ouq solver in a fresh interpreter.

    python3 perfbench/setup_probe.py <src-dir> <config-file>

Set-up is what a user pays before the first generation: importing `ouq`,
then `load_config` and `build_problem`.  Prints the seconds it took.
"""

import sys
import time
from pathlib import Path


def main() -> int:
    src, config_path = sys.argv[1], sys.argv[2]
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import ouq.cli
    from ouq.config import load_config

    config = load_config(config_path)
    ouq.cli.build_problem(config, config.seed)
    elapsed = time.perf_counter() - t0
    if Path(ouq.__file__).resolve().parent.parent != Path(src).resolve():
        print(f"ouq imported from {ouq.__file__}, not from {src}", file=sys.stderr)
        return 2
    print(repr(elapsed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
