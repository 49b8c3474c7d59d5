"""Fresh-process entry points used by run.py.

    python perfbench/child.py setup WORKLOAD SEED
        import the package and finish one warm-up op of WORKLOAD, then exit.
    python perfbench/child.py import
        print the seconds taken to import ``grassmann_angles.cli``.
"""

from __future__ import annotations

import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def _setup(workload: str, seed: int) -> int:
    import grassmann_angles
    import workloads

    workloads.make(workload, grassmann_angles, ROOT, seed, small=True).op(0)
    return 0


def _import() -> int:
    start = perf_counter()
    import grassmann_angles.cli  # noqa: F401

    print(perf_counter() - start)
    return 0


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    if argv[:1] == ["setup"] and len(argv) == 3:
        return _setup(argv[1], int(argv[2]))
    if argv == ["import"]:
        return _import()
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
