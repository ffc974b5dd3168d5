"""One-off timings of the full-size instances behind the README's reference
figures, each in a fresh process with its peak resident memory.

    python3 perfbench/reference.py            # all cases, about two minutes
    python3 perfbench/reference.py ns-mem2    # one case

Not part of the timed runs: the largest cases take longer than a run.
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
CASES = ("loc-mem2", "ns-mem2", "ns-6^4", "local-4^4", "local-10x10x2x2")


def one(case: str) -> str:
    sys.path[:0] = [HERE, SRC]
    import numpy as np

    import nsgames as ng
    import workloads

    rng = np.random.default_rng([1, 99])
    mem2 = ng.iterate(ng.memory_game(ng.chsh()), 2)
    if case == "loc-mem2":
        start = time.perf_counter()
        detail = ng.value(mem2, "loc").value
    elif case.startswith("ns-"):
        from nsgames.simplex import simplex_solve

        game = mem2 if case == "ns-mem2" else ng.random_game((6, 6, 6, 6), rng, 0.3)
        start = time.perf_counter()
        result = simplex_solve(ng.ns_value_lp(game))
        detail = f"{result.optimum:.6f}, {result.iterations} pivots"
    else:
        shape = (4, 4, 4, 4) if case == "local-4^4" else (10, 10, 2, 2)
        corr = ng.Correlation(workloads.local_mixture(rng, shape, 3))
        ng.is_local(ng.Correlation(workloads.local_mixture(rng, (2, 2, 2, 2), 2)))
        start = time.perf_counter()
        detail = ng.is_local(corr)[0]
    took = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return f"{case}: {took:.2f} s, peak {peak:.0f} MB, {detail}"


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[1].startswith("--one="):
        print(one(argv[1][len("--one="):]), flush=True)
        return 0
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    for case in argv[1:] or CASES:
        subprocess.run([sys.executable, __file__, f"--one={case}"], env=env, check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
