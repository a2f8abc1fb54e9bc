"""One-off sweep of the influence circuit at n = 12, 16 and 18; not gated.

Run from the repository root:

    python3 bench/baseline_sweep.py

Each size runs in a fresh process, so its peak RSS is its own.  A child
times one ``influence_circuit`` call for variable 0 of ``x0&x1 ^ x2`` (the
circuit's cost does not depend on the function) and, from the spans of
``bench/spans.py``, the self time of the two Hadamard layers within it.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

SIZES = (12, 16, 18)


def child(n: int) -> dict:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import qjunta
    from spans import Tracer

    f = qjunta.parse_anf("x0&x1 ^ x2", n)
    tracer = Tracer()
    tracer.install()
    try:
        t0 = perf_counter()
        with tracer.root("bench.call"):
            qjunta.influence_circuit(f, n, 0)
        wall = perf_counter() - t0
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    return {
        "n": n,
        "circuit_s": wall,
        "hadamard_s": summary["qsim.hadamard.self_s"],
        "hadamard_layers": summary["qsim.hadamard.calls"],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main() -> int:
    if len(sys.argv) == 3 and sys.argv[1] == "--child":
        print(json.dumps(child(int(sys.argv[2]))))
        return 0
    rows = []
    for n in SIZES:
        done = subprocess.run([sys.executable, __file__, "--child", str(n)],
                              capture_output=True, text=True, check=True, timeout=600)
        rows.append(json.loads(done.stdout.splitlines()[-1]))
    print(f"{'n':>3} {'circuit_s':>10} {'hadamard_s':>11} {'layers':>7} {'peak_rss_mib':>13}")
    for row in rows:
        print(f"{row['n']:>3} {row['circuit_s']:>10.3f} {row['hadamard_s']:>11.3f} "
              f"{row['hadamard_layers']:>7} {row['peak_rss_mib']:>13.1f}")
    print(json.dumps(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
