#!/usr/bin/env python3
"""Sweep the Hubbard dimer and compare correlation measures.

Writes the CSV that `fermicorr hubbard-sweep` would produce and prints a
short summary: the free and strong-coupling limits, monotonicity of the
overlap-based measure, and the small-u behaviour of the entropy/corr ratio.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from fermicorr import sweep
from fermicorr.cli import _COUNT, _FINITE, format_sweep_csv


def main() -> int:
    # the validators of `fermicorr hubbard-sweep`: a bad value exits 2
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--u-min", type=_FINITE, default=0.0)
    parser.add_argument("--u-max", type=_FINITE, default=20.0)
    parser.add_argument("--steps", type=_COUNT, default=81)
    parser.add_argument("--out", default="hubbard_sweep.csv")
    args = parser.parse_args()

    grid = np.linspace(args.u_min, args.u_max, args.steps)
    rows = sweep(grid)

    Path(args.out).write_text(format_sweep_csv(rows))
    print(f"wrote {len(rows)} rows to {args.out}")

    corrs = [r.corr for r in rows]
    print(f"corr range: {corrs[0]:.3e} .. {corrs[-1]:.6f} bits")
    print(f"strictly increasing: {all(b > a for a, b in zip(corrs, corrs[1:]))}")
    limit = sweep([1e4])[0]
    print(f"corr at u=1e4: {limit.corr:.6f} bits (limit 4)")
    for u in (1e-1, 1e-2, 1e-3):
        row = sweep([u])[0]
        print(f"entropy_normalized/corr at u={u:g}: {row.entropy_normalized / row.corr:.4g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
