#!/usr/bin/env python3
"""Train on objects+actions and export the concept matrix and cluster order.

The leaf order shows the spontaneously formed groups (liquids, people,
sitters, rollables) without any generic statements in the curriculum.
Equivalent to `wugnet learn`, `wugnet export matrix` and `wugnet export
clusters` run in turn.

Usage: python scripts/export_clustering.py [--out results] [--seed 0]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from wugnet import cli


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    network = str(out / "objects-and-actions.net")
    for argv in (["learn", "--curriculum", "builtin:objects-and-actions",
                  "--network", network, "--seed", str(args.seed)],
                 ["export", "matrix", "--network", network, "--out", str(out / "matrix.csv")],
                 ["export", "clusters", "--network", network, "--out", str(out / "clusters.txt")]):
        code = cli.main(argv)
        if code != cli.EXIT_OK:
            return code
    return cli.EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
