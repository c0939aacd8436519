"""The speed probe's kernel: fixed pure-Python and numpy work.

    python3 perfbench/probe.py

Run as a script it does the work once in a fresh interpreter, so its wall
time is the pace of a cold process (see workload.cold_probe).
"""

from fractions import Fraction

import numpy as np


def kernel() -> None:
    for _ in range(10):
        s = Fraction(0)
        for k in range(1, 120):
            s += Fraction(1, k)
        d: dict = {}
        for i in range(4000):
            d[i % 89] = d.get(i % 89, 0.0) + i * 0.5
        a = np.arange(64.0)
        for _ in range(200):
            a = np.sqrt(a * a + 1.0)


if __name__ == "__main__":
    kernel()
