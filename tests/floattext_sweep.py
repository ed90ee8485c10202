"""floattext.text against repr on 10**7 values, in blocks; exits 1 on any
mismatch. Not a pytest module (it takes about a minute):

    PYTHONPATH=src python tests/floattext_sweep.py [--values N] [--seed S]
"""

import argparse
import sys

import numpy as np

from test_floattext import sample_values, texts

BLOCK = 250_000


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--values", type=int, default=10 ** 7)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    rng = np.random.default_rng(args.seed)
    checked = wrong = 0
    while checked < args.values:
        values = sample_values(rng, min(BLOCK, args.values - checked))
        for value, text in zip(values.tolist(), texts(values)):
            if text != repr(value):
                wrong += 1
                if wrong <= 20:
                    print(f"{value!r}: text gives {text!r}")
        checked += len(values)
    print(f"{checked} values, {wrong} unlike repr")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
