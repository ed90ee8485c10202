"""floattext.text against repr, value by value."""

import numpy as np

from drsim import floattext

# the literal zeros, values repr writes with an exponent or as nan/inf, the
# domain's edges and what lies next to them, short forms, and an exact tie
# between two 17-digit candidates (y = 10000000004882812.5)
LISTED = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, -1.5, -0.1, float("nan"), float("inf"),
          float("-inf"), 1e-4, 1e7, 9.999999999999999e-05, 9999999.999999998, 0.5, 0.1, 123.25,
          0.30000000000000004, 1000000.00048828125, 1e16, 1.7976931348623157e308]


def sample_values(rng, n):
    """About n values of every kind text() meets: random values over the
    binades from 1e-6 to 1e18, powers of two and of ten and their neighbours
    an ulp away, the domain's edges, short decimals, dyadic values (whose
    decimals can tie), negatives and the listed values."""
    powers = np.concatenate([np.ldexp(1.0, np.arange(-40, 70)), 10.0 ** np.arange(-8, 19)])
    edges = np.array([1e-4, 1e7])
    near = np.concatenate([powers, edges])
    for _ in range(3):
        near = np.concatenate([near, np.nextafter(near, 0), np.nextafter(near, np.inf)])
    short = np.array([round(v, d) for v, d in zip(rng.uniform(0, 1e4, n // 10).tolist(),
                                                  rng.integers(0, 16, n // 10).tolist())])
    dyadic = rng.integers(1, 2 ** 40, n // 10) * np.ldexp(1.0, -rng.integers(1, 60, n // 10))
    binades = 10.0 ** rng.uniform(-6, 18, n - len(short) - len(dyadic))
    return np.concatenate([binades, near, short, dyadic, -binades[:n // 20], LISTED])


def texts(values):
    """Each value's text, by way of join's NUL-free rows."""
    text = floattext.text(values)
    return floattext.join([text, b"\n"], (len(values),)).decode().split("\n")[:-1]


def test_text_is_repr():
    values = sample_values(np.random.default_rng(34), 200_000)
    assert len(values) >= 200_000
    got = texts(values)
    assert len(got) == len(values)
    wrong = [(value, text) for value, text in zip(values.tolist(), got) if text != repr(value)]
    assert wrong == []


def test_text_of_no_values():
    assert floattext.text(np.array([])).shape == (0, floattext.WIDTH)
    assert texts(np.array([])) == []


def test_join_broadcasts_fields_over_rows():
    days = floattext.strings(["7,", "12,"])
    values = floattext.text(np.array([[0.25, 1e-05], [3.0, 0.1]]))
    joined = floattext.join([b"\r\n", days[:, None], floattext.strings(["a,", "bb,"]), values],
                            (2, 2))
    assert joined == b"\r\n7,a,0.25\r\n7,bb,1e-05\r\n12,a,3.0\r\n12,bb,0.1"
