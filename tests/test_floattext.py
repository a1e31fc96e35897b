"""The table formatter writes every float64 as the exact bytes of its repr."""

import csv
import io

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from luxglue import _floattext
from luxglue.cli import TABLE_BLOCK, _write_csv_table


def _assert_repr_bytes(values):
    """csv_rows writes each value of a one-column table, a block at a time,
    as the bytes of its repr."""
    values = np.asarray(values, dtype=np.float64)
    for start in range(0, values.size, TABLE_BLOCK):
        block = values[start:start + TABLE_BLOCK]
        got = b"".join(map(bytes, _floattext.csv_rows([block]))).decode("ascii")
        expected = "".join(repr(v) + "\r\n" for v in block.tolist())
        if got != expected:
            wrong = [(v, g) for v, g in zip(block.tolist(), got.split("\r\n")) if g != repr(v)]
            raise AssertionError(f"{len(wrong)} fields are not repr's: {wrong[:10]}")


def test_random_bit_patterns_of_every_binade_and_sign():
    bits = np.random.default_rng(20261020).integers(0, 2**64, 1_000_000, dtype=np.uint64)
    # every one of the 2,048 exponent fields, both signs: nan, inf and subnormals among them
    assert np.unique(bits >> np.uint64(52)).size == 4096
    _assert_repr_bytes(bits.view(np.float64))


def test_zeros_nan_inf_and_subnormals():
    tiny = np.finfo(np.float64).tiny
    rng = np.random.default_rng(5)
    subnormal = rng.integers(1, 2**52, 10_000, dtype=np.uint64).view(np.float64)
    edges = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e-323,
             np.nextafter(tiny, 0), tiny, np.nextafter(tiny, 1), np.finfo(np.float64).max,
             -np.finfo(np.float64).max, np.nextafter(np.finfo(np.float64).max, 0)]
    _assert_repr_bytes(np.concatenate([edges, subnormal, -subnormal]))


def test_every_power_of_two():
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    _assert_repr_bytes(np.concatenate([powers, -powers]))


def test_powers_of_ten_and_their_neighbours():
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    _assert_repr_bytes(np.concatenate([tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf),
                                       -tens]))


def test_where_repr_switches_notation():
    # 1e-4 is the last fixed decpt (-3) and 1e-5 the first scientific one;
    # 1e16 is the first decpt past 16
    points = [1e-4, 1e-5, 1e16, 1e15, 1e17, 9.999999999999999e-5, 1.0000000000000001e-4,
              9.999999999999998e15, 9999999999999998.0, 1.2345e-4, 1.2345e-5,
              1234567890123456.7, 12345678901234567.0]
    near = [np.nextafter(p, d) for p in points for d in (0, np.inf)]
    _assert_repr_bytes(points + near + [-p for p in points])


def test_short_decimals_of_every_magnitude():
    # parsed, so each is the float nearest d 10^k, and computed as a product,
    # whose last bits differ; a float64 sum of the digit steps once lost the
    # fraction of 10^15 and more and wrote 2e-05 as 2.0e-05
    parsed = [float(f"{d}e{k}") for d in (*range(1, 100), 123, 4567, 89012, 2**53 - 1)
              for k in range(-325, 309)]
    products = [d * 10.0**k for d in range(1, 100) for k in range(-300, 300)]
    _assert_repr_bytes(parsed + products + [-v for v in parsed])


def test_a_wrong_decade_guess_does_not_reach_the_bytes(monkeypatch):
    # log10 only guesses each decade, and its last bits follow numpy's SIMD
    # dispatch; guesses off by one either way give the same bytes
    rng = np.random.default_rng(11)
    values = np.concatenate([rng.standard_normal(20_000) * 10.0 ** rng.integers(-300, 300, 20_000),
                             [float(f"1e{k}") for k in range(-300, 300)]])
    log10 = np.log10
    monkeypatch.setattr(_floattext.np, "log10",
                        lambda v: log10(v) + rng.uniform(-0.99, 0.99, np.shape(v)))
    _assert_repr_bytes(values)


def test_the_fast_path_decides_nearly_every_cell():
    # a formatter that sent every cell to repr would pass every test above
    x = np.random.default_rng(8192).random(TABLE_BLOCK)
    *_, fast = _floattext._shortest(x, _floattext._tables())
    assert fast.mean() >= 0.95, fast.mean()


def test_signed_zeros_are_laid_out_without_repr(monkeypatch):
    # a convex glue's h'' is exactly 0 past its bands: a third of a column
    x = np.array([0.0, -0.0, 1.5, 0.0, -0.0, -2.5e-7])
    *_, fast = _floattext._shortest(x, _floattext._tables())
    assert fast.tolist() == [True, True, True, True, True, True]

    def no_repr(values):
        assert not values, f"sent to repr: {values}"
        return real(values)

    real = _floattext._repr_bytes
    monkeypatch.setattr(_floattext, "_repr_bytes", no_repr)
    got = b"".join(map(bytes, _floattext.csv_rows([x, x[::-1]])))
    assert got == (b"0.0,-2.5e-07\r\n-0.0,-0.0\r\n1.5,0.0\r\n"
                   b"0.0,1.5\r\n-0.0,-0.0\r\n-2.5e-07,0.0\r\n")


@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data(), n_rows=st.integers(0, 2 * TABLE_BLOCK + 1), n_cols=st.integers(1, 4))
def test_drawn_columns_match_the_csv_module(tmp_path_factory, data, n_rows, n_cols):
    columns = [data.draw(arrays(np.float64, n_rows, elements=st.floats(width=64)))
               for _ in range(n_cols)]
    header = [f"c{i}" for i in range(n_cols)]
    path = tmp_path_factory.mktemp("table") / "t.csv"
    _write_csv_table(str(path), header, [columns])
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(zip(*(c.tolist() for c in columns)))
    assert path.read_bytes() == buf.getvalue().encode("ascii")
