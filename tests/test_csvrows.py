"""The numpy CSV row builder against Python's own per-cell formatting."""

import warnings

import numpy as np
import pytest

from delayedbp import csvrows


def _texts(cells):
    """The text of each padded cell row."""
    return [bytes(row[row != 0xFF]).decode() for row in cells]


def _assert_floats_match(x):
    x = np.asarray(x, dtype=np.float64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _texts(csvrows.float_cells(x))
    want = ["%.17g" % v for v in x.tolist()]
    bad = [(v, g, w) for v, g, w in zip(x.tolist(), got, want) if g != w]
    assert not bad, bad[:10]


def _powers_of_ten():
    return np.array([float(f"1e{p}") for p in range(-310, 309)])


class TestFloatCells:
    def test_random_bit_patterns(self):
        # every exponent, subnormals, infinities and NaN payloads
        bits = np.random.default_rng(3).integers(0, 2 ** 64, 200_000, dtype=np.uint64)
        _assert_floats_match(bits.view(np.float64))

    def test_neighbours_of_powers_of_ten(self):
        # the case random draws miss: the scaled value rounds onto 10^16 or 10^17
        p = _powers_of_ten()
        near = [p]
        for toward in (np.inf, 0.0):
            q = p
            for _ in range(3):
                q = np.nextafter(q, toward)
                near.append(q)
        x = np.concatenate(near)
        _assert_floats_match(np.concatenate([x, -x]))

    def test_values_that_round_up_to_the_next_power(self):
        x = [9.99999999999999999e16, 9.9999999999999999e-5, 9.99999999999999999e15,
             9.9999999999999996e-270, 0.99999999999999999, 9.9999999999999998e22,
             99999999999999999.0, 999999999999999.94]
        p = _powers_of_ten()
        _assert_floats_match(x + np.nextafter(p, 0.0).tolist()
                             + (p * (1 - 2.0 ** -52)).tolist())

    def test_exact_eighteen_digit_ties(self):
        # m / 2^j has exactly the digits of m * 5^j; with m odd it ends in a 5,
        # so at 18 digits the 17-digit rounding is an exact tie (half to even)
        rng = np.random.default_rng(5)
        ties = []
        for j in range(1, 23):
            width = 18 - len(str(5 ** j))
            for m in rng.integers(10 ** (width - 1), 10 ** width, 40):
                m = int(m) | 1
                if len(str(m * 5 ** j)) == 18:
                    ties.append(m / 2 ** j)
        assert len(ties) > 400
        ties = np.array(ties)
        _assert_floats_match(np.concatenate([ties, -ties, ties * 2.0 ** -200]))

    def test_dyadics_and_lognormals(self):
        rng = np.random.default_rng(11)
        m = rng.integers(1, 2 ** 53, 50_000).astype(np.float64)
        dyadic = np.ldexp(m, rng.integers(-80, 80, m.size))
        _assert_floats_match(np.concatenate([dyadic, rng.lognormal(0.0, 30.0, 50_000)]))

    def test_special_values(self):
        _assert_floats_match([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324,
                              -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                              1e-5, 1e-4, 0.5, 1.0, 100.0, 1e16, 1e17, 123456789012345678.0])


class TestIntCells:
    def test_matches_percent_d(self):
        rng = np.random.default_rng(2)
        info = np.iinfo(np.int64)
        v = np.concatenate([rng.integers(info.min, info.max, 5000, endpoint=True),
                            10 ** np.arange(19) - 1, 10 ** np.arange(19),
                            [0, -1, 1, info.min, info.max], rng.integers(-50, 50, 500)])
        assert _texts(csvrows.int_cells(v)) == ["%d" % n for n in v.tolist()]

    @pytest.mark.parametrize("negatives", [False, True])
    @pytest.mark.parametrize("digits", range(1, 20))
    def test_each_width_matches_percent_d(self, digits, negatives):
        # the widest value sets how many digit groups a call builds, so each
        # width is a call of its own
        top = min(10 ** digits - 1, np.iinfo(np.int64).max)
        rng = np.random.default_rng(digits)
        v = np.concatenate([[top, 10 ** (digits - 1), 0],
                            rng.integers(0, top, 300, endpoint=True),
                            rng.integers(0, 10 ** rng.integers(0, digits, 300)),
                            10 ** np.arange(digits) - 1, 10 ** np.arange(digits)])
        if negatives:
            v[1::2] *= -1
        assert len(str(np.abs(v).max())) == digits
        assert _texts(csvrows.int_cells(v)) == ["%d" % n for n in v.tolist()]

    @pytest.mark.parametrize("v", [
        [9999, 0, 1], [10000, 9999, 0], [99999999, 10000, 5], [10 ** 8, 99999999, 0],
        [np.iinfo(np.int64).max, 0, 10 ** 8], [np.iinfo(np.int64).min, -1, 0],
        [np.iinfo(np.int64).min, np.iinfo(np.int64).max], [-9999, 10000]])
    def test_group_boundaries_and_int64_limits(self, v):
        assert _texts(csvrows.int_cells(v)) == ["%d" % n for n in v]


class TestRows:
    @pytest.mark.parametrize("names", [["u", "v", "w"], ["nan", "inf", "β-ñ"],
                                       ["", "x\x00y", "\ud800"]])
    def test_mixed_columns_match_the_row_format(self, names):
        rng = np.random.default_rng(9)
        m = 301
        s = np.arange(m) // 3
        t = np.arange(m) % 3
        a, b = rng.lognormal(0.0, 40.0, m), rng.standard_normal(m)
        counts = rng.integers(0, 10 ** 12, m)
        data = csvrows.rows([s, (csvrows.labels(names), t), a, None, b, counts, None])
        text = data.decode("utf-8", "surrogatepass")
        want = "".join("%s,%s,%.17g,,%.17g,%d,\n" % (s[i], names[t[i]], a[i], b[i], counts[i])
                       for i in range(m))
        assert text == want
