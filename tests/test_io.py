"""Output formatting and binary grids."""

import json

import numpy as np
import pytest

from biximp import ModelParams, s_function
from biximp.csvio import format_value, write_csv, write_grid_binary, write_json


def test_float_formatting_17_digits():
    assert format_value(1.0 / 3.0) == "0.33333333333333331"
    assert format_value(np.float64(2.5)) == "2.5"
    assert format_value(5) == "5"
    assert format_value(True) == "true"
    assert format_value(np.bool_(False)) == "false"


def test_csv_roundtrip(tmp_path):
    path = tmp_path / "t.csv"
    rows = [(1, 0.1 + 0.2, "x", False)]
    write_csv(path, ("a", "b", "c", "d"), rows)
    text = path.read_text()
    assert text.splitlines()[0] == "a,b,c,d"
    got = float(text.splitlines()[1].split(",")[1])
    assert got == 0.1 + 0.2    # 17 significant digits round-trip exactly


def test_json_rows(tmp_path):
    path = tmp_path / "t.json"
    write_json(path, ("a", "b"), [(np.float64(1.5), np.int64(2))])
    data = json.loads(path.read_text())
    assert data == [{"a": 1.5, "b": 2}]


def test_binary_grid_roundtrip(tmp_path):
    path = tmp_path / "g.f64"
    arr = np.arange(12, dtype=float).reshape(3, 4) / 7.0
    write_grid_binary(path, arr)
    back = np.fromfile(path, dtype="<f8").reshape(3, 4)
    np.testing.assert_array_equal(back, arr)


def test_s_function_finite_on_long_ring():
    """Deep complex continuation on a long ring: S stays finite and exact.

    The reference is a term-by-term 50-digit sum of the closed form, whose
    hyperbolic functions overflow double precision at this point.
    """
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    N, kpp = 200, mp.mpf(7)

    def phi_mp(Kc, s):
        kc = -mp.log(2 * mp.cos(Kc) / mp.mpf("4.1"))
        norm2 = (N - 1) + mp.sinh(kc * (N - 1)) / mp.sinh(kc)
        return mp.cosh(kc * (N / 2 - abs(s))) / mp.sqrt(norm2)

    total = mp.fsum(mp.e ** (-2 * kpp * abs(s)) * phi_mp(-1j * kpp, s) * phi_mp(1j * kpp, s)
                    for s in range(-N // 2 + 1, N // 2 + 1) if s != 0)
    ours = s_function(0.0, 7.0, ModelParams(N=N, J=1.0, D=4.1))
    assert ours == pytest.approx(float(total.real), rel=1e-12)


def test_large_ring_modes_stay_normalized():
    from biximp import ModeBasis
    m = ModeBasis(ModelParams(N=200, J=1.0, D=4.1), "exact")
    assert np.abs((m.phi ** 2).sum(axis=1) - 1.0).max() < 1e-10
