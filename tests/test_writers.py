"""The CSV/OBJ writers: byte-identical to a naive per-row ``repr`` writer.

Each artifact is written through the package and through a reference kept
here, one f-string per row with ``repr`` of every number, applied to the same
columns; the bytes must agree. The dedupe helper is checked against
``repr`` on columns where equal floats have different strings, the row
writer on row counts around its block size, and the number of ``repr`` calls
is pinned to the distinct bit patterns of each column in each block.
"""

import io

import numpy as np
import pytest

from neutralkahler import numerics
from neutralkahler.cli import main
from neutralkahler.graphs import _residual_map, export_classification_csv, slopes
from neutralkahler.lines3d import TorusFamily, _lines, export_congruence, torus_section
from neutralkahler.numerics import _WRITE_BLOCK, AnnulusGrid, _polar, _reprs, _write_rows

#: 16 rings, of which the one at R = 1.033 lies in the band
BANDED = AnnulusGrid(0.3, 2.5, 16, 12, ((1.0, 0.05),))


@pytest.fixture(autouse=True)
def outdir(tmp_path, monkeypatch):
    monkeypatch.setenv("NKLAB_OUTPUT_DIR", str(tmp_path))
    return tmp_path


def lattice(section, grid):
    rs, ts = grid._lattice()
    return rs, ts, _polar(rs, ts)


def reference_classification(section, grid) -> bytes:
    rs, ts, xi = lattice(section, grid)
    sl = slopes(section, xi)
    residual = np.abs(_residual_map(section, xi)[0])
    columns = (rs, ts, sl.sigma.real, sl.sigma.imag, sl.lam, sl.det_factor, residual)
    rows = zip(*(c.tolist() for c in columns), sl.classify().tolist())
    text = "R,theta,re_sigma,im_sigma,lambda,det_factor,abs_residual,class\n" + "".join(
        f"{r!r},{t!r},{s_re!r},{s_im!r},{lam!r},{det!r},{res!r},{cls}\n"
        for r, t, s_re, s_im, lam, det, res, cls in rows)
    return text.encode()


def congruence(section, grid):
    rs, ts, xi = lattice(section, grid)
    d, f = _lines(xi, np.broadcast_to(section.F(xi), xi.shape))
    return rs, ts, d, f


def reference_congruence_csv(section, grid) -> bytes:
    rs, ts, d, f = congruence(section, grid)
    rows = np.column_stack([rs, ts, d, f]).tolist()
    text = "R,theta,dx,dy,dz,fx,fy,fz\n" + "".join(
        f"{r!r},{t!r},{dx!r},{dy!r},{dz!r},{fx!r},{fy!r},{fz!r}\n"
        for r, t, dx, dy, dz, fx, fy, fz in rows)
    return text.encode()


def reference_obj(section, grid, half_length) -> bytes:
    rs, _, d, f = congruence(section, grid)
    lines = [f"# line congruence: {rs.size} segments\n"]
    for k in range(rs.size):
        for s in (-half_length, half_length):
            x, y, z = (f[k] + s * d[k]).tolist()
            lines.append(f"v {x!r} {y!r} {z!r}\n")
    for ring in range(rs.size // grid.n_theta):
        for j in range(grid.n_theta - 1):
            k = ring * grid.n_theta + j
            lines.append(f"f {2 * k + 1} {2 * k + 3} {2 * k + 4} {2 * k + 2}\n")
    return "".join(lines).encode()


def test_classification_csv_on_a_banded_grid(tmp_path):
    section = torus_section(TorusFamily(1.0, 5.0))
    export_classification_csv(section, BANDED, tmp_path / "c.csv")
    assert len(np.unique(BANDED._lattice()[0])) == 15
    assert (tmp_path / "c.csv").read_bytes() == reference_classification(section, BANDED)


@pytest.mark.parametrize("task, grid, argv", [
    ("classify", BANDED, ["--rmin", "0.3", "--rmax", "2.5", "--grid", "16x12",
                          "--exclude", "1.0:0.05"]),
    # the null ring R = 1 lies on the lattice: its nodes are skipped, nan in abs_residual
    ("residual", AnnulusGrid(0.5, 1.5, 11, 8), ["--rmin", "0.5", "--rmax", "1.5",
                                                "--grid", "11x8"]),
])
def test_out_csv_of_classify_and_residual(task, grid, argv, outdir):
    assert main([task, "--B2", "1", "--C2", "5", *argv, "--out", "c.csv",
                 "--report", "r.json"]) == 0
    written = (outdir / "c.csv").read_bytes()
    assert written == reference_classification(torus_section(TorusFamily(1.0, 5.0)), grid)
    assert (b",nan," in written) == (task == "residual")


@pytest.mark.parametrize("grid", [AnnulusGrid(0.3, 2.5, 16, 16), BANDED], ids=["full", "banded"])
def test_congruence_csv(grid, tmp_path):
    section = torus_section(TorusFamily(1.0, 0.0))
    export_congruence(section, grid, 2.0, "csv", tmp_path / "t.csv")
    fz = congruence(section, grid)[3][:, 2]
    assert np.any((fz == 0.0) & np.signbit(fz))  # a -0.0 to tell apart from 0.0
    assert (tmp_path / "t.csv").read_bytes() == reference_congruence_csv(section, grid)


@pytest.mark.parametrize("grid", [AnnulusGrid(0.3, 2.5, 16, 16), BANDED], ids=["full", "banded"])
def test_obj(grid, tmp_path):
    section = torus_section(TorusFamily(1.0, 5.0))
    export_congruence(section, grid, 1.5, "obj", tmp_path / "t.obj")
    assert (tmp_path / "t.obj").read_bytes() == reference_obj(section, grid, 1.5)


#: repeats, both zeros, nan and both infinities, shuffled; OBJ-like face indices
COLUMNS = [
    np.repeat(np.linspace(0.3, 2.5, 7), 5),
    np.array([0.0, -0.0, 0.0, -0.0, 1.0, -1.0, 0.1 + 0.2, 0.3]),
    np.random.default_rng(0).permutation(
        np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1e-300, 5e-324, 2.5] * 3)),
    np.array([]),
    np.repeat(2 * np.arange(5)[:, None] + np.array([1, 3, 4, 2]), 3, axis=0).T.ravel(),
]


@pytest.mark.parametrize("column", COLUMNS,
                         ids=["repeats", "zeros", "specials", "empty", "int64"])
def test_reprs_is_repr_of_each_entry(column):
    assert _reprs(column) == [repr(x) for x in column.tolist()]


def test_a_dedupe_by_float_equality_is_caught():
    # 0.0 == -0.0, so any dedupe keyed on the value gives one of them the other's string
    def by_value(column):
        values, inverse = np.unique(column, return_inverse=True)
        return [repr(x) for x in values[inverse].tolist()]

    assert any(by_value(c) != [repr(x) for x in c.tolist()] for c in COLUMNS)


def rows_column(n: int, rng) -> np.ndarray:
    """``n`` floats drawn from a few values, both zeros and nan, so that blocks repeat."""
    pool = np.array([0.0, -0.0, np.nan, 0.1 + 0.2, 1e-300, 2.5, -7.25])
    return pool[rng.integers(0, pool.size, n)]


class CountingFile(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("n", [0, 5, _WRITE_BLOCK, 2 * _WRITE_BLOCK + 3])
def test_write_rows_per_block_is_the_naive_writer(n):
    rng = np.random.default_rng(n)
    numbers = rows_column(n, rng), rng.normal(size=n), rng.integers(-3, 2**40, n)
    labels = rng.choice(["riemannian", "lorentz"], n).tolist()
    fh = CountingFile()
    _write_rows(fh, "v ", " ", numbers, [labels])
    rows = zip(*(c.tolist() for c in numbers), labels)
    assert fh.getvalue() == "".join(f"v {a!r} {b!r} {k!r} {s}\n" for a, b, k, s in rows)
    assert fh.writes == -(-n // _WRITE_BLOCK)  # one write per block, none for no rows


def test_repr_count_is_the_distinct_bit_patterns_per_block(monkeypatch, tmp_path):
    # a 96x96 torus lattice: R, theta and dz repeat ring by ring, so their blocks
    # hold far fewer bit patterns than rows; the other columns are nearly all distinct
    grid = AnnulusGrid(0.3, 2.5, 96, 96)
    section = torus_section(TorusFamily(1.0, 0.0))
    rs, ts, d, f = congruence(section, grid)
    columns = (rs, ts, *d.T, *f.T)
    expected = sum(np.unique(c[i:i + _WRITE_BLOCK].view(np.int64)).size
                   for c in columns for i in range(0, rs.size, _WRITE_BLOCK))
    calls = []
    monkeypatch.setattr(numerics, "repr", lambda x: calls.append(x) or repr(x), raising=False)
    export_congruence(section, grid, 2.0, "csv", tmp_path / "t.csv")
    assert len(calls) == expected < rs.size * len(columns)
    assert (tmp_path / "t.csv").read_bytes() == reference_congruence_csv(section, grid)
