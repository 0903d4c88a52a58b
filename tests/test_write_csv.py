"""The blocked CSV writer against the per-row formatter it replaced."""
from pathlib import Path

import numpy as np
import pytest

import qndsim
from qndsim.cli import main
from qndsim.errors import RegimeError
from qndsim.harness import CSV_BLOCK_ROWS, Trace, write_csv, write_trace_csv


def per_row(header, columns):
    # the formatter the runners used before: a string cell as it is, any
    # other cell as repr(float(cell)); integer columns were handed over as
    # strings
    lines = [header]
    for row in zip(*columns):
        lines.append(",".join(str(cell) if isinstance(cell, int)
                              else repr(float(cell)) for cell in row))
    return ("\n".join(lines) + "\n").encode()


SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 3.0, -7.0, 0.1,
           1.7976931348623157e308, 2.0**53, 1e16, 1e-7, 123456789.0]


def test_special_floats_and_ints_match_per_row_formatting(tmp_path):
    floats = np.array(SPECIAL)
    ints = list(range(len(SPECIAL)))
    path = tmp_path / "t.csv"
    write_csv(path, "i,x,y", [(ints, floats, floats[::-1])])
    assert path.read_bytes() == per_row("i,x,y", (ints, floats, floats[::-1]))
    assert path.read_text().splitlines()[1].startswith("0,-0.0,")


@pytest.mark.parametrize("rows", [1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS,
                                  CSV_BLOCK_ROWS + 1, 2 * CSV_BLOCK_ROWS + 3])
def test_table_sizes_around_the_block_match_per_row_formatting(tmp_path,
                                                               rows):
    rng = np.random.default_rng(rows)
    x = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
    n = np.arange(rows)
    path = tmp_path / "t.csv"
    write_csv(path, "n,x", [(n, x)])
    assert path.read_bytes() == per_row("n,x", (n.tolist(), x))


def test_blocks_continue_one_table(tmp_path):
    x = np.linspace(-1.0, 1.0, 3 * CSV_BLOCK_ROWS + 5)
    parts = np.split(x, [7, CSV_BLOCK_ROWS + 7, CSV_BLOCK_ROWS + 8])
    whole, split = tmp_path / "whole.csv", tmp_path / "split.csv"
    write_csv(whole, "x,y", [(x, -x)])
    write_csv(split, "x,y", ((p, -p) for p in parts))
    assert split.read_bytes() == whole.read_bytes() == per_row("x,y", (x, -x))


def test_empty_table_is_its_header(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, "x", [(np.array([]),)])
    assert path.read_text() == "x\n"


@pytest.mark.parametrize("bad, value", [
    (1, np.nan), (CSV_BLOCK_ROWS, np.inf),
    (CSV_BLOCK_ROWS + 1, -np.inf), (2 * CSV_BLOCK_ROWS, np.nan)])
def test_non_finite_cell_names_its_row(tmp_path, bad, value):
    x = np.arange(2 * CSV_BLOCK_ROWS, dtype=float)
    x[bad - 1] = value
    path = tmp_path / "t.csv"
    with pytest.raises(RegimeError,
                       match=rf"t\.csv: non-finite value in row {bad}: "
                             rf"{bad - 1},{value!r}$"):
        write_csv(path, "n,x", [(np.arange(x.size), x)])
    # the blocks before the offending one are on disk, nothing after it
    written = path.read_text().splitlines()
    assert len(written) == 1 + (bad - 1) // CSV_BLOCK_ROWS * CSV_BLOCK_ROWS


def test_non_finite_row_is_counted_across_blocks(tmp_path):
    blocks = [(np.zeros(5),), (np.array([0.0, np.nan]),)]
    with pytest.raises(RegimeError, match="in row 7: nan$"):
        write_csv(tmp_path / "t.csv", "x", blocks)


def test_trace_csv_refuses_non_finite_signal(tmp_path):
    trace = Trace(np.array([0.0, 1.0]), np.array([0.5, np.inf]))
    with pytest.raises(RegimeError, match="trace.csv: non-finite value in "
                                          "row 2: 1.0,inf"):
        write_trace_csv(trace, tmp_path / "trace.csv")


def test_non_finite_rabi_trace_exits_three(tmp_path, capsys):
    # the detector gain overflows, so every demodulated sample is infinite
    cfg = Path(qndsim.__file__).parent / "configs" / "rabi.json"
    out = tmp_path / "art"
    assert main(["run", str(cfg), "--out", str(out),
                 "--set", "detector.transimpedance_v_per_a=1e308",
                 "--set", "detector.buffer_gain=1e308"]) == 3
    assert "rabi_trace.csv: non-finite value in row 1" in \
        capsys.readouterr().err
    assert not (out / "manifest.json").exists()
