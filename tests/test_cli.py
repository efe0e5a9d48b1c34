"""Front-door behavior: exit codes, determinism, locks, overrides."""

import fcntl
import json
import re

import numpy as np
import pytest

from apspectra import cli, config, spectral
from apspectra.cli import _BLOCK, _fmt, _grid_lines, main
from apspectra.diffraction import WeightedComb
from apspectra.errors import ConfigError
from apspectra.points import BernoulliPoint, Observable
from apspectra.spectral import FourierBohrGrid, fourier_bohr_grid
from cli_runner import run_cli, run_cli_process, traced_peak


GOLDEN = (5 ** 0.5 - 1) / 2


def write_config(path, cfg):
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


CLASSIFY_AB = {
    "point": "periodic:AB",
    "schedule": {"kind": "intervals", "base": 50, "n_max": 5},
    "eps_grid": [0.05, 0.2],
    "range": [-40, 40],
    "bohr_horizon": 64,
}


def test_classify_periodic_exit_zero(tmp_path):
    cfg = write_config(tmp_path / "c.json", CLASSIFY_AB)
    out = tmp_path / "out"
    res = run_cli(["classify", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 0
    doc = json.loads((out / "classify.json").read_text())
    assert doc["report"]["verdicts"] == {
        "mean": "evidence-for", "weyl": "evidence-for", "bohr": "evidence-for"}
    assert "config_hash" in doc
    assert doc["config"]["point"] == {"kind": "periodic", "pattern": "AB"}


def test_malformed_sturmian_alpha_exit_two(tmp_path):
    cfg = write_config(tmp_path / "bad.json",
                       {"point": {"kind": "sturmian", "alpha": 1.5},
                        "schedule": {"kind": "intervals"}})
    res = run_cli(["classify", "--config", cfg, "--out", str(tmp_path / "o")])
    assert res.exit_code == 2
    assert "alpha" in res.output


def test_missing_config_file_exit_two(tmp_path):
    res = run_cli(["scan", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "o")])
    assert res.exit_code == 2


def test_unknown_preset_exit_two(tmp_path):
    cfg = write_config(tmp_path / "c.json", {"point": "penrose"})
    res = run_cli(["generate", "--config", cfg, "--out", str(tmp_path / "o")])
    assert res.exit_code == 2


def test_generate_sequence(tmp_path):
    cfg = write_config(tmp_path / "g.json",
                       {"point": "block", "range": [0, 20],
                        "observable": "indicator:1"})
    out = tmp_path / "out"
    res = run_cli(["generate", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 0
    lines = (out / "sequence.csv").read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1] == "t,letter"
    assert lines[2] == "0,0"
    assert lines[4] == "2,1"  # first block site
    assert (out / "track.csv").exists()


def test_runs_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path / "c.json", {
        "point": "bernoulli:0.5:7",
        "schedule": {"kind": "intervals", "base": 200, "n_max": 5},
        "epsilon": 0.2,
        "range": [-30, 30],
        "bohr_horizon": 32,
    })
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(["scan", "--config", cfg, "--out", str(out1)]).exit_code == 0
    assert run_cli(["scan", "--config", cfg, "--out", str(out2)]).exit_code == 0
    for name in ("scan.json", "scan.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.mark.parametrize("kinds,value_columns", [
    (["mean"], ["mean_tail_max", "mean_converged"]),
    (["bohr", "weyl"], ["weyl_value", "bohr_value"]),
    (["mean", "weyl", "bohr"],
     ["mean_tail_max", "mean_converged", "weyl_value", "bohr_value"]),
])
def test_scan_csv_has_columns_of_requested_kinds_only(tmp_path, kinds,
                                                      value_columns):
    cfg = write_config(tmp_path / "c.json", {
        "point": "bernoulli:0.5:7", "kinds": kinds,
        "schedule": {"kind": "intervals", "base": 50, "n_max": 4},
        "range": [-5, 5], "bohr_horizon": 16})
    out = tmp_path / "o"
    assert run_cli(["scan", "--config", cfg, "--out", str(out)]).exit_code == 0
    lines = (out / "scan.csv").read_text().splitlines()
    assert lines[2].split(",") == (["t"] + value_columns
                                   + [f"period_{k}" for k in kinds])
    assert all(len(line.split(",")) == len(lines[2].split(","))
               and "nan" not in line.split(",") for line in lines[3:])
    assert len(lines) == 3 + 11


def test_threads_do_not_change_output(tmp_path):
    # --threads 1 is still accepted, and changes nothing: every command
    # runs on one thread
    cfg = write_config(tmp_path / "c.json", {
        "point": "bernoulli:0.5:7",
        "schedule": {"kind": "intervals", "base": 200, "n_max": 4},
        "epsilon": 0.2,
        "range": [-20, 20],
        "bohr_horizon": 16,
    })
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_cli(["scan", "--config", cfg, "--out", str(out1)])
    run_cli(["scan", "--config", cfg, "--out", str(out2), "--threads", "1"])
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    assert "scan.csv" in names
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_seed_override_changes_hash_and_data(tmp_path):
    cfg = write_config(tmp_path / "c.json",
                       {"point": "bernoulli:0.5:7", "range": [0, 30]})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_cli(["generate", "--config", cfg, "--out", str(out1)])
    run_cli(["generate", "--config", cfg, "--out", str(out2),
             "--seed-override", "8"])
    doc1 = json.loads((out1 / "generate.json").read_text())
    doc2 = json.loads((out2 / "generate.json").read_text())
    assert doc1["config_hash"] != doc2["config_hash"]
    assert doc2["config"]["point"]["seed"] == 8
    assert (out1 / "sequence.csv").read_text() != (out2 / "sequence.csv").read_text()


def test_lock_file_blocks_concurrent_runs(tmp_path):
    cfg = write_config(tmp_path / "c.json",
                       {"point": "step", "range": [0, 5]})
    out = tmp_path / "out"
    out.mkdir()
    with open(out / ".lock", "w") as held:
        fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
        res = run_cli(["generate", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 2
        assert "config error: out: another run holds the lock" in res.output
    assert run_cli(["generate", "--config", cfg, "--out", str(out)]).exit_code == 0
    assert not (out / ".lock").exists()  # released after the run


def test_stale_lock_file_does_not_block(tmp_path):
    cfg = write_config(tmp_path / "c.json",
                       {"point": "step", "range": [0, 5]})
    out = tmp_path / "out"
    out.mkdir()
    (out / ".lock").write_text("12345")     # left by a run that died
    assert run_cli(["generate", "--config", cfg, "--out", str(out)]).exit_code == 0
    assert sorted(p.name for p in out.iterdir()) == ["generate.json",
                                                     "sequence.csv"]


def test_failed_write_leaves_no_temp_file(tmp_path):
    cfg = write_config(tmp_path / "c.json",
                       {"point": "step", "range": [0, 5]})
    out = tmp_path / "out"
    (out / "sequence.csv").mkdir(parents=True)   # os.replace onto it fails
    res = run_cli(["generate", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 1
    # generate.json went in before the failure; no temp file or lock stays
    assert sorted(p.name for p in out.iterdir()) == ["generate.json",
                                                     "sequence.csv"]


def _spectrum_config(tmp_path, grid_sizes):
    return write_config(tmp_path / "s.json", {
        "point": "fibonacci",
        "observable": {"kind": "indicator", "letter": "1"},
        "schedule": {"kind": "intervals", "base": 256, "n_max": 4},
        "grid_sizes": grid_sizes})


def test_spectrum_crash_mid_stream_leaves_no_file(tmp_path, monkeypatch):
    def failing(grid):
        yield next(real(grid))
        raise RuntimeError("formatting failed after one block")

    real = cli._grid_lines
    monkeypatch.setattr(cli, "_grid_lines", failing)
    cfg = _spectrum_config(tmp_path, [2048, 4 * _BLOCK])
    out = tmp_path / "out"
    res = run_cli(["spectrum", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 1
    assert "formatting failed after one block" in res.output
    # spectrum.csv is written first: no artifact, temp file or lock stays
    assert list(out.iterdir()) == []
    monkeypatch.setattr(cli, "_grid_lines", real)
    assert run_cli(["spectrum", "--config", cfg, "--out", str(out)]).exit_code == 0
    assert sorted(p.name for p in out.iterdir()) == ["spectrum.csv",
                                                     "spectrum.json"]
    assert len((out / "spectrum.csv").read_text().splitlines()) == 3 + 4 * _BLOCK


# bytes per point of the largest grid that a spectrum run may hold at once,
# as tracemalloc counts them: the run keeps the track, the grids, the
# refinement moments and half of spectrum.csv's text, about 140 B/pt; it
# held about 230 B/pt when every stage kept a complex copy of the track
# and the whole CSV text was built before it was written
SPECTRUM_BYTES_PER_POINT = 180


def test_spectrum_peak_memory_scales_with_the_grid(tmp_path):
    n = 2 ** 16
    cfg = _spectrum_config(tmp_path, [n // 4, n // 2, n])
    peak = traced_peak("spectrum", cfg, tmp_path / "out")
    assert peak <= SPECTRUM_BYTES_PER_POINT * n, peak / n


# how much the traced peak of a run may grow from a 2^18 to a 2^22
# coordinate span: the sample layer reads and sums pieces of at most
# about two RUN_BLOCKs, whatever the span (diffract's with its lag
# look-back), and about 0.1 MiB grows with the windows.  Each command
# grew by 16 to 49 B per span coordinate, 60 to 190 MiB here, when it
# held a span-long track
SPAN_GROWTH_BYTES = 2 << 20


def span_peaks(tmp_path, command, config):
    """Traced peaks of ``command`` at spans of 2^18 and 2^22 coordinates,
    ``config(n)`` its config at span n."""
    return [traced_peak(command, write_config(tmp_path / f"{n}.json", config(n)),
                        tmp_path / f"out{n}") for n in (2 ** 18, 2 ** 22)]


def test_diffract_peak_memory_does_not_grow_with_the_span(tmp_path):
    # windows of 2^16 coordinates, and of n/8, whose segments are read in
    # blocks: diffract held them whole, 3.0 -> 10.0 MiB from 2^18 to 2^22
    for base in (lambda n: 2 ** 16, lambda n: n // 8):
        small, large = span_peaks(tmp_path, "diffract", lambda n: {
            "point": "bernoulli:0.5:42", "weights": {"0": 0.0, "1": 1.0},
            "schedule": {"kind": "intervals", "base": base(n),
                         "n_max": n // base(n)},
            "k_max": 32, "atom_thetas": [0.0, 0.25]})
        assert large - small <= SPAN_GROWTH_BYTES, (small, large)


def test_parseval_peak_memory_does_not_grow_with_the_span(tmp_path):
    # windows of n/8 to n coordinates: each segment is read in blocks,
    # and a Fibonacci point descends its substitution once a block
    small, large = span_peaks(tmp_path, "parseval", lambda n: {
        "point": "fibonacci", "observable": "indicator:0",
        "schedule": {"kind": "intervals", "base": n // 8, "n_max": 8},
        "thetas": [0.0, GOLDEN]})
    assert large - small <= SPAN_GROWTH_BYTES, (small, large)


def test_eigen_peak_memory_does_not_grow_with_the_span(tmp_path):
    small, large = span_peaks(tmp_path, "eigen", lambda n: {
        "point": {"kind": "sturmian", "alpha": GOLDEN},
        "observable": {"kind": "indicator", "letter": "0"},
        "schedule": {"kind": "intervals", "base": n // 8, "n_max": 8},
        "theta": GOLDEN, "point_shifts": [0, 13], "shift_probes": [1, 2, -3]})
    assert large - small <= SPAN_GROWTH_BYTES, (small, large)


def eigen_offsets_config(point_shifts, base, n_max, probes=39, tail=5):
    """An eigen config on the Fibonacci point, probes 1..``probes`` at
    every point."""
    return {"point": "fibonacci", "observable": "indicator:0",
            "schedule": {"kind": "intervals", "base": base, "n_max": n_max},
            "theta": GOLDEN, "point_shifts": list(point_shifts),
            "shift_probes": list(range(1, probes + 1)),
            "estimator": {"tail": tail}}


def test_eigen_peak_memory_does_not_grow_with_the_offsets(tmp_path):
    # each offset's sweep takes its span and the 2 tail - 1 windows the
    # verdict reads, 30 here: 20 offsets (0..19) or 2030 (0..2029) are
    # swept in runs of at most RUN_WINDOWS windows, where one sweep of all
    # 2030 held 60,900
    small, large = [traced_peak("eigen", write_config(
        tmp_path / f"{len(shifts)}.json",
        eigen_offsets_config(shifts, 64, 1024, probes, tail=15)),
        tmp_path / f"out{len(shifts)}")
        for shifts, probes in (([0], 19), (range(0, 2000, 10), 39))]
    assert large - small <= SPAN_GROWTH_BYTES, (small, large)


def test_eigen_with_many_points_and_probes_ends_in_time(tmp_path):
    # 200 points and 39 probes over a 2^22 span: 239 offsets in one run,
    # where a read of the span per (point, probe) did not end in 60 s
    cfg = write_config(tmp_path / "c.json",
                       eigen_offsets_config(range(200), 4096, 1024))
    res = run_cli_process(["eigen", "--config", cfg, "--out",
                           str(tmp_path / "out")], timeout=20)
    assert res.exit_code == 0, res.output


def test_generate_peak_memory_does_not_grow_with_the_range(tmp_path):
    # both CSVs are written a block of lines at a time: about 0.8 MiB at
    # 2^20 coordinates, where building every row first held 344 MiB
    n = 2 ** 20
    cfg = write_config(tmp_path / "g.json", {
        "point": "bernoulli:0.5:42", "range": [-n // 2, n // 2 - 1],
        "observable": "indicator:1"})
    assert traced_peak("generate", cfg, tmp_path / "out") <= 2 << 20
    lines = (tmp_path / "out" / "track.csv").read_text().splitlines()
    assert len(lines) == 2 + n and lines[2].startswith(f"{-n // 2},")


def test_out_naming_a_file_exits_two(tmp_path):
    cfg = write_config(tmp_path / "c.json", {"point": "step", "range": [0, 5]})
    out = tmp_path / "afile"
    out.write_text("not a directory")
    res = run_cli(["generate", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 2
    assert res.output.startswith("config error: out: ")
    assert out.read_text() == "not a directory"


def test_module_entry_point_lists_commands():
    res = run_cli_process(["--help"], timeout=60)
    assert res.exit_code == 0
    for name in ("generate", "scan", "classify", "spectrum", "parseval",
                 "eigen", "diffract"):
        assert re.search(rf"^\s+{name}\b", res.output, re.M), name


@pytest.mark.parametrize("args", [
    [],                                             # no command
    ["sweep", "--config", "c.json"],                # unknown command
    ["generate"],                                   # no --config
    ["generate", "--config", "c.json", "--threads", "two"],
    ["generate", "--config", "c.json", "--threads", "2"],   # one thread only
    ["generate", "--config", "c.json", "--threads", "0"],
    ["generate", "--config", "c.json", "--seed-override", "1.5"],
    ["generate", "--conf", "c.json"],               # abbreviated option
    ["generate", "--config", "c.json", "--seed", "5"],
])
def test_usage_errors_exit_two_without_traceback(args):
    res = run_cli(args)
    assert res.exit_code == 2
    assert "usage: " in res.output
    assert "Traceback" not in res.output


def test_main_raises_system_exit_with_the_command_code(tmp_path, capsys):
    good = write_config(tmp_path / "g.json", {"point": "step", "range": [0, 5]})
    bad = write_config(tmp_path / "b.json", {"point": "step", "range": [5, 0]})
    for cfg, code in ((good, 0), (bad, 2)):
        with pytest.raises(SystemExit) as exit_info:
            main(args=["generate", "--config", cfg, "--out",
                       str(tmp_path / "o")], prog_name="apspectra")
        assert exit_info.value.code == code
    assert "config error: range: " in capsys.readouterr().err


def test_spectrum_fibonacci_contains_golden_thetas(tmp_path):
    cfg = write_config(tmp_path / "s.json", {
        "point": "fibonacci",
        "observable": {"kind": "indicator", "letter": "1"},
        "schedule": {"kind": "intervals", "base": 1000, "n_max": 8},
        "grid_sizes": [2048, 8192],
    })
    out = tmp_path / "out"
    res = run_cli(["spectrum", "--config", cfg, "--out", str(out)])
    assert res.exit_code == 0
    doc = json.loads((out / "spectrum.json").read_text())
    thetas = [fr["theta"] for fr in doc["report"]["frequencies"]]
    golden = (5 ** 0.5 - 1) / 2
    for k in (0, 1, -1):
        target = (k * golden) % 1.0
        assert min(min(abs(t - target), 1 - abs(t - target)) for t in thetas) < 1e-3
    csv_head = (out / "spectrum.csv").read_text().splitlines()[2]
    assert csv_head == "theta,amp_re,amp_im,amp_abs"


def test_parseval_with_explicit_thetas(tmp_path):
    cfg = write_config(tmp_path / "p.json", {
        "point": "periodic:AB",
        "observable": {"kind": "indicator", "letter": "A"},
        "schedule": {"kind": "intervals", "base": 100, "n_max": 4},
        "thetas": [0.0, 0.5],
    })
    out = tmp_path / "out"
    assert run_cli(["parseval", "--config", cfg, "--out", str(out)]).exit_code == 0
    doc = json.loads((out / "parseval.json").read_text())
    assert all(abs(d) < 1e-9 for d in doc["parseval"]["defects"])


def test_eigen_command(tmp_path):
    cfg = write_config(tmp_path / "e.json", {
        "point": "periodic:AB",
        "observable": {"kind": "indicator", "letter": "A"},
        "schedule": {"kind": "intervals", "base": 100, "n_max": 4},
        "theta": 0.5,
        "point_shifts": [0, 1],
        "shift_probes": [1, 2],
    })
    out = tmp_path / "out"
    assert run_cli(["eigen", "--config", cfg, "--out", str(out)]).exit_code == 0
    doc = json.loads((out / "eigen.json").read_text())
    assert doc["eigen"]["eigen_residual"] < 1e-9
    values = doc["eigen"]["values"]
    assert abs(values[0][0] - 0.5) < 1e-9
    assert abs(values[1][0] + 0.5) < 1e-9


def test_eigen_theta_just_below_zero_is_written_as_zero(tmp_path):
    # -1e-17 modulo 1 rounds to 1.0, the same character as 0.0
    cfg = write_config(tmp_path / "e.json", {
        "point": "periodic:AB", "observable": "indicator:A",
        "schedule": {"kind": "intervals", "base": 100, "n_max": 4},
        "theta": -1e-17, "point_shifts": [0, 1], "shift_probes": [1]})
    out = tmp_path / "out"
    assert run_cli(["eigen", "--config", cfg, "--out", str(out)]).exit_code == 0
    assert json.loads((out / "eigen.json").read_text())["eigen"]["theta"] == 0.0


def test_diffract_command(tmp_path):
    cfg = write_config(tmp_path / "d.json", {
        "point": "periodic:AB",
        "weights": {"A": 1.0, "B": 0.0},
        "schedule": {"kind": "intervals", "base": 100, "n_max": 4},
        "k_max": 8,
        "grid_size": 32,
        "atom_thetas": [0.0, 0.5],
    })
    out = tmp_path / "out"
    assert run_cli(["diffract", "--config", cfg, "--out", str(out)]).exit_code == 0
    atoms = json.loads((out / "atoms.json").read_text())
    assert abs(atoms["pure_point_fraction"] - 1.0) < 1e-6
    auto = (out / "autocorrelation.csv").read_text().splitlines()
    assert auto[2] == "lag,eta_re,eta_im"
    assert auto[3].startswith("-8,")
    dens = (out / "density.csv").read_text().splitlines()
    assert dens[1].startswith("# budget=")
    assert dens[2] == "theta,density"


def test_diffract_reads_the_comb_once(tmp_path, monkeypatch):
    reads = []
    values = WeightedComb.values

    def counted(self, start, stop):
        reads.append((start, stop))
        return values(self, start, stop)

    monkeypatch.setattr(WeightedComb, "values", counted)
    cfg = write_config(tmp_path / "d.json", {
        "point": "bernoulli:0.5:3", "weights": {"0": 0.0, "1": 1.0},
        "schedule": {"kind": "intervals", "base": 100, "n_max": 4},
        "k_max": 8, "atom_thetas": [0.0, 0.25, 0.5]})
    res = run_cli(["diffract", "--config", cfg, "--out", str(tmp_path / "o")])
    assert res.exit_code == 0
    assert reads == [(-8, 400)]


SMALL_AB = {"point": "periodic:AB",
            "schedule": {"kind": "intervals", "base": 10, "n_max": 3}}


@pytest.mark.parametrize("command,cfg,field", [
    ("spectrum", {"point": "periodic:AB", "observable": "indicator:A",
                  "schedule": {"kind": "intervals", "base": 10, "n_max": 3},
                  "grid_sizes": [64]}, "grid_sizes"),
    ("diffract", {"point": "periodic:AB", "weights": {"A": 1, "B": 0},
                  "schedule": {"kind": "intervals", "base": 10, "n_max": 3},
                  "taper": "hann", "atom_thetas": [0.0]}, "taper"),
    ("diffract", {"point": "periodic:AB", "weights": {"A": 1, "B": 0},
                  "schedule": {"kind": "intervals", "base": 10, "n_max": 3},
                  "k_max": 8, "grid_size": 4, "atom_thetas": [0.0]},
     "grid_size"),
    ("scan", {"point": "periodic:AB",
              "schedule": {"kind": "intervals", "base": 10, "n_max": 3},
              "epsilon": "big"}, "epsilon"),
    ("classify", {"point": "periodic:AB",
                  "schedule": {"kind": "intervals", "base": 10, "n_max": 3},
                  "eps_grid": []}, "eps_grid"),
    ("classify", {"point": "periodic:AB",
                  "schedule": {"kind": "intervals", "base": 10, "n_max": 3},
                  "weyl_index": 9}, "weyl_index"),
    # JSON admits NaN and +-Infinity; numbers must be finite
    ("scan", {**SMALL_AB, "epsilon": float("nan")}, "epsilon"),
    ("scan", {**SMALL_AB, "epsilon": float("inf")}, "epsilon"),
    ("classify", {**SMALL_AB, "eps_grid": [float("inf")]}, "eps_grid"),
    ("classify", {**SMALL_AB, "gap_threshold": float("-inf")},
     "gap_threshold"),
    ("scan", {**SMALL_AB, "epsilon": 10 ** 400}, "epsilon"),
    ("diffract", {**SMALL_AB, "weights": {"A": [1.0, float("nan")], "B": 0.0},
                  "atom_thetas": [0.0]}, "weights.A"),
    ("parseval", {**SMALL_AB, "observable": "indicator:A", "detect": [1]},
     "detect"),
    ("scan", {**SMALL_AB, "kinds": 3}, "kinds"),
    ("eigen", {**SMALL_AB, "observable": "indicator:A", "theta": 0.5,
               "point_shifts": 3}, "point_shifts"),
    ("eigen", {**SMALL_AB, "observable": "indicator:A", "theta": 0.5,
               "shift_probes": 3}, "shift_probes"),
    # nested values are type-checked
    ("parseval", {**SMALL_AB, "thetas": [0.0],
                  "observable": {"kind": "letter_values", "map": [1]}},
     "observable.map"),
    ("parseval", {**SMALL_AB, "thetas": [0.0],
                  "observable": {"kind": "table", "window": 0,
                                 "table": {"A": 1, "B": 0}}},
     "observable.window"),
    ("parseval", {**SMALL_AB, "thetas": [0.0],
                  "observable": {"kind": "table", "window": [0],
                                 "table": [1]}}, "observable.table"),
    ("parseval", {**SMALL_AB, "observable": "indicator:A@x",
                  "thetas": [0.0]}, "observable.offset"),
    ("parseval", {**SMALL_AB, "observable": "indicator:A",
                  "detect": {"threshold": "x"}}, "detect.threshold"),
    ("parseval", {**SMALL_AB, "observable": "indicator:A",
                  "detect": {"grid_sizes": [1, 64]}}, "detect.grid_sizes"),
    ("generate", {"point": {"kind": "substitution", "rules": [1]}},
     "point.rules"),
    # integer settings below their least meaningful value
    ("parseval", {**SMALL_AB, "observable": "indicator:A", "thetas": [0.0],
                  "estimator": {"tail": -3}}, "estimator.tail"),
    ("spectrum", {**SMALL_AB, "observable": "indicator:A",
                  "grid_sizes": [64, 128], "refine_steps": -5},
     "refine_steps"),
    ("parseval", {**SMALL_AB, "observable": "indicator:A",
                  "detect": {"grid_sizes": [64, 128], "refine_steps": 0}},
     "detect.refine_steps"),
    ("spectrum", {**SMALL_AB, "observable": "indicator:A",
                  "grid_sizes": [64, 128], "max_frequencies": -1},
     "max_frequencies"),
    ("parseval", {**SMALL_AB, "observable": "indicator:A",
                  "detect": {"grid_sizes": [64, 128], "top": -1}},
     "detect.top"),
    ("scan", {**SMALL_AB, "kinds": ["weyl"], "weyl_shift_span": -100},
     "weyl_shift_span"),
    # the int32 cylinder sums hold radii up to 28
    ("classify", {**SMALL_AB, "metric_radius": 29}, "metric_radius"),
    # atom thetas are finite numbers, like thetas
    ("diffract", {**SMALL_AB, "weights": {"A": 1, "B": 0},
                  "atom_thetas": ["x"]}, "atom_thetas"),
    ("diffract", {**SMALL_AB, "weights": {"A": 1, "B": 0},
                  "atom_thetas": "ab"}, "atom_thetas"),
    ("diffract", {**SMALL_AB, "weights": {"A": 1, "B": 0},
                  "atom_thetas": [float("nan")]}, "atom_thetas"),
    ("diffract", {**SMALL_AB, "weights": {"A": 1, "B": 0},
                  "atom_thetas": [float("inf")]}, "atom_thetas"),
    # tolerances are positive, the top-level seed an integer
    ("parseval", {**SMALL_AB, "observable": "indicator:A", "thetas": [0.0],
                  "estimator": {"convergence_tol": -1}},
     "estimator.convergence_tol"),
    ("parseval", {**SMALL_AB, "observable": "indicator:A", "thetas": [0.0],
                  "estimator": {"oscillation_threshold": -1}},
     "estimator.oscillation_threshold"),
    ("classify", {**SMALL_AB, "gap_threshold": -1}, "gap_threshold"),
    ("generate", {"point": "step", "seed": float("nan")}, "seed"),
    # unknown keys, at the top level and nested
    ("scan", {**SMALL_AB, "epsilonn": 0.3}, "epsilonn"),
    ("parseval", {**SMALL_AB, "observable": "indicator:A", "thetas": [0.0],
                  "estimator": {"tol": 0.1}}, "estimator.tol"),
    # sizes stay inside config.SAMPLE_BUDGET: each row would otherwise ask
    # numpy for more than it can allocate, or for gigabytes
    ("scan", {**SMALL_AB, "schedule": {"kind": "dyadic", "n_max": 70}},
     "schedule.n_max"),
    ("scan", {**SMALL_AB, "schedule": {"kind": "intervals", "base": 100_000,
                                       "n_max": 50_000}}, "schedule.n_max"),
    ("scan", {**SMALL_AB, "schedule": {"kind": "intervals",
                                       "base": 10 ** 12}}, "schedule.base"),
    ("scan", {**SMALL_AB, "schedule": {"kind": "alternating",
                                       "n_max": 10 ** 9}}, "schedule.n_max"),
    ("parseval", {**SMALL_AB, "observable": "indicator:A", "thetas": [0.0],
                  "schedule": {"kind": "custom",
                               "windows": [[0, 5], [-10 ** 10, 3]]}},
     "schedule.windows"),
    ("classify", {**SMALL_AB, "range": [-10 ** 9, 10 ** 9]}, "range"),
    ("generate", {"point": "step", "range": [0, 2 ** 22]}, "range"),
    ("spectrum", {**SMALL_AB, "observable": "indicator:A",
                  "grid_sizes": [64, 2 ** 40]}, "grid_sizes[1]"),
    ("parseval", {**SMALL_AB, "observable": "indicator:A",
                  "detect": {"grid_sizes": [2 ** 23, 64]}},
     "detect.grid_sizes[0]"),
    ("diffract", {**SMALL_AB, "weights": {"A": 1, "B": 0}, "k_max": 10 ** 8,
                  "atom_thetas": [0.0]}, "k_max"),
    ("diffract", {**SMALL_AB, "weights": {"A": 1, "B": 0}, "grid_size": 2 ** 30,
                  "atom_thetas": [0.0]}, "grid_size"),
    ("classify", {**SMALL_AB, "weyl_shift_span": 10 ** 10}, "weyl_shift_span"),
    ("classify", {**SMALL_AB, "bohr_horizon": 10 ** 10}, "bohr_horizon"),
    # coordinates stay inside the budget too, however few samples they ask
    # for: the budget caps every coordinate a config names
    ("generate", {"point": "fibonacci", "range": [10 ** 9, 10 ** 9]},
     "range[0]"),
    ("scan", {**SMALL_AB, "range": [-2 ** 22 - 1, -2 ** 22]}, "range[0]"),
    ("eigen", {**SMALL_AB, "observable": "indicator:A", "theta": 0.5,
               "point_shifts": [10 ** 12]}, "point_shifts[0]"),
    ("eigen", {**SMALL_AB, "observable": "indicator:A", "theta": 0.5,
               "shift_probes": [1, -10 ** 10]}, "shift_probes[1]"),
    ("parseval", {**SMALL_AB, "observable": "indicator:A", "thetas": [0.0],
                  "schedule": {"kind": "custom", "windows": [[10 ** 10, 5]]}},
     "schedule.windows[0][0]"),
    ("parseval", {**SMALL_AB, "thetas": [0.0],
                  "observable": {"kind": "indicator", "letter": "A",
                                 "offset": 10 ** 9}}, "observable.offset"),
    ("parseval", {**SMALL_AB, "thetas": [0.0],
                  "observable": {"kind": "table", "window": [0, -10 ** 9],
                                 "table": {"AA": 1, "AB": 0, "BA": 0,
                                           "BB": 0}}}, "observable.window[1]"),
    # a kind scanned twice would write its period column twice
    ("scan", {**SMALL_AB, "kinds": ["mean", "mean"]}, "kinds[1]"),
    # an orbit run stays in the budget: the default weyl span is four
    # times the weyl window, so this run is nine times 2^22 samples, and
    # this bohr run 2^23 + 1
    ("classify", {**SMALL_AB, "schedule": {"kind": "intervals",
                                           "base": 2 ** 19, "n_max": 8}},
     "weyl_shift_span"),
    ("classify", {**SMALL_AB, "bohr_horizon": 2 ** 22}, "bohr_horizon"),
    # a scan of no kinds would write a scan.csv of its t column alone
    ("scan", {**SMALL_AB, "kinds": []}, "kinds"),
    # the diffract lag table has a row per window and k_max + 1 columns;
    # validation rejects it before any sample is read
    ("diffract", {**SMALL_AB, "weights": {"A": 1, "B": 0}, "k_max": 10 ** 6,
                  "schedule": {"kind": "intervals", "base": 1, "n_max": 10},
                  "atom_thetas": [0.0]}, "k_max"),
    # a finite but huge value would square to inf in the energies and lag
    # sums, and write inf and NaN cells
    ("spectrum", {**SMALL_AB, "point": "thue-morse", "grid_sizes": [64, 128],
                  "observable": {"kind": "letter_values",
                                 "map": {"0": 1e308, "1": 1e308}}},
     "observable.map.0"),
    ("parseval", {**SMALL_AB, "observable": {"kind": "letter_values",
                                             "map": {"A": 1e308, "B": 1e308}}},
     "observable.map.A"),
    ("parseval", {**SMALL_AB, "thetas": [0.0],
                  "observable": {"kind": "table", "window": [0],
                                 "table": {"A": 1, "B": [0, -1e101]}}},
     "observable.table.B"),
    ("diffract", {**SMALL_AB, "point": "bernoulli:0.5:3",
                  "weights": {"0": 0.0, "1": 1e308}, "atom_thetas": [0.0]},
     "weights.1"),
    # a seed entry must be one letter: an empty left word never grows, and
    # words that no power of the rules stabilises grew as 3^p while the
    # power was sought
    ("generate", {"range": [-8, 8], "point": {
        "kind": "substitution", "rules": {"0": "01", "1": "10"},
        "seed": ["", "01"]}}, "point"),
    ("generate", {"range": [-8, 8], "point": {
        "kind": "substitution", "rules": {"0": "011", "1": "111"},
        "seed": ["0", "1"]}}, "point"),
    # a table over 40 offsets would have 2^40 entries; the first missing
    # pattern is found before any is allocated
    ("parseval", {**SMALL_AB, "thetas": [0.0],
                  "observable": {"kind": "table", "window": list(range(40)),
                                 "table": {"A" * 40: 1}}}, "observable.table"),
    # sigma(0) = 0 and the seed is 0.0, so neither seed word ever grows
    ("generate", {"range": [-8, 8], "point": {
        "kind": "substitution", "rules": {"0": "0", "1": "10"},
        "seed": ["0", "0"]}}, "point"),
    # |sigma^n(a)| = n + 1 and |sigma^n(c)| grows as n^2 / 2: reading
    # coordinate k of seeds that grow only polynomially takes about k levels
    ("generate", {"range": [-4000, 4000], "point": {
        "kind": "substitution", "rules": {"a": "ba", "b": "b", "c": "cb",
                                          "d": "ac"},
        "seed": ["a", "c"]}}, "point"),
    # the diffract density takes a phase per grid point and lag: here
    # 2^19 x (2^19 + 1), rejected before any sample is read
    ("diffract", {**SMALL_AB, "weights": {"A": 1, "B": 0}, "k_max": 262144,
                  "grid_size": 524288,
                  "schedule": {"kind": "custom", "windows": [[0, 1]]}},
     "grid_size"),
    # an eigenfunction sampled at no point
    ("eigen", {"point": "fibonacci", "observable": "indicator:0",
               "theta": 0.38, "point_shifts": [],
               "schedule": {"kind": "intervals", "base": 100, "n_max": 5}},
     "point_shifts"),
    # a theta met twice modulo 1 would count its mass twice: a negative
    # Parseval defect, atom masses above eta(0)
    ("parseval", {"point": "periodic:AB", "observable": "indicator:A",
                  "schedule": {"kind": "intervals", "base": 100, "n_max": 6},
                  "thetas": [0.0, 0.0, 0.5]}, "thetas[1]"),
    ("diffract", {"point": "periodic:AB", "weights": {"A": 1, "B": 0},
                  "schedule": {"kind": "intervals", "base": 100, "n_max": 6},
                  "k_max": 8, "grid_size": 32, "atom_thetas": [0.0, 1.0, 0.5]},
     "atom_thetas[1]"),
    # one translate: the gap rule would hold at width 0 for every kind
    ("classify", {"point": "bernoulli:0.5:3", "range": [0, 0],
                  "schedule": {"kind": "intervals", "base": 100, "n_max": 5}},
     "range"),
    # every stage holds its grid: eight of the largest size would not fit
    ("spectrum", {**SMALL_AB, "observable": "indicator:A",
                  "grid_sizes": [2 ** 22] * 8}, "grid_sizes"),
    # a grid size met twice checks persistence against the same grid, so
    # the persistence filter would drop nothing
    ("spectrum", {**SMALL_AB, "observable": "indicator:A",
                  "grid_sizes": [64, 64]}, "grid_sizes[1]"),
    ("parseval", {**SMALL_AB, "observable": "indicator:A",
                  "detect": {"grid_sizes": [64, 128, 64]}},
     "detect.grid_sizes[2]"),
])
def test_validation_names_offending_field(tmp_path, command, cfg, field):
    path = write_config(tmp_path / "c.json", cfg)
    args = [command, "--config", path, "--out", str(tmp_path / "o")]
    # substitution seeds have hung the generator before: a fresh process
    # with a deadline fails in seconds if one hangs again
    if isinstance(cfg.get("point"), dict) and (
            cfg["point"]["kind"] == "substitution"):
        res = run_cli_process(args, timeout=10)
    else:
        res = run_cli(args)
    assert res.exit_code == 2
    assert field in res.output


def test_diffract_atom_masses_over_eta0_exit_two(tmp_path):
    # thetas detected on a short schedule: their masses sum past eta(0),
    # which the library raises on and the command line reports as a config
    # error naming the thetas
    path = write_config(tmp_path / "c.json", {
        "point": "sturmian:0.3", "weights": {"0": 1, "1": 0}, "k_max": 4,
        "schedule": {"kind": "intervals", "base": 100, "n_max": 6}})
    res = run_cli(["diffract", "--config", path, "--out", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output
    assert "atom_thetas" in res.output
    assert "list fewer thetas or lengthen the schedule" in res.output
    assert not (tmp_path / "o").exists()


# one small config a command, each list key given, for the exit-code
# contract: windows, a table window and a substitution seed included
CONTRACT_CONFIGS = {
    "generate": {"point": {"kind": "substitution",
                           "rules": {"0": "01", "1": "10"}},
                 "range": [-8, 8], "observable": "indicator:0"},
    "scan": {**SMALL_AB, "kinds": ["mean", "bohr"], "range": [-4, 4],
             "bohr_horizon": 16},
    "classify": {**SMALL_AB, "eps_grid": [0.1, 0.2], "range": [-4, 4],
                 "bohr_horizon": 16},
    "spectrum": {**SMALL_AB, "grid_sizes": [64, 128], "observable": {
        "kind": "table", "window": [0, 1],
        "table": {"AA": 0, "AB": 1, "BA": [0, 1], "BB": 2}}},
    "parseval": {**SMALL_AB, "observable": "indicator:A",
                 "thetas": [0.0, 0.5], "detect": {"grid_sizes": [64, 128]}},
    "eigen": {"point": "periodic:AB", "observable": "indicator:A",
              "theta": 0.5, "point_shifts": [0, 1], "shift_probes": [1, 2],
              "schedule": {"kind": "custom",
                           "windows": [[0, 10], [0, 20], [-5, 40]]}},
    "diffract": {**SMALL_AB, "weights": {"A": 1, "B": 0}, "k_max": 4,
                 "atom_thetas": [0.0, 0.5], "detect": {"grid_sizes": [64, 128]}},
}


def _list_paths(value, path=()):
    """The key paths of an expanded config whose values are lists."""
    for key, item in value.items():
        if isinstance(item, list):
            yield path + (key,)
        elif isinstance(item, dict):
            yield from _list_paths(item, path + (key,))


def test_every_list_key_empty_or_repeated_exits_zero_or_two(tmp_path):
    # exit 0, or exit 2 naming the key, never a traceback or exit 1
    cases = 0
    for command, cfg in CONTRACT_CONFIGS.items():
        expanded = config.validate(command, cfg)
        del expanded["command"]
        for path in _list_paths(expanded):
            *parents, key = path
            for variant in ("empty", "repeated"):
                mutated = json.loads(json.dumps(expanded))
                block = mutated
                for parent in parents:
                    block = block[parent]
                block[key] = [] if variant == "empty" else [block[key][0]] * 2
                name = f"{command}-{'.'.join(path)}-{variant}"
                res = run_cli([command, "--config",
                               write_config(tmp_path / f"{name}.json", mutated),
                               "--out", str(tmp_path / name)])
                assert res.exit_code in (0, 2), (name, res.output)
                assert "Traceback" not in res.output, name
                if res.exit_code == 2:
                    assert ".".join(path) in res.output, (name, res.output)
                cases += 1
    assert cases >= 40


P24 = "abcdefghijklmnopqrstuvwx"


@pytest.mark.parametrize("cfg,letters", [
    # c_i -> c_i c_(i+1) c_(i+1) on 24 letters: the seed a.b is stable under
    # sigma^24 only, whose words have 3^24 letters
    ({"range": [-8, 8], "point": {
        "kind": "substitution", "seed": ["a", "b"],
        "rules": {c: c + P24[(i + 1) % 24] * 2 for i, c in enumerate(P24)}}},
     "xxxaaxaabcccddcdd"),
    # a short window at the far end of the coordinate budget
    ({"range": [2 ** 22 - 100, 2 ** 22 - 1], "point": "fibonacci"}, None),
])
def test_substitution_windows_deep_or_far_out_exit_zero(tmp_path, cfg,
                                                         letters):
    path = write_config(tmp_path / "c.json", cfg)
    out = tmp_path / "o"
    res = run_cli_process(["generate", "--config", path, "--out", str(out)],
                          timeout=10)
    assert res.exit_code == 0, res.output
    rows = (out / "sequence.csv").read_text().splitlines()[2:]
    assert [int(row.split(",")[0]) for row in rows] == list(
        range(cfg["range"][0], cfg["range"][1] + 1))
    if letters:
        assert "".join(row.split(",")[1] for row in rows) == letters


@pytest.mark.parametrize("command,cfg", [
    ("spectrum", {"observable": {"kind": "letter_values", "map": {
        "0": 1e100, "1": [-1e100, 1e100]}}, "grid_sizes": [4096, 8192]}),
    ("parseval", {"observable": {"kind": "letter_values", "map": {
        "0": 1e100, "1": -1e100}}, "detect": {"grid_sizes": [4096, 8192]}}),
    ("diffract", {"weights": {"0": -1e100, "1": [0, 1e100]}, "k_max": 16,
                  "detect": {"grid_sizes": [4096, 8192]}}),
])
def test_values_at_the_magnitude_bound_stay_finite(tmp_path, command, cfg):
    # an overflow warning fails the run under the suite's warning filter
    path = write_config(tmp_path / "c.json", {
        "point": "fibonacci", **cfg,
        "schedule": {"kind": "intervals", "base": 1000, "n_max": 8}})
    out = tmp_path / "o"
    assert run_cli([command, "--config", path, "--out", str(out)]).exit_code == 0
    for artifact in out.iterdir():
        assert not re.search(r"\b(nan|inf|NaN|Infinity)\b",
                             artifact.read_text()), artifact.name


def test_orbit_run_budget_counts_only_the_requested_kinds():
    # validation only: these runs are too long to generate in a test
    wide = {**SMALL_AB, "schedule": {"kind": "intervals", "base": 2 ** 19,
                                     "n_max": 8}}
    config.validate("scan", {**wide, "kinds": ["mean"]})
    with pytest.raises(ConfigError, match="^weyl_shift_span: "):
        config.validate("scan", {**wide, "kinds": ["mean", "weyl"]})


def test_missing_eigen_theta_exit_two(tmp_path):
    cfg = write_config(tmp_path / "e.json", {
        "point": "periodic:AB",
        "observable": "indicator:A",
        "schedule": {"kind": "intervals", "base": 10, "n_max": 3},
    })
    res = run_cli(["eigen", "--config", cfg, "--out", str(tmp_path / "o")])
    assert res.exit_code == 2
    assert "theta" in res.output


def test_spectrum_csv_rows_match_cell_formatting():
    # spectrum.csv formats Python floats from .tolist(), and a grid whose
    # bins n - j and j are conjugate bit for bit formats rows 0 .. n // 2
    # only; each cell must read as the per-cell route over the grid's own
    # numpy scalars wrote it, signed zeros too
    amps = np.array([0.0, -0.0, complex(-0.0, -0.0), -1.5 + 2j,
                     3e-17 - 0.25j, complex(-2.0, 0.0), 0.1 + 0.2j])
    tiny = FourierBohrGrid(len(amps), amps, None, amps)
    x = BernoulliPoint(0.5, 3)
    noisy = fourier_bohr_grid(       # a complex track: the full FFT
        Observable.letter_values({"0": 0.3 - 0.7j, "1": -1.0}), x, 8192)
    rng = np.random.default_rng(5)
    mirrored = [spectral._grid(rng.choice([-1.0, 0.0, 2.5], n))
                for n in (2, 7, 2 * _BLOCK + 3)]
    # real tracks, hand-built, that must format every row: not Hermitian,
    # Hermitian but for the sign of one zero (bin 4 should hold -0.0), and
    # conjugate bit for bit with a nan, where repr(-nan) is "nan"
    track = np.array([1.0, 0.0, 2.0, 0.0, 0.0])
    skew = FourierBohrGrid(5, np.array([1, 0.5j, 2, -2, 0.5j]), None, track)
    zero = FourierBohrGrid(5, np.array([1, 0.5, 2 - 1j, 2 + 1j, 0.5]), None,
                           track)
    nans = np.array([1, complex(1, np.nan), 0])
    nans[2] = np.conj(nans[1])
    nan = FourierBohrGrid(3, nans, None, track[:3])
    for grid in (tiny, noisy, *mirrored, skew, zero, nan):
        cells = "".join(
            ",".join(_fmt(v) for v in (t, a.real, a.imag, abs(a))) + "\n"
            for t, a in zip(grid.thetas, grid.amplitudes))
        blocks = list(_grid_lines(grid))
        assert all(0 < b.count("\n") <= _BLOCK and b.endswith("\n")
                   for b in blocks)
        assert "".join(blocks) == cells
