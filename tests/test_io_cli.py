import csv
import math
import os
import re
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import nncp
from nncp import (
    DenseTensor,
    FactorSet,
    RunConfig,
    SyntheticSpec,
    generate_synthetic,
    nncp_parallel,
    read_matrix,
    read_tensor,
    reconstruct,
    write_matrix,
    write_tensor,
)
from nncp.cli import CSV_FIELDS, run_cli
from nncp.tensor_io import (
    MAGIC,
    BadMagicError,
    PayloadMismatchError,
    TensorFileError,
    TruncatedFileError,
)


class TestTensorFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        x = DenseTensor((3, 4, 5), rng.standard_normal(60))
        path = tmp_path / "x.bin"
        write_tensor(path, x)
        back = read_tensor(path)
        assert back.dims == x.dims
        assert np.array_equal(back.data, x.data)

    def test_matrix_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        h = rng.standard_normal((7, 3))
        path = tmp_path / "h.bin"
        write_matrix(path, h)
        assert np.array_equal(read_matrix(path), h)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        x = DenseTensor((2, 2), np.arange(4.0))
        write_tensor(path, x)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(BadMagicError):
            read_tensor(path)

    def test_truncated_mid_value(self, tmp_path):
        path = tmp_path / "trunc.bin"
        write_tensor(path, DenseTensor((2, 2), np.arange(4.0)))
        raw = path.read_bytes()
        path.write_bytes(raw[:-3])
        with pytest.raises(TruncatedFileError):
            read_tensor(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "head.bin"
        path.write_bytes(MAGIC + b"\x01")
        with pytest.raises(TruncatedFileError):
            read_tensor(path)

    def test_truncated_dims_block(self, tmp_path):
        # the header promises three dims; the file ends inside the second
        path = tmp_path / "dims.bin"
        path.write_bytes(struct.pack("<4sHH", MAGIC, 1, 3) + struct.pack("<Q", 4) + bytes(4))
        want = f"^{re.escape(str(path))}: file ends inside the dims block$"
        with pytest.raises(TruncatedFileError, match=want):
            read_tensor(path)

    def test_read_matrix_rejects_other_orders(self, tmp_path):
        path = tmp_path / "cube.bin"
        write_tensor(path, DenseTensor((2, 2, 2), np.arange(8.0)))
        want = f"^{re.escape(str(path))}: expected an order-2 file, got order 3$"
        with pytest.raises(TensorFileError, match=want):
            read_matrix(path)

    @pytest.mark.parametrize("dims", [(), (3,), (0, 3)])
    def test_header_of_no_tensor_names_the_path(self, tmp_path, dims):
        # the payload matches the header, so only the dims can fail
        path = tmp_path / "dims.bin"
        header = struct.pack("<4sHH", MAGIC, 1, len(dims)) + struct.pack(f"<{len(dims)}Q", *dims)
        path.write_bytes(header + bytes(8 * math.prod(dims)))
        with pytest.raises(TensorFileError, match=f"^{re.escape(str(path))}: need order >= 2"):
            read_tensor(path)

    def test_payload_mismatch(self, tmp_path):
        path = tmp_path / "mismatch.bin"
        header = struct.pack("<4sHH", MAGIC, 1, 2) + struct.pack("<2Q", 2, 2)
        payload = struct.pack("<3d", 1.0, 2.0, 3.0)  # 3 floats for 2x2 dims
        path.write_bytes(header + payload)
        with pytest.raises(PayloadMismatchError):
            read_tensor(path)

    def test_element_count_beyond_int64(self, tmp_path):
        # 2^32 * 2^32 wraps to 0 in int64; the header alone must not pass
        path = tmp_path / "huge.bin"
        path.write_bytes(struct.pack("<4sHH", MAGIC, 1, 2) + struct.pack("<2Q", 2**32, 2**32))
        with pytest.raises(PayloadMismatchError, match="promises 18446744073709551616"):
            read_tensor(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "v9.bin"
        header = struct.pack("<4sHH", MAGIC, 9, 2) + struct.pack("<2Q", 1, 1)
        path.write_bytes(header + struct.pack("<1d", 1.0))
        with pytest.raises(TensorFileError):
            read_tensor(path)

    def test_read_holds_one_copy_of_the_payload(self, tmp_path):
        x = DenseTensor((64, 64, 32), np.random.default_rng(2).random(64 * 64 * 32))
        path = tmp_path / "x.bin"
        write_tensor(path, x)
        tracemalloc.start()
        try:
            back = read_tensor(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.data, x.data)
        assert peak <= 1.2 * x.data.nbytes

    def test_read_maps_a_private_writable_array(self, tmp_path):
        x = DenseTensor((64, 64, 32), np.random.default_rng(3).random(64 * 64 * 32))
        path = tmp_path / "x.bin"
        write_tensor(path, x)
        raw = path.read_bytes()
        tracemalloc.start()
        try:
            back = read_tensor(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.1 * x.data.nbytes  # the payload is mapped, not copied
        assert back.data.dtype == np.float64 and back.data.flags.writeable
        back.data[:] = -1.0
        assert path.read_bytes() == raw
        assert np.array_equal(read_tensor(path).data, x.data)

    def test_rewrite_keeps_tensors_read_before(self, tmp_path):
        # a SIGBUS from a truncated mapping would kill the interpreter, so
        # the scenario runs in a child process
        script = """
import sys
import numpy as np
from nncp import DenseTensor, read_tensor, write_tensor

path = sys.argv[1]
x = DenseTensor((64, 64, 32), np.random.default_rng(4).random(64 * 64 * 32))
write_tensor(path, x)
old = read_tensor(path)
write_tensor(path, DenseTensor((2, 2), np.arange(4.0)))
assert np.array_equal(old.data, x.data)
# read, modify and write back to the path the tensor is mapped from
y = read_tensor(path)
y.data[0] = 7.0
write_tensor(path, y)
assert np.array_equal(read_tensor(path).data, [7.0, 1.0, 2.0, 3.0])
print("ok")
"""
        env = dict(os.environ)
        src = str(Path(nncp.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "x.bin")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"
        assert [p.name for p in tmp_path.iterdir()] == ["x.bin"]

    def test_write_adds_no_copy_of_the_payload(self, tmp_path):
        x = DenseTensor((64, 64, 32), np.random.default_rng(5).random(64 * 64 * 32))
        path = tmp_path / "x.bin"
        tracemalloc.start()
        try:
            write_tensor(path, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert x.data.nbytes == 1 << 20
        assert peak < 0.2 * x.data.nbytes
        assert np.array_equal(read_tensor(path).data, x.data)

    @pytest.mark.parametrize("algorithm", ["ucp", "bpp", "nes"])
    @pytest.mark.parametrize("grid", [None, (2, 1, 1)])
    def test_solve_from_file_matches_in_memory(self, tmp_path, algorithm, grid):
        x, _ = generate_synthetic(SyntheticSpec((6, 5, 4), 2, seed=7))
        path = tmp_path / "x.bin"
        write_tensor(path, x)
        runs = []
        for tensor in (x, read_tensor(path)):
            cfg = RunConfig(rank=2, algorithm=algorithm, max_iters=4, tol=0.0, grid=grid)
            runs.append(nncp_parallel(tensor, cfg).errors)
        assert runs[0] == runs[1]

    def test_error_types_are_distinct(self):
        assert not issubclass(BadMagicError, TruncatedFileError)
        assert not issubclass(TruncatedFileError, PayloadMismatchError)
        assert issubclass(BadMagicError, TensorFileError)


class TestSynthetic:
    def test_deterministic(self):
        a, _ = generate_synthetic(SyntheticSpec((4, 5, 6), 3, seed=2))
        b, _ = generate_synthetic(SyntheticSpec((4, 5, 6), 3, seed=2))
        assert np.array_equal(a.data, b.data)
        c, _ = generate_synthetic(SyntheticSpec((4, 5, 6), 3, seed=3))
        assert not np.array_equal(a.data, c.data)

    def test_truth_is_drawn_by_init_factor(self):
        # the driver's keyed generator, with the mode salted by 2**32
        _, truth = generate_synthetic(SyntheticSpec((4, 3, 5), 2, seed=6))
        for n, h in enumerate(truth.factors):
            assert np.array_equal(h, nncp.init_factor(6, (1 << 32) | n, h.shape[0], 2))

    def test_nonnegative(self):
        x, _ = generate_synthetic(SyntheticSpec((5, 5, 5), 4, seed=4))
        assert (x.data >= 0).all()

    def test_ground_truth_reconstructs_exactly(self):
        x, truth = generate_synthetic(SyntheticSpec((4, 3, 5), 2, seed=5))
        err = np.linalg.norm(reconstruct(truth).data - x.data) / np.linalg.norm(x.data)
        assert err <= 1e-12

    def test_element_budget(self, monkeypatch):
        monkeypatch.setattr(nncp.tensor_io, "DEFAULT_ELEM_BUDGET", 8)
        with pytest.raises(ValueError, match="budget"):
            generate_synthetic(SyntheticSpec((4, 4), 1, seed=0))
        generate_synthetic(SyntheticSpec((4, 2), 1, seed=0))

    def test_build_peak_stays_near_the_tensor(self):
        # the Khatri-Rao product of all factors would be R = 16 tensors
        tracemalloc.start()
        try:
            x, _ = generate_synthetic(SyntheticSpec((64, 64, 64), 16, seed=0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * x.data.nbytes

    @pytest.mark.parametrize(
        "args, field",
        [
            (((4.5, 4), 2), "dim 1"),
            (((4, 4.0), 2), "dim 2"),
            (((4, 4), 2.0), "rank"),
            (((4, 4), 2, 2.5), "seed"),
        ],
    )
    def test_non_integer_parameters_rejected(self, args, field):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            SyntheticSpec(*args)

    def test_numpy_integers_accepted(self):
        spec = SyntheticSpec((np.int64(4), np.int32(3)), np.int64(2), seed=np.uint64(2))
        a, _ = generate_synthetic(spec)
        b, _ = generate_synthetic(SyntheticSpec((4, 3), 2, seed=2))
        assert np.array_equal(a.data, b.data)

    def test_element_budget_counts_beyond_int64(self):
        with pytest.raises(ValueError, match="budget"):
            generate_synthetic(SyntheticSpec((2**32, 2**32), 1, seed=0))


class TestCli:
    def run(self, tmp_path, *args):
        prefix = tmp_path / "out"
        argv = list(args) + ["--output-prefix", str(prefix)]
        code = run_cli(argv)
        return code, prefix

    def read_csv(self, prefix):
        with open(f"{prefix}_convergence.csv") as fh:
            rows = list(csv.DictReader(fh))
        return rows

    def test_synthetic_bpp_converges(self, tmp_path):
        # seed picks an instance whose 50-iteration error is comfortably
        # below threshold; the seed-to-instance map is generator-specific
        code, prefix = self.run(
            tmp_path,
            "--dims", "8,8,8", "--synthetic-rank", "2", "--rank", "2",
            "--algo", "bpp", "--iters", "50", "--seed", "9",
        )
        assert code == 0
        rows = self.read_csv(prefix)
        assert float(rows[-1]["relerr"]) <= 1e-4

    def test_csv_schema_and_factor_files(self, tmp_path):
        code, prefix = self.run(
            tmp_path,
            "--dims", "6,5,4", "--synthetic-rank", "2", "--rank", "2",
            "--algo", "hals", "--iters", "8", "--seed", "2", "--tol", "0",
        )
        assert code == 0
        rows = self.read_csv(prefix)
        assert list(rows[0].keys()) == list(CSV_FIELDS)
        assert len(rows) == 9  # initial row + 8 iterations
        factors = [read_matrix(f"{prefix}_factors_{n}.bin") for n in (1, 2, 3)]
        lam = np.loadtxt(f"{prefix}_lambda.txt")
        model = FactorSet(factors, np.atleast_1d(lam))
        x, _ = generate_synthetic(SyntheticSpec((6, 5, 4), 2, seed=2))
        direct = np.linalg.norm(x.data - reconstruct(model).data) / np.linalg.norm(x.data)
        assert abs(direct - float(rows[-1]["relerr"])) <= 1e-10

    def test_zero_iterations_single_row(self, tmp_path):
        code, prefix = self.run(
            tmp_path,
            "--dims", "4,4,4", "--synthetic-rank", "2", "--rank", "2", "--iters", "0",
        )
        assert code == 0
        rows = self.read_csv(prefix)
        assert len(rows) == 1
        assert float(rows[0]["relerr"]) > 0

    def test_grid_order_mismatch_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            self.run(
                tmp_path,
                "--dims", "4,4,4", "--synthetic-rank", "2", "--rank", "2",
                "--grid", "2,2",
            )
        assert info.value.code == 2

    def test_input_and_dims_conflict(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            self.run(tmp_path, "--input", "x.bin", "--dims", "4,4", "--rank", "2")
        assert info.value.code == 2

    def test_dims_without_synthetic_rank(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            self.run(tmp_path, "--dims", "4,4", "--rank", "2")
        assert info.value.code == 2

    def test_input_with_synthetic_rank_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            self.run(tmp_path, "--input", "x.bin", "--synthetic-rank", "2", "--rank", "2")
        assert info.value.code == 2
        assert "error: --synthetic-rank only applies to --dims" in capsys.readouterr().err

    def test_grid_of_non_integers_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            self.run(
                tmp_path,
                "--dims", "4,4,4", "--synthetic-rank", "2", "--rank", "2", "--grid", "2,x",
            )
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "argument --grid: expected comma-separated integers, got '2,x'" in err

    def test_missing_input_file_fails_cleanly(self, tmp_path):
        code, _ = self.run(tmp_path, "--input", str(tmp_path / "nope.bin"), "--rank", "2")
        assert code == 1

    @pytest.mark.parametrize("damage", ["magic", "truncated", "mismatch"])
    def test_malformed_input_file_fails_cleanly(self, tmp_path, capsys, damage):
        src = tmp_path / "in.bin"
        write_tensor(src, DenseTensor((2, 2, 2), np.arange(8.0)))
        raw = src.read_bytes()
        if damage == "magic":
            raw = b"XXXX" + raw[4:]
        elif damage == "truncated":
            raw = raw[:-3]
        else:
            raw = raw[:-8]
        src.write_bytes(raw)
        code, _ = self.run(tmp_path, "--input", str(src), "--rank", "2")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"nncp: {src}: ") and "Traceback" not in err

    def test_input_beyond_int64_elements_fails_cleanly(self, tmp_path, capsys):
        src = tmp_path / "huge.bin"
        src.write_bytes(struct.pack("<4sHH", MAGIC, 1, 2) + struct.pack("<2Q", 2**32, 2**32))
        code, _ = self.run(tmp_path, "--input", str(src), "--rank", "2")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"nncp: {src}: header promises ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "dims, rank, message",
        [
            ("5", "2", "order must be at least 2"),
            ("0,3", "2", "must be positive"),
            ("4,4", "0", "must be positive"),
            ("2000,2000,2000", "2", "exceeds the budget"),
        ],
    )
    def test_bad_synthetic_spec_fails_cleanly(self, tmp_path, capsys, dims, rank, message):
        code, _ = self.run(tmp_path, "--dims", dims, "--synthetic-rank", rank, "--rank", "2")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("nncp: ") and message in err
        assert "Traceback" not in err

    def test_unwritable_output_prefix_fails_cleanly(self, tmp_path, capsys):
        prefix = tmp_path / "missing" / "run"
        code = run_cli(["--dims", "4,4,4", "--synthetic-rank", "2", "--rank", "2",
                        "--iters", "1", "--output-prefix", str(prefix)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("nncp: ") and str(prefix.parent) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "source, option, value, message",
        [
            ("file", "--seed", "-1", "seed must be nonnegative"),
            ("synthetic", "--seed", "-1", "seed must be nonnegative"),
            # the generator key holds the seed as one uint64
            ("file", "--seed", str(2**64), "seed must be nonnegative and below 2**64"),
            ("synthetic", "--seed", str(2**64), "seed must be nonnegative and below 2**64"),
            ("file", "--tol", "nan", "tol must be"),
        ],
    )
    def test_bad_seed_or_tol_fails_cleanly(self, tmp_path, capsys, source, option, value, message):
        args = ["--dims", "2,2,2", "--synthetic-rank", "1"]
        if source == "file":
            src = tmp_path / "in.bin"
            write_tensor(src, DenseTensor((2, 2, 2), np.arange(1.0, 9.0)))
            args = ["--input", str(src)]
        code, _ = self.run(tmp_path, *args, "--rank", "2", option, value)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"nncp: {message}") and "Traceback" not in err

    def test_input_file_path(self, tmp_path):
        x, _ = generate_synthetic(SyntheticSpec((5, 4, 3), 2, seed=6))
        src = tmp_path / "in.bin"
        write_tensor(src, x)
        code, prefix = self.run(
            tmp_path, "--input", str(src), "--rank", "2", "--iters", "3", "--tol", "0"
        )
        assert code == 0
        assert len(self.read_csv(prefix)) == 4

    @pytest.mark.parametrize("grid", ["2,2,1", "1,1,1"])
    def test_grid_run_matches_sequential_csv(self, tmp_path, grid):
        args = ["--dims", "6,6,6", "--synthetic-rank", "2", "--rank", "2",
                "--algo", "mu", "--iters", "5", "--seed", "3", "--tol", "0"]
        (tmp_path / "s").mkdir()
        (tmp_path / "p").mkdir()
        code_s, prefix_s = self.run(tmp_path / "s", *args)
        code_p, prefix_p = self.run(tmp_path / "p", *args, "--grid", grid)
        assert code_s == 0 and code_p == 0
        rows_s = self.read_csv(prefix_s)
        rows_p = self.read_csv(prefix_p)
        assert len(rows_s) == len(rows_p) == 6
        for a, b in zip(rows_s, rows_p):
            assert abs(float(a["relerr"]) - float(b["relerr"])) <= 1e-10
        if grid == "1,1,1":
            # the 1-worker grid is the run without --grid, byte for byte
            for col in ("relerr", "words_communicated"):
                assert [r[col] for r in rows_s] == [r[col] for r in rows_p]
            for n in (1, 2, 3):
                name = f"out_factors_{n}.bin"
                assert (tmp_path / "s" / name).read_bytes() == (tmp_path / "p" / name).read_bytes()

    def test_words_column_zero_for_sequential(self, tmp_path):
        code, prefix = self.run(
            tmp_path,
            "--dims", "4,4,4", "--synthetic-rank", "2", "--rank", "2",
            "--iters", "2", "--tol", "0",
        )
        rows = self.read_csv(prefix)
        assert all(int(r["words_communicated"]) == 0 for r in rows)

    def test_parallel_words_column_positive(self, tmp_path):
        code, prefix = self.run(
            tmp_path,
            "--dims", "4,4,4", "--synthetic-rank", "2", "--rank", "2",
            "--iters", "2", "--grid", "2,1,1", "--tol", "0",
        )
        rows = self.read_csv(prefix)
        assert all(int(r["words_communicated"]) > 0 for r in rows)

    def test_csv_relerr_column_is_driver_error_sequence(self, tmp_path):
        from nncp import RunConfig, nncp_sequential

        code, prefix = self.run(
            tmp_path,
            "--dims", "6,5,4", "--synthetic-rank", "2", "--rank", "2",
            "--algo", "bpp", "--iters", "6", "--seed", "4", "--tol", "0",
        )
        assert code == 0
        rows = self.read_csv(prefix)
        x, _ = generate_synthetic(SyntheticSpec((6, 5, 4), 2, seed=4))
        rep = nncp_sequential(x, RunConfig(rank=2, algorithm="bpp", max_iters=6, tol=0.0, seed=4))
        assert [float(r["relerr"]) for r in rows] == rep.errors

    def test_category_columns_cover_iteration_wall_time(self):
        # iteration rows: timed categories account for >= 95% of the row's
        # wall clock; the residual is the 'other' column in the CSV
        from nncp import RunConfig, nncp_sequential

        x, _ = generate_synthetic(SyntheticSpec((48, 48, 48), 8, seed=0))
        rep = nncp_sequential(x, RunConfig(rank=8, algorithm="bpp", max_iters=4, tol=0.0, seed=0))
        for row, wall in zip(rep.rows[1:], rep.row_wall[1:]):
            covered = sum(row.values())
            assert covered <= wall * (1 + 1e-6)
            assert covered >= 0.95 * wall
