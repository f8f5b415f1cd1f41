import json
import math
import struct
import warnings

import numpy as np
import pytest

from cli_helpers import DATA, GOLDEN, GOLDEN_CASES, run_cli, run_golden_case
from minimax_seq import cli, simulate


def assert_one_line_error(err: bytes, needle: bytes) -> None:
    """stderr is one short validation message naming ``needle``, no traceback."""
    assert err.startswith(b"mseq: validation error: ")
    assert err.count(b"\n") == 1 and err.endswith(b"\n")
    assert len(err) <= 300
    assert needle in err


def explicit_config(tmp_path, values, weights, sigma, q=1.0):
    """Write an explicit-spectrum config; returns its path."""
    doc = {"spectrum": {"kind": "explicit", "values": values},
           "class": {"kind": "explicit", "values": weights, "Q": q},
           "sigma": sigma, "N": len(values)}
    config = tmp_path / "problem.json"
    config.write_text(json.dumps(doc))
    return config


@pytest.mark.parametrize("name", [c[0] for c in GOLDEN_CASES])
def test_golden_output(name, tmp_path):
    code, out = run_golden_case(name, tmp_path)
    assert code == 0
    want = (GOLDEN / f"{name}.golden").read_bytes()
    assert out == want


def test_one_parser_serves_every_command_in_a_process(tmp_path, capsys):
    # a usage error, two --help runs, then a valid jmax, all in-process
    assert cli._build_parser() is cli._build_parser()
    assert cli.run(["jmax"]) == cli.EXIT_USAGE
    assert "the following arguments are required" in capsys.readouterr().err
    helps = []
    for _ in range(2):
        assert cli.run(["--help"]) == cli.EXIT_OK
        helps.append(capsys.readouterr().out)
    assert helps[0] == helps[1]
    assert helps[0].startswith("usage: mseq")
    jmax = {c[0]: c for c in GOLDEN_CASES}["jmax"]
    assert cli.run(jmax[1](tmp_path)) == cli.EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.encode() == (GOLDEN / "jmax.golden").read_bytes()
    assert captured.err == ""


@pytest.mark.parametrize("name", [c[0] for c in GOLDEN_CASES])
def test_repeat_runs_byte_identical(name, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    code1, out1 = run_golden_case(name, tmp_path / "a")
    code2, out2 = run_golden_case(name, tmp_path / "b")
    assert code1 == code2 == 0
    assert out1 == out2


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self):
        code, _, err = run_cli(["optimal", "--config",
                                str(DATA / "power_problem.json"), "--bogus"])
        assert code == 64
        assert b"usage" in err.lower()

    def test_unknown_subcommand_is_usage_error(self):
        code, _, _ = run_cli(["frobnicate"])
        assert code == 64

    def test_no_arguments_is_usage_error(self):
        code, _, _ = run_cli([])
        assert code == 64

    def test_unknown_config_key_is_validation_error(self):
        code, _, err = run_cli(["optimal", "--config",
                                str(DATA / "bad_key_problem.json")])
        assert code == 2
        assert b"unknown keys" in err

    def test_missing_config_is_validation_error(self):
        code, _, _ = run_cli(["optimal", "--config", "/nonexistent.json"])
        assert code == 2

    def test_warnings_are_one_line_each(self):
        code, out, err = run_cli(["optimal", "--config",
                                  str(DATA / "saturating_problem.json")])
        assert code == 3
        assert out == (b'{"sigma":1.0000000000000001e-09,"D_star":7,'
                       b'"upper":0.015625000000004479,"lower":0.0071022727272747627,'
                       b'"j_star":2.0400000000000001e-16,"chain_ok":false}\n')
        lines = err.splitlines()
        assert len(lines) == 2
        assert all(line.startswith(b"mseq: warning: ") for line in lines)

    def test_saturation_exit_code(self):
        code, out, _ = run_cli(["optimal", "--config",
                                str(DATA / "saturating_problem.json")])
        assert code == 3
        doc = json.loads(out)
        assert doc["D_star"] == 7  # N - 1

    def test_bad_grid_is_validation_error(self):
        code, _, _ = run_cli(["sweep", "--regime", "pp", "--p", "1",
                              "--kappa", "2", "--grid", "nope",
                              "--out", "/tmp/x.csv"])
        assert code == 2

    @pytest.mark.parametrize("count", ["0", "-5"])
    def test_bad_direction_count_is_validation_error(self, count):
        code, out, err = run_cli(["jmax", "--config",
                                  str(DATA / "power_problem.json"),
                                  "--directions", count])
        assert (code, out) == (2, b"")
        assert_one_line_error(err, b"direction")

    @pytest.mark.parametrize("flags, needle", [
        (["--seed", "-1"], b"seed must fit in 64 unsigned bits"),
        (["--seed", "100000000000000000000000"], b"seed must fit in 64 unsigned bits"),
        # 100000000000 x 50 directions would ask for 36.4 TiB
        (["--directions", "100000000000"], b"maximum %d values" % (1 << 25)),
    ])
    def test_certificate_draw_out_of_range_is_validation_error(self, flags, needle):
        code, out, err = run_cli(["jmax", "--config",
                                  str(DATA / "power_problem.json"), *flags])
        assert (code, out) == (2, b"")
        assert_one_line_error(err, needle)

    @pytest.mark.parametrize("where, key, value", [
        ("spectrum", "p", None),  # None: the key is removed
        ("spectrum", "p", "x"),
        (None, "sigma", math.inf),
        ("class", "Q", math.inf),
        ("class", "Q", 1e200),  # Q^2 overflows
        (None, "sigma", 1e200),  # sigma^2 overflows
        ("class", "kappa", math.inf),
        ("spectrum", "p", math.inf),
        ("spectrum", "n_max", 1e20),
        ("spectrum", "n_max", 10 ** 20),
        ("spectrum", "n_max", 2 ** 20 + 1),
        ("spectrum", "n_max", 50.9),
        (None, "N", 50.7),
        ("spectrum", "kind", ["power"]),  # not a string, so not a known kind
        ("class", "kind", {"a": 1}),
        # numbers must be JSON numbers, not strings or bools
        (None, "sigma", "1e-2"),
        (None, "sigma", True),
        ("class", "Q", " 1 "),
        ("class", "kappa", "2"),
        ("spectrum", "p", False),
    ])
    def test_bad_config_value_is_validation_error(self, tmp_path, where, key,
                                                  value):
        doc = json.loads((DATA / "power_problem.json").read_text())
        section = doc[where] if where else doc
        if value is None:
            del section[key]
        else:
            section[key] = value
        config = tmp_path / "problem.json"
        config.write_text(json.dumps(doc))  # writes inf as Infinity
        code, out, err = run_cli(["optimal", "--config", str(config)])
        assert (code, out) == (2, b"")
        assert_one_line_error(err, key.encode())

    @pytest.mark.parametrize("values, weights", [
        (["1", 0.5], [1.0, 2.0]),
        ([1.0, 0.5], [1.0, True]),
    ])
    def test_explicit_values_must_be_json_numbers(self, tmp_path, values, weights):
        config = explicit_config(tmp_path, values, weights, 0.1)
        code, out, err = run_cli(["optimal", "--config", str(config)])
        assert (code, out) == (2, b"")
        assert_one_line_error(err, b"each value must be a number")

    def test_overflowing_prefix_sum_reads_as_infinite(self, tmp_path):
        # 1/s_j^2 = 1e308, so the noise sum overflows at D = 2; sigma^2 = 1e-320
        # keeps the noise of D = 1 small enough that the scan gets there
        config = explicit_config(tmp_path, [1e-154] * 4, [1.0, 1e6, 1e9, 1e12],
                                 1e-160)
        code, out, err = run_cli(["optimal", "--config", str(config)])
        assert (code, err) == (0, b"")
        doc = json.loads(out)
        assert (doc["D_star"], doc["chain_ok"]) == (1, True)
        code, out, _ = run_cli(["risk", "--config", str(config), "--d", "1"])
        assert code == 0
        assert doc["upper"] == json.loads(out)["rmse"]

    def test_underflowing_noise_level_is_validation_error(self, tmp_path):
        # sigma^2 underflows to 0, and 1/s_j^2 would overflow the noise sum
        config = explicit_config(tmp_path, [1e-154] * 4, [1e-200] * 4, 1e-300)
        code, out, err = run_cli(["optimal", "--config", str(config)])
        assert (code, out) == (2, b"")
        assert_one_line_error(err, b"sigma squared")

    @pytest.mark.parametrize("command", [["optimal"], ["risk", "--d", "1"]])
    def test_underflowing_weight_squares_are_validation_error(self, tmp_path,
                                                              command):
        # Q^2/a_j^2 would be inf at every level; only the first index is named
        config = explicit_config(tmp_path, [1.0, 0.5, 0.25], [1e-200] * 3, 0.1)
        code, out, err = run_cli([command[0], "--config", str(config),
                                  *command[1:]])
        assert (code, out) == (2, b"")
        assert_one_line_error(err, b"a squared positive (index 1)")
        assert err.count(b"a squared positive") == 1

    def test_overflowing_class_generator_is_one_line(self, tmp_path):
        # exp(10*j) overflows at j = 71, j^400 at j = 6; numpy must not warn
        for kind, kappa, n in (("exponential", 10.0, 100), ("power", 400.0, 10)):
            doc = json.loads((DATA / "power_problem.json").read_text())
            doc["class"] = {"kind": kind, "kappa": kappa, "Q": 1.0}
            doc["spectrum"]["n_max"] = doc["N"] = n
            config = tmp_path / "problem.json"
            config.write_text(json.dumps(doc))
            code, out, err = run_cli(["optimal", "--config", str(config)])
            assert (code, out) == (2, b"")
            assert_one_line_error(err, b"overflows")

    @pytest.mark.parametrize("command", [["jmax"], ["optimal"],
                                         ["risk", "--d", "399"]])
    def test_overflowing_weight_squares_run_cleanly(self, tmp_path, command):
        # a_j = exp(j) is finite for j <= 400, but a_j^2 = inf from j = 355 on
        doc = json.loads((DATA / "power_problem.json").read_text())
        doc["class"] = {"kind": "exponential", "kappa": 1.0, "Q": 1.0}
        doc["spectrum"]["n_max"] = doc["N"] = 400
        config = tmp_path / "problem.json"
        config.write_text(json.dumps(doc))
        code, out, err = run_cli([command[0], "--config", str(config),
                                  *command[1:]])
        assert (code, err) == (0, b"")
        doc = json.loads(out)
        if command[0] == "jmax":
            assert doc["budget_used"] == 1.0
            assert doc["certificate"]["ok"] is True
        elif command[0] == "risk":
            assert doc["bias_sq"] == 0.0

    @pytest.mark.parametrize("values, weights, needle", [
        ([math.inf, 1.0], [1.0, 2.0], b"spectrum finite (index 1): s_1 = inf"),
        ([1.0, 0.5, 0.25], [1.0, math.inf, math.inf],
         b"a finite (index 2): a_2 = inf"),
    ])
    def test_infinite_values_are_validation_error(self, tmp_path, values,
                                                  weights, needle):
        config = explicit_config(tmp_path, values, weights, 0.1)  # Infinity
        code, out, err = run_cli(["optimal", "--config", str(config)])
        assert (code, out) == (2, b"")
        assert_one_line_error(err, needle)

    @pytest.mark.parametrize("command", [["optimal"], ["jmax"],
                                         ["risk", "--d", "399"]],
                             ids=["optimal", "jmax", "risk"])
    def test_noiseless_overflowing_noise_sum_is_zero(self, tmp_path, command):
        # 1/s_j^2 overflows from j = 355 on; with sigma = 0 every cap,
        # variance and spread is 0, so the best level is D = N-1
        doc = {"spectrum": {"kind": "exponential", "p": 1.0, "n_max": 400},
               "class": {"kind": "power", "kappa": 1.0, "Q": 1.0},
               "sigma": 0.0, "N": 400}
        config = tmp_path / "problem.json"
        config.write_text(json.dumps(doc))
        code, out, err = run_cli([command[0], "--config", str(config),
                                  *command[1:]])
        assert b"RuntimeWarning" not in err
        doc = json.loads(out)
        if command[0] == "optimal":
            assert (code, doc["D_star"]) == (3, 399)
        elif command[0] == "jmax":
            assert (code, err, doc["value"]) == (0, b"", 0.0)
            assert doc["certificate"]["ok"] is True
        else:
            assert (code, err, doc["variance"]) == (0, b"", 0.0)

    def test_extreme_explicit_configs_never_warn(self, tmp_path, capsys):
        # spectrum, weights, Q and sigma from 1e-200 to 1e200 (sigma = 0 on
        # about one config in seven), N <= 5, through four commands in-process
        rng = np.random.default_rng(20240817)
        codes = set()
        with warnings.catch_warnings(record=True):  # SaturationWarnings
            warnings.simplefilter("error", RuntimeWarning)
            for _ in range(100):
                n = int(rng.integers(1, 6))
                values = np.sort(10.0 ** rng.uniform(-200, 200, n))[::-1]
                weights = np.sort(10.0 ** rng.uniform(-200, 200, n))
                sigma = 0.0 if rng.random() < 0.15 else 10.0 ** rng.uniform(-200, 200)
                config = explicit_config(tmp_path, values.tolist(), weights.tolist(),
                                         float(sigma), 10.0 ** rng.uniform(-200, 200))
                d = str(rng.integers(0, n))
                for argv in (["optimal"], ["jmax", "--directions", "20"],
                             ["risk", "--d", d],
                             ["simulate", "--d", d, "--reps", "5", "--seed", "1"]):
                    codes.add(cli.run([argv[0], "--config", str(config), *argv[1:]]))
        capsys.readouterr()
        assert codes <= {0, 2, 3}

    def test_overflowing_sums_are_one_line(self, tmp_path, capsys):
        # singular values near 1e-154 make noise terms and caps near 1e308,
        # and weights 1e-162..1e-155 let the water-filling fill them, so the
        # sums of noise terms, of J(r*), of budgets and of squared errors
        # reach the largest double; N <= 5, through four commands in-process
        rng = np.random.default_rng(20261020)
        codes = set()
        for _ in range(60):
            n = int(rng.integers(1, 6))
            values = [10.0 ** rng.uniform(-154.5, -153.5)] * n
            weights = [10.0 ** rng.uniform(-162, -155)] * n
            config = explicit_config(tmp_path, values, weights,
                                     10.0 ** rng.uniform(-1, 1),
                                     10.0 ** rng.uniform(-1, 1))
            d = str(rng.integers(0, n))
            for argv in (["optimal"], ["jmax", "--directions", "20"],
                         ["risk", "--d", d],
                         ["simulate", "--d", d, "--reps", "5", "--seed", "1"]):
                code = cli.run([argv[0], "--config", str(config), *argv[1:]])
                codes.add(code)
                err = capsys.readouterr().err.splitlines()
                assert all(line.startswith("mseq: ") for line in err)
                assert len([e for e in err if "error" in e]) == (code == 2)
        assert codes <= {0, 2, 3}

    @pytest.mark.parametrize("command", ["optimal", "jmax"])
    def test_zero_dimension_is_validation_error(self, tmp_path, command):
        config = explicit_config(tmp_path, [], [], 0.1)
        code, out, err = run_cli([command, "--config", str(config)])
        assert (code, out) == (2, b"")
        assert_one_line_error(err, b"N at least 1")

    @pytest.mark.parametrize("flags, needle", [
        (["--q", "1e200", "--grid", "1e-2:1e-3:5"], b"Q^2"),
        (["--q", "-1", "--grid", "1e-2:1e-3:5"], b"Q > 0"),
        (["--n", "0", "--grid", "1e-2:1e-3:5"], b"at least 1"),
        (["--grid", "1e-100:1e-200:5"], b"sigma^2"),  # sigma^2 underflows
        (["--grid", "abc:1e-3:5"], b"'abc:1e-3:5'"),  # not numbers
        (["--grid", "1e-2:1e-4:x"], b"'1e-2:1e-4:x'"),
        (["--grid", "1e-2:1e-4:2.5"], b"'1e-2:1e-4:2.5'"),
        (["--n", "100000000000000000000", "--grid", "1e-2:1e-3:5"],
         b"N = 100000000000000000000 exceeds the maximum 1048576"),
        # np.logspace warned twice on inf and named nan; a nan HI read as
        # "grid endpoints must differ"
        (["--grid", "inf:1e-4:5"], b"'inf:1e-4:5': LO and HI must be finite"),
        (["--grid", "1e-2:nan:5"], b"'1e-2:nan:5': LO and HI must be finite"),
    ])
    def test_unrepresentable_sweep_input_is_validation_error(self, tmp_path,
                                                             flags, needle):
        code, out, err = run_cli(["sweep", "--regime", "pp", "--p", "1",
                                  "--kappa", "2", *flags,
                                  "--out", str(tmp_path / "s.csv")])
        assert (code, out) == (2, b"")
        assert_one_line_error(err, needle)

    def test_grid_points_beyond_the_maximum_are_validation_error(
            self, tmp_path, monkeypatch, capsys):
        # 99999999999 points would ask np.logspace for about 745 GiB; the
        # count is rejected first, so the grid is never built
        def no_grid(*args, **kwargs):
            raise AssertionError("the grid must not be built")

        monkeypatch.setattr(cli.np, "logspace", no_grid)
        for points in (cli._MAX_GRID_POINTS + 1, 99999999999):
            code = cli.run(["sweep", "--regime", "pp", "--p", "1", "--kappa", "2",
                            "--grid", f"1e-2:1e-4:{points}",
                            "--out", str(tmp_path / "s.csv")])
            out, err = capsys.readouterr()
            assert (code, out) == (2, "")
            assert_one_line_error(err.encode(), f"POINTS = {points}".encode())
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("reps", [(1 << 22) + 1, 10 ** 12])
    def test_replications_beyond_the_maximum_are_validation_error(
            self, monkeypatch, capsys, reps):
        # the count is rejected before anything is drawn
        def no_draw(*args, **kwargs):
            raise AssertionError("nothing may be drawn")

        monkeypatch.setattr(simulate, "sample_observations", no_draw)
        code = cli.run(["simulate", "--config", str(DATA / "power_problem.json"),
                        "--d", "3", "--reps", str(reps), "--seed", "1"])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert_one_line_error(err.encode(), f"replications = {reps} exceeds the "
                                            f"maximum {1 << 22}".encode())

    @pytest.mark.parametrize("n", [2 ** 70, 10 ** 8])
    def test_simulate_checks_the_problem_before_allocating(self, tmp_path, n):
        # N = 2^70 ended in a traceback from np.zeros(N) in least_favorable,
        # and N = 10^8 allocated N doubles before its "N mismatch"
        doc = {"spectrum": {"kind": "power", "p": 1.0, "n_max": 8},
               "class": {"kind": "power", "kappa": 2.0, "Q": 1.0},
               "sigma": 0.1, "N": n}
        config = tmp_path / "problem.json"
        config.write_text(json.dumps(doc))
        code, out, err = run_cli(["simulate", "--config", str(config), "--d", "2",
                                  "--reps", "3", "--seed", "1"])
        assert (code, out) == (2, b"")
        assert_one_line_error(err, f"N mismatch (index None): N = {n}, "
                                   f"spectrum length 8".encode())

    # each value is set in turn at each key of a valid config
    _HOSTILE_VALUES = [0, -1, 1e-320, 1e308, math.inf, math.nan, "x", None, [], {},
                       True, 2 ** 70]

    @pytest.mark.parametrize("where, key", [
        ("spectrum", "p"), ("spectrum", "n_max"), ("class", "kappa"),
        ("class", "Q"), (None, "sigma"), (None, "N")])
    def test_hostile_config_values_end_cleanly(self, tmp_path, capsys, where, key):
        """Every run ends with exit 0, 2, 3 or 64 and no traceback, and a
        non-zero exit ends stderr with one ``mseq:`` line."""
        config = tmp_path / "problem.json"
        faults = []
        for value in self._HOSTILE_VALUES:
            doc = json.loads((DATA / "power_problem.json").read_text())
            (doc[where] if where else doc)[key] = value
            config.write_text(json.dumps(doc))  # writes inf as Infinity
            for argv in (["risk", "--d", "2"], ["optimal"],
                         ["jmax", "--directions", "5"],
                         ["simulate", "--d", "2", "--reps", "3", "--seed", "1"]):
                try:
                    code = cli.run([argv[0], "--config", str(config), *argv[1:]])
                except Exception as exc:  # a traceback, were it run as mseq
                    faults.append((value, argv[0], repr(exc)))
                    continue
                err = capsys.readouterr().err
                ends_in_mseq_line = (err.endswith("\n")
                                     and err.splitlines()[-1].startswith("mseq: "))
                if (code not in (0, 2, 3, 64) or "Traceback" in err
                        or (code and not ends_in_mseq_line)):
                    faults.append((value, argv[0], code, err))
        assert faults == []

    def test_config_that_is_not_utf8_is_validation_error(self, tmp_path):
        config = tmp_path / "problem.json"
        config.write_bytes(b"\xff\xfe" + (DATA / "power_problem.json").read_bytes())
        code, out, err = run_cli(["optimal", "--config", str(config)])
        assert (code, out) == (2, b"")
        assert_one_line_error(err, b"utf-8")

    def test_sweep_csv_that_is_not_ascii_is_validation_error(self, tmp_path):
        path = tmp_path / "sweep.csv"
        path.write_bytes((GOLDEN / "sweep.golden").read_bytes().replace(
            b"regime=pp", b"regime=p\xe9"))
        code, out, err = run_cli(["rates", "--in", str(path)])
        assert (code, out) == (2, b"")
        assert_one_line_error(err, b"not ASCII")

    @pytest.mark.parametrize("flags", [["--p", "inf", "--kappa", "1"],
                                       ["--p", "1", "--kappa", "inf"]])
    def test_non_finite_sweep_exponent_is_validation_error(self, tmp_path, flags):
        code, out, err = run_cli(["sweep", "--regime", "pe", *flags,
                                  "--grid", "1e-2:1e-3:5",
                                  "--out", str(tmp_path / "s.csv")])
        assert (code, out) == (2, b"")
        assert_one_line_error(err, b"finite")

    # the reader accepts only what sweep_csv_text writes
    @pytest.mark.parametrize("old, new, needle", [
        ("p=1", "p=abc", b"'abc'"),
        ("Q=1", "Q=zz", b"'zz'"),
        ("# regime=pp p=1 kappa=2 Q=1\n", "", b"line 2"),
        ("p=1 kappa=2", "kappa=2 p=1", b"line 2"),
        ("kappa=2", "kap=2", b"line 2"),
        ("Q=1", "Q=1 N=64", b"line 2"),
        (" Q=1", "", b"line 2"),
        ("\n0.0031", "\n\n0.0031", b"malformed row ''"),
        ("\n0.0031", "\n# note\n0.0031", b"malformed row '# note'"),
    ], ids=["p-abc", "Q-zz", "no-metadata", "out-of-order", "unknown-key",
            "extra-key", "three-keys", "blank-line", "comment-line"])
    def test_malformed_sweep_csv_is_validation_error(self, tmp_path, old, new,
                                                     needle):
        text = (GOLDEN / "sweep.golden").read_text()
        assert text.count(old) == 1
        path = tmp_path / "sweep.csv"
        path.write_text(text.replace(old, new))
        code, out, err = run_cli(["rates", "--in", str(path)])
        assert (code, out) == (2, b"")
        assert_one_line_error(err, needle)

    def test_non_integer_level_in_sweep_csv_is_validation_error(self, tmp_path):
        lines = (GOLDEN / "sweep.golden").read_text().splitlines()
        fields = lines[3].split(",")
        fields[1] = "4.5"
        lines[3] = ",".join(fields)
        path = tmp_path / "sweep.csv"
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(["rates", "--in", str(path)])
        assert (code, out) == (2, b"")
        assert_one_line_error(err, lines[3].encode())

    def test_oversized_binary_header_is_validation_error(self, tmp_path):
        matrix = tmp_path / "huge.bin"
        matrix.write_bytes(b"MSEQ1" + struct.pack("<II", 2 ** 32 - 1, 2 ** 32 - 1)
                           + bytes(64))
        code, out, err = run_cli(["invert", "--matrix", str(matrix),
                                  "--data", str(DATA / "data8.csv"), "--d", "2"])
        assert (code, out) == (2, b"")
        assert_one_line_error(err, b"truncated payload")

    def test_non_finite_observation_is_validation_error(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text((DATA / "data8.csv").read_text().replace("0,", "nan,", 1))
        code, out, err = run_cli(["invert", "--matrix", str(DATA / "integ8.csv"),
                                  "--data", str(data), "--d", "2"])
        assert (code, out) == (2, b"")
        assert err == b"mseq: validation error: observations must be finite\n"

    @pytest.mark.parametrize("matrix, message", [
        # 1/s_j = 1e320 overflows, so z is non-finite
        ("1e-320,0\n0,1e-320\n", b"observations must be finite"),
        ("", b"matrix must be 2-d and non-empty"),
    ], ids=["overflowing-z", "empty-matrix"])
    def test_invert_input_fault_is_one_line(self, tmp_path, matrix, message):
        (tmp_path / "matrix.csv").write_text(matrix)
        (tmp_path / "data.csv").write_text("1\n2\n")
        code, out, err = run_cli(["invert", "--matrix", str(tmp_path / "matrix.csv"),
                                  "--data", str(tmp_path / "data.csv"), "--d", "1"])
        assert (code, out) == (2, b"")
        assert_one_line_error(err, message)

    def test_overflowing_z_names_the_singular_value(self, tmp_path):
        (tmp_path / "matrix.csv").write_text("1e-320,0\n0,1e-320\n")
        (tmp_path / "data.csv").write_text("1\n2\n")
        code, out, err = run_cli(["invert", "--matrix", str(tmp_path / "matrix.csv"),
                                  "--data", str(tmp_path / "data.csv"), "--d", "1"])
        assert (code, out) == (2, b"")
        assert err == (b"mseq: validation error: observations must be finite: "
                       b"<y, u_1>/s_1 overflows (s_1 = 1e-320)\n")

    @pytest.mark.parametrize("command, needle", [
        (["jmax"], None), (["optimal"], None),
        (["risk", "--d", "399"], b"non-finite"),
        (["simulate", "--d", "380", "--reps", "5", "--seed", "1"], b"D = 380"),
    ], ids=["jmax", "optimal", "risk", "simulate"])
    def test_underflowing_spectrum_squares(self, tmp_path, command, needle):
        # s_j = exp(-j): s_j^2 underflows to 0 from j = 373 on, so the cap
        # sigma^2/s_j^2 and 1/s_j^2 are infinite; noise of about 1e163
        # overflows the squared error of a replication
        doc = json.loads((DATA / "power_problem.json").read_text())
        doc["spectrum"] = {"kind": "exponential", "p": 1.0, "n_max": 400}
        doc["class"]["kappa"] = 1.0
        doc["N"] = 400
        config = tmp_path / "problem.json"
        config.write_text(json.dumps(doc))
        code, out, err = run_cli([command[0], "--config", str(config),
                                  *command[1:]])
        if needle is None:
            assert (code, err) == (0, b"")
        else:
            assert (code, out) == (2, b"")
            assert_one_line_error(err, needle)

    @pytest.mark.parametrize("values, weights, q, command, needle", [
        # closed-form risk 2e298 is finite, but (e - mean)^2 overflows
        ([1.0, 1e-150, 1e-150, 1e-150], [1.0] * 4, 1.0,
         ["simulate", "--d", "3", "--reps", "5", "--seed", "1"], b"D = 3"),
        # the spike Q/a_1 = 1e310 overflows
        ([1.0, 0.5, 0.25], [1e-160, 1.0, 2.0], 1e150,
         ["simulate", "--d", "0", "--reps", "5", "--seed", "1"], b"finite"),
        # 1/s_j^2 = 1e308, so rho^2 overflows at D = 3
        ([1.0, 1e-154, 1e-154, 1e-154], [1.0] * 4, 1.0,
         ["risk", "--d", "3"], b"non-finite"),
        ([1.0, 1e-154, 1e-154, 1e-154], [1.0] * 4, 1.0,
         ["risk", "--d", "3"], b"risk at level D = 3 is non-finite"),
        # Q^2/a_1^2 = 1e300/1e-320 overflows
        ([1.0, 0.5, 0.25], [1e-160, 1.0, 2.0], 1e150,
         ["risk", "--d", "0"], b"risk at level D = 0 is non-finite: bias_sq = inf"),
        # Q^2/a_j^2 overflows at both levels, so the best risk is inf
        ([1.0, 0.5], [1e-160, 1e-155], 1e150,
         ["optimal"], b"upper bound is non-finite"),
        # the same at N = 1, where D* = N-1 would also warn
        ([1.0], [1e-160], 1e150, ["optimal"], b"upper bound is non-finite"),
        # s_j^2 underflows, so the caps, the noise and the bias at D = 0 are inf
        ([1e-160, 1e-160], [1e-150, 1.0], 1e10,
         ["optimal"], b"upper bound is non-finite"),
        # the water-filling pivot 1e20/1e-300 overflows
        ([1e-160, 1e-160], [1e-150, 1.0], 1e10,
         ["jmax"], b"r_star is non-finite at index 1"),
        # every cap 0.01/1e-310 = 1e308 fills, so J(r*) = 3e308 overflows
        ([1e-155] * 3, [1e-160] * 3, 1.0, ["jmax"], b"J(r_star) is non-finite"),
    ], ids=["simulate-variance", "simulate-spike", "risk-noise-sum",
            "risk-noise-sum-level", "risk-bias-level", "optimal-upper-bias",
            "optimal-upper-one-level", "optimal-upper-noise", "jmax-r-star",
            "jmax-value"])
    def test_overflow_is_one_line(self, tmp_path, values, weights, q, command,
                                  needle):
        config = explicit_config(tmp_path, values, weights, 0.1, q)
        code, out, err = run_cli([command[0], "--config", str(config),
                                  *command[1:]])
        assert (code, out) == (2, b"")
        assert_one_line_error(err, needle)


class TestOutputContracts:
    def test_risk_schema(self):
        code, out, _ = run_cli(["risk", "--config",
                                str(DATA / "power_problem.json"), "--d", "2"])
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == ["D", "bias_sq", "variance", "total", "rmse"]
        assert doc["D"] == 2
        assert doc["bias_sq"] == pytest.approx(1.0 / 81.0)  # kappa = 2, a_3 = 9
        assert doc["variance"] == pytest.approx(0.05)
        assert doc["total"] == pytest.approx(doc["bias_sq"] + doc["variance"])

    def test_optimal_reports_certified_interval(self):
        code, out, _ = run_cli(["optimal", "--config",
                                str(DATA / "power_problem.json")])
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == ["sigma", "D_star", "upper", "lower", "j_star",
                             "chain_ok"]
        assert doc["chain_ok"] is True
        assert doc["lower"] == pytest.approx(doc["upper"] / 2.2)

    def test_jmax_certificate_ok(self):
        code, out, _ = run_cli(["jmax", "--config",
                                str(DATA / "power_problem.json"),
                                "--seed", "3", "--directions", "100"])
        assert code == 0
        doc = json.loads(out)
        assert doc["certificate"]["ok"] is True
        assert doc["certificate"]["directions"] == 100
        assert sorted(doc["set_Qeq"]) == sorted(doc["set_P"])

    def test_simulate_noiseless_deviation_zero(self):
        code, out, _ = run_cli(["simulate", "--config",
                                str(DATA / "noiseless_problem.json"),
                                "--d", "4", "--reps", "100", "--seed", "1"])
        assert code == 0
        doc = json.loads(out)
        # the spike tail equals the closed-form bias up to one rounding of
        # (Q/a)^2 versus Q^2/a^2
        assert abs(doc["deviation"]) <= 1e-15 * doc["closed_form"]
        assert doc["estimate"]["stderr"] == 0.0

    def test_simulate_within_three_sigma(self):
        code, out, _ = run_cli(["simulate", "--config",
                                str(DATA / "power_problem.json"),
                                "--d", "3", "--reps", "500", "--seed", "42"])
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["std_errors"]) <= 3.0

    def test_sweep_csv_schema(self, tmp_path):
        out_csv = tmp_path / "s.csv"
        code, _, _ = run_cli(["sweep", "--regime", "pp", "--p", "1",
                              "--kappa", "2", "--grid", "1e-2:1e-4:5",
                              "--out", str(out_csv)])
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "# minimax-seq v1"
        assert lines[1].startswith("# regime=pp ")
        assert lines[2] == ("sigma,d_star,upper,lower,j_star,"
                            "testing_sq,deterministic_sq")
        assert len(lines) == 3 + 5

    def test_rates_reads_metadata_from_csv(self, tmp_path):
        out_csv = tmp_path / "s.csv"
        run_cli(["sweep", "--regime", "ee", "--p", "1", "--kappa", "1",
                 "--grid", "1e-3:1e-7:8", "--out", str(out_csv)])
        code, out, _ = run_cli(["rates", "--in", str(out_csv)])
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == ["regime", "fitted", "theory", "residual", "label"]
        assert doc["regime"] == "ee"
        assert doc["theory"] == pytest.approx(0.5)
        assert doc["label"] == "moderate"

    def test_invert_matches_direct_computation(self, tmp_path):
        import numpy as np
        from minimax_seq import decompose, reconstruct
        from minimax_seq.operators import load_matrix_csv

        out_file = tmp_path / "x.csv"
        code, _, _ = run_cli(["invert", "--matrix", str(DATA / "integ8.csv"),
                              "--data", str(DATA / "data8.csv"), "--d", "5",
                              "--out", str(out_file)])
        assert code == 0
        got = np.array([float(v) for v in out_file.read_text().split()])
        model = decompose(load_matrix_csv(str(DATA / "integ8.csv")))
        y = load_matrix_csv(str(DATA / "data8.csv")).ravel()
        np.testing.assert_allclose(got, reconstruct(y, model, 5), rtol=1e-15)

    def test_sigma_override_flag(self):
        code, out, _ = run_cli(["risk", "--config",
                                str(DATA / "power_problem.json"),
                                "--d", "2", "--sigma", "0.2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["variance"] == pytest.approx(0.04 * 5.0)
