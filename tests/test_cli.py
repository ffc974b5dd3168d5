import time
from types import SimpleNamespace

import numpy as np
import pytest

from nsgames import (
    Correlation,
    FiniteChannel,
    NumericError,
    Povm,
    all_win,
    chsh,
    dump_channel,
    dump_correlation,
    dump_game,
    dump_povm,
    load_povm,
    memory_game,
)
from nsgames import games, rand
from nsgames.cli import build_parser, main

from conftest import basis_pvm, pauli_pvm, pr_box, trine_povm, PAULI_X, PAULI_Z


@pytest.fixture
def chsh_file(tmp_path):
    path = tmp_path / "chsh.game"
    path.write_text(dump_game(chsh()))
    return str(path)


class TestValueCommand:
    def test_loc_machine(self, chsh_file, capsys):
        assert main(["value", chsh_file, "--type", "loc", "--format", "machine"]) == 0
        assert capsys.readouterr().out == "value loc 0.75\n"

    def test_ns_machine(self, chsh_file, capsys):
        assert main(["value", chsh_file, "--type", "ns", "--format", "machine"]) == 0
        assert capsys.readouterr().out == "value ns 1.0\n"

    def test_ns_table_certificate(self, chsh_file, capsys):
        # an orbit-averaged optimum need not be a vertex of the polytope
        assert main(["value", chsh_file, "--type", "ns"]) == 0
        out = capsys.readouterr().out
        assert "certificate: optimal no-signalling correlation\n" in out
        assert "vertex" not in out

    def test_qs_machine(self, chsh_file, capsys):
        code = main(["value", chsh_file, "--type", "qs", "--format", "machine",
                     "--seeds", "10", "--sweeps", "100"])
        assert code == 0
        tag, kind, number = capsys.readouterr().out.split()
        assert (tag, kind) == ("value", "qs-lb")
        assert float(number) >= 0.8535

    def test_table_mentions_lower_bound(self, chsh_file, capsys):
        main(["value", chsh_file, "--type", "qs", "--seeds", "4", "--sweeps", "20"])
        out = capsys.readouterr().out
        assert "lower bound" in out

    def test_table_flags_heuristic_beyond_two_outcomes(self, tmp_path, capsys):
        from nsgames import dump_game, random_game
        from nsgames import rand as rand_mod

        path = tmp_path / "wide.game"
        path.write_text(dump_game(random_game((2, 2, 3, 3), rand_mod.generator(4))))
        main(["value", str(path), "--type", "qs", "--seeds", "4", "--sweeps", "20"])
        assert "heuristic" in capsys.readouterr().out

    def test_malformed_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.game"
        path.write_text("this is not a game\n")
        assert main(["value", str(path), "--type", "loc"]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_nan_question_weight_exit_2(self, tmp_path, capsys):
        path = tmp_path / "nan.game"
        path.write_text(dump_game(chsh()).replace("dist 0.25", "dist nan"))
        for kind in ("loc", "ns", "qs"):
            assert main(["value", str(path), "--type", kind]) == 2
            assert "line 1" in capsys.readouterr().err

    def test_missing_file_exit_2(self):
        assert main(["value", "/nonexistent.game", "--type", "loc"]) == 2

    def test_cylinder_file_rejected(self, tmp_path):
        path = tmp_path / "cyl.game"
        path.write_text(dump_game(memory_game(chsh())))
        assert main(["value", str(path), "--type", "loc"]) == 2

    def test_engine_cap_exit_3(self, tmp_path):
        dist = " ".join([repr(1.0 / 12.0)] * 12)
        lines = ["game 12 1 12 1", f"dist {dist}", "win 0 0 0 0"]
        path = tmp_path / "big.game"
        path.write_text("\n".join(lines) + "\n")
        assert main(["value", str(path), "--type", "loc"]) == 3

    @pytest.mark.parametrize("header, argv", [
        ("game 2 2 2 2 window 40", ["sequence", "--mode", "inner", "--type", "loc"]),
        ("game 300 300 300 300", ["value", "--type", "loc"]),
        ("game 2 3 2 2 window 10000000", ["sequence", "--mode", "inner", "--type", "loc"])])
    def test_oversized_game_file_exit_3(self, tmp_path, capsys, header, argv):
        pairs = int(header.split()[1]) * int(header.split()[2])
        path = tmp_path / "huge.game"
        path.write_text(f"{header}\ndist {' '.join([repr(1.0 / pairs)] * pairs)}\n")
        start = time.perf_counter()
        assert main(argv[:1] + [str(path)] + argv[1:]) == 3
        assert time.perf_counter() - start < 0.1
        assert "game file predicate" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, text", [("--d", "100"), ("--seeds", "1000000000")])
    def test_oversized_seesaw_exit_3(self, chsh_file, capsys, flag, text):
        start = time.perf_counter()
        assert main(["value", chsh_file, "--type", "qs", flag, text]) == 3
        assert time.perf_counter() - start < 0.1
        assert "see-saw sweep" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, text", [("--seeds", "0"), ("--seeds", "-2"), ("--d", "0"),
                                            ("--sweeps", "-1"), ("--threads", "0"),
                                            ("--threads", "-3")])
    def test_bad_seesaw_flag_exit_2(self, chsh_file, capsys, flag, text):
        with pytest.raises(SystemExit) as err:
            main(["value", chsh_file, "--type", "qs", flag, text])
        assert err.value.code == 2
        assert f"argument {flag}: must be >=" in capsys.readouterr().err

    def test_unknown_flag_rejected(self, chsh_file):
        with pytest.raises(SystemExit) as err:
            main(["value", chsh_file, "--type", "loc", "--bogus"])
        assert err.value.code == 2

    def test_machine_output_stable(self, chsh_file, capsys):
        main(["value", chsh_file, "--type", "qs", "--format", "machine",
              "--seeds", "6", "--sweeps", "30", "--rng-seed", "7"])
        first = capsys.readouterr().out
        main(["value", chsh_file, "--type", "qs", "--format", "machine",
              "--seeds", "6", "--sweeps", "30", "--rng-seed", "7"])
        assert capsys.readouterr().out == first


class TestSequenceCommand:
    def test_iid_table(self, chsh_file, capsys):
        assert main(["sequence", chsh_file, "--mode", "iid", "--type", "loc",
                     "--n-max", "2"]) == 0
        out = capsys.readouterr().out
        assert "0.750000" in out and "0.790569" in out

    def test_iid_machine(self, chsh_file, capsys):
        main(["sequence", chsh_file, "--mode", "iid", "--type", "loc",
              "--n-max", "2", "--format", "machine"])
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "entry 1 0.75 0.75"
        assert lines[1].startswith("entry 2 0.625 0.7905694150420")

    def test_inner_running_max_column(self, chsh_file, capsys):
        main(["sequence", chsh_file, "--mode", "inner", "--type", "loc",
              "--n-max", "2", "--format", "machine"])
        lines = capsys.readouterr().out.splitlines()
        assert all(len(line.split()) == 5 for line in lines)

    def test_n_max_zero_empty(self, chsh_file, capsys):
        assert main(["sequence", chsh_file, "--mode", "iid", "--type", "loc",
                     "--n-max", "0", "--format", "machine"]) == 0
        assert capsys.readouterr().out == ""

    def test_memory_mode_on_cylinder_rejected(self, tmp_path):
        path = tmp_path / "cyl.game"
        path.write_text(dump_game(memory_game(chsh())))
        assert main(["sequence", str(path), "--mode", "memory",
                     "--type", "loc"]) == 2

    def test_inner_accepts_cylinder_file(self, tmp_path, capsys):
        path = tmp_path / "cyl.game"
        path.write_text(dump_game(memory_game(chsh())))
        assert main(["sequence", str(path), "--mode", "inner", "--type", "loc",
                     "--n-max", "1", "--format", "machine"]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        assert line.startswith("entry 1 1.0")

    def test_truncation_flagged(self, tmp_path, capsys):
        path = tmp_path / "big.game"
        path.write_text(dump_game(chsh()))
        # n = 8 on a binary game: 16^4 predicate entries per stage is fine,
        # so instead use a 6-ary all-win game that trips the enumeration cap
        lines = ["game 6 6 6 6", "dist " + " ".join(["0.027777777777777776"] * 36)]
        lines += [f"win {x} {y} {a} {b}" for x in range(6) for y in range(6)
                  for a in range(6) for b in range(6)]
        path.write_text("\n".join(lines) + "\n")
        main(["sequence", str(path), "--mode", "iid", "--type", "loc",
              "--n-max", "2", "--format", "machine", "--threads", "1"])
        out = capsys.readouterr().out
        assert "truncated 1" in out

    def test_ns_lp_cap_truncates(self, tmp_path, capsys):
        # n = 6: the LP's 6.7e7 columns and rows are over ENTRY_BUDGET, though
        # the predicate's 1.7e7 entries fit and the orbit LP is small (chsh^6,
        # with 1.7e7 columns and rows, is certified)
        path = tmp_path / "unary.game"
        path.write_text(dump_game(all_win(4, 4, 1, 1)))
        assert main(["sequence", str(path), "--mode", "iid", "--type", "ns",
                     "--n-max", "6", "--format", "machine", "--threads", "1"]) == 0
        expected = "".join(f"entry {n} 1.0 1.0\n" for n in range(1, 6)) + "truncated 1\n"
        assert capsys.readouterr().out == expected

    def test_wide_ns_iterate_solves(self, tmp_path, capsys):
        # n = 3 of all_win(2,2,3,3): 15,549 lifted relabelings, solved over product orbits
        path = tmp_path / "wide.game"
        path.write_text(dump_game(all_win(2, 2, 3, 3)))
        assert main(["sequence", str(path), "--mode", "iid", "--type", "ns",
                     "--n-max", "3", "--format", "machine", "--threads", "1"]) == 0
        assert capsys.readouterr().out == "".join(f"entry {n} 1.0 1.0\n" for n in (1, 2, 3))

    def test_unary_game_iterates_past_64_axes(self, tmp_path, capsys):
        path = tmp_path / "one.game"
        path.write_text("game 1 1 1 1\ndist 1.0\nwin 0 0 0 0\n")
        assert main(["sequence", str(path), "--mode", "iid", "--type", "loc",
                     "--n-max", "20", "--format", "machine"]) == 0
        assert capsys.readouterr().out == "".join(f"entry {n} 1.0 1.0\n" for n in range(1, 21))
        path.write_text("game 1 1 1 1 window 20\ndist 1.0\nwin 0 0 0 0\n")
        assert main(["sequence", str(path), "--mode", "inner", "--type", "loc",
                     "--n-max", "1", "--format", "machine"]) == 0
        assert capsys.readouterr().out == "entry 1 1.0 1.0 1.0\n"

    def test_memory_ns_n3_independent_of_threads(self, chsh_file, capsys):
        # n = 3 is an 8,448 x 66,048 NS LP, solved over 3 x 18 orbits
        outputs = []
        for threads in ("1", "2"):
            assert main(["sequence", chsh_file, "--mode", "memory", "--type", "ns", "--n-max",
                         "3", "--format", "machine", "--threads", threads]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == "".join(f"entry {n} 1.0 1.0 1.0\n" for n in (1, 2, 3))

    def test_negative_n_max_exit_2(self, chsh_file, capsys):
        with pytest.raises(SystemExit) as err:
            main(["sequence", chsh_file, "--mode", "iid", "--type", "loc", "--n-max", "-2"])
        assert err.value.code == 2
        assert "argument --n-max: must be >= 0" in capsys.readouterr().err

    def test_ns_output_independent_of_threads(self, chsh_file, capsys):
        # n = 3 is chsh^3, a 960 x 4,096 NS LP
        outputs = []
        start = time.perf_counter()
        for threads in ("1", "2"):
            assert main(["sequence", chsh_file, "--mode", "iid", "--type", "ns", "--n-max", "3",
                         "--format", "machine", "--threads", threads]) == 0
            outputs.append(capsys.readouterr().out)
        assert time.perf_counter() - start < 5.0
        assert outputs[0] == outputs[1] == "entry 1 1.0 1.0\nentry 2 1.0 1.0\nentry 3 1.0 1.0\n"

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_sequence_starts_no_thread(self, chsh_file, capsys, monkeypatch, threads):
        import threading

        def refuse(thread):
            raise AssertionError("a sequence stage started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert main(["sequence", chsh_file, "--mode", "memory", "--type", "loc", "--n-max", "2",
                     "--format", "machine", "--threads", threads]) == 0
        assert capsys.readouterr().out == "entry 1 1.0 1.0 1.0\nentry 2 0.96875 " \
            "0.9842509842514764 1.0\n"

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_rising_values_raise_numeric_error(self, chsh_file, monkeypatch, threads):
        rising = {2: 0.5, 4: 0.75}  # keyed by the stage's nX at n = 1, 2
        monkeypatch.setattr(games, "value",
                            lambda stage, kind, **opts: SimpleNamespace(value=rising[stage.nX]))
        args = build_parser().parse_args(["sequence", chsh_file, "--mode", "iid", "--type",
                                          "loc", "--n-max", "2", "--threads", threads])
        with pytest.raises(NumericError, match="non-increasing"):
            args.func(args)


class TestDilateCommand:
    def test_trine_table(self, tmp_path, capsys):
        path = tmp_path / "trine.povm"
        path.write_text(dump_povm(trine_povm()))
        assert main(["dilate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "K = C^6" in out

    def test_basis_pvm_machine_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "basis.povm"
        path.write_text(dump_povm(basis_pvm(2)))
        assert main(["dilate", str(path), "--format", "machine"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].startswith("dilation naimark K=4")
        residuals = {line.split()[1]: float(line.split()[2])
                     for line in lines[1:5]}
        assert all(v <= 1e-12 for v in residuals.values())
        # the emitted PVM block parses back
        block = "\n".join(lines[5:]) + "\n"
        assert load_povm(block).outcomes == 2

    def test_channel_simultaneous(self, tmp_path, capsys):
        path = tmp_path / "chan.povm"
        channel = FiniteChannel([pauli_pvm(PAULI_Z), pauli_pvm(PAULI_X)])
        path.write_text(dump_channel(channel))
        assert main(["dilate", str(path)]) == 0
        assert "simultaneous" in capsys.readouterr().out

    def test_joint_commuting(self, tmp_path, capsys):
        import numpy as np

        z_big = Povm([np.kron(e, np.eye(2)) for e in pauli_pvm(PAULI_Z).effects])
        x_big = Povm([np.kron(np.eye(2), e) for e in pauli_pvm(PAULI_X).effects])
        p1 = tmp_path / "zi.povm"
        p2 = tmp_path / "ix.povm"
        p1.write_text(dump_povm(z_big))
        p2.write_text(dump_povm(x_big))
        assert main(["dilate", str(p1), "--joint", str(p2),
                     "--format", "machine"]) == 0
        out = capsys.readouterr().out
        cross = [line for line in out.splitlines()
                 if line.startswith("residual cross-commutation")]
        assert cross and float(cross[0].split()[2]) <= 1e-10

    def test_oversized_dilation_exit_3(self, tmp_path, capsys):
        # 64 outcomes on C^8: the dilated PVM lives on C^512, and checking
        # its orthogonality would stack 64^2 products of 512x512 matrices.
        path = tmp_path / "wide.povm"
        path.write_text(dump_povm(Povm(rand.random_povm_effects(8, 64, rand.generator(1)))))
        start = time.perf_counter()
        assert main(["dilate", str(path)]) == 3
        assert time.perf_counter() - start < 0.1
        assert "orthogonality check" in capsys.readouterr().err

    @pytest.mark.parametrize("rows", [0, 100_000])
    def test_oversized_povm_header_exit_3(self, tmp_path, capsys, rows):
        # one 100,000 x 100,000 complex effect would take 149 GiB; the header
        # alone, or with 100,000 one-entry rows (200 KB), is refused
        path = tmp_path / "huge.povm"
        path.write_text("povm dim=100000 outcomes=1\n" + "0\n" * rows)
        start = time.perf_counter()
        assert main(["dilate", str(path)]) == 3
        assert time.perf_counter() - start < 0.1
        assert "povm effects" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        # both effects halved: they sum to I/2
        lambda rows: [row.replace("p+0,", "p-1,") for row in rows],
        # effect 0 becomes [[1, 1/2], [0, 0]]
        lambda rows: rows[:1] + [rows[1].split()[0] + " 0x1p-1,0x0p+0"] + rows[2:]],
        ids=["sum-half-identity", "non-hermitian"])
    def test_invalid_povm_exit_2(self, tmp_path, capsys, edit):
        path = tmp_path / "bad.povm"
        path.write_text("\n".join(edit(dump_povm(basis_pvm(2)).splitlines())) + "\n")
        assert main(["dilate", str(path)]) == 2
        assert "line 1:" in capsys.readouterr().err  # the povm header

    def test_joint_non_commuting_exit_4(self, tmp_path, capsys):
        p1 = tmp_path / "z.povm"
        p2 = tmp_path / "x.povm"
        p1.write_text(dump_povm(pauli_pvm(PAULI_Z)))
        p2.write_text(dump_povm(pauli_pvm(PAULI_X)))
        assert main(["dilate", str(p1), "--joint", str(p2)]) == 4
        assert "commute" in capsys.readouterr().err


class TestCheckCommand:
    def test_membership_lp_over_budget_exit_3(self, tmp_path, capsys):
        path = tmp_path / "wide.corr"
        path.write_text(dump_correlation(Correlation(np.full((11, 11, 2, 2), 0.25))))
        start = time.perf_counter()
        assert main(["check", str(path), "--test", "local"]) == 3
        assert time.perf_counter() - start < 0.1
        assert "over the budget" in capsys.readouterr().err

    def test_pr_ns_pass(self, tmp_path, capsys):
        path = tmp_path / "pr.corr"
        path.write_text(dump_correlation(pr_box()))
        assert main(["check", str(path), "--test", "ns",
                     "--format", "machine"]) == 0
        assert capsys.readouterr().out == "check ns pass 0.0\n"

    def test_pr_local_fail(self, tmp_path, capsys):
        path = tmp_path / "pr.corr"
        path.write_text(dump_correlation(pr_box()))
        assert main(["check", str(path), "--test", "local",
                     "--format", "machine"]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        assert line.startswith("check local fail")
        assert float(line.split()[3]) == pytest.approx(0.125, abs=1e-9)

    def test_failed_membership_lp_exit_1(self, tmp_path, capsys, monkeypatch):
        # an LP the engine cannot solve is an internal defect, not a precondition
        from nsgames import LinearProgram, correlations, simplex_solve

        infeasible = LinearProgram([0.0], a_eq=[[1.0], [1.0]], b_eq=[1.0, 2.0])  # x = 1, x = 2
        monkeypatch.setattr(correlations, "simplex_solve", lambda lp: simplex_solve(infeasible))
        path = tmp_path / "pr.corr"
        path.write_text(dump_correlation(pr_box()))
        assert main(["check", str(path), "--test", "local"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "internal error: HiGHS stopped: Infeasible\n"
        assert captured.out == ""

    def test_parser_keeps_no_state_between_calls(self, tmp_path, capsys):
        path = tmp_path / "pr.corr"
        path.write_text(dump_correlation(pr_box()))
        assert main(["check", str(path), "--test", "local", "--tol", "0.5",
                     "--format", "machine"]) == 0
        assert capsys.readouterr().out.startswith("check local pass")
        assert main(["check", str(path), "--test", "local", "--format", "machine"]) == 0
        assert capsys.readouterr().out.startswith("check local fail")
        assert build_parser() is build_parser()

    def test_product_local_pass_with_weights(self, tmp_path, capsys, rng):
        from nsgames import from_local

        weights = rng.dirichlet(np.ones(2))
        q = [rng.dirichlet(np.ones(2), size=2) for _ in range(2)]
        r = [rng.dirichlet(np.ones(2), size=2) for _ in range(2)]
        path = tmp_path / "local.corr"
        path.write_text(dump_correlation(from_local(weights, q, r)))
        assert main(["check", str(path), "--test", "local",
                     "--format", "machine"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("check local pass")
        total = sum(float(line.rsplit("w=", 1)[1]) for line in lines[1:])
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_local_output_independent_of_threads(self, tmp_path, capsys, rng):
        from nsgames import from_local

        # 3 x 4 x 2 x 2: Alice has 8 maps, Bob 16, so Alice's are enumerated
        q = [rng.dirichlet(np.ones(2), size=3) for _ in range(3)]
        r = [rng.dirichlet(np.ones(2), size=4) for _ in range(3)]
        path = tmp_path / "local.corr"
        path.write_text(dump_correlation(from_local(rng.dirichlet(np.ones(3)), q, r)))
        outputs = []
        for threads in ("1", "2"):
            assert main(["check", str(path), "--test", "local", "--format", "machine",
                         "--threads", threads]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert outputs[0].startswith("check local pass") and outputs[0].count("weight") > 1

    @pytest.mark.parametrize("text", ["-1", "nan", "inf"])
    def test_bad_tol_exit_2(self, tmp_path, capsys, text):
        path = tmp_path / "uniform.corr"
        path.write_text(dump_correlation(Correlation(np.full((2, 2, 2, 2), 0.25))))
        for test in ("ns", "local"):
            with pytest.raises(SystemExit) as err:
                main(["check", str(path), "--test", test, "--tol", text])
            assert err.value.code == 2
            assert "argument --tol: must be >= 0 and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("row", ["0.5 0.5 0.5 0.5", "0.25 nan 0.25 0.25"],
                             ids=["sums-to-2", "nan"])
    def test_invalid_correlation_exit_2(self, tmp_path, capsys, row):
        path = tmp_path / "bad.corr"
        rows = dump_correlation(Correlation(np.full((2, 2, 2, 2), 0.25))).splitlines()
        path.write_text("\n".join(["# a broken correlation"] + rows[:2] + [row] + rows[3:]))
        for test in ("ns", "local"):
            assert main(["check", str(path), "--test", test]) == 2
            assert "line 2:" in capsys.readouterr().err

    def test_parse_error_exit_2(self, tmp_path):
        path = tmp_path / "bad.corr"
        path.write_text("corr 2 2 2 2\nnope\n")
        assert main(["check", str(path), "--test", "ns"]) == 2
