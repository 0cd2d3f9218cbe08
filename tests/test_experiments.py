"""Tests for the experiment harness (tables/figures machinery)."""

import pytest

from repro.core.categories import RaceClass
from repro.experiments import metrics, runner
from repro.experiments import table1, table3, table4
from repro.workloads import load_workload


def test_table1_rows_cover_all_workloads():
    rows = table1.run()
    assert len(rows) == 11
    by_name = {row.program: row for row in rows}
    assert by_name["SQLite"].paper_loc == 113_326
    assert by_name["memcached"].forked_threads == 8
    text = table1.render(rows)
    assert "pbzip2" in text and "Paper LoC" in text


def test_table3_and_table4_from_shared_runs():
    runs = [
        runner.analyze_workload(load_workload(name), measure_plain_time=True)
        for name in ("RW", "DCL", "SQLite")
    ]
    rows3 = table3.run(runs=runs)
    assert [row.program for row in rows3] == ["RW", "DCL", "SQLite"]
    assert rows3[2].spec_violated == 1
    assert "Total" in table3.render(rows3)

    rows4 = table4.run(runs=runs)
    assert all(row.avg_classification_seconds >= 0 for row in rows4)
    assert all(row.plain_interpretation_seconds > 0 for row in rows4)
    assert "Avg (s)" in table4.render(rows4)


def test_score_workload_counts_mismatches():
    workload = load_workload("RW")
    run = runner.analyze_workload(workload)
    score = metrics.score_workload(workload, run.result.classified)
    assert score.total == 1
    assert score.accuracy == 1.0

    # Binary scoring treats only spec-violated ground truth as harmful.
    binary = metrics.score_binary_verdicts(workload, [("shared_flag", True)])
    assert binary.total == 1
    assert binary.correct == 0
    assert binary.mismatches


def test_per_class_accuracy_buckets():
    workload = load_workload("SQLite")
    run = runner.analyze_workload(workload)
    buckets = metrics.per_class_accuracy([(workload, run.result.classified)])
    correct, total = buckets[RaceClass.SPEC_VIOLATED]
    assert (correct, total) == (1, 1)


@pytest.mark.parametrize(
    "argv",
    [
        ["table3", "--workloads", "nope"],
        ["table3", "--workloads", "bbuf,nope"],
        ["profile", "nope"],
    ],
)
def test_unknown_workload_names_are_cli_errors(argv, capsys):
    from repro.experiments.__main__ import main

    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unknown workload 'nope'" in err
    assert "choose from SQLite, ocean" in err and "stress_harmful" in err


def test_workload_names_are_case_insensitive_on_the_cli(capsys):
    from repro.experiments.__main__ import main

    assert main(["table3", "--workloads", "BBUF"]) == 0
    assert "bbuf" in capsys.readouterr().out


def test_profile_prints_the_interpreter_counters(capsys):
    from repro.experiments.__main__ import main

    assert main(["profile", "RW", "--profile-top", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("profile: RW (") and lines[0].endswith("s wall)")
    assert lines[2].startswith("  interpreter: statements=")
    assert " spin_steps_skipped=" in lines[2]
