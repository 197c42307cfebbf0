"""DetLint: the tree stays clean, the corpus fires, suppressions hold."""

from pathlib import Path

from repro.analysis.detlint import (
    RULES,
    LintConfig,
    lint_file,
    lint_paths,
    load_config,
    main,
)

_HERE = Path(__file__).parent
_FIXTURES = _HERE / "fixtures"
_REPO = _HERE.parents[1]


def _codes(name, config=None):
    return [f.code for f in lint_file(_FIXTURES / name, config)]


# -- the tree itself ----------------------------------------------------------


def test_src_lints_clean():
    """The enforced contract: zero findings across the whole source tree."""
    config = load_config(root=_REPO)
    findings = lint_paths([str(_REPO / "src")], config)
    assert findings == [], "\n".join(f.render() for f in findings)


# -- the violation corpus -----------------------------------------------------


def test_det001_wall_clock_corpus():
    assert _codes("det001_wall_clock.py") == ["DET001", "DET001", "DET001"]


def test_det001_sampling_allowlist_is_path_scoped():
    """The sampling-profiler allowlist covers exactly its module path.

    The same wall-clock-reading source is clean at
    ``repro/obs/sampling.py`` but fires everywhere else — including a
    copycat fixture shaped like the profiler.
    """
    assert _codes("det001_sampling_scope.py") == ["DET001"] * 3
    source = (_FIXTURES / "det001_sampling_scope.py").read_text()
    config = LintConfig()
    allowed = lint_file(Path("src/repro/obs/sampling.py"), config,
                        source=source)
    assert allowed == []
    elsewhere = lint_file(Path("src/repro/sim/sampling.py"), config,
                          source=source)
    assert [f.code for f in elsewhere] == ["DET001"] * 3


def test_det002_rng_corpus():
    codes = _codes("det002_rng.py")
    assert codes == ["DET002", "DET002"]  # seeded default_rng not flagged


def test_det003_float_eq_corpus():
    assert _codes("det003_float_eq.py") == ["DET003", "DET003"]


def test_det004_set_iteration_corpus():
    assert _codes("det004_set_iter.py") == ["DET004", "DET004"]


def test_det005_unregistered_coroutine_corpus():
    assert _codes("det005_unregistered.py") == ["DET005", "DET005"]


def test_det006_hot_module_slots():
    """DET006 fires only under a hot-module config, and only on the
    class without __slots__."""
    assert _codes("det006_hot.py") == []  # not hot by default
    hot = LintConfig(hot_modules=("fixtures/det006_hot.py",))
    findings = lint_file(_FIXTURES / "det006_hot.py", hot)
    assert [f.code for f in findings] == ["DET006"]
    assert "HotEvent" in findings[0].message


def test_det007_bare_except_corpus():
    assert _codes("det007_bare_except.py") == ["DET007"]


def test_det008_process_identity_corpus():
    # Four violations fire; the suppressed worker-entry pid read does not.
    assert _codes("det008_pid.py") == ["DET008"] * 4


def test_suppressions_silence_everything():
    assert _codes("suppressed_ok.py") == []


def test_every_rule_has_a_hint_and_stable_code():
    assert sorted(RULES) == [f"DET00{i}" for i in range(1, 9)]
    for code, rule in RULES.items():
        assert rule.code == code
        assert rule.hint


# -- config: allowlists -------------------------------------------------------


def test_allowlist_suppresses_by_path_suffix():
    source = "import time\nWALL = time.time()\n"
    config = LintConfig()
    flagged = lint_file(
        Path("src/repro/core/data_plane.py"), config, source=source
    )
    assert [f.code for f in flagged] == ["DET001"]
    allowed = lint_file(
        Path("src/repro/obs/context.py"), config, source=source
    )
    assert allowed == []  # the capture session may read the wall clock


def test_executor_allowlist_covers_worker_entry_points():
    # The worker-process boundary may read the wall clock and its own pid;
    # everywhere else DET008 fires.
    source = "import os, time\nPID = os.getpid()\nT0 = time.time()\n"
    config = LintConfig()
    flagged = lint_file(Path("src/repro/core/data_plane.py"), config,
                        source=source)
    assert sorted(f.code for f in flagged) == ["DET001", "DET008"]
    allowed = lint_file(Path("src/repro/exec/executors.py"), config,
                        source=source)
    assert allowed == []


# -- CLI ----------------------------------------------------------------------


def test_main_exit_codes(capsys):
    assert main([str(_FIXTURES)]) == 1
    out = capsys.readouterr().out
    for code in ("DET001", "DET002", "DET003", "DET004", "DET005", "DET007",
                 "DET008"):
        assert code in out
    assert main([str(_FIXTURES / "suppressed_ok.py")]) == 0
    assert "clean" in capsys.readouterr().out


def test_finding_render_includes_hint():
    findings = lint_file(_FIXTURES / "det001_wall_clock.py")
    rendered = findings[0].render()
    assert "DET001" in rendered and "hint:" in rendered
