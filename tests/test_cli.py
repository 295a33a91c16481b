"""Config ingestion, suites, report emission, exit codes, determinism."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest
from fractions import Fraction

from ellmotive import barcx, curves, formulas, suites
from ellmotive.cli import main
from ellmotive.config import ConfigError, config_from_dict, default_config, load_config
from ellmotive.cycles import CycleSum, boundary, build_family
from ellmotive.divisors import DegeneracyError
from ellmotive.report import Report, emit_report
from ellmotive.suites import run_suite


GOOD_CONFIG = {
    "curve": {"a1": "0", "a2": "0", "a3": "1", "a4": "-1", "a6": "0", "field": "rational"},
    "functions": [
        {
            "name": "g1",
            "divisor": [
                {"point": ["1", "0"], "coeff": "1"},
                {"point": ["-1", "-1"], "coeff": "1"},
                {"point": ["0", "0"], "coeff": "-1"},
                {"point": ["2", "-3"], "coeff": "-1"},
            ],
        }
    ],
    "mode": "fbar",
    "bounds": {"n_max": 1, "r_max": 1, "random_trials": 3},
    "seed": 11,
}


def write_config(tmp_path, data):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_load_good_config(tmp_path):
    cfg = load_config(write_config(tmp_path, GOOD_CONFIG))
    assert len(cfg.functions) == 1
    assert cfg.seed == 11
    assert cfg.bounds.n_max == 1


def test_off_curve_point_rejected(tmp_path):
    bad = json.loads(json.dumps(GOOD_CONFIG))
    bad["functions"][0]["divisor"][0]["point"] = ["5", "5"]
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path, bad))
    assert "5" in str(err.value)


def test_non_principal_divisor_rejected(tmp_path):
    bad = json.loads(json.dumps(GOOD_CONFIG))
    bad["functions"][0]["divisor"] = [
        {"point": ["0", "0"], "coeff": "1"},
        {"point": ["1", "0"], "coeff": "-1"},
    ]
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path, bad))
    assert "Abel" in str(err.value)


def test_malformed_json_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_infinity_point_parses():
    cfg = config_from_dict(
        {
            "curve": GOOD_CONFIG["curve"],
            "functions": [
                {
                    "name": "h",
                    "divisor": [
                        {"point": ["1", "0"], "coeff": "2"},
                        {"point": ["2", "-3"], "coeff": "-1"},
                        {"point": "inf", "coeff": "-1"},
                    ],
                }
            ],
        }
    )
    assert cfg.functions[0].divisor.degree() == 0


def test_bad_mode_rejected():
    with pytest.raises(ConfigError):
        config_from_dict({"curve": GOOD_CONFIG["curve"], "functions": [], "mode": "weird"})


def test_unknown_suite_exit_code(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["verify", "nonsense"])


def test_cli_exit_codes(tmp_path):
    path = write_config(tmp_path, GOOD_CONFIG)
    out = tmp_path / "report.json"
    code = main(["--config", path, "--out", str(out), "verify", "projectors"])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["summary"]["fail"] == 0
    assert payload["summary"]["flagged"] >= 1  # flags do not fail the run


def test_repeated_function_name_exit_2(tmp_path):
    # descriptors name functions, so two functions may not share a name
    bad = json.loads(json.dumps(GOOD_CONFIG))
    bad["functions"].append(dict(bad["functions"][0]))
    with pytest.raises(ConfigError) as err:
        config_from_dict(bad)
    assert "repeated" in str(err.value)
    assert main(["--config", write_config(tmp_path, bad), "verify", "boundaries"]) == 2


def _edited(edit):
    cfg = json.loads(json.dumps(GOOD_CONFIG))
    edit(cfg)
    return cfg


@pytest.mark.parametrize(
    "bad",
    [
        pytest.param(
            _edited(lambda c: c["functions"][0]["divisor"][0].update(point=["5", "5"])),
            id="off-curve-point",
        ),
        pytest.param(
            _edited(lambda c: c["functions"][0]["divisor"][0].pop("coeff")),
            id="term-without-coeff",
        ),
        pytest.param(
            _edited(lambda c: c["functions"][0]["divisor"][0].update(point=["1", "0", "0"])),
            id="point-not-a-pair",
        ),
        pytest.param(
            _edited(lambda c: c["functions"][0]["divisor"][0].update(coeff="1/2")),
            id="coeff-not-integral",
        ),
        pytest.param(_edited(lambda c: c["bounds"].update(n_max="two")), id="n_max-not-int"),
        pytest.param(_edited(lambda c: c.update(seed="x")), id="seed-not-int"),
        pytest.param(_edited(lambda c: c.update(functions=[5])), id="function-not-object"),
        pytest.param(_edited(lambda c: c.update(functions=5)), id="functions-not-list"),
        pytest.param(_edited(lambda c: c["functions"][0].update(name=["g"])), id="name-not-str"),
        pytest.param(
            _edited(lambda c: c["functions"][0].update(divisor=5)), id="divisor-not-list"
        ),
        pytest.param(_edited(lambda c: c.update(bounds=5)), id="bounds-not-object"),
        pytest.param(_edited(lambda c: c.update(curve=5)), id="curve-not-object"),
        pytest.param(_edited(lambda c: c["curve"].update(a4="1/0")), id="curve-coeff-div-zero"),
        # the default curve has one rational 2-torsion point, fn mode needs three
        pytest.param(_edited(lambda c: c.update(mode="fn")), id="fn-without-full-2-torsion"),
        pytest.param(
            _edited(lambda c: c["bounds"].update(random_trials=-3)), id="trials-negative"
        ),
        pytest.param(_edited(lambda c: c["bounds"].update(random_trials=0)), id="trials-zero"),
        pytest.param(_edited(lambda c: c["bounds"].update(n_max=-1)), id="n_max-negative"),
        pytest.param(_edited(lambda c: c["bounds"].update(n_max=0)), id="n_max-zero"),
        pytest.param(_edited(lambda c: c["bounds"].update(n_max=1.7)), id="n_max-fractional"),
        pytest.param(_edited(lambda c: c["bounds"].update(n_max=True)), id="n_max-bool"),
        pytest.param(_edited(lambda c: c["bounds"].update(r_max=-1)), id="r_max-negative"),
        pytest.param(_edited(lambda c: c.update(seed=True)), id="seed-bool"),
        pytest.param([GOOD_CONFIG], id="top-level-list"),
        pytest.param(
            _edited(lambda c: c["curve"].update(field=f"prime:{10**24 + 7}")),
            id="modulus-too-large",
        ),
    ],
)
def test_cli_bad_config_exit_2(tmp_path, capsys, bad):
    code = main(["--config", write_config(tmp_path, bad), "verify", "projectors"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "edit, key",
    [
        (lambda c: c["bounds"].update(n_max=1.7), "n_max"),
        (lambda c: c["bounds"].update(r_max=False), "r_max"),
        (lambda c: c["bounds"].update(random_trials=-3), "random_trials"),
        (lambda c: c.update(seed=True), "seed"),
        (
            lambda c: c["functions"][0]["divisor"][0].update(coeff="1/2"),
            "principality requires integer coefficients",
        ),
    ],
    ids=("n_max", "r_max", "random_trials", "seed", "divisor-coeff"),
)
def test_bad_integer_names_its_key(edit, key):
    with pytest.raises(ConfigError, match=key):
        config_from_dict(_edited(edit))


@pytest.mark.parametrize(
    "paths, words",
    [
        (lambda d: ["--config", str(d / "missing.json")], "cannot read config"),
        (
            lambda d: ["--config", write_config(d, GOOD_CONFIG), "--out", str(d / "no" / "r.json")],
            "cannot write report",
        ),
    ],
    ids=("missing-config", "out-in-missing-directory"),
)
def test_unreadable_input_or_unwritable_output_exit_2(tmp_path, capsys, paths, words):
    code = main(paths(tmp_path) + ["verify", "divisors"])
    err = capsys.readouterr().err
    assert code == 2
    assert words in err and "Traceback" not in err


def _run_cli(tmp_path, config, *args, timeout=60):
    """The CLI in a fresh process on a config dict."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "ellmotive.cli", "--config", write_config(tmp_path, config)]
    return subprocess.run(cmd + list(args), env=env, capture_output=True, timeout=timeout)


def test_large_prime_modulus_runs(tmp_path):
    # a 61-bit modulus is checked prime at once, not by trial division
    big = {"curve": {"a4": "1", "a6": "1", "field": f"prime:{2**61 - 1}"}, "functions": []}
    proc = _run_cli(tmp_path, big, "verify", "divisors")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["summary"]["fail"] == 0


@pytest.mark.parametrize(
    "curve",
    [
        {"a4": "1", "a6": "1", "field": f"prime:{2**61 - 1}"},
        {"a4": "-1", "a6": str(10**36 + 1), "field": "rational"},
    ],
    ids=("F_(2^61-1)", "Q-large-a6"),
)
def test_fn_mode_on_large_coefficients_loads_at_once(tmp_path, curve):
    # the fn-mode check for full 2-torsion finds the roots of the 2-division
    # cubic without a scan of F_p or a trial division of its constant term
    config = {"curve": curve, "functions": [], "mode": "fn"}
    proc = _run_cli(tmp_path, config, "verify", "divisors", timeout=10)
    assert proc.returncode in (0, 2), proc.stderr
    assert b"Traceback" not in proc.stderr


def test_integral_bounds_are_accepted():
    cfg = config_from_dict(_edited(lambda c: c["bounds"].update(n_max=2.0, r_max="0")))
    assert (cfg.bounds.n_max, cfg.bounds.r_max) == (2, 0)


def test_report_roundtrip_and_determinism(tmp_path):
    cfg = load_config(write_config(tmp_path, GOOD_CONFIG))
    rep1 = run_suite(cfg, "projectors")
    rep2 = run_suite(cfg, "projectors")
    b1 = emit_report(rep1, "json")
    b2 = emit_report(rep2, "json")
    assert b1 == b2  # identical config + seed => identical bytes
    parsed = json.loads(b1)
    assert parsed == rep1.to_dict() or parsed["summary"] == rep1.summary()
    text = emit_report(rep1, "text")
    assert "projectors:quasi-idempotency" in text


def test_divisors_suite_has_flagged_records(tmp_path):
    cfg = load_config(write_config(tmp_path, GOOD_CONFIG))
    rep = run_suite(cfg, "divisors")
    flagged = [r for r in rep.records if r.status == "flagged"]
    assert any("fn-discrepancy" in r.id for r in flagged)
    assert not rep.failed


def test_boundaries_suite_isolates_degenerate_checks(tmp_path, monkeypatch):
    # one degenerate family fails its own dd record and the formula records
    # that materialize it, not the rest
    cfg = load_config(write_config(tmp_path, GOOD_CONFIG))
    degenerate = ("eta", tuple(formulas._decoration_points(cfg.functions, 1)), ("g1",))
    real = formulas.FamilyContext.materialize

    def materialize(self, desc):
        if desc == degenerate:
            raise DegeneracyError("forced")
        return real(self, desc)

    monkeypatch.setattr(formulas.FamilyContext, "materialize", materialize)
    status = {r.id: r.status for r in run_suite(cfg, "boundaries").records}
    # the decorated X family at r = 1 is forced degenerate: its dd check and
    # the r = 1 formulas, which expand it, fail
    assert status["boundaries:ddX:n=1,r=1"] == "fail"
    assert status["boundaries:formulas:n=1,r=1"] == "fail"
    assert status["boundaries:ddX:n=1,r=0"] == "pass"
    assert status["boundaries:ddY:n=1"] == "pass"
    assert status["boundaries:ddZ:n=1"] == "pass"
    assert status["boundaries:eta-formula:n=1,r=0"] == "pass"
    failed = {i for i, st in status.items() if st == "fail"}
    assert failed == {"boundaries:ddX:n=1,r=1", "boundaries:formulas:n=1,r=1"}
    assert not any(i.endswith(":aborted") for i in status)


def test_boundaries_suite_builds_one_context_per_tuple(monkeypatch):
    # each function tuple g1..gn gets one context, shared by its dd and
    # formula checks at every r
    from ellmotive import formulas

    cfg = config_from_dict(_workloads().make("boundaries-q-n3", 0).config)
    built = []
    real_init = formulas.FamilyContext.__init__

    def init(self, curve, gs, mode="fbar"):
        built.append(tuple(g.name for g in gs))
        real_init(self, curve, gs, mode)

    monkeypatch.setattr(formulas.FamilyContext, "__init__", init)
    rep = run_suite(cfg, "boundaries")
    assert not rep.failed
    n_max = min(cfg.bounds.n_max, len(cfg.functions))
    assert built == [("g1",), ("g1", "g2"), ("g1", "g2", "g3")][:n_max]


def test_boundaries_suite_checks_each_tuple_once(monkeypatch):
    # the suite checks the whole tuple for its admissibility record, and each
    # context checks its own tuple once; no family build checks again
    from ellmotive import cycles, formulas

    cfg = config_from_dict(_workloads().make("boundaries-q-n3", 0).config)
    calls, contexts = [], []
    real_check, real_init = cycles.check_admissible, formulas.FamilyContext.__init__

    def check(gs):
        calls.append(tuple(g.name for g in gs))
        return real_check(gs)

    def init(self, curve, gs, mode="fbar"):
        contexts.append(tuple(g.name for g in gs))
        real_init(self, curve, gs, mode)

    monkeypatch.setattr(cycles, "check_admissible", check)
    monkeypatch.setattr(formulas, "check_admissible", check, raising=False)
    monkeypatch.setattr(formulas.FamilyContext, "__init__", init)
    rep = run_suite(cfg, "boundaries")
    assert not rep.failed
    assert len(calls) == 1 + len(contexts)
    assert calls[1:] == contexts


def test_boundary_formulas_fill_the_given_context():
    from ellmotive.fixtures import standard_functions
    from ellmotive.formulas import FamilyContext, verify_boundary_formulas
    from reference import fixed_points, formulas_pass

    curve, gs = standard_functions(2)
    a, b = fixed_points(2)
    ctx = FamilyContext(curve, gs)
    assert formulas_pass(verify_boundary_formulas(ctx, (a, b)))
    names = ctx.names
    for desc in (
        ("eta", (a, b), names),
        ("mu", a, names),
        ("nu", 1, a, b, names),
        ("kill", ("mu", a, names)),
        ("kill", ("nu", 1, a, b, names)),
    ):
        assert desc in ctx._cache, desc


def test_boundaries_kill_records_certify_the_suite_families(monkeypatch):
    # at every (n, r) of the default config, the mu-killer and nu-killer
    # records certify the very mu and nu families that the mu-formula and
    # nu-formula records of that (n, r) check: each kill cycle's first row
    # is its family, and that row received a scalar
    from ellmotive import formulas

    calls = []  # (context, r, report) of each verify_boundary_formulas call
    real = formulas.verify_boundary_formulas

    def verify(ctx, fixed=()):
        calls.append((ctx, len(fixed), real(ctx, fixed)))
        return calls[-1][2]

    monkeypatch.setattr(formulas, "verify_boundary_formulas", verify)
    status = {r.id: r.status for r in run_suite(default_config(), "boundaries").records}
    assert [(len(ctx.names), r) for ctx, r, _ in calls] == [
        (n, r) for n in (1, 2) for r in (0, 1, 2)
    ]
    for ctx, r, rep in calls:
        n = len(ctx.names)
        for family, checked in (("mu-killer", rep.mu), ("nu-killer", rep.nu)):
            d = next(desc for desc, k in ctx._reports.items() if k is checked)
            k = rep.killers[family]
            assert k is formulas.verify_expansion(ctx, ("kill", d)), (family, n, r)
            rows = [factors for *_, factors in ctx.expansions(("kill", d))]
            assert rows[0] == (d,) and k.instances[0].scalar is not None, (family, n, r)
            assert formulas.certifies(k)
            assert status[f"boundaries:{family}:n={n},r={r}"] == "pass"


def _workloads():
    """The benchmark's workload module, loaded by path (it is not a package)."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.path.join(root, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks the module up by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.mark.parametrize("p, found", [(19, 1), (11, 0)])
def test_boundaries_suite_reports_too_few_decoration_points(tmp_path, p, found):
    # r_max = 2, but the picker finds fewer points: one fail record names the
    # shortfall, no record claims an r above what was found, and the default
    # constant's picker failing at n = 2, r = 0 fails that (n, r) alone
    w = _workloads()
    config = tmp_path / "short.json"
    config.write_text(json.dumps(w._config(f"prime:{p}", w._Field(p), 2, 2, 0)))
    out = tmp_path / "report.json"
    assert main(["--config", str(config), "--out", str(out), "verify", "boundaries"]) == 1
    records = {r["id"]: r for r in json.loads(out.read_text())["records"]}
    cfg = load_config(str(config))
    assert len(formulas._decoration_points(cfg.functions, cfg.bounds.r_max + 1)) == found
    assert records["boundaries:decoration-points"]["status"] == "fail"
    assert f"{found} found, 2 needed" in records["boundaries:decoration-points"]["details"]
    assert not [i for i in records if i.endswith(":aborted")]
    rs = [int(i.rsplit("r=", 1)[1]) for i in records if ",r=" in i]
    assert max(rs) == found
    assert ("boundaries:ddY:n=1" in records) == (found > 0)
    assert "ValueError" in records["boundaries:formulas:n=2,r=0"]["details"]


# y^2 + y = x^3 - x over F_17, two functions on multiples of P = (0, 0);
# g2 passes through (6, 14), a point of order 3
F17_CONFIG = {
    "curve": {"a1": "0", "a2": "0", "a3": "1", "a4": "-1", "a6": "0", "field": "prime:17"},
    "functions": [
        {
            "name": "g1",
            "divisor": [
                {"point": ["1", "0"], "coeff": "1"},
                {"point": ["16", "16"], "coeff": "1"},
                {"point": ["0", "0"], "coeff": "-1"},
                {"point": ["2", "14"], "coeff": "-1"},
            ],
        },
        {
            "name": "g2",
            "divisor": [
                {"point": ["13", "10"], "coeff": "1"},
                {"point": ["9", "14"], "coeff": "1"},
                {"point": ["6", "14"], "coeff": "-1"},
                {"point": ["7", "11"], "coeff": "-1"},
            ],
        },
    ],
    "mode": "fbar",
    "bounds": {"n_max": 2, "r_max": 2, "random_trials": 20},
    "seed": 0,
}


def test_small_torsion_support_point_is_inadmissible(tmp_path):
    # the eta rows decorate X by every support point, and a decoration point
    # must not be 2- or 3-torsion: the admissibility record fails and names
    # the point, and no later record meets it
    out = tmp_path / "report.json"
    argv = ["--config", write_config(tmp_path, F17_CONFIG), "--out", str(out)]
    assert main([*argv, "verify", "boundaries"]) == 1
    records = json.loads(out.read_text())["records"]
    assert [(r["id"], r["status"]) for r in records] == [("boundaries:admissible", "fail")]
    assert records[0]["details"] == ["support of g2 meets excluded points (6,14)"]


@pytest.mark.parametrize("mode", ["fbar", "fn"])
def test_small_torsion_support_point_is_inadmissible_in_both_modes(mode):
    from ellmotive.cycles import AdmissibilityError
    from ellmotive.formulas import FamilyContext

    cfg = config_from_dict(F17_CONFIG)
    with pytest.raises(AdmissibilityError, match=r"excluded points \(6,14\)"):
        FamilyContext(cfg.curve, cfg.functions, mode)


# the F_p workload's curve and blocks over F_23: g2 passes through
# (2, 2) = -(2, 20) and (22, 0) = -(22, 22), both on g1
F23_CONFIG = dict(
    F17_CONFIG,
    curve=dict(F17_CONFIG["curve"], field="prime:23"),
    functions=[
        {
            "name": "g1",
            "divisor": [
                {"point": ["1", "0"], "coeff": "1"},
                {"point": ["22", "22"], "coeff": "1"},
                {"point": ["0", "0"], "coeff": "-1"},
                {"point": ["2", "20"], "coeff": "-1"},
            ],
        },
        {
            "name": "g2",
            "divisor": [
                {"point": ["6", "8"], "coeff": "1"},
                {"point": ["22", "0"], "coeff": "1"},
                {"point": ["6", "14"], "coeff": "-1"},
                {"point": ["2", "2"], "coeff": "-1"},
            ],
        },
    ],
)


def test_supports_meeting_up_to_sign_are_inadmissible(tmp_path):
    # the eta rows decorate X by the support points of g1, which must lie off
    # the support of g2 up to sign: the admissibility record fails and names
    # them, and no later record meets them
    out = tmp_path / "report.json"
    argv = ["--config", write_config(tmp_path, F23_CONFIG), "--out", str(out)]
    assert main([*argv, "verify", "boundaries"]) == 1
    records = json.loads(out.read_text())["records"]
    assert [(r["id"], r["status"]) for r in records] == [("boundaries:admissible", "fail")]
    assert records[0]["details"] == [
        "support of g1 meets the support of g2 up to sign at (2,20), (22,22)"
    ]


def test_admissible_tuples_never_trip_a_family_check():
    # every family of an admissible tuple places its points by the rule that
    # admitted the tuple; "no constant" is the picker's own failure
    from ellmotive.cycles import AdmissibilityError, check_admissible
    from ellmotive.formulas import FamilyContext, verify_boundary_formulas

    w = _workloads()
    admissible = []
    for p in range(11, 401):
        if not w._is_prime(p) or w.DISCRIMINANT % p == 0:
            continue
        cfg = config_from_dict(w._config(f"prime:{p}", w._Field(p), 2, 2, 0))
        if check_admissible(cfg.functions):
            continue
        admissible.append(p)
        try:
            verify_boundary_formulas(FamilyContext(cfg.curve, cfg.functions))
        except AdmissibilityError as exc:
            pytest.fail(f"p = {p}: {exc!r}")
        except ValueError as exc:
            assert "no admissible decoration constant" in str(exc), p
    assert len(admissible) == 65 and 23 not in admissible
    assert config_from_dict(w._config("prime:23", w._Field(23), 2, 2, 0)).functions == (
        config_from_dict(F23_CONFIG).functions
    )


@pytest.mark.parametrize("command", [["verify", "boundaries"], ["report"]])
def test_config_without_functions_passes(tmp_path, command):
    # no tuple is checked, so no record needs a decoration point
    config = tmp_path / "empty.json"
    config.write_text(json.dumps(dict(GOOD_CONFIG, functions=[])))
    out = tmp_path / "report.json"
    assert main(["--config", str(config), "--out", str(out), *command]) == 0
    records = json.loads(out.read_text())["records"]
    assert [r["id"] for r in records if r["id"].startswith("boundaries:")] == [
        "boundaries:admissible"
    ]


def test_bar_suite_honours_n_max_and_isolates_failures(monkeypatch):
    # three functions with n_max = 3: every n gets its own record
    cfg = config_from_dict(_workloads().make("boundaries-q-n3", 0).config)
    assert cfg.bounds.n_max == 3 and len(cfg.functions) == 3

    def broken(curve, gs, fixed=(), mode="fbar"):
        if len(gs) == 2:
            raise DegeneracyError("forced")
        raise barcx.ChainConstructionError("forced")

    monkeypatch.setattr(barcx, "build_motive_chain", broken)
    status = {r.id: r.status for r in run_suite(cfg, "bar").records}
    assert status == {
        "bar:chain:n=1": "fail",
        "bar:chain:n=2": "fail",
        "bar:chain:n=3": "fail",
        "bar:ext-witness": "pass",
    }


@pytest.mark.parametrize(
    "check, rid",
    [
        ("kill_certificates", "kill-certificates"),
        ("comultiply_report", "comultiply"),
        ("comodule_span", "comodule-span"),
        ("nontriviality_witness", "nontriviality"),
    ],
)
def test_bar_check_errors_become_their_own_fail_record(monkeypatch, check, rid):
    # a chain error after the chain is built fails that check alone, and the
    # other checks of that n and the other n still run
    cfg = config_from_dict(FN_CONFIG)  # two functions, n_max = 2
    real = getattr(barcx, check)
    calls = []

    def broken(arg):
        calls.append(arg)
        if len(calls) == 1:
            raise DegeneracyError("forced")
        return real(arg)

    monkeypatch.setattr(barcx, check, broken)
    records = {r.id: r for r in run_suite(cfg, "bar").records}
    failed = {i for i, r in records.items() if r.status == "fail"}
    assert failed == {f"bar:{rid}:n=1"}
    assert records[f"bar:{rid}:n=1"].details == repr(DegeneracyError("forced"))
    assert records[f"bar:{rid}:n=2"].status == "pass"
    assert {f"bar:leading-alone:n={n}" for n in (1, 2)} <= set(records)
    assert not any(i.endswith(":aborted") for i in records)


def test_inadmissible_tuple_fails_its_own_chain_record(tmp_path):
    # g2 repeats g1's divisor: the pair (g1, g2) is inadmissible, g1 alone is not
    data = _edited(lambda c: c["bounds"].update(n_max=2))
    data["functions"].append(dict(data["functions"][0], name="g2"))
    records = {r.id: r for r in run_suite(config_from_dict(data), "bar").records}
    assert {i for i, r in records.items() if r.status == "fail"} == {"bar:chain:n=2"}
    assert "AdmissibilityError" in records["bar:chain:n=2"].details
    assert records["bar:cocycle:n=1"].status == "pass" and "bar:ext-witness" in records
    assert not any(i.endswith(":aborted") for i in records)
    # the same input is invalid for build-motive
    path = write_config(tmp_path, data)
    out = str(tmp_path / "m.json")
    assert main(["--config", path, "--out", out, "build-motive", "--n", "2"]) == 2


def test_build_motive_computes_no_kill_certificates(tmp_path, monkeypatch):
    # the certificates belong to the bar suite's check, never to the build
    def broken(mc):
        raise RuntimeError("kill certificates computed")

    monkeypatch.setattr(barcx, "kill_certificates", broken)
    cfg = config_from_dict(FN_CONFIG)
    assert barcx.build_motive_chain(cfg.curve, cfg.functions, mode=cfg.mode).chain
    path = write_config(tmp_path, FN_CONFIG)
    out = str(tmp_path / "m.json")
    assert main(["--config", path, "--out", out, "build-motive", "--n", "2"]) == 0


def test_failed_mu_record_names_its_unmatched_instances():
    cfg = config_from_dict(_workloads().fp_config(0, p=10007))
    records = run_suite(cfg, "boundaries").records
    mu = [r for r in records if r.id.startswith("boundaries:mu-formula:")]
    (bad,) = [r for r in mu if r.status == "fail"]
    assert bad.id == "boundaries:mu-formula:n=1,r=0"
    assert bad.details == {
        "no_scalar": [["mu-lower", "g1:(10006,10006)"], ["mu-lower", "g1:(2,10004)"]],
        "unmatched_terms": 0,
    }
    # passing records keep their bytes
    assert len(mu) > 1 and all(r.details is None for r in mu if r is not bad)


# sha256 of two seed-0 reports on the F_10007 config of the motive-fp-n2
# workload.  `verify boundaries` is the only report that reaches the matcher's
# failure edge (its first-key scalar and its unmatched order): it fails
# boundaries:mu-formula:n=1,r=0, a known defect whose fix must move this hash.
# That record's details name the two mu-lower instances that got no scalar.
FP_REPORTS = [
    pytest.param(
        ("build-motive", "--n", "2"),
        0,
        "136543c36f9b56d8dc24da60271891bf52855236562650d7e5f1a99606a091dc",
        id="build-motive",
    ),
    pytest.param(
        ("verify", "boundaries"),
        1,
        "bdfc038106e938656d93e00c0e47b2cd2e9ff6895c0a257b675a2c515e0de2db",
        id="verify-boundaries",
    ),
    pytest.param(
        ("verify", "bar"),
        0,
        "ae215b4f38cf4fbf3086140313dd9b8b733b954c7c2233948237510419ac9da9",
        id="verify-bar",
    ),
]


@pytest.mark.parametrize("command, code, sha256", FP_REPORTS)
def test_fp_reports_are_byte_stable(tmp_path, command, code, sha256):
    config = tmp_path / "fp.json"
    config.write_text(json.dumps(_workloads().fp_config(0, p=10007)))
    out = tmp_path / "report.json"
    assert main(["--config", str(config), "--out", str(out), *command]) == code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


def test_boundaries_q_n3_report_is_byte_stable(tmp_path):
    config = tmp_path / "q3.json"
    config.write_text(json.dumps(_workloads().make("boundaries-q-n3", 0).config))
    out = tmp_path / "report.json"
    assert main(["--config", str(config), "--out", str(out), "verify", "boundaries"]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "613d31083dbf369e4b9b96e7e35e5d4dd89d689326b38e837809d0a35addfca9"


def test_default_text_report_is_byte_stable(tmp_path):
    out = tmp_path / "report.txt"
    assert main(["--format", "text", "--out", str(out), "report"]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "6bf6348a54b57b4d1b4020468e8355abedcdf3763fb79a42cc5cb8baa3da1b2c"


def test_raising_runner_becomes_an_aborted_record(tmp_path, monkeypatch):
    # an internal error in a suite is a fail record named after its runner,
    # not a crash
    def _suite_projectors(cfg, report):
        raise RuntimeError("forced")

    monkeypatch.setattr(suites, "_suite_projectors", _suite_projectors)
    out = tmp_path / "r.json"
    assert main(["--out", str(out), "verify", "projectors"]) == 1
    (record,) = json.loads(out.read_text())["records"]
    assert record["id"] == "_suite_projectors:aborted"
    assert record["status"] == "fail"
    assert record["details"] == repr(RuntimeError("forced"))


def test_exit_one_on_failure():
    report = Report({})
    report.add("x", "anchor", False, "broken")
    assert report.failed
    assert report.summary()["fail"] == 1


def test_build_motive_command(tmp_path):
    path = write_config(tmp_path, GOOD_CONFIG)
    out = tmp_path / "motive.json"
    code = main(["--config", path, "--out", str(out), "build-motive", "--n", "1"])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["summary"]["fail"] == 0


# y^2 = x(x-2)(x-5) over F_101 with P = (99, 67) of order 58:
# g1 = (2P) + (3P) - (P) - (4P), g2 = (5P) + (8P) - (6P) - (7P)
FN_CONFIG = {
    "curve": {"a1": "0", "a2": "-7", "a3": "0", "a4": "10", "a6": "0", "field": "prime:101"},
    "functions": [
        {
            "name": "g1",
            "divisor": [
                {"point": ["81", "98"], "coeff": "1"},
                {"point": ["94", "31"], "coeff": "1"},
                {"point": ["99", "67"], "coeff": "-1"},
                {"point": ["84", "41"], "coeff": "-1"},
            ],
        },
        {
            "name": "g2",
            "divisor": [
                {"point": ["51", "97"], "coeff": "1"},
                {"point": ["97", "84"], "coeff": "1"},
                {"point": ["1", "99"], "coeff": "-1"},
                {"point": ["32", "8"], "coeff": "-1"},
            ],
        },
    ],
    "mode": "fn",
    "bounds": {"n_max": 2, "r_max": 1, "random_trials": 3},
    "seed": 0,
}


@pytest.mark.parametrize(
    "command", [["verify", "boundaries"], ["verify", "bar"], ["build-motive", "--n", "2"]]
)
def test_fn_mode_commands_pass(tmp_path, command):
    # fn mode builds h_n on the first two points of the full 2-torsion
    out = tmp_path / "report.json"
    code = main(["--config", write_config(tmp_path, FN_CONFIG), "--out", str(out), *command])
    payload = json.loads(out.read_text())
    assert code == 0, payload["records"]
    assert payload["summary"]["fail"] == 0
    assert payload["summary"]["pass"] > 0
    assert not any("aborted" in r["id"] for r in payload["records"])


# sha256 of `verify all` on FN_CONFIG: the one pinned report whose faces
# come from fn-mode (F_n) divisors
FN_REPORT_SHA256 = "fb2bfd2ea780c90abc68304ad867b5965b636b390334d6420627f0e25a447279"


def test_fn_mode_report_is_byte_stable(tmp_path, monkeypatch):
    # every fn-mode family builds h_n on the full 2-torsion, which a curve
    # finds once, the config check included
    solved = []
    real = curves._two_torsion_cubic

    def counted(curve):
        solved.append(curve)  # kept alive, so ids stay distinct
        return real(curve)

    monkeypatch.setattr(curves, "_two_torsion_cubic", counted)
    out = tmp_path / "report.json"
    code = main(["--config", write_config(tmp_path, FN_CONFIG), "--out", str(out), "verify", "all"])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FN_REPORT_SHA256
    assert solved and len({id(c) for c in solved}) == len(solved)


def test_face_multiplicities_are_ints():
    # the config parses divisor coefficients as Fractions; a face enters
    # with an int, as every integral coefficient does
    cfg = config_from_dict(GOOD_CONFIG)
    assert {type(c) for g in cfg.functions for c in g.divisor.values()} == {Fraction}
    X = build_family("X", cfg.curve, cfg.functions[:1])
    coeffs = list(boundary(CycleSum.single(X)).values())
    assert coeffs and {type(c) for c in coeffs} == {int}


# sha256 of `ellmotive report` on the default config; refactors keep the
# report byte-identical (ROADMAP aim 2), so only a deliberate change moves it
REPORT_SHA256 = "8adc84de2a955f6cf5cc08e006e3f43bc0b3d08e3b62fe8224715937cb7ee90e"


def test_report_bytes_independent_of_hash_seed():
    # key orders follow dict insertion, never set or hash order
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    procs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        cmd = [sys.executable, "-m", "ellmotive.cli", "report"]
        procs.append(subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE))
    outputs = [proc.communicate()[0] for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0]
    assert outputs[0] and outputs[0] == outputs[1]
    assert hashlib.sha256(outputs[0]).hexdigest() == REPORT_SHA256


def test_benchmark_selftest_passes():
    # the benchmark's crash and fail accounting, and its pinned known defect
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    cmd = [sys.executable, os.path.join("perfbench", "selftest.py")]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize(
    "error", [barcx.ChainConstructionError, DegeneracyError], ids=lambda e: e.__name__
)
def test_build_motive_chain_failure_exits_one(tmp_path, monkeypatch, error):
    # a failed chain construction is a failed check with a record, not bad input
    def broken(*args, **kwargs):
        raise error("leading family is zero")

    monkeypatch.setattr(barcx, "build_motive_chain", broken)
    out = tmp_path / "motive.json"
    code = main(
        ["--config", write_config(tmp_path, GOOD_CONFIG), "--out", str(out), "build-motive"]
    )
    assert code == 1
    payload = json.loads(out.read_text())
    assert payload["summary"]["fail"] == 1
    (record,) = [r for r in payload["records"] if r["status"] == "fail"]
    assert record["id"] == "build-motive:n=1"
    assert record["details"] == "leading family is zero"


def test_build_motive_inadmissible_input_exits_two(tmp_path, monkeypatch):
    # inadmissible functions are invalid input: exit 2 and no report
    from ellmotive.cycles import AdmissibilityError

    def broken(*args, **kwargs):
        raise AdmissibilityError("g1 is even")

    monkeypatch.setattr(barcx, "build_motive_chain", broken)
    out = tmp_path / "motive.json"
    code = main(
        ["--config", write_config(tmp_path, GOOD_CONFIG), "--out", str(out), "build-motive"]
    )
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("n", [0, 3])
def test_build_motive_n_out_of_range_exits_two(tmp_path, capsys, n):
    # the default config has two functions: --n outside 1..2 is invalid
    # input, named on stderr, and no report is written
    out = tmp_path / "motive.json"
    assert main(["--out", str(out), "build-motive", "--n", str(n)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --n must be between 1 and 2\n"
    assert captured.out == ""
    assert not out.exists()


def test_start_up_generates_no_code():
    # importing the CLI, the suites and the bar complex loads no code
    # generator: no dataclasses, and none of inspect, ast or dis it pulls
    # in (-S keeps site hooks out of the check)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    probe = (
        "import ellmotive.barcx, ellmotive.cli, ellmotive.suites, sys\n"
        "print(sorted(m for m in ('dataclasses', 'inspect', 'ast', 'dis') if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
