"""Acceptance suite: one test (and one printed line) per criterion.

Every tolerance here is pinned; the printed lines give a one-screen
overview when run with `pytest tests/test_acceptance.py -s`.
"""

import json
import math

import numpy as np
import pytest

from kappa_rup.cli import EXIT_CONFIG, EXIT_FAIL, EXIT_OK, main
from kappa_rup.coherent_states import (
    _quadrature,
    delta_p,
    delta_x,
    f_expectation,
    moment_report,
    psi,
    second_moment,
)
from kappa_rup.deformed_algebra import (
    ORDER_X1,
    ORDER_X2,
    ORDER_X3,
    GridFunction,
    annihilation_residual,
    apply_position_operator,
    commutator_residual,
    convert_ordering,
    deformation_f,
    ode_residual,
    ordering_weight,
)
from kappa_rup.errors import DivergentIntegralError, DomainError
from kappa_rup.kinematics import ParticleFrame, physical_map
from kappa_rup.maxent import MaxEntProblem, fit_kappa_exponential, maxent_solve
from kappa_rup.params import KappaParameter, StateSpec
from kappa_rup.phenomenology import (
    PhenoConfig,
    gac_match_zeta,
    kappa_bound,
    landau_zeta,
    minimal_length,
    putra_bound,
)

from oracles import brute_force_maxent, gibbs_reference


def report(num, ok, detail):
    print(f"[acceptance] criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def spec_of(k, z=1.0):
    return StateSpec(KappaParameter(k), z)


KAPPA_GRID = (0.05, 0.1, 0.3, 0.6)
ZETA_GRID = (0.5, 1.0, 2.0)


def test_criterion_01_normalization_oracle():
    worst = max(
        abs(moment_report(spec_of(k, z), 1e-10).probability_quad - 1.0)
        for k in KAPPA_GRID
        for z in ZETA_GRID
    )
    report(1, worst < 1e-8, f"max |int pdf - 1| = {worst:.3e} < 1e-8")


def test_criterion_02_moment_equivalence():
    worst = max(
        abs(second_moment(s) - moment_report(s, 1e-10).second_moment_quad) / second_moment(s)
        for s in (spec_of(k, z) for k in KAPPA_GRID for z in ZETA_GRID)
    )
    with pytest.raises(DomainError):
        second_moment(spec_of(0.7))
    with pytest.raises(DivergentIntegralError):
        _quadrature(spec_of(0.7), 1e-10, 2)
    report(2, worst < 1e-6, f"max rel closed-vs-quad <p^2> = {worst:.3e} < 1e-6; kappa=0.7 raises")


def test_criterion_03_saturation_identity():
    worst_closed = max(
        abs(delta_x(s) * delta_p(s) - 0.5 * s.hbar * f_expectation(s.kappa))
        / (0.5 * s.hbar * f_expectation(s.kappa))
        for s in (spec_of(k, z) for k in KAPPA_GRID for z in ZETA_GRID)
    )
    worst_quad = max(
        abs(f_expectation(KappaParameter(k)) - moment_report(spec_of(k), 1e-10).f_expect_quad)
        / f_expectation(KappaParameter(k))
        for k in (0.1, 0.2, 0.3, 0.5)
    )
    # <f> = 2 zeta (1 - k^2) <p^2>, each side by its own quadrature (verify's saturation_identity)
    worst_identity = 0.0
    for s in (spec_of(k, z) for k in KAPPA_GRID for z in ZETA_GRID):
        rep = moment_report(s, 1e-10)
        f_quad, p2_quad = rep.f_expect_quad, rep.second_moment_quad
        k, z = s.kappa.value, s.zeta
        worst_identity = max(worst_identity, abs(f_quad - 2.0 * z * (1.0 - k * k) * p2_quad) / f_quad)
    ok = worst_closed < 1e-12 and worst_quad < 1e-6 and worst_identity < 1e-9
    report(3, ok, f"closed identity {worst_closed:.3e} < 1e-12; <f> quad match {worst_quad:.3e} "
                  f"< 1e-6; quad identity {worst_identity:.3e} < 1e-9")


def test_criterion_04_zeta_independence():
    worst = 0.0
    for k in (0.1, 0.3, 0.6):
        products = [delta_x(spec_of(k, z)) * delta_p(spec_of(k, z)) for z in ZETA_GRID]
        worst = max(worst, (max(products) - min(products)) / products[0])
    report(4, worst < 1e-12, f"dx dp spread across zeta = {worst:.3e} < 1e-12")


def test_criterion_05_classical_limit():
    f_gap = abs(f_expectation(KappaParameter(1e-3)) - 1.0)
    p = np.linspace(-12.0, 12.0, 4001)
    sup = float(np.max(np.abs(psi(p, spec_of(1e-4)) - psi(p, spec_of(0.0)))))
    ok = f_gap < 1e-2 and sup < 1e-5
    report(5, ok, f"|F(1e-3)-1| = {f_gap:.3e} < 1e-2; sup-norm psi gap = {sup:.3e} < 1e-5")


def test_criterion_06_ode_residual():
    worst = 0.0
    for k in (0.1, 0.3, 0.5):
        for z in (1.0, 2.0):
            s = spec_of(k, z)
            dp = delta_p(s)
            dx = s.hbar * z * (1.0 - k * k) * dp
            p = np.linspace(-5.0 / math.sqrt(z), 5.0 / math.sqrt(z), 200)
            worst = max(worst, float(np.max(np.abs(ode_residual(p, k, z, dx, dp)))))
            worst = max(
                worst, float(np.max(np.abs(ode_residual(p, k, z, 1.2 * dx, dp, c1=0.05))))
            )
    p = np.linspace(-5.0, 5.0, 200)
    s = spec_of(0.3)
    dp = delta_p(s)
    dx = 0.91 * dp
    ones = np.ones_like(p)
    control = float(
        np.max(np.abs(ode_residual(p, 0.3, 1.0, dx, dp, f_parts=(ones, 0 * ones, 0 * ones))))
    )
    ok = worst < 1e-9 and control > 1e-3
    report(6, ok, f"family residual {worst:.3e} < 1e-9; f=1 control {control:.3e} > 1e-3")


def test_criterion_07_residual_convergence():
    s = spec_of(0.2)
    extent, sizes = 400.0, (2048, 4096, 8192, 16384)
    ann = [annihilation_residual(s, -extent, extent, n) for n in sizes]
    comm = []
    for n in sizes:
        p = np.linspace(-extent, extent, n)
        g = GridFunction(-extent, extent, psi(p, s).astype(complex))
        comm.append(commutator_residual(g, s.kappa, s.zeta, s.hbar))
    ratios = [a / b for a, b in zip(ann, ann[1:])] + [a / b for a, b in zip(comm, comm[1:])]
    ok = min(ratios) >= 12.0
    report(7, ok, f"min decay factor per doubling = {min(ratios):.2f} >= 12 (six ratios)")


def test_criterion_08_tail_exponent():
    from kappa_rup.coherent_states import tail_exponent_estimate

    worst = max(
        abs(tail_exponent_estimate(spec_of(k)) + 2.0 / k) / (2.0 / k)
        for k in (0.1, 0.25, 0.5)
    )
    report(8, worst < 2e-2, f"max rel tail-slope error = {worst:.3e} < 2e-2")


def test_criterion_09_kinematics():
    worst = 0.0
    for beta in (0.1, 0.5, 0.9):
        gamma = 1.0 / math.sqrt(1.0 - beta * beta)
        states = [
            physical_map(ParticleFrame(1.0, 1.0, KappaParameter(k)), beta)
            for k in (0.1, 0.3, 0.7)
        ]
        for st in states:
            worst = max(
                worst,
                abs(st.p - gamma * beta) / (gamma * beta),
                abs(st.E - gamma) / gamma,
            )
        for st in states[1:]:
            worst = max(
                worst,
                abs(st.p - states[0].p) / states[0].p,
                abs(st.E - states[0].E) / states[0].E,
            )
    report(9, worst < 1e-12, f"max rel deviation from gamma forms / kappa spread = {worst:.3e} < 1e-12")


def test_criterion_10_maxent():
    energies = np.arange(5.0)
    sol0 = maxent_solve(MaxEntProblem(energies, 1.2, KappaParameter(0.0)), 1e-12)
    gibbs_gap = float(np.max(np.abs(sol0.distribution - gibbs_reference(energies, 1.2))))
    sol = maxent_solve(MaxEntProblem(energies, 1.2, KappaParameter(0.2)), 1e-12)
    oracle_gap = float(
        np.max(np.abs(sol.distribution - brute_force_maxent(energies, 1.2, 0.2)))
    )
    fit_loose = fit_kappa_exponential(
        maxent_solve(MaxEntProblem(energies, 1.2, KappaParameter(0.2)), 1e-6), energies
    )
    fit_tight = fit_kappa_exponential(sol, energies)
    drift = abs(fit_loose.max_residual - fit_tight.max_residual)
    ok = gibbs_gap < 1e-10 and oracle_gap < 1e-3 and drift < 1e-6
    report(
        10,
        ok,
        f"Gibbs gap {gibbs_gap:.2e} < 1e-10; oracle gap {oracle_gap:.2e} < 1e-3; "
        f"fit residual {fit_tight.max_residual:.2e} stable (drift {drift:.1e})",
    )


def test_criterion_11_phenomenology_bounds():
    bound = kappa_bound(PhenoConfig())
    ok = 1e-6 < bound.bound_kappa < 1e-4 and 1e-4 < bound.bound_kappa_sqrt_zeta < 1e-2
    report(
        11,
        ok,
        f"kappa bound {bound.bound_kappa:.3e} in (1e-6, 1e-4); "
        f"kappa*sqrt(zeta) bound {bound.bound_kappa_sqrt_zeta:.3e} in (1e-4, 1e-2)",
    )


def test_criterion_12_comparison_matchers():
    ratios_exact = all(
        gac_match_zeta(k, m, c) / landau_zeta(k, m, c) == 0.75
        for k, m, c in [(0.5, 1.0, 1.0), (0.1, 2.0, 3.0), (1e-5, 0.511, 1.0), (0.3, 1.7, 2.0)]
    )
    # equality of the defining expressions; bit-exact on these inputs,
    # and never more than one rounding apart in general
    compton_exact = all(
        minimal_length(k, landau_zeta(k, m, c)) == 1.0 / (m * c)
        for k, m, c in [(0.1, 1.0, 1.0), (0.25, 2.0, 1.0), (0.5, 1.0, 3.0)]
    )
    compton_general = all(
        minimal_length(k, landau_zeta(k, m, c)) == pytest.approx(1.0 / (m * c), rel=5e-16)
        for k, m, c in [(1e-5, 0.511, 1.0), (0.05, 0.938, 1.0)]
    )
    v = 0.3
    res = putra_bound(v)
    remainder_ok = abs(res.bound - res.expansion_first_order) <= 0.5 * v**4 / (
        1.0 - v * v
    ) * (1.0 + 1e-12)
    ok = ratios_exact and compton_exact and compton_general and remainder_ok
    report(
        12,
        ok,
        "gac/landau = 3/4 exact; minimal length = hbar/(mc) under Compton fixing; "
        "Putra expansion remainder bounded at v = 0.3c",
    )


def test_criterion_13_ordering_algebra():
    k, z = 0.25, 1.0
    p = np.linspace(-20.0, 20.0, 257)
    base = GridFunction(-20.0, 20.0, ((1.0 - 0.3 * p) * np.exp(-0.1 * p**2)).astype(complex))
    worst_rt = 0.0
    for a_from, a_to in [(0.5, 0.0), (0.5, 1.0), (0.0, 1.0)]:
        back = convert_ordering(
            convert_ordering(base, a_from, a_to, k, z), a_to, a_from, k, z
        )
        worst_rt = max(
            worst_rt, float(np.max(np.abs(back.samples - base.samples)))
        )

    def defect(n):
        q = np.linspace(-22.0, 22.0, n)
        u = (1.0 - 0.3 * q) * np.exp(-0.1 * q**2)
        v = (0.7 + 0.4 * q + 0.2 * q**2) * np.exp(-0.125 * q**2)
        gu = GridFunction(-22.0, 22.0, u.astype(complex))
        gv = GridFunction(-22.0, 22.0, v.astype(complex))
        xu = apply_position_operator(gu, ORDER_X3, k, z)
        xv = apply_position_operator(gv, ORDER_X3, k, z)
        h = gu.h
        lhs = np.sum(np.conj(u) * xv.samples) * h
        rhs = np.sum(np.conj(xu.samples) * v) * h
        scale = abs(np.sum(np.abs(u) * np.abs(xv.samples)) * h)
        return abs(lhs - rhs) / scale

    d = [defect(n) for n in (512, 1024, 2048, 4096)]
    defects_shrink = d[0] > d[1] > d[2] > d[3] and d[3] < 1e-9

    grid = np.linspace(-6.0, 6.0, 41)
    weight_ok = True
    for a in (0.0, 0.5, 1.0):
        g = ordering_weight(grid, a, k, z)
        f = deformation_f(grid, k, z)
        weight_ok &= bool(np.allclose(g * f ** (1.0 - 2.0 * a), 1.0, rtol=1e-12))
    weight_ok &= bool(np.all(ordering_weight(grid, ORDER_X3, k, z) == 1.0))
    weight_ok &= bool(np.allclose(ordering_weight(grid, ORDER_X1, k, z), 1.0 / f, rtol=1e-13))
    weight_ok &= bool(np.allclose(ordering_weight(grid, ORDER_X2, k, z), f, rtol=1e-13))

    ok = worst_rt < 1e-12 and defects_shrink and weight_ok
    report(
        13,
        ok,
        f"conversion round-trip {worst_rt:.1e} < 1e-12; x3 symmetry defect "
        f"{d[0]:.1e} -> {d[-1]:.1e} under refinement; weight identities hold for A in (0, 1/2, 1)",
    )


def test_criterion_14_cli_contract(tmp_path):
    args = ["--command", "table", "--kappa", "0,0.2,0.4"]
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out_a)]) == EXIT_OK
    assert main(args + ["--out", str(out_b)]) == EXIT_OK
    identical = out_a.read_bytes() == out_b.read_bytes()

    verify_out = tmp_path / "verify.json"
    code_pass = main(["--command", "verify", "--out", str(verify_out)])
    passed_doc = json.loads(verify_out.read_text())
    code_fail = main(["--command", "verify", "--tol", "1e-20", "--out", str(tmp_path / "f.json")])
    code_config = main(["--command", "verify", "--kappa", "0.9"])

    ok = (
        identical
        and code_pass == EXIT_OK
        and passed_doc["all_passed"]
        and code_fail == EXIT_FAIL
        and code_config == EXIT_CONFIG
    )
    report(
        14,
        ok,
        f"byte-identical reruns = {identical}; exit codes pass/fail/config = "
        f"{code_pass}/{code_fail}/{code_config}",
    )
