"""End-to-end checks of the library's headline claims.

Each test prints a `[criterion NN] PASS/FAIL` line (outside pytest's capture)
so a full run doubles as a checklist.  Tolerances are part of the contract;
do not loosen them to make a failing build pass.
"""

import contextlib

import numpy as np
import pytest

from nhskin.errors import EPVicinityError, GapClosedError
from nhskin.localization import (
    biorthogonal_density,
    classify_spectrum,
    participation_ratio,
)
from nhskin.model import (
    bloch_samples,
    builtin_2d,
    builtin_hatano_nelson,
    builtin_nh_ssh,
)
from nhskin.nonbloch import gbz_curve, gbz_membership, obc_member_2d
from nhskin.realspace import build
from nhskin.response import (
    amplification_log_ratio,
    boundary_crossover,
    funnel_model,
    sensor_sweep,
    susceptibility,
    time_evolve,
)
from nhskin.spectral import (
    dense_spectrum,
    eig_biorthogonal,
    ep_diagnostic,
    hausdorff_distance,
    non_normality,
)
from nhskin.topology import winding_number


@contextlib.contextmanager
def criterion(num, capsys):
    """Collects named boolean checks and prints one verdict line."""
    checks = []

    def check(name, ok):
        checks.append((name, bool(ok)))

    try:
        yield check
    except BaseException:
        with capsys.disabled():
            print(f"[criterion {num:02d}] FAIL", flush=True)
        raise
    failed = [name for name, ok in checks if not ok]
    with capsys.disabled():
        print(f"[criterion {num:02d}] {'FAIL' if failed else 'PASS'}", flush=True)
    assert not failed, f"failed checks: {failed}"


def test_criterion_01_hn_dispersion(capsys):
    with criterion(1, capsys) as check:
        jl, jr = 0.5, 1.0
        m = builtin_hatano_nelson(jl, jr)
        ks = np.linspace(-np.pi, np.pi, 1024, endpoint=False)
        vals = bloch_samples(m, ks)[:, 0, 0]
        ref = (jl + jr) * np.cos(ks) + 1j * (jl - jr) * np.sin(ks)
        check("dispersion max error < 1e-12", np.max(np.abs(vals - ref)) < 1e-12)


def test_criterion_02_hn_obc_reality_and_closed_form(capsys):
    with criterion(2, capsys) as check:
        jl, jr, N = 0.5, 1.0, 50
        e = dense_spectrum(build(builtin_hatano_nelson(jl, jr), [N], "obc"))
        check("imaginary parts < 1e-8", np.max(np.abs(e.imag)) < 1e-8)
        got = np.sort(e.real)
        want = np.sort(
            2 * np.sqrt(jl * jr) * np.cos(np.arange(1, N + 1) * np.pi / (N + 1))
        )
        check("closed form within 1e-6", np.max(np.abs(got - want)) < 1e-6)


def test_criterion_03_winding_signs_and_transition(capsys):
    with criterion(3, capsys) as check:
        r = winding_number(builtin_hatano_nelson(0.5, 1.0), 0.0)
        check("w(0) = -1 for (0.5, 1.0)", r.w == -1)
        check("raw integral within 1e-4 of -1", abs(r.raw_integral - (-1)) < 1e-4)
        l = winding_number(builtin_hatano_nelson(1.0, 0.5), 0.0)
        check("w(0) = +1 for (1.0, 0.5)", l.w == 1)
        check("raw integral within 1e-4 of +1", abs(l.raw_integral - 1) < 1e-4)
        try:
            winding_number(builtin_hatano_nelson(1.0, 1.0), 0.0)
            raised = False
        except GapClosedError:
            raised = True
        check("closed gap at J_L = J_R raises", raised)


def test_criterion_04_skin_states_and_biorthogonal_delocalization(capsys):
    with criterion(4, capsys) as check:
        m = builtin_hatano_nelson(0.5, 1.0)

        def mean_bio_pr(N):
            op = build(m, [N], "obc")
            system = eig_biorthogonal(op)
            prs = []
            for i in range(system.n):
                _, R, L = system.eigenvalues[i], system.right[:, i], system.left[:, i]
                prs.append(participation_ratio(biorthogonal_density(L, R, op)))
            return op, system, float(np.mean(prs))

        op50, sys50, pr50 = mean_bio_pr(50)
        classes = classify_spectrum(sys50, op50)
        check("all N=50 states skin", (classes.label == "skin").all())
        check("all N=50 states on the right", (classes.side == "right").all())
        _, _, pr100 = mean_bio_pr(100)
        check("biorthogonal PR growth >= 1.8", pr100 / pr50 >= 1.8)


def test_criterion_05_gbz_radius_and_membership(capsys):
    with criterion(5, capsys) as check:
        jl, jr = 0.5, 1.0
        m = builtin_hatano_nelson(jl, jr)
        radius = np.sqrt(jr / jl)
        zone = gbz_curve(m, N_seed=400)
        devs = np.abs(np.abs(zone.beta) - radius)
        check("all | |beta| - sqrt(J_R/J_L) | < 1e-6", devs.max() < 1e-6)

        members = []
        for x in np.linspace(-2.0, 2.0, 201):
            for y in np.linspace(-0.2, 0.2, 21):
                if gbz_membership(m, complex(x, y))["member"]:
                    members.append(complex(x, y))
        dense = dense_spectrum(build(m, [400], "obc"))
        check(
            "membership set within Hausdorff 0.05 of dense spectrum",
            hausdorff_distance(members, dense) < 0.05,
        )


def test_criterion_06_skin_vs_topological_classifier(capsys):
    with criterion(6, capsys) as check:
        m = builtin_nh_ssh(0.6, 1.0, 0.3)
        op = build(m, [40], "obc")
        system = eig_biorthogonal(op)
        classes = classify_spectrum(system, op)
        order = np.argsort(np.abs(system.eigenvalues))
        pair, rest = order[:2], order[2:]
        check(
            "near-zero pair energies < 1e-8",
            max(abs(system.eigenvalues[i]) for i in pair) < 1e-8,
        )
        check(
            "pair classified topological_boundary",
            (classes.label[pair] == "topological_boundary").all(),
        )
        purities = []
        for i in pair:
            R = system.right[:, i]
            wa = float(np.sum(np.abs(R[0::2]) ** 2))
            wb = float(np.sum(np.abs(R[1::2]) ** 2))
            purities.append(max(wa, wb) / (wa + wb))
        check("pair sublattice weight > 0.999", min(purities) > 0.999)
        check(
            "all remaining states skin",
            (classes.label[rest] == "skin").all(),
        )


@pytest.mark.slow
def test_criterion_07_amoeba_vs_brute_force(capsys):
    with criterion(7, capsys) as check:
        m = builtin_2d(0.5, 1.0, 0.2)
        e2d = dense_spectrum(build(m, [20, 20], "obc"))
        centroid = complex(np.mean(e2d))
        reach = float(np.max(np.abs(e2d - centroid)))

        inside = e2d[np.argsort(np.abs(e2d - centroid))[:10]]
        angles = 2 * np.pi * np.arange(10) / 10
        outside = centroid + (reach + 1.0) * np.exp(1j * angles)

        hits = 0
        for E in inside:
            hits += obc_member_2d(m, complex(E)) is True
        for E in outside:
            hits += obc_member_2d(m, complex(E)) is False
        check("agreement with oracle >= 18/20", hits >= 18)


def test_criterion_08_non_normality_and_non_reciprocity(capsys):
    with criterion(8, capsys) as check:
        herm = build(builtin_hatano_nelson(1.0, 1.0), [8], "obc")
        check("Hermitian commutator norm < 1e-12", non_normality(herm) < 1e-12)
        check(
            "Hermitian chi-asymmetry < 1e-12",
            susceptibility(herm, 3.0).asymmetry < 1e-12,
        )
        two = build(builtin_hatano_nelson(0.5, 1.0), [2], "obc")
        check(
            "N=2 commutator norm = sqrt(2) * 0.75",
            abs(non_normality(two) - np.sqrt(2) * 0.75) < 1e-10,
        )
        check(
            "N=2 asymmetry at omega=2 equals 1/7",
            abs(susceptibility(two, 2.0).asymmetry - 1.0 / 7.0) < 1e-10,
        )


def test_criterion_09_directional_amplification(capsys):
    with criterion(9, capsys) as check:
        m = builtin_hatano_nelson(0.5, 1.0)
        for N in (5, 10, 20):
            got = amplification_log_ratio(build(m, [N], "obc"), omega=0.0)
            want = (N - 1) * np.log(2.0)
            check(
                f"N={N} log gain ratio = (N-1) log 2",
                abs(got - want) / abs(want) < 1e-6,
            )


def test_criterion_10_funnel_concentration(capsys):
    with criterion(10, capsys) as check:
        op = funnel_model(0.5, 1.0, 30)
        psi0 = np.zeros(op.n)
        psi0[5] = 1.0
        traj = time_evolve(op, psi0, t_max=40.0, dt=0.05)
        final = traj.densities[-1]
        center = op.n / 2 - 0.5
        near = np.abs(np.arange(op.n) - center) <= 5.0
        mass = float(final[near].sum() / final.sum())
        check("final density within 5 sites of interface >= 0.80", mass >= 0.80)


def test_criterion_11_sensor_scaling(capsys):
    with criterion(11, capsys) as check:
        sizes = [10, 14, 18, 22]

        def slope(gamma):
            delta = sensor_sweep(builtin_nh_ssh(0.6, 1.0, gamma), 1e-4, sizes)
            ns = np.array(sizes, dtype=float)
            ys = np.log(delta)
            return float(np.polyfit(ns, ys, 1)[0])

        check("non-Hermitian slope positive", slope(0.3) > 0)
        check("Hermitian control slope <= 0", slope(0.0) <= 0)


def test_criterion_12_boundary_crossover(capsys):
    with criterion(12, capsys) as check:
        m = builtin_hatano_nelson(0.5, 1.0)
        epsilons = np.logspace(-16, 0, 33)

        def distances(N):
            distance, _ = boundary_crossover(m, N, epsilons)
            return distance

        def eps_star(d):
            half = d[-1] / 2.0
            return float(epsilons[np.argmax(d >= half)])

        d20, d40 = distances(20), distances(40)
        check("N=20 distance monotone in epsilon", np.all(np.diff(d20) >= -1e-9))
        check("N=40 distance monotone in epsilon", np.all(np.diff(d40) >= -1e-9))
        check(
            "crossover epsilon* strictly smaller at N=40",
            eps_star(d40) < eps_star(d20),
        )


def test_criterion_13_ep_diagnostic_and_refusal(capsys):
    with criterion(13, capsys) as check:
        op = build(builtin_hatano_nelson(0.0, 1.0), [10], "obc")
        e = dense_spectrum(op)
        check("all eigenvalues 0 within 1e-8", np.max(np.abs(e)) < 1e-8)
        check("defect_estimate = 9", ep_diagnostic(op)["defect_estimate"] == 9)
        system = eig_biorthogonal(op)
        check("ep_flag set", system.ep_flag is True)
        try:
            classify_spectrum(system, op)
            refused = False
        except EPVicinityError:
            refused = True
        check("biorthogonal classification refused", refused)
