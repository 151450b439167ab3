"""Acceptance gate: one test and one printed pass/fail line per criterion."""

import time

import numpy as np
import pytest

from decomap import cli, cones, linalg, maps, modular, stormer

from conftest import (SIGMA_X, criterion_worst, decomposable_test_set, matrix_json,
                      write_json)


@pytest.fixture
def report(capfd):
    """Emit one pass/fail line per criterion, bypassing output capture."""
    def _report(num: int, name: str, ok: bool, detail: str) -> None:
        line = f"{'PASS' if ok else 'FAIL'}: criterion {num} ({name}) — {detail}"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line
    return _report


def test_criterion_01_modular_identities(report):
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(2, 7))
        md = modular.build_modular(linalg.sample_density(n, 10_000 + trial))
        res = modular.check_identities(md, 3, 20_000 + trial)
        worst = max(worst, max(res.values()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    report(1, "modular identities", ok,
            f"max residual {worst:.2e} over 100 states, {elapsed:.1f}s")


def test_criterion_02_cone_mapping(report):
    betas = (0.0, 0.125, 0.25, 0.375, 0.5)
    states = [modular.build_modular(linalg.sample_density(n, 300 + n))
              for n in (2, 3, 4)]
    checked = 0
    worst = 0.0
    for beta in betas:
        for md in states:
            for s in range(14):
                if checked >= 200:
                    break
                xi = cones.sample_cone(md, cones.ConeSpec(cones.VBETA, beta=beta),
                                       400 + 17 * s + checked)
                u_xi = md.u(xi)
                res = cones.cone_membership(
                    md, cones.ConeSpec(cones.VBETA, beta=0.5 - beta), u_xi, tol=1e-8)
                worst = max(worst, res.residual if not res.inside else res.residual)
                if not res.inside:
                    report(2, "cone mapping", False,
                            f"U-image left V_{0.5 - beta} at residual {res.residual:.2e}")
                checked += 1
    natural_ok = True
    for md in states:
        xi = cones.sample_cone(md, cones.ConeSpec(cones.NATURAL), 555)
        u_xi = md.u(xi)
        natural_ok &= cones.cone_membership(md, cones.ConeSpec(cones.NATURAL), u_xi).inside
    ok = checked >= 200 and natural_ok
    report(2, "cone mapping", ok,
            f"{checked} V_beta samples mapped by U, worst residual {worst:.2e}, "
            f"natural cone U-invariant: {natural_ok}")


def test_criterion_03_state_transposition(report):
    worst = 0.0
    for trial in range(100):
        n = 2 + trial % 3
        md = modular.build_modular(linalg.sample_density(n, 700 + trial))
        xi = cones.sample_cone(md, cones.ConeSpec(cones.NATURAL), 800 + trial)
        xi = xi / linalg.frobenius(xi)
        u_xi = md.u(xi)
        lhs = cones.state_of_cone_vector(md, u_xi)
        rhs = md.from_eigenbasis(md.to_eigenbasis(cones.state_of_cone_vector(md, xi)).T)
        worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    ok = worst <= 1e-9
    report(3, "vector-state transposition", ok,
            f"max density mismatch {worst:.2e} over 100 cone vectors")


def test_criterion_04_commutant_generators(report):
    rng = np.random.default_rng(104)
    md_a = modular.build_modular(linalg.sample_density(2, 900))
    md_b = modular.build_modular(linalg.sample_density(2, 901))
    md = modular.tensor_modular(md_a, md_b)
    spec = cones.ConeSpec(cones.TRANSPOSED_TENSOR)
    worst_mem = 0.0
    members = 0
    for trial in range(100):
        terms = [(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)),
                  rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
                 for _ in range(1 + trial % 2)]
        gen = cones.transposed_tensor_generator(md_a, md_b, terms)
        gen = gen / max(1.0, linalg.frobenius(gen))
        res = cones.cone_membership(md, spec, gen, tol=1e-7)
        members += int(res.inside)
        worst_mem = max(worst_mem, res.residual)
    worst_fit = 0.0
    for trial in range(25):
        xi = cones.sample_cone(md, spec, 950 + trial)
        xi = xi / linalg.frobenius(xi)
        dist, _ = cones.fit_transposed_generator(md_a, md_b, xi)
        worst_fit = max(worst_fit, dist)
    ok = members == 100 and worst_fit <= 1e-6
    report(4, "commutant-form generators", ok,
            f"100/{members} generators in the transposed cone "
            f"(worst residual {worst_mem:.2e}), worst reverse-fit distance {worst_fit:.2e}")


def test_criterion_05_transposition_hierarchy(report):
    details = []
    ok = True
    for n in (2, 3):
        phi = maps.transposition_map(n)
        gp = maps.global_positivity_test(phi)
        ok &= (not gp.completely_positive) and gp.completely_copositive
        ok &= abs(gp.min_eig_choi + 1.0) <= 1e-9
        see2 = maps.k_positivity_search(phi, 2, restarts=32, seed=500 + n)
        ok &= see2.violation_found and see2.value <= -0.9
        see1 = maps.k_positivity_search(phi, 1, restarts=64, seed=600 + n)
        ok &= not see1.violation_found
        details.append(f"n={n}: min eig {gp.min_eig_choi:.6f}, "
                       f"k=2 value {see2.value:.3f}, k=1 clean {not see1.violation_found}")
    report(5, "transposition positivity hierarchy", ok, "; ".join(details))


@pytest.fixture(scope="module")
def split_results():
    phis = decomposable_test_set()
    return [(phi, maps.decompose(phi, tol=1e-6)) for phi in phis]


def test_criterion_06_decomposition_solver(split_results, report):
    exact_ok = True
    for phi in (maps.identity_map(2), maps.transposition_map(2)):
        res = maps.decompose(phi, tol=1e-8)
        exact_ok &= res.converged and res.residual <= 1e-8
    worst = max(res.residual for _, res in split_results)
    failures = sum(1 for _, res in split_results if not res.converged)
    ok = exact_ok and failures == 0 and worst <= 1e-6
    report(6, "decomposition solver", ok,
            f"identity/transposition exact: {exact_ok}; 100 random decomposable "
            f"maps split with {failures} failures, worst residual {worst:.2e}")


def test_criterion_07_sk_consistency(split_results, report):
    split_maps = [phi for phi, res in split_results if res.converged]
    pooled = 0
    violations = 0
    idx = 0
    while pooled < 500:
        phi = split_maps[idx % len(split_maps)]
        k = 1 + idx % 3
        res = maps.sk_sampler(phi, k, trials=2, seed=5000 + idx)
        violations += int(res.violation_found)
        pooled += res.trials
        idx += 1
    ok = violations == 0
    report(7, "S_k consistency with decomposability", ok,
            f"{pooled} pooled trials over {len(split_maps)} split maps, "
            f"{violations} violations")


def test_criterion_08_cone_criteria(report):
    tol = 1e-8
    ok = True
    notes = []
    # 20 detailed-balance CP unital maps: conjugations by state-commuting
    # unitaries on M_2 and M_3, levels n <= 3
    worst_p = 0.0
    for i in range(20):
        m = 2 + i % 2
        md = modular.build_modular(linalg.sample_density(m, 6000 + i))
        phases = np.exp(1j * np.random.default_rng(6100 + i).uniform(0, 2 * np.pi, m))
        u = md.eigenbasis @ np.diag(phases) @ md.eigenbasis.conj().T
        rep = maps.cone_criterion_check(maps.adjoint_map(u), md, k=3, trials=2,
                                        seed=6200 + i, tol=tol)
        worst_p = max(worst_p, criterion_worst(rep, "p"))
    ok &= worst_p <= tol
    notes.append(f"CP/db P_n worst {worst_p:.2e}")
    # transposition with tracial state
    md2 = modular.build_modular(np.eye(2) / 2)
    rep = maps.cone_criterion_check(maps.transposition_map(2), md2, k=2, trials=5,
                                    seed=6500, tol=tol)
    t_ok = criterion_worst(rep, "pt") <= tol and rep.levels[2]["p"] >= 0.4
    ok &= t_ok
    notes.append(f"transposition: P^tau worst {criterion_worst(rep, 'pt'):.2e}, "
                 f"P_2 residual {rep.levels[2]['p']:.3f}")
    # 20 decomposable maps: hull criterion
    worst_hull = 0.0
    for i in range(20):
        lam = (i + 1) / 21.0
        u = linalg.sample_unitary(2, 6600 + i)
        phi = maps.mix_maps(lam, maps.identity_map(2),
                            maps.compose_transpose(maps.adjoint_map(u)))
        rep = maps.cone_criterion_check(phi, md2, k=2, trials=2,
                                        seed=6700 + i, tol=tol)
        worst_hull = max(worst_hull, criterion_worst(rep, "hull"))
    ok &= worst_hull <= tol
    notes.append(f"decomposable hull worst {worst_hull:.2e}")
    report(8, "cone criteria", ok, "; ".join(notes))


def test_criterion_09_local_decomposition_suite(report):
    rng = np.random.default_rng(109)
    face_e1 = stormer.FaceSpec(xi=np.array([1.0, 0.0]), eta=np.array([1.0, 0.0]))
    worst = 0.0
    for trial in range(100):
        if trial % 2 == 0:
            xi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            face = stormer.FaceSpec(xi=xi / np.linalg.norm(xi),
                                    eta=np.array([1.0, 0.0]))
            phi = stormer.sample_face_map(face, 1 + trial % 3, seed=7000 + trial)
        else:
            u = linalg.sample_unitary(2, 7100 + trial)
            v = linalg.sample_unitary(2, 7200 + trial)
            phi = maps.mix_maps(0.3 + 0.4 * (trial % 5) / 4, maps.adjoint_map(u),
                                maps.compose_transpose(maps.adjoint_map(v)))
        eta = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        eta /= np.linalg.norm(eta)
        data = stormer.build_local_decomposition(phi, eta, seed=7300 + trial)
        rep = stormer.verify_locdec(phi, data, 10, seed=7300 + trial)
        worst = max(worst, rep.max_residual)
    locdec_ok = worst <= 1e-9

    phi_sym, face_sym = stormer.symmetric_face_example()
    named = {
        "phi_sym": stormer.check_prop41(phi_sym, face_sym),
        "ad_sigma_x": stormer.check_prop41(maps.adjoint_map(SIGMA_X), face_e1),
        "diag_flip": stormer.check_prop41(maps.map_from_action(
            lambda a: np.diag([a[1, 1], a[0, 0]]).astype(complex), 2, 2), face_e1),
    }
    inconsistencies = sum(r.inconsistent for r in named.values())
    for seed in range(50):
        rep = stormer.check_prop41(stormer.sample_face_map(face_e1, 1 + seed % 3,
                                                           seed=7400 + seed), face_e1)
        inconsistencies += int(rep.inconsistent)
    sym_ok = named["phi_sym"].global_residual <= 1e-10
    adx_mag = named["ad_sigma_x"].eta2_residuals["e11"]
    adx_ok = abs(adx_mag - 1.0) <= 1e-8
    ok = locdec_ok and inconsistencies == 0 and sym_ok and adx_ok
    report(9, "local decomposition suite", ok,
            f"verify_locdec worst {worst:.2e} over 100 pairs; "
            f"{inconsistencies} iff-inconsistencies in 53 checks; "
            f"phi_sym global {named['phi_sym'].global_residual:.2e}; "
            f"ad_sigma_x failure magnitude {adx_mag:.10f}")


def test_criterion_10_intersection_probe(report):
    details = []
    ok = True
    for m, n in ((2, 2), (2, 3)):
        rep = cones.probe_finite_dim_equality(m, n, 8000 + 10 * m + n, 100)
        ok &= rep.max_residual <= 1e-8
        details.append(f"({m},{n}): max residual {rep.max_residual:.2e}")
    report(10, "finite-dimensional intersection probe", ok, "; ".join(details))


def test_criterion_11_cli_contract(tmp_path, report):
    rho2 = write_json(tmp_path / "rho2.json", matrix_json(np.eye(2) / 2))
    rho_skew = write_json(tmp_path / "rho_skew.json", matrix_json(np.diag([0.8, 0.2])))
    sx_map = write_json(tmp_path / "sx.json", {
        "key": "mix:0.5:adu:sx:compose-t:adu:sx",
        "matrices": {"sx": matrix_json(SIGMA_X)}})
    t_map = write_json(tmp_path / "t.json", {"key": "transpose:2"})
    id_map = write_json(tmp_path / "id.json", {"key": "identity:2"})
    face = write_json(tmp_path / "face.json",
                      {"xi": [[1, 0], [0, 0]], "eta": [[1, 0], [0, 0]]})
    e11 = write_json(tmp_path / "e11.json", matrix_json(np.diag([1.0, 0.0])))
    sx_mat = write_json(tmp_path / "sxm.json", matrix_json(SIGMA_X))
    swap = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            swap[2 * i + j, 2 * j + i] = 1.0
    swap_mat = write_json(tmp_path / "swap.json", matrix_json(swap))
    missing = str(tmp_path / "missing.json")

    requests = []
    for seed in range(8):
        requests.append(["modular-check", "--rho", rho_skew, "--samples", "5",
                         "--seed", str(seed)])
        requests.append(["map-analyze", "--map", t_map, "--tests", "cp,ccp",
                         "--seed", str(seed)])
        requests.append(["probe", "--dims", "2,2", "--trials", "3",
                         "--seed", str(seed)])
        requests.append(["stormer-verify", "--map", sx_map, "--face", face,
                         "--samples", "5", "--seed", str(seed)])
    for seed in range(5):
        requests.append(["cone-member", "--rho", rho2, "--xi",
                         e11 if seed % 2 == 0 else sx_mat,
                         "--cone", '{"kind": "natural"}'])
        requests.append(["prop41", "--map", sx_map, "--face", face,
                         "--tol", str(10.0 ** -(6 + seed))])
        requests.append(["decompose", "--map", id_map, "--tol", "1e-8"])
        requests.append(["hull-member", "--rho", rho2, "--xi", swap_mat,
                         "--dims", "2,2"])
    requests.append(["map-analyze", "--map", id_map, "--tests", "cp,ccp,kpos=2",
                     "--seed", "0"])
    requests.append(["modular-check", "--rho", missing, "--seed", "0"])  # error case

    assert len(requests) >= 50
    strip = lambda r: {k: v for k, v in r.items() if k != "wall_time"}
    mismatches = 0
    nondeterministic = 0
    for req in requests:
        rep1, code1 = cli.run(list(req))
        rep2, code2 = cli.run(list(req))
        if cli.render_report(strip(rep1)) != cli.render_report(strip(rep2)):
            nondeterministic += 1
        expected = {"satisfied": 0, "violated": 1, "error": 2}[rep1["verdict"]]
        if code1 != expected or code2 != expected:
            mismatches += 1
    ok = mismatches == 0 and nondeterministic == 0
    report(11, "CLI determinism and exit codes", ok,
            f"{len(requests)} requests: {nondeterministic} nondeterministic, "
            f"{mismatches} exit-code mismatches")
