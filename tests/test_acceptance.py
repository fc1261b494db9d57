"""End-to-end acceptance checklist.

One test per numbered criterion; each prints a single ok:/FAIL: line (visible
with ``pytest -s``) and fails if any of its checks fail.  All tolerances are
fixed here, not computed.

Criterion 5 expects s_1212 = 0 for the Hermite-pair product family.  The
family's orthonormal polynomials are products of one-variable orthonormal
polynomials along the run form of a word (see ``ncjacobi.freeproduct``).
Hermite has p_1(x) = x, so the polynomial of the word 1212 is exactly the
monomial X1 X2 X1 X2, and orthogonality to the constant polynomial gives
s_1212 = phi(X1 X2 X1 X2) = 0.  The same expansion gives s_1122 = s_1221 =
s_2112 = 1.  The value s_1212 = 1 belongs to commuting (tensor-independent)
Gaussians, whose moments no strictly positive table on non-commuting
polynomials reproduces in full.
"""

import json

import numpy as np

from ncjacobi import (
    AdmissibleFamily,
    MomentFunctional,
    NcPolynomial,
    Word,
    build_free_product,
    classical_coefficients,
    coefficient_oracle,
    enumerate_paths,
    enumerate_words,
    extract_recurrence,
    favard_moments,
    functional_free_product,
    jacobi_from_moments,
    motzkin_binomial_sum,
    motzkin_number,
    operator_moment,
    orthonormalize,
    path_weight,
    product_polynomial,
    random_admissible_family,
    verify_three_term,
    words_up_to,
)
from ncjacobi.cli import main as cli_main

from conftest import EXPONENTIAL_MOMENTS, GAUSSIAN_MOMENTS, one_dim_functional

FAMILY_SEEDS = tuple(range(100, 120))


def _families(depth=3):
    return [random_admissible_family(2, depth, seed=s) for s in FAMILY_SEEDS]


def _finish(num, desc, problems):
    if problems:
        line = f"FAIL: criterion {num} ({desc}): " + "; ".join(problems[:4])
    else:
        line = f"ok: criterion {num} ({desc})"
    print(line)
    assert not problems, line


def test_criterion_1_motzkin_counts():
    problems = []
    expected = {1: 1, 2: 2, 3: 4, 4: 9, 5: 21, 6: 51}
    for n, want in expected.items():
        for w in enumerate_words(2, n):
            got = len(enumerate_paths(w))
            if got != want:
                problems.append(f"|paths({w})| = {got}, want {want}")
                break
    for n in range(1, 9):
        if motzkin_binomial_sum(n) != motzkin_number(n - 1):
            problems.append(f"binomial sum at {n} is not the (n-1)-st path count")
    _finish(1, "path counts and binomial-sum shift", problems)


def test_criterion_2_dual_oracle_moments():
    problems = []
    words = [w for w in words_up_to(2, 6) if len(w) > 0]
    worst = 0.0
    for fam in _families():
        from ncjacobi import moments_from_paths

        for w in words:
            diff = abs(moments_from_paths(fam, w) - operator_moment(fam, w))
            worst = max(worst, diff)
    if worst > 1e-10:
        problems.append(f"path/operator moment mismatch {worst:.3e} > 1e-10")
    _finish(2, f"dual-oracle moments, max diff {worst:.2e}", problems)


def test_criterion_3_moment_jacobi_round_trip():
    problems = []
    worst_blocks = 0.0
    worst_moments = 0.0
    for fam in _families():
        phi = favard_moments(fam, 3)
        recovered = jacobi_from_moments(phi, 3)
        worst_blocks = max(worst_blocks, fam.blocks_close(recovered))
        phi_back = favard_moments(recovered, 3)
        for w in words_up_to(2, phi.word_bound):
            worst_moments = max(worst_moments, abs(phi.moment(w) - phi_back.moment(w)))
    if worst_blocks > 1e-8:
        problems.append(f"block recovery error {worst_blocks:.3e} > 1e-8")
    if worst_moments > 1e-8:
        problems.append(f"moment reconstruction error {worst_moments:.3e} > 1e-8")
    _finish(
        3,
        f"round trips, blocks {worst_blocks:.2e}, moments {worst_moments:.2e}",
        problems,
    )


def test_criterion_4_gram_schmidt_consistency():
    problems = []
    worst_blocks = 0.0
    worst_ortho = 0.0
    for fam in _families():
        phi = favard_moments(fam, 3)
        basis = orthonormalize(phi, 3)
        recovered = extract_recurrence(basis, phi)
        worst_blocks = max(worst_blocks, fam.blocks_close(recovered))
        polys = [basis.polynomial(w) for w in basis.words]
        for i, pa in enumerate(polys):
            for j, pb in enumerate(polys):
                defect = abs(phi.inner(pa, pb) - (1.0 if i == j else 0.0))
                worst_ortho = max(worst_ortho, defect)
    if worst_blocks > 1e-8:
        problems.append(f"recurrence extraction error {worst_blocks:.3e} > 1e-8")
    if worst_ortho > 1e-9:
        problems.append(f"orthonormality defect {worst_ortho:.3e} > 1e-9")

    worst_oracle = 0.0
    for seed in FAMILY_SEEDS[:3]:
        fam = random_admissible_family(2, 3, seed=seed)
        phi = favard_moments(fam, 3)
        basis = orthonormalize(phi, 3)
        for a in basis.words:
            for b in basis.words:
                if b > a:
                    continue
                diff = abs(coefficient_oracle(phi, a, b) - basis.coefficient(a, b))
                worst_oracle = max(worst_oracle, diff)
    if worst_oracle > 1e-8:
        problems.append(f"determinant oracle mismatch {worst_oracle:.3e} > 1e-8")
    _finish(
        4,
        f"orthonormalization, defect {worst_ortho:.2e}, oracle {worst_oracle:.2e}",
        problems,
    )


def test_criterion_5_free_product_construction():
    problems = []
    hermite = classical_coefficients("hermite", 6)
    chebyshev = classical_coefficients("chebyshev_t", 6)
    for label, recs, depth in [
        ("hermite x hermite", [hermite, hermite], 4),
        ("chebyshev x hermite", [chebyshev, hermite], 4),
        ("hermite^3", [hermite] * 3, 3),
    ]:
        report = verify_three_term(recs, depth)
        if report.max_residual > 1e-12:
            problems.append(f"{label} residual {report.max_residual:.3e} > 1e-12")

    def enumerated_moment(family, letters):
        word = Word(letters, family.alphabet)
        return sum(path_weight(family, p) for p in enumerate_paths(word))

    # the construction's polynomial for 1212 is the bare monomial, so s_1212 = 0
    alternating = Word((1, 2, 1, 2), 2)
    p_1212 = product_polynomial([hermite, hermite], alternating)
    gap = (p_1212 - NcPolynomial.monomial(alternating)).max_abs_coefficient()
    if gap > 1e-12:
        problems.append(f"hermite p_1212 differs from X1X2X1X2 by {gap:.3e} > 1e-12")

    pair = build_free_product([hermite, hermite], 4)
    cheb_pair = build_free_product([chebyshev, hermite], 4)
    required = [
        (pair, (1, 1), 1.0, "hermite s_11"),
        (pair, (1, 1, 1, 1), 3.0, "hermite s_1111"),
        (pair, (1, 1, 2, 2), 1.0, "hermite s_1122"),
        (pair, (1, 2, 2, 1), 1.0, "hermite s_1221"),
        (pair, (1, 2, 1, 2), 0.0, "hermite s_1212"),
        (cheb_pair, (1, 1), 0.5, "chebyshev s_11"),
        (cheb_pair, (1, 1, 1, 1), 0.375, "chebyshev s_1111"),
    ]
    for family, letters, want, label in required:
        brute = enumerated_moment(family, letters)
        operator = operator_moment(family, Word(letters, family.alphabet))
        if abs(brute - operator) > 1e-12:
            problems.append(f"{label}: enumeration {brute} vs operator {operator}")
        if abs(brute - want) > 1e-12:
            problems.append(
                f"{label}: required {want}, path enumeration and operator give {brute}"
            )
    _finish(5, "free-product residuals and induced moments", problems)


def test_criterion_6_free_product_functional_singularity():
    problems = []
    phi1 = one_dim_functional(GAUSSIAN_MOMENTS[:6], 2)  # phi1(X^2) = 1
    phi2 = one_dim_functional(EXPONENTIAL_MOMENTS[:6], 2)  # phi2(X) = 1
    phi = functional_free_product([phi1, phi2])
    x, xy = Word((1,), 2), Word((1, 2), 2)
    sub = np.array(
        [
            [phi.kernel_eval(x, x), phi.kernel_eval(x, xy)],
            [phi.kernel_eval(xy, x), phi.kernel_eval(xy, xy)],
        ]
    )
    det = float(np.linalg.det(sub))
    if abs(det) > 1e-12:
        problems.append(f"kernel submatrix determinant {det:.3e}, want 0")
    if phi.is_strictly_positive(2):
        problems.append("free product functional certified strictly positive at 2")
    _finish(6, f"singular kernel, |det| = {abs(det):.2e}", problems)


def test_criterion_7_level_zero_blocks_are_first_moments():
    problems = []
    constructed = []
    for fam in _families()[:5]:
        phi = favard_moments(fam, 3)
        constructed.append((jacobi_from_moments(phi, 3), phi))
        constructed.append((extract_recurrence(orthonormalize(phi, 3), phi), phi))
    recs = [classical_coefficients("laguerre", 4), classical_coefficients("hermite", 4)]
    fam = build_free_product(recs, 3)
    constructed.append((fam, favard_moments(fam, 3)))
    for family, phi in constructed:
        for k in range(1, family.alphabet + 1):
            got = family.B[(0, k)][0, 0]
            want = phi.moment(Word((k,), family.alphabet))
            if got != want:
                problems.append(f"B[0,{k}] = {got!r} != s_{k} = {want!r}")
    _finish(7, "level-zero blocks equal first moments exactly", problems)


def test_criterion_8_cli_examples(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    problems = []

    def run(argv, want=0):
        code = cli_main(argv)
        if code != want:
            problems.append(f"{' '.join(argv)} exited {code}, want {want}")
        return code

    run(["freeproduct", "--spec", "hermite,hermite", "--depth", "4",
         "--out", "hermite2.json"])
    run(["verify", "--family", "hermite2.json"])
    run(["moments", "--family", "hermite2.json", "--max-degree", "3",
         "--out", "m.json"])
    run(["jacobi", "--moments", "m.json", "--depth", "3", "--out", "f.json"])
    run(["verify", "--family", "f.json"])
    run(["paths", "--word", "1,1,1", "--count-only"])
    printed = capsys.readouterr().out
    if "\n4\n" not in "\n" + printed:
        problems.append("paths --count-only did not print 4")

    try:
        table = json.load(open("m.json"))
        low = [e for e in table["moments"] if len(e["word"]) <= 6]
        if len(low) != 127:
            problems.append(f"moment file has {len(low)} entries to length 6, want 127")
        s1111 = [e["value"] for e in table["moments"] if e["word"] == [1, 1, 1, 1]]
        if abs(s1111[0] - 3.0) > 1e-12:
            problems.append(f"s_1111 = {s1111[0]!r}, want 3")
        src = AdmissibleFamily.from_json_obj(json.load(open("hermite2.json")))
        rec = AdmissibleFamily.from_json_obj(json.load(open("f.json")))
        err = src.blocks_close(rec)
        if err > 1e-8:
            problems.append(f"CLI round-trip family error {err:.3e} > 1e-8")
        phi_a = MomentFunctional.from_json_obj(table)
        phi_b = MomentFunctional.from_json_obj(json.load(open("m.json")))
        if any(
            phi_a.moment(w) != phi_b.moment(w)
            for w in words_up_to(2, phi_a.word_bound)
        ):
            problems.append("moment file does not reload bit-identically")
    except FileNotFoundError as exc:
        problems.append(f"missing output file: {exc}")

    _finish(8, "CLI example invocations and serialization round trip", problems)
