"""End-to-end acceptance suite.

Each test prints a single PASS/FAIL line (run pytest with -s or look at
captured output).  The criteria:

1. the finite exceptional monogenic sets on the standard grid,
2. three-way agreement of the closed-form membership, the composed
   reduction, and the generic prime-square scan,
3. condition-dispatch engine vs Dedekind oracle on >= 500 random
   irreducible trinomials,
4. closed-form discriminant vs resultant, bit-exact,
5. Frobenius split densities and order spectra vs the claimed groups,
6. the z^2 + 4 corollary scan up to z = 100 with a-uniqueness,
7. sign symmetry a <-> -a for 1000 random families,
8. direct squarefree predicate vs engine verdict for p = 3, |a| <= 2000.
"""

import random
from fractions import Fraction

from monotri import arith, cli, poly
from monotri.classify import (
    CaseKind,
    GaloisClass,
    GaloisKind,
    TrinomialFamily,
    case_label,
    classify,
    exceptional_sets,
    family_is_irreducible,
    galois_group,
    kkr_monogenic,
    swan_disc_f,
    theorem_membership,
)
from monotri.galois_verify import (
    consistency_check,
    element_order_spectrum,
    frobenius_sample,
)
from monotri.indexcheck import (
    GeneralTrinomial,
    dedekind_divides_index,
    jks_index_free,
    swan_general_discriminant,
    trinomial_is_monogenic,
)

GRID_PRIMES = (3, 5, 7, 11, 13)
GRID_A = 30


def _report(name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[acceptance] {name}: {tag}{' - ' + detail if detail else ''}")
    assert ok, f"{name}: {detail}"


def _grid_families():
    for p in GRID_PRIMES:
        for a in range(-GRID_A, GRID_A + 1):
            if a == 0:
                continue
            for b in (-1, 1):
                yield TrinomialFamily(p, a, b)


def test_criterion_1_exceptional_sets():
    sets = exceptional_sets(max(GRID_PRIMES), GRID_A)
    got = {(p, a, b) for entries in sets.values() for _, p, a, b in entries}
    item1 = {(5, 3, 1), (5, -3, 1), (5, 1, -1), (5, -1, -1),
             (13, 3, -1), (13, -3, -1)}
    item2 = {(3, 1, 1), (3, -1, 1)}
    item3a = {(3, 4, 1), (3, -4, 1)}
    expected = item1 | item2 | item3a
    ok = got == expected
    _report(
        "criterion 1 (exceptional sets)",
        ok,
        f"got {sorted(got)}" if not ok else f"{len(got)} families",
    )


def test_criterion_2_three_way_consistency():
    checked = 0
    for fam in _grid_families():
        if fam.delta % fam.p != 0:
            continue
        if not family_is_irreducible(fam):
            continue
        member = theorem_membership(fam)
        kkr, _ = kkr_monogenic(fam)
        report = trinomial_is_monogenic(
            GeneralTrinomial(2 * fam.p, fam.p, fam.a, fam.b**fam.p)
        )
        if not (member == kkr == report.monogenic):
            _report(
                "criterion 2 (three-way consistency)",
                False,
                f"{fam}: membership={member} kkr={kkr} scan={report.monogenic}",
            )
        checked += 1
    _report("criterion 2 (three-way consistency)", checked > 0,
            f"{checked} instances, all agree")


def test_criterion_3_oracle_equivalence():
    corpus = cli.crosscheck_corpus(500, seed=2024)
    report = cli.run_crosscheck(
        corpus, {"trial_bound": 100_000, "rho_budget": 1 << 21}
    )
    ok = report["disagreements"] == 0 and report["total"] >= 500
    _report(
        "criterion 3 (engine vs Dedekind oracle)",
        ok,
        f"{report['agreements']}/{report['total']} agree, "
        f"{report['skipped']} skipped",
    )


def test_criterion_4_discriminant_cross_check():
    checked = 0
    for fam in _grid_families():
        closed = swan_disc_f(fam)
        general = swan_general_discriminant(
            GeneralTrinomial(2 * fam.p, fam.p, fam.a, fam.b**fam.p)
        )
        if closed != general:
            _report("criterion 4 (discriminant)", False, str(fam))
        checked += 1
    # resultant route on a subsample (the full grid would be slow at p=13)
    rng = random.Random(4)
    fams = [TrinomialFamily(p, rng.choice(range(1, 31)), rng.choice((1, -1)))
            for p in (3, 5) for _ in range(20)]
    for fam in fams:
        if swan_disc_f(fam) != poly.discriminant(fam.trinomial.polynomial()):
            _report("criterion 4 (discriminant)", False,
                    f"resultant mismatch {fam}")
        checked += 1
    _report("criterion 4 (discriminant)", True, f"{checked} bit-exact")


def test_criterion_5_galois_density():
    details = []
    for (p, a, b), inv_order in (((3, 1, 1), 6), ((3, 4, 1), 12)):
        fam = TrinomialFamily(p, a, b)
        claimed = galois_group(fam)
        assert claimed.order == inv_order
        rep = frobenius_sample(fam, 2000)
        target = Fraction(1, inv_order)
        rel = abs(rep.split_fraction - target) / target
        spectrum = element_order_spectrum(claimed.kind, p)
        if rel > Fraction(35, 100) or not (
            set(rep.observed_orders) <= spectrum.orders
        ):
            _report("criterion 5 (Galois density)", False,
                    f"({p},{a},{b}): split={rep.split_fraction} rel={float(rel):.3f}")
        details.append(f"({p},{a},{b}) split={float(rep.split_fraction):.4f}")
    fam = TrinomialFamily(5, 3, 1)
    claimed = galois_group(fam)
    rep = frobenius_sample(fam, 2000)
    v_true = consistency_check(fam, claimed, rep)
    v_wrong = consistency_check(
        fam, GaloisClass(GaloisKind.FULL_TIMES_C2, 5), rep
    )
    ok = v_true == "consistent" and v_wrong == "inconsistent"
    details.append(f"(5,3,1) true={v_true} alt40={v_wrong}")
    _report("criterion 5 (Galois density)", ok, "; ".join(details))


def test_criterion_6_corollary_scan():
    rows = list(cli.corollary_scan_rows(100, {}))
    prime_z = [r["z"] for r in rows if r["p_is_prime"]]
    fixture_20 = [z for z in prime_z if z <= 20]
    ok = fixture_20 == [1, 3, 5, 7, 13, 15, 17]
    bad = [r for r in rows if r["p_is_prime"] and not r["consistent"]]
    ok = ok and not bad
    _report(
        "criterion 6 (z^2+4 corollary scan)",
        ok,
        f"{len(prime_z)} primes up to z=100, all monogenic Frobenius, "
        "a-unique" if ok else f"bad rows: {bad}",
    )


def test_criterion_7_sign_symmetry():
    rng = random.Random(7)
    checked = 0
    while checked < 1000:
        p = rng.choice(GRID_PRIMES)
        a = rng.choice([v for v in range(-GRID_A, GRID_A + 1) if v])
        b = rng.choice((1, -1))
        c1 = classify(TrinomialFamily(p, a, b))
        c2 = classify(TrinomialFamily(p, -a, b))
        same = (
            c1.irreducible == c2.irreducible
            and c1.monogenic == c2.monogenic
            and (c1.galois.kind if c1.galois else None)
            == (c2.galois.kind if c2.galois else None)
        )
        if not same:
            _report("criterion 7 (sign symmetry)", False, f"({p},{a},{b})")
        checked += 1
    _report("criterion 7 (sign symmetry)", True, f"{checked} pairs agree")


def test_criterion_8_item3b_equivalence():
    checked = 0
    for b in (1, -1):
        for a in range(-2000, 2001):
            if a == 0:
                continue
            fam = TrinomialFamily(3, a, b)
            if fam.delta % 3 != 0:
                continue
            if case_label(fam) not in (
                CaseKind.OMEGA_B1, CaseKind.OMEGA_BNEG1
            ):
                continue
            if not family_is_irreducible(fam):
                continue
            if b == 1:
                direct = (
                    not (a % 2 == 0 and a % 4 != 0)
                    and a != 2 and a != -2
                    and arith.is_squarefree(
                        (a - 2) // (2 if a % 2 == 0 else 1)
                    )
                    and arith.is_squarefree(
                        (a + 2) // (2 if a % 2 == 0 else 1)
                    )
                )
            else:
                g = 2 if a % 2 == 0 else 1
                direct = a % 4 != 0 and arith.is_squarefree(
                    (a * a + 4) // (g * g)
                )
            engine, _ = kkr_monogenic(fam)
            if engine != direct:
                _report("criterion 8 (item 3b predicate)", False,
                        f"a={a} b={b}: engine={engine} direct={direct}")
            checked += 1
    _report("criterion 8 (item 3b predicate)", checked > 1000,
            f"{checked} instances agree")
