import random
from fractions import Fraction

import pytest

from gieseker import (
    AdmissibleClassSpec,
    ChainLineData,
    DomainError,
    EvaluationInsertion,
    IndexInsertion,
    LaurentCharacter,
    StabilizationReport,
    build_chain_model,
    chain_euler_character_cech,
    chain_euler_character_localization,
    chain_point_blocks,
    char_mul,
    char_pow,
    class_weight,
    degree_range,
    index_character,
    invariant_g0_n3,
    invariant_g0_n4_boundary,
    invariant_g0_n4_localization,
    stabilization_report,
    weight_zero_part,
)
from gieseker import invariants
from gieseker.invariants import (
    InvariantResult,
    _chain_label,
    _chain_values,
    _sections_localization,
    _sections_progression,
    _stable_from,
)

U = (Fraction(1), Fraction(-1))


def vec(a, b):
    return (Fraction(a), Fraction(b))


def vadd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def vscale(c, x):
    return (Fraction(c) * x[0], Fraction(c) * x[1])


def random_spec(rng, integer_q=False, max_evals=3, max_indices=2):
    qs = [Fraction(1), Fraction(2), Fraction(3)] if integer_q else [
        Fraction(1), Fraction(1, 2), Fraction(2), Fraction(3, 2)
    ]
    evals = tuple(
        EvaluationInsertion(str(rng.randint(1, 4)), rng.randint(-5, 5), rng.randint(0, 2))
        for _ in range(rng.randint(0, max_evals))
    )
    indices = tuple(
        IndexInsertion(rng.randint(-2, 2), rng.randint(0, 2))
        for _ in range(rng.randint(0, max_indices))
    )
    return AdmissibleClassSpec(rng.choice(qs), evals, indices)


def scan_oracle_g0n3(spec, lo=-200, hi=200):
    """Independent brute-force weight-zero scan over total degrees."""
    total = 0
    support = {}
    for d in range(lo, hi + 1):
        exponent = spec.q * (d + 1)
        coefficient = 1
        for ev in spec.evaluations:
            exponent -= ev.weight
        for ins in spec.indices:
            exponent -= ins.weight * ins.power
            coefficient *= (ins.weight * d + 1) ** ins.power
        if exponent == 0 and coefficient != 0:
            total += coefficient
            support[d] = coefficient
    return total, support


class TestG0N3:
    def test_plain_twist(self):
        result = invariant_g0_n3(AdmissibleClassSpec(Fraction(1)))
        assert result.value == 1
        assert dict(result.breakdown) == {-1: 1}

    def test_one_evaluation(self):
        spec = AdmissibleClassSpec(Fraction(1), (EvaluationInsertion("1", 3),))
        result = invariant_g0_n3(spec)
        assert result.value == 1
        assert result.contributing_degrees == (2,)

    def test_one_index_class(self):
        spec = AdmissibleClassSpec(Fraction(1), (), (IndexInsertion(1, 1),))
        result = invariant_g0_n3(spec)
        assert dict(result.breakdown) == {0: 1}

    def test_matches_scan_oracle(self):
        rng = random.Random(23)
        for _ in range(25):
            spec = random_spec(rng)
            value, support = scan_oracle_g0n3(spec)
            result = invariant_g0_n3(spec)
            assert result.value == value
            assert set(result.contributing_degrees) == set(support)


class TestChainModel:
    def test_window_counts(self):
        model = build_chain_model(5, AdmissibleClassSpec(Fraction(1)), (0, 3))
        assert model.total_degree == 5
        assert model.window == (0, 3)

    def test_fixed_point_exponents(self):
        # without insertions the class's weight at pt_n is the twist line
        # bundle's fiber alone
        d, q = 2, Fraction(1)
        spec = AdmissibleClassSpec(q)
        for n in range(-2, 3):
            weight = class_weight(spec, _chain_label(d, n), {("a",): 0, ("b",): 0}, chain_point_blocks())
            assert weight == LaurentCharacter.monomial(2, (q * (d + n), q * (1 - n)))

    def test_line_bundle_degree_is_integer_step(self):
        d, q = 0, Fraction(2)
        model = build_chain_model(d, AdmissibleClassSpec(q), (-1, 2))
        lo, hi = model.window
        for n in range(lo, hi):
            phi_a = vec(q * (d + n), q * (1 - n))
            phi_b = vec(q * (d + n + 1), q * (-n))
            diff = (phi_a[0] - phi_b[0], phi_a[1] - phi_b[1])
            # difference is an integer multiple of the tangent direction
            m = diff[0] / U[0]
            assert m.denominator == 1
            assert diff == vscale(m, U)
            assert int(m) == -q

    def test_empty_window_rejected(self):
        with pytest.raises(DomainError):
            build_chain_model(0, AdmissibleClassSpec(Fraction(1)), (2, 1))


def line_from_degrees(start_fiber, degrees, window):
    """Fibers forced by per-component degrees along the chain."""
    lo, hi = window
    fibers = {lo: start_fiber}
    for n in range(lo, hi):
        fibers[n + 1] = vadd(fibers[n], vscale(-degrees[n], U))
    return ChainLineData(degrees, fibers)


def monomial_chart_sections(m, fiber_at_origin):
    """Oracle for one component: sections of a degree-m bundle are the
    monomials 1, z, .., z^m in the chart coordinate at the first fixed
    point; multiplying by z shifts the weight by minus the chart weight."""
    terms = {}
    for j in range(m + 1):
        exp = vadd(fiber_at_origin, vscale(-j, U))
        terms[exp] = terms.get(exp, 0) + 1
    return LaurentCharacter.from_terms(2, terms)


# -- the line-data design, kept as the oracle of the weight-based chain -----


def ref_assemble_line_data(spec, d, window):
    """Split the admissible class on the chain into its line-bundle part
    (twist line bundle and evaluations; every component has degree -q)
    and the index factors as locally constant multipliers."""
    lo, hi = window
    eval_shift = [Fraction(0), Fraction(0)]
    point_blocks = chain_point_blocks()
    for ev in spec.evaluations:
        if ev.label not in point_blocks:
            raise DomainError(f"marked point {ev.label} has no block assignment")
        side = 0 if point_blocks[ev.label] == ("a",) else 1
        eval_shift[side] -= ev.weight
    if spec.q.denominator != 1:
        raise DomainError(
            "the boundary-chain computation needs integer component degrees; "
            f"the twist line bundle has degree -q = {-spec.q} per component"
        )
    q = int(spec.q)
    fibers = {}
    multipliers = {}
    genera = {("a",): 0, ("b",): 0}
    for n in range(lo, hi + 1):
        fibers[n] = (
            Fraction(spec.q * (d + n)) + eval_shift[0],
            Fraction(spec.q * (1 - n)) + eval_shift[1],
        )
        mult = LaurentCharacter.one(2)
        label = _chain_label(d, n)
        for ins in spec.indices:
            mult = char_mul(mult, char_pow(index_character(label, genera, ins.weight), ins.power))
        multipliers[n] = mult
    degrees = {n: -q for n in range(lo, hi)}
    return ChainLineData(degrees, fibers, multipliers)


def ref_chain_values(spec, d, span, engine):
    """Weight-zero chain value on any sub-window [a, b] of the span, from
    each fixed point's terms times its multiplier: the fiber, and the
    sections of the component that starts there (zero at the span's right
    end)."""
    model = build_chain_model(d, spec, span)
    line = ref_assemble_line_data(spec, d, span)
    sections_of = _sections_progression if engine == "cech" else _sections_localization
    lo, hi = model.window
    fiber = {}
    prefix = {lo: 0}  # prefix[n]: sections(k) - fiber(k) summed over k < n
    for n in range(lo, hi + 1):
        mult = line.multiplier(n)
        if n == hi:
            sections = LaurentCharacter.zero(2)
        else:
            sections = sections_of(line.degrees[n], line.fibers[n])
        fiber[n] = weight_zero_part(char_mul(LaurentCharacter.monomial(2, line.fibers[n]), mult))
        prefix[n + 1] = prefix[n] + weight_zero_part(char_mul(sections, mult)) - fiber[n]
    return lambda a, b: fiber[a] + prefix[b] - prefix[a]


def ref_g0n3_character(spec, d):
    """Single-variable fixed-point character at total degree d."""
    out = LaurentCharacter.monomial(1, (spec.q * (d + 1),))
    for ev in spec.evaluations:
        out = char_mul(out, LaurentCharacter.monomial(1, (Fraction(-ev.weight),)))
    for ins in spec.indices:
        factor = LaurentCharacter.monomial(1, (Fraction(-ins.weight),), ins.weight * d + 1)
        out = char_mul(out, char_pow(factor, ins.power))
    return out


def ref_invariant_g0_n3(spec, scan=None):
    degrees = sorted(scan) if scan is not None else list(degree_range(spec, 0, 3))
    breakdown = {d: weight_zero_part(ref_g0n3_character(spec, d)) for d in degrees}
    contributing = tuple(sorted(d for d, v in breakdown.items() if v))
    truncation = max((abs(d) for d in contributing), default=0)
    return InvariantResult(sum(breakdown.values()), contributing, breakdown, truncation)


def ref_g0n3_report(spec):
    """The three-point truncation table with one invariant per row."""
    predicted = max((abs(d) for d in degree_range(spec, 0, 3)), default=0)
    final = ref_invariant_g0_n3(spec).value
    values = [ref_invariant_g0_n3(spec, scan=range(-t, t + 1)).value for t in range(predicted + 4)]
    observed = _stable_from(values, final)
    if observed > predicted:
        raise RuntimeError(
            f"observed stabilization {observed} exceeds the predicted bound {predicted}"
        )
    return StabilizationReport("g0n3", tuple(enumerate(values)), observed, predicted, final)


def engine_value(chi, spec, d, window):
    """Weight-zero value of a public engine on the class restricted to its
    own chain window."""
    return weight_zero_part(chi(build_chain_model(d, spec, window), ref_assemble_line_data(spec, d, window)))


class TestChainChi:
    def model(self, window):
        return build_chain_model(0, AdmissibleClassSpec(Fraction(1)), window)

    def test_degree_zero_single_component(self):
        line = line_from_degrees(vec(2, 1), {0: 0}, (0, 1))
        out = chain_euler_character_cech(self.model((0, 1)), line)
        assert out == LaurentCharacter.monomial(2, vec(2, 1))

    def test_degree_minus_one(self):
        line = line_from_degrees(vec(0, 0), {0: -1}, (0, 1))
        out = chain_euler_character_cech(self.model((0, 1)), line)
        assert out == LaurentCharacter.zero(2)

    def test_degree_two_monomial_oracle(self):
        line = line_from_degrees(vec(1, 0), {0: 2}, (0, 1))
        out = chain_euler_character_cech(self.model((0, 1)), line)
        assert out == monomial_chart_sections(2, vec(1, 0))

    def test_serre_duality_negative_degrees(self):
        # chi(O(m)) = -chi(O(-m-2)) shifted: check term counts and sign
        for m in (-2, -3, -5):
            line = line_from_degrees(vec(0, 0), {0: m}, (0, 1))
            out = chain_euler_character_cech(self.model((0, 1)), line)
            assert sum(c for _, c in out.terms) == m + 1

    def test_inconsistent_fibers_rejected(self):
        bad = ChainLineData({0: 1}, {0: vec(0, 0), 1: vec(5, 5)})
        with pytest.raises(DomainError):
            chain_euler_character_cech(self.model((0, 1)), bad)

    def test_engines_agree_on_random_line_data(self):
        rng = random.Random(31)
        for _ in range(25):
            lo = rng.randint(-6, 2)
            hi = lo + rng.randint(1, 11)
            window = (lo, hi)
            degrees = {n: rng.randint(-4, 4) for n in range(lo, hi)}
            start = vec(rng.randint(-5, 5), rng.randint(-5, 5))
            mult = {
                n: LaurentCharacter.from_terms(
                    2,
                    {
                        vec(rng.randint(-2, 2), rng.randint(-2, 2)): rng.randint(-3, 3)
                        for _ in range(rng.randint(0, 2))
                    },
                )
                for n in range(lo, hi + 1)
            }
            line = ChainLineData(degrees, line_from_degrees(start, degrees, window).fibers, mult)
            model = self.model(window)
            a = chain_euler_character_cech(model, line)
            b = chain_euler_character_localization(model, line)
            assert a == b

    def test_point_terms_match_engines_on_subwindows(self):
        # one pass over a span gives the chain value of every sub-window
        rng = random.Random(53)
        for _ in range(20):
            spec = random_spec(rng, integer_q=True)
            d = rng.randint(-4, 4)
            lo = rng.randint(-7, 2)
            span = (lo, lo + rng.randint(0, 9))
            for engine, chi in (
                ("cech", chain_euler_character_cech),
                ("localization", chain_euler_character_localization),
            ):
                value_on = _chain_values(spec, d, span, engine)
                for _ in range(4):
                    a = rng.randint(*span)
                    b = rng.randint(a, span[1])
                    assert value_on(a, b) == engine_value(chi, spec, d, (a, b))

    def test_degenerate_window_gives_fiber(self):
        model = build_chain_model(0, AdmissibleClassSpec(Fraction(1)), (3, 3))
        line = ChainLineData({}, {3: vec(1, -1)})
        out = chain_euler_character_localization(model, line)
        assert out == LaurentCharacter.monomial(2, vec(1, -1))


class TestG0N4:
    def test_plain_twist_value(self):
        # multidegree (-1, ..., -1) chain: chi = minus the node fibers,
        # and only the node at n = 1 has weight zero
        result = invariant_g0_n4_boundary(AdmissibleClassSpec(Fraction(1)))
        assert result.value == -1
        assert dict(result.breakdown) == {-1: -1}

    def test_methods_agree_on_random_specs(self):
        rng = random.Random(37)
        for _ in range(12):
            spec = random_spec(rng, integer_q=True)
            a = invariant_g0_n4_boundary(spec)
            b = invariant_g0_n4_localization(spec)
            assert a.value == b.value
            assert a.breakdown == b.breakdown

    def test_agrees_with_explicit_scan(self):
        spec = AdmissibleClassSpec(Fraction(1), (EvaluationInsertion("1", 2),))
        scanned = invariant_g0_n4_boundary(spec, scan=range(-8, 9))
        auto = invariant_g0_n4_boundary(spec)
        assert scanned.value == auto.value
        assert scanned.contributing_degrees == auto.contributing_degrees

    def test_breakdown_supported_on_degree_range(self):
        rng = random.Random(41)
        for _ in range(8):
            spec = random_spec(rng, integer_q=True)
            result = invariant_g0_n4_boundary(spec, scan=range(-6, 7))
            allowed = set(degree_range(spec, 0, 4))
            assert set(result.contributing_degrees) <= allowed

    def test_window_padding_invariance(self):
        spec = AdmissibleClassSpec(Fraction(2), (EvaluationInsertion("3", 1),))
        base_value = invariant_g0_n4_boundary(spec).value
        assert invariant_g0_n4_boundary(spec, window=(-9, 9)).value == base_value
        assert invariant_g0_n4_boundary(spec, window=(-14, 14)).value == base_value

    def test_no_zero_anywhere_gives_zero(self):
        spec = AdmissibleClassSpec(Fraction(2), (EvaluationInsertion("1", 1),))
        # 2(d+1) = 1 has no integer solution: every term misses weight zero
        result = invariant_g0_n4_boundary(spec, scan=range(-5, 6))
        assert result.value == 0
        assert result.contributing_degrees == ()

    def test_reversed_window_rejected(self):
        with pytest.raises(DomainError, match="empty chain window"):
            invariant_g0_n4_boundary(AdmissibleClassSpec(Fraction(1)), window=(3, 1))

    def test_fractional_q_is_rejected_with_explanation(self):
        with pytest.raises(DomainError, match="integer component degrees"):
            invariant_g0_n4_boundary(AdmissibleClassSpec(Fraction(1, 2)))


class TestStabilization:
    def test_g0n3_truncation_table(self):
        spec = AdmissibleClassSpec(
            Fraction(1),
            (EvaluationInsertion("1", 1), EvaluationInsertion("2", 1), EvaluationInsertion("3", 1)),
        )
        report = stabilization_report(spec, "g0n3")
        assert report.value == 1
        assert report.observed <= report.predicted
        final = [v for _, v in report.rows]
        assert final[-1] == report.value
        assert all(v == report.value for _, v in report.rows[report.observed :])

    def test_g0n4_observed_within_prediction(self):
        rng = random.Random(43)
        for _ in range(6):
            spec = random_spec(rng, integer_q=True, max_evals=2, max_indices=1)
            report = stabilization_report(spec, "g0n4-boundary")
            assert report.observed <= report.predicted
            assert all(v == report.value for _, v in report.rows[report.observed :])

    def test_g0n4_report_reads_the_invariants_sweep(self):
        rng = random.Random(47)
        for _ in range(6):
            spec = random_spec(rng, integer_q=True, max_evals=2, max_indices=1)
            report = stabilization_report(spec, "g0n4-boundary")
            result = invariant_g0_n4_boundary(spec)
            assert report.observed == result.stabilization_truncation
            assert report.value == result.value
            supported = degree_range(spec, 0, 4)
            assert list(report.rows) == [
                (t, sum(engine_value(chain_euler_character_cech, spec, d, (-t, t)) for d in supported))
                for t in range(report.predicted + 4)
            ]

    def test_unknown_case(self):
        with pytest.raises(DomainError):
            stabilization_report(AdmissibleClassSpec(Fraction(1)), "g1n1")


def oracle_spec(rng):
    """A class with the insertions the oracle covers, an explicit window
    now and then (empty or too narrow among them) and a degree scan now
    and then."""
    q = rng.choice([Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2), Fraction(3, 2)])
    labels = "1234" + "5" * (rng.random() < 0.1)
    evals = tuple(
        EvaluationInsertion(rng.choice(labels), rng.randint(-4, 4), rng.randint(0, 2))
        for _ in range(rng.randint(0, 4))
    )
    indices = tuple(
        IndexInsertion(rng.randint(-3, 3), rng.randint(0, 3)) for _ in range(rng.randint(0, 3))
    )
    window = scan = None
    if rng.random() < 0.15:
        lo = rng.randint(-12, 4)
        window = (lo, lo + rng.randint(-2, 14))
    if rng.random() < 0.15:
        scan = range(rng.randint(-6, 0), rng.randint(0, 6))
    return AdmissibleClassSpec(q, evals, indices), window, scan


def outcome(f, *args, **kwargs):
    try:
        return f(*args, **kwargs)
    except (DomainError, RuntimeError) as exc:
        return type(exc), str(exc)


def g0n4_outcomes(spec, window, scan):
    return [
        outcome(invariant_g0_n4_boundary, spec, window, scan),
        outcome(invariant_g0_n4_localization, spec, window, scan),
        outcome(stabilization_report, spec, "g0n4-boundary"),
    ]


def test_class_weight_matches_the_line_data_oracle(monkeypatch):
    rng = random.Random(61)
    cases = [oracle_spec(rng) for _ in range(300)]
    for spec, _, scan in cases:
        assert outcome(invariant_g0_n3, spec, scan) == outcome(ref_invariant_g0_n3, spec, scan)
        assert outcome(stabilization_report, spec, "g0n3") == outcome(ref_g0n3_report, spec)
    weights = [g0n4_outcomes(*case) for case in cases]
    monkeypatch.setattr(invariants, "_chain_values", ref_chain_values)
    assert weights == [g0n4_outcomes(*case) for case in cases]
    # the seeded cases reach every outcome: values, each error, and a narrow window
    texts = {str(o) for row in weights for o in row}
    assert any("has no block assignment" in t for t in texts)
    assert any("integer component degrees" in t for t in texts)
    assert any("empty chain window" in t for t in texts)
    assert any("stabilization failure" in t for t in texts)
    assert sum(isinstance(row[0], InvariantResult) and row[0].value != 0 for row in weights) >= 20
