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
    build_chain_model,
    chain_euler_character_cech,
    chain_euler_character_localization,
    degree_range,
    invariant_g0_n3,
    invariant_g0_n4_boundary,
    invariant_g0_n4_localization,
    stabilization_report,
    weight_zero_part,
)
from gieseker.invariants import _assemble_line_data, _chain_values

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
        model = build_chain_model(0, AdmissibleClassSpec(Fraction(1)), (0, 3))
        assert len(model.points) == 4
        assert len(model.components) == 3

    def test_fixed_point_exponents(self):
        d, q = 2, Fraction(1)
        line = _assemble_line_data(AdmissibleClassSpec(q), d, (-2, 2))
        assert sorted(line.fibers) == [-2, -1, 0, 1, 2]
        for n, fiber in line.fibers.items():
            assert fiber == (q * (d + n), q * (1 - n))

    def test_tangent_weights(self):
        model = build_chain_model(0, AdmissibleClassSpec(Fraction(1)), (0, 1))
        for point in model.points:
            assert point.tangent_weights == ((Fraction(1), Fraction(-1)), (Fraction(-1), Fraction(1)))

    def test_adjacent_components_share_one_point(self):
        model = build_chain_model(1, AdmissibleClassSpec(Fraction(1)), (-2, 2))
        for left, right in zip(model.components, model.components[1:]):
            shared = set(left.endpoints) & set(right.endpoints)
            assert len(shared) == 1

    def test_line_bundle_degree_is_integer_step(self):
        d, q = 0, Fraction(2)
        model = build_chain_model(d, AdmissibleClassSpec(q), (-1, 2))
        for comp in model.components:
            n = comp.n
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


def engine_value(chi, spec, d, window):
    """Weight-zero value of a public engine on the class restricted to its
    own chain window."""
    return weight_zero_part(chi(build_chain_model(d, spec, window), _assemble_line_data(spec, d, window)))


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
