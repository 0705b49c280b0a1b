import itertools
from dataclasses import fields, replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oagw.fragments
import reference
from oagw.elements import ConstructionMismatch, GAMMA, LAMBDA, element, zero
from oagw.fragments import FragmentConfig, iter_fragment
from oagw.positions import g1_circle, g1_square, g2_circle, g2_square
from oagw.sampling import case_rng, random_element

S00 = g1_square(0, 0)


def test_empty_inputs_give_zero():
    out = list(iter_fragment([], FragmentConfig(), LAMBDA))
    assert out == [zero(LAMBDA)]


def test_no_generator_stops_after_zero(monkeypatch):
    # with no nonzero generator every layer spans only zero, so no layer
    # may be walked, however huge the coefficient bound: a walk fails at
    # once instead of running for ever
    def walked(m, n):
        raise AssertionError(f"walked layer {m}")

    monkeypatch.setattr(oagw.fragments, "_box", walked)
    z = zero(LAMBDA)
    for params, pool in (([], ()), ([z], ()), ([], (z,))):
        cfg = FragmentConfig(coeff_bound=10**6, generator_pool=pool)
        assert list(iter_fragment(params, cfg, LAMBDA)) == [z]


def test_single_param_bound_one():
    a = element(LAMBDA, {S00: {0: 1}})
    out = list(iter_fragment([a], FragmentConfig(coeff_bound=1), LAMBDA))
    assert out == [zero(LAMBDA), a, -a]


def test_contains_combination():
    a = element(LAMBDA, {S00: {0: 1}})
    b = element(LAMBDA, {S00: {1: 1}})
    g = element(LAMBDA, {g2_circle(0): 1})
    cfg = FragmentConfig(coeff_bound=2, generator_pool=(g,), size_cap=10_000)
    out = list(iter_fragment([a, b], cfg, LAMBDA))
    assert a.scale(2) - b + g in out


def test_zero_and_params_always_first():
    a = element(LAMBDA, {S00: {0: 5}})
    out = list(iter_fragment([a], FragmentConfig(coeff_bound=3, size_cap=2), LAMBDA))
    assert out[0] == zero(LAMBDA)
    assert out[1] == a


def test_deterministic():
    a = element(LAMBDA, {S00: {0: 1, 2: -1}})
    g = element(LAMBDA, {g2_circle(1): 1})
    cfg = FragmentConfig(3, (g,), 500)
    assert list(iter_fragment([a], cfg, LAMBDA)) == list(iter_fragment([a], cfg, LAMBDA))


def test_no_duplicates():
    a = element(LAMBDA, {S00: {0: 1}})
    out = list(iter_fragment([a, a], FragmentConfig(coeff_bound=2, generator_pool=(a,)), LAMBDA))
    assert len(out) == len(set(out))


def test_mixed_constructions_rejected():
    a = element(LAMBDA, {S00: {0: 1}})
    b = element(GAMMA, {g2_circle(0): 1})
    with pytest.raises(ConstructionMismatch):
        list(iter_fragment([a, b], FragmentConfig(), LAMBDA))
    with pytest.raises(ConstructionMismatch):
        list(iter_fragment([a], FragmentConfig(generator_pool=(b,)), LAMBDA))
    with pytest.raises(ConstructionMismatch):
        list(iter_fragment([a], FragmentConfig(), GAMMA))


def test_size_cap_respected():
    a = element(LAMBDA, {S00: {0: 1}})
    b = element(LAMBDA, {S00: {1: 1}})
    out = list(iter_fragment([a, b], FragmentConfig(coeff_bound=3, size_cap=11), LAMBDA))
    assert len(out) == 11


@pytest.mark.parametrize(
    "kwargs,error",
    [
        ({"size_cap": 0}, ValueError),
        ({"size_cap": -3}, ValueError),
        ({"coeff_bound": -1}, ValueError),
        ({"size_cap": 2.0}, TypeError),
        ({"coeff_bound": True}, TypeError),
        ({"generator_pool": ["x"]}, TypeError),
        ({"generator_pool": ("x",)}, TypeError),
        ({"generator_pool": [element(LAMBDA, {S00: {0: 1}})]}, TypeError),
    ],
)
def test_config_rejects_what_breaks_the_enumeration(kwargs, error):
    with pytest.raises(error):
        FragmentConfig(**kwargs)


def test_smallest_valid_config():
    a = element(LAMBDA, {S00: {0: 1}})
    cfg = FragmentConfig(coeff_bound=0, generator_pool=(a,), size_cap=1)
    assert list(iter_fragment([a], cfg, LAMBDA)) == [zero(LAMBDA)]
    assert replace(cfg) == cfg
    # the config is its four fields and nothing else: a run that reaches
    # the pool leaves it as a copy built afresh, and equal to that copy
    assert [f.name for f in fields(FragmentConfig)] == [
        "coeff_bound", "generator_pool", "size_cap", "seed"
    ]
    filled = replace(cfg, coeff_bound=1, size_cap=2)
    assert list(iter_fragment([], filled, LAMBDA)) == [zero(LAMBDA), a]
    assert vars(filled) == vars(replace(filled))
    assert replace(filled) == filled


def _computed_parts(monkeypatch, gens):
    """The coefficient vectors of the parts that fragments compute over
    generators among ``gens``, recorded by wrapping ``_part``."""
    computed, original, among = [], oagw.fragments._part, set(gens)

    def recording(memo, part_gens, vec):
        if vec not in memo and among.issuperset(part_gens):
            computed.append(vec)
        return original(memo, part_gens, vec)

    monkeypatch.setattr(oagw.fragments, "_part", recording)
    return computed


def _pool_cases():
    a = element(LAMBDA, {S00: {0: 1, 2: -1}})
    b = element(LAMBDA, {S00: {1: 2}, g2_circle(0): Fraction(1, 2)})
    g = element(LAMBDA, {g2_square(1): {0: 1}})
    yield [a, b, a], (g, a, a.scale(2), zero(LAMBDA))
    c = element(GAMMA, {g2_circle(0): Fraction(1, 3)})
    d = element(GAMMA, {g2_circle(0): Fraction(-2, 3), g1_circle(0): 1})
    h = element(GAMMA, {g2_square(0): Fraction(5, 2)})
    yield [c, d], (h, c.scale(-1), zero(GAMMA))
    for i, construction in enumerate((LAMBDA, GAMMA)):
        rng = case_rng(11, i)
        els = [random_element(rng, construction, 3) for _ in range(4)]
        yield els[:2], tuple(els[2:]) + (els[0],)


@pytest.mark.parametrize("coeff_bound,size_cap", [(1, 10_000), (2, 37), (2, 10_000), (3, 200)])
def test_matches_naive_reference(coeff_bound, size_cap):
    for params, pool in _pool_cases():
        construction = pool[0].construction
        cfg = FragmentConfig(coeff_bound, pool, size_cap)
        got = list(iter_fragment(params, cfg, construction))
        assert got == list(reference.fragment(construction, params, cfg))


@pytest.mark.parametrize("coeff_bound,size_cap", [(1, 10_000), (2, 37), (3, 200)])
def test_one_config_reused_matches_naive_reference(coeff_bound, size_cap):
    # a param that is zero or a pool generator drops an axis of the pool,
    # so the calls through one config span different pools; none leaves
    # anything behind in the config
    for params, pool in _pool_cases():
        construction = pool[0].construction
        cfg = FragmentConfig(coeff_bound, pool, size_cap)
        calls = [params, [], params[:1], [pool[0]], params, [zero(construction)], []]
        for p in calls:
            want = list(reference.fragment(construction, p, cfg))
            assert list(iter_fragment(p, cfg, construction)) == want
        assert vars(cfg) == vars(FragmentConfig(coeff_bound, pool, size_cap))


def test_matches_naive_reference_five_generators():
    # five generators at coefficient bound 3 span 7**5 vectors; both caps
    # truncate inside the layer of largest coefficient 2, after many
    # vectors that share a prefix with the one before
    for i, construction in enumerate((LAMBDA, GAMMA)):
        rng = case_rng(41, i)
        els = [random_element(rng, construction, 2) for _ in range(5)]
        for size_cap in (300, 1200):
            cfg = FragmentConfig(3, tuple(els[2:]), size_cap)
            got = list(iter_fragment(els[:2], cfg, construction))
            assert len(got) == size_cap
            assert got == list(reference.fragment(construction, els[:2], cfg))


def _shared_calls(construction):
    rng = case_rng(17, 0 if construction is LAMBDA else 1)
    pool = tuple(random_element(rng, construction, 2) for _ in range(3))
    p, q = (random_element(rng, construction, 2) for _ in range(2))
    # the whole pool is spanned in some calls and loses an axis in others
    return pool, [[], [p], [pool[1]], [p, q], [zero(construction)], [q, q], [p], []]


@pytest.mark.parametrize("construction", [LAMBDA, GAMMA])
@pytest.mark.parametrize("coeff_bound,size_cap", [(1, 10_000), (2, 10), (2, 60), (3, 200)])
def test_shared_pool_matches_naive_reference(construction, coeff_bound, size_cap):
    pool, calls = _shared_calls(construction)
    cfg = FragmentConfig(coeff_bound, pool, size_cap)
    for params in calls:
        got = list(iter_fragment(params, cfg, construction))
        assert got == list(reference.fragment(construction, params, cfg))


@pytest.mark.parametrize("construction", [LAMBDA, GAMMA])
def test_shared_pool_after_an_abandoned_and_a_suspended_fragment(construction):
    pool, calls = _shared_calls(construction)
    cfg = FragmentConfig(2, pool, 80)
    # an existential stops after a few candidates, and a later fragment
    # through the same config starts afresh
    abandoned = iter_fragment([], cfg, construction)
    want = reference.fragment(construction, [], cfg)
    assert list(itertools.islice(abandoned, 6)) == list(itertools.islice(want, 6))
    abandoned.close()
    # an outer quantifier's fragment stays suspended while inner ones run
    outer = iter_fragment(calls[1], cfg, construction)
    got_outer = list(itertools.islice(outer, 20))
    for params in calls:
        want = list(reference.fragment(construction, params, cfg))
        assert list(iter_fragment(params, cfg, construction)) == want
    got_outer += list(outer)
    assert got_outer == list(reference.fragment(construction, calls[1], cfg))


@pytest.mark.parametrize("construction", [LAMBDA, GAMMA])
@pytest.mark.parametrize("call", [0, 1])
def test_abandoned_fragment_computes_no_part_it_did_not_reach(construction, call, monkeypatch):
    # the pool parts of a layer are computed as the walk reaches them:
    # each one the fragment computed was a candidate it yielded
    pool, calls = _shared_calls(construction)
    params = calls[call]
    computed = _computed_parts(monkeypatch, pool)
    for n in (1, 2, 5, 12, 30):
        computed.clear()
        cfg = FragmentConfig(3, pool, 10_000)
        running = iter_fragment(params, cfg, construction)
        got = list(itertools.islice(running, n))
        running.close()
        assert got == list(reference.fragment(construction, params, replace(cfg, size_cap=n)))
        # the parts computed are at most the candidates past zero and params
        assert len(computed) <= len(got[1 + len(params):])


@settings(max_examples=40, deadline=None)
@given(
    construction=st.sampled_from([LAMBDA, GAMMA]),
    seed=st.integers(min_value=0, max_value=2**32),
    coeff_bound=st.integers(min_value=0, max_value=2),
    size_cap=st.integers(min_value=1, max_value=80),
    data=st.data(),
)
def test_shared_pool_fragments_in_any_interleaving(construction, seed, coeff_bound, size_cap, data):
    rng = case_rng(seed, 0)
    pool = tuple(random_element(rng, construction, 2) for _ in range(3))
    others = [random_element(rng, construction, 2) for _ in range(2)] + list(pool)
    cfg = FragmentConfig(coeff_bound, pool, size_cap)
    # params may repeat, be zero or coincide with a pool generator, so the
    # fragments through one config span the whole pool or lose an axis of it
    calls = data.draw(
        st.lists(st.lists(st.sampled_from(others), max_size=2), min_size=2, max_size=5)
    )
    running = [iter_fragment(params, cfg, construction) for params in calls]
    got: list[list] = [[] for _ in calls]
    # each fragment is abandoned after a random prefix, in a random interleaving
    wanted = [data.draw(st.integers(min_value=0, max_value=size_cap + 1)) for _ in calls]
    schedule = data.draw(st.permutations([i for i, n in enumerate(wanted) for _ in range(n)]))
    for i in schedule:
        x = next(running[i], None)
        if x is not None:
            got[i].append(x)
    for params, prefix, n in zip(calls, got, wanted):
        want = list(itertools.islice(reference.fragment(construction, params, cfg), n))
        assert prefix == want


def test_shared_empty_pool_serves_both_constructions():
    # one config with an empty pool serves both constructions, each
    # fragment starting from its own construction's zero
    cfg = FragmentConfig(2, (), 50)
    a = element(LAMBDA, {S00: {0: 1}})
    c = element(GAMMA, {g2_circle(0): Fraction(1, 3)})
    for params in ([a], [c], [a], [c]):
        construction = params[0].construction
        got = list(iter_fragment(params, cfg, construction))
        assert got == list(reference.fragment(construction, params, cfg))
        assert got[0] is zero(construction)
        assert all(x.construction is construction for x in got)
    assert vars(cfg) == vars(FragmentConfig(2, (), 50))


def test_pool_of_another_construction_raises_on_every_call():
    a = element(LAMBDA, {S00: {0: 1}})
    c = element(GAMMA, {g2_circle(0): Fraction(1, 3)})
    cfg = FragmentConfig(2, (c,), 50)
    for _ in range(3):
        with pytest.raises(ConstructionMismatch):
            next(iter_fragment([a], cfg, LAMBDA))
    assert vars(cfg) == vars(FragmentConfig(2, (c,), 50))
    # the failed calls leave the config serving its own construction
    want = list(reference.fragment(GAMMA, [c.scale(2)], cfg))
    assert list(iter_fragment([c.scale(2)], cfg, GAMMA)) == want
