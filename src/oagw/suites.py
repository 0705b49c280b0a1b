"""Verification suites and named demos.

Each suite draws its cases from a per-case PRNG seeded by (suite seed,
case index), records machine-readable case rows, and counts
pass/fail/unknown.  A suite fails exactly when some case fails;
unknown rows are tolerated unless the suite declares a budget.

Suites and demos are registered with the :func:`suite` decorator, which
declares each one's constructions and default counts; ``SUITES`` and
``DEMOS`` are read off that one registry.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .elements import (
    Construction,
    GAMMA,
    GroupElement,
    LAMBDA,
    LeadDescriptor,
    _from_canonical,
    element,
    format_element,
    fresh_g1_block,
    unit,
    uses_poly,
    zero,
)
from .embeddings import (
    Embedding,
    apply as emb_apply,
    in_image,
    perturb_into_image,
    preimage,
)
from .evaluate import Truth, compile_formula, run_program
from .formulas import (
    And,
    Cong,
    DescLt,
    Eq,
    Exists,
    Lt,
    print_formula,
    rename_bound_apart,
    term_const,
    term_var,
)
from .fragments import FragmentConfig, iter_fragment
from .hahn import (
    PrimeField,
    QQ,
    lift_embedding,
    membership,
    one,
    series,
    subring_escape_witness,
    truncated_inverse,
)
from .positions import CRITICAL_CIRCLE, g1_circle, g1_square, g2_circle, g2_square
from .predicates import (
    cong_free_below,
    cong_free_below_given,
    cong_witness_below,
    g1_part_by_formula,
    in_g1_part,
    in_tail,
    index_window,
    inner_anchor_below,
    tail_set,
    window_positions,
)
from .ringlang import (
    VLt,
    VSumEq,
    eval_ring,
    eval_valuation,
    svar,
    translate_to_ring,
)
from .sampling import (
    case_rng,
    random_a_cone_exponent,
    random_element,
    random_g1_element,
    random_nonzero,
    random_position,
    random_positive,
    random_series,
    random_valring_exponent,
    random_value,
)


@dataclass
class SuiteOptions:
    """What a caller asks of a suite; None means the suite's own default.

    The default construction is the first one the suite declares.
    """

    construction: Optional[Construction] = None
    seed: int = 42
    samples: Optional[int] = None
    coeff_bound: Optional[int] = None

    def case_rngs(self) -> Iterator[random.Random]:
        """One generator per sampled case, seeded by (seed, case index)."""
        for i in range(self.samples):
            yield case_rng(self.seed, i)


class CaseRecord(NamedTuple):
    inputs: dict[str, str]
    verdict: str  # pass | fail | unknown
    detail: str = ""


@dataclass
class SuiteReport:
    suite: str
    construction: str
    seed: int
    cases: list[CaseRecord] = field(default_factory=list)
    wall_ms: float = 0.0

    def record(self, verdict: str, detail: str = "", **inputs) -> None:
        # the row the class call builds, without the Python frames of its
        # generated __new__ and of a dict comprehension
        texts = dict(zip(inputs, map(str, inputs.values())))
        self.cases.append(tuple.__new__(CaseRecord, (texts, verdict, detail)))

    def check(self, ok: bool, detail_fail: str = "", **inputs) -> None:
        # record's row, without packing the inputs a second time
        texts = dict(zip(inputs, map(str, inputs.values())))
        row = (texts, "pass", "") if ok else (texts, "fail", detail_fail)
        self.cases.append(tuple.__new__(CaseRecord, row))

    @property
    def counts(self) -> dict[str, int]:
        out = {"pass": 0, "fail": 0, "unknown": 0}
        for c in self.cases:
            out[c.verdict] += 1
        return out

    @property
    def ok(self) -> bool:
        return self.counts["fail"] == 0

    def to_json_dict(self) -> dict:
        # deterministic: no wall time, stable field order via sort_keys
        return {
            "suite": self.suite,
            "construction": self.construction,
            "seed": self.seed,
            "counts": self.counts,
            "cases": [
                {"inputs": c.inputs, "verdict": c.verdict, "detail": c.detail}
                for c in self.cases
            ],
        }

    def summary(self) -> str:
        c = self.counts
        return (
            f"{self.suite} [{self.construction}] seed={self.seed}: "
            f"{c['pass']} pass, {c['fail']} fail, {c['unknown']} unknown "
            f"({self.wall_ms:.0f} ms)"
        )


@dataclass(frozen=True)
class Suite:
    """One registered suite or demo: its body and what it declares.

    ``samples`` and ``coeff_bound`` are the defaults of the options the
    body reads; None marks an option the body does not read.
    ``catalogs`` names where the suite is listed: ``"check"`` for
    ``SUITES``, ``"demo"`` for ``DEMOS``.
    """

    name: str
    body: Callable[[SuiteReport, SuiteOptions], None]
    constructions: tuple[Construction, ...]
    samples: Optional[int]
    coeff_bound: Optional[int]
    catalogs: tuple[str, ...]

    def options(self, opts: SuiteOptions) -> SuiteOptions:
        """``opts`` with this suite's defaults filled in.

        Raises ValueError for a construction the suite does not declare,
        for a coefficient bound given to a suite that reads none, and for
        a sample count or coefficient bound that is not an integer of at
        least 0, before any case runs.  A fixed-scan suite accepts and
        ignores a sample count, which the CLI rejects instead: a rejection
        here would fail each ``lambda-repair`` request of
        ``perfbench/workloads.py``, which asks every suite for one sample.
        """
        construction = self.constructions[0] if opts.construction is None else opts.construction
        if construction not in self.constructions:
            declared = " or ".join(map(str, self.constructions))
            raise ValueError(f"{self.name} runs on {declared}, not {construction}")
        if opts.coeff_bound is not None and self.coeff_bound is None:
            raise ValueError(f"{self.name} reads no coefficient bound")
        for label, count in (("samples", opts.samples), ("coeff_bound", opts.coeff_bound)):
            if count is not None and (count.__class__ is not int or count < 0):
                raise ValueError(f"{label} must be an integer of at least 0, got {count!r}")
        samples = self.samples if opts.samples is None else opts.samples
        coeff_bound = self.coeff_bound if opts.coeff_bound is None else opts.coeff_bound
        return SuiteOptions(construction, opts.seed, samples, coeff_bound)

    def __call__(self, opts: SuiteOptions) -> SuiteReport:
        opts = self.options(opts)
        report = SuiteReport(self.name, str(opts.construction), opts.seed)
        t0 = time.monotonic()
        self.body(report, opts)
        report.wall_ms = (time.monotonic() - t0) * 1000.0
        return report


_REGISTRY: list[Suite] = []


def suite(
    name: str,
    *,
    constructions: tuple[Construction, ...] = (LAMBDA,),
    samples: Optional[int] = None,
    coeff_bound: Optional[int] = None,
    catalogs: tuple[str, ...] = ("check",),
) -> Callable[[Callable[[SuiteReport, SuiteOptions], None]], Suite]:
    """Register ``body(report, opts)`` as a suite; ``opts`` arrives with defaults filled in."""

    def register(body: Callable[[SuiteReport, SuiteOptions], None]) -> Suite:
        record = Suite(name, body, constructions, samples, coeff_bound, catalogs)
        _REGISTRY.append(record)
        return record

    return register


def _deep_unit(construction: Construction, *after: GroupElement) -> GroupElement:
    return unit(construction, g1_square(fresh_g1_block(*after), 0))


# -- suite: psi-vs-search ----------------------------------------------------


@suite("psi-vs-search", constructions=(LAMBDA, GAMMA), samples=2000, coeff_bound=3)
def suite_psi_vs_search(rep: SuiteReport, opts: SuiteOptions) -> None:
    """Closed form of the congruence-gap predicate against witness search.

    A True closed form is checked by searching a fragment for a witness
    y with 0 < y < b and y = a mod n; the fragment is enumerated at most
    once per case, and only when some n has a True closed form and
    b > 0.  A False closed form is checked by its ``cong_witness_below``
    certificate alone, with no search; the certificate takes the lead
    ``a.lead_mod(n)`` that decided the closed form, so it derives it no
    second time.  Each case formats a and b once, for both of its rows.
    """
    for rng in opts.case_rngs():
        a = random_element(rng, opts.construction)
        b = random_element(rng, opts.construction)
        a_text, b_text = format_element(a), format_element(b)
        if b.sign() <= 0:
            # no y has 0 < y < b <= 0: each closed form holds vacuously,
            # with nothing to search and no certificate
            for n in (2, 3):
                rep.check(cong_free_below(n, a, b), _NO_CERTIFICATE.format(None),
                          n=n, a=a_text, b=b_text)
            continue
        neg_a = -a
        candidates: Optional[list[GroupElement]] = None
        for n in (2, 3):
            detail = ""
            d = a.lead_mod(n)
            if cong_free_below_given(n, a, d, b):
                if candidates is None:
                    candidates = _psi_candidates(opts, a, b)
                found = next((y for y in candidates if (y + neg_a).is_divisible(n)), None)
                if found is not None:
                    detail = f"search witness {found} despite closed-form truth"
            else:
                w = cong_witness_below(n, a, b, d)
                if w is None or not (w.sign() > 0 and w < b and (w + neg_a).is_divisible(n)):
                    detail = _NO_CERTIFICATE.format(w)
            rep.check(not detail, detail, n=n, a=a_text, b=b_text)


_NO_CERTIFICATE = "no verified certificate for closed-form falsity (got {})"


def _psi_candidates(opts: SuiteOptions, a: GroupElement, b: GroupElement) -> list[GroupElement]:
    """The elements y of ``_psi_fragment(opts, a, b)`` with 0 < y < b.

    Empty when b <= 0, with no fragment built: no y satisfies
    0 < y < b <= 0, so the filtered scan is empty whatever the fragment
    holds.
    """
    if b.sign() <= 0:
        return []
    return [y for y in _psi_fragment(opts, a, b) if y.sign() > 0 and y < b]


def _psi_fragment(opts: SuiteOptions, a: GroupElement, b: GroupElement) -> Iterator[GroupElement]:
    """The fragment over a, b and two deep units beyond both."""
    deep = _deep_unit(opts.construction, a, b)
    deep2 = (
        unit(LAMBDA, g1_square(fresh_g1_block(a, b), 0), {1: 1})
        if opts.construction is LAMBDA
        else unit(GAMMA, g1_circle(fresh_g1_block(a, b)), 1)
    )
    cfg = FragmentConfig(coeff_bound=opts.coeff_bound, generator_pool=(deep, deep2), size_cap=300)
    return iter_fragment([a, b], cfg, opts.construction)


# -- suites: tail sets -------------------------------------------------------


def _tail_probes(rng: random.Random, a: GroupElement) -> list[GroupElement]:
    construction = a.construction
    probes = [zero(construction), random_element(rng, construction)]
    n = random_nonzero(rng, construction)  # a negative probe: -random_positive's draws
    probes.append(n if n.sign() < 0 else -n)
    cut = tail_set(a)
    if cut is not None:
        pos, slot = cut
        if uses_poly(construction, pos):
            probes.append(unit(LAMBDA, pos, {slot: 1}))  # at the cut: excluded
            probes.append(unit(LAMBDA, pos, {slot + 1: 2}))  # just past: included
            probes.append(unit(LAMBDA, pos, {slot + 1: -5}))
        else:
            probes.append(unit(construction, pos))
            probes.append(unit(construction, pos.successor()))
    probes.append(_deep_unit(construction, a))
    return probes


@suite("hprime-descriptor", constructions=(LAMBDA, GAMMA), samples=500)
def suite_hprime_descriptor(rep: SuiteReport, opts: SuiteOptions) -> None:
    """Cut-descriptor membership equals the union-definition search.

    The union definition holds for a probe b when some t in (0, |a|)
    leaves |b| congruence-free.  Each case enumerates one fragment over
    |a|, the inner anchor and a deep unit, once and before its probes,
    and every probe reads the same elements t in (0, |a|) with their
    leads ``t.lead_mod(2)``, computed once; a zero ``a`` runs no search.
    """
    for rng in opts.case_rngs():
        a = random_element(rng, opts.construction)
        m = a.abs()
        anchor = inner_anchor_below(a)
        cut = tail_set(a)
        detail = ""
        inside: list[GroupElement] = []
        if anchor is not None:
            if not (anchor.sign() > 0 and anchor < m):
                detail = f"anchor {anchor} not inside (0, |a|)"
            pool = (anchor, _deep_unit(opts.construction, a))
            cfg = FragmentConfig(coeff_bound=2, generator_pool=pool, size_cap=150)
            inside = [
                t for t in iter_fragment([m], cfg, opts.construction) if t.sign() > 0 and t < m
            ]
        leads = [(t, t.lead_mod(2)) for t in inside]
        for b in _tail_probes(rng, a):
            target = b.abs()
            want = any(cong_free_below_given(2, t, d, target) for t, d in leads)
            got = in_tail(cut, b)
            if want != got:
                detail = f"probe {b}: descriptor {got} vs union search {want}"
                break
        rep.check(not detail, detail, a=a)


@suite("hprime-locality", constructions=(LAMBDA, GAMMA), samples=500)
def suite_hprime_locality(rep: SuiteReport, opts: SuiteOptions) -> None:
    """The swept tail depends only on the leading-position component."""
    for rng in opts.case_rngs():
        a = random_nonzero(rng, opts.construction)
        lead_pos = a.entries[0][0]
        # perturbation supported strictly to the right of the lead position
        comps = {}
        for _ in range(rng.randrange(1, 4)):
            pos = random_position(rng)
            tries = 0
            while not lead_pos.key < pos.key:
                pos = random_position(rng)
                tries += 1
                if tries > 40:
                    pos = g1_square(fresh_g1_block(a), 0)
            comps[pos] = random_value(rng, opts.construction, pos)
        # sampled values are canonical and nonzero
        p = _from_canonical(opts.construction, tuple(sorted(comps.items())))
        a2 = a + p
        cut, cut2 = tail_set(a), tail_set(a2)
        detail = "" if cut == cut2 else f"cut moved: {cut} vs {cut2}"
        if not detail:
            for b in _tail_probes(rng, a):
                if in_tail(cut, b) != in_tail(cut2, b):
                    detail = f"membership of {b} changed"
                    break
        rep.check(not detail, detail, a=a, perturbation=p)


# -- suite: lambda1-formula --------------------------------------------------


def _lambda1_crafted() -> tuple[GroupElement, ...]:
    out = [zero(LAMBDA)]
    head = g1_square(0, 0)
    for sign in (1, -1):
        # leads at the last G2 square, slot 0 and deeper slots
        for slot in (0, 1, 3, 7):
            out.append(unit(LAMBDA, g2_square(0), {slot: sign}))
        # leads at the head square of the right block, slot 0 and deeper
        for slot in (0, 1, 2, 5):
            out.append(unit(LAMBDA, head, {slot: sign}))
        out.extend(
            [
                unit(LAMBDA, head, {0: sign, 4: -7}),
                unit(LAMBDA, head, {1: sign, 2: 9}),
                unit(LAMBDA, g1_circle(0), Fraction(sign * 7, 2)),
                unit(LAMBDA, g1_circle(0), Fraction(sign)),
                unit(LAMBDA, g1_circle(2), Fraction(sign, 3)),
                unit(LAMBDA, g1_square(4, 1), {1: sign}),
                unit(LAMBDA, g1_square(6, 0), {0: sign}),
                element(LAMBDA, {g1_square(3, 0): {0: 2 * sign}, g1_circle(3): Fraction(sign)}),
                element(LAMBDA, {g1_square(1, 2): {3: sign}, g1_square(2, 0): {0: -4}}),
                unit(LAMBDA, g2_circle(0), Fraction(sign, 2)),
                unit(LAMBDA, g2_circle(0), Fraction(sign * 5)),
                unit(LAMBDA, g2_circle(2), Fraction(sign * 3)),
                unit(LAMBDA, g2_square(2), {0: sign}),
                element(LAMBDA, {g2_square(1): {1: sign}, head: {0: 5}}),
                element(LAMBDA, {g2_square(0): {0: sign}, g1_circle(1): Fraction(1, 5)}),
                element(LAMBDA, {g2_circle(1): Fraction(sign), head: {1: 1}}),
                unit(LAMBDA, g1_circle(5), Fraction(sign * 11, 7)),
                element(LAMBDA, {g1_square(0, 1): {2: sign}, g1_circle(0): Fraction(sign)}),
            ]
        )
    return tuple(out)


# Built once, at import: the crafted cases depend on no option or seed,
# and elements are immutable, so every run can read the same 53 values
# instead of building them again.
_LAMBDA1_CRAFTED = _lambda1_crafted()


@suite("lambda1-formula", samples=1000)
def suite_lambda1_formula(rep: SuiteReport, opts: SuiteOptions) -> None:
    """Formula-route membership in the right block equals the support check."""
    for rng in opts.case_rngs():
        a = random_element(rng, LAMBDA)
        ok = g1_part_by_formula(a) == in_g1_part(a)
        rep.check(ok, "formula route disagrees with support check", a=a)
    for a in _LAMBDA1_CRAFTED:
        ok = g1_part_by_formula(a) == in_g1_part(a)
        rep.check(ok, "crafted boundary case disagrees", a=a, crafted=True)


# -- suite: embedding-laws ---------------------------------------------------


@suite("embedding-laws", constructions=(LAMBDA, GAMMA), samples=10_000)
def suite_embedding_laws(rep: SuiteReport, opts: SuiteOptions) -> None:
    """Additivity, order embedding, preimage inversion, image characterization."""
    for emb in (Embedding.F1, Embedding.F2):
        for i in range(opts.samples):
            rng = case_rng(opts.seed, i * 7 + (0 if emb is Embedding.F1 else 1))
            a = random_element(rng, opts.construction)
            b = random_element(rng, opts.construction)
            fa = emb_apply(emb, a)
            fb = emb_apply(emb, b)
            detail = ""
            if emb_apply(emb, a + b) != fa + fb:
                detail = "additivity failed"
            elif (a < b) != (fa < fb) or (a == b) != (fa == fb):
                detail = "order preservation failed"
            elif preimage(emb, fa) != a:
                detail = "preimage does not invert"
            elif not in_image(emb, fa):
                detail = "image member not recognized"
            else:
                # preimage is the inverse map, computed apart from in_image
                c = random_element(rng, opts.construction)
                if in_image(emb, c) != (preimage(emb, c) is not None):
                    detail = f"image characterization failed on {c}"
            rep.check(not detail, detail, embedding=emb, a=a, b=b)


# -- closure suites ----------------------------------------------------------


def closure_audit(
    rep: SuiteReport,
    sub: Embedding,
    construction: Construction,
    corpus: Sequence[tuple],
    cfg: FragmentConfig,
) -> None:
    """Audit transfer of truths from the full group into an embedding image.

    Each corpus entry is (formula, env); every env value of every entry
    must lie inside the image, else ``ValueError`` before any run.  Each
    formula is compiled once, with its bound variables renamed apart,
    and run over the full group under ``cfg``; only when that run decides
    True is it run again under ``cfg`` with just the pool generators
    inside the image, so the image search leaves the image only through
    a constant of the formula.  One row per entry goes into ``rep``, and
    it fails when the full group decides True but the image search does
    not, or does with a witness outside the image.  As the bound
    variables are apart, the image witness holds the binding of every
    quantifier the verdict rests on, nested or in sibling parts, and a
    row fails whenever one of those bindings lies outside the image; the
    row prints the formula as given.  Verdicts stay three-valued: a full
    run not decided True records an unknown row, not a failed one.
    """
    for _, env in corpus:
        for name, value in env.items():
            if not in_image(sub, value):
                raise ValueError(f"parameter {name!r} lies outside the image")
    image_cfg: Optional[FragmentConfig] = None
    for formula, env in corpus:
        program = compile_formula(construction, rename_bound_apart(formula))
        full = run_program(program, env, cfg)
        if full.truth is not Truth.TRUE:
            rep.record("unknown", "full-group witness not found", formula=print_formula(formula))
            continue
        if image_cfg is None:
            image_cfg = cfg._narrowed(tuple([g for g in cfg.generator_pool if in_image(sub, g)]))
        image = run_program(program, env, image_cfg)
        if image.truth is not Truth.TRUE:
            detail = "no image witness despite full-group truth"
        elif not all(in_image(sub, w) for w in (image.witness or {}).values()):
            detail = "image witness outside the image"
        else:
            detail = ""
        rep.check(not detail, detail, formula=print_formula(formula))


def _closure_sentence(rng: random.Random, construction: Construction):
    """An existential sentence with F1-image parameters and a known image witness."""
    base = emb_apply(Embedding.F1, random_element(rng, construction, 2))
    shape = rng.randrange(3)
    if shape == 0:
        k = rng.choice([2, 3, 4])
        a = base.scale(k)
        eq = tuple.__new__(Eq, ("Eq", term_var("x", k), term_const(a)))
        return tuple.__new__(Exists, ("Exists", "x", eq)), [base]
    if shape == 1:
        n = rng.choice([2, 3])
        d = _deep_unit(construction, base)
        lo, hi = base - d, base + d
        r = base - (_deep_unit(construction, base, d)).scale(n)
        x = term_var("x")
        above = tuple.__new__(Lt, ("Lt", term_const(lo), x))
        below = tuple.__new__(Lt, ("Lt", x, term_const(hi)))
        cong = tuple.__new__(Cong, ("Cong", n, x, term_const(r)))
        body = tuple.__new__(And, ("And", tuple.__new__(And, ("And", above, below)), cong))
        return tuple.__new__(Exists, ("Exists", "x", body)), [base, d]
    n = rng.choice([2, 3])
    c = base
    if c.lead_mod(n) is None:
        c = base + unit(construction, g2_square(1))
    w = _deep_unit(construction, c)
    x = term_var("x")
    positive = tuple.__new__(Lt, ("Lt", term_const(zero(construction)), x))
    avoid = tuple.__new__(DescLt, ("DescLt", n, term_const(c), x))
    f = tuple.__new__(Exists, ("Exists", "x", tuple.__new__(And, ("And", positive, avoid))))
    return f, [c, w]


@suite("f1-exists-closure", constructions=(LAMBDA, GAMMA), samples=100)
def suite_f1_exists_closure(rep: SuiteReport, opts: SuiteOptions) -> None:
    """Existential sentences true with a fragment witness stay true inside the image.

    The critical unit joins the sentence's pool; the audit's image run leaves it out.
    """
    critical = unit(opts.construction, CRITICAL_CIRCLE)
    for rng in opts.case_rngs():
        f, pool = _closure_sentence(rng, opts.construction)
        cfg = FragmentConfig(coeff_bound=2, generator_pool=(*pool, critical), size_cap=400)
        closure_audit(rep, Embedding.F1, opts.construction, [(f, {})], cfg)


@suite("f1-ea-closure", samples=100)
def suite_f1_ea_closure(rep: SuiteReport, opts: SuiteOptions) -> None:
    """Witness transfer for bound-and-noncongruence systems with image parameters.

    For each instance a full-group witness is replayed into the image by
    adding a fresh deep square unit: inequalities keep their slack,
    every requested noncongruence is broken by the fresh slot, and
    congruence-avoidance atoms only see the unchanged lead.
    """
    guard = unit(LAMBDA, g2_square(2), {0: 1})
    for rng in opts.case_rngs():
        w = emb_apply(Embedding.F1, random_element(rng, LAMBDA, 2))
        ineqs: list[tuple[int, GroupElement, GroupElement]] = []
        slacks: list[GroupElement] = []
        for j in range(rng.randrange(1, 3)):
            m = rng.choice([-2, -1, 1, 2, 3])
            slack = unit(LAMBDA, g1_square(fresh_g1_block(w) + j, 0), {0: 1})
            bound = w.scale(m) + slack
            ineqs.append((m, bound, slack))
            slacks.append(slack)
        noncongs = [
            (rng.choice([2, 3, 4]), random_element(rng, LAMBDA, 2))
            for _ in range(rng.randrange(1, 3))
        ]
        guarded = cong_free_below(2, guard, w)
        fresh = g1_square(fresh_g1_block(w, *slacks, *(r for _, r in noncongs)) + 4, 0)
        w2 = w + unit(LAMBDA, fresh, {0: 1})
        detail = "" if in_image(Embedding.F1, w2) else "transfer left the image"
        for m, bound, _ in ineqs:
            if not (w2.scale(m) < bound):
                detail = "inequality slack lost"
        for n, r in noncongs:
            if (w2 - r).is_divisible(n):
                detail = f"noncongruence mod {n} not broken"
        if guarded and not cong_free_below(2, guard, w2):
            detail = "avoidance atom flipped"
        rep.check(not detail, detail, witness=w, transferred=w2)


@suite("f2-interval", samples=200)
def suite_f2_interval(rep: SuiteReport, opts: SuiteOptions) -> None:
    """Descriptor windows between F2-image parameters keep image solutions.

    Every sampled pair qualifies: a leads at a coefficient-1 G2 square
    and b at a coefficient-1 square of G1 block 1 or 2, both in the F2
    image with da < db.  A case fails when the full group shows no
    element in the window or the image candidate misses it.
    """
    pool = (
        unit(LAMBDA, g1_square(0, 1), {0: 1}),  # outside the F2 image
        unit(LAMBDA, g2_square(0), {0: 1}),
        unit(LAMBDA, g1_square(1, 0), {1: 1}),
    )
    cfg = FragmentConfig(coeff_bound=2, generator_pool=pool, size_cap=200)
    for rng in opts.case_rngs():
        n = rng.choice([2, 3])
        a = unit(LAMBDA, g2_square(rng.randrange(1, 3)), {rng.randrange(0, 2): 1})
        if rng.random() < 0.5:
            a = a + emb_apply(Embedding.F2, random_g1_element(rng, LAMBDA, 1))
        deep_block = rng.randrange(1, 3)
        b = unit(LAMBDA, g1_square(deep_block, rng.randrange(0, 3)), {rng.randrange(0, 3): 1})
        da, db = a.lead_mod(n), b.lead_mod(n)

        def in_window(dx: Optional[LeadDescriptor]) -> bool:
            return dx is not None and da < dx and dx < db

        found = any(in_window(x.lead_mod(n)) for x in iter_fragment([a, b], cfg, LAMBDA))
        succ = LeadDescriptor(da.position, da.inner_slot + 1)
        x_img = unit(LAMBDA, succ.position, {succ.inner_slot: 1})
        ok = found and in_window(x_img.lead_mod(n)) and in_image(Embedding.F2, x_img)
        rep.check(ok, "no image solution in the window", n=n, a=a, b=b, x=x_img)


# -- demos -------------------------------------------------------------------


@suite("gamma-counterexample", constructions=(GAMMA,), catalogs=("check", "demo"))
def demo_gamma_counterexample(rep: SuiteReport, opts: SuiteOptions) -> None:
    """Index-window sentence whose witnesses all need the critical circle.

    Parameters sit just left and just right of the critical circle;
    the full group satisfies the existential sentence, every discovered
    witness is nonzero at the critical circle, and ``window_positions``
    refutes the sentence in the F1 image for every coefficient bound.
    """
    c = unit(GAMMA, g2_square(1), 1)
    b = unit(GAMMA, g2_square(0), 1)
    a = unit(GAMMA, CRITICAL_CIRCLE, 1)
    rel = index_window(c, b)

    rep.check(rel(a), "the designated witness fails the sentence", witness=a)

    pool_full = (
        a,
        unit(GAMMA, g2_circle(1), 1),
        unit(GAMMA, g2_square(2), 1),
        unit(GAMMA, g1_square(0, 0), 1),
    )
    cfg_full = FragmentConfig(coeff_bound=3, generator_pool=pool_full, size_cap=4000)
    witnesses = [x for x in iter_fragment([c, b], cfg_full, GAMMA) if rel(x)]
    rep.check(
        a in witnesses,
        "designated witness missing from the full-group scan",
        count=len(witnesses),
    )
    bad = [x for x in witnesses if x.value_at(CRITICAL_CIRCLE) is None]
    rep.check(
        not bad,
        f"witness without critical-circle entry: {bad[:1]}",
        checked=len(witnesses),
    )

    open_positions = window_positions(c, b)
    rep.check(
        open_positions is not None
        and not any(in_image(Embedding.F1, unit(GAMMA, p)) for p in open_positions),
        "the F1 image holds a witness, or the window is not finite",
        open_positions=", ".join(map(str, open_positions or ())),
        refuted="every coefficient bound",
    )


@suite("lambda-repair", catalogs=("check", "demo"))
def demo_lambda_repair(rep: SuiteReport, opts: SuiteOptions) -> None:
    """The same index-window schema with inner square slots supplying witnesses."""
    c = unit(LAMBDA, g2_square(1), {0: 1})
    b = unit(LAMBDA, g2_square(0), {2: 1})
    rel = index_window(c, b)

    pool_image = (
        unit(LAMBDA, g2_square(0), {0: 1}),
        unit(LAMBDA, g2_square(0), {1: 1}),
        unit(LAMBDA, g1_square(0, 0), {0: 1}),
    )
    cfg = FragmentConfig(coeff_bound=3, generator_pool=pool_image, size_cap=3000)
    witnesses = [
        x for x in iter_fragment([c, b], cfg, LAMBDA) if rel(x) and in_image(Embedding.F1, x)
    ]
    rep.check(bool(witnesses), "no image-internal witness found", count=len(witnesses))
    deep = [
        x
        for x in witnesses
        if (d := x.lead_mod(2)) is not None and d.inner_slot >= 1
    ]
    rep.check(
        bool(deep),
        "no witness anchored at an inner slot",
        example=deep[0] if deep else "-",
    )
    rep.check(
        all(x.value_at(CRITICAL_CIRCLE) is None for x in witnesses),
        "an image witness carries the critical circle",
        count=len(witnesses),
    )


@suite("ha-witness", catalogs=("demo",))
def demo_ha_witness(rep: SuiteReport, opts: SuiteOptions) -> None:
    """The cone membership flip under the lifted left-shift embedding."""
    x, hx = subring_escape_witness()
    mx, mhx = membership(x), membership(hx)
    rep.check(mx.in_a, "x should lie in the cone", x=x)
    rep.check(mx.in_k_lambda1, "x should lie in the right-block branch", x=x)
    rep.check(not mx.in_val_ring, "x should escape the valuation ring", x=x)
    rep.check(not mhx.in_a, "h(x) should leave the cone", hx=hx)
    rep.check(
        lift_embedding(Embedding.F1, x) == hx,
        "witness pair inconsistent with the lifted embedding",
    )


# -- series suites -----------------------------------------------------------


@suite("hahn-ring", constructions=(LAMBDA, GAMMA), samples=1000)
def suite_hahn_ring(rep: SuiteReport, opts: SuiteOptions) -> None:
    """Ring axioms and valuation laws on random series."""
    for rng in opts.case_rngs():
        F = QQ if rng.random() < 0.8 else PrimeField(5)
        f = random_series(rng, opts.construction, F, allow_zero=True)
        g = random_series(rng, opts.construction, F)
        h = random_series(rng, opts.construction, F)
        detail = ""
        # each sum and product that several laws read is computed once
        s, gh, fg = f + g, g + h, f * g
        if s + h != f + gh or s != g + f:
            detail = "additive laws failed"
        elif fg * h != f * (g * h) or fg != g * f:
            detail = "multiplicative laws failed"
        elif f * gh != fg + f * h:
            detail = "distributivity failed"
        elif f + (-f) != series(opts.construction, {}, F):
            detail = "negation failed"
        elif not f.is_zero():
            if fg.valuation() != f.valuation() + g.valuation():
                detail = "valuation not additive"
            if not s.is_zero():
                vmin = min(f.valuation(), g.valuation())
                if s.valuation() < vmin:
                    detail = "ultrametric inequality failed"
                elif f.valuation() != g.valuation() and s.valuation() != vmin:
                    detail = "ultrametric equality failed"
        rep.check(not detail, detail, f=f, g=g, h=h, field=F)


@suite("a-membership", samples=1000)
def suite_a_membership(rep: SuiteReport, opts: SuiteOptions) -> None:
    """The cone is a subring; the lifted embedding maps 500 ring samples into it."""
    for rng in opts.case_rngs():
        f = random_series(rng, LAMBDA, QQ, exponents=random_a_cone_exponent)
        g = random_series(rng, LAMBDA, QQ, exponents=random_a_cone_exponent)
        if not (membership(f).in_a and membership(g).in_a):
            detail = "sampler left the cone"
        elif not membership(f + g).in_a:
            detail = "cone not closed under addition"
        elif not membership(f * g).in_a:
            detail = "cone not closed under multiplication"
        else:
            detail = ""
        rep.check(not detail, detail, f=f, g=g)
    lifts = 500
    for i in range(lifts):
        rng = case_rng(opts.seed, 10_000 + i)
        f = random_series(rng, LAMBDA, QQ, exponents=random_valring_exponent)
        if not membership(f).in_val_ring:
            detail = "sampler left the valuation ring"
        elif not membership(lift_embedding(Embedding.F1, f)).in_a:
            detail = "lift left the cone"
        else:
            detail = ""
        rep.check(not detail, detail, f=f)
    x, hx = subring_escape_witness()
    rep.check(
        membership(x).in_a and not membership(hx).in_a,
        "escape witness not verified",
        x=x,
        hx=hx,
    )


@suite("translation-soundness", samples=300)
def suite_translation_soundness(rep: SuiteReport, opts: SuiteOptions) -> None:
    """Valuation statements agree with their ring translations."""
    for rng in opts.case_rngs():
        env = {
            "x": random_series(rng, LAMBDA, QQ, allow_zero=(rng.random() < 0.15)),
            "y": random_series(rng, LAMBDA, QQ, allow_zero=(rng.random() < 0.15)),
            "z": random_series(rng, LAMBDA, QQ),
        }
        if rng.random() < 0.25 and not env["y"].is_zero():
            env["x"] = env["y"] * random_series(rng, LAMBDA, QQ, max_terms=1)
        if rng.random() < 0.5:
            stmt = VLt(svar("x"), svar("y"))
        else:
            if rng.random() < 0.3:
                env["z"] = env["x"] * env["y"]
            stmt = VSumEq(svar("x"), svar("y"), svar("z"))
        want = eval_valuation(stmt, env)
        got = eval_ring(translate_to_ring(stmt), env)
        rep.check(
            want == got,
            f"group-side {want} vs ring-side {got}",
            statement=type(stmt).__name__,
            x=env["x"],
            y=env["y"],
            z=env["z"],
        )


@suite("perturbation", samples=200)
def suite_perturbation(rep: SuiteReport, opts: SuiteOptions) -> None:
    """Image perturbation stays within eps and breaks all congruences."""
    for rng in opts.case_rngs():
        t = emb_apply(Embedding.F1, random_element(rng, LAMBDA))
        eps = random_positive(rng, LAMBDA)
        constraints = [
            (rng.choice([2, 3, 4, 5]), random_element(rng, LAMBDA, 2))
            for _ in range(rng.randrange(0, 4))
        ]
        t2 = perturb_into_image(t, eps, constraints)
        detail = ""
        if not in_image(Embedding.F1, t2):
            detail = "left the image"
        elif not ((t2 - t).abs() < eps):
            detail = "moved by at least eps"
        else:
            for n, r in constraints:
                if (t2 - r).is_divisible(n):
                    detail = f"congruence mod {n} survived"
                    break
        rep.check(not detail, detail, t=t, eps=eps, constraints=len(constraints))


@suite("truncated-inverse", samples=200)
def suite_truncated_inverse(rep: SuiteReport, opts: SuiteOptions) -> None:
    """v(f*g - 1) clears the requested precision."""
    one_series = one(LAMBDA)
    for rng in opts.case_rngs():
        f = random_series(rng, LAMBDA, QQ)
        assert not f.is_zero()
        # a multiple of v(u) for u = f/(c0*t^g0) - 1: u = 0 for a monomial,
        # else v(u) = g1 - g0, read off f's first two exponents
        if len(f.terms) == 1:
            precision = random_nonzero(rng, LAMBDA)
        else:
            precision = (f.terms[1][0] - f.terms[0][0]).scale(rng.randrange(1, 5))
        err = f * truncated_inverse(f, precision) - one_series
        ok = err.is_zero() or err.valuation() > precision
        rep.check(ok, "residual valuation too small", f=f, precision=precision)


# -- corpus generation --------------------------------------------------------


def gen_corpus(kind: str, count: int, seed: int, construction: Construction = LAMBDA) -> list[str]:
    """Formula corpus for the closure suites, as concrete syntax."""
    out = []
    for i in range(count):
        rng = case_rng(seed, i)
        if kind == "exists":
            f, _ = _closure_sentence(rng, construction)
            out.append(print_formula(f))
        elif kind == "ea":
            n = rng.choice([2, 3])
            c = format_element(emb_apply(Embedding.F1, random_nonzero(rng, construction, 2)))
            r = format_element(random_element(rng, construction, 2))
            out.append(
                f"E x. A y. (0 < y & y < x -> ~cong({n}, y, {c})) & ~cong({n}, x, {r})"
            )
        else:
            raise ValueError(f"unknown corpus kind {kind!r} (expected exists|ea)")
    return out


SUITES: dict[str, Suite] = {s.name: s for s in _REGISTRY if "check" in s.catalogs}
DEMOS: dict[str, Suite] = {s.name: s for s in _REGISTRY if "demo" in s.catalogs}


def run_suite(name: str, opts: SuiteOptions) -> SuiteReport:
    if name not in SUITES:
        raise KeyError(
            f"unknown suite {name!r}; available: {', '.join(sorted(SUITES))}"
        )
    return SUITES[name](opts)
