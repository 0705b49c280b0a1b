"""Workloads of the oagw benchmark: requests, their execution and the verdict reference.

A *request* is one call a desk user would make and wait for: either one
``run_suite(name, SuiteOptions(construction, seed=j, samples=k))`` or one
``parse_formula`` followed by one ``evaluate``.  Requests go through the
public entry points only.

Each workload owns a fixed *universe* of requests (every kind times its
request seeds ``0 .. universe-1``).  The workload seed picks the order in
which one pass visits that universe: a seeded shuffle inside every kind,
interleaved so that every part of the pass holds the kinds in
proportion.  Because a pass covers the whole universe, the verdict counts
of a pass are exact and the work per pass is the same for every seed,
which keeps run-to-run spread down to machine noise.  The universes are
sized so that one pass holds at least 200 requests and takes about 4 s
on a 2-core x86 box at the commit that introduced the benchmark.  The
universe is also what ``reference/<workload>.json`` records: one digest
per request, taken at that commit.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Callable, Optional

import oagw.formulas
import oagw.suites
from oagw.elements import GAMMA, LAMBDA, Construction, format_element, parse_element
from oagw.fragments import FragmentConfig
from oagw.suites import SuiteOptions

# The package re-exports the function evaluate under the submodule's name,
# so the module itself is looked up explicitly.
evaluate_module = importlib.import_module("oagw.evaluate")
Truth = evaluate_module.Truth

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Every eval request searches the same fragment shape: three pool
# generators plus the formula's own constants, coefficients up to 2,
# at most EVAL_SIZE_CAP elements per quantifier.  Nested quantifiers
# re-enumerate, so a depth-d formula costs up to EVAL_SIZE_CAP ** d.
EVAL_SIZE_CAP = 10
EVAL_COEFF_BOUND = 2


@dataclass(frozen=True)
class Outcome:
    """What one request produced, reduced to what the benchmark checks."""

    rows: int
    decided: int
    failed: int
    digest: str


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class SuiteRequest:
    suite: str
    construction: Construction
    seed: int
    samples: int

    @property
    def kind(self) -> str:
        return f"{self.suite}/{self.construction}"

    @cached_property
    def key(self) -> str:
        return f"{self.kind}/seed={self.seed}/samples={self.samples}"

    def run(self):
        opts = SuiteOptions(self.construction, seed=self.seed, samples=self.samples)
        return oagw.suites.run_suite(self.suite, opts)

    def outcome(self, report) -> Outcome:
        # counts and cases only: wall time and any later "stats" key are
        # allowed to change without changing a verdict
        doc = report.to_json_dict()
        counts = doc["counts"]
        return Outcome(
            rows=len(doc["cases"]),
            decided=counts["pass"] + counts["fail"],
            failed=counts["fail"],
            digest=digest({"counts": counts, "cases": doc["cases"]}),
        )


@dataclass(frozen=True)
class EvalRequest:
    template: str
    construction: Construction
    index: int
    formula: str
    pool: tuple[str, ...]

    @property
    def kind(self) -> str:
        return f"eval-{self.template}/{self.construction}"

    @cached_property
    def key(self) -> str:
        text = "\n".join((self.formula, *self.pool))
        return f"{self.kind}/{self.index}/{hashlib.sha256(text.encode()).hexdigest()[:8]}"

    def config(self) -> FragmentConfig:
        pool = tuple(parse_element(lit, self.construction) for lit in self.pool)
        return FragmentConfig(EVAL_COEFF_BOUND, pool, EVAL_SIZE_CAP, self.index)

    def run(self, cfg: FragmentConfig):
        f = oagw.formulas.parse_formula(self.formula, self.construction)
        return evaluate_module.evaluate(self.construction, f, {}, cfg)

    def outcome(self, verdict) -> Outcome:
        # truth and witness text only: the Unknown reason is free to change
        witness = sorted((v, format_element(e)) for v, e in (verdict.witness or {}).items())
        return Outcome(
            rows=1,
            decided=int(verdict.truth is not Truth.UNKNOWN),
            failed=0,
            digest=digest({"truth": verdict.truth.value, "witness": witness}),
        )


# -- formula generation for the eval workload ---------------------------------


def _value(rng: random.Random, construction: Construction, square: bool) -> str:
    if construction is LAMBDA and square:
        slots = sorted(rng.sample(range(3), rng.randrange(1, 3)))
        text = ""
        for slot in slots:
            c = rng.choice((-3, -2, -1, 1, 2, 3))
            if slot == 0:
                text += str(c)
            else:
                sign = "-" if c < 0 else ("+" if text else "")
                text += f"{sign}{abs(c)}*c{slot}"
        return text
    num = rng.choice([k for k in range(-6, 7) if k])
    if construction is GAMMA:
        # circles invert odd denominators, squares those coprime to 3
        den = rng.choice((1, 2, 4, 5) if square else (1, 3, 5))
    else:
        den = rng.choice((1, 2, 3, 4))
    return f"{num}/{den}" if den != 1 else str(num)


def _literal(rng: random.Random, construction: Construction) -> str:
    comps: dict[str, str] = {}
    for _ in range(rng.randrange(1, 3)):
        kind = rng.randrange(4)
        if kind == 0:
            pos, square = f"G2[{rng.randrange(3)}].c", False
        elif kind == 1:
            pos, square = f"G2[{rng.randrange(3)}].s", True
        elif kind == 2:
            pos, square = f"G1[{rng.randrange(3)}].s[{rng.randrange(3)}]", True
        else:
            pos, square = f"G1[{rng.randrange(3)}].c", False
        comps[pos] = _value(rng, construction, square)
    return "{" + ", ".join(f"{p}: {v}" for p, v in comps.items()) + "}"


def _combo(rng: random.Random, pool: tuple[str, ...]) -> str:
    a, b = rng.sample(range(len(pool)), 2)
    return f"{pool[a]} + {rng.choice((1, 2))}*{pool[b]}"


def _mod(rng: random.Random) -> int:
    return rng.choice((2, 3))


# Formula templates by quantifier prefix.  Existential blocks can only
# come out True and universal blocks only False, so the mixed prefixes
# (EA, AE, AAE) always exhaust their fragments: they are the size_cap**depth
# cost that a search budget would cut.
EVAL_TEMPLATES: dict[str, Callable[[random.Random, tuple[str, ...]], str]] = {
    "e-scaled": lambda r, p: f"E x. {(k := r.choice((2, 3)))}*x = {k}*{r.choice(p)}",
    "a-below": lambda r, p: f"A x. x < {_combo(r, p)}",
    "e-cong": lambda r, p: f"E x. 0 < x & cong({_mod(r)}, x, {_combo(r, p)})",
    "ee-split": lambda r, p: f"E x. E y. x + y = {_combo(r, p)} & x < y",
    "aa-noncong": lambda r, p: f"A x. A y. (x < y -> ~cong({_mod(r)}, x, y))",
    "ea-gap": lambda r, p: f"E x. A y. (0 < y & y < x -> ~cong({_mod(r)}, y, {r.choice(p)}))",
    "ae-desc": lambda r, p: f"A x. E y. desc_lt({_mod(r)}, x, y)",
    "aa-comm": lambda r, p: "A x. A y. x + y = y + x",
    "eee-sum": lambda r, p: f"E x. E y. E z. x + y + z = {_combo(r, p)} & cong({_mod(r)}, x, y)",
    "aae-closed": lambda r, p: "A x. A y. E z. x + y = z",
    "aaa-trans": lambda r, p: "A x. A y. A z. (x < y & y < z -> x < z)",
}


def eval_request(template: str, index: int) -> EvalRequest:
    rng = random.Random(f"oagw-bench:eval:{template}:{index}")
    construction = GAMMA if index % 2 == 0 else LAMBDA
    pool = tuple(_literal(rng, construction) for _ in range(3))
    return EvalRequest(template, construction, index, EVAL_TEMPLATES[template](rng, pool), pool)


# -- workloads -----------------------------------------------------------------


@dataclass(frozen=True)
class SuiteKind:
    suite: str
    construction: Construction
    samples: int
    universe: int

    def requests(self) -> list[SuiteRequest]:
        return [
            SuiteRequest(self.suite, self.construction, j, self.samples)
            for j in range(self.universe)
        ]


@dataclass(frozen=True)
class EvalKind:
    template: str
    universe: int

    def requests(self) -> list[EvalRequest]:
        return [eval_request(self.template, j) for j in range(self.universe)]


# Each workload is the list of its request kinds.  The comments say what
# each one stresses; BENCHMARK.json carries the same reasons.
WORKLOADS: dict[str, tuple] = {
    # Fragment search: iter_fragment and element add/scale/hash dominate.
    "search": (
        SuiteKind("psi-vs-search", GAMMA, 1, 70),
        SuiteKind("psi-vs-search", LAMBDA, 1, 70),
        SuiteKind("hprime-descriptor", GAMMA, 1, 30),
        SuiteKind("hprime-descriptor", LAMBDA, 1, 30),
        SuiteKind("lambda-repair", LAMBDA, 1, 3),
    ),
    # Many cheap cases: sampling, element construction, embeddings and
    # cmp; fragments nearly idle, the control for fragment changes.
    "sweep": (
        SuiteKind("embedding-laws", GAMMA, 20, 64),
        SuiteKind("embedding-laws", LAMBDA, 20, 64),
        SuiteKind("hprime-locality", GAMMA, 20, 40),
        SuiteKind("hprime-locality", LAMBDA, 20, 40),
        SuiteKind("lambda1-formula", LAMBDA, 20, 40),
        SuiteKind("f1-ea-closure", LAMBDA, 20, 64),
        SuiteKind("f2-interval", LAMBDA, 10, 64),
        SuiteKind("perturbation", LAMBDA, 20, 64),
    ),
    # Series rings: elements as dict and sort keys inside multiply
    # (hash/cmp), not as search states.
    "series": (
        SuiteKind("hahn-ring", GAMMA, 3, 50),
        SuiteKind("hahn-ring", LAMBDA, 3, 50),
        SuiteKind("a-membership", LAMBDA, 1, 14),
        SuiteKind("translation-soundness", LAMBDA, 10, 50),
        SuiteKind("truncated-inverse", LAMBDA, 5, 50),
    ),
    # Nested quantifiers: evaluate re-enumerates a fragment at every depth
    # (size_cap ** depth), the only place a search budget can act.
    "eval": tuple(EvalKind(t, 16) for t in EVAL_TEMPLATES)
    + (
        SuiteKind("f1-exists-closure", GAMMA, 5, 16),
        SuiteKind("f1-exists-closure", LAMBDA, 5, 16),
    ),
}


def universe(workload: str) -> list[list]:
    """Every request of the workload, grouped by kind."""
    return [kind.requests() for kind in WORKLOADS[workload]]


def one_pass(workload: str, seed: int) -> list:
    """The seed's order over the whole universe, kinds interleaved evenly."""
    rng = random.Random(f"oagw-bench:{workload}:{seed}")
    keyed = []
    for group in universe(workload):
        rng.shuffle(group)
        offset = rng.random()
        keyed.extend(((i + offset) / len(group), rng.random(), req) for i, req in enumerate(group))
    keyed.sort(key=lambda t: t[:2])
    return [req for _, _, req in keyed]


# -- the verdict reference -----------------------------------------------------


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(path: Path) -> dict[str, str]:
    with open(path) as fh:
        return json.load(fh)["digests"]


class Runner:
    """Runs requests of one workload and checks each against the reference."""

    def __init__(self, requests: list, reference: dict[str, str]) -> None:
        self.requests = requests
        self.reference = reference
        # pools are parsed once, at set-up: a request is parse + evaluate
        self.configs = {
            r.key: r.config() for r in requests if isinstance(r, EvalRequest)
        }

    def call(self, req):
        """The timed part: exactly the request's public entry points."""
        if isinstance(req, EvalRequest):
            return req.run(self.configs[req.key])
        return req.run()

    def check(self, req, result, error: Optional[BaseException]) -> tuple[Outcome, str]:
        """Outcome of a finished request; failed rows include reference mismatches."""
        if error is not None:
            return Outcome(1, 0, 1, ""), f"{req.key}: raised {error!r}"
        out = req.outcome(result)
        want = self.reference.get(req.key)
        if want != out.digest:
            return replace(out, failed=out.rows), f"{req.key}: digest {out.digest}, reference {want}"
        if out.failed:
            return out, f"{req.key}: {out.failed} failing case rows"
        return out, ""
