"""Golden digests of suite JSON and of evaluate verdicts.

Each registered suite and demo runs on each construction it declares at seed 7
with ``samples=3``; the sha256 of its JSON report (serialized as
``oagw check --json`` writes it) must equal the recorded digest.
``gamma-counterexample`` ignores ``samples``: it runs its fixed
full-group scan and refutes the image for every coefficient bound.

``EVAL_GOLDEN`` pins what ``evaluate`` returns: truth, witness text and
reason of every prefix shape and hoisting shape of ``test_evaluate`` on
both pools and both constructions, of the ``exists`` and ``ea``
closure corpora, and of the bounded congruence sentences in
``RPHI_SENTENCES``, at three size caps.  ``test_evaluate`` checks such
verdicts against the models of ``tests/reference.py``, which share no
search code with ``evaluate``, so a change in the fragments fails there
too; these digests also catch a change that moves the code and its
model alike.

A change that moves these digests on purpose re-records them with::

    PYTHONPATH=src python tests/test_golden.py

and pastes the printed tables over ``GOLDEN`` and ``EVAL_GOLDEN``; the
change then says which rows moved and why.
"""

import hashlib
import json

import pytest

from oagw.elements import GAMMA, LAMBDA, format_element, parse_element
from oagw.evaluate import evaluate
from oagw.formulas import parse_formula
from oagw.fragments import FragmentConfig
from oagw.suites import DEMOS, SUITES, SuiteOptions, gen_corpus
from test_evaluate import HOISTING_SHAPES, POOL_TEXTS, PREFIX_SHAPES

SEED = 7
SAMPLES = 3

GOLDEN = {
    "psi-vs-search[lambda]": "d948b7739a2edc419412decd77ef13e5b8a72fa6560678aa61097d4081535b29",
    "psi-vs-search[gamma]": "499a1470251c8fe3635f7b12fb87976dfb90815b36c2cb78d165be823743d212",
    "hprime-descriptor[lambda]": "a66955a7f88cd3b7c076c9a5603dbee746846485ef3e6e4780c232f13c152067",
    "hprime-descriptor[gamma]": "d3b301260029972f3dabd6abbd81ec90bb84411db998070d4c603be7c5a89fce",
    "hprime-locality[lambda]": "ac9efa7ec782c7195150e3cf817f1340f9b64240e4cd9b90eddc4c86c58a3ed2",
    "hprime-locality[gamma]": "ac83c94d3d8609b6fcc97d160ec74d16e32d3a4dbde74735bb8c504a4a1ae82c",
    "lambda1-formula[lambda]": "32c667bbd48d9dea0c1b97e49222d5c35e5b944a59140daf456935527b963bb7",
    "embedding-laws[lambda]": "bd88643c4eb613e822843cbb5e3bd9ecc43485c6311d28944945d5704d5eeb31",
    "embedding-laws[gamma]": "9118becd0839219ee8f9c81baac600061dc44545cf413c618b907813e6f7a876",
    "f1-exists-closure[lambda]": "95fad433b2153a15f666095857bdd3e8a82fe71e5e22cbe6ecf61b5a66147b23",
    "f1-exists-closure[gamma]": "64ab5e1b2863f511125e5718ab9d15da0a8c0e8342d6b45da4aafaba78f89422",
    "f1-ea-closure[lambda]": "6b1fc39721d0dc54d0096eb04a22f179dff59a2cadb1b50b71fdd14fc74c09f0",
    "f2-interval[lambda]": "358b016735443db13056e7b4fd4459b51abbfad460c0f5c9f15c67ab882b544b",
    "gamma-counterexample[gamma]": "09cb80971fd4b4fc4b3ddd4672a340d1b3aa7efc6fae321ebc238158d1de1c5b",
    "lambda-repair[lambda]": "6f8ef75febac3cb41b9b97b578cf9f1a2d20dab35d7277c9f7b72633068edae9",
    "hahn-ring[lambda]": "47d88386c0cbb38e299d33f923bcc8aa54c8caf1960a6d257bb4981df97c6943",
    "hahn-ring[gamma]": "9863436046dc898ac4bde9384778247d6c12930e0ec95411698a7f932dec1fa0",
    "a-membership[lambda]": "b1c90b8c1229ca7891431066e904a469f9955a97a63190aeef905bd9a9b3c75b",
    "translation-soundness[lambda]": "8e4f95e92c5d4400a520ba3ea7bdbfa7740aa51a27f4d1dd3bb8e7fd1e8372c0",
    "perturbation[lambda]": "e8c7d5c6cd43df568fabcf1ed3281d4a12d2269cd7e59dbb2aeece258c4cc75e",
    "truncated-inverse[lambda]": "4328171a2bea00c5470516901c5a878fe542240169c16ee166cbdbed4bd1e7e7",
    "ha-witness[lambda]": "f6c56bb24668e5f611532bccad37c9b633b17a1cf64ab0ee4d2cb4f46bdfeeab",
}


EVAL_SIZE_CAPS = (7, 16, 30)

# Sentences whose rphi systems mention only variables, so their element
# constants (none) cannot move with the way rphi is represented.
RPHI_SENTENCES = [
    "E a. E b. rphi(2; z < a; ; z ~ b)",
    "A a. rphi(2; z < a; ; )",
    "E a. E b. ~rphi(2; z < a; ; z ~ b) & 0 < a",
    "E a. A b. rphi(3; z1 z2 < a; u; z1 ~ u, z2 ~ b)",
    "E a. E b. rphi(2; z1 < a, z2 < b; u; z1 ~ u, u ~ z2, z2 ~ a, z1 ~ b)",
    "A a. E b. ~rphi(2; z1 < a, z2 < b; u; z1 ~ u, u ~ z2, z2 ~ a, z1 ~ b)",
    "A a. A b. rphi(2; z1 < a, z2 < a; ; z1 ~ a, z2 ~ b, z1 ~ z2)",
    "E a. E b. rphi(3; z1 z2 < a, z3 < b; u; z1 ~ a, z2 ~ u, u ~ b, z3 ~ z2)",
]

EVAL_GOLDEN = {
    "prefix-shapes[lambda,pool0]": "c674b8c12a707c7651603dd553ae3a11493955af4731493a39e3eba27d4eaf66",
    "prefix-shapes[lambda,pool1]": "d2914884da8bf1d4a88ddc15af0ba18de1814d0ef2b757072e7a3891dc604458",
    "hoisting-shapes[lambda,pool0]": "bc497438d626faf84fc6c5557f3d250285c00b145f5cdea6e8e9008d78f393ee",
    "hoisting-shapes[lambda,pool1]": "c93b5ed33b91bf8949ccd2cc66857a71774b763a08b9ee64a85335808b7f72fb",
    "corpus-exists[lambda]": "27852821dec87fbcb51908af2adb46d4e9b4fc2cf8fd9d27a9b61132d49d6442",
    "corpus-ea[lambda]": "48d8a65cf29a9c29bcd1ae291e92f5b0141033f2ad599cf79c4f814874f0edcf",
    "rphi-shapes[lambda]": "b64d543dd6e6fec895ba8db8963cfe72b49352cd33bd94a99fa512e58d7235d2",
    "prefix-shapes[gamma,pool0]": "c674b8c12a707c7651603dd553ae3a11493955af4731493a39e3eba27d4eaf66",
    "prefix-shapes[gamma,pool1]": "0a85d3ba5668e2af116351ec3c60ace027718b1a541c6ccb391c2166b19b12d1",
    "hoisting-shapes[gamma,pool0]": "0e716f8330d3932d69b81f79c67244ec903f52a941a854cce366fb68006e82ce",
    "hoisting-shapes[gamma,pool1]": "9507de4f3b934f9512f0a039969e0090cb5518f4fab504bd701af9cb4761ce23",
    "corpus-exists[gamma]": "2b4314d44150934d8d7a893d5d03eeca10a196039bfbc615434f11bb8921566a",
    "corpus-ea[gamma]": "6f0c725453864f1ee8338766f548ba157f65de6d5ca64920cedfd7921ff10d23",
    "rphi-shapes[gamma]": "d5265f3ead0a5c538fc3815ce3e2660ba3629480be0ac53abe34b478f5cdae19",
}


def _cases():
    registry = {**SUITES, **DEMOS}
    for name, record in registry.items():
        for construction in record.constructions:
            yield f"{name}[{construction}]", record, construction


def _digest(record, construction) -> str:
    report = record(SuiteOptions(construction=construction, seed=SEED, samples=SAMPLES))
    payload = json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def test_every_case_has_a_digest():
    assert sorted(key for key, _, _ in _cases()) == sorted(GOLDEN)


@pytest.mark.parametrize(
    "key,record,construction", [pytest.param(*case, id=case[0]) for case in _cases()]
)
def test_suite_json_digest(key, record, construction):
    assert _digest(record, construction) == GOLDEN[key]


def _eval_cases():
    for construction in (LAMBDA, GAMMA):
        for name, shapes in (("prefix", PREFIX_SHAPES.values()), ("hoisting", HOISTING_SHAPES)):
            for i, pool_text in enumerate(POOL_TEXTS):
                texts = []
                for shape in shapes:
                    for j, lit in enumerate(pool_text):
                        shape = shape.replace(f"P{j}", lit)
                    texts.append(shape)
                yield f"{name}-shapes[{construction},pool{i}]", construction, pool_text, texts
        for kind in ("exists", "ea"):
            texts = gen_corpus(kind, 10, 5, construction)
            yield f"corpus-{kind}[{construction}]", construction, POOL_TEXTS[0], texts
        yield f"rphi-shapes[{construction}]", construction, POOL_TEXTS[0], RPHI_SENTENCES


def _eval_digest(construction, pool_text, texts) -> str:
    pool = tuple(parse_element(lit, construction) for lit in pool_text)
    lines = []
    for size_cap in EVAL_SIZE_CAPS:
        cfg = FragmentConfig(2, pool, size_cap)
        for text in texts:
            v = evaluate(construction, parse_formula(text, construction), {}, cfg)
            witness = ", ".join(f"{x}={format_element(e)}" for x, e in (v.witness or {}).items())
            lines.append(f"{size_cap} | {text} | {v.truth.value} | {witness} | {v.reason}")
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def test_every_eval_case_has_a_digest():
    assert sorted(key for key, *_ in _eval_cases()) == sorted(EVAL_GOLDEN)


@pytest.mark.parametrize(
    "key,construction,pool_text,texts",
    [pytest.param(*case, id=case[0]) for case in _eval_cases()],
)
def test_evaluate_verdict_digest(key, construction, pool_text, texts):
    assert _eval_digest(construction, pool_text, texts) == EVAL_GOLDEN[key]


if __name__ == "__main__":
    print("GOLDEN = {")
    for key, record, construction in _cases():
        print(f'    "{key}": "{_digest(record, construction)}",')
    print("}")
    print()
    print("EVAL_GOLDEN = {")
    for key, construction, pool_text, texts in _eval_cases():
        print(f'    "{key}": "{_eval_digest(construction, pool_text, texts)}",')
    print("}")
