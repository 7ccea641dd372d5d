"""Pinned emission digests and pass traces for the shipped corpus.

Each corpus model is compiled and emitted to every built-in target; the
SHA-256 of each emitted text and the ``(before, after)`` node counts of the
six passes must equal the values recorded here.  A change that alters a
single emitted byte or a node count of any pass fails this test, so
refactorings of the flattener or the backend can show that they keep
behaviour, and a deliberate change of output must update the digests.
"""

import hashlib

import pytest

from conftest import CORPUS_NAMES, analyze_ok, compile_corpus, parse_data_ok, parse_ok
from scomma.backend import compile_to_target, find_target
from scomma.flattener import PIPELINE, flatten
from scomma.nodes import Ref, walk

GOLDEN = {
    "golfers": (
        [(61, 61), (61, 61), (61, 811), (811, 811), (811, 811), (811, 811)],
        {
            "clp": "d389e4e14d2893088e176541712bfabca57a2f9e38aadb51a93c33fea2adc476",
            "flat": "7914224ea8a776d91134c471e1b0e962876f4661298cc9b1c18720746bcafe16",
            "gecodej": "0b128c5296265a716973c86a27cb47188a1c5180b56c331478b8f512ae4c6e18",
        },
    ),
    "ineq20": (
        [(154, 154), (154, 154), (154, 154), (154, 154), (154, 154), (154, 154)],
        {
            "clp": "ac322d2ae3e6d70cce1d9e19b55b4e8cec5ebfac7e6a7b08699bfbcacc197007",
            "flat": "9a429c875267feb30d9bf749cc96e90db201ebff4ab1d1ee326efccc128a2f57",
            "gecodej": "6f492843c89e2e01247e0e0f4145e15a8d11892fa27e728242b095a5fcc021d8",
        },
    ),
    "packing": (
        [(65, 71), (71, 67), (67, 2690), (2690, 2418), (2418, 2418), (2418, 2418)],
        {
            "clp": "c003f4a142623e57febd0f348ea235c51e55bb6bb9a15dc59f42ed069166adc5",
            "flat": "c7430e79d4e26b59a9fc0833c85cc51fe4d4759451bace21816f953edcad6694",
            "gecodej": "25d1b3f365bb69b35451ca42451462dcaa68b13e6ba6e9db51d81ed325ef7eca",
        },
    ),
    "production": (
        [(44, 46), (46, 43), (43, 64), (64, 50), (50, 50), (50, 50)],
        {
            "clp": "3f9f0efa9d96e806fb8d8cea943057289131a7c73a17a0a96923402186bd2381",
            "flat": "de43121ec05eae0f532eed138fc1f3f11705e35522022a1b833b020b6dee8579",
            "gecodej": "915b57ce596f6fdb0ac6b854874ff089d37e8d27a241f94811a806101bd20df1",
        },
    ),
    "queens-10": (
        [(35, 35), (35, 35), (35, 991), (991, 991), (991, 991), (991, 991)],
        {
            "clp": "03634ed91465030a1edf4092de80e360153477ec9b12bcbad45fad52255e1e90",
            "flat": "6acac031c8470e1c020c89f8bd0f0604e0e431e17888ad545cf5542a7bad995d",
            "gecodej": "499e4e9713dc8eb7147dfaee562185477678dc1adee4079594d97e5e3e83ed1d",
        },
    ),
    "queens-18": (
        [(35, 35), (35, 35), (35, 3367), (3367, 3367), (3367, 3367), (3367, 3367)],
        {
            "clp": "07084b672b12d1f0716bfd4a31d68082b3bc68c22f3f2e565e574d6856c1159f",
            "flat": "761924ee04ea0578551038ae854542deb64af8e9e19a4ebb3941b047bdd9bf9d",
            "gecodej": "079f57bf140083e2ce1ee8ea10279068c02caf85a1d987f4709ca5f43a7a824c",
        },
    ),
    "send": (
        [(72, 72), (72, 72), (72, 72), (72, 72), (72, 72), (72, 72)],
        {
            "clp": "da5e6800cd848bbeabb774f21e73109908f6c0ca5fad873148050056d7604d94",
            "flat": "18d46f5c76b0c6e960abd2fc2916db31b536e13acfc1f62e537de52b52cc8452",
            "gecodej": "35f87beae4f0d9b7a94d5331fabc781c4c3058ec38abfb9f844ed6ec47616100",
        },
    ),
    "stable": (
        [(58, 66), (66, 66), (66, 966), (966, 672), (672, 672), (672, 672)],
        {
            "clp": "9172aff6c14eeefed468a433c03a86e6671f37b756be83a7afba28e124367d38",
            "flat": "00a7f0001866a258914913026b943168884a62044881e8621e492b2aa570d7fd",
            "gecodej": "4c61b05235d567e8b7f361c62713e444226db4102b5a7ce50f3ffab3da5c3c60",
        },
    ),
    "sudoku": (
        [(143, 143), (143, 143), (143, 526), (526, 537), (537, 537), (537, 537)],
        {
            "clp": "2690dbdb7a772e4603b7c1d258f9f320d381dbe7e3af9e026a32baa22d4c38cf",
            "flat": "8736920a741b1fdb039a7a2f3a736aa6f4542b022544bc9ef86559f6c14f468a",
            "gecodej": "cdb8ea5865a7691d1603a1ddceda240c0d3eeaac5739f6f897ff446243457af0",
        },
    ),
}


def test_golden_covers_the_corpus():
    assert sorted(GOLDEN) == sorted(CORPUS_NAMES)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_corpus_emission_and_trace_are_pinned(name):
    counts, digests = GOLDEN[name]
    _tm, fm, trace = compile_corpus(name)
    assert trace.steps == [(p, b, a) for (p, _), (b, a) in zip(PIPELINE, counts)]
    for target, digest in digests.items():
        text = compile_to_target(fm, find_target(target))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest, target


# Composition expansion beyond the corpus: grouped attributes of an object
# array, fully assigned (the table ``p_w``, read through the variable index
# ``k``) and partly assigned (``p_x``, whose assigned ``p[1].x`` folds to 3);
# a scalar object inside an element (``p_2_e_cyl``); an object array inside
# an element (``p_1_q_y[2]``) with a zone of its own; and an element's
# array attribute assigned in full (the table ``p_1_t``).
OBJECT_MODEL = """
class Main {
  P p[2];
  int k in [1, 2];

  constraint main {
    p[k].w + p[k].x >= 6;
    p[1].x + p[2].x <= 10;
    p[1].t[k] <> p[2].e.cyl;
    p[1].q[2].y <> p[1].q[1].y;
    p[2].q[1].y = p[k].w - 4;
  }
}

class P {
  int w;
  int x in [0, 9];
  Engine e;
  Q q[2];
  int t[2];

  constraint inner {
    e.cyl <= q[1].y + x;
  }
}

class Engine {
  int cyl in [1, 4];
}

class Q {
  int y in [0, 5];

  constraint bound {
    y <= 4;
  }
}
"""

OBJECT_DATA = "P Main.p := [{5, 3, {2}, _, [1, 2]}, {7, _, _, [{1}, _], [2, 1]}];"

OBJECT_GOLDEN = (
    [(60, 60), (60, 60), (60, 60), (60, 83), (83, 83), (83, 83)],
    {
        "clp": "4ac10103875f7010360553d9d25fda7c17ee8896b2583267e67e981f9e2229f2",
        "flat": "9b0aa58d052dc1f92160b21ecc67efc1e1948c4c20e51d124cd2bb096d14e335",
        "gecodej": "094c08c27a1a6264431a8a48521cb08658e90b33e96c54f423cf7f4f0b980f47",
    },
)


def test_object_model_emission_and_trace_are_pinned():
    counts, digests = OBJECT_GOLDEN
    tm = analyze_ok(parse_ok(OBJECT_MODEL), parse_data_ok(OBJECT_DATA))
    fm, trace = flatten(tm)
    assert trace.steps == [(p, b, a) for (p, _), (b, a) in zip(PIPELINE, counts)]
    for target, digest in digests.items():
        text = compile_to_target(fm, find_target(target))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest, target
    # resolved references keep the source span of the reference they replace
    refs = [n for c in fm.constraints if c.origin != "data"
            for n in walk(c.expr) if isinstance(n, Ref)]
    assert refs and all(r.span is not None for r in refs)


# Every expression concept and parenthesisation case the templates render:
# real literals (one negative), true/false, `not` and negation, calls, an
# array literal, set literals, negative literal operands (`x*(-1)`),
# `-(-x)`, arrows grouping to the right, and a right operand of `-` that
# needs its parentheses.
EXPRESSION_MODEL = """
class E {
  real r in [0.5, 2.5];
  int x in [-3, 3];
  int y in [-3, 3];
  bool b;
  bool c;
  int a[3] in [0, 4];
  set of int s in [1, 3];

  constraint z {
    r * 2.0 <= 4.5;
    r * (-1.5) >= -3.0;
    b = true;
    c <> false;
    not b or c;
    not (b and c);
    -(-x) = y;
    x * (-1) <= y;
    -x + 2 >= -3;
    b -> c -> b;
    (b -> c) -> b;
    alldifferent([x, y, a[1]]);
    alldifferent(a);
    x in {-1, 0, 2};
    cardinality(s) = 2;
    s = {1, 3};
    x - (y - 1) <= 2;
  }
}
"""

EXPRESSION_DIGESTS = {
    "clp": "77016ceda3aad6a335b585ddd67f8d154aae00ea7285c3d2fada8e2022347f94",
    "flat": "489ecaaef06d49efd1c57da45bc2af8ab4ffad062492220618f2c4bdf256f2b1",
    "gecodej": "c6a51adcbaa5fd115d3582eb275ba7799940f9088829ea922b71b5713705052a",
}


def test_expression_model_emission_is_pinned():
    fm, _trace = flatten(analyze_ok(parse_ok(EXPRESSION_MODEL)))
    for target, digest in EXPRESSION_DIGESTS.items():
        text = compile_to_target(fm, find_target(target))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest, target
