import hashlib
import random

from cobeq import Mode, render_arrow, render_object
from cobeq.generate import (
    random_arrow, random_arrow_with_source, random_equal_pair, random_object,
    random_proper_arrow, rewrite_once, same_type_variant,
)


def test_draws_digest():
    # every public draw over all modes, seeds 0-5, term depths 0-3 and object
    # depths 0-2; the rng state after each draw pins how many values it used
    h, draws = hashlib.sha256(), 0

    def put(*renders):
        nonlocal draws
        h.update((" | ".join(renders) + f" @ {rng.random()!r}\n").encode())
        draws += 1

    for mode in Mode:
        for seed in range(6):
            for depth in range(4):
                for od in range(3):
                    rng = random.Random(seed)
                    a = random_object(rng, mode, od)
                    put(render_object(a))
                    f = random_arrow(rng, mode, depth, od)
                    put(render_arrow(f))
                    put(render_arrow(random_arrow_with_source(rng, a, mode, depth, od)))
                    put(render_arrow(same_type_variant(rng, f)))
                    put(render_arrow(random_proper_arrow(rng, mode, depth, od)))
                    lhs, rhs = random_equal_pair(rng, 4, mode, depth, od)
                    put(render_arrow(lhs), render_arrow(rhs))
                    out = rewrite_once(rng, f, mode)
                    put("none" if out is None else render_arrow(out))
    assert draws == 1512
    assert h.hexdigest() == (
        "20a52cce0b3df535676530c2e9ea8567c85d2c2050c6717a348c01e2c3491461")
