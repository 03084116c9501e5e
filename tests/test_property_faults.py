"""Property-based coverage of the adaptive steering paths under faults.

Two families of guarantees:

1. **Steering faults are caught** — for every ``n <= 16`` prefix and
   mux-merger sorter, *every* single stuck-at on a steering/control wire
   is caught by the exhaustive verifier, with exactly one principled
   exception: the prefix sorter's full-count MSB stuck at 0.  That wire
   is 1 only on the all-ones input, whose output is all-ones under any
   steering whatsoever — the test doesn't just allow the exception, it
   *proves* the redundancy by tapping the wire across all ``2^n`` inputs.

2. **Engines agree on broken circuits** — the bit-packed compiled engine
   and the element-at-a-time interpreter must produce identical outputs
   for arbitrary faulted netlists on arbitrary batches (hypothesis picks
   the faults and inputs; batches of 1 to 128 rows cover a partial
   word, a full word and a padded second word).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import verify_sorter_exhaustive
from repro.circuits import (
    StuckAt,
    apply_fault,
    apply_faults,
    control_wires,
    enumerate_faults,
    get_plan,
    simulate,
)
from repro.circuits.simulate import simulate_interpreted
from repro.core import build_mux_merger_sorter, build_prefix_sorter

BUILDERS = {"prefix": build_prefix_sorter, "mux_merger": build_mux_merger_sorter}

# Build each sorter once at module scope: the property tests draw many
# (fault, input) examples against the same compiled netlists.
_NETS = {
    (name, n): BUILDERS[name](n)
    for name in BUILDERS
    for n in (4, 8, 16)
}


def _all_ones_redundant(net, wire: int) -> bool:
    """True iff ``wire`` is 0 on every input except all-ones.

    On the all-ones input every wire permutation network emits all ones,
    so steering is irrelevant there: a stuck-at-0 on such a wire can
    never corrupt an output.  Checked by tapping the wire across the
    full exhaustive batch with the compiled engine.
    """
    from repro.circuits import exhaustive_inputs

    n = len(net.inputs)
    X = exhaustive_inputs(n)
    _, tapped = get_plan(net).execute(X, taps=[wire])
    active = np.nonzero(tapped[:, 0])[0]
    return all((X[r] == 1).all() for r in active)


@pytest.mark.parametrize("name", sorted(BUILDERS))
@pytest.mark.parametrize("n", [4, 8, 16])
def test_every_control_stuck_at_caught_or_provably_redundant(name, n):
    net = _NETS[(name, n)]
    masked = []
    for w in sorted(control_wires(net)):
        for v in (0, 1):
            if verify_sorter_exhaustive(apply_fault(net, StuckAt(w, v))):
                masked.append((w, v))
    if name == "mux_merger":
        # the middle bits and switch selects have zero redundancy
        assert masked == []
        return
    # prefix: exactly the full-count MSB stuck at 0 survives, and only
    # because the wire is provably inert away from the all-ones input
    assert len(masked) == 1
    wire, value = masked[0]
    assert value == 0
    assert _all_ones_redundant(net, wire)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_every_control_inversion_caught(name):
    net = _NETS[(name, 8)]
    for f in enumerate_faults(net, kinds=("control",)):
        assert not verify_sorter_exhaustive(apply_fault(net, f)), f.id


@given(data=st.data())
@settings(max_examples=40)
def test_packed_engine_matches_interpreter_under_faults(data):
    name = data.draw(st.sampled_from(sorted(BUILDERS)), label="network")
    n = data.draw(st.sampled_from([8, 16]), label="n")
    net = _NETS[(name, n)]
    universe = enumerate_faults(net)
    k = data.draw(st.integers(min_value=1, max_value=3), label="k")
    faults = data.draw(
        st.lists(
            st.sampled_from(universe), min_size=k, max_size=k, unique=True
        ),
        label="faults",
    )
    mutant = apply_faults(net, faults)
    mutant.validate(strict=True)
    seed = data.draw(st.integers(min_value=0, max_value=2 ** 16), label="seed")
    rows = data.draw(st.integers(min_value=1, max_value=128), label="rows")
    batch = np.random.default_rng(seed).integers(0, 2, (rows, n)).astype(np.uint8)
    engine = simulate(mutant, batch)
    interp = simulate_interpreted(mutant, batch)
    assert np.array_equal(engine, interp), [f.id for f in faults]


@given(
    seed=st.integers(min_value=0, max_value=2 ** 16),
    cycle=st.integers(min_value=0, max_value=8),
)
@settings(max_examples=20)
def test_transient_only_corrupts_inflight_groups(seed, cycle):
    """A single-cycle glitch in the Model-B pipeline never touches groups
    whose values were latched at other clocks: outputs differ from the
    clean run on at most one group."""
    from repro.circuits import PipelinedNetlist

    net = _NETS[("mux_merger", 8)]
    rng = np.random.default_rng(seed)
    groups = [rng.integers(0, 2, 8).tolist() for _ in range(4)]
    clean, _ = PipelinedNetlist(net).run([list(g) for g in groups])
    wire = int(rng.choice(sorted(control_wires(net))))
    glitched, _ = PipelinedNetlist(net, transients=[(wire, cycle)]).run(
        [list(g) for g in groups]
    )
    differing = sum(1 for a, b in zip(clean, glitched) if a != b)
    assert differing <= 1
