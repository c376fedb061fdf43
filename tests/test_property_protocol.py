"""Property-based protocol equivalence: the crown-jewel test.

For arbitrary (properly synchronized) access schedules, the JiaJia SW-DSM
and the SCI-VM hybrid DSM must produce exactly the data the hardware-
coherent SMP produces. Hypothesis generates random SPMD programs — a
sequence of phases, each phase assigning each rank a set of writes to
random array slices, separated by barriers, plus lock-protected
read-modify-write steps — and we compare the final array contents across
all three substrates byte for byte.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import preset

N_RANKS = 2
SIDE = 24  # small array; pages still shared because side*8 < page size


@st.composite
def schedules(draw):
    """A random synchronized SPMD program description."""
    n_phases = draw(st.integers(1, 4))
    phases = []
    for _ in range(n_phases):
        ops = []
        for rank in range(N_RANKS):
            n_writes = draw(st.integers(0, 3))
            writes = []
            for _ in range(n_writes):
                r0 = draw(st.integers(0, SIDE - 1))
                r1 = draw(st.integers(r0 + 1, SIDE))
                c0 = draw(st.integers(0, SIDE - 1))
                c1 = draw(st.integers(c0 + 1, SIDE))
                value = draw(st.integers(1, 100))
                writes.append((r0, r1, c0, c1, float(value)))
            ops.append(writes)
        phases.append(ops)
    n_incr = draw(st.integers(0, 4))
    return phases, n_incr


def execute(platform_name, program):
    phases, n_incr = program
    plat = preset(platform_name).build()

    def main(env):
        A = env.hamster.memory.alloc_array_collective((SIDE, SIDE), name="A")
        if env.rank == 0:
            A[:, :] = 0.0
        env.barrier()
        for ops in phases:
            # Disjoint-writer discipline per phase: rank r only writes rows
            # congruent to r mod N_RANKS within its slices (avoids racy
            # same-cell writes whose outcome is platform-defined).
            for r0, r1, c0, c1, value in ops[env.rank]:
                for row in range(r0, r1):
                    if row % N_RANKS == env.rank:
                        A[row, c0:c1] = value + env.rank
            env.barrier()
        for _ in range(n_incr):
            env.lock(0)
            A[0, 0] = float(A[0, 0]) + 1.0
            env.unlock(0)
        env.barrier()
        return A[:, :]

    results = plat.hamster.run_spmd(lambda env: main(env))
    # Every rank must observe the same final array after the barrier.
    for other in results[1:]:
        np.testing.assert_array_equal(results[0], other)
    return results[0]


class TestProtocolEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(program=schedules())
    def test_all_substrates_agree(self, program):
        smp = execute("smp-2", program)
        jiajia = execute("sw-dsm-2", program)
        hybrid = execute("hybrid-2", program)
        np.testing.assert_array_equal(smp, jiajia)
        np.testing.assert_array_equal(smp, hybrid)

    @settings(max_examples=10, deadline=None)
    @given(program=schedules())
    def test_jiajia_deterministic(self, program):
        a = execute("sw-dsm-2", program)
        b = execute("sw-dsm-2", program)
        np.testing.assert_array_equal(a, b)
