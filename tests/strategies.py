"""Hypothesis strategies generating random (small) IR programs.

The generated programs are structurally arbitrary within bounds —
random procedures, nested loops, calls, kernels with random behaviours
and optimizer eligibility — but always valid (acyclic calls, non-empty
bodies) and small enough that a full execution stays under ~300K
instructions. Property tests run them through the entire pipeline.

:func:`key_materials` generates nested cache-key material: every type
the fingerprint encoder accepts, frozen dataclasses inside lists and
tuples included.
"""

from __future__ import annotations

from typing import List

from hypothesis import strategies as st

from repro.cmpsim.simulator import RegionSpec
from repro.programs.behaviors import (
    AccessKind,
    blocked,
    pointer_chasing,
    random_access,
    stack_local,
    streaming,
)
from repro.programs.inputs import ProgramInput
from repro.programs.ir import (
    Call,
    Compute,
    Loop,
    Procedure,
    Program,
    finalize_program,
)

_behaviors = st.one_of(
    st.builds(
        streaming,
        footprint=st.sampled_from((4096, 65536, 1 << 20)),
        refs_per_exec=st.integers(1, 4),
        stride=st.sampled_from((8, 16, 64)),
    ),
    st.builds(
        random_access,
        footprint=st.sampled_from((16384, 262144)),
        refs_per_exec=st.integers(1, 3),
        pointer_fraction=st.sampled_from((0.0, 0.5)),
    ),
    st.builds(
        pointer_chasing,
        footprint=st.sampled_from((32768, 524288)),
        refs_per_exec=st.integers(1, 3),
    ),
    st.builds(
        blocked,
        footprint=st.sampled_from((8192, 131072)),
        refs_per_exec=st.integers(1, 4),
    ),
    st.builds(stack_local, refs_per_exec=st.integers(1, 2)),
)


def _compute(name: str):
    return st.builds(
        lambda instructions, behavior: Compute(
            name, instructions=instructions, behavior=behavior
        ),
        instructions=st.integers(10, 120),
        behavior=_behaviors,
    )


@st.composite
def _leaf_procedure(draw, index: int) -> Procedure:
    """A callable leaf: optionally a loop around 1-2 kernels."""
    name = f"leaf_{index}"
    kernels = draw(
        st.lists(
            st.integers(0, 3), min_size=1, max_size=2
        )
    )
    computes = tuple(
        draw(_compute(f"{name}_c{i}")) for i in range(len(kernels))
    )
    if draw(st.booleans()):
        body = (
            Loop(
                f"{name}_loop",
                trips=draw(st.integers(2, 20)),
                body=computes,
                unrollable=draw(st.booleans()),
                splittable=draw(st.booleans()),
            ),
        )
    else:
        body = computes
    return Procedure(
        name=name, body=body, inlinable=draw(st.booleans())
    )


@st.composite
def programs(draw) -> Program:
    """A random valid program with 1-4 leaves and a structured main."""
    n_leaves = draw(st.integers(1, 4))
    leaves: List[Procedure] = [
        draw(_leaf_procedure(i)) for i in range(n_leaves)
    ]

    main_statements = []
    n_statements = draw(st.integers(1, 4))
    for index in range(n_statements):
        kind = draw(st.integers(0, 2))
        if kind == 0:
            main_statements.append(draw(_compute(f"main_c{index}")))
        elif kind == 1:
            callee = draw(st.integers(0, n_leaves - 1))
            main_statements.append(
                Call(f"main_call{index}", callee=f"leaf_{callee}")
            )
        else:
            inner = []
            for j in range(draw(st.integers(1, 2))):
                if draw(st.booleans()):
                    inner.append(draw(_compute(f"main_l{index}_c{j}")))
                else:
                    callee = draw(st.integers(0, n_leaves - 1))
                    inner.append(
                        Call(f"main_l{index}_call{j}",
                             callee=f"leaf_{callee}")
                    )
            main_statements.append(
                Loop(
                    f"main_loop{index}",
                    trips=draw(st.integers(2, 12)),
                    input_scaled=draw(st.booleans()),
                    body=tuple(inner),
                    unrollable=draw(st.booleans()),
                    splittable=draw(st.booleans()),
                )
            )
    main = Procedure(name="main", body=tuple(main_statements))
    program = Program(
        name="randprog",
        procedures={proc.name: proc for proc in [main] + leaves},
        entry="main",
    )
    return finalize_program(program)


_coordinates = st.none() | st.tuples(st.integers(0, 99), st.integers(0, 9))

_key_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.text(max_size=6),
    st.floats(),
    st.sampled_from(list(AccessKind)),
    st.builds(
        ProgramInput,
        name=st.text(max_size=6),
        scale=st.floats(min_value=0.01, max_value=100.0),
    ),
    st.builds(
        RegionSpec,
        label=st.integers(0, 9),
        start=_coordinates,
        end=_coordinates,
    ),
    _behaviors,
)


def key_materials():
    """Nested key material: leaves inside lists, tuples, dicts and sets."""
    return st.recursive(
        _key_leaves,
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=4).map(tuple),
            st.dictionaries(
                st.text(max_size=4) | st.integers(), children, max_size=3
            ),
            st.frozensets(st.integers() | st.text(max_size=4), max_size=4),
        ),
        max_leaves=12,
    )
