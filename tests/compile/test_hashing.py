"""Content-hash properties: order insensitivity, semantic sensitivity.

The two laws the cache relies on (see ``src/repro/compile/hashing.py``):
building the same plan with dictionaries populated in any insertion
order yields the same hash, while flipping any *semantic* ingredient —
one link direction, one memory word, one instruction word — yields a
different one.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compile import hashing
from repro.compile.hashing import (
    canonical_bytes,
    epoch_bytes,
    epoch_fingerprint,
    plan_hash,
    program_fingerprint,
)
from repro.compile.ir import FrozenImage, IRBuilder
from repro.errors import CompileError
from repro.fabric.assembler import assemble
from repro.fabric.links import Direction
from repro.fabric.rtms import EpochSpec
from repro.units import DATA_MEM_WORDS

from tests.compile.conftest import build_tiny_plan

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**62), 2**62),
    st.floats(allow_nan=False),
    st.text(max_size=12),
    st.sampled_from(list(Direction)),
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.integers(-100, 100), inner, max_size=4),
    ),
    max_leaves=12,
)


class TestCanonicalBytes:
    @given(st.dictionaries(st.integers(-1000, 1000), st.integers(), max_size=8),
           st.randoms(use_true_random=False))
    def test_dict_insertion_order_is_irrelevant(self, d, rnd):
        items = list(d.items())
        rnd.shuffle(items)
        assert canonical_bytes(dict(items)) == canonical_bytes(d)

    @settings(max_examples=60)
    @given(values)
    def test_identity_free_and_deterministic(self, value):
        # A deep copy shares no object identity with the original, yet
        # serializes to the same bytes — canonical form never leans on
        # id()/hash() salting.
        import copy

        assert canonical_bytes(copy.deepcopy(value)) == canonical_bytes(value)

    def test_tuple_and_list_agree(self):
        assert canonical_bytes((1, 2, "x")) == canonical_bytes([1, 2, "x"])

    def test_bool_is_not_int(self):
        assert canonical_bytes(True) != canonical_bytes(1)

    def test_direction_tagged_by_name(self):
        assert canonical_bytes(Direction.EAST) != canonical_bytes("EAST")

    def test_unknown_type_is_a_compile_error(self):
        with pytest.raises(CompileError, match="cannot canonically hash"):
            canonical_bytes(object())

    def test_unhashable_inside_container_is_caught(self):
        with pytest.raises(CompileError):
            canonical_bytes({(0, 0): {1: set()}})


class TestOrderInsensitivity:
    def test_poke_and_link_insertion_order(self, tiny_program):
        forward = EpochSpec(
            name="e",
            links={(0, 0): Direction.EAST, (1, 0): Direction.NORTH},
            programs={(0, 0): tiny_program, (0, 1): tiny_program},
            pokes={(0, 0): {1: 10, 2: 20}, (1, 1): {0: 5}},
        )
        backward = EpochSpec(
            name="e",
            links={(1, 0): Direction.NORTH, (0, 0): Direction.EAST},
            programs={(0, 1): tiny_program, (0, 0): tiny_program},
            pokes={(1, 1): {0: 5}, (0, 0): {2: 20, 1: 10}},
        )
        assert canonical_bytes(epoch_fingerprint(forward)) == \
            canonical_bytes(epoch_fingerprint(backward))

    def test_full_plans_hash_identically(self):
        a = build_tiny_plan().plan()
        b = build_tiny_plan().plan()
        assert plan_hash(a) == plan_hash(b)

    def test_program_identity_is_irrelevant(self):
        # Two distinct Program objects with identical source fingerprint
        # (and therefore hash) the same.
        p1 = assemble("MOV 5, #1\nHALT", name="tiny")
        p2 = assemble("MOV 5, #1\nHALT", name="tiny")
        assert p1 is not p2
        assert canonical_bytes(program_fingerprint(p1)) == \
            canonical_bytes(program_fingerprint(p2))


class TestSemanticSensitivity:
    def test_flipping_one_link_changes_the_hash(self):
        east = build_tiny_plan(link_dir=Direction.EAST).plan()
        south = build_tiny_plan(link_dir=Direction.SOUTH).plan()
        assert plan_hash(east) != plan_hash(south)

    def test_detaching_the_link_changes_the_hash(self):
        linked = build_tiny_plan(link_dir=Direction.EAST).plan()
        detached = build_tiny_plan(link_dir=None).plan()
        assert plan_hash(linked) != plan_hash(detached)

    def test_flipping_one_memory_word_changes_the_hash(self):
        a = build_tiny_plan(image_word=7).plan()
        b = build_tiny_plan(image_word=8).plan()
        assert plan_hash(a) != plan_hash(b)

    def test_immediates_equal_in_their_low_16_bits_differ(self):
        # 70000 & 0xFFFF == 4464: the 72-bit words alone would collide
        wide = "MOV 5, #70000\nHALT"
        narrow = "MOV 5, #4464\nHALT"
        assert program_fingerprint(assemble(wide, name="p")) != \
            program_fingerprint(assemble(narrow, name="p"))
        assert plan_hash(build_tiny_plan(source=wide).plan()) != \
            plan_hash(build_tiny_plan(source=narrow).plan())

    def test_flipping_one_instruction_changes_the_hash(self):
        a = build_tiny_plan(source="MOV 5, #1\nHALT").plan()
        b = build_tiny_plan(source="MOV 5, #2\nHALT").plan()
        assert plan_hash(a) != plan_hash(b)

    def test_renaming_an_epoch_changes_the_hash(self):
        a = build_tiny_plan(epoch_name="stage0").plan()
        b = build_tiny_plan(epoch_name="stage1").plan()
        assert plan_hash(a) != plan_hash(b)

    def test_link_cost_is_part_of_the_identity(self):
        a = build_tiny_plan(link_cost_ns=0.0).plan()
        b = build_tiny_plan(link_cost_ns=100.0).plan()
        assert plan_hash(a) != plan_hash(b)

    def test_mesh_shape_is_part_of_the_identity(self):
        a = build_tiny_plan(rows=2, cols=2).plan()
        b = build_tiny_plan(rows=2, cols=3).plan()
        assert plan_hash(a) != plan_hash(b)

    @given(st.integers(0, 2**40), st.integers(0, 2**40))
    def test_any_memory_word_flip_is_visible(self, w1, w2):
        a = build_tiny_plan(image_word=w1).plan()
        b = build_tiny_plan(image_word=w2).plan()
        assert (plan_hash(a) == plan_hash(b)) == (w1 == w2)


coords = st.tuples(st.integers(-2, 40), st.integers(-2, 40))
words = st.one_of(
    st.integers(-(2**47), 2**47 - 1),
    st.integers(-(2**70), 2**70),
    st.sampled_from([0, -1, 2**47 - 1, -(2**47)]),
)
plain_images = st.dictionaries(st.integers(-5, 600), words, max_size=6)
frozen_images = st.dictionaries(
    st.integers(0, DATA_MEM_WORDS - 1), words, max_size=6
).map(FrozenImage)
images = st.one_of(plain_images, frozen_images)
sequences = st.one_of(
    st.lists(coords, max_size=4),
    st.lists(coords, max_size=4).map(tuple),
)
_PROGRAMS = [
    assemble("MOV 5, #1\nHALT", name="tiny"),
    assemble(".var a\n.word a, 42\nHALT", name="with_image"),
]


@st.composite
def epoch_specs(draw):
    return EpochSpec(
        name=draw(st.text(max_size=8)),
        links=draw(st.dictionaries(
            coords, st.sampled_from([None, *Direction]), max_size=4)),
        programs=draw(st.dictionaries(
            coords, st.sampled_from(_PROGRAMS), max_size=3)),
        data_images=draw(st.dictionaries(coords, images, max_size=3)),
        pokes=draw(st.dictionaries(coords, images, max_size=3)),
        run=draw(sequences),
        restart=draw(st.booleans()),
        depends_on=draw(sequences),
    )


def _plan_with(**epoch):
    builder = IRBuilder("tiny", {}, 2, 2, 0.0)
    builder.emit(EpochSpec(name="e", **epoch))
    return builder.plan()


class TestFlatEpochEncoder:
    """``plan_hash`` encodes epochs flat; the fingerprint walk is the
    reference it must match byte for byte."""

    @settings(max_examples=200)
    @given(epoch_specs())
    def test_flat_bytes_equal_the_reference(self, spec):
        reference = canonical_bytes(epoch_fingerprint(spec))
        assert hashing._flat_epoch(spec) == reference
        assert epoch_bytes(spec) == reference

    @settings(max_examples=100)
    @given(epoch_specs())
    def test_a_frozen_image_encodes_as_its_dict(self, spec):
        thawed = dataclasses.replace(
            spec,
            data_images={c: dict(i) for c, i in spec.data_images.items()},
            pokes={c: dict(i) for c, i in spec.pokes.items()},
        )
        assert epoch_bytes(spec) == epoch_bytes(thawed)
        assert epoch_bytes(spec) == canonical_bytes(epoch_fingerprint(thawed))

    def test_frozen_image_is_checked_when_built(self):
        import numpy as np

        for bad in ({3: np.int64(7)}, {3: True}, {True: 3}, {np.int64(3): 1},
                    {3.0: 1}, {DATA_MEM_WORDS: 1}, {-1: 1}):
            with pytest.raises(CompileError):
                FrozenImage(bad)
        image = FrozenImage({9: 1, 2: 5})
        assert list(image.items()) == [(2, 5), (9, 1)]
        assert image == {2: 5, 9: 1}
        with pytest.raises(TypeError, match="immutable"):
            image[3] = 4
        assert pickle.loads(pickle.dumps(image)) == image

    def test_reference_types_take_the_reference_path(self):
        # bool and numpy words would format as plain numbers under
        # ``%d``; the flat encoder hands them to the general encoder.
        import numpy as np

        for image in ({3: True}, {np.int64(3): 1}, {3: 1.5}):
            spec = EpochSpec(name="e", pokes={(0, 0): image})
            assert hashing._flat_epoch(spec) is None
        spec = EpochSpec(name="e", pokes={(0, 0): {3: True}})
        assert epoch_bytes(spec) == canonical_bytes(epoch_fingerprint(spec))
        assert b"b1;" in epoch_bytes(spec)
        for odd in (EpochSpec(name="e", run=[[0, 1]]),
                    EpochSpec(name="e", links={(0, True): None})):
            assert hashing._flat_epoch(odd) is None
            assert epoch_bytes(odd) == canonical_bytes(epoch_fingerprint(odd))

    def test_numpy_word_is_a_compile_error(self):
        import numpy as np

        plan = _plan_with(pokes={(0, 0): {3: np.int64(7)}})
        with pytest.raises(CompileError, match="cannot canonically hash"):
            plan_hash(plan)

    def test_set_value_is_a_compile_error(self):
        plan = _plan_with(data_images={(0, 0): {1: set()}})
        with pytest.raises(CompileError, match="cannot canonically hash"):
            plan_hash(plan)

    def test_float_address_hashes_as_a_tagged_float(self):
        # A float address is no int: it goes through the reference
        # encoder (tagged ``f``), so it never aliases the int address.
        spec = EpochSpec(name="e", pokes={(0, 0): {3.0: 7}})
        assert b"f3.0;i7;" in epoch_bytes(spec)
        assert plan_hash(_plan_with(pokes={(0, 0): {3.0: 7}})) != \
            plan_hash(_plan_with(pokes={(0, 0): {3: 7}}))
