"""Frames, members and patches as stacks: rows against one-face calls,
the members mapping, and no per-face objects on the stacked path."""

import numpy as np
import pytest

import hypnet.anet
import hypnet.hyperboloid
import hypnet.patch
from hypnet.anet import validate_anet
from hypnet.hyperboloid import HyperboloidStack, propagate_all
from hypnet.patch import bilinear_parameter, check_c1, restrict_all, restrict_to_patch
from hypnet.quadgraph import build
from hypnet.synthetic import quadric_grid

from oracles import member

SEED = 3


def scrambled_net():
    """A 6x5 net on z = xy with relabelled vertices, rotated and partly
    reversed faces, and reordered faces."""
    count, quads, positions = quadric_grid(6, 5, spacing=0.25, origin=(-0.7, -0.4))
    label = [(11 * v + 3) % count for v in range(count)]
    faces = []
    for i, quad in enumerate(quads):
        quad = [label[v] for v in quad]
        quad = quad[i % 4:] + quad[:i % 4]
        faces.append(quad[::-1] if i % 3 == 0 else quad)
    faces = [faces[(7 * i) % len(faces)] for i in range(len(faces))]
    moved = np.empty_like(positions)
    moved[label] = positions
    return validate_anet(build(count, faces), moved)


def propagated(a):
    return propagate_all(a, SEED, bilinear_parameter(a.face_frame(SEED), a.positions))[0]


def test_frame_rows_equal_the_one_face_calls_bit_for_bit():
    a = scrambled_net()
    frames, tree = a.frames_from(SEED)
    assert frames.faces.tolist() == [SEED] + tree[:, 0].tolist()
    again = a.frames(frames.faces, frames.entries)
    for k in range(len(frames)):
        alone = a.face_frame(int(frames.faces[k]), int(frames.entries[k]))
        for stack in (frames, again):
            row = stack[k]
            assert (row.face, row.entry_half_edge) == (alone.face, alone.entry_half_edge)
            assert (row.corners, row.h_edges) == (alone.corners, alone.h_edges)
            assert np.array_equal(row.h_lines, alone.h_lines)
            assert np.array_equal(row.diagonals, alone.diagonals)
            assert row.sig_eps == alone.sig_eps


def test_member_and_patch_rows_equal_the_one_face_calls_bit_for_bit():
    a = scrambled_net()
    members = propagated(a)
    patches = restrict_all(members, a.positions)
    assert patches.faces.tolist() == list(members)
    for k, (f, hb) in enumerate(members.items()):
        alone = member(hb.frame, hb.lam, a.positions)
        assert alone.lam == hb.lam == members.lams[k]
        assert np.array_equal(alone.q1, hb.q1) and np.array_equal(alone.q2, hb.q2)
        assert alone.signatures == hb.signatures
        patch = restrict_to_patch(hb, hb.frame, a.positions)
        assert patch.face == patches[k].face == f
        assert np.array_equal(patch.points, patches.points[k])
        assert np.array_equal(patch.weights, patches.weights[k])


def test_members_read_as_a_mapping_from_ascending_face_ids():
    a = scrambled_net()
    members = propagated(a)
    count = a.graph.face_count
    assert isinstance(members, HyperboloidStack)
    assert len(members) == count
    assert list(members) == list(range(count))
    assert [f for f, _ in members.items()] == list(range(count))
    for f, hb in members.items():
        assert f in members
        assert hb.face == hb.frame.face == f
        assert hb.frame.corners == members[f].frame.corners
    for missing in (-1, count, 2.5):
        assert missing not in members
        with pytest.raises(KeyError):
            members[missing]
    assert members.get(count) is None
    assert dict(members).keys() == set(range(count))


def test_the_stacked_path_builds_no_per_face_objects(monkeypatch):
    a = scrambled_net()
    lam = bilinear_parameter(a.face_frame(SEED), a.positions)
    made = []
    for cls in (hypnet.anet.FaceFrame, hypnet.hyperboloid.FaceHyperboloid,
                hypnet.patch.HyperboloidPatch):
        def counted(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            made.append(_name)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    members, _ = propagate_all(a, SEED, lam)
    patches = restrict_all(members, a.positions)
    report = check_c1(patches, a)
    assert made == []
    assert report["max_angle"] < 1e-12
    # the one-face views are built on demand
    members[SEED].frame
    assert made == ["FaceFrame", "FaceHyperboloid"]
