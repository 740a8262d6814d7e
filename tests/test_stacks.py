"""Frames, members and patches as stacks: rows against one-face calls,
the members mapping, and no per-face objects on the stacked path."""

import numpy as np
import pytest

import hypnet.anet
import hypnet.hyperboloid
import hypnet.patch
from hypnet.anet import validate_anet
from hypnet.errors import NoAdaptedPatch
from hypnet.hyperboloid import HyperboloidStack, _scales, propagate_all
from hypnet.patch import (
    _bilinear_parameters,
    bilinear_parameter,
    check_c1,
    restrict_all,
    restrict_to_patch,
)
from hypnet.quadgraph import build
from hypnet.synthetic import quadric_grid, random_grid3x3_net, random_umbrella_net

from oracles import member, member_pairs

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
    lam = bilinear_parameter(a.face_frame(SEED), a.positions)
    members, report = propagate_all(a, SEED, lam)
    patches = restrict_all(members, a.positions)
    assert patches.faces.tolist() == list(members)
    for k, (f, hb) in enumerate(members.items()):
        alone = member(hb.frame, hb.lam, a.positions)
        assert alone.lam == hb.lam == members.lams[k]
        assert np.array_equal(alone.q1, hb.q1)
        assert [list(sig) for sig in alone.signatures] == report["face_signatures"][f]
        patch = restrict_to_patch(hb, hb.frame, a.positions)
        assert patch.face == patches[k].face == f
        assert np.array_equal(patch.points, patches.points[k])
        assert np.array_equal(patch.weights, patches.weights[k])


def closed_form_nets(kind):
    """The nets of one kind on which the scalar members meet the pairs."""
    if kind == "z = xy":
        count, quads, positions = quadric_grid(20, 20)
        return [validate_anet(build(count, quads), positions)]
    rng = np.random.default_rng(1)
    if kind == "grid3x3":
        nets = [random_grid3x3_net(rng) for _ in range(5)]
    else:
        nets = [random_umbrella_net(int(kind[-1]), rng) for _ in range(3)]
    return [validate_anet(build(count, quads), positions) for count, quads, positions in nets]


@pytest.mark.parametrize("kind", ["z = xy", "grid3x3", "umbrella 4", "umbrella 6"])
def test_scalar_members_match_the_pair_oracle(kind):
    # the report's closed-form signatures are those of the 6-vector pairs,
    # and the carving ratio read from the stack's scales is the ratio to
    # a fresh bilinear coordinate, bit for bit
    for a in closed_form_nets(kind):
        lam_bil = bilinear_parameter(a.face_frame(0), a.positions)
        for factor in (1.0, 2.5, -1.0, 0.3):
            members, report = propagate_all(a, 0, factor * lam_bil)
            pairs = member_pairs(members, a.positions)
            frames = members.frames
            signatures = dict(zip(frames.faces.tolist(), pairs.signatures.tolist()))
            assert report["face_signatures"] == signatures
            ratio = members.lams / _bilinear_parameters(
                frames.corners, _scales(a.positions, frames)
            )
            failing = np.flatnonzero(~(ratio > 0.0))
            if failing.size:
                with pytest.raises(NoAdaptedPatch) as err:
                    restrict_all(members, a.positions)
                assert err.value.data["face"] == frames.faces[failing[0]]
                continue
            weights = restrict_all(members, a.positions).weights
            assert np.array_equal(weights[:, 1], np.sqrt(ratio))


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
