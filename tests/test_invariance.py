"""Verdicts that do not depend on where a net sits or how large it is.

The nets of the paper are affine objects, and every gate of the
pipeline reads a quantity that translation and uniform scaling leave
as it is: star residuals over diameters, face volume ratios, pair
products in face-local units, pencil ranks and, after propagation,
volume ratios again.  So ``diagnose_anet`` reads the same verdict and
the same violation kinds on a net moved by up to 1e4 of its diameters
or scaled from 1e-200 to 1e155, and propagation and carving do so on a
net moved as far or scaled from 1e-6 to 1e6, as long as the moved net
still closes: translation rounds the positions at a
larger absolute scale, which the closure residual amplifies.
"""

import numpy as np
import pytest

from hypnet.anet import _face_volumes, diagnose_anet, validate_anet
from hypnet.errors import ClosureViolation
from hypnet.hyperboloid import propagate_all
from hypnet.patch import bilinear_parameter, restrict_all
from hypnet.quadgraph import build
from hypnet.synthetic import quadric_grid, random_grid3x3_net, random_umbrella_net

from test_anet import _planted

SCALES = [1e-6, 1e-3, 1e3, 1e6]
#: scales at which the verdicts of ``diagnose_anet`` alone are compared:
#: every gate of the walk is read relative to the net's own size, but
#: propagation and carving are not checked this far out
DIAGNOSE_SCALES = [1e-200, 1e-100, 1e-40, 1e-12, 1e12, 1e40, 1e100, 1e155]
#: scales at which the face products are compared with the unit net's
FACE_SCALES = [1e-100, 1e-40, 1e-20, 1e20, 1e40, 1e100]
#: translations, in net diameters
SHIFTS = [1e2, 1e4]


def fixtures():
    """The tier-1 nets by name: exact grids, generic 3x3 nets, umbrellas
    and the planted violations."""
    rng = np.random.default_rng(83)
    nets = {
        "grid 3x3": quadric_grid(3, 3),
        "grid 4x2": quadric_grid(4, 2, spacing=0.37, origin=(-1.3, 0.6)),
        "grid 6x6": quadric_grid(6, 6, spacing=0.1, origin=(-0.4, -0.3)),
    }
    nets.update({f"generic {k}": random_grid3x3_net(rng) for k in range(3)})
    nets.update({f"umbrella {k}": random_umbrella_net(k, rng) for k in (3, 4, 5, 6)})
    nets.update({f"planted {name}": net for name, (net, _) in _planted().items()})
    return nets


def placements(positions, quads, scales=SCALES):
    """``(label, positions)`` of the net scaled by ``scales`` and
    translated, along two seeded directions and one in the plane of the
    first face's first two sides."""
    pos = np.asarray(positions, dtype=float)
    diameter = np.ptp(pos, axis=0).max()
    rng = np.random.default_rng(89)
    a, b, _, d = quads[0]
    in_plane = (pos[b] - pos[a]) + 0.5 * (pos[d] - pos[a])
    directions = [rng.normal(size=3), rng.normal(size=3), in_plane]
    for scale in scales:
        yield f"scaled {scale:g}", pos * scale
    for k, direction in enumerate(directions):
        unit = direction / np.linalg.norm(direction)
        for shift in SHIFTS:
            yield f"moved {shift:g} along {k}", pos + shift * diameter * unit


def verdict(count, quads, positions):
    """What ``diagnose_anet`` decides: validity, the violation kinds in
    order and, for a valid net, the strip verdict."""
    report = diagnose_anet(build(count, quads), positions)
    kinds = [v["kind"] for v in report["violations"]]
    return report["valid"], kinds, report.get("equi_twisted")


def extension(count, quads, positions):
    """What propagation at face 0's bilinear member and carving decide,
    or ``None`` where the net does not close under ``CLOSURE_EPS``."""
    a = validate_anet(build(count, quads), positions)
    try:
        members, _ = propagate_all(a, 0, bilinear_parameter(a.face_frame(0), a.positions))
        restrict_all(members, a.positions)
    except ClosureViolation:
        return None
    except Exception as exc:  # the verdict is the kind of failure
        return type(exc).__name__
    return "extends"


@pytest.mark.parametrize("name", sorted(fixtures()))
def test_diagnose_verdicts_do_not_depend_on_placement_or_scale(name):
    count, quads, positions = fixtures()[name]
    expected = verdict(count, quads, positions)
    for label, moved in placements(positions, quads, SCALES + DIAGNOSE_SCALES):
        assert verdict(count, quads, moved) == expected, label


@pytest.mark.parametrize("name", sorted(fixtures()))
def test_extension_verdicts_do_not_depend_on_placement_or_scale(name):
    count, quads, positions = fixtures()[name]
    if not verdict(count, quads, positions)[0]:
        return
    expected = extension(count, quads, positions)
    assert expected is not None
    compared = 0
    for label, moved in placements(positions, quads):
        outcome = extension(count, quads, moved)
        if outcome is not None:
            compared += 1
            assert outcome == expected, label
    # every scaling closes; so does the nearer translation
    assert compared >= len(SCALES) + 3


@pytest.mark.parametrize("name", sorted(fixtures()))
def test_face_products_do_not_depend_on_scale_over_the_float_range(name):
    _, quads, positions = fixtures()[name]
    quads = np.asarray(quads)
    expected = _face_volumes(np.asarray(positions, dtype=float).T, quads)[2]
    for scale in FACE_SCALES:
        products = _face_volumes((positions * scale).T, quads)[2]
        np.testing.assert_allclose(products, expected, rtol=1e-12, atol=1e-13,
                                   err_msg=f"scaled {scale:g}")
