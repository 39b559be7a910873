"""The analysis commands do not depend on the basis of the lattice.

A unimodular U changes the basis: the Gram matrix becomes U'GU, and every
class v (K, the curves, the ample reference, a command's --divisor and
--twist) becomes U^-1 v. What the commands compute is intrinsic, so each
payload in the new basis, with the coordinates of its divisors mapped back
through U, is the payload in the old one, and a failing command fails with
the same message. These routes have no independent oracle; this is their
cross-check on every fixture and on seeded block and plumbing models.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction as Q

import pytest

from surfbound import cli, surface_io
from surfbound.surface import SurfaceModel

from generators import (
    _matmul,
    _transpose,
    block_model,
    mat_vec,
    matrix_inverse,
    plumbing_chain,
    plumbing_tree,
    polarization,
    random_unimodular,
)

SEEDED = ("block-0", "block-1", "chain", "tree")


def _model(name: str) -> tuple[SurfaceModel, str]:
    """The model and the expression of a nef and big class A on it with
    curves orthogonal to A where the model has some."""
    if name in SEEDED:
        rng = random.Random(name)
        if name.startswith("block"):
            model = block_model(rng, [rng.randint(2, 3), 2], extra_multiples=1, name=name)
        else:
            model = (plumbing_chain if name == "chain" else plumbing_tree)(rng, 3)
        # e0 is the polarization of a block model and the line of a plumbing
        return model, ",".join(map(str, polarization(model).coords))
    model = surface_io.load_fixture(name)
    if name.startswith("double_cover"):
        return model, "H"
    return model, {"hirzebruch_f2": "2*f+s", "blowup_p2": "L+E"}.get(name, "h")


def _in_basis(model: SurfaceModel, u, inverse) -> dict:
    """The model file of model in the basis of the columns of u."""
    data = surface_io.surface_to_data(model)
    new = lambda v: [int(x) for x in mat_vec(inverse, v)]  # integral: det u = +-1
    data["gram"] = _matmul(_transpose(u), _matmul(data["gram"], u))
    data["canonical"] = new(data["canonical"])
    for curve in data["curves"]:
        curve["coords"] = new(curve["coords"])
    if "ample_reference" in data:
        data["ample_reference"] = new(data["ample_reference"])
    return data


def _run(argv: list[str]) -> tuple[int, object, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run_subcommand([*argv, "--json"])
    return code, json.loads(out.getvalue()) if out.getvalue() else None, err.getvalue()


def _mapped(payload, u):
    """The payload with each divisor's {"coords", "text"} replaced by its
    exact coordinates, mapped through u when u is given."""
    if isinstance(payload, list):
        return [_mapped(x, u) for x in payload]
    if not isinstance(payload, dict):
        return payload
    if set(payload) == {"coords", "text"}:
        coords = [Q(c["exact"]) for c in payload["coords"]]
        return tuple(mat_vec(u, coords) if u else coords)
    return {key: _mapped(value, u) for key, value in payload.items()}


@pytest.mark.parametrize("name", [*surface_io.fixture_names(), *SEEDED])
def test_payloads_do_not_depend_on_the_basis(name, tmp_path):
    model, a_text = _model(name)
    u = random_unimodular(random.Random(f"basis:{name}"), model.rank)
    inverse = matrix_inverse(u)
    a = surface_io.parse_divisor(model, a_text)
    d = a + model.curve_divisor(0)  # the report decomposes it
    t = model.canonical_class + model.curve_divisor(len(model.curves) - 1)
    h = model.divisor(model.ample_reference) if model.ample_reference else a
    files = {}
    for side, data in (
        ("old", surface_io.surface_to_data(model)),
        ("new", _in_basis(model, u, inverse)),
    ):
        path = tmp_path / f"{side}.json"
        path.write_text(json.dumps(data))
        files[side] = path

    def argv(side: str, command: str, **classes) -> list[str]:
        args = [command, "--surface", str(files[side])]
        for option, v in classes.items():
            coords = v.coords if side == "old" else mat_vec(inverse, v.coords)
            args.append(f"--{option}={','.join(map(str, coords))}")
        return args

    commands = [
        ("tau", dict(divisor=a, twist=t), []),
        ("thresholds", dict(divisor=a, twist=t), ["-k", "1", "-n", "4"]),
        ("bounds", dict(divisor=a, twist=t), ["-k", "1", "-n", "4"]),
        ("ek", dict(divisor=a, twist=t), ["-k", "1"]),
        ("exceptional", dict(divisor=a), []),
        ("compare-matsusaka", dict(divisor=h), []),
        ("report", dict(divisor=d, twist=t), ["-k", "1", "-n", "4"]),
    ]
    for command, classes, rest in commands:
        old_code, old, old_err = _run(argv("old", command, **classes) + rest)
        new_code, new, new_err = _run(argv("new", command, **classes) + rest)
        assert (new_code, new_err) == (old_code, old_err), command
        assert _mapped(new, u) == _mapped(old, None), command
