"""The analysis commands do not depend on the basis of the lattice, nor on
the order of the curve list.

A unimodular U changes the basis: the Gram matrix becomes U'GU, and every
class v (K, the curves, the ample reference, a command's --divisor and
--twist) becomes U^-1 v. What the commands compute is intrinsic, so each
payload in the new basis, with the coordinates of its divisors mapped back
through U, is the payload in the old one, and a failing command fails with
the same message. These routes have no independent oracle; this is their
cross-check on every fixture and on seeded block, plumbing and blown-up
plane models.

A permutation of the curve list changes only what follows the list order:
the raw curve indices, the order of the coefficients of an obstruction
entry (and so the sorted order of the entries and the witness entry, the
first least one), and the order of lists of curve names. With those taken
out, the payloads of the permuted model, alone or in a new basis as well,
are the payloads of the old one.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from fractions import Fraction as Q
from math import lcm
from operator import mul

import pytest

from surfbound import cli, surface_io
from surfbound.surface import SurfaceModel

from generators import (
    block_model,
    blown_up_plane,
    mat_vec,
    matrix_inverse,
    model_in_basis,
    plumbing_chain,
    plumbing_tree,
    polarization,
    random_unimodular,
)

SEEDED = ("block-0", "block-1", "chain", "tree", "plane-3", "plane-5")


def _model(name: str) -> tuple[SurfaceModel, str]:
    """The model and the expression of a nef and big class A on it with
    curves orthogonal to A where the model has some."""
    if name.startswith("plane"):
        # A = 2L - E_1: the curves E_2.. are orthogonal to it
        model = blown_up_plane(int(name[-1]))
        return model, "2,-1" + ",0" * (model.rank - 2)
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
        # mapped in integers over the common denominator of the coordinates
        exact = [c["exact"].partition("/") for c in payload["coords"]]
        den = lcm(*(int(q or 1) for _, _, q in exact))
        nums = [int(p) * (den // int(q or 1)) for p, _, q in exact]
        if u:
            nums = [sum(map(mul, row, nums)) for row in u]
        return tuple(Q(x, den) for x in nums)
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
        ("new", model_in_basis(model, u, inverse)),
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


# Fields that align with a list of curve indices under "support" or
# "component".
_ALIGNED = ("coefficients", "sigma")


def _names_in_order(names):
    """Sorts each run of curve names joined by "+" in a string: a component
    is named by its curves in list order."""
    run = "|".join(map(re.escape, sorted(names, key=len, reverse=True)))
    pattern = re.compile(f"(?:{run})(?:\\+(?:{run}))+")
    return lambda text: pattern.sub(lambda m: "+".join(sorted(m.group().split("+"))), text)


def _canonical(payload, names, u, order_free):
    """_mapped(payload, u), with what follows the curve order taken out:
    curve indices become names, fields aligned with them maps from names,
    every list is sorted, an obstruction entry is its (divisor, value) and
    the witness entry is dropped."""
    if isinstance(payload, str):
        return order_free(payload)
    if isinstance(payload, list):
        items = [_canonical(x, names, u, order_free) for x in payload]
        return sorted(items, key=lambda x: json.dumps(x, sort_keys=True, default=str))
    if not isinstance(payload, dict):
        return payload
    if set(payload) == {"coords", "text"}:
        return _mapped(payload, u)
    payload = dict(payload)
    payload.pop("witness_minimum", None)
    if set(payload) == {"coefficients", "divisor", "value"}:
        del payload["coefficients"]  # an obstruction entry
    for key in ("support", "component"):
        indices = payload.get(key)
        if indices and all(isinstance(i, int) for i in indices):
            curves = [names[i] for i in indices]
            payload[key] = curves
            for field in _ALIGNED:
                if field in payload:
                    payload[field] = dict(zip(curves, payload[field]))
    if "components" in payload and all(isinstance(c, list) for c in payload["components"]):
        payload["components"] = [[names[i] for i in c] for c in payload["components"]]
    if "complement_coefficients" in payload:
        payload["complement_coefficients"] = {
            names[int(i)]: c for i, c in payload["complement_coefficients"].items()
        }
    return {
        "|".join(sorted(order_free(key).split("|"))): _canonical(value, names, u, order_free)
        for key, value in payload.items()
    }


@pytest.mark.parametrize("name", [*surface_io.fixture_names(), *SEEDED])
def test_payloads_do_not_depend_on_the_curve_order(name, tmp_path):
    model, a_text = _model(name)
    rng = random.Random(f"order:{name}")
    order = list(range(len(model.curves)))
    while len(order) > 1 and order == sorted(order):
        rng.shuffle(order)
    u = random_unimodular(rng, model.rank)
    inverse = matrix_inverse(u)
    a = surface_io.parse_divisor(model, a_text)
    d = a + model.curve_divisor(0)
    t = model.canonical_class + model.curve_divisor(len(model.curves) - 1)
    h = model.divisor(model.ample_reference) if model.ample_reference else a
    commands = [
        ("tau", dict(divisor=a, twist=t), []),
        ("obstructions", dict(divisor=a, twist=t), ["-k", "1"]),
        ("thresholds", dict(divisor=a, twist=t), ["-k", "1", "-n", "4"]),
        ("bounds", dict(divisor=a, twist=t), ["-k", "1", "-n", "4"]),
        ("ek", dict(divisor=a, twist=t), ["-k", "1"]),
        ("exceptional", dict(divisor=a), []),
        ("compare-matsusaka", dict(divisor=h), []),
        ("zariski", dict(divisor=d), []),
        ("report", dict(divisor=d, twist=t), ["-k", "1", "-n", "4"]),
    ]
    names = [c.name for c in model.curves]
    order_free = _names_in_order(names)
    sides = {}
    for side, data, basis in (
        ("old", surface_io.surface_to_data(model), None),
        ("order", model_in_basis(model, None, None, order), None),
        ("both", model_in_basis(model, u, inverse, order), u),
    ):
        path = tmp_path / f"{side}.json"
        path.write_text(json.dumps(data))
        side_names = [curve["name"] for curve in data["curves"]]
        results = []
        for command, classes, rest in commands:
            args = [command, "--surface", str(path)]
            for option, v in classes.items():
                coords = v.coords if basis is None else mat_vec(inverse, v.coords)
                args.append(f"--{option}={','.join(map(str, coords))}")
            code, payload, err = _run(args + rest)
            results.append((code, _canonical(payload, side_names, basis, order_free), err))
        sides[side] = results
    for command, old, order, both in zip(commands, sides["old"], sides["order"], sides["both"]):
        assert order == old, command[0]
        assert both == old, command[0]
