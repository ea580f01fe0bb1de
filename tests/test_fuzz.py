"""Seeded fuzz of the CLI's inputs: each case changes one config key or one
flag of a small valid run, and every case keeps the same contract.

- main returns 0, 2 or 3 (argparse's SystemExit(2) counts as 2), and no
  other exception leaves it;
- no warning is raised;
- nothing is written outside the case's output directory;
- an exit 2 writes one error line and no traceback, and maps no Gram;
- a value of the wrong JSON type at any key (number, string, list or object)
  exits 2 and its error line names the key path, such as "grid bounds";
  null at rhs_matrix is not one, as it means the system's own C;
- a number that validation refuses is named by the key it sits at;
- an exit 0 of solve leaves a finite beta.csv.

Every grid, check grid and --count that validation accepts stays below about
10^4 points, so no case can run out of memory.
"""

import copy
import json
import math
import os
import random
import warnings

import numpy as np
import pytest

import conmet.cli as cli
from conmet import collocation

_SEED = 20261019
_BOX = [[-0.5, 0.5], [-0.5, 0.5]]
_BASE = {
    "system": "linear-example",
    "kernel": {"c": 0.9},
    "rhs_matrix": [[1.0, 0.0], [0.0, 1.0]],
    "grid": {"bounds": _BOX, "spacing": 0.25, "offset": 0.0},            # 5 x 5 or 9 x 9 nodes
    # a copy, so that a case that changes check_grid's bounds leaves grid's alone
    "check_grid": {"bounds": copy.deepcopy(_BOX), "spacing": 0.125, "offset": 0.0625},  # 8 x 8
    "alphas": [0.5, 0.25],
    "output_dir": "out",
}
_ARGS = {
    "solve": [],
    "convergence": [],
    "fields": [],
    "ellipses": ["--anchor", "0,0", "--anchor", "0.25,-0.25", "--level", "2", "--count", "8"],
}
# JSON values: NaN and +-Infinity (json writes both), booleans, strings,
# null, wrong nesting and shapes, zero, negative, huge and tiny numbers
_VALUES = [
    math.nan, math.inf, -math.inf, True, False, None, "0.5", "", "cfg.json", "sub/dir",
    0, -1, -0.25, 0.5, 1e308, -1e308, 1e-308, 5e-324,
    [], [0.5], [[0.5]], [[-0.5, 0.5]], [[-0.5, 0.5]] * 3, [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]],
    {}, {"spacing": 0.5},
]
# values that every key gets after all the other cases, so that the seeded draws
# of those stay as they were: an integer beyond the float range
_LATE_VALUES = [10 ** 400]
_FLAG_VALUES = {
    "--level": ["nan", "inf", "-inf", "0", "-1", "1e308", "1e-308", "5e-324", "True", "", "0.5"],
    "--count": ["0", "-1", "1", "3", "nan", "1e308", "True", "", "1.5"],
    "--anchor": ["nan,0", "inf,0", "0,-inf", "1e308,0", "1e-308,0", "5e-324,5e-324", "0",
                 "0,0,0", "a,b", "", "True,0", "0.25,0.25"],
}
# the words that name each key in an error message
_NAMES = {
    "c": ("shape parameter", "kernel c"), "spacing": ("spacing",), "offset": ("offset",),
    "bounds": ("bounds", "axis", "edge"), "alphas": ("alphas", "spacing"),
    "rhs_matrix": ("right-hand-side", "rhs_matrix"),
    "--level": ("level",), "--count": ("count",), "--anchor": ("anchor",),
}


def _paths(node, prefix=()):
    """Every key path into node: dict keys and list indices."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _label(value):
    return "10**400" if value == 10 ** 400 else repr(value)


def _kind(value):
    """The JSON type of value as the config names it; None for true, false and null."""
    if _is_number(value):
        return "number"
    return {str: "string", list: "list", dict: "object"}.get(type(value))


def _mutate_config(rng, config, paths, value):
    """Put value at one of paths in config, or delete the key there or add an
    unknown one; return the JSON type that belongs there, if the key has one."""
    path = rng.choice(paths)
    parent = config
    for key in path[:-1]:
        parent = parent[key]
    if value == "<unknown key>":       # in the object that holds the key, else at the top
        (parent if isinstance(parent, dict) else config)["colour"] = "blue"
        return None
    old = parent[path[-1]]
    if value == "<deleted>":
        del parent[path[-1]]
        return None
    parent[path[-1]] = copy.deepcopy(value)
    return None if path == ("rhs_matrix",) and value is None else _kind(old)


def _mutate_args(args, flag, value):
    """Set or add one flag, or drop both anchors."""
    if value == "<none>":
        del args[:4]
        return
    if flag in args and flag != "--anchor":     # replaced; an anchor is added
        del args[args.index(flag):args.index(flag) + 2]
    args.append(f"{flag}={value}")


def _cases():
    """One case per (key, value) pair and per (flag, value) pair; the seeded
    generator picks the entry of the key, the command and the node grid."""
    rng = random.Random(_SEED)
    keys = {}           # "grid.bounds" -> the paths to bounds, its rows and their entries
    for path in _paths(_BASE):
        keys.setdefault(".".join(k for k in path if isinstance(k, str)), []).append(path)
    pairs = [(key, value) for key in keys for value in _VALUES + ["<deleted>", "<unknown key>"]]
    pairs += [(flag, value) for flag, values in _FLAG_VALUES.items() for value in values]
    pairs.append(("--anchor", "<none>"))
    pairs += [(key, value) for key in keys for value in _LATE_VALUES]
    cases = []
    for index, (key, value) in enumerate(pairs):
        command = rng.choice(sorted(_ARGS)) if key in keys else "ellipses"
        config = copy.deepcopy(_BASE)
        config["grid"]["spacing"] = rng.choice([0.25, 0.125])
        args = list(_ARGS[command])
        if key in keys:
            expected = _mutate_config(rng, config, keys[key], value)
            leaf = key.split(".")[-1]
            names = _NAMES.get(leaf) if expected == "number" and _is_number(value) else None
        else:
            _mutate_args(args, key, value)
            expected, names = None, _NAMES[key]
        cases.append(pytest.param(command, config, args, key, value, expected, names,
                                  id=f"{index:03d}-{command}-{key}={_label(value)}"))
    return cases


def _run(argv):
    try:
        return cli.main(argv)
    except SystemExit as exit_:         # argparse rejects a flag
        return exit_.code


@pytest.mark.parametrize("command, config, args, key, value, expected, names", _cases())
def test_cli_contract(tmp_path, capsys, monkeypatch, command, config, args, key, value,
                      expected, names):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("OMP_NUM_THREADS", "")      # no cap
    grams = []
    zeroed_gram = collocation._zeroed_gram
    monkeypatch.setattr(collocation, "_zeroed_gram",
                        lambda dim: grams.append(dim) or zeroed_gram(dim))
    with open("cfg.json", "w") as handle:
        json.dump(config, handle)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = _run([command, "cfg.json", *args])
    err = capsys.readouterr().err

    assert code in (0, 2, 3), err
    assert [str(w.message) for w in caught] == []
    assert "Traceback" not in err
    output_dir = config.get("output_dir", "out")
    written = set(os.listdir(tmp_path)) - {"cfg.json"}
    if isinstance(output_dir, str) and output_dir:
        written -= {output_dir.split("/")[0]}
    assert written == set()
    if code == 2:
        lines = [line for line in err.splitlines() if "error:" in line]
        assert len(lines) == 1, err
        assert grams == [], f"exit 2 after mapping a Gram: {lines[0]}"
        if names:
            assert any(name in lines[0] for name in names), lines[0]
    if expected and _kind(value) != expected:
        assert code == 2, f"{value!r} taken where a {expected} belongs"
        assert key.replace(".", " ") in lines[0], lines[0]
    if code == 0 and command == "solve":
        beta = np.loadtxt(os.path.join(output_dir, "beta.csv"), delimiter=",", skiprows=1)
        assert np.all(np.isfinite(beta))
