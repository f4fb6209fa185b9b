"""``python -m repro.ingest --persist``: every built cuboid reopens from
its manifest and answers like a numpy reduce of the cube."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro._util import Box
from repro.ingest.__main__ import main
from repro.io import open_index
from repro.query.workload import random_box

SHAPE = (6, 5, 4)


@pytest.mark.parametrize("spilled", [False, True], ids=["memory", "spilled"])
def test_persisted_cuboids_reopen_and_answer(spilled, tmp_path, capsys):
    rng = np.random.default_rng(23)
    cube = rng.integers(-50, 50, size=SHAPE, dtype=np.int64)
    csv = tmp_path / "cube.csv"
    csv.write_text(
        "d0,d1,d2,v\n"
        + "".join(
            f"{i},{j},{k},{cube[i, j, k]}\n" for i, j, k in np.ndindex(SHAPE)
        )
    )
    persist = tmp_path / "persist"
    argv = [str(csv), "--cuboids", "0,1;1,2", "--persist", str(persist)]
    if spilled:
        argv += ["--budget-mb", "0.000001", "--spill", str(tmp_path / "spill")]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["spilled"] is spilled

    manifests = {
        tuple(int(j) for j in path.name.split(".")[0].split("-")[1:]): path
        for path in persist.glob("cuboid-*.manifest.json")
    }
    assert {(0, 1), (1, 2)} <= set(manifests)
    if spilled:
        # Spilled arrays are referenced where they lie, not copied.
        assert not list(persist.glob("*.npy"))
    for key, path in manifests.items():
        structure = open_index(path)
        dropped = tuple(j for j in range(len(SHAPE)) if j not in key)
        reduced = cube.sum(axis=dropped)
        full = Box((0,) * reduced.ndim, tuple(n - 1 for n in reduced.shape))
        assert structure.range_sum(full) == reduced.sum()
        for _ in range(10):
            box = random_box(reduced.shape, rng)
            assert structure.range_sum(box) == reduced[box.slices()].sum()
