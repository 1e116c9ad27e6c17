"""Golden tasklist regression: the pre-characterization pass is pinned.

`tests/data/golden_tasklists.json` holds one sha256 per application over
every field of its :class:`~repro.frontend.precharacterize.ApplicationTasklist`
— instruction mix, chain terms, per-warp term counts, warp classes and
both sorted reuse-distance arrays (dtype, shape and raw bytes) — for all
24 suite apps at ``small`` plus the degenerate calibration fixtures of
:mod:`repro.tracegen.fixtures`.  Tasklists are pure functions of the
trace, so any mismatch means the pass changed what it computes: fine
when intentional, never by accident.

When a deliberate change shifts the tasklists, regenerate with:

    PYTHONPATH=src python tests/test_golden_tasklists.py --regen

and explain the shift in the commit message.
"""

import hashlib
import json
import pathlib
import sys

import pytest

pytest.importorskip("numpy")

from repro import make_app  # noqa: E402
from repro.frontend.precharacterize import precharacterize  # noqa: E402
from repro.tracegen.fixtures import (  # noqa: E402
    DEGENERATE_FIXTURES,
    compute_only_app,
)
from repro.tracegen.suites import APPLICATIONS  # noqa: E402

FIXTURE_PATH = pathlib.Path(__file__).parent / "data" / "golden_tasklists.json"
SCALE = "small"

_KERNEL_SCALARS = (
    "name", "num_blocks", "warps_per_block", "threads_per_block",
    "shared_mem_bytes", "regs_per_thread", "num_instructions",
    "ldst_insts", "shared_insts", "branch_insts", "sync_insts",
    "global_loads", "global_stores", "load_transactions",
    "store_transactions",
)
_KERNEL_ARRAYS = ("warp_counts", "load_inst_distances", "load_access_distances")


#: The calibration fixtures, which are not registered suite apps.
FIXTURE_APPS = dict(DEGENERATE_FIXTURES, compute_only=compute_only_app)
APP_NAMES = sorted(set(APPLICATIONS) | set(FIXTURE_APPS))


def _app_trace(name):
    if name in FIXTURE_APPS:
        return FIXTURE_APPS[name]()
    return make_app(name, scale=SCALE)


def _feed_array(digest, array) -> None:
    digest.update(repr((array.dtype.str, array.shape)).encode())
    digest.update(array.tobytes())


def tasklist_digest(tasklist) -> str:
    """sha256 over every field of an application tasklist."""
    digest = hashlib.sha256()
    digest.update(repr((tasklist.app_name, tasklist.num_instructions)).encode())
    for kernel in tasklist.kernels:
        digest.update(
            repr(tuple(getattr(kernel, name) for name in _KERNEL_SCALARS)).encode()
        )
        digest.update(repr(sorted(kernel.unit_counts.items())).encode())
        digest.update(repr(kernel.chain_terms).encode())
        for name in _KERNEL_ARRAYS:
            _feed_array(digest, getattr(kernel, name))
        for warp_class in kernel.warp_classes:
            digest.update(repr(warp_class.count).encode())
            _feed_array(digest, warp_class.term_seq)
            _feed_array(digest, warp_class.producer)
    return digest.hexdigest()


def _load_fixture():
    with FIXTURE_PATH.open() as fh:
        return json.load(fh)


def test_fixture_covers_suite_and_calibration_apps():
    digests = _load_fixture()["digests"]
    assert sorted(digests) == APP_NAMES


@pytest.mark.parametrize("app_name", APP_NAMES)
def test_golden_tasklist_digest(app_name):
    golden = _load_fixture()["digests"][app_name]
    got = tasklist_digest(precharacterize(_app_trace(app_name)))
    assert got == golden, (
        f"tasklist of {app_name} (scale {SCALE}) changed; regenerate the "
        "fixture if intentional (see module docstring)"
    )


def _regen() -> None:
    fixture = {
        "_comment": (
            "sha256 per app over every tasklist field; regenerate with "
            "PYTHONPATH=src python tests/test_golden_tasklists.py --regen"
        ),
        "scale": SCALE,
        "digests": {
            name: tasklist_digest(precharacterize(_app_trace(name)))
            for name in APP_NAMES
        },
    }
    with FIXTURE_PATH.open("w") as fh:
        json.dump(fixture, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_tasklists.py --regen")
    _regen()
