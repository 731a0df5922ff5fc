"""Startup: scipy stays off the import path until a model needs quadrature,
and the process pool modules until a sweep starts workers."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import corrcache
from corrcache.presets import get_preset

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(corrcache.__file__)))

# Runs in a fresh interpreter; prints one JSON line of what it saw.
_PROBE = """
import json, sys
import corrcache
from corrcache import cli
from corrcache.presets import get_preset

def loaded(*packages):
    return sorted(m for m in sys.modules if m in packages or m.startswith(tuple(p + "." for p in packages)))

def scipy_modules():
    return loaded("scipy")

def pool_modules():
    return loaded("multiprocessing", "concurrent.futures")

after_import = scipy_modules()
pools_after_import = pool_modules()
rc = cli.main(["generate", "toroid-trace1", "--scale", "0.05", "--seed", "1",
               "--out", sys.argv[1]])
after_generate = scipy_modules()
pools_after_generate = pool_modules()
model = get_preset("fig2-setup").build_model(0.02)
report = model.hit_report(0.05 * model.total_volume())
print(json.dumps({
    "rc": rc,
    "after_import": after_import,
    "after_generate": after_generate,
    "pools_after_import": pools_after_import,
    "pools_after_generate": pools_after_generate,
    "integrate_loaded": "scipy.integrate" in sys.modules,
    "t_star": repr(report.t_star),
}))
"""


def test_import_and_toroid_generate_load_no_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, str(tmp_path / "toroid.trace")],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout.strip().splitlines()[-1])
    assert seen["rc"] == 0
    assert seen["after_import"] == [] and seen["after_generate"] == []
    assert seen["pools_after_import"] == [] and seen["pools_after_generate"] == []
    assert (tmp_path / "toroid.trace").stat().st_size > 0
    # a uniform-delay model imports the quadrature on first use, with the
    # same answer as in this process
    assert seen["integrate_loaded"]
    model = get_preset("fig2-setup").build_model(0.02)
    assert seen["t_star"] == repr(model.hit_report(0.05 * model.total_volume()).t_star)
