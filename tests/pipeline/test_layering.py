"""``repro.pipeline`` sits below ``repro.core`` and must not reach up."""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                   "..", "..", "src")


def test_importing_the_pipeline_loads_no_core_module():
    # A fresh interpreter: this one imported repro.core long ago.
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.pipeline\n"
         "print(sorted(m for m in sys.modules if m.startswith('repro.core')))"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.path.abspath(SRC)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_deployment_is_the_cores():
    import repro.core
    import repro.pipeline
    for name in ("plan_batch", "deploy_batch", "BatchDeployment",
                 "DeploymentPlan", "ISAGroup"):
        assert getattr(repro.core, name).__module__ == "repro.core.deployment"
        assert not hasattr(repro.pipeline, name)
