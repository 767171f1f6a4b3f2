"""Grand integration test: one session covering the whole system story.

Boots the 64-bit platform, makes a lower-bound assessment, reconfigures
with readback verification, runs the workload in hardware and software,
cross-checks bit-exactness, swaps kernels (paying the reconfiguration),
and audits the run with the bus profiler and the floorplan/trace
facilities — every public subsystem in one realistic flow.
"""

import numpy as np
import pytest

from repro import ReconfigManager, build_system64
from repro.analysis import Method, TaskProfile, assess, break_even_runs, profile_run
from repro.core import memmap
from repro.core.apps import HwBrightnessDma, HwJenkinsHash
from repro.core.floorplan import render_system_floorplan
from repro.engine.trace import TraceRecorder
from repro.kernels import BrightnessKernel, JenkinsHashKernel
from repro.sw import SwBrightness, SwJenkinsHash
from repro.workloads import grayscale_image, random_key


@pytest.mark.slow
def test_full_session_story():
    system = build_system64()
    timeline = [("boot", system.cpu.now_ps)]

    # 1. First assessment: is a brightness kernel worth building?
    image = grayscale_image(64, 64, seed=100)
    sw_probe = SwBrightness(48).run(system, image)
    words = image.size // 4
    verdict = assess(
        system,
        TaskProfile("brightness", words_in=words, words_out=words),
        software_ps=sw_probe.elapsed_ps,
        method=Method.DMA,
    )
    assert verdict.worthwhile

    # 2. Reconfigure with readback verification.
    manager = ReconfigManager(system)
    manager.register(BrightnessKernel(48))
    manager.register(JenkinsHashKernel())
    load = manager.load("brightness", verify=True)
    assert load.frames_verified > 0
    assert manager.active == "brightness"
    timeline.append(("reconfig", system.cpu.now_ps))

    # 3. Run hardware vs software, bit-exact, with bus profiling.
    report = profile_run(system, lambda: HwBrightnessDma().run(system, image))
    hw = report.result
    sw = SwBrightness(48).run(system, image)
    assert np.array_equal(hw.result, sw.result)
    speedup = sw.elapsed_ps / hw.elapsed_ps
    assert speedup > 3
    assert "plb64" in report.buses

    # 4. Weigh a kernel swap with measured economics.
    hash_load = manager.load("lookup2")
    key = random_key(2048, seed=101)
    hw_hash = HwJenkinsHash().run(system, key)
    sw_hash = SwJenkinsHash().run(system, key)
    assert hw_hash.result == sw_hash.result
    assert 1 < break_even_runs(load.elapsed_ps, sw.elapsed_ps, hw.elapsed_ps) < 1_000
    # 3 hash runs never amortise the swap.
    assert break_even_runs(hash_load.elapsed_ps, sw_hash.elapsed_ps, hw_hash.elapsed_ps) > 3

    # 5. The floorplan and trace facilities describe what just ran.
    plan_text = render_system_floorplan(system)
    assert "XC2VP30" in plan_text
    recorder = TraceRecorder()
    system.plb.tracer = recorder
    system.cpu.io_read(memmap.STAGE_INPUT)
    assert recorder.summary()

    # 6. Time flowed monotonically through the whole story.
    times = [t for _, t in timeline] + [system.cpu.now_ps]
    assert times == sorted(times)
    # A full session is tens of milliseconds of simulated time.
    assert system.cpu.now_ps > 10_000_000_000
