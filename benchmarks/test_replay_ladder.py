"""End-to-end ladder invariance: every replay rung renders the same tables.

Trace replay runs on one of three rungs — interpreted, per-event kernel,
or batch (superblock) — and the rungs are byte-identical by contract.
This regenerates whole experiment grids through ``run_jobs`` once per
rung, passing the ``use_kernel``/``use_batch`` reference keywords in
each job's ``SimJob.kwargs`` (so they reach pool workers under any start
method) with a separate cache root per rung, and diffs the rendered
tables.  Run one grid with ``-k figure3`` or ``-k figure11``.
"""

from dataclasses import replace

import pytest

from repro.harness import experiments
from repro.harness.cache import ResultCache

#: Rung -> extra job kwargs selecting it.
RUNGS = {
    "batch": (),
    "kernel": (("use_batch", False),),
    "interpreted": (("use_kernel", False),),
}

#: Grid -> experiment regeneration against a given result cache.
GRIDS = {
    "figure3": lambda cache: experiments.figure3(cache=cache),
    "figure11-cortex-a72": lambda cache: experiments.figure11(
        cache=cache, geometry="cortex-a72"
    ),
}


@pytest.mark.slow
@pytest.mark.parametrize("grid", sorted(GRIDS))
def test_rendered_tables_identical_on_every_rung(grid, tmp_path, monkeypatch):
    run_jobs = experiments.run_jobs
    tables = {}
    for rung, extra in RUNGS.items():
        def on_rung(jobs, extra=extra, **kwargs):
            return run_jobs(
                [replace(job, kwargs=job.kwargs + extra) for job in jobs],
                **kwargs,
            )

        monkeypatch.setattr(experiments, "run_jobs", on_rung)
        cache = ResultCache("results", root=tmp_path / rung)
        tables[rung] = GRIDS[grid](cache).text
    assert tables["kernel"] == tables["batch"]
    assert tables["interpreted"] == tables["batch"]
