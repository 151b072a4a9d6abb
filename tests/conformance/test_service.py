"""Service route: the seeded corpus as supervised jobs.

Each job runs in its own runner subprocess over a checkpoint journal
and writes a ledger receipt; the answer must be the in-process
default's and the receipt's ledger must reconcile.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.service import JobSpec, ServiceConfig, Supervisor

from .corpus import NAMES, SEEDED, write_corpus


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    root = tmp_path_factory.mktemp("service")
    corpus = write_corpus(root)

    async def run():
        config = ServiceConfig(workers=2, workdir=str(root / "work"))
        async with Supervisor(config) as sup:
            jobs = [
                sup.submit(JobSpec(
                    str(disk.path), k=disk.instance.k, seed=disk.instance.seed,
                ))
                for disk in corpus
            ]
            return [await job.result_dict() for job in jobs]

    return list(zip(corpus, asyncio.run(run())))


@pytest.mark.parametrize("index", range(len(SEEDED)), ids=NAMES)
def test_supervisor_job(records, index):
    disk, record = records[index]
    disk.check_record(record)
