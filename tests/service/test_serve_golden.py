"""Cross-commit guard on what ``repro serve`` writes and what it serves.

``GOLDEN`` was recorded at commit 1fe7f08 — the parent of the PR that
turns ``SpectrumBroker.submit`` / ``_worker`` into a short sequence of
stage methods — *before the first edit*, and must never be refreshed by
a change that claims the same output.  Per case: the sha1 of the
``--json`` stdout, the ``--metrics`` exposition and the ``--trace``
Chrome trace (what PRs 19–21 compared by hand with ``sha1sum``; a fresh
``python -m repro serve ...`` process writes the same bytes), and one
sha1 over every ticket's ``(status, cached, coalesced, lattice,
completed_at, sha1(result))`` in trace order, with the outcome tallies
beside it so a reader sees which tiers the case reaches.

``zipf`` is the plain path (cache hits, coalesced followers, width-1
dispatch).  ``batching`` lingers in the admission window and fuses
width > 1 groups behind a 12-slot queue, so rejections, retries and the
closing scrape are in it too — it runs with ``--slo --tsdb-out`` so the
batch-completion observer has work to do, and the stored series are
hashed as a fourth output.  ``walk`` declares an accuracy budget: every
request is a lattice hit.

One declared re-record: the ``metrics`` hashes, and ``batching``'s
``tsdb``, when the five legacy ``repro_cache_*`` families left the
exposition (``repro_spectrum_cache_*`` carries the same values).
"""

import contextlib
import hashlib
import io

import pytest

import repro.service.broker
from repro.cli import main
from repro.physics.plan import PLAN_CACHE

CASES = {
    "zipf": ["--pattern", "zipf", "--requests", "120", "--seed", "7"],
    "batching": [
        "--pattern", "uniform", "--batch-window", "0.05", "--batch-max", "32",
        "--rate", "40", "--distinct", "64", "--queue-capacity", "12",
        "--requests", "160", "--seed", "7", "--slo",
    ],
    "walk": [
        "--pattern", "walk", "--accuracy", "1e-3", "--requests", "120",
        "--seed", "11",
    ],
}

GOLDEN = {
    "batching": {
        "json": "5defe3c5df8c1badbb6f9ad4247399a86858b61c",
        "metrics": "bcb55df4f30491dc2204e7ed01151458edc1445f",
        "trace": "3c5d33a67694221c5b912aa7cb52984c6abc91d1",
        "tsdb": "f0d619c3aab726d187111a02235ac3117925669b",
        "tickets": "412a02bbc57fd92a5ca69ad37451b0553d20f41d",
        "tally": {
            "completed": 160, "cached": 77, "coalesced": 29, "lattice": 0,
            "distinct_spectra": 54, "rejections": 5, "width_max": 12, "window_waits": 9,
        },
    },
    "walk": {
        "json": "cbe6f75005036c38f20702c23a83ba6d170b1f91",
        "metrics": "c9587a79307330e85c35868a938a3cb04308abfa",
        "trace": "654ab3a302535600175f959f75f1f5fb57333694",
        "tickets": "0a2559febcad9d4f8489195ca29c018c75848eb5",
        "tally": {
            "completed": 120, "cached": 0, "coalesced": 0, "lattice": 120,
            "distinct_spectra": 120, "rejections": 0, "width_max": 0, "window_waits": 0,
        },
    },
    "zipf": {
        "json": "d1d3d99ebe69cef122d94a4876002bb56ab113d2",
        "metrics": "789f257506c750ac92a12152694a9ea4b827d44c",
        "trace": "1a7773b656ec013d7187e15602179defc0c0d1f6",
        "tickets": "670f40905ce555140b96e17f65adce75643d0626",
        "tally": {
            "completed": 120, "cached": 18, "coalesced": 75, "lattice": 0,
            "distinct_spectra": 27, "rejections": 0, "width_max": 0, "window_waits": 0,
        },
    },
}


def _sha1(data: bytes) -> str:
    return hashlib.sha1(data).hexdigest()


def ticket_records(tickets) -> list[tuple]:
    return [
        (t.status, t.cached, t.coalesced, t.lattice, t.completed_at.hex(),
         _sha1(t.result.tobytes()))
        for t in tickets
    ]


def serve(case: str, tmp_path, monkeypatch):
    """Run the case's CLI line in process: (output sha1s, broker, tickets)."""
    # The plan-cache families read a process-global ledger: start it where
    # a fresh process does.
    PLAN_CACHE.clear()
    played = []
    play_trace = repro.service.broker.play_trace

    def recording_play_trace(broker, trace):
        played.append((broker, play_trace(broker, trace)))
        return played[-1][1]

    monkeypatch.setattr(repro.service.broker, "play_trace", recording_play_trace)
    paths = {part: tmp_path / f"{case}.{part}" for part in ("metrics", "trace")}
    argv = ["serve", *CASES[case], "--json"]
    if case == "batching":
        paths["tsdb"] = tmp_path / f"{case}.tsdb"
        argv += ["--tsdb-out", str(paths["tsdb"])]
    for part in ("metrics", "trace"):
        argv += [f"--{part}", str(paths[part])]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(argv) == 0
    ((broker, tickets),) = played
    out = {part: _sha1(path.read_bytes()) for part, path in paths.items()}
    out["json"] = _sha1(stdout.getvalue().encode())
    return out, broker, tickets


def fingerprint(case: str, tmp_path, monkeypatch) -> dict:
    out, broker, tickets = serve(case, tmp_path, monkeypatch)
    records = ticket_records(tickets)
    report = broker.report()
    out["tickets"] = _sha1("\n".join(map(repr, records)).encode())
    out["tally"] = {
        "completed": sum(r[0] == "completed" for r in records),
        "cached": sum(r[1] for r in records),
        "coalesced": sum(r[2] for r in records),
        "lattice": sum(r[3] for r in records),
        "distinct_spectra": len({r[5] for r in records}),
        "rejections": report["rejections"],
        "width_max": report["batch_width_max"],
        "window_waits": report["batch_window_waits"],
    }
    return out


@pytest.mark.parametrize("case", sorted(CASES))
def test_serve_outputs_and_tickets_match_parent_commit(case, tmp_path, monkeypatch):
    got = fingerprint(case, tmp_path, monkeypatch)
    for part in GOLDEN[case]:
        assert got[part] == GOLDEN[case][part], part
    assert set(got) == set(GOLDEN[case])


def test_cases_reach_the_tiers_they_are_named_for():
    """The guard is only as good as its coverage."""
    zipf, batching, walk = (GOLDEN[c]["tally"] for c in ("zipf", "batching", "walk"))
    assert zipf["cached"] > 0 and zipf["coalesced"] > 0 and zipf["lattice"] == 0
    assert batching["coalesced"] > 0 and batching["cached"] > 0
    assert batching["width_max"] > 1 and batching["window_waits"] > 0
    assert batching["rejections"] > 0
    assert walk["lattice"] == walk["completed"] == 120
