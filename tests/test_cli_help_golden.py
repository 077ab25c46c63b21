"""``repro <command> --help`` is pinned byte for byte, per subcommand.

The sha1 literals were recorded at 21f4f2f, before the CLI's imports
moved into its handlers, at an 80-column terminal (Python 3.10-3.12 print
the same bytes).  A change that claims the same CLI never refreshes
them; one that changes a flag re-records the literal it moves, in its
own commit, with the reason.
"""

import hashlib

import pytest

from repro.cli import main

GOLDEN = {
    "autotune": "3aa0de79687a7316b9368dae49ca39a1a984c0e6",
    "bench": "db3c3d5c243483bab6f80fe75c695a14454827e0",
    "fig3": "c2330afaa510327eea93f95bf2908ec8de237cc4",
    "fig4": "eae2cff4eb6beff6a48b8a4630639e68ee8b9d3e",
    "fig5": "badd95035e49949d6c503f66ab1a8da2700dd546",
    "fit": "fa3f74835016f4f15ff0d41a1fd8d18284be087d",
    "nei-solve": "7a0ca9cd652fbf05bf768f6fedadb60dbbcc7e33",
    "query": "09e60e9f543f96c9d566449a74eab2a2f22f0b4e",
    "quickstart": "05170895c3979182027876b770c19e6ab79cc4d2",
    "serve": "23c83601ecac36bd2361bd3768132bee2f150a0d",
    "spectrum": "17b43bb15a9b773656501acc200b6cea8821a9c1",
    "submit": "ff7dd508b735fd651907e11879a24ffe6fecc77a",
    "table1": "ea2b592d3ff02209de80e2588e3871ce847cbc54",
    "table2": "24fd63eff72fde6c118a45bb73e896379d93f7d2",
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_help_is_byte_equal(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_:
        main([command, "--help"])
    assert exit_.value.code == 0
    assert hashlib.sha1(capsys.readouterr().out.encode()).hexdigest() == GOLDEN[command]
