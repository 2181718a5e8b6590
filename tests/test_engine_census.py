"""``tools/engine_census.py``: the probe must account for every tick the
event scheduler executed, or its shares size nothing."""

import pathlib
import re
import subprocess
import sys

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "engine_census.py"


def test_census_classifies_every_executed_tick():
    done = subprocess.run(
        [sys.executable, str(TOOL), "preprocess_serial", "--seed", "3"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    blocks = done.stdout.split("== ")[1:]
    assert [block.split(":")[0] for block in blocks] == [
        "preprocess_serial (cold)", "preprocess_serial (warm)"
    ]
    executed = []
    for block in blocks:
        ran, classified = map(int, re.search(
            r"(\d+) executed ticks \((\d+) classified\)", block
        ).groups())
        # the agenda read off the scheduler is the one it ticked
        assert ran == classified > 0
        ticks = dict(re.findall(r"^   (\w+) +(\d+) ", block, re.MULTILINE))
        assert sum(map(int, ticks.values())) == ran
        assert int(ticks["busy"]) > int(ticks["stalled"]) + int(ticks["starved"])
        shares = re.findall(r"[\d+-]+: (\d+)%", block.splitlines()[-1])
        assert 95 <= sum(map(int, shares)) <= 105  # rounded to whole per cent
        executed.append(ran)
    assert executed[1] < executed[0], "the warm run replays its phases"
