import json
import signal
import sys
from contextlib import contextmanager

import pytest

from coalitions.game import GameSpec, builtin_game


@pytest.fixture(scope="session")
def six_mixed() -> GameSpec:
    return builtin_game("six_mixed")


@pytest.fixture(scope="session")
def trio() -> GameSpec:
    return builtin_game("trio_specialists")


@pytest.fixture(scope="session")
def dominated_pair() -> GameSpec:
    return builtin_game("dominated_pair")


@pytest.fixture(scope="session")
def solo_game() -> GameSpec:
    return GameSpec.from_profiles([[0.5, 0.5, 0.5]])


@pytest.fixture(scope="session")
def parasite_game() -> GameSpec:
    # A strong specialist stuck with a dead-weight partner plus a welcoming
    # complementary specialist: the move s1 -> {s2} improves the deviator and
    # the receiver at once.
    return GameSpec.from_profiles(
        [[1.0, 0.0], [0.0, 0.8], [0.0, 0.0]],
        alpha=0.1,
        beta=1.3,
        labels=["strong-specialist", "welcoming-specialist", "dead-weight"],
    )


@pytest.fixture
def deadline():
    """`with deadline(seconds):` fails the test with TimeoutError when the
    block runs longer, so a hang fails fast instead of stalling the suite."""

    @contextmanager
    def within(seconds: float):
        def expire(signum, frame):
            raise TimeoutError(f"call did not return within {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return within


@pytest.fixture
def answering_plugin():
    """`answering_plugin(**fields)` is the command line of a stdio plugin
    that answers every query with `{"query_id": <its id>, **fields}`."""

    def command(**fields) -> tuple[str, ...]:
        source = (
            "import json, sys\n"
            f"fields = json.loads({json.dumps(json.dumps(fields))})\n"
            "for line in sys.stdin:\n"
            "    answer = {'query_id': json.loads(line)['query_id'], **fields}\n"
            "    print(json.dumps(answer), flush=True)\n"
        )
        return (sys.executable, "-c", source)

    return command
