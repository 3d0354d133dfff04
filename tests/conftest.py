import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from privset.params import ParamError  # noqa: E402  (after the path insert)

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def answer_block(vector, store, cr_symbol: int) -> int:
    """<vector, flattened store> + cr, in F_q, over unpacked coefficients: the
    explicit-loop reference that the packed block answers are checked against."""
    if len(vector) != store.K * store.L:
        raise ParamError(f"query vector length {len(vector)} != K*L = {store.K * store.L}")
    acc = cr_symbol
    for c, w in zip(vector, store.flat):
        acc += c * w
    return acc % store.q


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
